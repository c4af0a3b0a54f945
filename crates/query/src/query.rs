//! Conjunctive queries (natural joins).
//!
//! A query is a set of atoms over variables `0..num_vars`; its result is
//! the natural join: all assignments of values to variables such that
//! every atom's projection is present in its relation. The output schema
//! is the full variable list `0..num_vars` in order.

use parqp_lp::Hypergraph;

/// A query variable, identified by index.
pub type Var = usize;

/// One atom `S(x̄)`: a relation name plus the variables at its positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// Display name of the relation (e.g. `"R"`).
    pub name: String,
    /// Variables at the atom's positions, in positional order. Distinct.
    pub vars: Vec<Var>,
}

impl Atom {
    /// Create an atom.
    ///
    /// # Panics
    /// Panics if `vars` is empty or contains repeats (self-join positions
    /// within one atom are not supported; rename apart first).
    pub fn new(name: impl Into<String>, vars: Vec<Var>) -> Self {
        assert!(!vars.is_empty(), "atoms must have at least one variable");
        let mut sorted = vars.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), vars.len(), "repeated variable within an atom");
        Self {
            name: name.into(),
            vars,
        }
    }

    /// Arity of the atom.
    pub fn arity(&self) -> usize {
        self.vars.len()
    }
}

/// A conjunctive query: a natural join of atoms over `0..num_vars`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    num_vars: usize,
    atoms: Vec<Atom>,
}

impl Query {
    /// Create a query.
    ///
    /// # Panics
    /// Panics if there are no atoms, an atom mentions a variable
    /// `≥ num_vars`, or some variable in `0..num_vars` appears in no atom
    /// (the output would be unconstrained).
    pub fn new(num_vars: usize, atoms: Vec<Atom>) -> Self {
        assert!(!atoms.is_empty(), "queries must have at least one atom");
        let mut used = vec![false; num_vars];
        for a in &atoms {
            for &v in &a.vars {
                assert!(
                    v < num_vars,
                    "atom {} uses variable {v} >= num_vars {num_vars}",
                    a.name
                );
                used[v] = true;
            }
        }
        assert!(
            used.iter().all(|&u| u),
            "every variable must appear in some atom"
        );
        Self { num_vars, atoms }
    }

    /// Number of variables (= output arity).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The atoms.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Number of atoms.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// The query's hypergraph: vertices = variables, edges = atoms.
    pub fn hypergraph(&self) -> Hypergraph {
        Hypergraph::new(
            self.num_vars,
            self.atoms.iter().map(|a| a.vars.clone()).collect(),
        )
    }

    /// Variables shared between atom `i` and atom `j`.
    pub fn shared_vars(&self, i: usize, j: usize) -> Vec<Var> {
        self.atoms[i]
            .vars
            .iter()
            .copied()
            .filter(|v| self.atoms[j].vars.contains(v))
            .collect()
    }

    // --- The named queries of the tutorial ---

    /// Triangle `Δ(x,y,z) = R(x,y) ⋈ S(y,z) ⋈ T(z,x)` (slide 34).
    /// Variables: `x=0, y=1, z=2`.
    pub fn triangle() -> Self {
        Self::new(
            3,
            vec![
                Atom::new("R", vec![0, 1]),
                Atom::new("S", vec![1, 2]),
                Atom::new("T", vec![2, 0]),
            ],
        )
    }

    /// Two-way join `R(x,y) ⋈ S(y,z)` (slide 22). Variables `x=0,y=1,z=2`.
    pub fn two_way() -> Self {
        Self::new(
            3,
            vec![Atom::new("R", vec![0, 1]), Atom::new("S", vec![1, 2])],
        )
    }

    /// Cartesian product `R(x) ⋈ S(z)` (slide 27). Variables `x=0,z=1`.
    pub fn product() -> Self {
        Self::new(2, vec![Atom::new("R", vec![0]), Atom::new("S", vec![1])])
    }

    /// The semijoin pair `R(x) ⋈ S(x,y) ⋈ T(y)` (slide 53).
    /// Variables `x=0, y=1`.
    pub fn semijoin_pair() -> Self {
        Self::new(
            2,
            vec![
                Atom::new("R", vec![0]),
                Atom::new("S", vec![0, 1]),
                Atom::new("T", vec![1]),
            ],
        )
    }

    /// Chain query `R₁(A₀,A₁) ⋈ … ⋈ R_n(A_{n-1},A_n)` (slides 62, 79).
    pub fn chain(n: usize) -> Self {
        assert!(n > 0);
        Self::new(
            n + 1,
            (0..n)
                .map(|i| Atom::new(format!("R{}", i + 1), vec![i, i + 1]))
                .collect(),
        )
    }

    /// Star query `R₁(A₀,A₁) ⋈ R₂(A₀,A₂) ⋈ … ⋈ R_n(A₀,A_n)` (slide 79).
    pub fn star(n: usize) -> Self {
        assert!(n > 0);
        Self::new(
            n + 1,
            (1..=n)
                .map(|i| Atom::new(format!("R{i}"), vec![0, i]))
                .collect(),
        )
    }

    /// Cycle query `R₁(x₁,x₂) ⋈ … ⋈ R_n(x_n,x₁)`.
    pub fn cycle(n: usize) -> Self {
        assert!(n >= 3);
        Self::new(
            n,
            (0..n)
                .map(|i| Atom::new(format!("R{}", i + 1), vec![i, (i + 1) % n]))
                .collect(),
        )
    }

    /// The slide-64 acyclic example:
    /// `R₁(A₀,A₁) ⋈ R₂(A₀,A₂) ⋈ R₃(A₁,A₃) ⋈ R₄(A₂,A₄) ⋈ R₅(A₂,A₅)`.
    pub fn slide64_tree() -> Self {
        Self::new(
            6,
            vec![
                Atom::new("R1", vec![0, 1]),
                Atom::new("R2", vec![0, 2]),
                Atom::new("R3", vec![1, 3]),
                Atom::new("R4", vec![2, 4]),
                Atom::new("R5", vec![2, 5]),
            ],
        )
    }
}

impl std::fmt::Display for Atom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}(", self.name)?;
        for (k, v) in self.vars.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "x{v}")?;
        }
        write!(f, ")")
    }
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " ⋈ ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parqp_lp::fractional_edge_packing;

    #[test]
    fn triangle_structure() {
        let q = Query::triangle();
        assert_eq!(q.num_vars(), 3);
        assert_eq!(q.num_atoms(), 3);
        assert_eq!(q.shared_vars(0, 1), vec![1]);
        assert_eq!(q.shared_vars(0, 2), vec![0]);
    }

    #[test]
    fn hypergraph_matches_lp_constructors() {
        assert_eq!(
            Query::triangle().hypergraph(),
            parqp_lp::Hypergraph::triangle()
        );
        assert_eq!(Query::chain(5).hypergraph(), parqp_lp::Hypergraph::chain(5));
        assert_eq!(
            Query::semijoin_pair().hypergraph(),
            parqp_lp::Hypergraph::semijoin_pair()
        );
    }

    #[test]
    fn chain20_tau_ten() {
        // Slide 62: the chain of 20 binary atoms has τ* = 10.
        let p = fractional_edge_packing(&Query::chain(20).hypergraph());
        assert!((p.value - 10.0).abs() < 1e-6);
    }

    #[test]
    fn display_readable() {
        let s = Query::two_way().to_string();
        assert_eq!(s, "R(x0,x1) ⋈ S(x1,x2)");
    }

    #[test]
    fn star_has_common_center() {
        let q = Query::star(3);
        for a in q.atoms() {
            assert!(a.vars.contains(&0));
        }
    }

    #[test]
    #[should_panic(expected = "every variable")]
    fn unused_variable_rejected() {
        Query::new(3, vec![Atom::new("R", vec![0, 1])]);
    }

    #[test]
    #[should_panic(expected = "repeated variable")]
    fn repeated_var_rejected() {
        Atom::new("R", vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "at least one atom")]
    fn empty_query_rejected() {
        Query::new(0, vec![]);
    }
}
