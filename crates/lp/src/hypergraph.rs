//! Query hypergraphs.
//!
//! A conjunctive query `Q = S₁(x̄₁) ⋈ … ⋈ S_l(x̄_l)` is viewed as a
//! hypergraph whose vertices are the variables and whose hyperedges are
//! the atoms (slide 39). All of the LP quantities (τ\*, ρ\*, shares) are
//! defined on this structure.

/// A hypergraph with vertices `0..vertices` and hyperedges given as
/// sorted, deduplicated vertex lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hypergraph {
    vertices: usize,
    edges: Vec<Vec<usize>>,
}

impl Hypergraph {
    /// Build a hypergraph; edges are sorted and deduplicated internally.
    ///
    /// # Panics
    /// Panics if an edge is empty or mentions a vertex `≥ vertices`.
    pub fn new(vertices: usize, edges: Vec<Vec<usize>>) -> Self {
        let mut norm = Vec::with_capacity(edges.len());
        for mut e in edges {
            assert!(!e.is_empty(), "hyperedges must be non-empty");
            e.sort_unstable();
            e.dedup();
            assert!(
                *e.last().expect("non-empty") < vertices,
                "edge vertex out of range"
            );
            norm.push(e);
        }
        Self {
            vertices,
            edges: norm,
        }
    }

    /// Number of vertices (query variables).
    pub fn num_vertices(&self) -> usize {
        self.vertices
    }

    /// Number of hyperedges (query atoms).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The hyperedges.
    pub fn edges(&self) -> &[Vec<usize>] {
        &self.edges
    }

    /// The `j`-th hyperedge.
    pub fn edge(&self, j: usize) -> &[usize] {
        &self.edges[j]
    }

    /// Whether edge `j` contains vertex `v`.
    pub fn edge_contains(&self, j: usize, v: usize) -> bool {
        self.edges[j].binary_search(&v).is_ok()
    }

    /// Whether every vertex appears in at least one edge (required for an
    /// edge cover to exist).
    pub fn all_vertices_covered(&self) -> bool {
        (0..self.vertices).all(|v| self.edges.iter().any(|e| e.binary_search(&v).is_ok()))
    }

    // --- Named query shapes used throughout the paper ---

    /// The triangle query `R(x,y) ⋈ S(y,z) ⋈ T(z,x)` (slide 34):
    /// vertices `x=0, y=1, z=2`.
    pub fn triangle() -> Self {
        Self::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]])
    }

    /// The length-`n` chain (path) query
    /// `R₁(A₀,A₁) ⋈ R₂(A₁,A₂) ⋈ … ⋈ R_n(A_{n-1},A_n)` (slides 62, 79).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn chain(n: usize) -> Self {
        assert!(n > 0, "chain needs at least one atom");
        Self::new(n + 1, (0..n).map(|i| vec![i, i + 1]).collect())
    }

    /// The `n`-cycle query `R₁(x₁,x₂) ⋈ … ⋈ R_n(x_n,x₁)`.
    ///
    /// # Panics
    /// Panics if `n < 3`.
    pub fn cycle(n: usize) -> Self {
        assert!(n >= 3, "cycles need at least three atoms");
        Self::new(n, (0..n).map(|i| vec![i, (i + 1) % n]).collect())
    }

    /// The star query `R₁(A₀,A₁) ⋈ R₂(A₀,A₂) ⋈ … ⋈ R_n(A₀,A_n)` with a
    /// shared center variable `A₀` (slide 79).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn star(n: usize) -> Self {
        assert!(n > 0, "star needs at least one atom");
        Self::new(n + 1, (1..=n).map(|i| vec![0, i]).collect())
    }

    /// The "easy-hard" query `R(x) ⋈ S(x,y) ⋈ T(y)` of slides 53–58:
    /// vertices `x=0, y=1`.
    pub fn semijoin_pair() -> Self {
        Self::new(2, vec![vec![0], vec![0, 1], vec![1]])
    }

    /// The two-way join `R(x,y) ⋈ S(y,z)` (slide 41): vertices
    /// `x=0, y=1, z=2`.
    pub fn two_way() -> Self {
        Self::new(3, vec![vec![0, 1], vec![1, 2]])
    }

    /// The matrix-multiplication join `A(i,j) ⋈ B(j,k)` grouped by `(i,k)`
    /// has the same hypergraph as [`Hypergraph::two_way`]; provided under
    /// its own name for readability at call sites (slides 108, 123).
    pub fn matmul() -> Self {
        Self::two_way()
    }

    /// A ladder query in the spirit of slide 61's "example difficult
    /// query": two ternary rails `R₁ = {x₁,x₂,x₃}` and `R₂ = {y₁,y₂,y₃}`
    /// connected by binary rungs `Sᵢ = {xᵢ,yᵢ}`. Queries mixing high-arity
    /// rails with binary rungs are exactly the shape for which one-round
    /// skew-resilient processing is open.
    ///
    /// For this encoding τ\* = 3 (pack the three rungs) and ρ\* = 2
    /// (cover with the two rails).
    ///
    /// Vertices: `x₁=0, x₂=1, x₃=2, y₁=3, y₂=4, y₃=5`.
    pub fn ladder() -> Self {
        Self::new(
            6,
            vec![
                vec![0, 1, 2],
                vec![3, 4, 5],
                vec![0, 3],
                vec![1, 4],
                vec![2, 5],
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_shape() {
        let h = Hypergraph::triangle();
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(h.num_edges(), 3);
        assert!(h.edge_contains(0, 0) && h.edge_contains(0, 1));
        assert!(h.edge_contains(2, 0) && !h.edge_contains(1, 0));
        assert!(h.all_vertices_covered());
    }

    #[test]
    fn chain_shape() {
        let h = Hypergraph::chain(3);
        assert_eq!(h.num_vertices(), 4);
        assert_eq!(h.edges(), &[vec![0, 1], vec![1, 2], vec![2, 3]]);
    }

    #[test]
    fn cycle_wraps() {
        let h = Hypergraph::cycle(4);
        assert_eq!(h.edge(3), &[0, 3]);
    }

    #[test]
    fn star_center() {
        let h = Hypergraph::star(4);
        assert_eq!(h.num_vertices(), 5);
        assert!(h.edges().iter().all(|e| e.contains(&0)));
    }

    #[test]
    fn semijoin_pair_shape() {
        let h = Hypergraph::semijoin_pair();
        assert_eq!(h.edges(), &[vec![0], vec![0, 1], vec![1]]);
    }

    #[test]
    fn ladder_shape() {
        let h = Hypergraph::ladder();
        assert_eq!(h.num_edges(), 5);
        assert!(h.all_vertices_covered());
    }

    #[test]
    fn edges_normalized() {
        let h = Hypergraph::new(3, vec![vec![2, 0, 2]]);
        assert_eq!(h.edge(0), &[0, 2]);
    }

    #[test]
    fn uncovered_vertex_detected() {
        let h = Hypergraph::new(3, vec![vec![0, 1]]);
        assert!(!h.all_vertices_covered());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_vertex_rejected() {
        Hypergraph::new(2, vec![vec![0, 2]]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_edge_rejected() {
        Hypergraph::new(2, vec![vec![]]);
    }
}
