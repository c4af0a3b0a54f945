//! Optimal HyperCube shares.
//!
//! The HyperCube algorithm arranges `p` servers in a `p₁ × … × p_k` grid,
//! one dimension per join variable, with `∏ pᵢ ≤ p` (slide 37). Relation
//! `S_j` is hashed on its own variables and replicated along the others,
//! so a server receives `|S_j| / ∏_{i ∈ S_j} pᵢ` of its tuples in
//! expectation (slide 38). Writing `pᵢ = p^{eᵢ}`, minimizing the maximum
//! per-relation load is the linear program (in `log_p` space):
//!
//! ```text
//! minimize λ   s.t.  ∀j:  Σ_{i∈S_j} eᵢ + λ ≥ w_j     (w_j = log_p |S_j|)
//!                    Σᵢ eᵢ ≤ 1,   eᵢ ≥ 0,   λ free
//! ```
//!
//! By LP duality the optimum equals the edge-packing bound of slide 40:
//! `L = max_u (∏_j |S_j|^{u_j} / p)^{1/Σu_j}` over fractional edge
//! packings `u` (for equal sizes `N`, `N/p^{1/τ*}`, which the tests
//! check).
//!
//! Real grids need integer shares; [`integer_shares`] rounds the
//! fractional optimum greedily, never exceeding `p` servers.

use crate::hypergraph::Hypergraph;
use crate::simplex::{solve, Constraint, ConstraintOp, LinearProgram};

/// A complete share plan for a query.
#[derive(Debug, Clone)]
pub struct ShareAssignment {
    /// Fractional exponents `eᵢ` with `pᵢ = p^{eᵢ}` (one per variable).
    pub exponents: Vec<f64>,
    /// The LP optimum `λ = log_p L`: the fractional-share load is `p^λ`.
    pub log_p_load: f64,
    /// Rounded integer shares with `∏ shares ≤ p`.
    pub shares: Vec<usize>,
}

impl ShareAssignment {
    /// The load predicted by the *fractional* optimum, in tuples.
    pub fn fractional_load(&self, p: usize) -> f64 {
        (p as f64).powf(self.log_p_load)
    }
}

/// Solve the share-exponent LP. Returns `(exponents, λ)` where
/// `λ = log_p L` at the fractional optimum.
///
/// # Panics
/// Panics if `p < 2`, `sizes.len() != h.num_edges()`, or any size is 0.
pub fn optimal_share_exponents(h: &Hypergraph, sizes: &[u64], p: usize) -> (Vec<f64>, f64) {
    assert!(p >= 2, "share optimization needs p >= 2");
    assert_eq!(sizes.len(), h.num_edges(), "one size per atom required");
    assert!(sizes.iter().all(|&s| s > 0), "atom sizes must be positive");
    let k = h.num_vertices();
    let logp = (p as f64).ln();
    let w: Vec<f64> = sizes.iter().map(|&s| (s as f64).ln() / logp).collect();

    // Variables: e_0 .. e_{k-1}, λ⁺ (index k), λ⁻ (index k+1).
    let nvars = k + 2;
    let mut constraints = Vec::with_capacity(h.num_edges() + 1);
    for (j, e) in h.edges().iter().enumerate() {
        let mut coeffs = vec![0.0; nvars];
        for &v in e {
            coeffs[v] = 1.0;
        }
        coeffs[k] = 1.0;
        coeffs[k + 1] = -1.0;
        constraints.push(Constraint::new(coeffs, ConstraintOp::Ge, w[j]));
    }
    let mut sum = vec![0.0; nvars];
    sum[..k].fill(1.0);
    constraints.push(Constraint::new(sum, ConstraintOp::Le, 1.0));

    let mut objective = vec![0.0; nvars];
    objective[k] = 1.0;
    objective[k + 1] = -1.0;
    let lp = LinearProgram {
        objective,
        maximize: false,
        constraints,
    };
    let s = solve(&lp).expect_optimal("share LP is feasible (e = 0, λ = max w)");
    let exponents = s.x[..k].to_vec();
    (exponents, s.objective)
}

/// Predicted per-server load (in tuples) of the HyperCube with the given
/// integer shares: `max_j |S_j| / ∏_{i∈S_j} sᵢ`, computed in floats.
pub fn predicted_load(h: &Hypergraph, sizes: &[u64], shares: &[usize]) -> f64 {
    assert_eq!(shares.len(), h.num_vertices());
    h.edges()
        .iter()
        .zip(sizes)
        .map(|(e, &s)| {
            let denom: f64 = e.iter().map(|&v| shares[v] as f64).product();
            s as f64 / denom
        })
        .fold(0.0, f64::max)
}

/// Sum of per-relation predicted loads (the greedy's secondary
/// objective: progress on non-bottleneck relations while the max ties).
fn total_load(h: &Hypergraph, sizes: &[u64], shares: &[usize]) -> f64 {
    h.edges()
        .iter()
        .zip(sizes)
        .map(|(e, &s)| {
            let denom: f64 = e.iter().map(|&v| shares[v] as f64).product();
            s as f64 / denom
        })
        .sum()
}

/// Round fractional exponents into integer shares with `∏ shares ≤ p`.
///
/// Two candidate roundings are computed and the one with the smaller
/// [`predicted_load`] wins:
///
/// 1. **pure greedy** from all-1 shares (good when the LP splits budget
///    unevenly — e.g. triangles at non-cube `p`);
/// 2. **LP floor + greedy top-up**: start from `max(1, ⌊p^{eᵢ}⌋)`
///    (shrunk to fit `p`), then greedily spend any leftover budget —
///    this follows the LP's structure on long chains, where pure greedy
///    can strand budget on even-positioned variables.
pub fn integer_shares(h: &Hypergraph, sizes: &[u64], p: usize, exponents: &[f64]) -> Vec<usize> {
    let k = h.num_vertices();
    assert_eq!(exponents.len(), k, "one exponent per variable");
    assert!(p >= 1);

    let greedy = greedy_from(vec![1; k], h, sizes, p, exponents);
    let mut floored: Vec<usize> = exponents
        .iter()
        .map(|&e| ((p as f64).powf(e).floor() as usize).max(1))
        .collect();
    while floored.iter().product::<usize>() > p {
        let i = (0..k)
            .filter(|&i| floored[i] > 1)
            .max_by_key(|&i| floored[i])
            .expect("product > p needs a share > 1");
        floored[i] -= 1;
    }
    let topped = greedy_from(floored, h, sizes, p, exponents);

    if predicted_load(h, sizes, &topped) < predicted_load(h, sizes, &greedy) {
        topped
    } else {
        greedy
    }
}

/// Greedy share increments from a feasible starting point: repeatedly
/// bump the dimension that most reduces the max load — with the *sum* of
/// per-relation loads as tiebreak (progress on non-bottleneck relations
/// while the max ties), then the larger fractional exponent, then the
/// smaller index — while the product stays within `p`.
fn greedy_from(
    start: Vec<usize>,
    h: &Hypergraph,
    sizes: &[u64],
    p: usize,
    exponents: &[f64],
) -> Vec<usize> {
    let k = h.num_vertices();
    let mut shares = start;
    loop {
        let product: usize = shares.iter().product();
        // (max load, sum load, -exponent, dim)
        let mut best: Option<(f64, f64, f64, usize)> = None;
        for i in 0..k {
            // Incrementing dim i multiplies the product by (s_i+1)/s_i.
            if product / shares[i] * (shares[i] + 1) > p {
                continue;
            }
            shares[i] += 1;
            let load = predicted_load(h, sizes, &shares);
            let sum = total_load(h, sizes, &shares);
            shares[i] -= 1;
            let cand = (load, sum, -exponents[i], i);
            // Relative tolerance: loads can be ~1e6, where any absolute
            // epsilon below one ULP would make ties undetectable.
            let distinct = |a: f64, b: f64| (a - b).abs() > 1e-9 * a.abs().max(b.abs()).max(1.0);
            let better = best.is_none_or(|b| {
                if distinct(cand.0, b.0) {
                    cand.0 < b.0
                } else if distinct(cand.1, b.1) {
                    cand.1 < b.1
                } else {
                    (cand.2, cand.3) < (b.2, b.3)
                }
            });
            if better {
                best = Some(cand);
            }
        }
        match best {
            Some((_, _, _, i)) => shares[i] += 1,
            None => return shares,
        }
    }
}

/// Convenience wrapper: solve the exponent LP and round to integers.
///
/// ```
/// use parqp_lp::{plan_shares, Hypergraph};
///
/// // Triangle, equal sizes, 64 servers: the LP picks the 4×4×4 cube.
/// let plan = plan_shares(&Hypergraph::triangle(), &[10_000; 3], 64);
/// assert_eq!(plan.shares, vec![4, 4, 4]);
/// ```
pub fn plan_shares(h: &Hypergraph, sizes: &[u64], p: usize) -> ShareAssignment {
    let (exponents, log_p_load) = optimal_share_exponents(h, sizes, p);
    let shares = integer_shares(h, sizes, p, &exponents);
    ShareAssignment {
        exponents,
        log_p_load,
        shares,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn triangle_equal_sizes_exponents() {
        // Slide 40/41: equal sizes N → e = (1/3,1/3,1/3), L = N/p^{2/3}.
        let h = Hypergraph::triangle();
        let n = 1_000_000;
        let p = 64;
        let (e, lam) = optimal_share_exponents(&h, &[n, n, n], p);
        for &ei in &e {
            assert!(close(ei, 1.0 / 3.0, 1e-6), "exponent {ei}");
        }
        let expect = (n as f64) / (p as f64).powf(2.0 / 3.0);
        assert!(close((p as f64).powf(lam), expect, expect * 1e-6));
    }

    #[test]
    fn two_way_hashes_join_variable() {
        // R(x,y) ⋈ S(y,z): all share on y → L = N/p.
        let h = Hypergraph::two_way();
        let n = 10_000;
        let (e, lam) = optimal_share_exponents(&h, &[n, n], 16);
        assert!(close(e[1], 1.0, 1e-6), "e_y = {}", e[1]);
        assert!(close((16.0f64).powf(lam), n as f64 / 16.0, 1.0));
    }

    #[test]
    fn unequal_triangle_small_relation_gets_no_shares() {
        // Slide 44: when |R| dominates, pz = 1 and L = |R|/p... in exponent
        // form: tiny |S|,|T| → the LP puts shares on x,y only.
        let h = Hypergraph::triangle(); // R={x,y}, S={y,z}, T={x,z}
        let p = 64;
        let (e, _) = optimal_share_exponents(&h, &[1_000_000, 100, 100], p);
        assert!(e[2] < 0.05, "e_z = {} should be ~0", e[2]);
        assert!(close(e[0] + e[1], 1.0, 1e-6));
    }

    #[test]
    fn integer_shares_triangle_cube() {
        let h = Hypergraph::triangle();
        let n = 1_000_000u64;
        let plan = plan_shares(&h, &[n, n, n], 64);
        assert_eq!(plan.shares, vec![4, 4, 4]);
        let prod: usize = plan.shares.iter().product();
        assert!(prod <= 64);
    }

    #[test]
    fn integer_shares_respect_budget() {
        for p in [1, 2, 3, 5, 7, 10, 17, 100, 1000] {
            for h in [
                Hypergraph::triangle(),
                Hypergraph::chain(4),
                Hypergraph::star(3),
            ] {
                let sizes = vec![1000u64; h.num_edges()];
                if p >= 2 {
                    let plan = plan_shares(&h, &sizes, p);
                    let prod: usize = plan.shares.iter().product();
                    assert!(prod <= p, "product {prod} > p {p}");
                    assert!(plan.shares.iter().all(|&s| s >= 1));
                }
            }
        }
    }

    #[test]
    fn integer_rounding_near_fractional_optimum() {
        // For a perfect cube p the rounded load should match the
        // fractional bound exactly; otherwise stay within a small factor.
        let h = Hypergraph::triangle();
        let n = 1_000_000u64;
        for p in [8usize, 27, 64, 125, 512] {
            let plan = plan_shares(&h, &[n, n, n], p);
            let frac = plan.fractional_load(p);
            let rounded = predicted_load(&h, &[n, n, n], &plan.shares);
            assert!(rounded <= frac * 2.0 + 1.0, "p={p}: {rounded} vs {frac}");
        }
    }

    #[test]
    fn two_way_integer_shares_all_on_join_var() {
        let h = Hypergraph::two_way();
        let plan = plan_shares(&h, &[1000, 1000], 16);
        assert_eq!(
            plan.shares[1], 16,
            "join variable takes all servers: {:?}",
            plan.shares
        );
    }

    #[test]
    fn cartesian_grid_from_lp() {
        // Product query R(x) ⋈ S(z) (no shared variable): hypergraph with
        // two disjoint unary edges. Equal sizes → shares √p × √p (slide 28).
        let h = Hypergraph::new(2, vec![vec![0], vec![1]]);
        let plan = plan_shares(&h, &[10_000, 10_000], 16);
        assert_eq!(plan.shares, vec![4, 4]);
    }

    #[test]
    fn cartesian_grid_unequal_slide28() {
        // Optimal split |R|/p1 = |S|/p2 (slide 28).
        let h = Hypergraph::new(2, vec![vec![0], vec![1]]);
        let plan = plan_shares(&h, &[40_000, 10_000], 16);
        assert_eq!(plan.shares, vec![8, 2]);
    }

    #[test]
    fn predicted_load_formula() {
        let h = Hypergraph::triangle();
        let load = predicted_load(&h, &[120, 60, 240], &[2, 3, 1]);
        // R/(2·3)=20, S/(3·1)=20, T/(2·1)=120
        assert!(close(load, 120.0, 1e-9));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_rejected() {
        optimal_share_exponents(&Hypergraph::triangle(), &[0, 1, 1], 4);
    }
}
