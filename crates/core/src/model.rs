//! The closed-form cost and probability formulas of the tutorial.
//!
//! Every bench prints a "paper formula" column next to the measured
//! value; the formulas live here.

use parqp_lp::fractional_edge_packing;
use parqp_query::{psi_star, Query};

/// Chernoff tail bound for hash partitioning with uniform degree `d`
/// (slide 25): `Pr[L ≥ (1+ε)·IN/p] ≤ p·exp(−ε²·IN/(3·p·d))`.
///
/// `d = 1` is the no-skew case of slide 24.
pub fn hash_partition_tail_bound(input: f64, p: f64, d: f64, eps: f64) -> f64 {
    (p * (-eps * eps * input / (3.0 * p * d)).exp()).min(1.0)
}

/// The degree threshold of slide 26: the largest uniform degree `d` for
/// which the hash-partitioned load stays within `(1+ε)·IN/p` with
/// probability `1 − δ`, i.e. the `d` solving
/// `p·exp(−ε²·IN/(3·p·d)) = δ`:
///
/// ```text
/// d = ε²·IN / (3·p·ln(p/δ))
/// ```
///
/// With the slide's parameters (`IN = 10¹¹`, ε = 0.3, δ = 0.05) this
/// reproduces its curve — about 4 million at `p = 100`, falling steeply
/// as `p` grows: more servers make skew bite earlier.
pub fn degree_threshold(input: f64, p: f64, eps: f64, delta: f64) -> f64 {
    eps * eps * input / (3.0 * p * (p / delta).ln())
}

/// Skew-free one-round load `L = IN/p^{1/τ*}` (slide 40).
pub fn one_round_load(input: f64, p: f64, tau_star: f64) -> f64 {
    input / p.powf(1.0 / tau_star)
}

/// Skewed one-round load `L = IN/p^{1/ψ*}` (slide 47).
pub fn one_round_load_skewed(input: f64, p: f64, psi: f64) -> f64 {
    input / p.powf(1.0 / psi)
}

/// The GYM-vs-HyperCube crossover of slide 78: GYM's `(IN+OUT)/p` beats
/// the one-round `IN/p^{1/τ*}` exactly when `OUT < p^{1−1/τ*}·IN − IN`;
/// returns that output threshold.
pub fn gym_crossover_output(input: f64, p: f64, tau_star: f64) -> f64 {
    p.powf(1.0 - 1.0 / tau_star) * input - input
}

/// τ\* of a query (fractional edge packing optimum).
pub fn tau_star(q: &Query) -> f64 {
    fractional_edge_packing(&q.hypergraph()).value
}

/// ψ\* of a query (slide 47; re-exported from `parqp_query`).
pub fn psi_star_of(q: &Query) -> f64 {
    psi_star(q)
}

/// The HyperCube speedup of slide 45: with fractional shares the
/// one-round load shrinks by `p^{1/τ*}`; this returns the *speedup*
/// `L(1)/L(p) = p^{1/τ*}`.
pub fn hypercube_speedup(p: f64, tau_star: f64) -> f64 {
    p.powf(1.0 / tau_star)
}

/// Slide 62's scalability limit: the factor by which `p` must grow to
/// double the HyperCube speedup is `2^{τ*}` — 1024× for the chain of 20
/// relations (τ\* = 10).
pub fn processors_for_double_speedup(tau_star: f64) -> f64 {
    2f64.powf(tau_star)
}

/// Expected PSRS load `N/p` (slide 102).
pub fn psrs_load(n: f64, p: f64) -> f64 {
    n / p
}

/// Sorting round lower bound `Ω(log_L N)` (slide 105).
pub fn sort_round_lower_bound(n: f64, l: f64) -> f64 {
    n.ln() / l.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_bound_decreases_with_input() {
        let loose = hash_partition_tail_bound(1e4, 100.0, 1.0, 0.1);
        let tight = hash_partition_tail_bound(1e7, 100.0, 1.0, 0.1);
        assert!(tight < loose);
        assert!((0.0..=1.0).contains(&tight));
    }

    #[test]
    fn tail_bound_grows_with_degree() {
        let low_d = hash_partition_tail_bound(1e6, 100.0, 1.0, 0.3);
        let high_d = hash_partition_tail_bound(1e6, 100.0, 1000.0, 0.3);
        assert!(high_d > low_d);
    }

    #[test]
    fn slide26_annotation_p100() {
        // Slide 26: IN = 100 billion, 30% over the mean with prob 95%,
        // p = 100 ⇒ d ≈ 4,000,000.
        let d = degree_threshold(1e11, 100.0, 0.3, 0.05);
        assert!((3.5e6..4.5e6).contains(&d), "d = {d}");
    }

    #[test]
    fn degree_threshold_decreases_in_p() {
        let d100 = degree_threshold(1e11, 100.0, 0.3, 0.05);
        let d1000 = degree_threshold(1e11, 1000.0, 0.3, 0.05);
        assert!(d1000 < d100 / 5.0, "skew bites harder at larger p");
    }

    #[test]
    fn threshold_consistent_with_bound() {
        // At d = degree_threshold the tail bound equals δ.
        let (input, p, eps, delta) = (1e9, 64.0, 0.3, 0.05);
        let d = degree_threshold(input, p, eps, delta);
        let bound = hash_partition_tail_bound(input, p, d, eps);
        assert!((bound - delta).abs() < 1e-9, "bound = {bound}");
    }

    #[test]
    fn loads_match_slide51() {
        let q = Query::triangle();
        let tau = tau_star(&q);
        let psi = psi_star_of(&q);
        assert!((tau - 1.5).abs() < 1e-9);
        assert!((psi - 2.0).abs() < 1e-9);
        let p = 64.0;
        let n = 3e6;
        assert!((one_round_load(n, p, tau) - n / p.powf(2.0 / 3.0)).abs() < 1e-6);
        assert!((one_round_load_skewed(n, p, psi) - n / 8.0).abs() < 1e-6);
    }

    #[test]
    fn chain20_needs_1024x() {
        // Slide 62.
        let q = Query::chain(20);
        assert!((processors_for_double_speedup(tau_star(&q)) - 1024.0).abs() < 1e-6);
    }

    #[test]
    fn crossover_positive_iff_p_gt_one() {
        let q = Query::triangle();
        let tau = tau_star(&q);
        assert!(gym_crossover_output(1e6, 64.0, tau) > 0.0);
        assert!(gym_crossover_output(1e6, 1.0, tau) <= 0.0);
    }

    #[test]
    fn sort_bound_monotone() {
        assert!(sort_round_lower_bound(1e9, 1e3) > sort_round_lower_bound(1e9, 1e6));
        assert!((psrs_load(1e6, 100.0) - 1e4).abs() < 1e-9);
    }
}
