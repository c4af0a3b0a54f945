//! Closed-form communication/round costs (slides 122–126).
//!
//! All formulas count matrix *elements*, matching the simulator's word
//! accounting, and take the per-server load budget `L` as the free
//! parameter — the x-axis of slide 126's `C`-vs-`L` frontier.

/// Rectangle-block: group size `t = L/(2n)`, `K = n/t` groups, and total
/// communication `C = K²·L = 4n⁴/L` in a single round (slide 110).
pub fn rect_comm(n: u64, l: u64) -> f64 {
    4.0 * (n as f64).powi(4) / l as f64
}

/// Square-block: block side `nb = √(L/2)`, `H = n/nb`, and
/// multiplication communication `C = 2n²·H = 2√2·n³/√L` (slide 122).
pub fn square_comm(n: u64, l: u64) -> f64 {
    let nb = (l as f64 / 2.0).sqrt();
    2.0 * (n as f64).powi(2) * (n as f64 / nb)
}

/// Square-block rounds: `⌈H³/p⌉` multiplication rounds
/// `= n³/(p·(L/2)^{3/2})`, plus the `log_L n` aggregation term
/// (slide 122).
pub fn square_rounds(n: u64, l: u64, p: u64) -> f64 {
    let nf = n as f64;
    let lf = l as f64;
    let mult = nf.powi(3) / (p as f64 * (lf / 2.0).powf(1.5));
    mult.max(1.0) + (nf.ln() / lf.ln()).max(0.0)
}

/// The 1-round communication lower bound `C = Ω(n⁴/L)` (slide 126).
pub fn lb_comm_one_round(n: u64, l: u64) -> f64 {
    (n as f64).powi(4) / l as f64
}

/// The round-independent communication lower bound `C = Ω(n³/√L)`
/// (slides 123–124): with `L` elements a processor performs `O(L^{3/2})`
/// elementary products (by AGM with τ\* = 3/2), and `n³` are needed.
pub fn lb_comm_multi_round(n: u64, l: u64) -> f64 {
    (n as f64).powi(3) / (l as f64).sqrt()
}

/// The minimum number of rounds forced by a load budget on slide 126's
/// frontier: the number of rounds below which even the optimal
/// multi-round algorithm cannot fit its communication, i.e. the smallest
/// `r` with `r·p·L ≥ n³/√L`.
pub fn min_rounds_on_frontier(n: u64, l: u64, p: u64) -> u64 {
    (lb_comm_multi_round(n, l) / (p as f64 * l as f64))
        .ceil()
        .max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_comm_matches_measured() {
        // Cross-check the formula against the simulator.
        let n = 16u64;
        let t = 4u64;
        let l = 2 * t * n;
        let a = crate::Matrix::random(n as usize, 1);
        let b = crate::Matrix::random(n as usize, 2);
        let run = crate::rect_block(&a, &b, t as usize, t as usize);
        assert_eq!(run.report.total_words() as f64, rect_comm(n, l));
    }

    #[test]
    fn square_comm_matches_measured() {
        let n = 24u64;
        let h = 4u64;
        let nb = n / h;
        let l = 2 * nb * nb;
        let a = crate::Matrix::random(n as usize, 3);
        let b = crate::Matrix::random(n as usize, 4);
        let run = crate::square_block(&a, &b, h as usize, (h * h) as usize);
        let measured = run.report.total_words() as f64;
        assert!(
            (measured - square_comm(n, l)).abs() < 1e-6,
            "measured {measured} vs formula {}",
            square_comm(n, l)
        );
    }

    #[test]
    fn square_beats_rect_for_small_l() {
        // Slide 126: the multi-round frontier n³/√L sits far below the
        // 1-round n⁴/L when L ≪ n².
        let n = 1000;
        let l = 2 * n; // minimum feasible for rect (one row + one col)
        assert!(square_comm(n, l) < rect_comm(n, l) / 10.0);
    }

    #[test]
    fn frontier_round_thresholds_decrease_with_l() {
        let n = 1 << 10;
        let p = 1 << 6;
        let mut last = u64::MAX;
        for l in [1u64 << 8, 1 << 10, 1 << 12, 1 << 16, 1 << 20] {
            let r = min_rounds_on_frontier(n, l, p);
            assert!(r <= last, "rounds must fall as L grows");
            last = r;
        }
    }

    #[test]
    fn bounds_are_bounds() {
        // Our algorithms' formulas dominate their lower bounds.
        for l in [1u64 << 8, 1 << 12, 1 << 16] {
            let n = 1 << 9;
            assert!(rect_comm(n, l) >= lb_comm_one_round(n, l));
            assert!(square_comm(n, l) >= lb_comm_multi_round(n, l) / 2.0f64.sqrt());
        }
    }
}
