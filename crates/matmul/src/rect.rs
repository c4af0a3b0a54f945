//! The 1-round rectangle-block algorithm (slides 109–110).
//!
//! With a load budget `L = 2tn` each processor can hold `t` full rows of
//! `A` and `t` full columns of `B`, computing a `t × t` block of `C` with
//! `t²n` elementary products. Dividing the rows and columns into
//! `K = ⌈n/t⌉ groups` needs `p = K²` processors and total communication
//! `C = K²·L = Θ(n⁴/L)` — the 1-round lower bound (slide 126), met with
//! equality. Nothing in the algorithm needs the matrices square: with
//! separate group sizes for the rows of `A` and the columns of `B` it
//! multiplies any `m×k · k×n` (slide 127).

use crate::dense::{gemm_acc, Matrix};
use crate::MatMulRun;
use parqp_mpc::{metrics, trace, Cluster, Grid, Weight};

/// A contiguous vector of matrix elements on the wire, tagged with the
/// row/column index it came from. Each element is one word; the tag is
/// routing metadata, matching the slides' element counting.
#[derive(Debug, Clone)]
struct Strip {
    id: u64,
    vals: Vec<f64>,
}

impl Weight for Strip {
    fn words(&self) -> u64 {
        self.vals.len() as u64
    }
}

/// Multiply `A (m×k) · B (k×n)` with the rectangle-block algorithm at
/// row-group size `t1` and column-group size `t2`: processor `(i, j)` of
/// a `⌈m/t1⌉ × ⌈n/t2⌉` grid receives `t1` rows of `A` and `t2` columns
/// of `B` — load `L = (t1 + t2)·k` — and computes a `t1 × t2` block of
/// `C`. The square case of the slides is `t1 = t2 = t`, `L = 2tn`,
/// `p = ⌈n/t⌉²`; other shapes are slide 127's non-square result.
///
/// ```
/// use parqp_matmul::{rect_block, Matrix};
///
/// let a = Matrix::random(8, 1);
/// let b = Matrix::random(8, 2);
/// let run = rect_block(&a, &b, 2, 2);
/// assert!(run.c.max_abs_diff(&a.multiply(&b)) < 1e-9);
/// assert_eq!(run.report.num_rounds(), 1);
/// ```
///
/// # Panics
/// Panics if the inner dimensions differ, or a group size is zero or
/// exceeds its dimension.
pub fn rect_block(a: &Matrix, b: &Matrix, t1: usize, t2: usize) -> MatMulRun {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    assert!(t1 >= 1 && t1 <= m, "t1 must be in 1..=m");
    assert!(t2 >= 1 && t2 <= n, "t2 must be in 1..=n");
    let grid = Grid::new(vec![m.div_ceil(t1), n.div_ceil(t2)]);
    let mut cluster = Cluster::new(grid.len());
    if metrics::is_enabled() {
        // Slides 109–110: L = (t1 + t2)·k words (t1 rows of A + t2
        // columns of B), one round, meeting the 1-round lower bound
        // with equality.
        metrics::announce(&metrics::PaperBound::words(
            "matmul_rect",
            ((t1 + t2) * k) as f64,
            1,
        ));
    }

    // One round: row i of A goes to every processor in row-group i/t1;
    // column j of B to every processor in column-group j/t2. Ids ≥ m
    // mark columns so receivers can split their inbox.
    let scatter_span = trace::span("matmul_rect/scatter");
    let mut ex = cluster.exchange::<Strip>();
    for i in 0..m {
        let strip = Strip {
            id: i as u64,
            vals: a.row(i).to_vec(),
        };
        ex.send_matching(&grid, &[Some(i / t1), None], strip);
    }
    for j in 0..n {
        let strip = Strip {
            id: (m + j) as u64,
            vals: b.col(j),
        };
        ex.send_matching(&grid, &[None, Some(j / t2)], strip);
    }
    let inboxes = ex.finish();
    drop(scatter_span);

    // Local: each processor multiplies its rows × columns block.
    let _span = trace::span("matmul_rect/multiply");
    let mut c = Matrix::zeros(m, n);
    for (rank, inbox) in inboxes.into_iter().enumerate() {
        let coords = grid.coords(rank);
        let (bi, bj) = (coords[0], coords[1]);
        // The received columns go straight into a `k × tc` row-major
        // panel, transposed once, so that each received row is one kernel
        // call into its slice of `C`.
        let mut panel = Matrix::zeros(k, t2.min(n - bj * t2));
        let mut rows = Vec::new();
        for strip in inbox {
            let id = strip.id as usize;
            if id < m {
                debug_assert_eq!(id / t1, bi);
                rows.push((id, Matrix::from_data(1, k, strip.vals)));
            } else {
                debug_assert_eq!((id - m) / t2, bj);
                for (kk, v) in strip.vals.into_iter().enumerate() {
                    panel.set(kk, id - m - bj * t2, v);
                }
            }
        }
        for (i, arow) in rows {
            let crow = &mut c.row_mut(i)[bj * t2..];
            gemm_acc(crow, n, arow.view(), panel.view());
        }
    }
    MatMulRun {
        c,
        report: cluster.report(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_product() {
        let a = Matrix::random(12, 1);
        let b = Matrix::random(12, 2);
        let expect = a.multiply(&b);
        for t in [1, 2, 3, 4, 6, 12] {
            let run = rect_block(&a, &b, t, t);
            assert!(run.c.max_abs_diff(&expect) < 1e-9, "t = {t} wrong product");
        }
    }

    #[test]
    fn one_round_and_load_2tn() {
        let n = 16;
        let a = Matrix::random(n, 3);
        let b = Matrix::random(n, 4);
        let t = 4;
        let run = rect_block(&a, &b, t, t);
        assert_eq!(run.report.num_rounds(), 1);
        // Every processor receives exactly t rows + t cols = 2tn words.
        assert_eq!(run.report.max_load_words(), (2 * t * n) as u64);
        assert_eq!(run.report.servers, (n / t) * (n / t));
    }

    #[test]
    fn total_communication_n4_over_l() {
        let n = 16;
        let a = Matrix::random(n, 5);
        let b = Matrix::random(n, 6);
        let t = 4;
        let run = rect_block(&a, &b, t, t);
        let l = (2 * t * n) as u64;
        // C = K²·L = (n/t)²·2tn = 2n³/t = 4n⁴/L exactly.
        assert_eq!(run.report.total_words(), 4 * (n as u64).pow(4) / l);
    }

    #[test]
    fn ragged_group_size() {
        let a = Matrix::random(10, 7);
        let b = Matrix::random(10, 8);
        let run = rect_block(&a, &b, 3, 3); // K = ⌈10/3⌉ = 4
        assert!(run.c.max_abs_diff(&a.multiply(&b)) < 1e-9);
        assert_eq!(run.report.servers, 16);
    }

    #[test]
    fn t_equals_n_single_server() {
        let a = Matrix::random(6, 9);
        let b = Matrix::random(6, 10);
        let run = rect_block(&a, &b, 6, 6);
        assert_eq!(run.report.servers, 1);
        assert!(run.c.max_abs_diff(&a.multiply(&b)) < 1e-9);
    }

    #[test]
    fn rect_block_correct_nonsquare() {
        let a = Matrix::random_int(12, 20, 5, 1.0, 1);
        let b = Matrix::random_int(20, 8, 5, 1.0, 2);
        let expect = a.multiply(&b);
        for (t1, t2) in [(3, 2), (4, 4), (12, 8), (1, 1), (5, 3)] {
            let run = rect_block(&a, &b, t1, t2);
            assert!(run.c.max_abs_diff(&expect) < 1e-9, "t=({t1},{t2})");
            assert_eq!(run.report.num_rounds(), 1);
        }
    }

    #[test]
    fn rect_block_load_formula() {
        let a = Matrix::random_int(12, 20, 5, 1.0, 3);
        let b = Matrix::random_int(20, 8, 5, 1.0, 4);
        let run = rect_block(&a, &b, 3, 2);
        // (t1 + t2)·k = 5 · 20 = 100 words per processor.
        assert_eq!(run.report.max_load_words(), 100);
        assert_eq!(run.report.servers, (12 / 3) * (8 / 2));
    }

    #[test]
    fn square_case_agrees_with_square_module() {
        let n = 12;
        let a = Matrix::random_int(n, n, 5, 1.0, 12);
        let b = Matrix::random_int(n, n, 5, 1.0, 13);
        let rect = rect_block(&a, &b, 4, 4);
        let square = crate::square_block(&a, &b, 3, 9);
        assert!(rect.c.max_abs_diff(&square.c) < 1e-9);
    }
}
