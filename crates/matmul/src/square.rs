//! The multi-round square-block algorithm (slides 111–121).
//!
//! Partition `A`, `B`, `C` into `H × H` blocks of side `n/H`. The `H³`
//! block products are arranged into `H` groups
//! `G_z = { A_{i,j} × B_{j,k} : j = (i+k+z) mod H }` (slide 112); every
//! group contains exactly one product for each `C_{i,k}` block
//! (slide 113). Block product `g` (in group-major order) runs on
//! processor `g mod p` during round `g / p`, so:
//!
//! * `p = H²` reproduces slide 115–118's example — processor `i·H+k`
//!   accumulates `C_{i,k}` across all `H` rounds and no aggregation
//!   round is needed;
//! * `p = 2H²` reproduces slides 119–121 — two groups per round, two
//!   partial sums, one final aggregation round (`r = H/2 + 1`);
//! * general `p` gives `r = ⌈H³/p⌉` multiplication rounds, plus one
//!   aggregation round when partial sums end up on several processors.
//!
//! Per round a processor receives `2(n/H)²` elements (`L`), and total
//! communication is `Θ(n³/√L)` — the multi-round lower bound (slide 126).

use crate::dense::{gemm_acc, Matrix, View};
use crate::MatMulRun;
use parqp_mpc::{metrics, trace, Cluster, Weight};

/// A block on the wire with its block coordinates. An `A` or `B` block
/// travels as a [`View`]: the receiver reads its rows where they lie and
/// the round is charged the block's `nb²` words. Only a partial `C`
/// block (the aggregation round) is computed data and owns its values.
#[derive(Debug, Clone)]
struct BlockMsg<V> {
    bi: usize,
    bj: usize,
    vals: V,
}

impl<V: Weight> Weight for BlockMsg<V> {
    fn words(&self) -> u64 {
        self.vals.words()
    }
}

/// Multiply with the square-block algorithm using `h × h` blocking on `p`
/// processors.
///
/// # Panics
/// Panics if `h` does not divide `n`, or `h == 0`, or `p == 0`.
pub fn square_block(a: &Matrix, b: &Matrix, h: usize, p: usize) -> MatMulRun {
    let n = a.n();
    assert_eq!(n, b.n(), "dimension mismatch");
    assert!(h >= 1 && n.is_multiple_of(h), "h must divide n");
    assert!(p >= 1, "need at least one processor");
    let nb = n / h;
    let mut cluster = Cluster::new(p);

    // Paged views of A and B: when a store runtime is installed, every
    // block fetch charges the destination processor one logical read
    // per block row against the page span the row occupies.
    let a_region = parqp_data::paged::IoRegion::new((n * n) as u64);
    let b_region = parqp_data::paged::IoRegion::new((n * n) as u64);
    let block_of = |m, region: &parqp_data::paged::IoRegion, proc, bi, bj| {
        for r in 0..nb {
            region.read_at(proc, ((bi * nb + r) * n + bj * nb) as u64, nb as u64);
        }
        let vals = Matrix::block(m, bi * nb, bj * nb, nb, nb);
        BlockMsg { bi, bj, vals }
    };

    // Product g (group-major: g = z·H² + i·H + k) runs on processor
    // g mod p in round g / p.
    let total = h * h * h;
    let rounds = total.div_ceil(p);
    if metrics::is_enabled() {
        // Slides 115–121: every multiplication round delivers one A and
        // one B block (2(n/H)² words) per processor. When partial sums
        // of one C block land on several processors (the z·H² offsets
        // are not all ≡ 0 mod p), one aggregation round with fan-in
        // `distinct − 1` blocks follows.
        let distinct = (0..h)
            .map(|z| (z * h * h) % p)
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        let block_words = (nb * nb) as f64;
        metrics::announce(&metrics::PaperBound::words(
            "matmul_square",
            block_words * 2.0f64.max((distinct - 1) as f64),
            rounds + usize::from(distinct > 1),
        ));
    }

    // The multiplication rounds are accounting only: a round delivers at
    // most one (A, B) pair per processor (g ranges over [lo, lo + p)),
    // and each processor keeps its pairs in round order.
    let multiply_span = trace::span("matmul_square/multiply");
    let mut pairs: Vec<Vec<BlockMsg<View<'_>>>> = vec![Vec::new(); p];
    for round in 0..rounds {
        let mut ex = cluster.exchange();
        let lo = round * p;
        let hi = (lo + p).min(total);
        for g in lo..hi {
            let proc = g % p;
            let z = g / (h * h);
            let i = (g / h) % h;
            let k = g % h;
            let j = (i + k + z) % h;
            ex.send(proc, block_of(a, &a_region, proc, i, j));
            ex.send(proc, block_of(b, &b_region, proc, j, k));
        }
        for (list, inbox) in pairs.iter_mut().zip(ex.finish()) {
            list.extend(inbox);
        }
    }
    // No message depends on a product before the aggregation round, so
    // all of them run in one local phase: each processor multiplies its
    // pairs in round order into `(i, k, partial C_{i,k})` accumulators
    // kept in first-touch order, which fixes the accumulation order per
    // (processor, block) whichever thread runs it.
    let mut partial = cluster.map(pairs, |_, list| {
        let mut blocks: Vec<BlockMsg<Vec<f64>>> = Vec::new();
        for pair in list.chunks_exact(2) {
            let [am, bm] = pair else { continue };
            let acc = accumulator(&mut blocks, am.bi, bm.bj, nb);
            gemm_acc(acc, nb, am.vals, bm.vals);
        }
        blocks
    });
    drop(multiply_span);

    // Aggregation: if several processors hold partials of the same C
    // block, one more round routes them to the block's owner (slide 121).
    let owner = |m: &BlockMsg<Vec<f64>>| (m.bi * h + m.bj) % p;
    let needs_aggregation = partial
        .iter()
        .enumerate()
        .any(|(proc, blocks)| blocks.iter().any(|m| owner(m) != proc));
    if needs_aggregation {
        let _span = trace::span("matmul_square/aggregate");
        let mut ex = cluster.exchange();
        for (proc, blocks) in partial.iter_mut().enumerate() {
            ex.set_sender(proc);
            // Only owners' accumulators are final after this round.
            for m in std::mem::take(blocks) {
                if owner(&m) == proc {
                    blocks.push(m);
                } else {
                    ex.send(owner(&m), m);
                }
            }
        }
        for (blocks, inbox) in partial.iter_mut().zip(ex.finish()) {
            for m in inbox {
                let acc = accumulator(blocks, m.bi, m.bj, nb);
                for (av, mv) in acc.iter_mut().zip(&m.vals) {
                    *av += mv;
                }
            }
        }
    }
    let mut c = Matrix::zeros(n, n);
    for m in partial.iter().flatten() {
        for (r, vals) in m.vals.chunks_exact(nb).enumerate() {
            c.row_mut(m.bi * nb + r)[m.bj * nb..(m.bj + 1) * nb].copy_from_slice(vals);
        }
    }
    MatMulRun {
        c,
        report: cluster.report(),
    }
}

/// The `nb × nb` accumulator of block `(bi, bj)` in `blocks`, appended as
/// zeros on first touch.
fn accumulator(
    blocks: &mut Vec<BlockMsg<Vec<f64>>>,
    bi: usize,
    bj: usize,
    nb: usize,
) -> &mut [f64] {
    let found = blocks.iter().position(|m| (m.bi, m.bj) == (bi, bj));
    let at = found.unwrap_or(blocks.len());
    if found.is_none() {
        let vals = vec![0.0; nb * nb];
        blocks.push(BlockMsg { bi, bj, vals });
    }
    &mut blocks[at].vals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_product_various_shapes() {
        let a = Matrix::random(12, 1);
        let b = Matrix::random(12, 2);
        let expect = a.multiply(&b);
        for (h, p) in [(2, 4), (3, 9), (4, 16), (4, 8), (4, 32), (6, 5), (2, 1)] {
            let run = square_block(&a, &b, h, p);
            assert!(
                run.c.max_abs_diff(&expect) < 1e-9,
                "h={h} p={p} wrong product"
            );
        }
    }

    /// `(h, p)` with `p < H²`, `p = H²`, `p = 2H²` (an aggregation round),
    /// `p` that does not divide `H³`, and one processor.
    const SHAPES: [(usize, usize); 6] = [(4, 8), (4, 16), (4, 32), (3, 5), (6, 5), (2, 1)];

    #[test]
    fn parallel_equals_serial_bit_for_bit() {
        use parqp_mpc::exec::{with_mode, ExecMode};
        let a = Matrix::random(12, 11);
        let b = Matrix::random(12, 12);
        for (h, p) in SHAPES {
            let serial = with_mode(ExecMode::Serial, || square_block(&a, &b, h, p));
            let parallel = with_mode(ExecMode::Parallel { workers: 3 }, || {
                square_block(&a, &b, h, p)
            });
            assert_eq!(parallel.c.bits(), serial.c.bits(), "h={h} p={p}");
            assert_eq!(parallel.report, serial.report, "h={h} p={p}");
        }
    }

    #[test]
    fn paged_reads_are_those_of_the_copying_implementation() {
        // A block read in place still costs one logical read per block
        // row, charged to the destination. Pinned from the implementation
        // that copied every block (n = 24, 16-word pages, 2-page pools):
        // (reads, misses, evictions) over all processors, then processor 0's.
        use parqp_data::paged::{capture, IoStats, StoreConfig};
        const WANT: [[(u64, u64, u64); 2]; 6] = [
            [(768, 960, 944), (96, 108, 106)],
            [(768, 960, 928), (48, 54, 52)],
            [(768, 960, 896), (24, 27, 25)],
            [(432, 432, 422), (96, 96, 94)],
            [(1728, 1728, 1718), (352, 352, 350)],
            [(192, 288, 286), (192, 288, 286)],
        ];
        let a = Matrix::random(24, 13);
        let b = Matrix::random(24, 14);
        let config = StoreConfig {
            page_size: 16,
            pool_pages: 2,
        };
        for ((h, p), want) in SHAPES.into_iter().zip(WANT) {
            let (io, _) = capture(config, || square_block(&a, &b, h, p));
            let sum = |f: fn(&IoStats) -> u64| io.iter().map(f).sum::<u64>();
            let total = (sum(|s| s.reads), sum(|s| s.misses), sum(|s| s.evictions));
            let first = (io[0].reads, io[0].misses, io[0].evictions);
            assert_eq!([total, first], want, "h={h} p={p}");
        }
    }

    #[test]
    fn p_equals_h2_no_aggregation_h_rounds() {
        // Slides 115–118: p = H² ⇒ r = H, every processor owns one C
        // block throughout.
        let h = 4;
        let n = 16;
        let a = Matrix::random(n, 3);
        let b = Matrix::random(n, 4);
        let run = square_block(&a, &b, h, h * h);
        assert_eq!(run.report.num_rounds(), h);
        // L = 2 blocks of (n/H)² elements per round.
        assert_eq!(run.report.max_load_words(), 2 * ((n / h) as u64).pow(2));
    }

    #[test]
    fn p_two_h2_halves_rounds_plus_aggregation() {
        // Slides 119–121: p = 2H² ⇒ H/2 multiplication rounds + 1
        // aggregation round.
        let h = 4;
        let n = 16;
        let a = Matrix::random(n, 5);
        let b = Matrix::random(n, 6);
        let run = square_block(&a, &b, h, 2 * h * h);
        assert_eq!(run.report.num_rounds(), h / 2 + 1);
    }

    #[test]
    fn small_p_more_rounds() {
        let h = 4;
        let n = 8;
        let a = Matrix::random(n, 7);
        let b = Matrix::random(n, 8);
        let run = square_block(&a, &b, h, 8);
        // ⌈H³/p⌉ = ⌈64/8⌉ = 8 multiplication rounds (+ aggregation).
        assert!(run.report.num_rounds() == 8 || run.report.num_rounds() == 9);
        assert!(run.c.max_abs_diff(&a.multiply(&b)) < 1e-9);
    }

    #[test]
    fn total_communication_scales_with_h() {
        // C_mult = 2·H³·(n/H)² = 2n²·H: doubling H doubles communication
        // (smaller L ⇒ more C — the slide 126 trade-off).
        let n = 24;
        let a = Matrix::random(n, 9);
        let b = Matrix::random(n, 10);
        let c2 = square_block(&a, &b, 2, 4).report.total_words();
        let c4 = square_block(&a, &b, 4, 16).report.total_words();
        let c8 = square_block(&a, &b, 8, 64).report.total_words();
        assert_eq!(c2, 2 * (n as u64).pow(2) * 2);
        assert_eq!(c4, 2 * (n as u64).pow(2) * 4);
        assert_eq!(c8, 2 * (n as u64).pow(2) * 8);
    }
}
