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

use crate::dense::Matrix;
use crate::MatMulRun;
use parqp_mpc::{metrics, trace, Cluster, Weight};

/// An `nb × nb` block on the wire (row-major), with its block coordinates.
#[derive(Debug, Clone)]
struct BlockMsg {
    /// 0 = A block, 1 = B block, 2 = partial C block.
    kind: u8,
    bi: usize,
    bj: usize,
    vals: Vec<f64>,
}

impl Weight for BlockMsg {
    fn words(&self) -> u64 {
        self.vals.len() as u64
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
    let block_of = |m: &Matrix,
                    region: &parqp_data::paged::IoRegion,
                    proc: usize,
                    bi: usize,
                    bj: usize|
     -> Vec<f64> {
        let mut out = Vec::with_capacity(nb * nb);
        for r in 0..nb {
            region.read_at(proc, ((bi * nb + r) * n + bj * nb) as u64, nb as u64);
            out.extend_from_slice(&m.row(bi * nb + r)[bj * nb..(bj + 1) * nb]);
        }
        out
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
    // partial[proc] maps (i,k) → accumulated nb×nb partial sum.
    let mut partial: Vec<parqp_data::FastMap<(usize, usize), Vec<f64>>> =
        vec![parqp_data::FastMap::default(); p];

    let multiply_span = trace::span("matmul_square/multiply");
    for round in 0..rounds {
        let mut ex = cluster.exchange::<BlockMsg>();
        let lo = round * p;
        let hi = (lo + p).min(total);
        for g in lo..hi {
            let proc = g % p;
            let z = g / (h * h);
            let i = (g / h) % h;
            let k = g % h;
            let j = (i + k + z) % h;
            ex.send(
                proc,
                BlockMsg {
                    kind: 0,
                    bi: i,
                    bj: j,
                    vals: block_of(a, &a_region, proc, i, j),
                },
            );
            ex.send(
                proc,
                BlockMsg {
                    kind: 1,
                    bi: j,
                    bj: k,
                    vals: block_of(b, &b_region, proc, j, k),
                },
            );
        }
        let inboxes = ex.finish();
        // Each processor's accumulator moves into its job and back out,
        // so the round's block multiplies can run on the pool while the
        // per-(proc, block) accumulation order stays fixed.
        let work: Vec<_> = std::mem::take(&mut partial)
            .into_iter()
            .zip(inboxes)
            .collect();
        partial = cluster.map(work, |_, (mut acc_map, inbox)| {
            // Pair up A and B blocks: the schedule sends at most one
            // product per processor per round... except when p < H²:
            // then g mod p repeats within a round? No — g ranges over
            // [lo, lo+p), so each processor gets exactly one product.
            let mut ablock: Option<BlockMsg> = None;
            let mut bblock: Option<BlockMsg> = None;
            for m in inbox {
                if m.kind == 0 {
                    ablock = Some(m);
                } else {
                    bblock = Some(m);
                }
            }
            let (Some(am), Some(bm)) = (ablock, bblock) else {
                return acc_map;
            };
            let acc = acc_map
                .entry((am.bi, bm.bj))
                .or_insert_with(|| vec![0.0; nb * nb]);
            // Conventional block multiply: acc += A_blk · B_blk.
            for r in 0..nb {
                for kk in 0..nb {
                    let av = am.vals[r * nb + kk];
                    if av == 0.0 {
                        continue;
                    }
                    for c in 0..nb {
                        acc[r * nb + c] += av * bm.vals[kk * nb + c];
                    }
                }
            }
            acc_map
        });
    }
    drop(multiply_span);

    // Aggregation: if several processors hold partials of the same C
    // block, one more round routes them to the block's owner (slide 121).
    let owner = |i: usize, k: usize| (i * h + k) % p;
    let needs_aggregation = partial
        .iter()
        .enumerate()
        .any(|(proc, m)| m.keys().any(|&(i, k)| owner(i, k) != proc));
    let mut c = Matrix::zeros(n, n);
    if needs_aggregation {
        let _span = trace::span("matmul_square/aggregate");
        let mut ex = cluster.exchange::<BlockMsg>();
        for (proc, blocks) in partial.iter().enumerate() {
            ex.set_sender(proc);
            for (&(i, k), vals) in blocks {
                let dest = owner(i, k);
                if dest != proc {
                    ex.send(
                        dest,
                        BlockMsg {
                            kind: 2,
                            bi: i,
                            bj: k,
                            vals: vals.clone(),
                        },
                    );
                }
            }
        }
        let inboxes = ex.finish();
        for (proc, inbox) in inboxes.into_iter().enumerate() {
            for m in inbox {
                let acc = partial[proc]
                    .entry((m.bi, m.bj))
                    .or_insert_with(|| vec![0.0; nb * nb]);
                for (av, mv) in acc.iter_mut().zip(&m.vals) {
                    *av += mv;
                }
            }
        }
        // Only owners' accumulators are final now.
        for (proc, blocks) in partial.iter().enumerate() {
            for (&(i, k), vals) in blocks {
                if owner(i, k) == proc {
                    write_block(&mut c, i, k, nb, vals);
                }
            }
        }
    } else {
        for blocks in &partial {
            for (&(i, k), vals) in blocks {
                write_block(&mut c, i, k, nb, vals);
            }
        }
    }
    MatMulRun {
        c,
        report: cluster.report(),
    }
}

fn write_block(c: &mut Matrix, bi: usize, bk: usize, nb: usize, vals: &[f64]) {
    for r in 0..nb {
        for col in 0..nb {
            c.set(bi * nb + r, bk * nb + col, vals[r * nb + col]);
        }
    }
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
