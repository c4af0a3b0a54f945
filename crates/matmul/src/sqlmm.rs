//! The SQL formulation of matrix multiplication (slide 108):
//!
//! ```sql
//! SELECT A.i, B.k, SUM(A.v * B.v)
//! FROM A, B WHERE A.j = B.j
//! GROUP BY A.i, B.k
//! ```
//!
//! Executed here, on its own [`Cluster`], as two MPC rounds: a parallel
//! hash join on `j` (the *join part*), then a repartition of the
//! partial sums by `(i, k)` (the *aggregation part*). Only non-zero
//! entries travel, so the plan is *sparsity adaptive*: communication
//! scales with `nnz(A) + nnz(B) +` the partial-sum volume, and the
//! shapes may be any conforming `m×k · k×n` (slide 127's non-square and
//! sparse results). This is the query-processing view of matmul the
//! tutorial uses to connect the two worlds: the join part is exactly a
//! two-way join with τ\* = 1, and the aggregation part is what the
//! multi-round lower bound's `log_L n` term is about. It is a
//! correctness cross-check, not a communication-optimal algorithm — the
//! block algorithms of [`crate::rect`] and [`crate::square`] beat it.

use crate::dense::Matrix;
use crate::MatMulRun;
use parqp_data::FastMap;
use parqp_mpc::{Cluster, HashFamily, Weight};

/// A sparse matrix entry or partial sum on the wire.
#[derive(Debug, Clone)]
struct Entry {
    /// 0 = A entry, 1 = B entry, 2 = partial sum.
    kind: u8,
    r: usize,
    c: usize,
    v: f64,
}

impl Weight for Entry {
    fn words(&self) -> u64 {
        3 // (row, col, value) — the relational tuple of slide 108
    }
}

/// Multiply `A (m×k) · B (k×n)` via the SQL plan: hash join on `j`,
/// then group-by `(i, k)`.
///
/// # Panics
/// Panics if the inner dimensions differ.
pub fn sql_matmul(a: &Matrix, b: &Matrix, p: usize, seed: u64) -> MatMulRun {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    let (m, inner, n) = (a.rows(), a.cols(), b.cols());
    let mut cluster = Cluster::new(p);
    let h = HashFamily::new(seed, 2);

    // Round 1: repartition both relations by the join attribute j.
    let mut ex = cluster.exchange::<Entry>();
    for i in 0..m {
        for j in 0..inner {
            let v = a.get(i, j);
            if v != 0.0 {
                ex.send(
                    h.hash(0, j as u64, p),
                    Entry {
                        kind: 0,
                        r: i,
                        c: j,
                        v,
                    },
                );
            }
        }
    }
    for j in 0..inner {
        for k in 0..n {
            let v = b.get(j, k);
            if v != 0.0 {
                ex.send(
                    h.hash(0, j as u64, p),
                    Entry {
                        kind: 1,
                        r: j,
                        c: k,
                        v,
                    },
                );
            }
        }
    }
    let inboxes = ex.finish();

    // Local join + partial aggregation (the SUM pushed below the shuffle).
    let partials: Vec<FastMap<(usize, usize), f64>> = inboxes
        .into_iter()
        .map(|inbox| {
            let mut a_by_j: FastMap<usize, Vec<(usize, f64)>> = FastMap::default();
            let mut b_by_j: FastMap<usize, Vec<(usize, f64)>> = FastMap::default();
            for e in inbox {
                if e.kind == 0 {
                    a_by_j.entry(e.c).or_default().push((e.r, e.v));
                } else {
                    b_by_j.entry(e.r).or_default().push((e.c, e.v));
                }
            }
            let mut acc: FastMap<(usize, usize), f64> = FastMap::default();
            for (j, avs) in &a_by_j {
                if let Some(bvs) = b_by_j.get(j) {
                    for &(i, av) in avs {
                        for &(k, bv) in bvs {
                            *acc.entry((i, k)).or_insert(0.0) += av * bv;
                        }
                    }
                }
            }
            acc
        })
        .collect();

    // Round 2: group by (i, k) — route partial sums to the group owner.
    let mut ex = cluster.exchange::<Entry>();
    for acc in &partials {
        for (&(i, k), &v) in acc {
            let dest = h.hash(1, (i * n + k) as u64, p);
            ex.send(
                dest,
                Entry {
                    kind: 2,
                    r: i,
                    c: k,
                    v,
                },
            );
        }
    }
    let inboxes = ex.finish();

    let mut c = Matrix::zeros(m, n);
    for inbox in inboxes {
        for e in inbox {
            c.add(e.r, e.c, e.v);
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
    fn matches_dense_oracle() {
        let a = Matrix::random_int(10, 10, 5, 1.0, 1);
        let b = Matrix::random_int(10, 10, 5, 1.0, 2);
        let run = sql_matmul(&a, &b, 8, 7);
        assert_eq!(run.c, a.multiply(&b), "integer matrices are exact");
        assert_eq!(run.report.num_rounds(), 2);
    }

    #[test]
    fn matches_block_algorithms() {
        let a = Matrix::random_int(12, 12, 4, 1.0, 3);
        let b = Matrix::random_int(12, 12, 4, 1.0, 4);
        let sql = sql_matmul(&a, &b, 6, 9);
        let rect = crate::rect_block(&a, &b, 4, 4);
        let square = crate::square_block(&a, &b, 3, 9);
        assert!(sql.c.max_abs_diff(&rect.c) < 1e-9);
        assert!(sql.c.max_abs_diff(&square.c) < 1e-9);
    }

    #[test]
    fn float_matrices_approximately_equal() {
        let a = Matrix::random(8, 5);
        let b = Matrix::random(8, 6);
        let run = sql_matmul(&a, &b, 4, 11);
        // Different summation order ⇒ tolerance, not equality.
        assert!(run.c.max_abs_diff(&a.multiply(&b)) < 1e-9);
    }

    #[test]
    fn sparse_inputs_send_less() {
        let mut a = Matrix::zeros(10, 10);
        a.set(0, 0, 1.0);
        a.set(3, 7, 2.0);
        let b = Matrix::random_int(10, 10, 3, 1.0, 8);
        let run = sql_matmul(&a, &b, 4, 13);
        assert!(run.c.max_abs_diff(&a.multiply(&b)) < 1e-9);
        // Round 1 ships only 2 + 100 entries ≤ 102 tuples.
        assert!(run.report.rounds[0].total_tuples() <= 102);
    }

    #[test]
    fn single_processor() {
        let a = Matrix::random_int(6, 6, 4, 1.0, 21);
        let b = Matrix::random_int(6, 6, 4, 1.0, 22);
        let run = sql_matmul(&a, &b, 1, 1);
        assert_eq!(run.c, a.multiply(&b));
    }

    #[test]
    fn sql_rect_matches_oracle() {
        let a = Matrix::random_int(10, 15, 4, 1.0, 5);
        let b = Matrix::random_int(15, 9, 4, 1.0, 6);
        let run = sql_matmul(&a, &b, 8, 7);
        assert_eq!(run.c, a.multiply(&b));
        assert_eq!(run.report.num_rounds(), 2);
    }

    #[test]
    fn sparse_communication_scales_with_nnz() {
        let n = 40;
        let dense_a = Matrix::random_int(n, n, 4, 1.0, 8);
        let dense_b = Matrix::random_int(n, n, 4, 1.0, 9);
        let sparse_a = Matrix::random_int(n, n, 4, 0.05, 10);
        let sparse_b = Matrix::random_int(n, n, 4, 0.05, 11);
        let dense = sql_matmul(&dense_a, &dense_b, 8, 3);
        let sparse = sql_matmul(&sparse_a, &sparse_b, 8, 3);
        assert_eq!(sparse.c, sparse_a.multiply(&sparse_b));
        // Round-1 traffic is exactly the non-zero count.
        assert_eq!(
            sparse.report.rounds[0].total_tuples() as usize,
            sparse_a.nnz() + sparse_b.nnz()
        );
        assert!(
            sparse.report.total_tuples() * 4 < dense.report.total_tuples(),
            "sparse C {} vs dense C {}",
            sparse.report.total_tuples(),
            dense.report.total_tuples()
        );
    }
}
