//! Property tests for the matmul algorithms: every distributed engine
//! equals the serial oracle across random shapes, blockings and
//! processor counts; cost identities hold exactly.

use parqp_matmul::{rect_block, sql_matmul, square_block, Matrix};
use parqp_testkit::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn rect_block_always_correct(n in 2usize..20, t in 1usize..20, seed in 0u64..1000) {
        let t = t.min(n);
        let a = Matrix::random(n, seed);
        let b = Matrix::random(n, seed + 1);
        let run = rect_block(&a, &b, t, t);
        prop_assert!(run.c.max_abs_diff(&a.multiply(&b)) < 1e-9);
        prop_assert_eq!(run.report.num_rounds(), 1);
    }

    #[test]
    fn square_block_always_correct(
        h in 1usize..6,
        blocks in 1usize..5,
        p in 1usize..40,
        seed in 0u64..1000,
    ) {
        let n = h * blocks; // h divides n by construction
        let a = Matrix::random(n, seed);
        let b = Matrix::random(n, seed + 1);
        let run = square_block(&a, &b, h, p);
        prop_assert!(run.c.max_abs_diff(&a.multiply(&b)) < 1e-9);
        // Round count: ⌈H³/p⌉ multiplication rounds, plus at most one
        // aggregation round.
        let mult = (h * h * h).div_ceil(p);
        let r = run.report.num_rounds();
        prop_assert!(r == mult || r == mult + 1, "r = {r}, mult = {mult}");
    }

    #[test]
    fn nonsquare_always_correct(
        m in 1usize..15,
        k in 1usize..15,
        n in 1usize..15,
        t1 in 1usize..15,
        t2 in 1usize..15,
        seed in 0u64..1000,
    ) {
        let (t1, t2) = (t1.min(m), t2.min(n));
        let a = Matrix::random_int(m, k, 5, 1.0, seed);
        let b = Matrix::random_int(k, n, 5, 1.0, seed + 1);
        let run = rect_block(&a, &b, t1, t2);
        prop_assert!(run.c.max_abs_diff(&a.multiply(&b)) < 1e-9);
        // L = (t1 + t2)·k exactly, for every processor.
        prop_assert_eq!(run.report.max_load_words(), ((t1 + t2) * k) as u64);
    }

    #[test]
    fn sql_engines_exact_on_integers(
        n in 1usize..14,
        p in 1usize..20,
        density in 0.05f64..1.0,
        seed in 0u64..1000,
    ) {
        let a = Matrix::random_int(n, n, 6, density, seed);
        let b = Matrix::random_int(n, n, 6, density, seed + 1);
        let run = sql_matmul(&a, &b, p, seed);
        prop_assert_eq!(&run.c, &a.multiply(&b));
        // Round-1 communication is exactly nnz(A) + nnz(B).
        let sent = run.report.rounds[0].total_tuples() as usize;
        prop_assert_eq!(sent, a.nnz() + b.nnz());
    }

    #[test]
    fn square_and_sql_agree(n in 2usize..12, seed in 0u64..500) {
        let ai = Matrix::random_int(n, n, 7, 1.0, seed);
        let bi = Matrix::random_int(n, n, 7, 1.0, seed + 1);
        let sql = sql_matmul(&ai, &bi, 4, seed);
        let sq = square_block(&ai, &bi, if n % 2 == 0 { 2 } else { 1 }, 4);
        prop_assert!(sql.c.max_abs_diff(&sq.c) < 1e-9);
    }
}
