//! Property tests for the query layer: Yannakakis ≡ the binding-table
//! oracle on acyclic queries, residual bookkeeping stays consistent, and
//! GYO agrees with the textbook (a)cyclicity of the named query shapes.

use parqp_data::Relation;
use parqp_query::{all_residuals, evaluate, parse_query, psi_star, yannakakis_serial, Ghd, Query};
use parqp_testkit::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn yannakakis_equals_oracle_on_random_stars(
        n in 2usize..5,
        seed in 0u64..500,
        rows in 5usize..80,
    ) {
        let q = Query::star(n);
        let rels: Vec<Relation> = (0..n)
            .map(|i| {
                let h = parqp_mpc::HashFamily::new(seed + i as u64, 2);
                Relation::from_rows(
                    2,
                    (0..rows).map(|j| {
                        [h.digest(0, j as u64) % 15, h.digest(1, j as u64) % 15]
                    }),
                )
            })
            .collect();
        let tree = Ghd::join_tree(&q).expect("stars are acyclic");
        let fast = yannakakis_serial(&q, &rels, &tree).canonical();
        let slow = evaluate(&q, &rels).canonical();
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn residuals_partition_heavy_masks(q_pick in 0usize..4) {
        let q = match q_pick {
            0 => Query::triangle(),
            1 => Query::two_way(),
            2 => Query::semijoin_pair(),
            _ => Query::chain(3),
        };
        let residuals = all_residuals(&q);
        prop_assert_eq!(residuals.len(), 1 << q.num_vars());
        for (mask, res) in residuals.iter().enumerate() {
            // heavy_vars matches the mask.
            let expect: Vec<usize> =
                (0..q.num_vars()).filter(|&v| mask & (1 << v) != 0).collect();
            prop_assert_eq!(&res.heavy_vars, &expect);
            // var_map renumbers exactly the light variables, densely.
            let light: Vec<usize> = res
                .var_map
                .iter()
                .filter_map(|m| *m)
                .collect();
            let mut sorted = light.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..light.len()).collect::<Vec<_>>());
            // τ* is non-negative and at most the number of surviving atoms.
            let tau = res.tau_star();
            let atoms = res.query.as_ref().map_or(0, Query::num_atoms);
            prop_assert!(tau >= -1e-9 && tau <= atoms as f64 + 1e-9);
        }
        // ψ* is the max over residual τ*.
        let psi = psi_star(&q);
        let max_tau = residuals.iter().map(|r| r.tau_star()).fold(0.0, f64::max);
        prop_assert!((psi - max_tau).abs() < 1e-9);
    }

    #[test]
    fn parser_roundtrips_display(n in 2usize..6) {
        // chain-n rendered by Display re-parses to the same query modulo
        // variable naming (Display uses x0..; map them back).
        let q = Query::chain(n);
        let shown = q.to_string().replace('⋈', ",").replace("x", "v");
        let reparsed = parse_query(&shown).expect("display output parses");
        prop_assert_eq!(reparsed.num_atoms(), q.num_atoms());
        prop_assert_eq!(reparsed.num_vars(), q.num_vars());
        prop_assert_eq!(reparsed.hypergraph(), q.hypergraph());
    }

    #[test]
    fn gyo_consistent_with_shapes(n in 3usize..8) {
        prop_assert!(Ghd::join_tree(&Query::chain(n)).is_some());
        prop_assert!(Ghd::join_tree(&Query::star(n)).is_some());
        prop_assert!(Ghd::join_tree(&Query::cycle(n)).is_none());
    }
}
