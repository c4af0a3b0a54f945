//! Multi-round iterative binary-join plans (slides 53, 57, 97).
//!
//! "Most systems: iterative binary join plans" — the baseline every
//! one-round algorithm is compared against. A left-deep plan joins one
//! atom per round into a growing intermediate result: each round is a
//! `common::Dist::join`, which repartitions both sides by a hash of their
//! shared variables (a Cartesian grid round when they share none).
//!
//! On skew-free inputs each round costs `O(IN/p + |intermediate|/p)`
//! (slide 57); the danger is intermediate blow-up (slide 63), which the
//! one-round HyperCube and the Yannakakis-style [`crate::gym`] avoid in
//! their respective regimes.

use crate::common::{Dist, JoinRun};
use parqp_data::Relation;
use parqp_mpc::{metrics, trace, Cluster, HashFamily};
use parqp_query::{Query, SchemaJoin};

/// The atom order of a left-deep plan over `rels` (`0..n` by default),
/// once the inputs are known to fit `query`.
///
/// # Panics
/// Panics unless there is one relation per atom, each as wide as its
/// atom, and `order` permutes the atoms.
fn plan_order(query: &Query, rels: &[Relation], order: Option<Vec<usize>>) -> Vec<usize> {
    assert_eq!(rels.len(), query.num_atoms(), "one relation per atom");
    for (a, r) in query.atoms().iter().zip(rels) {
        assert_eq!(a.arity(), r.arity(), "arity mismatch for atom {}", a.name);
    }
    let order = order.unwrap_or_else(|| (0..query.num_atoms()).collect());
    let mut sorted = order.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        (0..query.num_atoms()).collect::<Vec<_>>(),
        "order must permute atoms"
    );
    order
}

/// Execute `query` with a left-deep iterative binary-join plan over the
/// atoms in `order` (defaults to `0..n`). Runs `n−1` communication
/// rounds; returns per-server outputs in variable order `x₀ … x_{k-1}`.
///
/// # Panics
/// Panics on input shape mismatches or an invalid `order`.
pub fn binary_join_plan(
    query: &Query,
    rels: &[Relation],
    p: usize,
    seed: u64,
    order: Option<Vec<usize>>,
) -> JoinRun {
    let order = plan_order(query, rels, order);
    let mut cluster = Cluster::new(p);
    let h = HashFamily::new(seed, 1);
    if metrics::is_enabled() {
        // A left-deep plan is n−1 hash-join rounds; per round the
        // paper charges IN_round/p, where IN_round can be dominated by
        // an intermediate result up to the AGM bound. The announced
        // load uses the base inputs (the skew-free per-round floor).
        let input: usize = rels.iter().map(Relation::len).sum();
        metrics::announce(&metrics::PaperBound::tuples(
            "binary_join_plan",
            input as f64 / p as f64,
            query.num_atoms().saturating_sub(1).max(1),
        ));
    }

    // Intermediate state: the distributed rows of the atoms joined so far.
    let first = order[0];
    let mut state = Dist::scatter(&rels[first], &query.atoms()[first].vars, p);
    for &next in &order[1..] {
        let atom = Dist::scatter(&rels[next], &query.atoms()[next].vars, p);
        let shared = state.vars.iter().any(|v| atom.vars.contains(v));
        let _span = trace::span(if shared {
            "binary_plan/join"
        } else {
            "binary_plan/cartesian"
        });
        state = state.join(atom, &mut cluster, &h);
    }
    JoinRun {
        outputs: state.into_outputs(query.num_vars()),
        report: cluster.report(),
    }
}

/// Size of the largest intermediate result of a left-deep plan, computed
/// serially (used by E09/E11 to report intermediate blow-up): a fold of
/// the plan's joins.
///
/// # Panics
/// As [`binary_join_plan`].
pub fn max_intermediate_size(query: &Query, rels: &[Relation], order: Option<Vec<usize>>) -> usize {
    let order = plan_order(query, rels, order);
    let first = (query.atoms()[order[0]].vars.clone(), rels[order[0]].clone());
    let mut max = first.1.len();
    order[1..].iter().fold(first, |(vars, rows), &next| {
        let on = SchemaJoin::new(&vars, &query.atoms()[next].vars);
        let rows = on.join(&rows, &rels[next]);
        max = max.max(rows.len());
        (on.into_vars(), rows)
    });
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use parqp_data::generate;
    use parqp_query::evaluate;

    #[test]
    fn chain_plan_matches_oracle() {
        let q = Query::chain(4);
        let rels: Vec<Relation> = (0..4)
            .map(|i| generate::uniform(2, 150, 30, i as u64))
            .collect();
        let run = binary_join_plan(&q, &rels, 8, 5, None);
        let expect = evaluate(&q, &rels);
        assert_eq!(run.gathered().canonical(), expect.canonical());
        assert_eq!(run.output_size(), expect.len());
        assert_eq!(run.report.num_rounds(), 3, "n−1 rounds");
    }

    #[test]
    fn triangle_plan_matches_oracle() {
        let q = Query::triangle();
        let g = generate::random_symmetric_graph(40, 300, 8);
        let rels = vec![g.clone(), g.clone(), g];
        let run = binary_join_plan(&q, &rels, 16, 9, None);
        let expect = evaluate(&q, &rels);
        assert_eq!(run.gathered().canonical(), expect.canonical());
        assert_eq!(run.report.num_rounds(), 2);
    }

    #[test]
    fn product_step_uses_cartesian_grid() {
        let q = Query::product();
        let r = generate::uniform(1, 80, 500, 1);
        let s = generate::uniform(1, 80, 500, 2);
        let run = binary_join_plan(&q, &[r, s], 16, 3, None);
        assert_eq!(run.output_size(), 80 * 80);
        let l = run.report.max_load_tuples() as f64;
        assert!(l < 100.0, "grid keeps the product round balanced: {l}");
    }

    #[test]
    fn custom_order_respected() {
        let q = Query::triangle();
        let g = generate::random_symmetric_graph(30, 200, 4);
        let rels = vec![g.clone(), g.clone(), g];
        let a = binary_join_plan(&q, &rels, 8, 7, Some(vec![2, 0, 1]));
        let b = binary_join_plan(&q, &rels, 8, 7, None);
        assert_eq!(a.gathered().canonical(), b.gathered().canonical());
    }

    #[test]
    fn semijoin_pair_plan() {
        let q = Query::semijoin_pair();
        let r = generate::unary_range(30);
        let s = generate::uniform(2, 200, 50, 6);
        let t = generate::unary_range(40);
        let rels = vec![r, s, t];
        let run = binary_join_plan(&q, &rels, 8, 11, None);
        let expect = evaluate(&q, &rels);
        assert_eq!(run.gathered().canonical(), expect.canonical());
    }

    #[test]
    fn intermediate_size_tracks_blowup() {
        // Chain whose first join explodes: every R1 tuple has A1 = 0 and
        // every R2 tuple has A1 = 0, so R1 ⋈ R2 is a full m × m product;
        // R3 then shrinks the result back down to m tuples.
        let m = 40u64;
        let r1 = Relation::from_rows(2, (0..m).map(|i| [i, 0]).collect::<Vec<_>>());
        let r2 = Relation::from_rows(2, (0..m).map(|j| [0, j]).collect::<Vec<_>>());
        let r3 = Relation::from_rows(2, [[5, 1]]);
        let q = Query::chain(3);
        let blow = max_intermediate_size(&q, &[r1.clone(), r2.clone(), r3.clone()], None);
        assert_eq!(blow, (m * m) as usize);
        let out = parqp_query::evaluate(&q, &[r1, r2, r3]);
        assert_eq!(out.len(), m as usize);
    }

    #[test]
    #[should_panic(expected = "order must permute")]
    fn max_intermediate_size_rejects_an_atom_twice() {
        let g = generate::uniform(2, 10, 5, 1);
        max_intermediate_size(
            &Query::triangle(),
            &[g.clone(), g.clone(), g],
            Some(vec![0, 0]),
        );
    }

    #[test]
    #[should_panic(expected = "order must permute")]
    fn max_intermediate_size_rejects_a_short_order() {
        let g = generate::uniform(2, 10, 5, 1);
        max_intermediate_size(
            &Query::triangle(),
            &[g.clone(), g.clone(), g],
            Some(vec![0]),
        );
    }

    #[test]
    #[should_panic(expected = "one relation per atom")]
    fn max_intermediate_size_needs_one_relation_per_atom() {
        let g = generate::uniform(2, 10, 5, 1);
        max_intermediate_size(&Query::triangle(), &[g.clone(), g], None);
    }

    #[test]
    #[should_panic(expected = "order must permute")]
    fn invalid_order_rejected() {
        let q = Query::two_way();
        let r = generate::uniform(2, 10, 5, 1);
        binary_join_plan(&q, &[r.clone(), r], 4, 1, Some(vec![0, 0]));
    }
}
