//! Multi-round iterative binary-join plans (slides 53, 57, 97).
//!
//! "Most systems: iterative binary join plans" — the baseline every
//! one-round algorithm is compared against. A left-deep plan joins one
//! atom per round into a growing intermediate result, repartitioning both
//! sides by a hash of their shared variables (a Cartesian grid round when
//! they share none).
//!
//! On skew-free inputs each round costs `O(IN/p + |intermediate|/p)`
//! (slide 57); the danger is intermediate blow-up (slide 63), which the
//! one-round HyperCube and the Yannakakis-style [`crate::gym`] avoid in
//! their respective regimes.

use crate::common::{extend_rows, in_variable_order, inbox_pairs, scatter, JoinRun};
use parqp_data::paged::{IoCursor, RouteScan};
use parqp_data::{Relation, Value};
use parqp_mpc::{metrics, trace, Cluster, Grid, HashFamily};
use parqp_query::{Query, Var};

/// The two streams of a plan round: the intermediate and the next atom.
const LEFT: usize = 0;
const RIGHT: usize = 1;

/// Combine the values at `positions` of `row` into one routing digest.
pub(crate) fn combined_hash(h: &HashFamily, row: &[Value], positions: &[usize]) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for &p in positions {
        acc = parqp_mpc::hash::splitmix64(acc ^ h.digest(0, row[p]));
    }
    acc
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
    assert_eq!(rels.len(), query.num_atoms(), "one relation per atom");
    for (a, r) in query.atoms().iter().zip(rels) {
        assert_eq!(a.arity(), r.arity(), "arity mismatch for atom {}", a.name);
    }
    let order = order.unwrap_or_else(|| (0..query.num_atoms()).collect());
    {
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..query.num_atoms()).collect::<Vec<_>>(),
            "order must permute atoms"
        );
    }

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

    // Intermediate state: distributed rows + their variable schema.
    let first = order[0];
    let mut schema: Vec<Var> = query.atoms()[first].vars.clone();
    let mut parts: Vec<Relation> = scatter(&rels[first], p);

    for &next in &order[1..] {
        let atom = &query.atoms()[next];
        let shared_left: Vec<usize> = (0..schema.len())
            .filter(|&i| atom.vars.contains(&schema[i]))
            .collect();
        let shared_right: Vec<usize> = shared_left
            .iter()
            .map(|&i| {
                atom.vars
                    .iter()
                    .position(|&v| v == schema[i])
                    .expect("shared")
            })
            .collect();
        let fresh_right: Vec<usize> = (0..atom.vars.len())
            .filter(|&pos| !schema.contains(&atom.vars[pos]))
            .collect();
        let right_parts = scatter(&rels[next], p);

        let arities = [schema.len(), atom.arity()];
        let span = trace::span(if shared_left.is_empty() {
            "binary_plan/cartesian"
        } else {
            "binary_plan/join"
        });
        let mut ex = cluster.exchange_rows(&arities);
        if shared_left.is_empty() {
            // Cartesian round on a product grid (which may use fewer
            // than p servers).
            let left_n: usize = parts.iter().map(Relation::len).sum();
            let (p1, p2) = crate::twoway::product_grid(left_n, rels[next].len(), p);
            let grid = Grid::new(vec![p1, p2]);
            let mut idx = 0u64;
            for (sid, part) in parts.iter().enumerate() {
                ex.set_sender(sid);
                // Intermediate rows stream through the server's buffer
                // pool (one logical read per row) under a paged store.
                let mut io = IoCursor::new(sid);
                for row in part {
                    io.read(row.len());
                    let band = (h.digest(0, idx) % p1 as u64) as usize;
                    idx += 1;
                    for dest in grid.matching_ranks(&[Some(band), None]) {
                        ex.send_row(LEFT, dest, row);
                    }
                }
            }
            idx = 0;
            for (sid, part) in right_parts.iter().enumerate() {
                ex.set_sender(sid);
                let scan = RouteScan::new(sid, part);
                for row in scan.iter() {
                    let band = (h.digest(0, !idx) % p2 as u64) as usize;
                    idx += 1;
                    for dest in grid.matching_ranks(&[None, Some(band)]) {
                        ex.send_row(RIGHT, dest, row);
                    }
                }
            }
        } else {
            for (sid, part) in parts.iter().enumerate() {
                ex.set_sender(sid);
                let mut io = IoCursor::new(sid);
                for row in part {
                    io.read(row.len());
                    let dest = (combined_hash(&h, row, &shared_left) % p as u64) as usize;
                    ex.send_row(LEFT, dest, row);
                }
            }
            for (sid, part) in right_parts.iter().enumerate() {
                ex.set_sender(sid);
                let scan = RouteScan::new(sid, part);
                for row in scan.iter() {
                    let dest = (combined_hash(&h, row, &shared_right) % p as u64) as usize;
                    ex.send_row(RIGHT, dest, row);
                }
            }
        }
        let inboxes = inbox_pairs(arities, ex.finish());
        drop(span);

        // Local join on the shared variables.
        parts = cluster.map(inboxes, |_, (left, right)| {
            extend_rows(&left, &shared_left, &right, &shared_right, &fresh_right)
        });
        schema.extend(fresh_right.iter().map(|&pos| atom.vars[pos]));
    }

    // Reorder columns to x₀ … x_{k-1}.
    assert_eq!(
        schema.len(),
        query.num_vars(),
        "plan must bind every variable"
    );
    let outputs = parts
        .into_iter()
        .map(|part| in_variable_order(part, &schema))
        .collect();
    JoinRun {
        outputs,
        report: cluster.report(),
    }
}

/// Size of the largest intermediate result of a left-deep plan, computed
/// serially (used by E09/E11 to report intermediate blow-up).
pub fn max_intermediate_size(query: &Query, rels: &[Relation], order: Option<Vec<usize>>) -> usize {
    let order = order.unwrap_or_else(|| (0..query.num_atoms()).collect());
    let mut schema = query.atoms()[order[0]].vars.clone();
    let mut rows = rels[order[0]].clone();
    let mut max = rows.len();
    for &next in &order[1..] {
        let atom = &query.atoms()[next];
        let shared_left: Vec<usize> = (0..schema.len())
            .filter(|&i| atom.vars.contains(&schema[i]))
            .collect();
        let shared_right: Vec<usize> = shared_left
            .iter()
            .map(|&i| {
                atom.vars
                    .iter()
                    .position(|&v| v == schema[i])
                    .expect("shared")
            })
            .collect();
        let fresh_right: Vec<usize> = (0..atom.vars.len())
            .filter(|&pos| !schema.contains(&atom.vars[pos]))
            .collect();
        rows = extend_rows(
            &rows,
            &shared_left,
            &rels[next],
            &shared_right,
            &fresh_right,
        );
        max = max.max(rows.len());
        schema.extend(fresh_right.iter().map(|&pos| atom.vars[pos]));
    }
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
    fn invalid_order_rejected() {
        let q = Query::two_way();
        let r = generate::uniform(2, 10, 5, 1);
        binary_join_plan(&q, &[r.clone(), r], 4, 1, Some(vec![0, 0]));
    }
}
