//! A heuristic planner: pick the tutorial's right algorithm per input.
//!
//! The tutorial's practical takeaway (slides 32, 46, 96) is a decision
//! procedure, not a single algorithm:
//!
//! * two atoms sharing variables → hash join; broadcast if one side is
//!   tiny; skew-resilient join when heavy hitters exist;
//! * no shared variables → Cartesian grid;
//! * multiway, skewed → SkewHC; multiway skew-free → HyperCube;
//! * acyclic with modest output → GYM (the slide 78 crossover).
//!
//! Planning is *collect, then decide*. [`PlanStats::collect`] makes one
//! pass over the data and keeps the handful of numbers the rules read:
//! cardinalities, per-column maximum degrees, and — for an acyclic
//! multiway query — the exact output size, counted in `O(IN)` by
//! [`acyclic_output_size`] without computing a single output row.
//! [`decide`] holds the rules and sees only those numbers, so it can be
//! asked about an input nobody has materialised. [`plan`] is the two
//! composed, and [`run_plan`] executes the choice.

use crate::model;
use parqp_data::stats::{heavy_threshold, max_degree};
use parqp_data::Relation;
use parqp_join::{baselines, gym, multiway, plans, skewhc, twoway, JoinRun};
use parqp_query::{acyclic_output_size, in_variable_order, Ghd, Query, SchemaJoin};

/// The algorithm chosen for an input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Strategy {
    /// Parallel hash join (two-way, skew-free).
    HashJoin,
    /// Broadcast the small side (two-way, very asymmetric sizes).
    BroadcastJoin,
    /// Skew-resilient two-way join (heavy hitters present).
    SkewJoin,
    /// Cartesian grid (no shared variables between two atoms).
    Cartesian,
    /// One-round HyperCube (multiway, skew-free).
    HyperCube,
    /// SkewHC (multiway with heavy hitters).
    SkewHC,
    /// Distributed Yannakakis over a join tree (acyclic, small output).
    Gym,
    /// Iterative binary join plan (fallback for cyclic queries where the
    /// one-round replication would exceed the input).
    BinaryPlan,
    /// BiGJoin-style vertex-at-a-time expansion (cyclic subgraph queries
    /// with binary atoms, slide 97).
    ExpansionJoin,
    /// Everything to one server — only ever "chosen" for `p == 1`.
    SingleServer,
}

/// A planning decision with its justification.
#[derive(Debug, Clone)]
pub struct Decision {
    /// The chosen strategy.
    pub strategy: Strategy,
    /// One-sentence human-readable justification.
    pub reason: String,
}

/// What the planning rules read about an input, and nothing else — the
/// statistics every server is assumed to know in the paper's setting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStats {
    /// `|S_j|` of every atom, in atom order.
    pub sizes: Vec<u64>,
    /// The largest degree of any value in each column of each atom's
    /// relation (`max_degree[j][c]`; 0 for an empty relation).
    pub max_degree: Vec<Vec<u64>>,
    /// The exact output size (saturating at `u64::MAX`) of an acyclic
    /// query that is not a two-way join: the only shape whose rule, the
    /// slide 78 crossover, reads it.
    pub acyclic_out: Option<u64>,
}

impl PlanStats {
    /// One pass over `rels`: each (atom, column) degree table is built
    /// once, and OUT comes from the `O(IN)` count over the join tree.
    ///
    /// # Panics
    /// Panics if `rels.len() != query.num_atoms()` or a relation's arity
    /// is not its atom's.
    pub fn collect(query: &Query, rels: &[Relation]) -> Self {
        assert_eq!(rels.len(), query.num_atoms(), "one relation per atom");
        for (atom, rel) in query.atoms().iter().zip(rels) {
            assert_eq!(
                atom.arity(),
                rel.arity(),
                "arity mismatch for atom {}",
                atom.name
            );
        }
        // Two-way joins are decided on sizes and degrees alone.
        let multiway_tree = (query.num_atoms() != 2)
            .then(|| Ghd::join_tree(query))
            .flatten();
        Self {
            sizes: rels.iter().map(|rel| rel.len() as u64).collect(),
            max_degree: rels
                .iter()
                .map(|rel| {
                    (0..rel.arity())
                        .map(|col| column_max_degree(rel, col))
                        .collect()
                })
                .collect(),
            acyclic_out: multiway_tree.map(|tree| acyclic_output_size(query, rels, &tree)),
        }
    }
}

/// [`max_degree`], counted under test: the one place planning builds a
/// degree table.
fn column_max_degree(rel: &Relation, col: usize) -> u64 {
    #[cfg(test)]
    tests::DEGREE_TABLES.with(|n| n.set(n.get() + 1));
    max_degree(rel, col)
}

/// Decide how to run `query` over `rels` on `p` servers: [`decide`] on
/// the statistics of [`PlanStats::collect`].
///
/// # Panics
/// Panics if `rels.len() != query.num_atoms()` or a relation's arity is
/// not its atom's.
pub fn plan(query: &Query, rels: &[Relation], p: usize) -> Decision {
    decide(query, &PlanStats::collect(query, rels), p)
}

/// The tutorial's decision procedure over an input described by numbers
/// alone.
///
/// # Panics
/// Panics if `stats` is not shaped like `query`: one size and one
/// degree list per atom, one degree per column, and OUT exactly when
/// the query is acyclic and not a two-way join.
pub fn decide(query: &Query, stats: &PlanStats, p: usize) -> Decision {
    assert_eq!(stats.sizes.len(), query.num_atoms(), "one size per atom");
    assert_eq!(
        stats.max_degree.len(),
        query.num_atoms(),
        "one degree list per atom"
    );
    for (atom, degrees) in query.atoms().iter().zip(&stats.max_degree) {
        assert_eq!(
            atom.arity(),
            degrees.len(),
            "one degree per column of atom {}",
            atom.name
        );
    }
    if p == 1 {
        return Decision {
            strategy: Strategy::SingleServer,
            reason: "single server: everything is local".into(),
        };
    }
    let input: u64 = stats.sizes.iter().sum();

    // Any heavy hitters, at the cut SkewHC splits on?
    let skewed = stats
        .sizes
        .iter()
        .zip(&stats.max_degree)
        .any(|(&size, degrees)| {
            let threshold = heavy_threshold(size, p);
            degrees.iter().any(|&degree| degree >= threshold)
        });

    if let [a, b] = *stats.sizes {
        let shared = query.shared_vars(0, 1);
        if shared.is_empty() {
            return Decision {
                strategy: Strategy::Cartesian,
                reason: "two atoms without shared variables: product grid (slide 28)".into(),
            };
        }
        if shared.len() > 1 {
            // Two atoms sharing several variables (e.g. R(x,y) ⋈ S(y,x)):
            // the specialized two-way kernels join on one column; let the
            // HyperCube handle the composite key.
            return Decision {
                strategy: Strategy::HyperCube,
                reason: "two atoms sharing multiple variables: HyperCube on the composite key"
                    .into(),
            };
        }
        let (small, large) = (a.min(b), a.max(b));
        if small.saturating_mul(p as u64) <= large {
            return Decision {
                strategy: Strategy::BroadcastJoin,
                reason: format!(
                    "one side ({small}) ≤ other/p ({large}/{p}): broadcast it (slide 32)"
                ),
            };
        }
        if skewed {
            return Decision {
                strategy: Strategy::SkewJoin,
                reason: "heavy hitters on the join attribute: heavy/light split (slide 30)".into(),
            };
        }
        return Decision {
            strategy: Strategy::HashJoin,
            reason: "two-way skew-free join: hash partitioning is optimal (slide 23)".into(),
        };
    }

    // Multiway.
    let acyclic = Ghd::join_tree(query).is_some();
    assert_eq!(
        stats.acyclic_out.is_some(),
        acyclic,
        "OUT is a statistic of acyclic multiway queries, and of those only"
    );
    let tau = model::tau_star(query);
    if let Some(out) = stats.acyclic_out {
        // Acyclic: GYM wins when OUT is below the slide 78 crossover.
        // OUT is exact — the count pass is cheap enough that there is
        // nothing to estimate while the data is at hand; an estimate
        // would change only where the switch happens, not the shape of
        // the decision.
        let crossover = model::gym_crossover_output(input as f64, p as f64, tau);
        if (out as f64) < crossover {
            return Decision {
                strategy: Strategy::Gym,
                reason: format!(
                    "acyclic, OUT = {out} below the (IN+OUT)/p crossover {crossover:.0} \
                     (slide 78): GYM"
                ),
            };
        }
    }
    if skewed {
        return Decision {
            strategy: Strategy::SkewHC,
            reason: "multiway with heavy hitters: SkewHC residual queries (slide 47)".into(),
        };
    }
    if !acyclic && tau > 3.0 {
        // Slide 62: p^{1/τ*} speedup collapses for high-τ* queries —
        // replicating IN·p^{1−1/τ*} is worse than iterating. For subgraph
        // shapes (all-binary atoms) grow bindings one vertex at a time
        // (the BiGJoin family, slide 97); otherwise fall back to plain
        // binary join plans.
        if query.atoms().iter().all(|a| a.arity() == 2) {
            return Decision {
                strategy: Strategy::ExpansionJoin,
                reason: format!(
                    "cyclic subgraph query with τ* = {tau:.1}: one-round replication is \
                     hopeless (slide 62), expand vertex-at-a-time (slide 97)"
                ),
            };
        }
        return Decision {
            strategy: Strategy::BinaryPlan,
            reason: format!(
                "cyclic with τ* = {tau:.1}: one-round replication is hopeless (slide 62), \
                 iterate binary joins"
            ),
        };
    }
    Decision {
        strategy: Strategy::HyperCube,
        reason: "multiway skew-free: one-round HyperCube at the τ* optimum (slide 40)".into(),
    }
}

/// Execute a strategy (normally the one returned by [`plan`]).
///
/// # Panics
/// Panics if the strategy does not fit the query shape (e.g.
/// [`Strategy::HashJoin`] on three atoms).
pub fn run_plan(
    query: &Query,
    rels: &[Relation],
    p: usize,
    seed: u64,
    strategy: &Strategy,
) -> JoinRun {
    let columns = join_columns(query);
    match strategy {
        Strategy::Cartesian | Strategy::HyperCube => multiway::hypercube(query, rels, p, seed),
        Strategy::SkewHC => skewhc::skewhc(query, rels, p, seed),
        Strategy::Gym => {
            let tree = Ghd::join_tree(query).expect("Gym strategy requires an acyclic query");
            gym::gym(query, rels, &tree, p, seed, true)
        }
        Strategy::BinaryPlan => plans::binary_join_plan(query, rels, p, seed, None),
        Strategy::ExpansionJoin => parqp_join::subgraph::expansion_join(query, rels, p, seed),
        Strategy::SingleServer if columns.is_none() => multiway::hypercube(query, rels, 1, seed),
        // The two-way kernels, and a single server over a two-way join.
        two_way => {
            let (r_col, s_col) =
                columns.expect("two-way strategies join two atoms on one variable");
            let (r, s) = (&rels[0], &rels[1]);
            let swapped = matches!(two_way, Strategy::BroadcastJoin) && r.len() > s.len();
            let run = match two_way {
                Strategy::HashJoin => twoway::hash_join(r, r_col, s, s_col, p, seed),
                Strategy::BroadcastJoin if swapped => twoway::broadcast_join(s, s_col, r, r_col, p),
                Strategy::BroadcastJoin => twoway::broadcast_join(r, r_col, s, s_col, p),
                Strategy::SkewJoin => twoway::skew_join(r, r_col, s, s_col, p, seed),
                _ => baselines::naive_one_server(r, r_col, s, s_col, 1),
            };
            // Rows come out as the first side, then the second without
            // its join column: the schema join of the two atoms.
            let [first, second] = if swapped { [1, 0] } else { [0, 1] }.map(|a| &query.atoms()[a]);
            let vars = SchemaJoin::new(&first.vars, &second.vars).into_vars();
            JoinRun {
                outputs: run
                    .outputs
                    .into_iter()
                    .map(|rel| in_variable_order(rel, &vars))
                    .collect(),
                report: run.report,
            }
        }
    }
}

/// Convenience: plan then run.
pub fn plan_and_run(query: &Query, rels: &[Relation], p: usize, seed: u64) -> (Decision, JoinRun) {
    let d = plan(query, rels, p);
    let run = run_plan(query, rels, p, seed, &d.strategy);
    (d, run)
}

/// The join column of each atom of a two-atom query sharing exactly one
/// variable — the shape the two-way kernels run — or `None`.
fn join_columns(query: &Query) -> Option<(usize, usize)> {
    let [r, s] = query.atoms() else {
        return None;
    };
    let on = SchemaJoin::new(&r.vars, &s.vars);
    match (on.left_key(), on.right_key()) {
        (&[r_col], &[s_col]) => Some((r_col, s_col)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parqp_data::generate;
    use parqp_query::evaluate;
    use std::cell::Cell;

    thread_local! {
        /// Degree tables planning has built on this thread
        /// (`column_max_degree` bumps it).
        pub(super) static DEGREE_TABLES: Cell<usize> = const { Cell::new(0) };
    }

    fn check(q: &Query, rels: &[Relation], p: usize) -> (Decision, JoinRun) {
        let (d, run) = plan_and_run(q, rels, p, 7);
        let (mut got, mut expect) = (run.gathered(), evaluate(q, rels));
        got.sort();
        expect.sort();
        assert_eq!(got, expect, "strategy {:?} wrong answer", d.strategy);
        (d, run)
    }

    #[test]
    fn picks_hash_join_for_uniform_two_way() {
        let q = Query::two_way();
        let rels = vec![
            generate::key_unique_pairs(500, 1, 1 << 30, 1),
            generate::key_unique_pairs(500, 0, 1 << 30, 2),
        ];
        let (d, _) = check(&q, &rels, 8);
        assert_eq!(d.strategy, Strategy::HashJoin);
    }

    #[test]
    fn picks_skew_join_for_skewed_two_way() {
        let q = Query::two_way();
        let rels = vec![
            generate::constant_key_pairs(400, 3, 1),
            generate::constant_key_pairs(400, 3, 0),
        ];
        let (d, _) = check(&q, &rels, 8);
        assert_eq!(d.strategy, Strategy::SkewJoin);
    }

    #[test]
    fn picks_broadcast_for_asymmetric() {
        let q = Query::two_way();
        let rels = vec![
            generate::uniform(2, 10, 50, 3),
            generate::uniform(2, 2000, 50, 4),
        ];
        let (d, _) = check(&q, &rels, 8);
        assert_eq!(d.strategy, Strategy::BroadcastJoin);
    }

    #[test]
    fn picks_cartesian_for_product() {
        let q = Query::product();
        let rels = vec![
            generate::uniform(1, 60, 500, 5),
            generate::uniform(1, 60, 500, 6),
        ];
        let (d, run) = check(&q, &rels, 16);
        assert_eq!(d.strategy, Strategy::Cartesian);
        assert_eq!(run.output_size(), 3600);
    }

    #[test]
    fn picks_hypercube_for_uniform_triangle() {
        let q = Query::triangle();
        let g = generate::uniform(2, 600, 1 << 30, 7);
        let rels = vec![g.clone(), g.clone(), g];
        let (d, _) = check(&q, &rels, 8);
        assert_eq!(d.strategy, Strategy::HyperCube);
    }

    #[test]
    fn picks_skewhc_for_skewed_triangle() {
        let q = Query::triangle();
        let mut g = generate::uniform(2, 300, 1 << 30, 8);
        for i in 0..200 {
            g.push(&[42, i]);
        }
        let rels = vec![g.clone(), g.clone(), g];
        let (d, _) = check(&q, &rels, 8);
        assert_eq!(d.strategy, Strategy::SkewHC);
    }

    #[test]
    fn picks_gym_for_selective_acyclic() {
        // Chain with key-unique relations: AGM = N but crossover ≈ p^{…}·IN.
        let q = Query::chain(3);
        let rels: Vec<Relation> = (0..3)
            .map(|i| generate::key_unique_pairs(300, (i == 0) as usize, 300, 9 + i as u64))
            .collect();
        let (d, _) = check(&q, &rels, 16);
        assert_eq!(d.strategy, Strategy::Gym, "{}", d.reason);
    }

    #[test]
    fn picks_expansion_join_for_long_cycles() {
        // Cycle-8 has τ* = 4: one-round replication is hopeless (slide 62);
        // binary atoms ⇒ grow bindings vertex-at-a-time instead.
        let q = Query::cycle(8);
        let rels: Vec<Relation> = (0..8)
            .map(|i| generate::uniform(2, 120, 40, 13 + i as u64))
            .collect();
        let (d, _) = check(&q, &rels, 8);
        assert_eq!(d.strategy, Strategy::ExpansionJoin, "{}", d.reason);
    }

    #[test]
    fn single_server_degenerates() {
        let q = Query::two_way();
        let rels = vec![
            generate::uniform(2, 50, 20, 11),
            generate::uniform(2, 50, 20, 12),
        ];
        let (d, _) = check(&q, &rels, 1);
        assert_eq!(d.strategy, Strategy::SingleServer);
    }

    #[test]
    fn output_in_variable_order() {
        // Join R(x,y) ⋈ S(y,z) with asymmetric columns to catch
        // reordering mistakes.
        let q = Query::two_way();
        let r = Relation::from_rows(2, [[100, 1]]);
        let s = Relation::from_rows(2, [[1, 200]]);
        let (_, run) = plan_and_run(&q, &[r, s], 4, 3);
        assert_eq!(run.gathered().to_rows(), vec![vec![100, 1, 200]]);
    }

    /// `run_plan`'s two-way arms, word for word: every server's fragment
    /// in raw row order (arity, length, words) and the ledger. `R(x₁, x₀)
    /// ⋈ S(x₂, x₁)` joins R's column 0 with S's column 1, so every arm
    /// permutes its rows into variable order. Printed by this test at the
    /// commit before the arms shared one column lookup and one reorder.
    #[test]
    fn two_way_arms_pin_their_fragments_in_row_order() {
        use parqp_data::fasthash::FxHasher;
        use parqp_query::Atom;
        use std::hash::Hasher;

        let q = Query::new(
            3,
            vec![Atom::new("R", vec![1, 0]), Atom::new("S", vec![2, 1])],
        );
        // Zipf keys in the join columns: heavy hitters for the skew join.
        let r = generate::zipf_pairs(400, 30, 1.2, 0, 4);
        let s = generate::zipf_pairs(300, 30, 1.2, 1, 5);
        let small = generate::uniform(2, 20, 30, 6);
        let cases = [
            (
                "hash",
                Strategy::HashJoin,
                [&r, &s],
                8,
                0xc943_5627_e0ae_4940,
            ),
            (
                "broadcast, small first",
                Strategy::BroadcastJoin,
                [&small, &s],
                8,
                0x9c64_5055_3391_9a5e,
            ),
            (
                "broadcast, small second",
                Strategy::BroadcastJoin,
                [&r, &small],
                8,
                0x4527_7eda_d80b_6ea5,
            ),
            (
                "skew",
                Strategy::SkewJoin,
                [&r, &s],
                8,
                0xa0aa_956c_eb87_e52d,
            ),
            (
                "single server",
                Strategy::SingleServer,
                [&r, &s],
                1,
                0x5b94_c66f_d6b6_e68d,
            ),
        ];
        let mut wrong = Vec::new();
        for (what, strategy, [r, s], p, want) in cases {
            let rels = [r.clone(), s.clone()];
            let run = run_plan(&q, &rels, p, 7, &strategy);
            assert!(run.output_size() > 0, "{what}: a vacuous case pins nothing");
            assert_eq!(
                run.gathered().canonical(),
                evaluate(&q, &rels).canonical(),
                "{what}"
            );
            let mut h = FxHasher::default();
            for f in &run.outputs {
                h.write_usize(f.arity());
                h.write_usize(f.len());
                for &w in f.raw() {
                    h.write_u64(w);
                }
            }
            h.write_u64(run.report.total_words());
            h.write_usize(run.report.num_rounds());
            if h.finish() != want {
                wrong.push(format!(
                    "{what}: {:#018x} != pinned {want:#018x}",
                    h.finish()
                ));
            }
        }
        assert!(wrong.is_empty(), "{wrong:#?}");
    }

    #[test]
    fn plan_builds_each_degree_table_once() {
        // A shape per rule family: two-way (sizes and degrees), cyclic
        // multiway (degrees), acyclic multiway (degrees and the count).
        for q in [Query::two_way(), Query::triangle(), Query::chain(3)] {
            let rels: Vec<Relation> = (0..q.num_atoms())
                .map(|i| generate::uniform(2, 200, 50, 20 + i as u64))
                .collect();
            let before = DEGREE_TABLES.get();
            plan(&q, &rels, 8);
            let columns: usize = q.atoms().iter().map(|a| a.arity()).sum();
            assert_eq!(DEGREE_TABLES.get() - before, columns, "{q}");
        }
    }

    /// Statistics of `q` written by hand: every atom `size` tuples wide,
    /// every column's heaviest value `degree` tuples deep.
    fn flat_stats(q: &Query, size: u64, degree: u64, out: Option<u64>) -> PlanStats {
        PlanStats {
            sizes: vec![size; q.num_atoms()],
            max_degree: q.atoms().iter().map(|a| vec![degree; a.arity()]).collect(),
            acyclic_out: out,
        }
    }

    #[test]
    fn decide_needs_numbers_not_data() {
        const N: u64 = 1_000_000_000;
        let p = 64;
        let per_server = N / p as u64;
        let strategy = |q: &Query, stats: &PlanStats, p| decide(q, stats, p).strategy;

        // The slide 78 crossover, from IN = 3·10⁹: GYM strictly below it.
        let chain = Query::chain(3);
        let crossover =
            model::gym_crossover_output(3.0 * N as f64, p as f64, model::tau_star(&chain));
        let at = crossover.ceil() as u64;
        assert!(at > N, "the switch sits beyond any OUT a test could join");
        for (out, expect) in [
            (0, Strategy::Gym),
            (at - 1, Strategy::Gym),
            (at, Strategy::HyperCube),
            (at + 1, Strategy::HyperCube),
            (u64::MAX, Strategy::HyperCube),
        ] {
            let d = decide(&chain, &flat_stats(&chain, N, 1, Some(out)), p);
            assert_eq!(d.strategy, expect, "OUT = {out}: {}", d.reason);
            if expect == Strategy::Gym {
                assert_eq!(
                    d.reason,
                    format!(
                        "acyclic, OUT = {out} below the (IN+OUT)/p crossover {crossover:.0} \
                         (slide 78): GYM"
                    )
                );
            }
        }
        // Above the crossover the skew rule is next in line.
        let skewed = flat_stats(&chain, N, per_server, Some(at));
        assert_eq!(strategy(&chain, &skewed, p), Strategy::SkewHC);

        // Broadcast while small·p ≤ large.
        let two_way = Query::two_way();
        let sides = |small: u64, large: u64| PlanStats {
            sizes: vec![large, small],
            ..flat_stats(&two_way, 0, 1, None)
        };
        let d = decide(&two_way, &sides(per_server, N), p);
        assert_eq!(d.strategy, Strategy::BroadcastJoin);
        assert_eq!(
            d.reason,
            format!("one side ({per_server}) ≤ other/p ({N}/{p}): broadcast it (slide 32)")
        );
        assert_eq!(
            strategy(&two_way, &sides(per_server, N - 1), p),
            Strategy::HashJoin
        );
        assert_eq!(
            strategy(&two_way, &sides(per_server + 1, N), p),
            Strategy::HashJoin
        );

        // Skewed from max degree = max(|S_j|/p, 2) on: the |S_j|/p arm
        // at 10⁹ tuples, the floor of 2 at 100.
        let triangle = Query::triangle();
        for (size, threshold) in [(N, per_server), (100, 2)] {
            for (q, calm, skewed) in [
                (&two_way, Strategy::HashJoin, Strategy::SkewJoin),
                (&triangle, Strategy::HyperCube, Strategy::SkewHC),
            ] {
                let below = flat_stats(q, size, threshold - 1, None);
                let at = flat_stats(q, size, threshold, None);
                assert_eq!(strategy(q, &below, p), calm, "{q}, |S| = {size}");
                assert_eq!(strategy(q, &at, p), skewed, "{q}, |S| = {size}");
            }
        }
        // One skewed column in one atom is enough.
        let mut one_column = flat_stats(&triangle, N, 1, None);
        one_column.max_degree[2][1] = per_server;
        assert_eq!(strategy(&triangle, &one_column, p), Strategy::SkewHC);

        // p = 1 needs no statistic at all.
        for q in [&two_way, &triangle, &chain] {
            let stats = flat_stats(q, N, N, None);
            assert_eq!(strategy(q, &stats, 1), Strategy::SingleServer);
        }
    }

    #[test]
    #[should_panic(expected = "arity mismatch for atom S")]
    fn a_relation_of_the_wrong_width_fails_at_the_door() {
        let r = generate::uniform(2, 10, 5, 1);
        let wide = generate::uniform(3, 10, 5, 2);
        plan(&Query::two_way(), &[r, wide], 4);
    }
}
