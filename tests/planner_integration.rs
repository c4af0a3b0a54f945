//! Planner integration: the decision procedure picks sensible strategies
//! and the chosen strategy is never grossly worse than the alternatives
//! it rejected; plus empirical validation of the analytic model.

use parqp::data::generate;
use parqp::join::{multiway, twoway};
use parqp::model;
use parqp::planner::{plan, plan_and_run, run_plan, Strategy};
use parqp::prelude::*;
use parqp_data::Relation;
use parqp_mpc::HashFamily;

#[test]
fn planner_correct_on_a_matrix_of_shapes_and_skews() {
    let cases: Vec<(Query, Vec<Relation>)> = vec![
        (
            Query::two_way(),
            vec![
                generate::uniform(2, 300, 1 << 20, 1),
                generate::uniform(2, 300, 1 << 20, 2),
            ],
        ),
        (
            Query::two_way(),
            vec![
                generate::zipf_pairs(300, 50, 1.3, 1, 3),
                generate::zipf_pairs(300, 50, 1.3, 0, 4),
            ],
        ),
        (
            Query::product(),
            vec![
                generate::uniform(1, 40, 100, 5),
                generate::uniform(1, 50, 100, 6),
            ],
        ),
        (
            Query::triangle(),
            vec![
                generate::random_symmetric_graph(40, 300, 7),
                generate::random_symmetric_graph(40, 300, 7),
                generate::random_symmetric_graph(40, 300, 7),
            ],
        ),
        (
            Query::star(3),
            (0..3)
                .map(|i| generate::key_unique_pairs(200, 0, 200, 8 + i))
                .collect(),
        ),
    ];
    for (q, rels) in cases {
        for p in [2, 8, 32] {
            let (d, run) = plan_and_run(&q, &rels, p, 42);
            let expect = parqp::query::evaluate(&q, &rels);
            assert_eq!(
                run.gathered().canonical(),
                expect.canonical(),
                "{q} at p={p}: {:?} gave a wrong answer",
                d.strategy
            );
        }
    }
}

#[test]
fn planner_never_picks_catastrophic_strategy_under_skew() {
    // Under extreme two-way skew the planner must not pick HashJoin.
    let r = generate::constant_key_pairs(1000, 7, 1);
    let s = generate::constant_key_pairs(1000, 7, 0);
    let q = Query::two_way();
    let d = plan(&q, &[r.clone(), s.clone()], 16);
    assert_ne!(d.strategy, Strategy::HashJoin, "{}", d.reason);
    // And the chosen strategy beats hash join's load by a wide margin.
    let chosen = run_plan(&q, &[r.clone(), s.clone()], 16, 3, &d.strategy);
    let hash = twoway::hash_join(&r, 1, &s, 0, 16, 3);
    assert!(chosen.report.max_load_tuples() * 2 < hash.report.max_load_tuples());
}

#[test]
fn planner_reasons_mention_slides() {
    let r = generate::uniform(2, 100, 1 << 20, 9);
    let s = generate::uniform(2, 100, 1 << 20, 10);
    let d = plan(&Query::two_way(), &[r, s], 8);
    assert!(
        d.reason.contains("slide"),
        "reasons cite the paper: {}",
        d.reason
    );
}

#[test]
fn chernoff_bound_validated_empirically() {
    // Hash-partition a no-skew input many times; the frequency of
    // exceeding (1+ε)·IN/p must not beat the Chernoff bound of slide 24.
    let input = 20_000u64;
    let p = 16usize;
    let eps = 0.5;
    let trials = 60u32;
    let mut exceed = 0u32;
    for seed in 0..trials {
        let h = HashFamily::new(u64::from(seed), 1);
        let mut counts = vec![0u64; p];
        for v in 0..input {
            counts[h.hash(0, v, p)] += 1;
        }
        let max = *counts.iter().max().expect("nonempty");
        if (max as f64) >= (1.0 + eps) * input as f64 / p as f64 {
            exceed += 1;
        }
    }
    let bound = model::hash_partition_tail_bound(input as f64, p as f64, 1.0, eps);
    let freq = f64::from(exceed) / f64::from(trials);
    assert!(
        freq <= bound + 0.05,
        "empirical exceedance {freq} violates Chernoff bound {bound}"
    );
}

#[test]
fn degree_threshold_marks_real_transition() {
    // Partition inputs of varying uniform degree; loads stay near IN/p
    // below the slide 26 threshold and blow past it for degrees far above.
    let input = 40_000usize;
    let p = 16usize;
    let eps = 0.3;
    let threshold = model::degree_threshold(input as f64, p as f64, eps, 0.05);
    let measure = |d: usize| -> f64 {
        let rel = generate::uniform_degree_pairs(input, d, 0, 1 << 30, d as u64);
        let run = twoway::hash_join(&rel, 0, &generate::key_unique_pairs(1, 0, 2, 1), 0, p, 7);
        run.report.max_load_tuples() as f64 / (rel.len() as f64 / p as f64)
    };
    let low = measure((threshold / 4.0).max(1.0) as usize);
    let high = measure(input / 4); // only 4 distinct keys
    assert!(low < 1.0 + 2.0 * eps, "low-degree load ratio {low}");
    assert!(high > 2.0, "high-degree load ratio {high} should blow up");
}

#[test]
fn hypercube_speedup_curve_shape() {
    // Slide 45: measured speedup approaches p^{1/τ*} from above as p
    // grows (integer shares give extra speedup at small p).
    let q = Query::triangle();
    let n = 20_000;
    let g = generate::uniform(2, n, 1 << 40, 11);
    let rels = vec![g.clone(), g.clone(), g];
    let l1 = multiway::hypercube(&q, &rels, 1, 5)
        .report
        .max_load_tuples() as f64;
    assert_eq!(l1 as u64, 3 * n as u64, "p=1 holds the whole input");
    for p in [8usize, 64, 512] {
        let l = multiway::hypercube(&q, &rels, p, 5)
            .report
            .max_load_tuples() as f64;
        let speedup = l1 / l;
        let ideal = model::hypercube_speedup(p as f64, model::tau_star(&q));
        assert!(
            speedup > 0.5 * ideal && speedup < 3.0 * ideal,
            "p={p}: speedup {speedup} vs ideal {ideal}"
        );
    }
}

/// `n` atoms of 400 uniform rows over 300 values, each with the row
/// `(1, 1)` pushed twice: inputs whose join is a bag with repeats.
fn atoms_with_repeated_rows(n: usize) -> Vec<Relation> {
    (0..n)
        .map(|i| {
            let mut rel = generate::uniform(2, 400, 300, 5 + i as u64);
            rel.push(&[1, 1]);
            rel.push(&[1, 1]);
            rel
        })
        .collect()
}

/// `rel`'s rows in sorted order, repeats kept: the bag, comparable.
fn sorted_rows(rel: &Relation) -> Vec<Vec<Value>> {
    let mut rows = rel.to_rows();
    rows.sort_unstable();
    rows
}

/// Whether `rows` (sorted) holds some row twice.
fn has_repeats(rows: &[Vec<Value>]) -> bool {
    rows.windows(2).any(|w| w[0] == w[1])
}

/// Through the front door, a long cycle over atoms that repeat a row
/// returns `evaluate`'s bag, not its set.
#[test]
fn long_cycles_with_duplicate_rows_return_the_bag() {
    for n in [7, 8] {
        let q = Query::cycle(n);
        let rels = atoms_with_repeated_rows(n);
        let expect = sorted_rows(&parqp::query::evaluate(&q, &rels));
        assert!(has_repeats(&expect));
        for p in [8, 27] {
            let (d, run) = plan_and_run(&q, &rels, p, 3);
            let got = sorted_rows(&run.gathered());
            let picked = format!("cycle({n}) at p = {p}, {:?}", d.strategy);
            assert_eq!(got.len(), expect.len(), "{picked}");
            assert_eq!(got, expect, "{picked}");
            assert_eq!(
                d.strategy,
                Strategy::ExpansionJoin,
                "{picked}: {}",
                d.reason
            );
        }
    }
}

/// Every strategy that runs a shape returns `evaluate`'s bag, row for
/// row, on atoms that repeat a row: HyperCube, SkewHC, the binary plan,
/// the expansion join, and GYM where the query is acyclic.
#[test]
fn every_strategy_returns_the_bag() {
    let mut wrong = Vec::new();
    for q in [
        Query::triangle(),
        Query::cycle(4),
        Query::cycle(7),
        Query::chain(3),
    ] {
        let rels = atoms_with_repeated_rows(q.num_atoms());
        let expect = sorted_rows(&parqp::query::evaluate(&q, &rels));
        assert!(has_repeats(&expect), "{q}: a set would pass for the bag");
        let mut strategies = vec![
            Strategy::HyperCube,
            Strategy::SkewHC,
            Strategy::BinaryPlan,
            Strategy::ExpansionJoin,
        ];
        if Ghd::join_tree(&q).is_some() {
            strategies.push(Strategy::Gym);
        }
        for p in [8, 27] {
            for strategy in &strategies {
                let got = sorted_rows(&run_plan(&q, &rels, p, 3, strategy).gathered());
                if got != expect {
                    wrong.push(format!(
                        "{q} at p = {p}, {strategy:?}: {} rows, evaluate has {}",
                        got.len(),
                        expect.len()
                    ));
                }
            }
        }
    }
    assert!(wrong.is_empty(), "{wrong:#?}");
}

/// `planner::plan` as it was while it planned by joining, body
/// unchanged: OUT is `yannakakis_serial(..).len()`, `skewed` also asks
/// `heavy_values`, and the join tree and τ* are computed twice. Kept as
/// the executable statement of what `decide(collect(..))` must return —
/// strategy and reason.
mod reference {
    use parqp::join::skewhc;
    use parqp::model;
    use parqp::planner::{Decision, Strategy};
    use parqp::query::{Ghd, Query};
    use parqp_data::stats::max_degree;
    use parqp_data::Relation;

    pub fn plan(query: &Query, rels: &[Relation], p: usize) -> Decision {
        assert_eq!(rels.len(), query.num_atoms(), "one relation per atom");
        if p == 1 {
            return Decision {
                strategy: Strategy::SingleServer,
                reason: "single server: everything is local".into(),
            };
        }
        let input: usize = rels.iter().map(Relation::len).sum();

        // Any heavy hitters (per the paper's IN/p threshold)?
        let heavy = skewhc::heavy_values(query, rels, p);
        let skewed = {
            // A variable is skewed only if a value repeats beyond threshold;
            // degree-1 "heavy" values from the max(1,…) floor don't count.
            query.atoms().iter().zip(rels).any(|(atom, rel)| {
                let threshold = ((rel.len() / p) as u64).max(2);
                (0..atom.arity()).any(|pos| max_degree(rel, pos) >= threshold)
            }) && heavy.iter().any(|h| !h.is_empty())
        };

        if query.num_atoms() == 2 {
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
            let (a, b) = (rels[0].len(), rels[1].len());
            let (small, large) = (a.min(b), a.max(b));
            if small * p <= large {
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
                    reason: "heavy hitters on the join attribute: heavy/light split (slide 30)"
                        .into(),
                };
            }
            return Decision {
                strategy: Strategy::HashJoin,
                reason: "two-way skew-free join: hash partitioning is optimal (slide 23)".into(),
            };
        }

        // Multiway.
        if let Some(tree) = Ghd::join_tree(query) {
            // Acyclic: GYM wins when OUT is below the slide 78 crossover.
            // The simulator computes OUT exactly with serial Yannakakis
            // (O(IN+OUT)); a real system would use estimates, changing only
            // where the switch happens, not the shape of the decision.
            let tau = model::tau_star(query);
            let out = parqp::query::yannakakis_serial(query, rels, &tree).len();
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
        let tau = model::tau_star(query);
        if Ghd::join_tree(query).is_none() && tau > 3.0 {
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
}

/// Planning from statistics against [`reference::plan`]: the same
/// decision, reason text included, on inputs that reach every rule.
mod differential {
    use super::reference;
    use parqp::planner::{decide, plan, PlanStats, Strategy};
    use parqp::prelude::*;
    use parqp_testkit::prelude::*;

    /// Every query shape a rule distinguishes: two-way on one variable,
    /// on none, on two; one atom; acyclic chains, stars and trees (the
    /// crossover, either side); cyclic at low and high τ*, with binary
    /// atoms and without.
    fn shapes() -> Vec<Query> {
        let ternary_ring = |n: usize| {
            Query::new(
                2 * n,
                (0..n)
                    .map(|i| {
                        let vars = vec![2 * i, 2 * i + 1, (2 * i + 2) % (2 * n)];
                        Atom::new(format!("T{i}"), vars)
                    })
                    .collect(),
            )
        };
        vec![
            Query::two_way(),
            Query::product(),
            Query::new(
                2,
                vec![Atom::new("R", vec![0, 1]), Atom::new("S", vec![1, 0])],
            ),
            Query::new(2, vec![Atom::new("R", vec![0, 1])]),
            Query::chain(3),
            Query::chain(4),
            Query::star(3),
            Query::slide64_tree(),
            Query::triangle(),
            Query::cycle(4),
            Query::cycle(8),
            ternary_ring(8),
        ]
    }

    /// `rows` tuples over `domain`; unless `calm`, a small domain as
    /// often as not and — three times in four — one value planted up to
    /// 20 times in one column, so the thresholds at every `p` are met,
    /// missed and straddled.
    fn random_relation(rng: &mut Rng, arity: usize, calm: bool) -> Relation {
        let rows = rng.gen_range(0usize..=40);
        let domain = if calm {
            1 << 40
        } else {
            [2, 8, 40, 1 << 40][rng.gen_range(0usize..4)]
        };
        let mut rel = Relation::with_capacity(arity, rows);
        let mut row = vec![0; arity];
        for _ in 0..rows {
            row.fill_with(|| rng.gen_below(domain));
            rel.push(&row);
        }
        if !calm && rng.gen_below(4) > 0 {
            let col = rng.gen_range(0..arity);
            for i in 0..rng.gen_range(1u64..=20) {
                row.fill(1 + i);
                row[col] = 1;
                rel.push(&row);
            }
        }
        rel
    }

    /// One of [`shapes`] over random relations; one instance in three is
    /// skew-free throughout (the rules behind the skew test need that of
    /// every atom at once).
    fn random_instance(seed: u64) -> (Query, Vec<Relation>) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut shapes = shapes();
        let q = shapes.swap_remove(rng.gen_range(0..shapes.len()));
        let calm = rng.gen_below(3) == 0;
        let rels = q
            .atoms()
            .iter()
            .map(|a| random_relation(&mut rng, a.arity(), calm))
            .collect();
        (q, rels)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn decisions_are_the_reference_decisions(seed in any::<u64>()) {
            let (q, rels) = random_instance(seed);
            let stats = PlanStats::collect(&q, &rels);
            for p in [1, 2, 8, 64] {
                let ours = decide(&q, &stats, p);
                let theirs = reference::plan(&q, &rels, p);
                prop_assert_eq!(&ours.strategy, &theirs.strategy, "{} at p = {}", q, p);
                prop_assert_eq!(&ours.reason, &theirs.reason, "{} at p = {}", q, p);
                let planned = plan(&q, &rels, p);
                prop_assert_eq!(planned.strategy, ours.strategy);
                prop_assert_eq!(planned.reason, ours.reason);
            }
        }
    }

    /// The generator above reaches every rule (so the property is not
    /// vacuous on any of them).
    #[test]
    fn the_instances_reach_every_strategy() {
        let mut seen: Vec<Strategy> = Vec::new();
        for seed in 0..400 {
            let (q, rels) = random_instance(seed);
            for p in [1, 2, 8, 64] {
                let strategy = plan(&q, &rels, p).strategy;
                if !seen.contains(&strategy) {
                    seen.push(strategy);
                }
            }
        }
        for strategy in [
            Strategy::HashJoin,
            Strategy::BroadcastJoin,
            Strategy::SkewJoin,
            Strategy::Cartesian,
            Strategy::HyperCube,
            Strategy::SkewHC,
            Strategy::Gym,
            Strategy::BinaryPlan,
            Strategy::ExpansionJoin,
            Strategy::SingleServer,
        ] {
            assert!(seen.contains(&strategy), "{strategy:?} never chosen");
        }
    }
}
