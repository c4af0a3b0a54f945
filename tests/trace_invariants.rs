//! Trace/ledger consistency: the event stream captured by
//! `parqp_mpc::trace::Recorder` must mirror `Cluster`'s accounting exactly.
//!
//! `analyze::round_loads` folds a recording into the ledger's own
//! `RoundStats` — the fold the live metrics registry runs — so the one
//! property to check is that the fold of a run's trace is its ledger.
//! For algorithms whose reports are built round by round it is, round
//! for round. Algorithms that compose reports with
//! `LoadReport::parallel` or `LoadReport::folded` (the skew joins, HL
//! and GHD bags run parts on server *groups* side by side) merge rounds
//! in the report, so there the trace — which sees every exchange as its
//! own round — may have more rounds, never fewer, and only the totals
//! and the load `L` agree.
//!
//! Also asserted here: the acceptance criterion that a fixed-seed run
//! produces byte-identical JSONL on two consecutive invocations.

use parqp::data::generate;
use parqp::join::{aggregate, baselines, gym, hl, multiway, plans, skewhc, subgraph, twoway};
use parqp::matmul::{rect_block, square_block, Matrix};
use parqp::mpc::{Cluster, LoadReport, RoundStats};
use parqp::pipeline::{self, Agg, AggregateQuery};
use parqp::query::{Ghd, Query};
use parqp::trace::{analyze, export, Recorder, TraceEvent};
use parqp_testkit::Rng;

/// Check the folded `rounds` of a trace against the `report` of the
/// run that emitted it. `rounds_exact` is false for
/// `LoadReport::parallel`/`folded` compositions (see module docs).
fn assert_fold_matches(name: &str, rounds_exact: bool, rounds: &[RoundStats], report: &LoadReport) {
    if rounds_exact {
        assert_eq!(rounds, report.rounds, "{name}: folded trace vs ledger");
        return;
    }
    let traced = [
        rounds.iter().map(RoundStats::total_tuples).sum(),
        rounds.iter().map(RoundStats::total_words).sum(),
        rounds.iter().map(RoundStats::max_tuples).max().unwrap_or(0),
        rounds.iter().map(RoundStats::max_words).max().unwrap_or(0),
    ];
    assert_eq!(traced, cost(report), "{name}: C and L");
    assert!(
        rounds.len() >= report.num_rounds(),
        "{name}: trace has {} rounds, report merged to {}",
        rounds.len(),
        report.num_rounds()
    );
}

/// `[C, L]` in tuples and words: what a composed report keeps exact.
fn cost(r: &LoadReport) -> [u64; 4] {
    [
        r.total_tuples(),
        r.total_words(),
        r.max_load_tuples(),
        r.max_load_words(),
    ]
}

/// Run `f` under a recorder and check the folded trace against the
/// report it returns.
fn assert_trace_matches(name: &str, rounds_exact: bool, f: impl FnOnce() -> LoadReport) {
    let (rec, report) = Recorder::capture(f);
    assert_eq!(rec.dropped(), 0, "{name}: ring buffer overflowed");
    assert_fold_matches(name, rounds_exact, &analyze::round_loads(&rec), &report);
}

#[test]
fn join_traces_match_reports() {
    let mut rng = Rng::seed_from_u64(0x7ace);
    for _ in 0..3 {
        let seed = rng.next_u64();
        let r = generate::uniform(2, 1200, 150, seed);
        let s = generate::uniform(2, 1200, 150, seed ^ 1);
        assert_trace_matches("hash_join", true, || {
            twoway::hash_join(&r, 1, &s, 0, 8, seed).report
        });
        assert_trace_matches("broadcast_join", true, || {
            twoway::broadcast_join(&r, 1, &s, 0, 8).report
        });
        assert_trace_matches("cartesian", true, || {
            twoway::cartesian(&r, &s, 6, seed).report
        });
        assert_trace_matches("sort_merge_join", true, || {
            twoway::sort_merge_join(&r, 1, &s, 0, 8, seed).report
        });
        let z = generate::zipf_pairs(1500, 300, 1.2, 0, seed);
        assert_trace_matches("skew_join", false, || {
            twoway::skew_join(&z, 0, &s, 0, 8, seed).report
        });
    }
}

#[test]
fn multiway_traces_match_reports() {
    let q = Query::triangle();
    let g = generate::random_symmetric_graph(80, 500, 11);
    let rels = vec![g.clone(), g.clone(), g];
    assert_trace_matches("hypercube", true, || {
        multiway::hypercube(&q, &rels, 27, 11).report
    });
    assert_trace_matches("skewhc", false, || skewhc::skewhc(&q, &rels, 27, 11).report);
    let chain = Query::chain(3);
    let crels: Vec<_> = (0..3)
        .map(|i| generate::uniform(2, 400, 80, 20 + i))
        .collect();
    assert_trace_matches("binary_join_plan", true, || {
        plans::binary_join_plan(&chain, &crels, 16, 13, None).report
    });
}

#[test]
fn composed_traces_match_reports() {
    // The multi-round and sub-cluster algorithms: GYM's semijoin
    // passes, a GHD's bags materialized on parallel blocks (folded onto
    // the cluster: 9 traced rounds, 7 in the ledger), HL's heavy
    // semijoin groups beside its light HyperCube, the expansion join
    // and the ring baseline.
    let chain = Query::chain(4);
    let crels: Vec<_> = (0..4)
        .map(|i| generate::uniform(2, 300, 60, 30 + i))
        .collect();
    let tree = Ghd::join_tree(&chain).expect("acyclic");
    let c6 = Query::chain(6);
    // Small: a width-2 bag materializes a Cartesian product.
    let r6: Vec<_> = (0..6)
        .map(|i| generate::uniform(2, 60, 25, 50 + i))
        .collect();
    let blocks = Ghd::chain_blocks(6, 2);
    let g = generate::random_symmetric_graph(80, 500, 11);
    // z-skewed S and T: the hub is heavy from p = 8 up.
    let (zr, zs, zt) = (
        generate::uniform(2, 600, 120, 8),
        generate::zipf_pairs(600, 120, 3.0, 1, 9),
        generate::zipf_pairs(600, 120, 3.0, 0, 10),
    );
    let tri = Query::triangle();
    let (r, s) = (
        generate::uniform(2, 400, 80, 1),
        generate::uniform(2, 400, 80, 2),
    );
    for p in [2, 3, 5, 8, 27] {
        for optimized in [false, true] {
            assert_trace_matches(&format!("gym opt={optimized} p={p}"), true, || {
                gym::gym(&chain, &crels, &tree, p, 7, optimized).report
            });
        }
        assert_trace_matches(&format!("gym_ghd p={p}"), false, || {
            gym::gym_ghd(&c6, &r6, &blocks, p, 7).report
        });
        assert_trace_matches(&format!("hl uniform p={p}"), true, || {
            hl::hl_triangle(&g, &g, &g, p, 5).report
        });
        assert_trace_matches(&format!("hl zipf p={p}"), p < 8, || {
            hl::hl_triangle(&zr, &zs, &zt, p, 5).report
        });
        assert_trace_matches(&format!("expansion_join p={p}"), true, || {
            subgraph::expansion_join(&tri, &[g.clone(), g.clone(), g.clone()], p, 5).report
        });
        assert_trace_matches(&format!("naive_ring p={p}"), true, || {
            baselines::naive_ring(&r, 1, &s, 0, p).report
        });
    }
}

/// Each traced round's `Σ Send msgs` beside the tuples it received.
fn sent_and_received(rec: &Recorder) -> Vec<(u64, u64)> {
    let mut rounds = Vec::new();
    let mut sent = 0;
    for event in rec.events() {
        match *event {
            TraceEvent::RoundBegin { .. } => sent = 0,
            TraceEvent::Send { msgs, .. } => sent += msgs,
            TraceEvent::RoundEnd { tuples, .. } => rounds.push((sent, tuples)),
            _ => {}
        }
    }
    rounds
}

/// One traced run of an entry point: what it is, its trace, its
/// ledger where the ledger is not folded (`LoadReport::parallel` and
/// `folded` merge rounds the trace keeps apart), and per traced round
/// the tuples it receives that no server sends.
struct Attributed {
    name: String,
    rec: Recorder,
    report: Option<LoadReport>,
    central: Vec<u64>,
}

fn traced(name: String, folded: bool, f: impl FnOnce() -> LoadReport) -> Attributed {
    let (rec, report) = Recorder::capture(f);
    Attributed {
        name,
        rec,
        report: (!folded).then_some(report),
        central: Vec::new(),
    }
}

#[test]
fn every_join_attributes_every_tuple_it_sends() {
    // Every `parqp-join` entry point and the join-then-aggregate
    // pipeline: in each traced round the `Send` events account for
    // every tuple received (Σ msgs = tuples), and the traced rounds are
    // the ledger's wherever it is not folded.
    //
    // `hl_triangle`'s heavy groups filter with key lists computed
    // centrally (`S(y, c)`'s ys and `T(c, x)`'s xs for the heavy c),
    // which belong to no server: their rounds receive exactly those
    // keys more than the servers send, and the check allows that many
    // and no more.
    let (r, s) = (
        generate::uniform(2, 600, 120, 1),
        generate::uniform(2, 600, 120, 2),
    );
    let small = generate::uniform(2, 40, 120, 3);
    let (ur, us) = (
        generate::uniform(1, 60, 1000, 4),
        generate::uniform(1, 50, 1000, 5),
    );
    let (zr, zs) = (
        generate::zipf_pairs(600, 60, 1.2, 1, 6),
        generate::zipf_pairs(600, 60, 1.2, 0, 7),
    );
    let tri = Query::triangle();
    let g = generate::random_symmetric_graph(80, 600, 11);
    let tri_rels = vec![g.clone(), g.clone(), g.clone()];
    let mut hub = generate::random_symmetric_graph(50, 200, 9);
    for i in 0..60 {
        hub.push(&[0, 100 + i]);
        hub.push(&[100 + i, 0]);
    }
    let hub_rels = vec![hub.clone(), hub.clone(), hub];
    // z = 9 is heavy in S and T at p = 8, and nothing is at p = 3.
    let hl_r = generate::uniform(2, 400, 60, 21);
    let hl_s = generate::constant_key_pairs(400, 9, 1);
    let mut hl_t = generate::uniform(2, 400, 60, 22);
    for i in 0..400u64 {
        hl_t.push(&[9, i % 60]);
    }
    let distinct = |rel: &parqp::data::Relation, at: usize, keep: usize| {
        let mut keys: Vec<u64> = rel
            .iter()
            .filter(|row| row[at] == 9)
            .map(|row| row[keep])
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len() as u64
    };
    let hub_keys = vec![distinct(&hl_s, 1, 0), distinct(&hl_t, 0, 1)];
    let (sj_r, sj_s, sj_t) = (
        generate::unary_range(60),
        generate::uniform(2, 600, 100, 23),
        generate::unary_range(80),
    );
    // A chain (one child per parent) and a flat star (the centre has
    // three children, so optimized GYM runs its intersection round);
    // GYM vanilla and optimized over each, and `gym_ghd` over a chain.
    let chain = Query::chain(3);
    let crels: Vec<_> = (0..3)
        .map(|i| generate::uniform(2, 600, 120, 40 + i))
        .collect();
    let star = Query::star(4);
    let srels: Vec<_> = (0..4).map(|i| generate::uniform(2, 200, 40, i)).collect();
    let trees = [
        (
            "chain",
            &chain,
            &crels,
            Ghd::join_tree(&chain).expect("acyclic"),
        ),
        ("star", &star, &srels, Ghd::star_flat(&star)),
    ];
    let c6 = Query::chain(6);
    let r6: Vec<_> = (0..6)
        .map(|i| generate::uniform(2, 60, 25, 50 + i))
        .collect();
    let blocks = Ghd::chain_blocks(6, 2);
    let sums = generate::zipf_pairs(600, 80, 1.1, 0, 31);
    // The planner-chosen join, then the aggregation round over its
    // distributed output.
    let count_by_x0 = AggregateQuery::new(Query::chain(2), vec![0], Agg::Count);
    let agg_rels: Vec<_> = (0..2)
        .map(|i| generate::uniform(2, 600, 50, 3 + i))
        .collect();

    for p in [3, 8] {
        let mut runs = vec![
            traced(format!("hash_join p={p}"), false, || {
                twoway::hash_join(&r, 1, &s, 0, p, 7).report
            }),
            traced(format!("broadcast_join p={p}"), false, || {
                twoway::broadcast_join(&small, 1, &s, 0, p).report
            }),
            traced(format!("cartesian p={p}"), false, || {
                twoway::cartesian(&ur, &us, p, 9).report
            }),
            traced(format!("skew_join p={p}"), true, || {
                twoway::skew_join(&zr, 1, &zs, 0, p, 8).report
            }),
            traced(format!("sort_merge_join p={p}"), false, || {
                twoway::sort_merge_join(&zr, 1, &zs, 0, p, 12).report
            }),
            traced(format!("hypercube p={p}"), false, || {
                multiway::hypercube(&tri, &tri_rels, p, 5).report
            }),
            traced(format!("hypercube_with_shares p={p}"), false, || {
                multiway::hypercube_with_shares(&tri, &tri_rels, &[p, 1, 2], 5).report
            }),
            traced(format!("skewhc p={p}"), true, || {
                skewhc::skewhc(&tri, &hub_rels, p, 7).report
            }),
            traced(format!("gym_ghd p={p}"), true, || {
                gym::gym_ghd(&c6, &r6, &blocks, p, 7).report
            }),
            traced(format!("binary_join_plan p={p}"), false, || {
                plans::binary_join_plan(&chain, &crels, p, 13, None).report
            }),
            traced(format!("semijoin_pair_hl p={p}"), false, || {
                hl::semijoin_pair_hl(&sj_r, &sj_s, &sj_t, p, 7).report
            }),
            traced(format!("hl_triangle uniform p={p}"), false, || {
                hl::hl_triangle(&g, &g, &g, p, 5).report
            }),
            traced(format!("expansion_join p={p}"), false, || {
                subgraph::expansion_join(&tri, &tri_rels, p, 5).report
            }),
            traced(format!("expansion_join order z x y p={p}"), false, || {
                subgraph::expansion_join_with_order(&tri, &tri_rels, p, 5, &[2, 0, 1]).report
            }),
            traced(format!("naive_one_server p={p}"), false, || {
                baselines::naive_one_server(&r, 1, &s, 0, p).report
            }),
            traced(format!("naive_ring p={p}"), false, || {
                baselines::naive_ring(&r, 1, &s, 0, p).report
            }),
            traced(format!("hash_group_sum p={p}"), false, || {
                aggregate::hash_group_sum(&sums, 0, 1, p, 7).report
            }),
            traced(format!("combiner_group_sum p={p}"), false, || {
                aggregate::combiner_group_sum(&sums, 0, 1, p, 7).report
            }),
            traced(format!("tree_group_sum p={p}"), false, || {
                aggregate::tree_group_sum(&sums, 0, 1, p, 2).report
            }),
            traced(format!("run_aggregate p={p}"), false, || {
                pipeline::run_aggregate(&count_by_x0, &agg_rels, p, 7).report
            }),
        ];
        for (name, q, rels, tree) in &trees {
            for optimized in [false, true] {
                runs.push(traced(
                    format!("gym {name} opt={optimized} p={p}"),
                    false,
                    || gym::gym(q, rels, tree, p, 7, optimized).report,
                ));
            }
        }
        let mut hub_run = traced(format!("hl_triangle hub p={p}"), p == 8, || {
            hl::hl_triangle(&hl_r, &hl_s, &hl_t, p, 5).report
        });
        // At p = 8 every S row is heavy, so the light HyperCube has no
        // round and the heavy group's two rounds are the run's.
        hub_run.central = if p == 8 { hub_keys.clone() } else { vec![0] };
        runs.push(hub_run);

        for run in &runs {
            let name = &run.name;
            let rounds = sent_and_received(&run.rec);
            assert!(!rounds.is_empty(), "{name}: no round traced");
            let central = if run.central.is_empty() {
                vec![0; rounds.len()]
            } else {
                run.central.clone()
            };
            assert_eq!(rounds.len(), central.len(), "{name}: traced rounds");
            for (i, (&(sent, received), &unsent)) in rounds.iter().zip(&central).enumerate() {
                assert_eq!(
                    sent + unsent,
                    received,
                    "{name}: round {i} sent vs received"
                );
            }
            if let Some(report) = &run.report {
                let ledger: Vec<u64> = report.rounds.iter().map(|r| r.total_tuples()).collect();
                let traced: Vec<u64> = rounds.iter().map(|&(_, received)| received).collect();
                assert_eq!(traced, ledger, "{name}: traced rounds vs ledger");
            }
        }
    }
}

#[test]
fn sort_traces_match_reports() {
    let mut rng = Rng::seed_from_u64(0x50f7);
    let items: Vec<u64> = (0..20_000).map(|_| rng.gen_range(0..1u64 << 20)).collect();
    assert_trace_matches("psrs", true, || {
        let mut cluster = Cluster::new(16);
        let local = cluster.scatter(items.clone());
        parqp::sort::psrs(&mut cluster, local);
        cluster.report()
    });
    assert_trace_matches("multiround_sort", true, || {
        let mut cluster = Cluster::new(16);
        let local = cluster.scatter(items.clone());
        parqp::sort::multiround_sort(&mut cluster, local, 4);
        cluster.report()
    });
}

#[test]
fn matmul_traces_match_reports() {
    let a = Matrix::random(24, 1);
    let b = Matrix::random(24, 2);
    assert_trace_matches("square_block", true, || square_block(&a, &b, 4, 8).report);
    assert_trace_matches("rect_block", true, || rect_block(&a, &b, 6, 6).report);
}

#[test]
fn fixed_seed_jsonl_is_byte_identical_across_invocations() {
    let export_once = || {
        let q = Query::triangle();
        let g = generate::random_symmetric_graph(60, 400, 3);
        let (rec, _) =
            Recorder::capture(|| multiway::hypercube(&q, &[g.clone(), g.clone(), g], 8, 3));
        export::jsonl(&rec)
    };
    let first = export_once();
    let second = export_once();
    assert!(!first.is_empty());
    assert_eq!(first, second);
}

#[test]
fn metrics_reconcile_with_ledger_and_trace_for_every_experiment() {
    // The metrics registry runs the trace's fold live on the same event
    // stream, so registry == trace holds round for round; against the
    // ledger it holds as the trace does.
    for e in parqp::observe::EXPERIMENTS {
        let (registry, run) =
            parqp::mpc::metrics::capture(|| parqp::observe::run_experiment_full(e.name, 8, 42));
        let run = run.expect("known experiment");
        let name = e.name;
        let rounds = analyze::round_loads(&run.recorder);
        assert_eq!(registry.rounds(), rounds, "{name}: metrics vs trace");
        let exact = !matches!(name, "twoway-skew" | "skewhc-triangle");
        assert_fold_matches(name, exact, registry.rounds(), &run.report);
    }
}

#[test]
fn page_io_metrics_reconcile_with_the_store_ledger_for_every_experiment() {
    // The IO ledger has two views: the store's per-server totals
    // (io_report) and the metrics registry's, fed by the cluster
    // draining deltas at round boundaries. Since every experiment ends
    // with a report() flush, the two must reconcile exactly — a drain
    // dropped or double-counted would show here.
    use parqp::data::paged::{self, IoStats, StoreConfig};
    for e in parqp::observe::EXPERIMENTS {
        let (totals, (registry, run)) = paged::capture(StoreConfig::default(), || {
            parqp::mpc::metrics::capture(|| parqp::observe::run_experiment_full(e.name, 8, 42))
        });
        run.expect("known experiment");
        let mut sum = IoStats::default();
        for t in &totals {
            sum.merge(t);
        }
        let name = e.name;
        assert!(sum.reads > 0, "{name}: paged run charged no reads");
        assert_eq!(registry.io(), sum, "{name}: metrics vs store IO");
    }
}

#[test]
fn mean_load_bounds_are_adhered_to_within_half_of_themselves() {
    // Acceptance criterion: the skew-free experiments whose announced
    // bound is the paper's mean load (hash join's IN/p, HyperCube's
    // Σ N_j/∏ p_i) measure a bound_ratio in [1.0, 1.5] at every
    // metrics point — above 1 because a max can't undercut the mean,
    // below 1.5 because uniform inputs hash nearly flat.
    let report = parqp::metrics::collect(42).expect("collect runs");
    for name in ["twoway-hash", "triangle-hypercube"] {
        for &p in parqp::metrics::METRICS_POINTS {
            let key = format!("{name}/p{p}");
            let pt = report.experiments.get(&key).expect("point collected");
            assert!(
                (1.0..=1.5).contains(&pt.bound_ratio),
                "{key}: bound_ratio {} outside [1.0, 1.5]",
                pt.bound_ratio
            );
        }
    }
    // The skew join is a one-round algorithm and its ledger says so at
    // every p, however many heavy-hitter sub-clusters the trace shows
    // as rounds of their own (see the module docs).
    for &p in parqp::metrics::METRICS_POINTS {
        let key = format!("twoway-skew/p{p}");
        assert_eq!(report.experiments[&key].rounds, 1, "{key}");
    }
    // The same collection is what `parqp metrics --check` gates, so
    // the committed document is current or this fails: regenerate it
    // with `parqp metrics --format json --out BENCH_parqp.json`.
    assert_eq!(
        parqp::metrics::to_json(&report),
        include_str!("../BENCH_parqp.json"),
        "BENCH_parqp.json is stale"
    );
}

#[test]
fn untraced_runs_report_identically_to_traced_runs() {
    // Instrumentation must be observational: same seed, same report,
    // recorder installed or not.
    let r = generate::uniform(2, 800, 100, 5);
    let s = generate::uniform(2, 800, 100, 6);
    let bare = twoway::hash_join(&r, 1, &s, 0, 8, 7).report;
    let (_, traced) = Recorder::capture(|| twoway::hash_join(&r, 1, &s, 0, 8, 7).report);
    assert_eq!(bare, traced);
}
