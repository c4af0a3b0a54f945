//! Serial-vs-parallel differential suite: the tentpole proof that
//! `ExecMode::Parallel` is *observationally invisible*.
//!
//! Every observe experiment is run at p ∈ {8, 27, 64} in serial mode
//! and under worker pools of 1, 2, 4 and NCPU threads, with a trace
//! recorder and a metrics registry installed simultaneously — and the
//! output digest, the `LoadReport` ledger (every `RoundStats`), the
//! exported trace JSONL, and a canonical snapshot of the metrics
//! registry must all be byte-identical to the serial run. A second
//! matrix repeats the comparison under seeded fault plans with both
//! recovery strategies, so recovery replays parallelize identically
//! too. GYM (both modes and generalized) and the binary plan, which no
//! observe experiment runs, get the same comparison fragment by
//! fragment.
//!
//! Also here: the pool-stress satellites — submit-order merging under
//! adversarial completion order, panic-in-worker surfacing as a typed
//! [`MpcError::WorkerPanic`] instead of a hang, and pool reuse across
//! repeated runs and `Cluster::reset`.

use std::rc::Rc;

use parqp::data::{generate, Relation};
use parqp::faults::{capture as fault_capture, FaultLog, FaultPlan, FaultSpec, RecoveryStrategy};
use parqp::join::gym::{gym, gym_ghd};
use parqp::join::plans::binary_join_plan;
use parqp::join::JoinRun;
use parqp::mpc::exec;
use parqp::mpc::trace::Recorder;
use parqp::mpc::{Cluster, ExecMode, LoadReport, MpcError, RoundStats};
use parqp::query::{Ghd, Query};
use parqp::trace::export;
use parqp_testkit::pool::{ncpu, WorkerPool};

/// The full cluster-size axis of the acceptance criterion.
const SIZES: &[usize] = &[8, 27, 64];

/// Worker counts to differentiate against serial: degenerate (1),
/// small (2, 4), and whatever this machine actually has.
fn worker_counts() -> Vec<usize> {
    let mut w = vec![1, 2, 4, ncpu()];
    w.sort_unstable();
    w.dedup();
    w
}

/// Everything observable about one experiment run.
struct Observed {
    digest: u64,
    /// A join run's fragments, server by server (empty for an
    /// experiment, which digests its output instead).
    outputs: Vec<Relation>,
    report: LoadReport,
    jsonl: String,
    /// The registry's `Debug` rendering: its rounds, IO and bounds.
    registry: String,
}

/// Run `name` at `p` under `mode` with trace + metrics installed.
fn observe(name: &str, p: usize, seed: u64, mode: ExecMode) -> Observed {
    exec::with_mode(mode, || {
        let (registry, run) =
            parqp::mpc::metrics::capture(|| parqp::observe::run_experiment_full(name, p, seed));
        let run = run.expect("known experiment");
        Observed {
            digest: run.digest,
            outputs: Vec::new(),
            report: run.report,
            jsonl: export::jsonl(&run.recorder),
            registry: format!("{registry:?}"),
        }
    })
}

fn assert_identical(label: &str, serial: &Observed, parallel: &Observed) {
    assert_eq!(serial.digest, parallel.digest, "{label}: output digest");
    assert_eq!(
        serial.outputs, parallel.outputs,
        "{label}: output fragments"
    );
    assert_eq!(
        serial.report, parallel.report,
        "{label}: ledger (RoundStats sequence)"
    );
    assert_eq!(serial.jsonl, parallel.jsonl, "{label}: trace JSONL");
    assert_eq!(
        serial.registry, parallel.registry,
        "{label}: metrics registry"
    );
}

#[test]
fn every_experiment_is_byte_identical_across_worker_counts() {
    for e in parqp::observe::EXPERIMENTS {
        for &p in SIZES {
            let serial = observe(e.name, p, 42, ExecMode::Serial);
            assert!(!serial.jsonl.is_empty(), "{}/p{p}: empty trace", e.name);
            for w in worker_counts() {
                let parallel = observe(e.name, p, 42, ExecMode::Parallel { workers: w });
                let label = format!("{}/p{p} workers={w}", e.name);
                assert_identical(&label, &serial, &parallel);
            }
        }
    }
}

/// A join run on `p` servers.
type JoinOn = fn(usize) -> JoinRun;

/// The multi-round joins that are not observe experiments, on `p`
/// servers: GYM in both modes over a star (the optimized upward level's
/// intersection round) and a path, generalized GYM, and a binary plan.
fn multi_round_joins() -> [(&'static str, JoinOn); 6] {
    fn rels(seed: u64) -> Vec<Relation> {
        (0..4)
            .map(|i| generate::uniform(2, 300, 40, seed + i))
            .collect()
    }
    fn star(p: usize, optimized: bool) -> JoinRun {
        let q = Query::star(4);
        gym(&q, &rels(10), &Ghd::star_flat(&q), p, 42, optimized)
    }
    fn chain(p: usize, optimized: bool) -> JoinRun {
        let q = Query::chain(4);
        let tree = Ghd::join_tree(&q).expect("chains are acyclic");
        gym(&q, &rels(20), &tree, p, 42, optimized)
    }
    [
        ("gym vanilla, star-4", |p| star(p, false)),
        ("gym optimized, star-4", |p| star(p, true)),
        ("gym vanilla, chain-4", |p| chain(p, false)),
        ("gym optimized, chain-4", |p| chain(p, true)),
        ("gym_ghd, chain-4 in blocks of 2", |p| {
            gym_ghd(&Query::chain(4), &rels(20), &Ghd::chain_blocks(4, 2), p, 42)
        }),
        ("binary plan, chain-4", |p| {
            binary_join_plan(&Query::chain(4), &rels(20), p, 42, None)
        }),
    ]
}

#[test]
fn gym_and_the_binary_plan_are_byte_identical_across_worker_counts() {
    let observe = |run: JoinOn, p, mode| {
        exec::with_mode(mode, || {
            let (registry, (recorder, run)) =
                parqp::mpc::metrics::capture(|| Recorder::capture(|| run(p)));
            Observed {
                digest: 0,
                outputs: run.outputs,
                report: run.report,
                jsonl: export::jsonl(&recorder),
                registry: format!("{registry:?}"),
            }
        })
    };
    for (name, run) in multi_round_joins() {
        for &p in SIZES {
            let serial = observe(run, p, ExecMode::Serial);
            assert!(!serial.jsonl.is_empty(), "{name}/p{p}: empty trace");
            for w in worker_counts() {
                let parallel = observe(run, p, ExecMode::Parallel { workers: w });
                assert_identical(&format!("{name}/p{p} workers={w}"), &serial, &parallel);
            }
        }
    }
}

#[test]
fn fault_recovery_is_byte_identical_in_parallel_mode() {
    let spec = FaultSpec {
        crashes: 1,
        drops: 1,
        duplicates: 1,
        stragglers: 1,
        max_batch: 8,
    };
    let strategies = [
        RecoveryStrategy::Checkpoint { every: 2 },
        RecoveryStrategy::Replication { replicas: 2 },
    ];
    let mut fired_total = 0usize;
    for e in parqp::observe::EXPERIMENTS {
        for &p in SIZES {
            for strategy in strategies {
                let plan = FaultPlan::random(42, p, 6, &spec);
                let run = |mode: ExecMode| -> (FaultLog, Observed) {
                    exec::with_mode(mode, || {
                        let (registry, (log, run)) = parqp::mpc::metrics::capture(|| {
                            fault_capture(plan.clone(), strategy, || {
                                parqp::observe::run_experiment_full(e.name, p, 42)
                            })
                        });
                        let run = run.expect("known experiment");
                        (
                            log,
                            Observed {
                                digest: run.digest,
                                outputs: Vec::new(),
                                report: run.report,
                                jsonl: export::jsonl(&run.recorder),
                                registry: format!("{registry:?}"),
                            },
                        )
                    })
                };
                let (serial_log, serial) = run(ExecMode::Serial);
                let (parallel_log, parallel) = run(ExecMode::Parallel { workers: 0 });
                let label = format!("{}/p{p} {strategy:?}", e.name);
                assert_eq!(serial_log, parallel_log, "{label}: fault log");
                assert_identical(&label, &serial, &parallel);
                fired_total += serial_log.injected.len();
            }
        }
    }
    assert!(
        fired_total > 0,
        "the fault matrix never fired a fault — the differential is vacuous"
    );
}

#[test]
fn parallel_metrics_reconcile_with_ledger_and_trace_under_faults() {
    // Satellite: trace recorder + fault clock + metrics registry
    // installed *together* under parallel mode must reconcile exactly
    // as tests/trace_invariants.rs pins for serial runs.
    let _exec = exec::install(ExecMode::Parallel { workers: 0 }).expect("pool spawns");
    let spec = FaultSpec {
        crashes: 1,
        drops: 1,
        duplicates: 1,
        stragglers: 1,
        max_batch: 8,
    };
    for e in parqp::observe::EXPERIMENTS {
        let plan = FaultPlan::random(7, 8, 4, &spec);
        let (registry, (_log, run)) = parqp::mpc::metrics::capture(|| {
            fault_capture(plan, RecoveryStrategy::Checkpoint { every: 2 }, || {
                parqp::observe::run_experiment_full(e.name, 8, 42)
            })
        });
        let run = run.expect("known experiment");
        let name = e.name;
        assert_eq!(
            registry.rounds(),
            parqp::trace::analyze::round_loads(&run.recorder),
            "{name}: metrics vs trace"
        );
        // The run composes sub-cluster reports, so against the ledger
        // only C and L are exact (tests/trace_invariants.rs).
        let folded = registry.rounds();
        let r = &run.report;
        assert_eq!(
            [
                folded.iter().map(RoundStats::total_tuples).sum(),
                folded.iter().map(RoundStats::total_words).sum(),
                folded.iter().map(RoundStats::max_tuples).max().unwrap_or(0),
                folded.iter().map(RoundStats::max_words).max().unwrap_or(0),
            ],
            [
                r.total_tuples(),
                r.total_words(),
                r.max_load_tuples(),
                r.max_load_words(),
            ],
            "{name}: C and L"
        );
    }
}

// ------------------------------------------------------- worker purity

/// What a run with every instrument installed left behind.
#[derive(Debug, PartialEq)]
struct Residue {
    out: Vec<(u64, ExecMode)>,
    jsonl: String,
    registry: String,
    io: Vec<parqp::data::paged::IoStats>,
}

/// One round, one local-compute phase, one more round — under a
/// recorder, a metrics registry and a 2-page store — with `f` as the
/// phase's per-server closure.
fn residue(mode: ExecMode, f: fn(usize, u64) -> (u64, ExecMode)) -> Residue {
    use parqp::data::paged::{self, StoreConfig};
    let cfg = StoreConfig {
        page_size: 4,
        pool_pages: 2,
    };
    exec::with_mode(mode, || {
        let (registry, (recorder, (out, io))) = parqp::mpc::metrics::capture(|| {
            parqp::trace::Recorder::capture(|| {
                let _store = paged::install(cfg);
                let mut cluster = Cluster::new(4);
                let shuffle = |cluster: &mut Cluster, items: Vec<u64>| {
                    let mut ex = cluster.exchange::<u64>();
                    let mut io = paged::IoCursor::new(0);
                    for v in items {
                        io.read(1); // the calling thread's scan is charged
                        ex.send((v % 4) as usize, v);
                    }
                    ex.finish()
                };
                let inboxes = shuffle(&mut cluster, (0..40).collect());
                let sums = inboxes.into_iter().map(|b| b.iter().sum()).collect();
                let out = cluster.map(sums, f);
                shuffle(&mut cluster, out.iter().map(|(v, _)| *v).collect());
                let _ = cluster.report();
                (out, paged::io_report())
            })
        });
        Residue {
            out,
            jsonl: export::jsonl(&recorder),
            registry: format!("{registry:?}"),
            io,
        }
    })
}

#[test]
fn worker_closures_see_no_instrument_in_either_mode() {
    use parqp::mpc::metrics::{announce, PaperBound};
    // Everything a worker could try to leave a mark with.
    fn noisy(s: usize, v: u64) -> (u64, ExecMode) {
        let _span = parqp::trace::span("worker/phase");
        announce(&PaperBound::tuples("worker", 1.0, 1));
        let mut io = parqp::data::paged::IoCursor::new(s);
        io.read(9);
        (v + 1, exec::current())
    }
    fn quiet(_: usize, v: u64) -> (u64, ExecMode) {
        (v + 1, ExecMode::Serial)
    }
    let baseline = residue(ExecMode::Serial, quiet);
    assert!(baseline.jsonl.lines().count() > 4, "the rounds are traced");
    assert_eq!(baseline.io[0].reads, 44, "the caller's scans are charged");
    assert_eq!(baseline, residue(ExecMode::Serial, noisy), "serial");
    let parallel = ExecMode::Parallel { workers: 2 };
    assert_eq!(baseline, residue(parallel, noisy), "parallel");
    assert_eq!(baseline, residue(parallel, quiet), "parallel, quiet");
}

// ------------------------------------------------------------------ pool

#[test]
fn map_merges_in_server_order_under_adversarial_completion_order() {
    exec::with_mode(ExecMode::Parallel { workers: 4 }, || {
        let cluster = Cluster::new(16);
        // Low-ranked servers get the heaviest work, so completion order
        // inverts submit order; the merged output must not care.
        let out = cluster.map((0..16u64).collect(), |s, v| {
            let mut acc = 0u64;
            for i in 0..(16 - s as u64) * 50_000 {
                acc = acc.wrapping_add(i);
            }
            std::hint::black_box(acc);
            (s, v)
        });
        let expect: Vec<(usize, u64)> = (0..16u64).map(|i| (i as usize, i)).collect();
        assert_eq!(out, expect);
    });
}

#[test]
fn worker_panic_is_a_typed_mpc_error_not_a_hang() {
    let dying_map = |cluster: &Cluster| {
        cluster.try_map((0..8u64).collect(), |s, v| {
            assert!(s != 5, "server five rejects tuple {v}");
            v * 2
        })
    };
    for mode in [ExecMode::Serial, ExecMode::Parallel { workers: 3 }] {
        exec::with_mode(mode, || {
            let cluster = Cluster::new(8);
            match dying_map(&cluster) {
                Err(MpcError::WorkerPanic { server, message }) => {
                    assert_eq!(server, 5, "{mode:?}");
                    assert!(
                        message.contains("server five rejects tuple 5"),
                        "{mode:?}: message {message:?}"
                    );
                }
                other => panic!("{mode:?}: expected WorkerPanic, got {other:?}"),
            }
            // The pool survives the panicking batch: the same cluster
            // keeps computing.
            let ok = cluster.map(vec![1u64, 2, 3], |_, v| v + 1);
            assert_eq!(ok, vec![2, 3, 4]);
        });
    }
}

#[test]
fn pool_is_reused_across_runs_and_cluster_reset() {
    let pool = Rc::new(WorkerPool::new(3));
    let _guard = exec::install_pool(pool.clone());

    // Repeated experiment runs share the one pool and stay identical.
    let digests: Vec<u64> = (0..3)
        .map(|_| {
            parqp::observe::run_experiment_full("psrs", 8, 42)
                .expect("known experiment")
                .digest
        })
        .collect();
    assert_eq!(digests[0], digests[1]);
    assert_eq!(digests[1], digests[2]);

    // Regression: a Cluster::reset between runs must not detach or
    // wedge the snapshotted pool.
    let mut cluster = Cluster::new(4);
    assert_eq!(cluster.exec_mode(), ExecMode::Parallel { workers: 3 });
    let input: Vec<u64> = (0..4000).rev().collect();
    let local = cluster.scatter(input.clone());
    let first = parqp::sort::psrs(&mut cluster, local);
    let first_report = cluster.report();
    cluster.reset();
    let local = cluster.scatter(input);
    let second = parqp::sort::psrs(&mut cluster, local);
    assert_eq!(first, second, "replay after reset diverged");
    assert_eq!(
        first_report,
        cluster.report(),
        "ledger after reset diverged"
    );
    // The guard and the cluster both still hold the original pool.
    assert!(Rc::strong_count(&pool) >= 2, "pool was dropped mid-session");
}
