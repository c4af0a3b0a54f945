//! Named, deterministic trace experiments for the `parqp trace` and
//! `parqp faults` subcommands and the CI smoke tests.
//!
//! Each experiment builds a synthetic input from the seed, runs one of
//! the tutorial's algorithms under an installed [`parqp_mpc::trace::Recorder`]
//! and returns the captured event stream alongside the run's
//! [`LoadReport`] and a digest of its *output* (joined tuples, sorted
//! keys, product matrix). Everything downstream of the
//! `(name, servers, seed)` triple is deterministic — running the same
//! experiment twice yields byte-identical JSONL exports, which the
//! `trace_invariants` integration test asserts — and the output digest
//! is what the fault-tolerance tests compare to prove recovered runs
//! reproduce fault-free results exactly.

use std::hash::Hasher;

use parqp_data::fasthash::FxHasher;
use parqp_data::generate;
use parqp_mpc::trace::Recorder;
use parqp_mpc::LoadReport;
use parqp_query::Query;
use parqp_serve::report::digest_relation;

/// A named experiment: a deterministic algorithm run to trace.
pub struct Experiment {
    /// CLI name (`--experiment <name>`).
    pub name: &'static str,
    /// One-line description shown by `parqp trace` without arguments.
    pub description: &'static str,
    /// The run on `(servers, seed)`: its ledger and output digest.
    pub run: fn(usize, u64) -> (LoadReport, u64),
}

/// Every experiment `parqp trace` knows about.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "triangle-hypercube",
        description: "HyperCube triangle join over a random symmetric graph",
        run: |p, s| {
            let q = Query::triangle();
            let g = generate::random_symmetric_graph(120, 900, s);
            let run = parqp_join::multiway::hypercube(&q, &[g.clone(), g.clone(), g], p, s);
            (run.report.clone(), digest_relation(&run.gathered()))
        },
    },
    Experiment {
        name: "twoway-hash",
        description: "two-way hash join of uniform relations",
        run: |p, s| {
            // Domain ≫ p² keeps hash-partition imbalance low, so the
            // measured bound_ratio stays near 1 even at p = 64 (the
            // metrics invariants pin it to [1.0, 1.5]).
            let r = generate::uniform(2, 16_000, 8000, s);
            let t = generate::uniform(2, 16_000, 8000, s.wrapping_add(1));
            let run = parqp_join::twoway::hash_join(&r, 1, &t, 0, p, s);
            (run.report.clone(), digest_relation(&run.gathered()))
        },
    },
    Experiment {
        name: "twoway-skew",
        description: "skew join of a zipf-skewed relation against a uniform one",
        run: |p, s| {
            let r = generate::zipf_pairs(4000, 1000, 1.2, 0, s);
            let t = generate::uniform(2, 4000, 1000, s.wrapping_add(1));
            let run = parqp_join::twoway::skew_join(&r, 0, &t, 0, p, s);
            (run.report.clone(), digest_relation(&run.gathered()))
        },
    },
    Experiment {
        name: "chain-binary",
        description: "3-atom chain query via the binary join plan (multi-round)",
        run: |p, s| {
            let q = Query::chain(3);
            let rels: Vec<_> = (0..3)
                .map(|i| generate::uniform(2, 800, 120, s.wrapping_add(i)))
                .collect();
            let run = parqp_join::plans::binary_join_plan(&q, &rels, p, s, None);
            (run.report.clone(), digest_relation(&run.gathered()))
        },
    },
    Experiment {
        name: "skewhc-triangle",
        description: "SkewHC triangle join over zipf-skewed edges",
        run: |p, s| {
            let q = Query::triangle();
            let rels: Vec<_> = (0..3)
                .map(|i| generate::zipf_pairs(1500, 400, 1.1, 0, s.wrapping_add(i)))
                .collect();
            let run = parqp_join::skewhc::skewhc(&q, &rels, p, s);
            (run.report.clone(), digest_relation(&run.gathered()))
        },
    },
    Experiment {
        name: "psrs",
        description: "2-round parallel sorting by regular sampling",
        run: |p, s| {
            let keys = sort_input(20_000, s);
            let mut cluster = parqp_mpc::Cluster::new(p);
            let local = cluster.scatter(keys);
            let sorted = parqp_sort::psrs(&mut cluster, local);
            (cluster.report(), digest_keys(&sorted))
        },
    },
    Experiment {
        name: "multiround-sort",
        description: "splitter-tree distribution sort, fan-out 4",
        run: |p, s| {
            let keys = sort_input(20_000, s);
            let mut cluster = parqp_mpc::Cluster::new(p);
            let local = cluster.scatter(keys);
            let sorted = parqp_sort::multiround_sort(&mut cluster, local, 4);
            (cluster.report(), digest_keys(&sorted))
        },
    },
    Experiment {
        name: "matmul-square",
        description: "multi-round square-block matrix multiplication",
        run: |p, s| {
            // n = 144 (36×36 blocks at H = 4) makes the block products
            // compute-bound — Θ(n³) multiplies against Θ(n²·H) words on
            // the wire — so this is the experiment where the parallel
            // execution backend's speedup is measured.
            let a = parqp_matmul::Matrix::random(144, s);
            let b = parqp_matmul::Matrix::random(144, s.wrapping_add(1));
            let run = parqp_matmul::square_block(&a, &b, 4, p);
            (run.report.clone(), digest_matrix(&run.c))
        },
    },
    Experiment {
        name: "bigjoin",
        description: "large two-way hash join (IN = 320k) sized for out-of-core paging",
        run: |p, s| {
            // 10× twoway-hash's input (IN = 320k tuples): under a
            // default-size pool the partition scans cycle far more
            // pages than fit resident, so this is the experiment where
            // bounded-pool evictions are exercised at realistic scale.
            let r = generate::uniform(2, 160_000, 80_000, s);
            let t = generate::uniform(2, 160_000, 80_000, s.wrapping_add(1));
            let run = parqp_join::twoway::hash_join(&r, 1, &t, 0, p, s);
            (run.report.clone(), digest_relation(&run.gathered()))
        },
    },
];

/// One completed experiment run: its trace, its ledger, and a digest
/// of its output.
pub struct ExperimentRun {
    /// The captured event stream.
    pub recorder: Recorder,
    /// The run's `(L, r, C)` ledger.
    pub report: LoadReport,
    /// Order-independent-where-appropriate digest of the run's output
    /// (canonicalized join results, sorted keys, product matrix).
    /// Equal digests on the same experiment mean byte-identical output.
    pub digest: u64,
}

/// Run the named experiment on `servers` simulated servers, capturing
/// its trace, report, and output digest. Returns `Err` for unknown
/// names (with the known ones listed).
pub fn run_experiment_full(name: &str, servers: usize, seed: u64) -> Result<ExperimentRun, String> {
    assert!(servers >= 1, "need at least one server");
    let Some(e) = EXPERIMENTS.iter().find(|e| e.name == name) else {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        return Err(format!(
            "unknown experiment {name:?}; known: {}",
            known.join(", ")
        ));
    };
    let (recorder, (report, digest)) = Recorder::capture(|| (e.run)(servers, seed));
    Ok(ExperimentRun {
        recorder,
        report,
        digest,
    })
}

/// Digest of per-server sorted key runs, boundaries included (the
/// partition *and* the order are part of a sort's contract).
fn digest_keys(runs: &[Vec<u64>]) -> u64 {
    let mut h = FxHasher::default();
    for run in runs {
        h.write_u64(run.len() as u64);
        for &k in run {
            h.write_u64(k);
        }
    }
    h.finish()
}

/// Digest of a dense matrix, exact to the bit.
fn digest_matrix(m: &parqp_matmul::Matrix) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(m.n() as u64);
    for i in 0..m.n() {
        for &v in m.row(i) {
            h.write_u64(v.to_bits());
        }
    }
    h.finish()
}

/// Deterministic sort input: `n` keys drawn through the data
/// generator's seeded hashing (no global RNG involved).
fn sort_input(n: usize, seed: u64) -> Vec<u64> {
    generate::uniform(1, n, 1 << 32, seed).into_raw()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parqp_mpc::trace::analyze;

    #[test]
    fn every_listed_experiment_runs_and_traces() {
        for e in EXPERIMENTS {
            let run = run_experiment_full(e.name, 8, 7).expect("known experiment");
            let totals = analyze::totals(&run.recorder);
            assert!(totals.rounds >= 1, "{}: no rounds traced", e.name);
            assert!(totals.tuples > 0, "{}: no tuples traced", e.name);
            assert_eq!(
                totals.tuples,
                run.report.total_tuples(),
                "{}: trace/ledger mismatch",
                e.name
            );
            assert_ne!(run.digest, 0, "{}: trivially empty digest", e.name);
        }
    }

    #[test]
    fn unknown_experiment_lists_known_names() {
        let err = run_experiment_full("nope", 4, 1)
            .err()
            .expect("unknown name");
        assert!(err.contains("triangle-hypercube"));
    }

    #[test]
    fn same_seed_same_trace() {
        let a = run_experiment_full("twoway-hash", 8, 3).expect("runs");
        let b = run_experiment_full("twoway-hash", 8, 3).expect("runs");
        assert_eq!(
            a.recorder.events().collect::<Vec<_>>(),
            b.recorder.events().collect::<Vec<_>>()
        );
    }

    #[test]
    fn digests_are_seed_sensitive() {
        let a = run_experiment_full("twoway-hash", 8, 3).expect("runs");
        let b = run_experiment_full("twoway-hash", 8, 3).expect("runs");
        let c = run_experiment_full("twoway-hash", 8, 4).expect("runs");
        assert_eq!(a.digest, b.digest, "same seed, same output");
        assert_ne!(a.digest, c.digest, "different seed, different output");
    }
}
