//! The benchmark's vocabulary: workloads, end-to-end metrics and
//! per-layer metrics, each with the reason it exists. `BENCHMARK.json`
//! is generated from these tables (`perf manifest`), and every number
//! the benchmark prints is looked up here for its unit.

use crate::json::Value;

/// One named workload. The full parameters live in `workloads.rs`
/// beside the code that uses them.
#[derive(Debug)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line: why the benchmark needs this workload.
    pub why: &'static str,
    /// What `throughput_per_s` counts on this workload.
    pub items: &'static str,
    /// Untimed operations at the end of set-up. Three, except where one
    /// operation is so long that three would spend a fifth of the run.
    pub warmups: usize,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "join_uniform",
        why: "bare hash_join at IN=80k, p=64: scan, route, exchange and local probe with nothing else on the clock",
        items: "input tuples",
        warmups: 3,
    },
    WorkloadSpec {
        name: "join_observed",
        why: "the same join under a 2-page store, metrics and trace: the instrumentation bill that join_uniform never pays",
        items: "input tuples",
        warmups: 3,
    },
    WorkloadSpec {
        name: "triangle_planned",
        why: "triangle through parse, plan and run_plan: LP shares and HyperCube replication, exchange used to replicate not partition",
        items: "input tuples",
        warmups: 3,
    },
    WorkloadSpec {
        name: "chain_gym_planned",
        why: "3-atom chain through the front door: the only multi-round workload (GYM, 6 rounds), planning a third of the operation",
        items: "input tuples",
        warmups: 1,
    },
    WorkloadSpec {
        name: "sort_psrs",
        why: "PSRS over 1M keys: one-word messages, so per-message exchange cost dominates where joins pay per-row payload",
        items: "keys",
        warmups: 3,
    },
    WorkloadSpec {
        name: "matmul_parallel",
        why: "compute-bound square_block under ExecMode::Parallel: the only workload that crosses the worker pool",
        items: "matrix entries (2n^2)",
        warmups: 3,
    },
    WorkloadSpec {
        name: "serve_steady",
        why: "closed-loop replay that fits the plan cache (hit rate 0.98): the cache's read side, one client on the tick clock",
        items: "served queries",
        warmups: 1,
    },
    WorkloadSpec {
        name: "serve_churn",
        why: "the same replay over more templates than the cache holds (hit rate 0.55): miss, build, insert, evict",
        items: "served queries",
        warmups: 1,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How the passes of one run fold into the run's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// The best pass: host noise only ever makes a pass worse.
    Best,
    /// The worst pass (memory: the high-water mark).
    Worst,
    /// Every pass must report the same value (counts).
    Same,
}

/// A metric a user of the system would see.
#[derive(Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `BENCHMARK.json`'s bound: how far the median over the driver's
    /// seeds may worsen before a change counts as a regression.
    pub bound: f64,
    /// How far two runs of one build on one seed may differ (`perf aa`);
    /// 0 for counts, which must repeat exactly.
    pub same_seed: f64,
    pub fold: Fold,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    same_seed: f64,
    fold: Fold,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        same_seed,
        fold,
    }
}

/// The same seven on every workload. `ops_attempted` and `ops_failed`
/// travel beside them as the result line's `attempted` and `failed`.
///
/// Two bounds each. `same_seed` is ISSUE 11's: on one seed the counts
/// repeat exactly and time and memory within a tenth, and `perf aa`
/// holds a build to that. `bound` is what the driver gates on, and the
/// driver first requires it to exceed the spread of ten runs on ten
/// *different* seeds. There the counts move with the input — a serve
/// replay's heaviest load by 13 % between quartiles, 23 % on an unlucky
/// ten — and the timings with the host (README, "Noise"), so `bound` is
/// as tight as that rule and the noisiest workload leave it.
pub const END_TO_END: &[EndToEnd] = &[
    end_to_end("setup_s", "s", Better::Lower, 0.25, 0.20, Fold::Best),
    end_to_end("op_ms_min", "ms", Better::Lower, 0.25, 0.10, Fold::Best),
    end_to_end(
        "throughput_per_s",
        "items/s",
        Better::Higher,
        0.25,
        0.10,
        Fold::Best,
    ),
    end_to_end(
        "load_max_words",
        "words",
        Better::Lower,
        0.25,
        0.0,
        Fold::Same,
    ),
    end_to_end("rounds", "count", Better::Lower, 0.10, 0.0, Fold::Same),
    end_to_end("comm_words", "words", Better::Lower, 0.20, 0.0, Fold::Same),
    end_to_end("peak_rss_mb", "MiB", Better::Lower, 0.15, 0.10, Fold::Worst),
];

// Workload sets for the `on` column.
const JOINS: &[&str] = &["join_uniform", "join_observed"];
const OBSERVED: &[&str] = &["join_observed"];
const PIPELINES: &[&str] = &["join_uniform", "join_observed", "triangle_planned"];
const TRIANGLE: &[&str] = &["triangle_planned"];
const CHAIN: &[&str] = &["chain_gym_planned"];
const PLANNED: &[&str] = &["triangle_planned", "chain_gym_planned"];
const RELATIONAL: &[&str] = &[
    "join_uniform",
    "join_observed",
    "triangle_planned",
    "chain_gym_planned",
];
const SORT: &[&str] = &["sort_psrs"];
const MATMUL: &[&str] = &["matmul_parallel"];
const SERVE: &[&str] = &["serve_steady", "serve_churn"];
const STORE: &[&str] = &["join_observed", "serve_steady", "serve_churn"];
const BATCH: &[&str] = &[
    "join_uniform",
    "join_observed",
    "triangle_planned",
    "chain_gym_planned",
    "sort_psrs",
    "matmul_parallel",
];
const ALL: &[&str] = &[
    "join_uniform",
    "join_observed",
    "triangle_planned",
    "chain_gym_planned",
    "sort_psrs",
    "matmul_parallel",
    "serve_steady",
    "serve_churn",
];

/// A metric of one layer (crate), measured in traced mode.
#[derive(Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric this one should move.
    pub moves: &'static str,
    /// The workloads it is measured on; elsewhere it reads 0.
    pub on: &'static [&'static str],
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static [&'static str],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

use Better::{Higher, Lower};

/// `_ms`/`_us`/`_ns` metrics are the fastest self time per operation;
/// counts and ratios are exact. The prefix is the crate.
pub const PER_LAYER: &[PerLayer] = &[
    // data
    layer("data.route_scan_ms", "ms", Lower, "op_ms_min", JOINS),
    layer("data.canonical_ms", "ms", Lower, "setup_s", RELATIONAL),
    // store
    layer("store.overhead_ms", "ms", Lower, "op_ms_min", OBSERVED),
    layer("store.io_reads", "count", Lower, "op_ms_min", STORE),
    layer("store.io_misses", "count", Lower, "op_ms_min", STORE),
    layer("store.io_evictions", "count", Lower, "op_ms_min", STORE),
    layer("store.io_hit_rate", "ratio", Higher, "op_ms_min", STORE),
    // mpc
    layer("mpc.hash_ms", "ms", Lower, "op_ms_min", JOINS),
    layer("mpc.exchange_send_ms", "ms", Lower, "op_ms_min", PIPELINES),
    layer(
        "mpc.exchange_finish_ms",
        "ms",
        Lower,
        "op_ms_min",
        PIPELINES,
    ),
    layer("mpc.map_ms", "ms", Lower, "op_ms_min", PIPELINES),
    layer("mpc.map_dispatch_us", "us", Lower, "op_ms_min", MATMUL),
    layer("mpc.exchange_word_msg_ns", "ns", Lower, "op_ms_min", SORT),
    layer("mpc.replication", "ratio", Lower, "comm_words", BATCH),
    layer("mpc.load_skew", "ratio", Lower, "load_max_words", BATCH),
    layer("mpc.parallel_speedup", "ratio", Higher, "op_ms_min", MATMUL),
    layer("mpc.msgs", "count", Lower, "comm_words", BATCH),
    // join
    layer("join.scatter_ms", "ms", Lower, "op_ms_min", PIPELINES),
    layer("join.route_ms", "ms", Lower, "op_ms_min", JOINS),
    layer("join.local_hash_join_ms", "ms", Lower, "op_ms_min", JOINS),
    layer("join.gather_ms", "ms", Lower, "op_ms_min", PIPELINES),
    layer(
        "join.route_allocs",
        "count",
        Lower,
        "peak_rss_mb",
        PIPELINES,
    ),
    layer(
        "join.local_hash_join_allocs",
        "count",
        Lower,
        "peak_rss_mb",
        JOINS,
    ),
    layer(
        "join.out_rows",
        "count",
        Higher,
        "throughput_per_s",
        RELATIONAL,
    ),
    layer(
        "join.hypercube_route_ms",
        "ms",
        Lower,
        "op_ms_min",
        TRIANGLE,
    ),
    layer("join.gym_ms", "ms", Lower, "op_ms_min", CHAIN),
    layer(
        "join.gym_max_round_share",
        "ratio",
        Lower,
        "load_max_words",
        CHAIN,
    ),
    // lp
    layer("lp.plan_shares_ms", "ms", Lower, "op_ms_min", TRIANGLE),
    // query
    layer("query.parse_ms", "ms", Lower, "op_ms_min", PLANNED),
    layer("query.evaluate_ms", "ms", Lower, "op_ms_min", TRIANGLE),
    layer("query.join_tree_ms", "ms", Lower, "op_ms_min", PLANNED),
    // core
    layer("core.plan_ms", "ms", Lower, "op_ms_min", PLANNED),
    layer("core.run_plan_ms", "ms", Lower, "op_ms_min", PLANNED),
    layer("core.plan_share", "ratio", Lower, "op_ms_min", PLANNED),
    layer(
        "core.run_plan_overhead_ms",
        "ms",
        Lower,
        "op_ms_min",
        PLANNED,
    ),
    layer(
        "core.observed_overhead_ms",
        "ms",
        Lower,
        "op_ms_min",
        OBSERVED,
    ),
    // trace / metrics / faults
    layer("trace.overhead_ms", "ms", Lower, "op_ms_min", OBSERVED),
    layer("trace.events", "count", Lower, "op_ms_min", OBSERVED),
    layer("trace.dropped", "count", Lower, "op_ms_min", OBSERVED),
    layer("metrics.overhead_ms", "ms", Lower, "op_ms_min", OBSERVED),
    layer(
        "metrics.bound_ratio",
        "ratio",
        Lower,
        "load_max_words",
        OBSERVED,
    ),
    layer("faults.overhead_ms", "ms", Lower, "op_ms_min", OBSERVED),
    // sort
    layer("sort.psrs_ms", "ms", Lower, "op_ms_min", SORT),
    layer(
        "sort.partition_imbalance",
        "ratio",
        Lower,
        "load_max_words",
        SORT,
    ),
    layer("sort.allocs", "count", Lower, "peak_rss_mb", SORT),
    // matmul / testkit
    layer(
        "matmul.square_block_serial_ms",
        "ms",
        Lower,
        "op_ms_min",
        MATMUL,
    ),
    layer(
        "matmul.mflops",
        "Mflop/s",
        Higher,
        "throughput_per_s",
        MATMUL,
    ),
    layer("testkit.pool_dispatch_us", "us", Lower, "op_ms_min", MATMUL),
    // serve / obs
    layer("serve.schedule_ms", "ms", Lower, "throughput_per_s", SERVE),
    layer("serve.datagen_ms", "ms", Lower, "throughput_per_s", SERVE),
    layer(
        "serve.replay_net_ms",
        "ms",
        Lower,
        "throughput_per_s",
        SERVE,
    ),
    layer("serve.us_per_query", "us", Lower, "throughput_per_s", SERVE),
    layer(
        "serve.cache_hit_rate",
        "ratio",
        Higher,
        "throughput_per_s",
        SERVE,
    ),
    layer(
        "serve.cache_insertions",
        "count",
        Lower,
        "throughput_per_s",
        SERVE,
    ),
    layer(
        "serve.cache_evictions",
        "count",
        Lower,
        "throughput_per_s",
        SERVE,
    ),
    layer(
        "serve.reads_saved",
        "count",
        Higher,
        "throughput_per_s",
        SERVE,
    ),
    layer("serve.words_saved", "words", Higher, "comm_words", SERVE),
    layer("serve.l_p99", "tuples", Lower, "load_max_words", SERVE),
    layer("obs.overhead_ms", "ms", Lower, "throughput_per_s", SERVE),
    layer("obs.windows", "count", Higher, "throughput_per_s", SERVE),
    // driver: the benchmark's own diagnostics
    layer("driver.op_ms_p50", "ms", Lower, "op_ms_min", ALL),
    layer("driver.op_ms_hi", "ms", Lower, "op_ms_min", ALL),
    layer("driver.op_hi_pct", "%", Higher, "op_ms_min", ALL),
    layer("driver.noise_ratio", "ratio", Lower, "op_ms_min", ALL),
    layer("driver.allocs_per_op", "count", Lower, "peak_rss_mb", ALL),
    layer("driver.alloc_mb_per_op", "MiB", Lower, "peak_rss_mb", ALL),
    layer("driver.timer_ns", "ns", Lower, "op_ms_min", ALL),
    layer(
        "driver.trace_overhead_share",
        "ratio",
        Lower,
        "op_ms_min",
        PIPELINES,
    ),
    layer(
        "driver.span_coverage",
        "ratio",
        Higher,
        "op_ms_min",
        PIPELINES,
    ),
    layer("driver.ncpu", "count", Higher, "op_ms_min", ALL),
];

/// How long one driver run measures, in seconds.
pub const RUN_SECONDS: u64 = 12;

/// The directory this benchmark lives in, relative to the repository
/// root; also `BENCHMARK.json`'s only path.
pub const BENCH_DIR: &str = "crates/bench/src/bin/perf";

/// `BENCHMARK.json`, generated so it cannot drift from the tables.
pub fn manifest() -> Value {
    let manifest_path = format!("{BENCH_DIR}/Cargo.toml");
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        manifest_path.as_str(),
        "--",
    ];
    Value::obj([
        (
            "command",
            Value::Arr(command.into_iter().map(Value::str).collect()),
        ),
        ("paths", Value::Arr(vec![Value::str(BENCH_DIR)])),
        ("run_seconds", Value::from(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                            ("bound", Value::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::collections::BTreeSet;

    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        (1..=16).contains(&s.len())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(is_name(name), "{name:?} is not a valid name");
            assert!(seen.insert(name), "{name:?} is used twice");
        }
        assert_eq!(WORKLOADS.len(), 8);
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why too long",
                w.name
            );
            assert!((1..=3).contains(&w.warmups));
        }
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(is_unit(unit), "{name}: unit {unit:?}");
        }
    }

    #[test]
    fn end_to_end_bounds_follow_the_contract() {
        for m in END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{}: bound {}",
                m.name,
                m.bound
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "set-up time gets the largest bound");
        // On one seed: counts exact, everything else tighter than the
        // driver's bound.
        for m in END_TO_END {
            assert_eq!(m.fold == Fold::Same, m.same_seed == 0.0, "{}", m.name);
            assert!(m.same_seed <= m.bound, "{}", m.name);
        }
    }

    #[test]
    fn every_layer_metric_names_what_it_should_move_and_where() {
        let layers = [
            "data", "store", "mpc", "join", "lp", "query", "core", "trace", "metrics", "faults",
            "sort", "matmul", "testkit", "serve", "obs", "driver",
        ];
        for m in PER_LAYER {
            assert!(
                END_TO_END.iter().any(|e| e.name == m.moves),
                "{}: moves unknown metric {}",
                m.name,
                m.moves
            );
            assert!(!m.on.is_empty(), "{}: measured nowhere", m.name);
            for w in m.on {
                assert!(workload(w).is_some(), "{}: unknown workload {w}", m.name);
            }
            let layer = m.name.split('.').next().unwrap_or("");
            assert!(layers.contains(&layer), "{}: no such layer", m.name);
        }
        // Every workload is some layer's business beyond the driver's own.
        for w in WORKLOADS {
            assert!(
                PER_LAYER
                    .iter()
                    .any(|m| !m.name.starts_with("driver.") && m.on.contains(&w.name)),
                "{}: no layer metric",
                w.name
            );
        }
    }

    /// The lines of `[section]` in a Cargo manifest, comments and blank
    /// lines dropped.
    fn section<'a>(manifest: &'a str, section: &str) -> Vec<&'a str> {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != section)
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// The benchmark contract wants a compiled benchmark to be a package
    /// of its own, so this directory has a manifest beside the one of
    /// `parqp-bench`, whose bin it also is. The two must build the same
    /// program: the same crates, the same release profile.
    #[test]
    fn the_standalone_manifest_follows_the_workspace() {
        let own = include_str!("Cargo.toml");
        let bench = include_str!("../../../Cargo.toml");
        let root = include_str!("../../../../../Cargo.toml");
        let name = |line: &&str| line.split([' ', '=']).next().unwrap_or("").to_string();
        let bench_deps: BTreeSet<String> =
            section(bench, "[dependencies]").iter().map(name).collect();
        let own_deps = section(own, "[dependencies]");
        assert!(!own_deps.is_empty());
        for dep in &own_deps {
            assert!(
                bench_deps.contains(&name(dep)),
                "{dep}: not a dependency of parqp-bench, so the bin would not build in the workspace"
            );
            let dir = name(dep)
                .trim_start_matches("parqp-")
                .replace("parqp", "core");
            assert!(
                dep.contains(&format!("path = \"../../../../{dir}\"")),
                "{dep}: expected the workspace's crates/{dir}"
            );
        }
        assert_eq!(
            section(own, "[profile.release]"),
            section(root, "[profile.release]"),
            "release profile differs from the workspace's"
        );
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let committed = include_str!("../../../../../BENCHMARK.json");
        assert_eq!(
            committed,
            manifest().pretty(),
            "BENCHMARK.json drifted from registry.rs: regenerate it with `perf manifest`"
        );
        let parsed = json::parse(committed).expect("valid JSON");
        let keys: Vec<&str> = parsed.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(committed.len() <= 64 * 1024);
        // The command names no file outside `paths`.
        let Some(Value::Arr(command)) = parsed.get("command") else {
            panic!("command is a list");
        };
        assert!(command.len() <= 32);
        for arg in command {
            let Value::Str(arg) = arg else {
                panic!("command holds strings")
            };
            assert!(!arg.starts_with('/') && !arg.contains(".."), "{arg}");
            assert!(
                !arg.contains('/') || arg.starts_with(BENCH_DIR),
                "{arg} is outside {BENCH_DIR}"
            );
        }
    }
}
