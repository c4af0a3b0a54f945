//! The `parqp` command line: plan, run and analyze conjunctive queries
//! over CSV/TSV relations on the simulated MPC cluster.
//!
//! ```text
//! parqp analyze  --query "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)"
//! parqp plan     --query "R(a,b), S(b,c)" --data r.csv s.csv --servers 64
//! parqp run      --query "R(a,b), S(b,c)" --data r.csv s.csv --out out.csv
//! parqp stats    --data r.csv --servers 64
//! parqp generate --kind zipf --rows 10000 --domain 1000 --alpha 1.1 --out r.csv
//! parqp trace    --experiment triangle-hypercube --servers 64 --format heatmap
//! parqp faults   --experiment twoway-hash --seed 42 --strategy replication
//! ```
//!
//! The front end is two tables and one error type: `flags` declares
//! every flag once (name, type, default, range) and parses argv against
//! it, `commands` declares every command once (the flags it accepts,
//! its usage prose, its body), and whatever goes wrong is a
//! [`CliError`]. [`dispatch`] is pure — args in, report text out — so
//! it is the one function a test or a fuzzer calls;
//! `src/bin/parqp.rs` prints what it returns.

mod commands;
mod error;
mod flags;

pub use error::CliError;

use commands::COMMANDS;

/// Run one CLI invocation. `args` excludes the program name. Returns the
/// report to print on success; any error is exit code 2.
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    let Some((name, rest)) = args.split_first() else {
        return Err(CliError::Usage(usage()));
    };
    if matches!(name.as_str(), "--help" | "-h" | "help") {
        return Ok(usage());
    }
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        let message = format!("unknown command {name:?}\n{}", usage());
        return Err(CliError::Usage(message));
    };
    let args = flags::parse(command.name, command.flags, rest)?;
    // Install the execution mode for the whole invocation: every Cluster
    // any command constructs snapshots it, so `--exec parallel` applies
    // uniformly to trace, faults, metrics, run, … The guard restores the
    // caller's mode on return (dispatch is re-entrant in tests).
    let _exec = parqp_mpc::exec::install(commands::exec_mode(&args)?)?;
    // `--page-size`/`--pool-pages` install a paged store the same way,
    // around every command that does not manage its own.
    let _store = match commands::store_config(&args) {
        Some(cfg) if command.paged => Some(parqp_data::paged::install(cfg)),
        _ => None,
    };
    (command.body)(&args)
}

/// The usage text, assembled from the command table's rows.
fn usage() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    let mut s = format!("usage: parqp <{}> [options]\n\n", names.join("|"));
    for command in COMMANDS {
        s.push_str(command.usage);
    }
    s.push('\n');
    s.push_str(commands::GLOBAL_USAGE);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(ToString::to_string).collect()
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("parqp_cli_{tag}"));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir
    }

    #[test]
    fn analyze_triangle() {
        let out = dispatch(&argv(&[
            "analyze",
            "--query",
            "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)",
        ]))
        .expect("analyze works");
        assert!(out.contains("τ* (packing) : 1.5"));
        assert!(out.contains("acyclic   : false"));
    }

    #[test]
    fn generate_stats_run_roundtrip() {
        let dir = tmpdir("roundtrip");
        let r = dir.join("r.csv");
        let s = dir.join("s.csv");
        for (f, seed) in [(&r, "1"), (&s, "2")] {
            let out = dispatch(&argv(&[
                "generate",
                "--kind",
                "uniform",
                "--rows",
                "500",
                "--domain",
                "60",
                "--seed",
                seed,
                "--out",
                f.to_str().expect("utf8"),
            ]))
            .expect("generate works");
            assert!(out.contains("wrote 500 tuples"));
        }
        let stats = dispatch(&argv(&[
            "stats",
            "--data",
            r.to_str().expect("utf8"),
            "--servers",
            "8",
        ]))
        .expect("stats works");
        assert!(stats.contains("tuples  : 500, arity: 2"));

        let outfile = dir.join("out.csv");
        let run = dispatch(&argv(&[
            "run",
            "--query",
            "R(a,b), S(b,c)",
            "--data",
            r.to_str().expect("utf8"),
            s.to_str().expect("utf8"),
            "--servers",
            "8",
            "--out",
            outfile.to_str().expect("utf8"),
        ]))
        .expect("run works");
        assert!(run.contains("strategy"));
        assert!(run.contains("output"));
        let result = parqp_data::io::read_relation(&outfile);
        // The join may be empty (then the file has no data lines) —
        // either outcome must be consistent with the reported size.
        let reported: usize = run
            .lines()
            .find(|l| l.starts_with("output"))
            .and_then(|l| l.split(':').nth(1))
            .and_then(|v| v.trim().split(' ').next())
            .and_then(|v| v.parse().ok())
            .expect("output line");
        match result {
            Ok(rel) => assert_eq!(rel.len(), reported),
            Err(_) => assert_eq!(reported, 0),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_data_file_of_the_wrong_width_is_a_typed_error() {
        let dir = tmpdir("arity");
        let (two, three) = (dir.join("two.csv"), dir.join("three.csv"));
        std::fs::write(&two, "1,2\n2,3\n2,4\n2,5\n").expect("write");
        std::fs::write(&three, "1,2,3\n2,3,4\n").expect("write");
        let (two, three) = (two.to_str().expect("utf8"), three.to_str().expect("utf8"));
        // Both commands, the wide file first, last and in the middle: an
        // error that names the file and the atom, where `run` used to
        // abort inside the oracle and `plan` used to print a strategy.
        let chain = "R(a,b), S(b,c), T(c,d)";
        for (cmd, query, data, atom) in [
            ("plan", "R(a,b), S(b,c)", vec![three, two], "R(x0,x1)"),
            ("plan", "R(a,b), S(b,c)", vec![two, three], "S(x1,x2)"),
            ("run", chain, vec![two, three, two], "S(x1,x2)"),
            ("plan", chain, vec![two, three, two], "S(x1,x2)"),
        ] {
            let mut args = vec![cmd, "--query", query, "--data"];
            args.extend(data);
            let err = dispatch(&argv(&args))
                .expect_err("width mismatch is refused")
                .to_string();
            assert_eq!(
                err,
                format!("{three}: atom {atom} has arity 2, file has 3 columns")
            );
        }
        // `stats` on the same files: one line per column, read off one
        // degree table each, heavy at the planner's and SkewHC's cut —
        // at p = 4 too, where IN/p = 1 would call every value heavy.
        for servers in ["2", "4"] {
            let stats =
                dispatch(&argv(&["stats", "--data", two, "--servers", servers])).expect("stats");
            assert!(stats.contains(&format!(
                "col 0  : 2 distinct, max degree 3, 1 heavy hitter(s) at threshold 2 \
                 (max(IN/p, 2), p = {servers})"
            )));
            assert!(stats.contains("col 1  : 4 distinct, max degree 1, 0 heavy hitter(s)"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_are_reported() {
        assert!(dispatch(&argv(&["plan", "--query", "???"])).is_err());
        assert!(dispatch(&argv(&["nope"])).is_err());
        assert!(dispatch(&argv(&["run", "--query", "R(x,y), S(y,z)"])).is_err());
        assert!(dispatch(&argv(&["generate", "--kind", "wat", "--out", "/tmp/x"])).is_err());
        assert!(dispatch(&[]).is_err());
    }

    #[test]
    fn hostile_argv_is_a_typed_error_never_a_panic() {
        let dir = tmpdir("hostile");
        let file = |name: &str, bytes: &[u8]| {
            let path = dir.join(name);
            std::fs::write(&path, bytes).expect("write");
            path.to_str().expect("utf8").to_string()
        };
        let ragged = file("ragged.csv", b"1,2\n3\n");
        let binary = file("binary.csv", &[0xff, 0xfe, b'\n']);
        let garbage = file("garbage.txt", b"not a document\n");
        let missing = dir.join("missing").to_str().expect("utf8").to_string();
        let huge = u64::MAX;
        // Each row: a command line (split on spaces) and the prefix of
        // the `Debug` form of the error it must return — the variant,
        // and for a flag-table refusal the start of its message.
        let rows = [
            // The four command lines that panicked the binary.
            (
                "generate --kind zipf --alpha -1 --out x",
                "Flag(\"--alpha must be a finite exponent".to_string(),
            ),
            (
                "generate --kind graph --rows 10 --domain 3 --out x",
                "Flag(\"--rows: at most 6 ".into(),
            ),
            (
                &format!("trace --experiment twoway-hash --servers {huge}"),
                "Flag(\"--servers: at most 1024 ".into(),
            ),
            (
                &format!("generate --kind uniform --rows {huge} --out x"),
                "Flag(\"--rows: at most".into(),
            ),
            // Floors, ceilings, exponents.
            (
                "store --page-size 0",
                "Flag(\"--page-size must be positive".into(),
            ),
            (
                "store --pool-pages 0",
                "Flag(\"--pool-pages must be positive".into(),
            ),
            (
                "trace --servers 0",
                "Flag(\"--servers must be positive".into(),
            ),
            ("dash --window 0", "Flag(\"--window must be positive".into()),
            (
                "serve --templates 0",
                "Flag(\"--templates must be positive".into(),
            ),
            (
                "serve --tenants 0",
                "Flag(\"--tenants must be positive".into(),
            ),
            ("serve --ticks 0", "Flag(\"--ticks must be positive".into()),
            (
                "serve --groups 0",
                "Flag(\"--groups must be positive".into(),
            ),
            (
                "serve --zipf-q inf",
                "Flag(\"--zipf-q must be a finite exponent".into(),
            ),
            (
                "generate --alpha NaN",
                "Flag(\"--alpha must be a finite exponent".into(),
            ),
            (
                "trace --workers 1025",
                "Flag(\"--workers: at most 1024 ".into(),
            ),
            ("serve --templates 99", "Flag(\"--templates: at most".into()),
            (
                &format!("serve --ticks {huge}"),
                "Flag(\"--ticks: at most".into(),
            ),
            (
                &format!("generate --kind zipf --domain {huge}"),
                "Flag(\"--domain: at most".into(),
            ),
            // Argv that does not parse against the tables.
            (
                "trace --experiment",
                "Flag(\"--experiment requires a value".into(),
            ),
            ("stats -p", "Flag(\"-p requires a value".into()),
            (
                "trace --servers many",
                "Flag(\"--servers: invalid digit".into(),
            ),
            ("trace --wat", "Flag(\"unknown option".into()),
            (
                "analyze --cache-budget 3 --query R(a,b),S(b,c)",
                "Flag(\"--cache-budget is not an option of `parqp analyze`".into(),
            ),
            ("trace --exec wat", "Flag(\"unknown --exec".into()),
            ("analyze", "Flag(\"--query is required".into()),
            ("frobnicate", "Usage(\"unknown command".into()),
            ("", "Usage(\"usage: parqp".into()),
            // Inputs that do not parse.
            ("analyze --query R(x,", "Query(".into()),
            (
                &format!("stats --data {missing}"),
                format!("Data({missing:?}, Io("),
            ),
            (
                &format!("stats --data {binary}"),
                format!("Data({binary:?}, Io("),
            ),
            (
                &format!("stats --data {ragged}"),
                format!("Data({ragged:?}, Parse {{ line: 2"),
            ),
            (
                &format!("plan --query R(a,b),S(b,c) --data {ragged}"),
                "Shape(".into(),
            ),
            (&format!("serve --ticks 4 --slo {garbage}"), "Slo(".into()),
            (
                &format!("serve --ticks 4 --slo {missing}"),
                format!("File({missing:?}"),
            ),
            (&format!("metrics --check {garbage}"), "Metrics(".into()),
            ("trace --experiment wat", "Experiment(".into()),
        ];
        for (line, expected) in rows {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            let caught = std::panic::catch_unwind(|| dispatch(&args));
            let Ok(result) = caught else {
                panic!("`parqp {line}` panicked");
            };
            let err = result.expect_err("hostile argv is refused");
            let shape = format!("{err:?}");
            assert!(shape.starts_with(&expected), "`parqp {line}`: {shape}");
            let one_line = err.to_string().lines().count() == 1;
            assert!(
                one_line || shape.starts_with("Usage("),
                "`parqp {line}`: {err}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn help_text() {
        let h = dispatch(&argv(&["help"])).expect("help");
        assert!(h.contains("usage: parqp"));
        // Assembled from the tables: every command heads its own block
        // and every flag row is documented somewhere in the text.
        for command in COMMANDS {
            assert!(h.contains(&format!("\n{:<9}", command.name)), "{h}");
        }
        for flag in flags::Flag::ALL {
            assert!(
                h.contains(flag.spec().name),
                "{} undocumented",
                flag.spec().name
            );
        }
    }

    #[test]
    fn trace_lists_experiments_without_name() {
        let out = dispatch(&argv(&["trace"])).expect("listing works");
        assert!(out.contains("triangle-hypercube"));
        assert!(out.contains("psrs"));
    }

    #[test]
    fn trace_summary_and_heatmap() {
        let base = ["trace", "--experiment", "twoway-hash", "--servers", "8"];
        let summary = dispatch(&argv(&base)).expect("summary works");
        assert!(summary.contains("experiment twoway-hash on p = 8"));
        assert!(summary.contains("L_max"));
        let mut args = base.to_vec();
        args.extend(["--format", "heatmap"]);
        let heat = dispatch(&argv(&args)).expect("heatmap works");
        assert!(heat.contains("load heatmap: 8 servers"));
    }

    #[test]
    fn trace_jsonl_is_deterministic() {
        let args = argv(&[
            "trace",
            "--experiment",
            "psrs",
            "--servers",
            "4",
            "--seed",
            "9",
            "--format",
            "jsonl",
        ]);
        let a = dispatch(&args).expect("jsonl works");
        let b = dispatch(&args).expect("jsonl works");
        assert_eq!(a, b);
        assert!(a.contains("\"round_begin\""));
        assert!(a.contains("\"span_begin\""));
    }

    #[test]
    fn exec_parallel_trace_is_byte_identical_to_serial() {
        let base = [
            "trace",
            "--experiment",
            "psrs",
            "--servers",
            "8",
            "--seed",
            "7",
            "--format",
            "jsonl",
        ];
        let serial = dispatch(&argv(&base)).expect("serial works");
        let mut args = base.to_vec();
        args.extend(["--exec", "parallel", "--workers", "2"]);
        let parallel = dispatch(&argv(&args)).expect("parallel works");
        assert_eq!(serial, parallel, "--exec parallel must not change output");
    }

    #[test]
    fn exec_rejects_unknown_mode() {
        let err = dispatch(&argv(&["trace", "--exec", "wat"]))
            .expect_err("must fail")
            .to_string();
        assert!(err.contains("serial|parallel"), "got: {err}");
    }

    #[test]
    fn exec_rejects_a_pool_beyond_the_ceiling() {
        // Regression: this aborted the process from inside thread
        // spawning instead of returning.
        let args = [
            "trace",
            "--experiment",
            "psrs",
            "--exec",
            "parallel",
            "--workers",
            "100000",
        ];
        let err = dispatch(&argv(&args)).expect_err("must fail").to_string();
        assert!(err.contains("--workers"), "got: {err}");
    }

    #[test]
    fn trace_rejects_unknowns() {
        assert!(dispatch(&argv(&["trace", "--experiment", "wat"])).is_err());
        assert!(dispatch(&argv(&["trace", "--experiment", "psrs", "--format", "wat"])).is_err());
    }

    #[test]
    fn paging_flags_must_be_positive() {
        let err = dispatch(&argv(&["store", "--page-size", "0"]))
            .expect_err("must fail")
            .to_string();
        assert!(err.contains("--page-size must be positive"), "got: {err}");
        let err = dispatch(&argv(&["store", "--pool-pages", "0"]))
            .expect_err("must fail")
            .to_string();
        assert!(err.contains("--pool-pages must be positive"), "got: {err}");
    }

    #[test]
    fn faults_lists_experiments_without_name() {
        let out = dispatch(&argv(&["faults"])).expect("listing works");
        assert!(out.contains("triangle-hypercube"));
        assert!(out.contains("matmul-square"));
    }

    #[test]
    fn faults_summary_reports_recovery_and_identical_output() {
        let out = dispatch(&argv(&[
            "faults",
            "--experiment",
            "psrs",
            "--servers",
            "8",
            "--seed",
            "42",
            "--crashes",
            "2",
        ]))
        .expect("faults summary works");
        assert!(out.contains("strategy checkpoint(every 4)"), "got: {out}");
        assert!(out.contains("fault plan"), "got: {out}");
        assert!(
            out.contains("byte-identical to fault-free run"),
            "got: {out}"
        );
    }

    #[test]
    fn faults_replication_strategy() {
        let out = dispatch(&argv(&[
            "faults",
            "--experiment",
            "twoway-hash",
            "--servers",
            "8",
            "--strategy",
            "replication",
            "--replicas",
            "2",
            "--horizon",
            "1",
        ]))
        .expect("replication works");
        assert!(out.contains("replication(r = 2)"), "got: {out}");
        assert!(out.contains("byte-identical"), "got: {out}");
    }

    #[test]
    fn faults_jsonl_is_deterministic_and_carries_fault_events() {
        let args = argv(&[
            "faults",
            "--experiment",
            "multiround-sort",
            "--servers",
            "8",
            "--seed",
            "42",
            "--crashes",
            "1",
            "--horizon",
            "3",
            "--format",
            "jsonl",
        ]);
        let a = dispatch(&args).expect("jsonl works");
        let b = dispatch(&args).expect("jsonl works");
        assert_eq!(a, b, "fixed seed must export byte-identical JSONL");
        assert!(a.contains("\"fault_injected\""), "got: {a}");
        assert!(a.contains("\"recovery_begin\""));
        assert!(a.contains("\"recovery_end\""));
    }

    #[test]
    fn faults_rejects_unknowns() {
        assert!(dispatch(&argv(&["faults", "--experiment", "wat"])).is_err());
        assert!(dispatch(&argv(&[
            "faults",
            "--experiment",
            "psrs",
            "--strategy",
            "wat"
        ]))
        .is_err());
        assert!(dispatch(&argv(&[
            "faults",
            "--experiment",
            "psrs",
            "--format",
            "wat"
        ]))
        .is_err());
    }

    #[test]
    fn trace_summary_reports_output_digest() {
        let summary = dispatch(&argv(&["trace", "--experiment", "psrs", "--servers", "4"]))
            .expect("summary works");
        assert!(summary.contains("output     : digest 0x"), "got: {summary}");
        // Digest matches the faults command's fault-free digest.
        let full = crate::observe::run_experiment_full("psrs", 4, 42).expect("runs");
        assert!(summary.contains(&format!("{:#018x}", full.digest)));
    }

    #[test]
    fn metrics_check_round_trips_through_a_written_baseline() {
        let dir = tmpdir("metrics_check");
        let f = dir.join("baseline.json");
        let json = dispatch(&argv(&["metrics", "--format", "json"])).expect("json works");
        std::fs::write(&f, &json).expect("write baseline");
        let ok = dispatch(&argv(&["metrics", "--check", f.to_str().expect("utf8")]))
            .expect("self-comparison passes");
        assert!(ok.contains("metrics match baseline"), "got: {ok}");
        // A corrupted baseline is a reported regression.
        std::fs::write(&f, json.replace("\"rounds\": 2", "\"rounds\": 9")).expect("write");
        let err = dispatch(&argv(&["metrics", "--check", f.to_str().expect("utf8")]))
            .expect_err("drift must fail the gate")
            .to_string();
        assert!(err.contains("rounds changed"), "got: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_check_reports_a_document_it_cannot_read_in_one_line() {
        // Each is refused by the parser, before any experiment runs.
        let dir = tmpdir("metrics_strict");
        let f = dir.join("doc.json");
        let path = f.to_str().expect("utf8");
        let mut report = crate::metrics::MetricsReport::default();
        report
            .experiments
            .insert("psrs/p8".to_string(), Default::default());
        let v2 = crate::metrics::to_json(&report);
        for (doc, want) in [
            (v2.replace("/v2", "/v1"), "unsupported schema"),
            (
                v2.replace("  \"serve\": {\n  },\n", ""),
                "missing section \"serve\"",
            ),
            (
                v2.replace("\"rounds\": 0, ", ""),
                "missing field \"rounds\"",
            ),
            (
                v2.replace("\"L\": 0", "\"L\": 0, \"skew\": 1.05"),
                "unknown field \"skew\"",
            ),
            ("not json at all".to_string(), "malformed line"),
        ] {
            std::fs::write(&f, doc).expect("write");
            let err = dispatch(&argv(&["metrics", "--check", path]))
                .expect_err("refused")
                .to_string();
            assert!(err.starts_with(path), "got: {err}");
            assert!(err.contains(want), "want {want:?}, got: {err}");
            assert_eq!(err.lines().count(), 1, "got: {err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_table_and_rejects_unknown_format() {
        let t = dispatch(&argv(&["metrics"])).expect("table works");
        assert!(t.contains("bound_ratio"));
        assert!(t.contains("triangle-hypercube"));
        assert!(dispatch(&argv(&["metrics", "--format", "wat"])).is_err());
    }

    #[test]
    fn store_differential_reports_identical_experiments() {
        let out = dispatch(&argv(&["store", "--servers", "8", "--seed", "7"])).expect("store runs");
        assert!(out.contains("paged-vs-unpaged differential"), "got: {out}");
        assert!(out.contains("twoway-hash"), "got: {out}");
        assert!(out.contains("bigjoin"), "got: {out}");
        assert!(
            out.contains("all 9 experiments byte-identical under paging"),
            "got: {out}"
        );
        assert!(!out.contains("DIVERGED"), "got: {out}");
    }

    #[test]
    fn store_differential_with_tiny_pool_still_identical() {
        // A pool this small thrashes (forced evictions on every scan);
        // replacement pressure must never leak into observable output.
        let out = dispatch(&argv(&[
            "store",
            "--servers",
            "8",
            "--page-size",
            "64",
            "--pool-pages",
            "2",
        ]))
        .expect("store runs");
        assert!(out.contains("page_size 64, pool_pages 2"), "got: {out}");
        assert!(out.contains("byte-identical under paging"), "got: {out}");
    }

    #[test]
    fn store_out_writes_artifact_table() {
        let dir = tmpdir("store_out");
        let f = dir.join("store.txt");
        let out = dispatch(&argv(&[
            "store",
            "--servers",
            "8",
            "--out",
            f.to_str().expect("utf8"),
        ]))
        .expect("store --out works");
        assert!(out.contains("wrote"), "got: {out}");
        let body = std::fs::read_to_string(&f).expect("file written");
        assert!(body.contains("io_reads"), "got: {body}");
        assert!(body.contains("hit_rate"), "got: {body}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn paged_trace_is_byte_identical_to_unpaged() {
        let base = [
            "trace",
            "--experiment",
            "twoway-hash",
            "--servers",
            "8",
            "--seed",
            "7",
            "--format",
            "jsonl",
        ];
        let unpaged = dispatch(&argv(&base)).expect("unpaged works");
        let mut args = base.to_vec();
        args.extend(["--page-size", "128", "--pool-pages", "4"]);
        let paged = dispatch(&argv(&args)).expect("paged works");
        assert_eq!(unpaged, paged, "paging must not change the trace");
    }

    #[test]
    fn help_mentions_store_and_paging_flags() {
        let h = dispatch(&argv(&["help"])).expect("help");
        assert!(h.contains("store"), "got: {h}");
        assert!(h.contains("--page-size"), "got: {h}");
        assert!(h.contains("--pool-pages"), "got: {h}");
    }

    const SERVE_SMALL: &[&str] = &[
        "serve",
        "--servers",
        "4",
        "--tenants",
        "2",
        "--templates",
        "2",
        "--groups",
        "4",
        "--ticks",
        "16",
        "--cache-budget",
        "50000",
    ];

    #[test]
    fn serve_table_reports_tenants_and_cache() {
        let out = dispatch(&argv(SERVE_SMALL)).expect("serve runs");
        assert!(out.contains("serve replay: p=4 tenants=2"), "got: {out}");
        assert!(out.contains("cache: hits="), "got: {out}");
        assert!(out.contains("q/kticks"), "got: {out}");
        assert!(out.contains("digest=0x"), "got: {out}");
    }

    #[test]
    fn serve_jsonl_is_deterministic() {
        let mut args = SERVE_SMALL.to_vec();
        args.extend(["--format", "jsonl"]);
        let a = dispatch(&argv(&args)).expect("jsonl works");
        let b = dispatch(&argv(&args)).expect("jsonl works");
        assert_eq!(a, b, "fixed seed must export byte-identical JSONL");
        assert!(a.starts_with("{\"type\":\"config\""), "got: {a}");
        assert!(a.contains("\"type\":\"query\""), "got: {a}");
        assert!(a.contains("\"type\":\"totals\""), "got: {a}");
    }

    #[test]
    fn serve_verify_passes_and_reports() {
        let mut args = SERVE_SMALL.to_vec();
        args.push("--verify");
        let out = dispatch(&argv(&args)).expect("verification passes");
        assert!(
            out.contains("digests identical cache-on vs cache-off"),
            "got: {out}"
        );
    }

    #[test]
    fn serve_parallel_exec_is_byte_identical_to_serial() {
        let mut args = SERVE_SMALL.to_vec();
        args.extend(["--format", "jsonl"]);
        let serial = dispatch(&argv(&args)).expect("serial works");
        args.extend(["--exec", "parallel", "--workers", "2"]);
        let parallel = dispatch(&argv(&args)).expect("parallel works");
        assert_eq!(serial, parallel, "--exec parallel must not change output");
    }

    #[test]
    fn serve_faulted_run_reports_recovery_under_load() {
        let mut args = SERVE_SMALL.to_vec();
        args.extend(["--faults", "--crashes", "2", "--horizon", "4"]);
        let out = dispatch(&argv(&args)).expect("faulted serve runs");
        assert!(out.contains("faults=checkpoint(4)/h4"), "got: {out}");
        assert!(out.contains("faults: fired="), "got: {out}");
    }

    #[test]
    fn serve_rejects_bad_flags() {
        assert!(dispatch(&argv(&["serve", "--format", "wat"])).is_err());
        assert!(dispatch(&argv(&["serve", "--tenants", "0"])).is_err());
        assert!(dispatch(&argv(&["serve", "--ticks", "0"])).is_err());
        assert!(dispatch(&argv(&["serve", "--templates", "99"])).is_err());
        assert!(dispatch(&argv(&["serve", "--zipf-q", "-1"])).is_err());
        assert!(dispatch(&argv(&["serve", "--faults", "--strategy", "wat"])).is_err());
    }

    #[test]
    fn serve_out_writes_jsonl_artifact() {
        let dir = tmpdir("serve_out");
        let f = dir.join("serve.jsonl");
        let mut args = SERVE_SMALL.to_vec();
        let path = f.to_str().expect("utf8");
        args.extend(["--format", "jsonl", "--out", path]);
        let out = dispatch(&argv(&args)).expect("serve --out works");
        assert!(out.contains("wrote"), "got: {out}");
        let body = std::fs::read_to_string(&f).expect("file written");
        assert!(body.contains("\"type\":\"tenant\""), "got: {body}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn help_mentions_serve_flags() {
        let h = dispatch(&argv(&["help"])).expect("help");
        assert!(h.contains("serve"), "got: {h}");
        assert!(h.contains("--cache-budget"), "got: {h}");
        assert!(h.contains("--zipf-q"), "got: {h}");
    }

    #[test]
    fn serve_obs_appends_dashboard_and_window_series() {
        let mut args = SERVE_SMALL.to_vec();
        args.extend(["--obs", "--window", "4"]);
        let out = dispatch(&argv(&args)).expect("observed serve runs");
        assert!(out.contains("serve replay: p=4"), "got: {out}");
        assert!(out.contains("serve series: p=4 windows=4x4"), "got: {out}");
        assert!(out.contains("heatmap: tuples received"), "got: {out}");
        let mut args = SERVE_SMALL.to_vec();
        args.extend(["--obs", "--format", "jsonl"]);
        let a = dispatch(&argv(&args)).expect("observed jsonl works");
        let b = dispatch(&argv(&args)).expect("observed jsonl works");
        assert_eq!(a, b, "observed replay must stay deterministic");
        assert!(a.contains("\"type\":\"query\""), "got: {a}");
        assert!(a.contains("\"type\":\"window\""), "got: {a}");
        assert!(a.contains("\"type\":\"series_totals\""), "got: {a}");
    }

    #[test]
    fn serve_prom_format_exports_window_gauges() {
        let mut args = SERVE_SMALL.to_vec();
        args.extend(["--format", "prom"]);
        let out = dispatch(&argv(&args)).expect("prom format works");
        assert!(
            out.contains("# TYPE parqp_serve_window_served gauge"),
            "got: {out}"
        );
        assert!(out.contains("parqp_serve_served_total"), "got: {out}");
    }

    #[test]
    fn serve_slo_gate_passes_and_trips() {
        let dir = tmpdir("serve_slo");
        let rules = dir.join("rules.slo");
        // Generous thresholds pass and report the verdict table.
        std::fs::write(&rules, "p99_l_budget = 1000000\n").expect("write rules");
        let mut args = SERVE_SMALL.to_vec();
        let path = rules.to_str().expect("utf8").to_string();
        args.extend(["--slo", &path]);
        let out = dispatch(&argv(&args)).expect("slo gate passes");
        assert!(out.contains("verdict: PASS"), "got: {out}");
        // An impossible budget burns every window: fast-burn alert,
        // nonzero exit, alert text in the error.
        std::fs::write(&rules, "p99_l_budget = 0\n").expect("write rules");
        let err = dispatch(&argv(&args))
            .expect_err("slo gate must trip")
            .to_string();
        assert!(err.contains("slo gate"), "got: {err}");
        assert!(err.contains("fast burn"), "got: {err}");
        // A malformed rules file is a setup error, not a pass.
        std::fs::write(&rules, "p99_l_budget = banana\n").expect("write rules");
        assert!(dispatch(&argv(&args)).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dash_renders_sparklines_for_presets() {
        let out = dispatch(&argv(&["dash"])).expect("dash runs");
        assert!(out.contains("serve series: p=8 windows=6x8"), "got: {out}");
        assert!(out.contains("p99(L)"), "got: {out}");
        assert!(out.contains("heatmap: tuples received"), "got: {out}");
        let cold = dispatch(&argv(&["dash", "--preset", "cold"])).expect("cold preset runs");
        assert!(cold.contains("hit_rate"), "got: {cold}");
        let err = dispatch(&argv(&["dash", "--preset", "wat"]))
            .expect_err("unknown preset")
            .to_string();
        assert!(err.contains("steady|cold|faulted"), "got: {err}");
        assert!(dispatch(&argv(&["dash", "--format", "wat"])).is_err());
    }

    #[test]
    fn dash_out_writes_snapshot_artifacts() {
        let dir = tmpdir("dash_out");
        let f = dir.join("dash.txt");
        let out = dispatch(&argv(&["dash", "--out", f.to_str().expect("utf8")]))
            .expect("dash --out works");
        assert!(out.contains("wrote"), "got: {out}");
        let body = std::fs::read_to_string(&f).expect("file written");
        assert!(body.contains("serve series"), "got: {body}");
        let j = dir.join("dash.jsonl");
        dispatch(&argv(&[
            "dash",
            "--format",
            "jsonl",
            "--out",
            j.to_str().expect("utf8"),
        ]))
        .expect("dash jsonl works");
        let body = std::fs::read_to_string(&j).expect("file written");
        assert!(body.contains("\"type\":\"window\""), "got: {body}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn help_mentions_obs_and_dash() {
        let h = dispatch(&argv(&["help"])).expect("help");
        assert!(h.contains("--obs"), "got: {h}");
        assert!(h.contains("--slo"), "got: {h}");
        assert!(h.contains("dash"), "got: {h}");
        assert!(h.contains("--preset"), "got: {h}");
    }

    #[test]
    fn trace_out_writes_file() {
        let dir = tmpdir("trace_out");
        let f = dir.join("t.jsonl");
        let out = dispatch(&argv(&[
            "trace",
            "--experiment",
            "twoway-hash",
            "--servers",
            "4",
            "--format",
            "jsonl",
            "--out",
            f.to_str().expect("utf8"),
        ]))
        .expect("trace --out works");
        assert!(out.contains("wrote"));
        let body = std::fs::read_to_string(&f).expect("file written");
        assert!(body.contains("\"round_end\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
