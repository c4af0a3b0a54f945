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
//! The logic lives in [`dispatch`] (pure: args in, report text out) so
//! it is unit-testable; `src/bin/parqp.rs` is a thin wrapper.

use crate::planner::{plan, run_plan};
use parqp_data::io::{read_relation, write_relation};
use parqp_data::Relation;
use parqp_query::parse_query;
use std::fmt::Write as _;

/// Run one CLI invocation. `args` excludes the program name. Returns the
/// report to print on success, or an error message (exit code 2).
pub fn dispatch(args: &[String]) -> Result<String, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage());
    };
    // `lint` owns its own tiny flag set and installs no execution mode;
    // the binary routes it before dispatch for the 0/1/2 exit contract,
    // this arm keeps it reachable in-process (tests, help discovery).
    if cmd == "lint" {
        let (body, code) = lint_run(rest);
        return if code == 0 { Ok(body) } else { Err(body) };
    }
    let opts = Opts::parse(rest)?;
    // Install the execution mode for the whole invocation: every Cluster
    // any command constructs snapshots it, so `--exec parallel` applies
    // uniformly to trace, faults, metrics, run, … The guard restores the
    // caller's mode on return (dispatch is re-entrant in tests).
    let _exec = parqp_mpc::exec::install(opts.exec_mode()?).map_err(|e| e.to_string())?;
    // `--page-size`/`--pool-pages` install a paged store the same way;
    // `store` and `serve` manage their own (store runs both modes to
    // compare them, serve captures per-replay IO ledgers).
    let _store = if cmd == "store" || cmd == "serve" || cmd == "dash" {
        None
    } else {
        opts.store_config().map(parqp_data::paged::install)
    };
    match cmd.as_str() {
        "analyze" => analyze(&opts),
        "plan" => plan_cmd(&opts, false),
        "run" => plan_cmd(&opts, true),
        "stats" => stats(&opts),
        "generate" => generate(&opts),
        "trace" => trace_cmd(&opts),
        "faults" => faults_cmd(&opts),
        "metrics" => metrics_cmd(&opts),
        "store" => store_cmd(&opts),
        "serve" => serve_cmd(&opts),
        "dash" => dash_cmd(&opts),
        "--help" | "-h" | "help" => Ok(usage()),
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

/// `parqp lint` front door: run the in-tree static analyzer over the
/// workspace. Shared by [`dispatch`] (in-process tests) and
/// [`lint_main`] (the binary, which needs the three-way exit code).
/// Returns the report text plus the exit code: 0 clean, 1 findings,
/// 2 setup error.
fn lint_run(args: &[String]) -> (String, i32) {
    let mut json = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("json") => json = true,
                Some("text") => json = false,
                other => {
                    let got = other.unwrap_or("nothing");
                    return (
                        format!("parqp lint: --format wants text|json, got \"{got}\"\n"),
                        2,
                    );
                }
            },
            other => {
                return (
                    format!(
                        "parqp lint: unknown option {other:?} (only --format text|json here; \
                         use `cargo run -p parqp-lint` for --fix-baseline and friends)\n"
                    ),
                    2,
                )
            }
        }
    }
    let root = parqp_lint::workspace_root();
    let report = match parqp_lint::load_baseline(&root)
        .and_then(|baseline| parqp_lint::lint_workspace(&root, Some(&baseline)))
    {
        Ok(report) => report,
        Err(e) => return (format!("parqp lint: {e}\n"), 2),
    };
    let code = if report.diagnostics.is_empty() { 0 } else { 1 };
    if json {
        return (parqp_lint::render_json(&report), code);
    }
    let mut s = String::new();
    for d in &report.diagnostics {
        let _ = writeln!(s, "{d}");
    }
    if code == 0 {
        let _ = writeln!(
            s,
            "parqp-lint: clean ({} files, {} crates)",
            report.files_scanned,
            report.panic_counts.len()
        );
    } else {
        let _ = writeln!(s, "parqp-lint: {} finding(s)", report.diagnostics.len());
    }
    (s, code)
}

/// Binary entry point for `parqp lint`: prints the report and returns
/// the process exit code (0 = clean, 1 = findings, 2 = setup error) —
/// the plain [`dispatch`] path can only express success-or-2.
pub fn lint_main(args: &[String]) -> i32 {
    let (body, code) = lint_run(args);
    if code == 0 {
        print!("{body}");
    } else {
        eprint!("{body}");
    }
    code
}

fn usage() -> String {
    "usage: parqp <analyze|plan|run|stats|generate|trace|faults|metrics|store|serve|dash|lint> [options]\n\
     \n\
     analyze  --query Q                         τ*, ψ*, acyclicity, bounds\n\
     plan     --query Q --data F... [--servers P]   planner decision only\n\
     run      --query Q --data F... [--servers P] [--seed S] [--out F]\n\
     stats    --data F [--servers P]            degrees & heavy hitters\n\
     generate --kind uniform|zipf|graph --rows N [--domain D] [--alpha A]\n\
              [--seed S] --out F                write a synthetic relation\n\
     trace    --experiment E [--servers P] [--seed S] [--out F]\n\
              [--format summary|heatmap|jsonl|chrome]\n\
              trace a named experiment (no --experiment: list them)\n\
     faults   --experiment E [--servers P] [--seed S] [--out F]\n\
              [--strategy checkpoint|replication] [--every K] [--replicas R]\n\
              [--crashes N] [--drops N] [--duplicates N] [--stragglers N]\n\
              [--horizon H] [--format summary|heatmap|jsonl|chrome]\n\
              run a named experiment under a seeded fault plan and\n\
              report recovery overhead (no --experiment: list them)\n\
     metrics  [--seed S] [--format table|json] [--out F]\n\
              [--check BENCH_parqp.json]\n\
              measure L, rounds, bound adherence and page IO of every\n\
              experiment at p = 8, 27, 64; --check gates every count\n\
              against the committed document\n\
     store    [--servers P] [--seed S] [--page-size W] [--pool-pages N]\n\
              [--out F]\n\
              run every experiment unpaged and under the paged store\n\
              and verify digests, ledgers and traces are byte-identical;\n\
              reports per-experiment page-IO (reads, misses, evictions)\n\
     serve    [--servers P] [--seed S] [--tenants T] [--templates K]\n\
              [--groups G] [--ticks N] [--zipf-q A] [--zipf-data A]\n\
              [--cache-budget B] [--faults] [--verify]\n\
              [--format table|jsonl] [--out F]\n\
              replay a seeded multi-tenant query stream against one\n\
              long-lived cluster with shared-plan caching and exact\n\
              per-tenant ledgers; --cache-budget 0 disables the cache,\n\
              --faults injects a seeded fault plan under load (same\n\
              --strategy/--crashes/... flags as `faults`), --verify\n\
              re-runs cache-off and fails on any per-query digest\n\
              divergence; --obs records a per-window time series\n\
              (--window W ticks each, default 8) — table format appends\n\
              the ASCII dashboard, jsonl appends the window series, and\n\
              --format prom emits Prometheus text exposition; --slo F\n\
              evaluates the rules file against the series and exits\n\
              nonzero on a burn-rate alert (implies --obs)\n\
     dash     [--preset steady|cold|faulted] [--window W] [--seed S]\n\
              [--format dash|jsonl|prom] [--out F]\n\
              render the serving dashboard (sparklines + per-server\n\
              heatmap) for a named serve preset — the same presets the\n\
              metrics gate measures\n\
     lint     [--format text|json]\n\
              run the in-tree static analyzer (determinism, layering,\n\
              panic-surface and offline rules) over the workspace;\n\
              exits 0 clean, 1 findings, 2 setup error\n\
     \n\
     global   --exec serial|parallel [--workers N]\n\
              run every server's per-round compute on a worker pool\n\
              (N = 0 or omitted: all cores, at most 1024); output is\n\
              byte-identical to serial mode\n\
              --page-size W --pool-pages N\n\
              run the command against the paged store (W words per page,\n\
              N resident pages per server); output is byte-identical to\n\
              the unpaged run, only the page-IO ledger changes\n"
        .into()
}

/// Ceiling on `--workers`: far above any core count, far below any
/// host's thread limit. A refused spawn comes back as a typed error,
/// but a thread that starts and then cannot map its guard page aborts
/// the whole process from inside the runtime, which nothing can catch
/// — so an absurd request has to be a parse error.
const MAX_WORKERS: usize = 1024;

/// Parsed `--key value` options.
struct Opts {
    query: Option<String>,
    data: Vec<String>,
    servers: usize,
    seed: u64,
    out: Option<String>,
    kind: Option<String>,
    rows: usize,
    domain: u64,
    alpha: f64,
    experiment: Option<String>,
    format: Option<String>,
    strategy: Option<String>,
    every: usize,
    replicas: usize,
    crashes: usize,
    drops: usize,
    duplicates: usize,
    stragglers: usize,
    horizon: usize,
    check: Option<String>,
    exec: Option<String>,
    workers: usize,
    page_size: Option<usize>,
    pool_pages: Option<usize>,
    tenants: usize,
    templates: usize,
    groups: usize,
    ticks: u64,
    zipf_q: f64,
    zipf_data: f64,
    cache_budget: u64,
    faults: bool,
    verify: bool,
    obs: bool,
    window: u64,
    slo: Option<String>,
    preset: Option<String>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut o = Opts {
            query: None,
            data: Vec::new(),
            servers: 64,
            seed: 42,
            out: None,
            kind: None,
            rows: 10_000,
            domain: 1000,
            alpha: 1.0,
            experiment: None,
            format: None,
            strategy: None,
            every: 4,
            replicas: 3,
            crashes: 1,
            drops: 1,
            duplicates: 1,
            stragglers: 1,
            horizon: 8,
            check: None,
            exec: None,
            workers: 0,
            page_size: None,
            pool_pages: None,
            tenants: 4,
            templates: 3,
            groups: 12,
            ticks: 120,
            zipf_q: 1.1,
            zipf_data: 1.2,
            cache_budget: 120_000,
            faults: false,
            verify: false,
            obs: false,
            window: 8,
            slo: None,
            preset: None,
        };
        let mut it = args.iter().peekable();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<String, String> {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match flag.as_str() {
                "--query" => o.query = Some(value("--query")?),
                "--data" => {
                    o.data.push(value("--data")?);
                    // allow space-separated file lists after --data
                    while let Some(next) = it.peek() {
                        if next.starts_with("--") {
                            break;
                        }
                        o.data.push(it.next().expect("peeked").clone());
                    }
                }
                "--servers" | "-p" => {
                    o.servers = value(flag)?
                        .parse()
                        .map_err(|e| format!("--servers: {e}"))?;
                }
                "--seed" => {
                    o.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--out" => o.out = Some(value("--out")?),
                "--kind" => o.kind = Some(value("--kind")?),
                "--rows" => {
                    o.rows = value("--rows")?
                        .parse()
                        .map_err(|e| format!("--rows: {e}"))?
                }
                "--domain" => {
                    o.domain = value("--domain")?
                        .parse()
                        .map_err(|e| format!("--domain: {e}"))?;
                }
                "--alpha" => {
                    o.alpha = value("--alpha")?
                        .parse()
                        .map_err(|e| format!("--alpha: {e}"))?;
                }
                "--experiment" => o.experiment = Some(value("--experiment")?),
                "--format" => o.format = Some(value("--format")?),
                "--strategy" => o.strategy = Some(value("--strategy")?),
                "--check" => o.check = Some(value("--check")?),
                "--exec" => o.exec = Some(value("--exec")?),
                "--workers" => {
                    o.workers = value("--workers")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?;
                    if o.workers > MAX_WORKERS {
                        return Err(format!(
                            "--workers: at most {MAX_WORKERS} (got {})",
                            o.workers
                        ));
                    }
                }
                "--page-size" => {
                    o.page_size = Some(
                        value("--page-size")?
                            .parse()
                            .map_err(|e| format!("--page-size: {e}"))?,
                    );
                }
                "--pool-pages" => {
                    o.pool_pages = Some(
                        value("--pool-pages")?
                            .parse()
                            .map_err(|e| format!("--pool-pages: {e}"))?,
                    );
                }
                "--tenants" => {
                    o.tenants = value("--tenants")?
                        .parse()
                        .map_err(|e| format!("--tenants: {e}"))?;
                }
                "--templates" => {
                    o.templates = value("--templates")?
                        .parse()
                        .map_err(|e| format!("--templates: {e}"))?;
                }
                "--groups" => {
                    o.groups = value("--groups")?
                        .parse()
                        .map_err(|e| format!("--groups: {e}"))?;
                }
                "--ticks" => {
                    o.ticks = value("--ticks")?
                        .parse()
                        .map_err(|e| format!("--ticks: {e}"))?;
                }
                "--zipf-q" => {
                    o.zipf_q = value("--zipf-q")?
                        .parse()
                        .map_err(|e| format!("--zipf-q: {e}"))?;
                }
                "--zipf-data" => {
                    o.zipf_data = value("--zipf-data")?
                        .parse()
                        .map_err(|e| format!("--zipf-data: {e}"))?;
                }
                "--cache-budget" => {
                    o.cache_budget = value("--cache-budget")?
                        .parse()
                        .map_err(|e| format!("--cache-budget: {e}"))?;
                }
                "--faults" => o.faults = true,
                "--verify" => o.verify = true,
                "--obs" => o.obs = true,
                "--window" => {
                    o.window = value("--window")?
                        .parse()
                        .map_err(|e| format!("--window: {e}"))?;
                }
                "--slo" => o.slo = Some(value("--slo")?),
                "--preset" => o.preset = Some(value("--preset")?),
                "--every" | "--replicas" | "--crashes" | "--drops" | "--duplicates"
                | "--stragglers" | "--horizon" => {
                    let parsed: usize = value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))?;
                    match flag.as_str() {
                        "--every" => o.every = parsed,
                        "--replicas" => o.replicas = parsed,
                        "--crashes" => o.crashes = parsed,
                        "--drops" => o.drops = parsed,
                        "--duplicates" => o.duplicates = parsed,
                        "--stragglers" => o.stragglers = parsed,
                        _ => o.horizon = parsed,
                    }
                }
                other => return Err(format!("unknown option {other:?}")),
            }
        }
        if o.servers == 0 {
            return Err("--servers must be positive".into());
        }
        if o.page_size == Some(0) {
            return Err("--page-size must be positive".into());
        }
        if o.pool_pages == Some(0) {
            return Err("--pool-pages must be positive".into());
        }
        Ok(o)
    }

    /// The execution mode requested by `--exec`/`--workers`.
    fn exec_mode(&self) -> Result<parqp_mpc::ExecMode, String> {
        match self.exec.as_deref().unwrap_or("serial") {
            "serial" => Ok(parqp_mpc::ExecMode::Serial),
            "parallel" => Ok(parqp_mpc::ExecMode::Parallel {
                workers: self.workers,
            }),
            other => Err(format!("unknown --exec {other:?} (serial|parallel)")),
        }
    }

    /// The recovery strategy requested by `--strategy`/`--every`/
    /// `--replicas` (shared by `faults` and `serve --faults`).
    fn recovery_strategy(&self) -> Result<crate::faults::RecoveryStrategy, String> {
        match self.strategy.as_deref().unwrap_or("checkpoint") {
            "checkpoint" => Ok(crate::faults::RecoveryStrategy::Checkpoint {
                every: self.every.max(1),
            }),
            "replication" => Ok(crate::faults::RecoveryStrategy::Replication {
                replicas: self.replicas.max(1),
            }),
            other => Err(format!(
                "unknown --strategy {other:?} (checkpoint|replication)"
            )),
        }
    }

    /// The fault specification requested by `--crashes`/`--drops`/
    /// `--duplicates`/`--stragglers`.
    fn fault_spec(&self) -> crate::faults::FaultSpec {
        crate::faults::FaultSpec {
            crashes: self.crashes,
            drops: self.drops,
            duplicates: self.duplicates,
            stragglers: self.stragglers,
            max_batch: 8,
        }
    }

    /// The paged-store configuration requested by `--page-size`/
    /// `--pool-pages`, `None` when neither flag was given (unpaged).
    fn store_config(&self) -> Option<parqp_data::paged::StoreConfig> {
        if self.page_size.is_none() && self.pool_pages.is_none() {
            return None;
        }
        let defaults = parqp_data::paged::StoreConfig::default();
        Some(parqp_data::paged::StoreConfig {
            page_size: self.page_size.unwrap_or(defaults.page_size),
            pool_pages: self.pool_pages.unwrap_or(defaults.pool_pages),
        })
    }
}

fn require_query(o: &Opts) -> Result<parqp_query::Query, String> {
    let src = o.query.as_ref().ok_or("--query is required")?;
    parse_query(src).map_err(|e| e.to_string())
}

fn analyze(o: &Opts) -> Result<String, String> {
    let q = require_query(o)?;
    let h = q.hypergraph();
    let tau = crate::model::tau_star(&q);
    let psi = parqp_query::psi_star(&q);
    let rho = parqp_lp::fractional_edge_cover(&h).value;
    let acyclic = parqp_query::Ghd::join_tree(&q).is_some();
    let p = o.servers as f64;
    let mut s = String::new();
    let _ = writeln!(s, "query     : {q}");
    let _ = writeln!(
        s,
        "atoms     : {}, variables: {}",
        q.num_atoms(),
        q.num_vars()
    );
    let _ = writeln!(s, "acyclic   : {acyclic}");
    let _ = writeln!(
        s,
        "τ* (packing) : {tau}   — skew-free 1-round L = IN/p^(1/τ*)"
    );
    let _ = writeln!(s, "ψ* (skew)    : {psi}   — skewed 1-round L = IN/p^(1/ψ*)");
    let _ = writeln!(s, "ρ* (cover)   : {rho}   — AGM bound |OUT| ≤ IN^(ρ*)");
    let _ = writeln!(
        s,
        "at p = {}: speedup p^(1/τ*) = {:.2}; 2× speedup needs {:.0}× more servers",
        o.servers,
        crate::model::hypercube_speedup(p, tau),
        crate::model::processors_for_double_speedup(tau)
    );
    if acyclic {
        let _ = writeln!(
            s,
            "GYM wins while OUT < p^(1-1/τ*)·IN − IN (slide 78 crossover)"
        );
    }
    Ok(s)
}

fn load_data(o: &Opts, q: &parqp_query::Query) -> Result<Vec<Relation>, String> {
    if o.data.len() != q.num_atoms() {
        return Err(format!(
            "--data needs {} file(s) (one per atom), got {}",
            q.num_atoms(),
            o.data.len()
        ));
    }
    o.data
        .iter()
        .zip(q.atoms())
        .map(|(f, atom)| {
            let rel = read_relation(f).map_err(|e| format!("{f}: {e}"))?;
            if rel.arity() != atom.arity() {
                return Err(format!(
                    "{f}: atom {atom} has arity {}, file has {} columns",
                    atom.arity(),
                    rel.arity()
                ));
            }
            Ok(rel)
        })
        .collect()
}

fn plan_cmd(o: &Opts, execute: bool) -> Result<String, String> {
    let q = require_query(o)?;
    let rels = load_data(o, &q)?;
    let d = plan(&q, &rels, o.servers);
    let mut s = String::new();
    let _ = writeln!(s, "query    : {q}");
    let _ = writeln!(s, "strategy : {:?}", d.strategy);
    let _ = writeln!(s, "reason   : {}", d.reason);
    if execute {
        let run = run_plan(&q, &rels, o.servers, o.seed, &d.strategy);
        let _ = writeln!(
            s,
            "cost     : L = {} tuples, r = {}, C = {} tuples on p = {}",
            run.report.max_load_tuples(),
            run.report.num_rounds(),
            run.report.total_tuples(),
            o.servers
        );
        let _ = writeln!(s, "output   : {} tuples", run.output_size());
        if let Some(out) = &o.out {
            let gathered = run.gathered();
            write_relation(&gathered, out).map_err(|e| format!("{out}: {e}"))?;
            let _ = writeln!(s, "written  : {out}");
        }
    }
    Ok(s)
}

fn stats(o: &Opts) -> Result<String, String> {
    let file = o.data.first().ok_or("--data is required")?;
    let rel = read_relation(file).map_err(|e| format!("{file}: {e}"))?;
    let mut s = String::new();
    let _ = writeln!(s, "file    : {file}");
    let _ = writeln!(s, "tuples  : {}, arity: {}", rel.len(), rel.arity());
    let threshold = ((rel.len() / o.servers) as u64).max(1);
    for col in 0..rel.arity() {
        let degrees = parqp_data::stats::degree_counts(&rel, col);
        let distinct = degrees.len();
        let maxd = degrees.values().copied().max().unwrap_or(0);
        let heavy = degrees.values().filter(|&&d| d >= threshold).count();
        let _ = writeln!(
            s,
            "col {col}  : {distinct} distinct, max degree {maxd}, \
             {heavy} heavy hitter(s) at threshold {threshold} (IN/p, p = {})",
            o.servers
        );
    }
    Ok(s)
}

fn generate(o: &Opts) -> Result<String, String> {
    let kind = o.kind.as_deref().ok_or("--kind is required")?;
    let out = o.out.as_ref().ok_or("--out is required")?;
    let rel = match kind {
        "uniform" => parqp_data::generate::uniform(2, o.rows, o.domain.max(1), o.seed),
        "zipf" => {
            parqp_data::generate::zipf_pairs(o.rows, o.domain.max(1) as usize, o.alpha, 0, o.seed)
        }
        "graph" => parqp_data::generate::random_graph(o.domain.max(2), o.rows, o.seed),
        other => return Err(format!("unknown --kind {other:?} (uniform|zipf|graph)")),
    };
    write_relation(&rel, out).map_err(|e| format!("{out}: {e}"))?;
    Ok(format!("wrote {} tuples to {out}\n", rel.len()))
}

fn trace_cmd(o: &Opts) -> Result<String, String> {
    use crate::trace::{analyze, export};

    let Some(name) = o.experiment.as_deref() else {
        let mut s = String::from("available experiments (--experiment <name>):\n");
        for e in crate::observe::EXPERIMENTS {
            let _ = writeln!(s, "  {:<20} {}", e.name, e.description);
        }
        return Ok(s);
    };
    let run = crate::observe::run_experiment_full(name, o.servers, o.seed)?;
    let rec = &run.recorder;
    let body = match o.format.as_deref().unwrap_or("summary") {
        "summary" => {
            let loads = analyze::round_loads(rec);
            let totals = analyze::totals(rec);
            let mut s = format!(
                "experiment {name} on p = {} (seed {}): {} round(s), \
                 {} tuples, {} words\n",
                o.servers, o.seed, totals.rounds, totals.tuples, totals.words
            );
            s.push_str(&analyze::summary_table(&loads));
            let _ = writeln!(s, "output     : digest {:#018x}", run.digest);
            s
        }
        "heatmap" => analyze::heatmap(&analyze::round_loads(rec), 16),
        "jsonl" => export::jsonl(rec),
        "chrome" => export::chrome_trace(rec),
        other => {
            return Err(format!(
                "unknown --format {other:?} (summary|heatmap|jsonl|chrome)"
            ))
        }
    };
    if let Some(out) = &o.out {
        std::fs::write(out, &body).map_err(|e| format!("{out}: {e}"))?;
        Ok(format!("wrote {} bytes to {out}\n", body.len()))
    } else {
        Ok(body)
    }
}

fn faults_cmd(o: &Opts) -> Result<String, String> {
    use crate::faults::{capture, FaultPlan, RecoveryStrategy};
    use crate::trace::{analyze, export};

    let Some(name) = o.experiment.as_deref() else {
        let mut s = String::from("available experiments (--experiment <name>):\n");
        for e in crate::observe::EXPERIMENTS {
            let _ = writeln!(s, "  {:<20} {}", e.name, e.description);
        }
        return Ok(s);
    };
    let strategy = o.recovery_strategy()?;
    let plan = FaultPlan::random(o.seed, o.servers, o.horizon, &o.fault_spec());
    let clean = crate::observe::run_experiment_full(name, o.servers, o.seed)?;
    let (log, faulty) = capture(plan.clone(), strategy, || {
        crate::observe::run_experiment_full(name, o.servers, o.seed)
    });
    let faulty = faulty?;
    let body = match o.format.as_deref().unwrap_or("summary") {
        "summary" => {
            let mut s = format!(
                "experiment {name} on p = {} (seed {}), strategy {}\n",
                o.servers,
                o.seed,
                match strategy {
                    RecoveryStrategy::Checkpoint { every } => format!("checkpoint(every {every})"),
                    RecoveryStrategy::Replication { replicas } =>
                        format!("replication(r = {replicas})"),
                }
            );
            let _ = writeln!(
                s,
                "fault plan : {} scheduled over a {}-round horizon",
                plan.len(),
                o.horizon
            );
            for (round, server, kind) in plan.schedule() {
                let _ = writeln!(s, "  round {round:>2} server {server:>3}: {kind}");
            }
            let _ = writeln!(s, "fired      : {} fault(s)", log.fired());
            for f in &log.injected {
                let _ = writeln!(
                    s,
                    "  ledger round {:>2} server {:>3}: {}",
                    f.round, f.server, f.kind
                );
            }
            for (label, run) in [("clean", &clean), ("faulty", &faulty)] {
                let _ = writeln!(
                    s,
                    "{label:<11}: L = {} tuples, r = {}, C = {} tuples",
                    run.report.max_load_tuples(),
                    run.report.num_rounds(),
                    run.report.total_tuples(),
                );
            }
            let _ = writeln!(
                s,
                "recovery   : +{} round(s), +{} tuples, +{} words charged",
                log.recovery_rounds, log.recovery_tuples, log.recovery_words
            );
            let _ = writeln!(
                s,
                "output     : {} (digest {:#018x})",
                if faulty.digest == clean.digest {
                    "byte-identical to fault-free run"
                } else {
                    "DIVERGED from fault-free run"
                },
                faulty.digest
            );
            s
        }
        "heatmap" => analyze::heatmap(&analyze::round_loads(&faulty.recorder), 16),
        "jsonl" => export::jsonl(&faulty.recorder),
        "chrome" => export::chrome_trace(&faulty.recorder),
        other => {
            return Err(format!(
                "unknown --format {other:?} (summary|heatmap|jsonl|chrome)"
            ))
        }
    };
    if let Some(out) = &o.out {
        std::fs::write(out, &body).map_err(|e| format!("{out}: {e}"))?;
        Ok(format!("wrote {} bytes to {out}\n", body.len()))
    } else {
        Ok(body)
    }
}

fn metrics_cmd(o: &Opts) -> Result<String, String> {
    if let Some(path) = &o.check {
        // Read the document before paying for a collection: a file the
        // gate cannot read is an error whatever the run would measure.
        let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let baseline = crate::metrics::from_json(&src).map_err(|e| format!("{path}: {e}"))?;
        let current = crate::metrics::collect(o.seed)?;
        let regressions = crate::metrics::compare(&baseline, &current);
        return if regressions.is_empty() {
            Ok(format!(
                "metrics match baseline {path} ({} points, seed {})\n",
                baseline.experiments.len(),
                baseline.seed
            ))
        } else {
            Err(format!(
                "{} metrics regression(s) against {path}:\n  {}",
                regressions.len(),
                regressions.join("\n  ")
            ))
        };
    }
    let render = match o.format.as_deref().unwrap_or("table") {
        "table" => crate::metrics::table,
        "json" => crate::metrics::to_json,
        other => return Err(format!("unknown --format {other:?} (table|json)")),
    };
    let body = render(&crate::metrics::collect(o.seed)?);
    if let Some(out) = &o.out {
        std::fs::write(out, &body).map_err(|e| format!("{out}: {e}"))?;
        Ok(format!("wrote {} bytes to {out}\n", body.len()))
    } else {
        Ok(body)
    }
}

/// `parqp store`: the paged-vs-unpaged differential. Every experiment
/// runs twice at the same `(p, seed)` — once unpaged, once under a
/// bounded buffer pool — and the command verifies the paged run is
/// *observationally identical*: same output digest, same `(L, r, C)`
/// ledger, byte-identical trace JSONL. Only the page-IO ledger may
/// differ (it is the whole point), and it is what gets reported.
fn store_cmd(o: &Opts) -> Result<String, String> {
    use crate::trace::export;

    let cfg = o.store_config().unwrap_or_default();
    let mut s = format!(
        "paged-vs-unpaged differential: p = {}, seed {}, page_size {}, pool_pages {}\n",
        o.servers, o.seed, cfg.page_size, cfg.pool_pages
    );
    let _ = writeln!(
        s,
        "{:<20} {:>12} {:>10} {:>10} {:>8}  result",
        "experiment", "io_reads", "misses", "evictions", "hit_rate"
    );
    let mut failures = Vec::new();
    for e in crate::observe::EXPERIMENTS {
        let unpaged = crate::observe::run_experiment_full(e.name, o.servers, o.seed)?;
        let (totals, paged) = parqp_data::paged::capture(cfg, || {
            crate::observe::run_experiment_full(e.name, o.servers, o.seed)
        });
        let paged = paged?;
        let mut io = parqp_data::paged::IoStats::default();
        for t in &totals {
            io.merge(t);
        }
        let mut verdict = Vec::new();
        if paged.digest != unpaged.digest {
            verdict.push("digest");
        }
        if paged.report != unpaged.report {
            verdict.push("ledger");
        }
        if export::jsonl(&paged.recorder) != export::jsonl(&unpaged.recorder) {
            verdict.push("trace");
        }
        let result = if verdict.is_empty() {
            "identical".to_string()
        } else {
            let what = verdict.join("+");
            failures.push(format!("{}: {what} diverged under paging", e.name));
            format!("DIVERGED ({what})")
        };
        let _ = writeln!(
            s,
            "{:<20} {:>12} {:>10} {:>10} {:>8.4}  {result}",
            e.name,
            io.reads,
            io.misses,
            io.evictions,
            io.hit_rate()
        );
    }
    if !failures.is_empty() {
        return Err(format!(
            "{} experiment(s) diverged under the paged store:\n  {}\n\n{s}",
            failures.len(),
            failures.join("\n  ")
        ));
    }
    let _ = writeln!(
        s,
        "all {} experiments byte-identical under paging",
        crate::observe::EXPERIMENTS.len()
    );
    if let Some(out) = &o.out {
        std::fs::write(out, &s).map_err(|e| format!("{out}: {e}"))?;
        Ok(format!("wrote {} bytes to {out}\n", s.len()))
    } else {
        Ok(s)
    }
}

/// `parqp serve`: replay a seeded multi-tenant query stream against one
/// long-lived cluster. With `--verify` the same stream is replayed a
/// second time with the cache disabled and every per-query output
/// digest is compared — caching must be a pure cost optimization, never
/// observable in results.
fn serve_cmd(o: &Opts) -> Result<String, String> {
    use parqp_serve::{replay, replay_observed, FaultSetup, ServeConfig};

    let faults = if o.faults {
        Some(FaultSetup {
            spec: o.fault_spec(),
            strategy: o.recovery_strategy()?,
            horizon: o.horizon,
        })
    } else {
        None
    };
    let cfg = ServeConfig {
        servers: o.servers,
        tenants: o.tenants,
        templates: o.templates,
        groups: o.groups,
        ticks: o.ticks,
        seed: o.seed,
        zipf_q: o.zipf_q,
        zipf_data: o.zipf_data,
        cache_budget: o.cache_budget,
        store: o.store_config().unwrap_or_default(),
        faults,
    };
    // `--slo` and `--format prom` need the window series, so they imply
    // `--obs`; a plain replay skips the fold.
    let observed = o.obs || o.slo.is_some() || o.format.as_deref() == Some("prom");
    let (report, series) = if observed {
        let (report, series) = replay_observed(&cfg, o.window)?;
        (report, Some(series))
    } else {
        (replay(&cfg)?, None)
    };
    let mut verified = String::new();
    if o.verify {
        let off = replay(&ServeConfig {
            cache_budget: 0,
            ..cfg.clone()
        })?;
        let diverged: Vec<String> = report
            .records
            .iter()
            .zip(off.records.iter())
            .filter(|(on, off)| on.digest != off.digest)
            .map(|(on, _)| format!("query #{} ({} group {})", on.serial, on.template, on.group))
            .collect();
        if report.served() != off.served() || !diverged.is_empty() {
            return Err(format!(
                "serve --verify: {} of {} per-query digests diverged cache-on vs cache-off:\n  {}",
                diverged.len(),
                report.served(),
                diverged.join("\n  ")
            ));
        }
        verified = format!(
            "verified: {} per-query digests identical cache-on vs cache-off\n",
            report.served()
        );
    }
    // Evaluate the SLO rules before rendering: a burn-rate alert is an
    // error (nonzero exit), whatever format was asked for.
    let mut slo_text = String::new();
    if let (Some(path), Some(series)) = (&o.slo, &series) {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let rules = parqp_serve::obs::SloRules::parse(&src)?;
        let verdict = rules.evaluate(series);
        verdict
            .gate()
            .map_err(|e| format!("slo gate {path}:\n{}{e}", verdict.table()))?;
        slo_text = verdict.table();
    }
    let body = match o.format.as_deref().unwrap_or("table") {
        "table" => match &series {
            Some(series) => format!(
                "{}{verified}\n{}{slo_text}",
                report.table(),
                series.dashboard()
            ),
            None => format!("{}{verified}", report.table()),
        },
        "jsonl" => match &series {
            Some(series) => format!("{}{}", report.jsonl(), series.jsonl()),
            None => report.jsonl(),
        },
        // `observed` covers this arm, but stay typed rather than assert.
        "prom" => match &series {
            Some(series) => series.prometheus(),
            None => return Err("--format prom records a series; pass --obs".into()),
        },
        other => return Err(format!("unknown --format {other:?} (table|jsonl|prom)")),
    };
    if let Some(out) = &o.out {
        std::fs::write(out, &body).map_err(|e| format!("{out}: {e}"))?;
        Ok(format!(
            "wrote {} bytes to {out}\n{verified}{slo_text}",
            body.len()
        ))
    } else {
        Ok(body)
    }
}

/// `parqp dash`: render the serving dashboard — sparklines over the
/// window series plus the servers × windows heatmap — for one of the
/// named serve presets the metrics gate measures.
fn dash_cmd(o: &Opts) -> Result<String, String> {
    let preset = o.preset.as_deref().unwrap_or("steady");
    let presets = crate::metrics::serve_presets(o.seed);
    let names: Vec<&str> = presets
        .iter()
        .map(|(name, _)| name.split('/').next().unwrap_or(name))
        .collect();
    let Some((_, cfg)) = presets
        .iter()
        .find(|(name, _)| name.split('/').next() == Some(preset))
    else {
        return Err(format!(
            "unknown --preset {preset:?} (one of: {})",
            names.join("|")
        ));
    };
    let (_, series) = parqp_serve::replay_observed(cfg, o.window)?;
    let body = match o.format.as_deref().unwrap_or("dash") {
        "dash" => series.dashboard(),
        "jsonl" => series.jsonl(),
        "prom" => series.prometheus(),
        other => return Err(format!("unknown --format {other:?} (dash|jsonl|prom)")),
    };
    if let Some(out) = &o.out {
        std::fs::write(out, &body).map_err(|e| format!("{out}: {e}"))?;
        Ok(format!("wrote {} bytes to {out}\n", body.len()))
    } else {
        Ok(body)
    }
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
            let err = dispatch(&argv(&args)).expect_err("width mismatch is refused");
            assert_eq!(
                err,
                format!("{three}: atom {atom} has arity 2, file has 3 columns")
            );
        }
        // `stats` on the same files: one line per column, read off one
        // degree table each.
        let stats = dispatch(&argv(&["stats", "--data", two, "--servers", "2"])).expect("stats");
        assert!(stats.contains(
            "col 0  : 2 distinct, max degree 3, 1 heavy hitter(s) at threshold 2 (IN/p, p = 2)"
        ));
        assert!(stats.contains("col 1  : 4 distinct, max degree 1, 0 heavy hitter(s)"));
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
    fn help_text() {
        let h = dispatch(&argv(&["help"])).expect("help");
        assert!(h.contains("usage: parqp"));
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
        let err = dispatch(&argv(&["trace", "--exec", "wat"])).expect_err("must fail");
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
        let err = dispatch(&argv(&args)).expect_err("must fail");
        assert!(err.contains("--workers"), "got: {err}");
    }

    #[test]
    fn trace_rejects_unknowns() {
        assert!(dispatch(&argv(&["trace", "--experiment", "wat"])).is_err());
        assert!(dispatch(&argv(&["trace", "--experiment", "psrs", "--format", "wat"])).is_err());
    }

    #[test]
    fn paging_flags_must_be_positive() {
        let err = dispatch(&argv(&["store", "--page-size", "0"])).expect_err("must fail");
        assert!(err.contains("--page-size must be positive"), "got: {err}");
        let err = dispatch(&argv(&["store", "--pool-pages", "0"])).expect_err("must fail");
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
            .expect_err("drift must fail the gate");
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
            let err = dispatch(&argv(&["metrics", "--check", path])).expect_err("refused");
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

    #[test]
    fn lint_front_door_reports_a_clean_workspace() {
        let out = dispatch(&argv(&["lint"])).expect("workspace is lint-clean");
        assert!(out.contains("parqp-lint: clean"), "got: {out}");
    }

    #[test]
    fn lint_front_door_json_format() {
        let out = dispatch(&argv(&["lint", "--format", "json"])).expect("json works");
        assert!(out.contains("\"clean\": true"), "got: {out}");
    }

    #[test]
    fn lint_front_door_rejects_unknown_flags() {
        let err = dispatch(&argv(&["lint", "--fix-baseline"])).expect_err("must fail");
        assert!(err.contains("cargo run -p parqp-lint"), "got: {err}");
        assert!(dispatch(&argv(&["lint", "--format", "wat"])).is_err());
    }

    #[test]
    fn help_mentions_lint_and_exit_codes() {
        let h = dispatch(&argv(&["help"])).expect("help");
        assert!(h.contains("lint"), "got: {h}");
        assert!(h.contains("exits 0 clean, 1 findings"), "got: {h}");
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
        let err = dispatch(&argv(&args)).expect_err("slo gate must trip");
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
        let err = dispatch(&argv(&["dash", "--preset", "wat"])).expect_err("unknown preset");
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
