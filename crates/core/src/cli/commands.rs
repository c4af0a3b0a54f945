//! The command table: one row per `parqp` command — its name, the
//! flags it accepts, its usage prose and its body — and the bodies
//! themselves. A body reads its flags through [`Args`] and returns the
//! report text; text artifacts go through [`emit`], the one place
//! `--out` is honoured.

use super::flags::{too_large, unknown_choice, Args, Flag};
use super::CliError;
use crate::faults::{FaultPlan, FaultSpec, RecoveryStrategy};
use crate::observe::{run_experiment_full, ExperimentRun, EXPERIMENTS};
use crate::planner::{plan, run_plan};
use crate::trace::{analyze, export, Recorder};
use parqp_data::io::{read_relation, write_relation};
use parqp_data::paged::{self, IoStats, StoreConfig};
use parqp_data::Relation;
use parqp_query::{parse_query, Query};
use parqp_serve::{replay, replay_observed, FaultSetup, ServeConfig};
use std::fmt::Write as _;
use Flag::{
    Alpha, CacheBudget, Check, Crashes, Data, Domain, Drops, Duplicates, Every, Experiment, Faults,
    Format, Groups, Horizon, Obs, Out, Preset, Query as QueryText, Replicas, Rows, Seed, Servers,
    Slo, Stragglers, Strategy, Templates, Tenants, Ticks, Verify, Window, ZipfData, ZipfQ,
};

/// One row of the command table.
pub(super) struct Command {
    pub name: &'static str,
    /// The flags the command accepts beside [`super::flags::GLOBAL`].
    pub flags: &'static [Flag],
    /// Whether `--page-size`/`--pool-pages` install a paged store around
    /// the body. `store` runs both modes to compare them, `serve`
    /// captures per-replay IO ledgers, `dash` replays a fixed preset.
    pub paged: bool,
    /// The command's block of the usage text.
    pub usage: &'static str,
    pub body: fn(&Args) -> Result<String, CliError>,
}

pub(super) const COMMANDS: &[Command] = &[
    Command {
        name: "analyze",
        flags: &[QueryText, Servers],
        paged: true,
        usage: "analyze  --query Q                         τ*, ψ*, acyclicity, bounds\n",
        body: analyze_cmd,
    },
    Command {
        name: "plan",
        flags: &[QueryText, Data, Servers],
        paged: true,
        usage: "plan     --query Q --data F... [--servers P]   planner decision only\n",
        body: |args| plan_cmd(args, false),
    },
    Command {
        name: "run",
        flags: &[QueryText, Data, Servers, Seed, Out],
        paged: true,
        usage: "run      --query Q --data F... [--servers P] [--seed S] [--out F]\n",
        body: |args| plan_cmd(args, true),
    },
    Command {
        name: "stats",
        flags: &[Data, Servers],
        paged: true,
        usage: "stats    --data F [--servers P]            degrees & heavy hitters\n",
        body: stats,
    },
    Command {
        name: "generate",
        flags: &[Flag::Kind, Rows, Domain, Alpha, Seed, Out],
        paged: true,
        usage: "generate --kind uniform|zipf|graph --rows N [--domain D] [--alpha A]\n\
                [--seed S] --out F                write a synthetic relation\n",
        body: generate,
    },
    Command {
        name: "trace",
        flags: &[Experiment, Servers, Seed, Out, Format],
        paged: true,
        usage: "trace    --experiment E [--servers P] [--seed S] [--out F]\n\
                [--format summary|heatmap|jsonl|chrome]\n\
                trace a named experiment (no --experiment: list them)\n",
        body: trace_cmd,
    },
    Command {
        name: "faults",
        flags: &[
            Experiment, Servers, Seed, Out, Strategy, Every, Replicas, Crashes, Drops, Duplicates,
            Stragglers, Horizon, Format,
        ],
        paged: true,
        usage: "faults   --experiment E [--servers P] [--seed S] [--out F]\n\
                [--strategy checkpoint|replication] [--every K] [--replicas R]\n\
                [--crashes N] [--drops N] [--duplicates N] [--stragglers N]\n\
                [--horizon H] [--format summary|heatmap|jsonl|chrome]\n\
                run a named experiment under a seeded fault plan and\n\
                report recovery overhead (no --experiment: list them)\n",
        body: faults_cmd,
    },
    Command {
        name: "metrics",
        flags: &[Seed, Format, Out, Check],
        paged: true,
        usage: "metrics  [--seed S] [--format table|json] [--out F]\n\
                [--check BENCH_parqp.json]\n\
                measure L, rounds, bound adherence and page IO of every\n\
                experiment at p = 8, 27, 64; --check gates every count\n\
                against the committed document\n",
        body: metrics_cmd,
    },
    Command {
        name: "store",
        flags: &[Servers, Seed, Out],
        paged: false,
        usage: "store    [--servers P] [--seed S] [--page-size W] [--pool-pages N]\n\
                [--out F]\n\
                run every experiment unpaged and under the paged store\n\
                and verify digests, ledgers and traces are byte-identical;\n\
                reports per-experiment page-IO (reads, misses, evictions)\n",
        body: store_cmd,
    },
    Command {
        name: "serve",
        flags: &[
            Servers,
            Seed,
            Tenants,
            Templates,
            Groups,
            Ticks,
            ZipfQ,
            ZipfData,
            CacheBudget,
            Faults,
            Verify,
            Format,
            Out,
            Strategy,
            Every,
            Replicas,
            Crashes,
            Drops,
            Duplicates,
            Stragglers,
            Horizon,
            Obs,
            Window,
            Slo,
        ],
        paged: false,
        usage: "serve    [--servers P] [--seed S] [--tenants T] [--templates K]\n\
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
                nonzero on a burn-rate alert (implies --obs)\n",
        body: serve_cmd,
    },
    Command {
        name: "dash",
        flags: &[Preset, Window, Seed, Format, Out],
        paged: false,
        usage: "dash     [--preset steady|cold|faulted] [--window W] [--seed S]\n\
                [--format dash|jsonl|prom] [--out F]\n\
                render the serving dashboard (sparklines + per-server\n\
                heatmap) for a named serve preset — the same presets the\n\
                metrics gate measures\n",
        body: dash_cmd,
    },
];

/// The usage block of the flags every command takes.
pub(super) const GLOBAL_USAGE: &str = "global   --exec serial|parallel [--workers N]\n\
     run every server's per-round compute on a worker pool\n\
     (N = 0 or omitted: all cores, at most 1024); output is\n\
     byte-identical to serial mode\n\
     --page-size W --pool-pages N\n\
     run the command against the paged store (W words per page,\n\
     N resident pages per server); output is byte-identical to\n\
     the unpaged run, only the page-IO ledger changes\n";

/// The execution mode requested by `--exec`/`--workers`.
pub(super) fn exec_mode(args: &Args) -> Result<parqp_mpc::ExecMode, CliError> {
    let workers = args.count(Flag::Workers);
    Ok(match args.choice(Flag::Exec, &["serial", "parallel"])? {
        "serial" => parqp_mpc::ExecMode::Serial,
        _ => parqp_mpc::ExecMode::Parallel { workers },
    })
}

/// The paged-store configuration requested by `--page-size`/
/// `--pool-pages`, `None` when neither flag was given (unpaged).
pub(super) fn store_config(args: &Args) -> Option<StoreConfig> {
    (args.is_set(Flag::PageSize) || args.is_set(Flag::PoolPages)).then(|| StoreConfig {
        page_size: args.count(Flag::PageSize),
        pool_pages: args.count(Flag::PoolPages),
    })
}

/// The fault setup requested by `--strategy`/`--every`/`--replicas`,
/// the four per-kind counts and `--horizon` (shared by `faults` and
/// `serve --faults`).
fn fault_setup(args: &Args) -> Result<FaultSetup, CliError> {
    let (every, replicas) = (args.count(Every), args.count(Replicas));
    let strategy = match args.choice(Strategy, &["checkpoint", "replication"])? {
        "checkpoint" => RecoveryStrategy::Checkpoint { every },
        _ => RecoveryStrategy::Replication { replicas },
    };
    Ok(FaultSetup {
        strategy,
        horizon: args.count(Horizon),
        spec: FaultSpec {
            crashes: args.count(Crashes),
            drops: args.count(Drops),
            duplicates: args.count(Duplicates),
            stragglers: args.count(Stragglers),
            ..FaultSpec::default()
        },
    })
}

/// Hand a text artifact to the user: written to `--out` (the report is
/// then the byte count) or returned for printing.
fn emit(args: &Args, body: String) -> Result<String, CliError> {
    let Some(out) = args.text(Out) else {
        return Ok(body);
    };
    std::fs::write(out, &body).map_err(|e| CliError::File(out.to_string(), e))?;
    Ok(format!("wrote {} bytes to {out}\n", body.len()))
}

fn read_text(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::File(path.to_string(), e))
}

fn experiment(name: &str, args: &Args) -> Result<ExperimentRun, CliError> {
    run_experiment_full(name, args.count(Servers), args.word(Seed)).map_err(CliError::Experiment)
}

/// `L = … tuples, r = …, C = … tuples` of a run's ledger.
fn cost(report: &parqp_mpc::LoadReport) -> String {
    format!(
        "L = {} tuples, r = {}, C = {} tuples",
        report.max_load_tuples(),
        report.num_rounds(),
        report.total_tuples()
    )
}

fn analyze_cmd(args: &Args) -> Result<String, CliError> {
    let q = parse_query(args.required(QueryText)?)?;
    let tau = crate::model::tau_star(&q);
    let psi = parqp_query::psi_star(&q);
    let rho = parqp_lp::fractional_edge_cover(&q.hypergraph()).value;
    let acyclic = parqp_query::Ghd::join_tree(&q).is_some();
    let servers = args.count(Servers);
    let mut s = format!(
        "query     : {q}\n\
         atoms     : {}, variables: {}\n\
         acyclic   : {acyclic}\n\
         τ* (packing) : {tau}   — skew-free 1-round L = IN/p^(1/τ*)\n\
         ψ* (skew)    : {psi}   — skewed 1-round L = IN/p^(1/ψ*)\n\
         ρ* (cover)   : {rho}   — AGM bound |OUT| ≤ IN^(ρ*)\n\
         at p = {servers}: speedup p^(1/τ*) = {:.2}; 2× speedup needs {:.0}× more servers\n",
        q.num_atoms(),
        q.num_vars(),
        crate::model::hypercube_speedup(servers as f64, tau),
        crate::model::processors_for_double_speedup(tau)
    );
    if acyclic {
        s.push_str("GYM wins while OUT < p^(1-1/τ*)·IN − IN (slide 78 crossover)\n");
    }
    Ok(s)
}

fn load_data(args: &Args, q: &Query) -> Result<Vec<Relation>, CliError> {
    let files = args.list(Data);
    if files.len() != q.num_atoms() {
        return Err(CliError::Shape(format!(
            "--data needs {} file(s) (one per atom), got {}",
            q.num_atoms(),
            files.len()
        )));
    }
    let load = |(f, atom): (&String, &parqp_query::Atom)| {
        let rel = read_relation(f).map_err(|e| CliError::Data(f.clone(), e))?;
        if rel.arity() != atom.arity() {
            return Err(CliError::Shape(format!(
                "{f}: atom {atom} has arity {}, file has {} columns",
                atom.arity(),
                rel.arity()
            )));
        }
        Ok(rel)
    };
    files.iter().zip(q.atoms()).map(load).collect()
}

fn plan_cmd(args: &Args, execute: bool) -> Result<String, CliError> {
    let q = parse_query(args.required(QueryText)?)?;
    let rels = load_data(args, &q)?;
    let servers = args.count(Servers);
    let d = plan(&q, &rels, servers);
    let mut s = format!(
        "query    : {q}\nstrategy : {:?}\nreason   : {}\n",
        d.strategy, d.reason
    );
    if execute {
        let run = run_plan(&q, &rels, servers, args.word(Seed), &d.strategy);
        let _ = writeln!(s, "cost     : {} on p = {servers}", cost(&run.report));
        let _ = writeln!(s, "output   : {} tuples", run.output_size());
        // Here `--out` takes the output relation, not the report.
        if let Some(out) = args.text(Out) {
            write_relation(&run.gathered(), out).map_err(|e| CliError::Data(out.to_string(), e))?;
            let _ = writeln!(s, "written  : {out}");
        }
    }
    Ok(s)
}

fn stats(args: &Args) -> Result<String, CliError> {
    let file = args.required(Data)?;
    let rel = read_relation(file).map_err(|e| CliError::Data(file.to_string(), e))?;
    let servers = args.count(Servers);
    let mut s = format!(
        "file    : {file}\ntuples  : {}, arity: {}\n",
        rel.len(),
        rel.arity()
    );
    // The cut the planner and SkewHC split on.
    let threshold = parqp_data::stats::heavy_threshold(rel.len() as u64, servers);
    for col in 0..rel.arity() {
        let degrees = parqp_data::stats::degree_counts(&rel, col);
        let distinct = degrees.len();
        let maxd = degrees.values().copied().max().unwrap_or(0);
        let heavy = degrees.values().filter(|&&d| d >= threshold).count();
        let _ = writeln!(
            s,
            "col {col}  : {distinct} distinct, max degree {maxd}, \
             {heavy} heavy hitter(s) at threshold {threshold} (max(IN/p, 2), p = {servers})",
        );
    }
    Ok(s)
}

fn generate(args: &Args) -> Result<String, CliError> {
    args.required(Flag::Kind)?;
    let kind = args.choice(Flag::Kind, &["uniform", "zipf", "graph"])?;
    let out = args.required(Out)?;
    let (rows, domain, seed) = (args.count(Rows), args.word(Domain), args.word(Seed));
    // The generators assert what the table's ranges and the check on
    // a graph's edges establish here.
    let rel = match kind {
        "uniform" => parqp_data::generate::uniform(2, rows, domain.max(1), seed),
        "zipf" => {
            let alpha = args.real(Alpha);
            parqp_data::generate::zipf_pairs(rows, domain.max(1) as usize, alpha, 0, seed)
        }
        _ => {
            let nodes = domain.max(2);
            let distinct_edges = nodes * (nodes - 1);
            if rows as u64 > distinct_edges {
                return Err(too_large(Rows, distinct_edges, rows as u64));
            }
            parqp_data::generate::random_graph(nodes, rows, seed)
        }
    };
    write_relation(&rel, out).map_err(|e| CliError::Data(out.to_string(), e))?;
    Ok(format!("wrote {} tuples to {out}\n", rel.len()))
}

/// The listing `trace` and `faults` print when no experiment is named.
fn experiment_listing() -> String {
    let mut s = String::from("available experiments (--experiment <name>):\n");
    for e in EXPERIMENTS {
        let _ = writeln!(s, "  {:<20} {}", e.name, e.description);
    }
    s
}

/// Render a recorded run in the `--format` that `trace` and `faults`
/// both take; only the summary differs between them.
fn render_trace(args: &Args, rec: &Recorder, summary: String) -> Result<String, CliError> {
    let body = match args.choice(Format, &["summary", "heatmap", "jsonl", "chrome"])? {
        "summary" => summary,
        "heatmap" => analyze::heatmap(&analyze::round_loads(rec), 16),
        "jsonl" => export::jsonl(rec),
        _ => export::chrome_trace(rec),
    };
    emit(args, body)
}

fn trace_cmd(args: &Args) -> Result<String, CliError> {
    let Some(name) = args.text(Experiment) else {
        return Ok(experiment_listing());
    };
    let run = experiment(name, args)?;
    let totals = analyze::totals(&run.recorder);
    let summary = format!(
        "experiment {name} on p = {} (seed {}): {} round(s), {} tuples, {} words\n\
         {}output     : digest {:#018x}\n",
        args.count(Servers),
        args.word(Seed),
        totals.rounds,
        totals.tuples,
        totals.words,
        analyze::summary_table(&analyze::round_loads(&run.recorder)),
        run.digest
    );
    render_trace(args, &run.recorder, summary)
}

fn faults_cmd(args: &Args) -> Result<String, CliError> {
    let Some(name) = args.text(Experiment) else {
        return Ok(experiment_listing());
    };
    let setup = fault_setup(args)?;
    let (servers, seed) = (args.count(Servers), args.word(Seed));
    let plan = FaultPlan::random(seed, servers, setup.horizon, &setup.spec);
    let clean = experiment(name, args)?;
    let (log, faulty) =
        crate::faults::capture(plan.clone(), setup.strategy, || experiment(name, args));
    let faulty = faulty?;
    let strategy = match setup.strategy {
        RecoveryStrategy::Checkpoint { every } => format!("checkpoint(every {every})"),
        RecoveryStrategy::Replication { replicas } => format!("replication(r = {replicas})"),
    };
    let mut s = format!(
        "experiment {name} on p = {servers} (seed {seed}), strategy {strategy}\n\
         fault plan : {} scheduled over a {}-round horizon\n",
        plan.len(),
        setup.horizon
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
    let verdict = if faulty.digest == clean.digest {
        "byte-identical to fault-free run"
    } else {
        "DIVERGED from fault-free run"
    };
    let _ = write!(
        s,
        "clean      : {}\nfaulty     : {}\n\
         recovery   : +{} round(s), +{} tuples, +{} words charged\n\
         output     : {verdict} (digest {:#018x})\n",
        cost(&clean.report),
        cost(&faulty.report),
        log.recovery_rounds,
        log.recovery_tuples,
        log.recovery_words,
        faulty.digest
    );
    render_trace(args, &faulty.recorder, s)
}

fn metrics_cmd(args: &Args) -> Result<String, CliError> {
    let collect = || crate::metrics::collect(args.word(Seed)).map_err(CliError::Metrics);
    let Some(path) = args.text(Check) else {
        let render = match args.choice(Format, &["table", "json"])? {
            "table" => crate::metrics::table,
            _ => crate::metrics::to_json,
        };
        return emit(args, render(&collect()?));
    };
    // Read the document before paying for a collection: a file the
    // gate cannot read is an error whatever the run would measure.
    let baseline = crate::metrics::from_json(&read_text(path)?)
        .map_err(|e| CliError::Metrics(format!("{path}: {e}")))?;
    let regressions = crate::metrics::compare(&baseline, &collect()?);
    if !regressions.is_empty() {
        return Err(CliError::Metrics(format!(
            "{} metrics regression(s) against {path}:\n  {}",
            regressions.len(),
            regressions.join("\n  ")
        )));
    }
    Ok(format!(
        "metrics match baseline {path} ({} points, seed {})\n",
        baseline.experiments.len(),
        baseline.seed
    ))
}

/// `parqp store`: the paged-vs-unpaged differential. Every experiment
/// runs twice at the same `(p, seed)` — once unpaged, once under a
/// bounded buffer pool — and the command verifies the paged run is
/// *observationally identical*: same output digest, same `(L, r, C)`
/// ledger, byte-identical trace JSONL. Only the page-IO ledger may
/// differ (it is the whole point), and it is what gets reported.
fn store_cmd(args: &Args) -> Result<String, CliError> {
    let cfg = store_config(args).unwrap_or_default();
    let mut s = format!(
        "paged-vs-unpaged differential: p = {}, seed {}, page_size {}, pool_pages {}\n\
         {:<20} {:>12} {:>10} {:>10} {:>8}  result\n",
        args.count(Servers),
        args.word(Seed),
        cfg.page_size,
        cfg.pool_pages,
        "experiment",
        "io_reads",
        "misses",
        "evictions",
        "hit_rate"
    );
    let mut failures = Vec::new();
    for e in EXPERIMENTS {
        let unpaged = experiment(e.name, args)?;
        let (totals, paged) = paged::capture(cfg, || experiment(e.name, args));
        let paged = paged?;
        let mut io = IoStats::default();
        for t in &totals {
            io.merge(t);
        }
        let checks = [
            ("digest", paged.digest != unpaged.digest),
            ("ledger", paged.report != unpaged.report),
            (
                "trace",
                export::jsonl(&paged.recorder) != export::jsonl(&unpaged.recorder),
            ),
        ];
        let diverged: Vec<&str> = checks.iter().filter(|c| c.1).map(|c| c.0).collect();
        let result = if diverged.is_empty() {
            "identical".to_string()
        } else {
            let what = diverged.join("+");
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
        return Err(CliError::Store(format!(
            "{} experiment(s) diverged under the paged store:\n  {}\n\n{s}",
            failures.len(),
            failures.join("\n  ")
        )));
    }
    let _ = writeln!(
        s,
        "all {} experiments byte-identical under paging",
        EXPERIMENTS.len()
    );
    emit(args, s)
}

/// `parqp serve`: replay a seeded multi-tenant query stream against one
/// long-lived cluster. With `--verify` the same stream is replayed a
/// second time with the cache disabled and every per-query output
/// digest is compared — caching must be a pure cost optimization, never
/// observable in results.
fn serve_cmd(args: &Args) -> Result<String, CliError> {
    let cfg = ServeConfig {
        servers: args.count(Servers),
        tenants: args.count(Tenants),
        templates: args.count(Templates),
        groups: args.count(Groups),
        ticks: args.word(Ticks),
        seed: args.word(Seed),
        zipf_q: args.real(ZipfQ),
        zipf_data: args.real(ZipfData),
        cache_budget: args.word(CacheBudget),
        store: store_config(args).unwrap_or_default(),
        faults: args.is_set(Faults).then(|| fault_setup(args)).transpose()?,
    };
    let format = args.choice(Format, &["table", "jsonl", "prom"])?;
    // `--slo` and `--format prom` need the window series, so they imply
    // `--obs`; a plain replay skips the fold.
    let (report, series) = if args.is_set(Obs) || args.is_set(Slo) || format == "prom" {
        let (report, series) = replay_observed(&cfg, args.word(Window)).map_err(CliError::Serve)?;
        (report, Some(series))
    } else {
        (replay(&cfg).map_err(CliError::Serve)?, None)
    };
    let mut verified = String::new();
    if args.is_set(Verify) {
        let cache_off = ServeConfig {
            cache_budget: 0,
            ..cfg.clone()
        };
        let off = replay(&cache_off).map_err(CliError::Serve)?;
        let diverged: Vec<String> = report
            .records
            .iter()
            .zip(off.records.iter())
            .filter(|(on, off)| on.digest != off.digest)
            .map(|(on, _)| format!("query #{} ({} group {})", on.serial, on.template, on.group))
            .collect();
        if report.served() != off.served() || !diverged.is_empty() {
            return Err(CliError::Serve(format!(
                "serve --verify: {} of {} per-query digests diverged cache-on vs cache-off:\n  {}",
                diverged.len(),
                report.served(),
                diverged.join("\n  ")
            )));
        }
        verified = format!(
            "verified: {} per-query digests identical cache-on vs cache-off\n",
            report.served()
        );
    }
    // Evaluate the SLO rules before rendering: a burn-rate alert is an
    // error (nonzero exit), whatever format was asked for.
    let mut slo_text = String::new();
    if let (Some(path), Some(series)) = (args.text(Slo), &series) {
        let rules = parqp_serve::obs::SloRules::parse(&read_text(path)?).map_err(CliError::Slo)?;
        let verdict = rules.evaluate(series);
        slo_text = verdict.table();
        verdict
            .gate()
            .map_err(|e| CliError::Slo(format!("slo gate {path}:\n{slo_text}{e}")))?;
    }
    let body = match (format, &series) {
        ("table", Some(series)) => format!(
            "{}{verified}\n{}{slo_text}",
            report.table(),
            series.dashboard()
        ),
        ("table", None) => format!("{}{verified}", report.table()),
        ("prom", Some(series)) => series.prometheus(),
        (_, Some(series)) => format!("{}{}", report.jsonl(), series.jsonl()),
        // jsonl: `--format prom` implied the series above.
        (_, None) => report.jsonl(),
    };
    let shown = emit(args, body)?;
    Ok(if args.is_set(Out) {
        format!("{shown}{verified}{slo_text}")
    } else {
        shown
    })
}

/// `parqp dash`: render the serving dashboard — sparklines over the
/// window series plus the servers × windows heatmap — for one of the
/// named serve presets the metrics gate measures.
fn dash_cmd(args: &Args) -> Result<String, CliError> {
    let presets = crate::metrics::serve_presets(args.word(Seed));
    let short = |name: &'static str| name.split('/').next().unwrap_or(name);
    let wanted = args.text(Preset).unwrap_or("steady");
    let Some((_, cfg)) = presets.iter().find(|(name, _)| short(name) == wanted) else {
        let names: Vec<&str> = presets.iter().map(|(name, _)| short(name)).collect();
        return Err(unknown_choice(Preset, wanted, &names));
    };
    let format = args.choice(Format, &["dash", "jsonl", "prom"])?;
    let (_, series) = replay_observed(cfg, args.word(Window)).map_err(CliError::Serve)?;
    let body = match format {
        "dash" => series.dashboard(),
        "jsonl" => series.jsonl(),
        _ => series.prometheus(),
    };
    emit(args, body)
}
