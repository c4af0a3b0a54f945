//! Bound-adherence metrics over the named [`observe`](crate::observe)
//! experiments: the `parqp metrics` subcommand and the CI perf gate.
//!
//! Each experiment is run under an installed
//! [`parqp_mpc::metrics`] registry at every cluster size in
//! [`METRICS_POINTS`]. The algorithms announce their paper bound (the
//! predicted per-server load `L` and round count) on the way in; the
//! cluster feeds the registry the same event stream the trace sees; and
//! the resulting [`MetricsReport`] carries, per `experiment/p` point,
//! the measured `L`, the round count, and the **bound ratio**
//! `measured L / predicted L` — the number the tutorial's theorems say
//! should hover just above 1.
//!
//! Reports serialize to the `parqp-bench-metrics/v1` JSON schema
//! (`BENCH_parqp.json`, `results/bench_baseline.json`). [`compare`]
//! implements the regression gate: `L`, `rounds` and `bound_ratio` must
//! match the baseline exactly (every run of a fixed seed is
//! deterministic); `wall_ns` is checked within a ±30% budget and only
//! when both sides actually measured it, so a committed baseline with
//! `wall_ns = 0` gates byte-exactly. The page-IO ledger (`io_reads`,
//! `io_hit_rate`) follows the same back-compat rule: baselines written
//! before the paged store existed parse as 0 and are skipped by the
//! gate until regenerated.
//!
//! Wall-clock never enters this crate: collection is deterministic
//! unless the caller supplies a clock (`parqp-bench` passes
//! `parqp_testkit::bench::time_ns`, the workspace's one sanctioned
//! timing site).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use parqp_mpc::metrics;

/// Cluster sizes every experiment is measured at: a non-cube, a cube
/// (`3³`, exercising HyperCube's integer shares), and the CI default.
pub const METRICS_POINTS: &[usize] = &[8, 27, 64];

/// JSON schema tag of [`to_json`] output.
pub const SCHEMA: &str = "parqp-bench-metrics/v1";

/// Measured metrics of one `experiment/p` point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentPoint {
    /// Measured maximum per-server load, in the unit of the
    /// experiment's announced bound (tuples for joins and sorts, words
    /// for matmul).
    pub l: u64,
    /// Rounds the cluster ran.
    pub rounds: u64,
    /// `measured L / predicted L` against the primary announced bound,
    /// rounded to 4 decimals (0 when nothing was announced).
    pub bound_ratio: f64,
    /// Wall-clock nanoseconds for the run; 0 when collected without a
    /// clock (the deterministic mode the committed baseline uses).
    pub wall_ns: u64,
    /// Wall-clock nanoseconds for the same run under
    /// `ExecMode::Parallel` ([`collect_dual`]); 0 when unmeasured.
    /// Pre-parallel baselines omit the field and parse as 0, so the
    /// gate only budgets it once both sides measured it.
    pub wall_par_ns: u64,
    /// Total logical page reads charged by the paged store's buffer
    /// pools across the run (collection installs a default-config
    /// store, so every point measures IO). Pre-store baselines omit
    /// the field and parse as 0, which [`compare`] treats as
    /// unmeasured.
    pub io_reads: u64,
    /// Buffer-pool hit rate `1 − io_misses/io_reads`, rounded to 4
    /// decimals; 0 when no paged scan ran.
    pub io_hit_rate: f64,
    /// Worst per-round skew `L_max / L_mean` (in-memory only; not part
    /// of the v1 JSON schema, so parsed reports carry 0 here).
    pub skew: f64,
}

/// Measured serving metrics of one `parqp serve` workload preset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServePoint {
    /// Queries served per 1000 logical ticks.
    pub throughput: u64,
    /// 99th-percentile per-query load `L` in tuples (nearest rank).
    pub p99_l: u64,
    /// Plan-cache hit rate `hits / (hits + misses)`, rounded to 4
    /// decimals; 0 when the preset disables the cache.
    pub cache_hit_rate: f64,
}

/// SLO verdict of one serve preset's window series, evaluated against
/// the committed [`parqp_obs::SloRules::serve_steady`] objectives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPoint {
    /// Windows in the recorded series ([`SLO_WINDOW_TICKS`] ticks each).
    pub windows: u64,
    /// Burning windows summed across all enabled rules.
    pub burned: u64,
    /// Worst per-window p99 load `L` (tuples, log₂-bucket sketch).
    pub p99_l_worst: u64,
    /// Minimum per-window cache hit rate over windows with lookups,
    /// rounded to 4 decimals (1 when the preset never looks up).
    pub hit_rate_min: f64,
}

/// Metrics of every experiment × cluster-size point, keyed
/// `"<experiment>/p<P>"`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsReport {
    /// The seed every experiment ran under.
    pub seed: u64,
    /// Points in key order (`BTreeMap`, so serialization is canonical).
    pub experiments: BTreeMap<String, ExperimentPoint>,
    /// Serving-workload points keyed `"<preset>/p<P>"`. Empty in
    /// baselines written before `parqp serve` existed; [`to_json`]
    /// omits the section entirely then, and [`compare`] treats an
    /// empty baseline section as unmeasured.
    pub serve: BTreeMap<String, ServePoint>,
    /// SLO verdicts per serve preset, keyed like [`serve`](Self::serve).
    /// Same back-compat rule: omitted when empty, skipped by the gate
    /// until the baseline is regenerated.
    pub slo: BTreeMap<String, SloPoint>,
}

/// Window width (ticks) of the series behind the [`SloPoint`]s — the
/// same width `parqp dash` and the CI SLO gate default to.
pub const SLO_WINDOW_TICKS: u64 = 8;

/// The `parqp serve` workload presets measured by [`collect`], keyed by
/// the `"<preset>/p<P>"` name they get in the report: a steady cached
/// stream, the same stream with the cache disabled (cold), and the
/// cached stream under the default fault plan.
pub fn serve_presets(seed: u64) -> Vec<(&'static str, parqp_serve::ServeConfig)> {
    use parqp_serve::{FaultSetup, ServeConfig};
    let steady = ServeConfig {
        servers: 8,
        tenants: 4,
        templates: 3,
        groups: 8,
        ticks: 48,
        seed,
        cache_budget: 120_000,
        ..ServeConfig::default()
    };
    vec![
        ("steady/p8", steady.clone()),
        (
            "cold/p8",
            ServeConfig {
                cache_budget: 0,
                ..steady.clone()
            },
        ),
        (
            "faulted/p8",
            ServeConfig {
                faults: Some(FaultSetup::default()),
                ..steady
            },
        ),
    ]
}

/// Collect metrics for every experiment at every [`METRICS_POINTS`]
/// size, deterministically (no wall-clock).
pub fn collect(seed: u64) -> Result<MetricsReport, String> {
    collect_with(seed, None)
}

/// [`collect`], timing each run with `clock` (monotonic nanoseconds)
/// when one is supplied.
pub fn collect_with(seed: u64, clock: Option<&dyn Fn() -> u64>) -> Result<MetricsReport, String> {
    let mut experiments = BTreeMap::new();
    for e in crate::observe::EXPERIMENTS {
        for &p in METRICS_POINTS {
            let t0 = clock.map(|c| c());
            // Fresh default-config paged store per point: the cluster
            // drains its IO into the registry, so every point carries
            // the page-IO ledger beside the communication ledger.
            let _store = parqp_data::paged::install(parqp_data::paged::StoreConfig::default());
            let (registry, run) =
                metrics::capture(|| crate::observe::run_experiment_full(e.name, p, seed));
            run?;
            let wall_ns = match (clock, t0) {
                (Some(c), Some(t0)) => c().saturating_sub(t0),
                _ => 0,
            };
            let unit = registry.primary_bound().map(|b| b.unit).unwrap_or_default();
            let point = ExperimentPoint {
                l: registry.load_max(unit),
                rounds: registry.rounds(),
                bound_ratio: registry
                    .bound_ratio()
                    .map_or(0.0, |r| (r * 10_000.0).round() / 10_000.0),
                wall_ns,
                wall_par_ns: 0,
                io_reads: registry.io_reads(),
                io_hit_rate: (registry.io_hit_rate() * 10_000.0).round() / 10_000.0,
                skew: registry.max_skew_ratio(),
            };
            experiments.insert(format!("{}/p{p}", e.name), point);
        }
    }
    let mut serve = BTreeMap::new();
    let mut slo = BTreeMap::new();
    let rules = parqp_obs::SloRules::serve_steady();
    for (name, cfg) in serve_presets(seed) {
        // One observed replay feeds both the serve row and the SLO
        // verdict (replay + replay_observed would double the work and
        // the two must agree anyway — the series tiles the report).
        let (report, series) = parqp_serve::replay_observed(&cfg, SLO_WINDOW_TICKS)?;
        serve.insert(
            name.to_string(),
            ServePoint {
                throughput: report.throughput_per_kticks(),
                p99_l: report.l_percentile(99),
                cache_hit_rate: (report.cache.hit_rate() * 10_000.0).round() / 10_000.0,
            },
        );
        let verdict = rules.evaluate(&series);
        slo.insert(
            name.to_string(),
            SloPoint {
                windows: series.windows.len() as u64,
                burned: verdict.outcomes.iter().map(|o| o.burned.len() as u64).sum(),
                p99_l_worst: series.p99_l_worst(),
                hit_rate_min: (series.hit_rate_min() * 10_000.0).round() / 10_000.0,
            },
        );
    }
    Ok(MetricsReport {
        seed,
        experiments,
        serve,
        slo,
    })
}

/// [`collect_with`] a clock, then re-run every point under
/// [`parqp_mpc::ExecMode::Parallel`] with `workers` workers (0 = all
/// cores) and record the parallel wall-clock in `wall_par_ns`.
///
/// The parallel pass must reproduce the serial `L`, `rounds` and
/// `bound_ratio` exactly — any divergence is an error, not a report:
/// the two columns are only comparable if they measured the same
/// computation.
pub fn collect_dual(
    seed: u64,
    clock: &dyn Fn() -> u64,
    workers: usize,
) -> Result<MetricsReport, String> {
    let mut report = collect_with(seed, Some(clock))?;
    let _guard = parqp_mpc::exec::install(parqp_mpc::ExecMode::Parallel { workers })
        .map_err(|e| e.to_string())?;
    for e in crate::observe::EXPERIMENTS {
        for &p in METRICS_POINTS {
            let t0 = clock();
            let _store = parqp_data::paged::install(parqp_data::paged::StoreConfig::default());
            let (registry, run) =
                metrics::capture(|| crate::observe::run_experiment_full(e.name, p, seed));
            run?;
            let wall_par_ns = clock().saturating_sub(t0);
            let key = format!("{}/p{p}", e.name);
            let Some(pt) = report.experiments.get_mut(&key) else {
                return Err(format!("{key}: missing from the serial pass"));
            };
            let unit = registry.primary_bound().map(|b| b.unit).unwrap_or_default();
            let ratio = registry
                .bound_ratio()
                .map_or(0.0, |r| (r * 10_000.0).round() / 10_000.0);
            if registry.load_max(unit) != pt.l
                || registry.rounds() != pt.rounds
                || (ratio - pt.bound_ratio).abs() > 1e-9
                || registry.io_reads() != pt.io_reads
            {
                return Err(format!(
                    "{key}: parallel run diverged from serial \
                     (L {} vs {}, rounds {} vs {}, io_reads {} vs {})",
                    registry.load_max(unit),
                    pt.l,
                    registry.rounds(),
                    pt.rounds,
                    registry.io_reads(),
                    pt.io_reads
                ));
            }
            pt.wall_par_ns = wall_par_ns;
        }
    }
    Ok(report)
}

/// Serialize to the `parqp-bench-metrics/v1` JSON document. Key order
/// and float formatting are canonical, so equal reports are
/// byte-identical.
pub fn to_json(report: &MetricsReport) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(s, "  \"seed\": {},", report.seed);
    let _ = writeln!(s, "  \"experiments\": {{");
    let last = report.experiments.len().saturating_sub(1);
    for (i, (key, pt)) in report.experiments.iter().enumerate() {
        let _ = write!(
            s,
            "    \"{key}\": {{\"L\": {}, \"rounds\": {}, \"bound_ratio\": {:.4}, \
             \"wall_ns\": {}, \"wall_par_ns\": {}, \"io_reads\": {}, \"io_hit_rate\": {:.4}}}",
            pt.l,
            pt.rounds,
            pt.bound_ratio,
            pt.wall_ns,
            pt.wall_par_ns,
            pt.io_reads,
            pt.io_hit_rate
        );
        s.push_str(if i == last { "\n" } else { ",\n" });
    }
    s.push_str("  }");
    // The serve section is omitted (not emitted empty) so documents
    // written before `parqp serve` existed stay canonical round-trips.
    if !report.serve.is_empty() {
        s.push_str(",\n  \"serve\": {\n");
        let last = report.serve.len().saturating_sub(1);
        for (i, (key, pt)) in report.serve.iter().enumerate() {
            let _ = write!(
                s,
                "    \"{key}\": {{\"throughput\": {}, \"p99_l\": {}, \"cache_hit_rate\": {:.4}}}",
                pt.throughput, pt.p99_l, pt.cache_hit_rate
            );
            s.push_str(if i == last { "\n" } else { ",\n" });
        }
        s.push_str("  }");
    }
    // The slo section follows the serve rule: omitted when empty so
    // older documents stay canonical round-trips.
    if !report.slo.is_empty() {
        s.push_str(",\n  \"slo\": {\n");
        let last = report.slo.len().saturating_sub(1);
        for (i, (key, pt)) in report.slo.iter().enumerate() {
            let _ = write!(
                s,
                "    \"{key}\": {{\"windows\": {}, \"burned\": {}, \"p99_l_worst\": {}, \
                 \"hit_rate_min\": {:.4}}}",
                pt.windows, pt.burned, pt.p99_l_worst, pt.hit_rate_min
            );
            s.push_str(if i == last { "\n" } else { ",\n" });
        }
        s.push_str("  }");
    }
    s.push_str("\n}\n");
    s
}

/// Parse a document [`to_json`] wrote (line-oriented, like the lint's
/// TOML reader: enough for the schema we emit, not a general parser).
pub fn from_json(src: &str) -> Result<MetricsReport, String> {
    let mut report = MetricsReport::default();
    let mut saw_schema = false;
    for line in src.lines() {
        let t = line.trim().trim_end_matches(',');
        if let Some(rest) = t.strip_prefix("\"schema\":") {
            let got = rest.trim().trim_matches('"');
            if got != SCHEMA {
                return Err(format!("unsupported schema {got:?} (want {SCHEMA:?})"));
            }
            saw_schema = true;
        } else if let Some(rest) = t.strip_prefix("\"seed\":") {
            report.seed = rest
                .trim()
                .parse()
                .map_err(|e| format!("bad seed value: {e}"))?;
        } else if t.starts_with('"') && t.contains("\"throughput\":") {
            // A serve-preset entry (absent in pre-serve baselines, which
            // simply leave the map empty).
            let key = t
                .split('"')
                .nth(1)
                .ok_or_else(|| format!("malformed serve entry: {t}"))?;
            let point = ServePoint {
                throughput: field(t, "throughput")?
                    .parse()
                    .map_err(|e| format!("{key} throughput: {e}"))?,
                p99_l: field(t, "p99_l")?
                    .parse()
                    .map_err(|e| format!("{key} p99_l: {e}"))?,
                cache_hit_rate: field(t, "cache_hit_rate")?
                    .parse()
                    .map_err(|e| format!("{key} cache_hit_rate: {e}"))?,
            };
            report.serve.insert(key.to_string(), point);
        } else if t.starts_with('"') && t.contains("\"p99_l_worst\":") {
            // An slo-verdict entry (absent in pre-obs baselines).
            let key = t
                .split('"')
                .nth(1)
                .ok_or_else(|| format!("malformed slo entry: {t}"))?;
            let point = SloPoint {
                windows: field(t, "windows")?
                    .parse()
                    .map_err(|e| format!("{key} windows: {e}"))?,
                burned: field(t, "burned")?
                    .parse()
                    .map_err(|e| format!("{key} burned: {e}"))?,
                p99_l_worst: field(t, "p99_l_worst")?
                    .parse()
                    .map_err(|e| format!("{key} p99_l_worst: {e}"))?,
                hit_rate_min: field(t, "hit_rate_min")?
                    .parse()
                    .map_err(|e| format!("{key} hit_rate_min: {e}"))?,
            };
            report.slo.insert(key.to_string(), point);
        } else if t.starts_with('"') && t.contains("\"L\":") {
            let key = t
                .split('"')
                .nth(1)
                .ok_or_else(|| format!("malformed metrics entry: {t}"))?;
            let point = ExperimentPoint {
                l: field(t, "L")?
                    .parse()
                    .map_err(|e| format!("{key} L: {e}"))?,
                rounds: field(t, "rounds")?
                    .parse()
                    .map_err(|e| format!("{key} rounds: {e}"))?,
                bound_ratio: field(t, "bound_ratio")?
                    .parse()
                    .map_err(|e| format!("{key} bound_ratio: {e}"))?,
                wall_ns: field(t, "wall_ns")?
                    .parse()
                    .map_err(|e| format!("{key} wall_ns: {e}"))?,
                // Absent in pre-parallel baselines: default to unmeasured.
                wall_par_ns: match field(t, "wall_par_ns") {
                    Ok(v) => v.parse().map_err(|e| format!("{key} wall_par_ns: {e}"))?,
                    Err(_) => 0,
                },
                // Absent in pre-store baselines: default to unmeasured.
                io_reads: match field(t, "io_reads") {
                    Ok(v) => v.parse().map_err(|e| format!("{key} io_reads: {e}"))?,
                    Err(_) => 0,
                },
                io_hit_rate: match field(t, "io_hit_rate") {
                    Ok(v) => v.parse().map_err(|e| format!("{key} io_hit_rate: {e}"))?,
                    Err(_) => 0.0,
                },
                skew: 0.0,
            };
            report.experiments.insert(key.to_string(), point);
        }
    }
    if !saw_schema {
        return Err(format!("not a {SCHEMA} document (no schema line)"));
    }
    Ok(report)
}

/// The raw text of one `"name": value` field inside an entry line.
fn field<'a>(entry: &'a str, name: &str) -> Result<&'a str, String> {
    let tag = format!("\"{name}\":");
    let at = entry
        .find(&tag)
        .ok_or_else(|| format!("missing field {name:?} in: {entry}"))?;
    let rest = entry.get(at + tag.len()..).unwrap_or_default();
    Ok(rest.split([',', '}']).next().unwrap_or(rest).trim())
}

/// Fraction by which `wall_ns` may grow over the baseline before the
/// gate fails (±30%; shrinking is never a regression).
pub const WALL_BUDGET: f64 = 0.30;

/// The perf gate: every regression of `current` against `baseline`,
/// empty when the gate passes.
///
/// `L`, `rounds` and `bound_ratio` must match exactly — collection is
/// deterministic at a fixed seed, so any drift is a real behavior
/// change. `wall_ns` is budgeted (±[`WALL_BUDGET`]) and skipped when
/// either side reads 0 (unmeasured).
pub fn compare(baseline: &MetricsReport, current: &MetricsReport) -> Vec<String> {
    let mut out = Vec::new();
    if baseline.seed != current.seed {
        out.push(format!(
            "seed mismatch: baseline {} vs current {}",
            baseline.seed, current.seed
        ));
    }
    for (key, b) in &baseline.experiments {
        let Some(c) = current.experiments.get(key) else {
            out.push(format!("{key}: missing from current run"));
            continue;
        };
        if b.l != c.l {
            out.push(format!("{key}: L changed {} → {}", b.l, c.l));
        }
        if b.rounds != c.rounds {
            out.push(format!("{key}: rounds changed {} → {}", b.rounds, c.rounds));
        }
        if (b.bound_ratio - c.bound_ratio).abs() > 1e-9 {
            out.push(format!(
                "{key}: bound_ratio changed {:.4} → {:.4}",
                b.bound_ratio, c.bound_ratio
            ));
        }
        // The IO ledger is deterministic like L/rounds, but pre-store
        // baselines carry 0 (unmeasured) — gate only once the baseline
        // has been regenerated with a measured ledger.
        if b.io_reads > 0 {
            if b.io_reads != c.io_reads {
                out.push(format!(
                    "{key}: io_reads changed {} → {}",
                    b.io_reads, c.io_reads
                ));
            }
            if (b.io_hit_rate - c.io_hit_rate).abs() > 1e-9 {
                out.push(format!(
                    "{key}: io_hit_rate changed {:.4} → {:.4}",
                    b.io_hit_rate, c.io_hit_rate
                ));
            }
        }
        for (name, bw, cw) in [
            ("wall_ns", b.wall_ns, c.wall_ns),
            ("wall_par_ns", b.wall_par_ns, c.wall_par_ns),
        ] {
            if bw > 0 && cw > 0 {
                let grew = cw as f64 / bw as f64 - 1.0;
                if grew > WALL_BUDGET {
                    out.push(format!(
                        "{key}: {name} grew {bw} → {cw} (+{:.0}%, budget {:.0}%)",
                        grew * 100.0,
                        WALL_BUDGET * 100.0
                    ));
                }
            }
        }
    }
    for key in current.experiments.keys() {
        if !baseline.experiments.contains_key(key) {
            out.push(format!(
                "{key}: not in baseline (regenerate it to admit new points)"
            ));
        }
    }
    // Serving points are deterministic like L/rounds, but a baseline
    // written before `parqp serve` existed carries no section at all —
    // skip the whole family until the baseline is regenerated.
    if !baseline.serve.is_empty() {
        for (key, b) in &baseline.serve {
            let Some(c) = current.serve.get(key) else {
                out.push(format!("serve {key}: missing from current run"));
                continue;
            };
            if b.throughput != c.throughput {
                out.push(format!(
                    "serve {key}: throughput changed {} → {}",
                    b.throughput, c.throughput
                ));
            }
            if b.p99_l != c.p99_l {
                out.push(format!(
                    "serve {key}: p99_l changed {} → {}",
                    b.p99_l, c.p99_l
                ));
            }
            if (b.cache_hit_rate - c.cache_hit_rate).abs() > 1e-9 {
                out.push(format!(
                    "serve {key}: cache_hit_rate changed {:.4} → {:.4}",
                    b.cache_hit_rate, c.cache_hit_rate
                ));
            }
        }
        for key in current.serve.keys() {
            if !baseline.serve.contains_key(key) {
                out.push(format!(
                    "serve {key}: not in baseline (regenerate it to admit new points)"
                ));
            }
        }
    }
    // SLO verdicts are deterministic; pre-obs baselines carry no
    // section and skip the family, like serve.
    if !baseline.slo.is_empty() {
        for (key, b) in &baseline.slo {
            let Some(c) = current.slo.get(key) else {
                out.push(format!("slo {key}: missing from current run"));
                continue;
            };
            if b.windows != c.windows {
                out.push(format!(
                    "slo {key}: windows changed {} → {}",
                    b.windows, c.windows
                ));
            }
            if b.burned != c.burned {
                out.push(format!(
                    "slo {key}: burned windows changed {} → {}",
                    b.burned, c.burned
                ));
            }
            if b.p99_l_worst != c.p99_l_worst {
                out.push(format!(
                    "slo {key}: p99_l_worst changed {} → {}",
                    b.p99_l_worst, c.p99_l_worst
                ));
            }
            if (b.hit_rate_min - c.hit_rate_min).abs() > 1e-9 {
                out.push(format!(
                    "slo {key}: hit_rate_min changed {:.4} → {:.4}",
                    b.hit_rate_min, c.hit_rate_min
                ));
            }
        }
        for key in current.slo.keys() {
            if !baseline.slo.contains_key(key) {
                out.push(format!(
                    "slo {key}: not in baseline (regenerate it to admit new points)"
                ));
            }
        }
    }
    out
}

/// Render a report as an aligned text table, one row per point.
pub fn table(report: &MetricsReport) -> String {
    let mut s = format!(
        "bound-adherence metrics, seed {} ({} points)\n",
        report.seed,
        report.experiments.len()
    );
    s.push_str(
        "experiment              p      L_meas  rounds  bound_ratio   skew       wall  \
         wall(par)   io_reads  io_hit\n",
    );
    for (key, pt) in &report.experiments {
        let (name, p) = key.rsplit_once("/p").unwrap_or((key.as_str(), "?"));
        let ratio = if pt.bound_ratio > 0.0 {
            format!("{:.4}", pt.bound_ratio)
        } else {
            "-".into()
        };
        let ms = |ns: u64| {
            if ns > 0 {
                format!("{:.2} ms", ns as f64 / 1e6)
            } else {
                "-".into()
            }
        };
        let (wall, wall_par) = (ms(pt.wall_ns), ms(pt.wall_par_ns));
        let (io_reads, io_hit) = if pt.io_reads > 0 {
            (pt.io_reads.to_string(), format!("{:.4}", pt.io_hit_rate))
        } else {
            ("-".into(), "-".into())
        };
        let _ = writeln!(
            s,
            "{name:<21} {p:>4} {:>11} {:>7} {ratio:>12} {:>6.2} {wall:>10} {wall_par:>10} \
             {io_reads:>10} {io_hit:>7}",
            pt.l, pt.rounds, pt.skew
        );
    }
    if !report.serve.is_empty() {
        s.push_str("\nserve preset            p  throughput/kticks   p99(L)  cache_hit\n");
        for (key, pt) in &report.serve {
            let (name, p) = key.rsplit_once("/p").unwrap_or((key.as_str(), "?"));
            let _ = writeln!(
                s,
                "{name:<21} {p:>4} {:>18} {:>8} {:>10.4}",
                pt.throughput, pt.p99_l, pt.cache_hit_rate
            );
        }
    }
    if !report.slo.is_empty() {
        s.push_str("\nslo verdict             p    windows   burned  p99(L)worst  hit_rate_min\n");
        for (key, pt) in &report.slo {
            let (name, p) = key.rsplit_once("/p").unwrap_or((key.as_str(), "?"));
            let _ = writeln!(
                s,
                "{name:<21} {p:>4} {:>10} {:>8} {:>12} {:>13.4}",
                pt.windows, pt.burned, pt.p99_l_worst, pt.hit_rate_min
            );
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsReport {
        let mut experiments = BTreeMap::new();
        experiments.insert(
            "psrs/p8".to_string(),
            ExperimentPoint {
                l: 5000,
                rounds: 2,
                bound_ratio: 1.0312,
                wall_ns: 0,
                wall_par_ns: 0,
                io_reads: 0,
                io_hit_rate: 0.0,
                skew: 1.1,
            },
        );
        experiments.insert(
            "matmul-square/p27".to_string(),
            ExperimentPoint {
                l: 108,
                rounds: 3,
                bound_ratio: 1.0,
                wall_ns: 2_000_000,
                wall_par_ns: 1_000_000,
                io_reads: 4096,
                io_hit_rate: 0.875,
                skew: 1.0,
            },
        );
        let mut serve = BTreeMap::new();
        serve.insert(
            "steady/p8".to_string(),
            ServePoint {
                throughput: 1200,
                p99_l: 950,
                cache_hit_rate: 0.7347,
            },
        );
        serve.insert(
            "cold/p8".to_string(),
            ServePoint {
                throughput: 1200,
                p99_l: 950,
                cache_hit_rate: 0.0,
            },
        );
        let mut slo = BTreeMap::new();
        slo.insert(
            "steady/p8".to_string(),
            SloPoint {
                windows: 6,
                burned: 1,
                p99_l_worst: 1024,
                hit_rate_min: 0.5,
            },
        );
        slo.insert(
            "cold/p8".to_string(),
            SloPoint {
                windows: 6,
                burned: 6,
                p99_l_worst: 1024,
                hit_rate_min: 0.0,
            },
        );
        MetricsReport {
            seed: 42,
            experiments,
            serve,
            slo,
        }
    }

    #[test]
    fn json_roundtrip_is_lossless_except_skew() {
        let report = sample();
        let json = to_json(&report);
        let parsed = from_json(&json).expect("own output parses");
        assert_eq!(parsed.seed, report.seed);
        assert_eq!(parsed.experiments.len(), report.experiments.len());
        for (key, pt) in &report.experiments {
            let got = parsed.experiments[key];
            assert_eq!(
                (
                    got.l,
                    got.rounds,
                    got.wall_ns,
                    got.wall_par_ns,
                    got.io_reads
                ),
                (pt.l, pt.rounds, pt.wall_ns, pt.wall_par_ns, pt.io_reads)
            );
            assert!((got.bound_ratio - pt.bound_ratio).abs() < 1e-9);
            assert!((got.io_hit_rate - pt.io_hit_rate).abs() < 1e-9);
            assert_eq!(got.skew, 0.0, "skew is not serialized");
        }
        // Canonical: serializing the parse reproduces the bytes.
        let mut report_no_skew = parsed.clone();
        assert_eq!(to_json(&report_no_skew), json);
        report_no_skew.seed += 1;
        assert_ne!(to_json(&report_no_skew), json);
    }

    #[test]
    fn from_json_accepts_pre_parallel_baselines() {
        // A v1 document written before wall_par_ns existed must parse
        // with the field defaulting to unmeasured.
        let json = to_json(&sample()).replace(", \"wall_par_ns\": 0", "");
        let parsed = from_json(&json).expect("old schema parses");
        assert_eq!(parsed.experiments["psrs/p8"].wall_par_ns, 0);
        // The matmul point still had its own wall_par_ns line intact.
        assert_eq!(
            parsed.experiments["matmul-square/p27"].wall_par_ns,
            1_000_000
        );
    }

    #[test]
    fn from_json_accepts_pre_store_baselines() {
        // A v1 document written before the page-IO ledger existed must
        // parse with both io fields defaulting to unmeasured.
        let json = to_json(&sample())
            .replace(", \"io_reads\": 4096, \"io_hit_rate\": 0.8750", "")
            .replace(", \"io_reads\": 0, \"io_hit_rate\": 0.0000", "");
        assert!(!json.contains("io_reads"), "fields really stripped");
        let parsed = from_json(&json).expect("old schema parses");
        for pt in parsed.experiments.values() {
            assert_eq!(pt.io_reads, 0);
            assert_eq!(pt.io_hit_rate, 0.0);
        }
        // And compare treats the unmeasured baseline as passing against
        // a current run that does measure IO.
        assert!(compare(&parsed, &sample()).is_empty());
    }

    #[test]
    fn json_roundtrip_preserves_the_serve_section() {
        let report = sample();
        let parsed = from_json(&to_json(&report)).expect("own output parses");
        assert_eq!(parsed.serve.len(), 2);
        let steady = parsed.serve["steady/p8"];
        assert_eq!(steady.throughput, 1200);
        assert_eq!(steady.p99_l, 950);
        assert!((steady.cache_hit_rate - 0.7347).abs() < 1e-9);
    }

    #[test]
    fn from_json_accepts_pre_serve_baselines() {
        // A v1 document written before `parqp serve` existed has no
        // serve section at all; it must parse with the map empty, and
        // compare must skip the whole family.
        let mut old = sample();
        old.serve.clear();
        old.slo.clear();
        let json = to_json(&old);
        assert!(!json.contains("serve"), "section really omitted");
        let parsed = from_json(&json).expect("old schema parses");
        assert!(parsed.serve.is_empty());
        assert!(compare(&parsed, &sample()).is_empty());
        // And the omitted section keeps the document canonical.
        assert_eq!(to_json(&parsed), json);
    }

    #[test]
    fn compare_flags_serve_drift_exactly() {
        let baseline = sample();
        let mut current = sample();
        {
            let pt = current.serve.get_mut("steady/p8").expect("point");
            pt.throughput += 10;
            pt.p99_l -= 1;
            pt.cache_hit_rate += 0.1;
        }
        let msgs = compare(&baseline, &current);
        assert_eq!(msgs.len(), 3, "got: {msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("throughput changed")));
        assert!(msgs.iter().any(|m| m.contains("p99_l changed")));
        assert!(msgs.iter().any(|m| m.contains("cache_hit_rate changed")));
        // Missing and extra serve points are flagged once the baseline
        // has a section at all.
        let mut current = sample();
        let moved = current.serve.remove("cold/p8").expect("point");
        current.serve.insert("new/p8".to_string(), moved);
        let msgs = compare(&baseline, &current);
        assert!(msgs.iter().any(|m| m.contains("serve cold/p8: missing")));
        assert!(msgs
            .iter()
            .any(|m| m.contains("serve new/p8: not in baseline")));
    }

    #[test]
    fn json_roundtrip_preserves_the_slo_section() {
        let report = sample();
        let parsed = from_json(&to_json(&report)).expect("own output parses");
        assert_eq!(parsed.slo.len(), 2);
        let steady = parsed.slo["steady/p8"];
        assert_eq!(steady.windows, 6);
        assert_eq!(steady.burned, 1);
        assert_eq!(steady.p99_l_worst, 1024);
        assert!((steady.hit_rate_min - 0.5).abs() < 1e-9);
    }

    #[test]
    fn from_json_accepts_pre_obs_baselines() {
        // A v1 document written before the obs layer existed has no slo
        // section; it parses empty and the gate skips the family.
        let mut old = sample();
        old.slo.clear();
        let json = to_json(&old);
        assert!(!json.contains("slo"), "section really omitted");
        let parsed = from_json(&json).expect("old schema parses");
        assert!(parsed.slo.is_empty());
        assert!(compare(&parsed, &sample()).is_empty());
        assert_eq!(to_json(&parsed), json);
    }

    #[test]
    fn compare_flags_slo_drift_exactly() {
        let baseline = sample();
        let mut current = sample();
        {
            let pt = current.slo.get_mut("steady/p8").expect("point");
            pt.windows += 1;
            pt.burned += 1;
            pt.p99_l_worst *= 2;
            pt.hit_rate_min -= 0.1;
        }
        let msgs = compare(&baseline, &current);
        assert_eq!(msgs.len(), 4, "got: {msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("windows changed")));
        assert!(msgs.iter().any(|m| m.contains("burned windows changed")));
        assert!(msgs.iter().any(|m| m.contains("p99_l_worst changed")));
        assert!(msgs.iter().any(|m| m.contains("hit_rate_min changed")));
        let mut current = sample();
        let moved = current.slo.remove("cold/p8").expect("point");
        current.slo.insert("new/p8".to_string(), moved);
        let msgs = compare(&baseline, &current);
        assert!(msgs.iter().any(|m| m.contains("slo cold/p8: missing")));
        assert!(msgs
            .iter()
            .any(|m| m.contains("slo new/p8: not in baseline")));
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(from_json("{}").is_err());
        assert!(from_json("{\"schema\": \"other/v9\"}").is_err());
        let broken = to_json(&sample()).replace("\"L\": 5000", "\"L\": x");
        assert!(from_json(&broken).is_err());
    }

    #[test]
    fn compare_passes_on_identical_reports() {
        assert!(compare(&sample(), &sample()).is_empty());
    }

    #[test]
    fn compare_flags_exact_field_drift() {
        let baseline = sample();
        let mut current = sample();
        let pt = current.experiments.get_mut("psrs/p8").expect("point");
        pt.l += 1;
        pt.rounds += 1;
        pt.bound_ratio += 0.5;
        let msgs = compare(&baseline, &current);
        assert_eq!(msgs.len(), 3, "got: {msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("L changed")));
        assert!(msgs.iter().any(|m| m.contains("rounds changed")));
        assert!(msgs.iter().any(|m| m.contains("bound_ratio changed")));
    }

    #[test]
    fn compare_flags_io_drift_only_when_baseline_measured() {
        let baseline = sample();
        let mut current = sample();
        // Drift on a measured baseline point is exact-gated.
        {
            let pt = current
                .experiments
                .get_mut("matmul-square/p27")
                .expect("point");
            pt.io_reads += 1;
            pt.io_hit_rate -= 0.01;
        }
        let msgs = compare(&baseline, &current);
        assert_eq!(msgs.len(), 2, "got: {msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("io_reads changed")));
        assert!(msgs.iter().any(|m| m.contains("io_hit_rate changed")));
        // The psrs point's baseline is unmeasured (io_reads = 0): a
        // current run that measures IO there is not a regression.
        let mut current = sample();
        current
            .experiments
            .get_mut("psrs/p8")
            .expect("point")
            .io_reads = 123_456;
        assert!(compare(&baseline, &current).is_empty());
    }

    #[test]
    fn compare_budgets_wall_clock_and_skips_unmeasured() {
        let baseline = sample();
        let mut current = sample();
        // +25% is inside the budget.
        current
            .experiments
            .get_mut("matmul-square/p27")
            .expect("point")
            .wall_ns = 2_500_000;
        assert!(compare(&baseline, &current).is_empty());
        // +50% is a regression.
        current
            .experiments
            .get_mut("matmul-square/p27")
            .expect("point")
            .wall_ns = 3_000_000;
        let msgs = compare(&baseline, &current);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("wall_ns grew"));
        // The psrs point has baseline wall_ns = 0: never checked.
        current
            .experiments
            .get_mut("psrs/p8")
            .expect("point")
            .wall_ns = u64::MAX;
        assert_eq!(compare(&baseline, &current).len(), 1);
    }

    #[test]
    fn compare_budgets_parallel_wall_clock_independently() {
        let baseline = sample();
        let mut current = sample();
        // Parallel wall regresses while serial wall stays put.
        current
            .experiments
            .get_mut("matmul-square/p27")
            .expect("point")
            .wall_par_ns = 2_000_000;
        let msgs = compare(&baseline, &current);
        assert_eq!(msgs.len(), 1, "got: {msgs:?}");
        assert!(msgs[0].contains("wall_par_ns grew"));
        // Unmeasured on either side: never checked.
        current
            .experiments
            .get_mut("matmul-square/p27")
            .expect("point")
            .wall_par_ns = 0;
        assert!(compare(&baseline, &current).is_empty());
    }

    #[test]
    fn collect_dual_times_both_modes_and_matches_serial_metrics() {
        use std::cell::Cell;
        let ticks = Cell::new(0u64);
        let clock = move || {
            ticks.set(ticks.get() + 1_000);
            ticks.get()
        };
        let dual = collect_dual(7, &clock, 2).expect("dual collect runs");
        let serial = collect(7).expect("collect runs");
        assert_eq!(dual.experiments.len(), serial.experiments.len());
        for (key, pt) in &dual.experiments {
            let s = serial.experiments[key];
            assert_eq!((pt.l, pt.rounds), (s.l, s.rounds), "{key}");
            assert!((pt.bound_ratio - s.bound_ratio).abs() < 1e-9, "{key}");
            assert_eq!(pt.io_reads, s.io_reads, "{key}: io ledger diverged");
            assert!(pt.wall_ns > 0, "{key}: serial pass untimed");
            assert!(pt.wall_par_ns > 0, "{key}: parallel pass untimed");
        }
    }

    #[test]
    fn compare_flags_missing_and_extra_points() {
        let baseline = sample();
        let mut current = sample();
        let moved = current.experiments.remove("psrs/p8").expect("point");
        current.experiments.insert("new/p8".to_string(), moved);
        let msgs = compare(&baseline, &current);
        assert!(msgs.iter().any(|m| m.contains("psrs/p8: missing")));
        assert!(msgs.iter().any(|m| m.contains("new/p8: not in baseline")));
    }

    #[test]
    fn table_renders_one_row_per_point() {
        let s = sample();
        let t = table(&s);
        // Experiment header (2 lines) + rows, then blank-line-headed
        // serve and slo sections with one row per preset each.
        assert_eq!(
            t.lines().count(),
            2 + s.experiments.len() + 2 + s.serve.len() + 2 + s.slo.len()
        );
        assert!(t.contains("bound_ratio"));
        assert!(t.contains("psrs"));
        assert!(t.contains("serve preset"));
        assert!(t.contains("slo verdict"));
        assert!(t.contains("steady"));
        // Unmeasured wall-clock renders as "-".
        assert!(t.lines().any(|l| l.contains("psrs") && l.ends_with('-')));
    }

    #[test]
    fn collect_covers_every_experiment_and_point() {
        let report = collect(7).expect("collect runs");
        assert_eq!(
            report.experiments.len(),
            crate::observe::EXPERIMENTS.len() * METRICS_POINTS.len()
        );
        for (key, pt) in &report.experiments {
            assert!(pt.l > 0, "{key}: zero load");
            assert!(pt.rounds > 0, "{key}: zero rounds");
            // Every experiment announces a bound. Mean-load bounds give
            // ratios ≥ 1 (measured max ≥ mean); worst-case guarantees
            // (skewhc) may dip just below 1 — but never near zero.
            assert!(
                pt.bound_ratio > 0.5,
                "{key}: ratio {} implausibly low",
                pt.bound_ratio
            );
            assert_eq!(pt.wall_ns, 0, "{key}: clockless collection timed itself");
            assert!(pt.skew >= 1.0, "{key}: skew {} < 1", pt.skew);
            // Collection installs a default store, so every experiment's
            // scans charge the IO ledger.
            assert!(pt.io_reads > 0, "{key}: no page IO measured");
            assert!(
                pt.io_hit_rate > 0.0 && pt.io_hit_rate <= 1.0,
                "{key}: implausible hit rate {}",
                pt.io_hit_rate
            );
        }
        assert_eq!(report.serve.len(), serve_presets(7).len());
        for (key, pt) in &report.serve {
            assert!(pt.throughput > 0, "{key}: zero throughput");
            assert!(pt.p99_l > 0, "{key}: zero p99 load");
        }
        // The cached presets hit, the cold preset cannot.
        assert!(report.serve["steady/p8"].cache_hit_rate > 0.0);
        assert_eq!(report.serve["cold/p8"].cache_hit_rate, 0.0);
        // Every serve preset carries an SLO verdict over the same
        // replay, windowed on the tick clock.
        assert_eq!(
            report.slo.keys().collect::<Vec<_>>(),
            report.serve.keys().collect::<Vec<_>>()
        );
        for (key, pt) in &report.slo {
            let cfg = &serve_presets(7)
                .into_iter()
                .find(|(name, _)| name == key)
                .expect("preset exists")
                .1;
            assert_eq!(pt.windows, cfg.ticks.div_ceil(SLO_WINDOW_TICKS), "{key}");
            assert!(pt.p99_l_worst > 0, "{key}: zero worst p99");
        }
        // The cold preset keeps its cache off all run, so the hit-rate
        // floor never has lookups to judge: its minimum stays 1.
        assert!((report.slo["cold/p8"].hit_rate_min - 1.0).abs() < 1e-9);
    }

    #[test]
    fn clocked_collection_times_runs() {
        // A fake monotonic clock: every read advances 1 µs.
        use std::cell::Cell;
        let ticks = Cell::new(0u64);
        let clock = move || {
            ticks.set(ticks.get() + 1_000);
            ticks.get()
        };
        let report = collect_with(7, Some(&clock)).expect("collect runs");
        assert!(report.experiments.values().all(|pt| pt.wall_ns > 0));
    }
}
