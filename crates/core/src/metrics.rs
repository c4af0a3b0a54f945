//! Bound-adherence metrics over the named [`observe`](crate::observe)
//! experiments: the `parqp metrics` subcommand and the CI counts gate.
//!
//! Each experiment is run under an installed
//! [`parqp_mpc::metrics`] registry at every cluster size in
//! [`METRICS_POINTS`]. The algorithms announce their paper bound (the
//! predicted per-server load `L` and round count) on the way in; the
//! cluster feeds the registry the same event stream the trace sees; and
//! the resulting [`MetricsReport`] carries, per `experiment/p` point,
//! the measured `L`, the round count of the run's own ledger, the
//! **bound ratio** `measured L / predicted L` — the number the
//! tutorial's theorems say should hover just above 1 — and the page-IO
//! ledger.
//!
//! Reports serialize to the `parqp-bench-metrics/v2` JSON schema, and
//! the one committed document is `BENCH_parqp.json` at the repository
//! root. Every column is a count or a ratio of counts, a pure function
//! of the seed, so [`compare`] — the gate behind `parqp metrics
//! --check` — demands the canonical text of every cell to match, and
//! [`from_json`] refuses a document that is missing a section or a
//! field or carries one it does not know. Each point type lists its
//! columns once (`Point::COLUMNS`); writing, parsing, comparing and
//! tabulating all walk that list.
//!
//! There is no time here. Wall-clock is measured by the `perf` program
//! (`BENCHMARK.json`) and nowhere else.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use parqp_mpc::metrics;

/// Cluster sizes every experiment is measured at: a non-cube, a cube
/// (`3³`, exercising HyperCube's integer shares), and the CI default.
pub const METRICS_POINTS: &[usize] = &[8, 27, 64];

/// JSON schema tag of [`to_json`] output.
pub const SCHEMA: &str = "parqp-bench-metrics/v2";

/// One column of a point type: its name (JSON field and table header)
/// and the field it reads and writes.
enum Column<P> {
    /// An exact count, written as a decimal integer.
    Count(&'static str, fn(&mut P) -> &mut u64),
    /// A ratio, rounded to 4 decimals by [`collect`] and written `{:.4}`.
    Ratio(&'static str, fn(&mut P) -> &mut f64),
}

impl<P: Copy> Column<P> {
    fn name(&self) -> &'static str {
        match *self {
            Column::Count(name, _) | Column::Ratio(name, _) => name,
        }
    }

    /// The cell's canonical text: what [`to_json`] writes, [`table`]
    /// prints and [`compare`] compares. One `&mut` accessor serves both
    /// directions, so reading goes through a copy of the point.
    fn text(&self, point: &P) -> String {
        let mut point = *point;
        match *self {
            Column::Count(_, at) => at(&mut point).to_string(),
            Column::Ratio(_, at) => format!("{:.4}", at(&mut point)),
        }
    }

    fn parse(&self, point: &mut P, raw: &str) -> Result<(), String> {
        fn cell<T: std::str::FromStr<Err: std::fmt::Display>>(raw: &str) -> Result<T, String> {
            raw.parse().map_err(|e| format!("{raw:?}: {e}"))
        }
        match *self {
            Column::Count(_, at) => *at(point) = cell(raw)?,
            Column::Ratio(_, at) => *at(point) = cell(raw)?,
        }
        Ok(())
    }
}

/// A row type of the report: one JSON section, one table, one column
/// list.
trait Point: Copy + Default + 'static {
    /// Name of the JSON section and of the table, and the prefix of
    /// [`compare`] messages.
    const SECTION: &'static str;
    /// Every column, in document order.
    const COLUMNS: &'static [Column<Self>];
}

/// Measured metrics of one `experiment/p` point.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExperimentPoint {
    /// Measured maximum per-server load, in the unit of the
    /// experiment's announced bound (tuples for joins and sorts, words
    /// for matmul).
    pub l: u64,
    /// Rounds of the run's own `LoadReport`. An algorithm that runs
    /// sub-clusters side by side (`LoadReport::parallel`, the skew
    /// join's heavy hitters) counts them as the one round they are; the
    /// trace, which sees every exchange, shows one round each.
    pub rounds: u64,
    /// `measured L / predicted L` against the primary announced bound
    /// (0 when nothing was announced).
    pub bound_ratio: f64,
    /// Total logical page reads charged by the paged store's buffer
    /// pools across the run (collection installs a default-config
    /// store, so every point measures IO).
    pub io_reads: u64,
    /// Buffer-pool hit rate `1 − io_misses/io_reads`; 0 when no paged
    /// scan ran.
    pub io_hit_rate: f64,
}

impl Point for ExperimentPoint {
    const SECTION: &'static str = "experiments";
    const COLUMNS: &'static [Column<Self>] = &[
        Column::Count("L", |p| &mut p.l),
        Column::Count("rounds", |p| &mut p.rounds),
        Column::Ratio("bound_ratio", |p| &mut p.bound_ratio),
        Column::Count("io_reads", |p| &mut p.io_reads),
        Column::Ratio("io_hit_rate", |p| &mut p.io_hit_rate),
    ];
}

/// Measured serving metrics of one `parqp serve` workload preset.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServePoint {
    /// 99th-percentile per-query load `L` in tuples (nearest rank).
    pub p99_l: u64,
    /// Plan-cache hit rate `hits / (hits + misses)`; 0 when the preset
    /// disables the cache.
    pub cache_hit_rate: f64,
}

impl Point for ServePoint {
    const SECTION: &'static str = "serve";
    const COLUMNS: &'static [Column<Self>] = &[
        Column::Count("p99_l", |p| &mut p.p99_l),
        Column::Ratio("cache_hit_rate", |p| &mut p.cache_hit_rate),
    ];
}

/// SLO verdict of one serve preset's window series, evaluated against
/// the committed [`parqp_serve::obs::SloRules::serve_steady`] objectives.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SloPoint {
    /// Windows in the recorded series ([`SLO_WINDOW_TICKS`] ticks each).
    pub windows: u64,
    /// Burning windows summed across all enabled rules.
    pub burned: u64,
    /// Worst per-window p99 load `L` (tuples, at log₂-bucket resolution).
    pub p99_l_worst: u64,
    /// Minimum per-window cache hit rate over windows with lookups (1
    /// when the preset never looks up).
    pub hit_rate_min: f64,
}

impl Point for SloPoint {
    const SECTION: &'static str = "slo";
    const COLUMNS: &'static [Column<Self>] = &[
        Column::Count("windows", |p| &mut p.windows),
        Column::Count("burned", |p| &mut p.burned),
        Column::Count("p99_l_worst", |p| &mut p.p99_l_worst),
        Column::Ratio("hit_rate_min", |p| &mut p.hit_rate_min),
    ];
}

/// Metrics of every experiment × cluster-size point and every serve
/// preset, each map keyed `"<name>/p<P>"` in key order (`BTreeMap`, so
/// serialization is canonical).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsReport {
    /// The seed every run was made under.
    pub seed: u64,
    /// One point per [`observe`](crate::observe) experiment and
    /// [`METRICS_POINTS`] size.
    pub experiments: BTreeMap<String, ExperimentPoint>,
    /// One point per [`serve_presets`] entry.
    pub serve: BTreeMap<String, ServePoint>,
    /// SLO verdicts per serve preset, keyed like [`serve`](Self::serve).
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

/// A ratio as the document stores it: rounded to 4 decimals.
fn round4(ratio: f64) -> f64 {
    (ratio * 10_000.0).round() / 10_000.0
}

/// Collect metrics for every experiment at every [`METRICS_POINTS`]
/// size and for every serve preset. Deterministic in `seed`, and the
/// same under `ExecMode::Parallel` as under serial execution — running
/// `parqp metrics --check` both ways is the serial≡parallel count
/// check.
pub fn collect(seed: u64) -> Result<MetricsReport, String> {
    let mut experiments = BTreeMap::new();
    for e in crate::observe::EXPERIMENTS {
        for &p in METRICS_POINTS {
            // Fresh default-config paged store per point: the cluster
            // drains its IO into the registry, so every point carries
            // the page-IO ledger beside the communication ledger.
            let _store = parqp_data::paged::install(parqp_data::paged::StoreConfig::default());
            let (registry, run) =
                metrics::capture(|| crate::observe::run_experiment_full(e.name, p, seed));
            let run = run?;
            let unit = registry.primary_bound().map(|b| b.unit).unwrap_or_default();
            let point = ExperimentPoint {
                l: registry.load_max(unit),
                rounds: run.report.num_rounds() as u64,
                bound_ratio: registry.bound_ratio().map_or(0.0, round4),
                io_reads: registry.io().reads,
                io_hit_rate: round4(registry.io().hit_rate()),
            };
            experiments.insert(format!("{}/p{p}", e.name), point);
        }
    }
    let mut serve = BTreeMap::new();
    let mut slo = BTreeMap::new();
    let rules = parqp_serve::obs::SloRules::serve_steady();
    for (name, cfg) in serve_presets(seed) {
        // One observed replay feeds both the serve row and the SLO
        // verdict (replay + replay_observed would double the work and
        // the two must agree anyway — the series tiles the report).
        let (report, series) = parqp_serve::replay_observed(&cfg, SLO_WINDOW_TICKS)?;
        serve.insert(
            name.to_string(),
            ServePoint {
                p99_l: report.l_percentile(99),
                cache_hit_rate: round4(report.cache.hit_rate()),
            },
        );
        let verdict = rules.evaluate(&series);
        slo.insert(
            name.to_string(),
            SloPoint {
                windows: series.windows.len() as u64,
                burned: verdict.outcomes.iter().map(|o| o.burned.len() as u64).sum(),
                p99_l_worst: series.p99_l_worst(),
                hit_rate_min: round4(series.hit_rate_min()),
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

fn write_section<P: Point>(s: &mut String, points: &BTreeMap<String, P>) {
    let _ = writeln!(s, "  \"{}\": {{", P::SECTION);
    let last = points.len().saturating_sub(1);
    for (i, (key, pt)) in points.iter().enumerate() {
        let cells: Vec<String> = P::COLUMNS
            .iter()
            .map(|col| format!("\"{}\": {}", col.name(), col.text(pt)))
            .collect();
        let _ = write!(s, "    \"{key}\": {{{}}}", cells.join(", "));
        s.push_str(if i == last { "\n" } else { ",\n" });
    }
    s.push_str("  }");
}

/// Serialize to the `parqp-bench-metrics/v2` JSON document. Key order
/// and number formatting are canonical, so equal reports are
/// byte-identical.
pub fn to_json(report: &MetricsReport) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(s, "  \"seed\": {},", report.seed);
    write_section(&mut s, &report.experiments);
    s.push_str(",\n");
    write_section(&mut s, &report.serve);
    s.push_str(",\n");
    write_section(&mut s, &report.slo);
    s.push_str("\n}\n");
    s
}

/// Split `"name": value` into its two halves.
fn key_value(s: &str) -> Option<(&str, &str)> {
    let (key, value) = s.split_once(':')?;
    let key = key.trim().strip_prefix('"')?.strip_suffix('"')?;
    Some((key, value.trim()))
}

/// Parse one `"<key>": {"<column>": <cell>, …}` entry of section `P`.
fn parse_entry<P: Point>(
    points: &mut BTreeMap<String, P>,
    key: &str,
    body: &str,
) -> Result<(), String> {
    let at = format!("{} {key}", P::SECTION);
    let cells = body
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .ok_or_else(|| format!("{at}: malformed entry {body:?}"))?;
    let mut point = P::default();
    let mut missing: Vec<&str> = P::COLUMNS.iter().map(|col| col.name()).collect();
    for cell in cells.split(',').filter(|c| !c.trim().is_empty()) {
        let (name, raw) =
            key_value(cell).ok_or_else(|| format!("{at}: malformed field {cell:?}"))?;
        let col = P::COLUMNS
            .iter()
            .find(|col| col.name() == name)
            .ok_or_else(|| format!("{at}: unknown field {name:?}"))?;
        col.parse(&mut point, raw)
            .map_err(|e| format!("{at}: {name} {e}"))?;
        missing.retain(|m| *m != name);
    }
    if let Some(name) = missing.first() {
        return Err(format!("{at}: missing field {name:?}"));
    }
    points.insert(key.to_string(), point);
    Ok(())
}

/// Parse a document [`to_json`] wrote (line-oriented, like the lint's
/// TOML reader: enough for the schema we emit, not a general parser).
/// Strict: a document of another schema, without one of the three
/// sections, or with an entry that lacks a column or carries an
/// unknown one is an error that names what is wrong.
pub fn from_json(src: &str) -> Result<MetricsReport, String> {
    const SECTIONS: [&str; 3] = [
        ExperimentPoint::SECTION,
        ServePoint::SECTION,
        SloPoint::SECTION,
    ];
    let mut report = MetricsReport::default();
    let mut seen: Vec<&str> = Vec::new();
    let mut section: Option<&str> = None;
    for line in src.lines() {
        let t = line.trim().trim_end_matches(',');
        if t.is_empty() || t == "{" {
            continue;
        }
        if t == "}" {
            section = None;
            continue;
        }
        let (key, value) = key_value(t).ok_or_else(|| format!("malformed line: {t}"))?;
        match section {
            Some(ExperimentPoint::SECTION) => parse_entry(&mut report.experiments, key, value)?,
            Some(ServePoint::SECTION) => parse_entry(&mut report.serve, key, value)?,
            // `section` only ever holds one of `SECTIONS`.
            Some(_) => parse_entry(&mut report.slo, key, value)?,
            None => {
                match key {
                    "schema" => {
                        let got = value.trim_matches('"');
                        if got != SCHEMA {
                            return Err(format!("unsupported schema {got:?} (want {SCHEMA:?})"));
                        }
                    }
                    "seed" => {
                        report.seed = value.parse().map_err(|e| format!("bad seed value: {e}"))?;
                    }
                    _ if value != "{" => return Err(format!("unknown field {key:?}")),
                    _ if !SECTIONS.contains(&key) => {
                        return Err(format!("unknown section {key:?}"))
                    }
                    _ => section = Some(key),
                }
                seen.push(key);
            }
        }
    }
    if !seen.contains(&"schema") {
        return Err(format!("not a {SCHEMA} document (no schema line)"));
    }
    if !seen.contains(&"seed") {
        return Err("missing field \"seed\"".to_string());
    }
    if let Some(want) = SECTIONS.iter().find(|s| !seen.contains(s)) {
        return Err(format!("missing section {want:?}"));
    }
    Ok(report)
}

fn compare_section<P: Point>(
    baseline: &BTreeMap<String, P>,
    current: &BTreeMap<String, P>,
    out: &mut Vec<String>,
) {
    let section = P::SECTION;
    for (key, b) in baseline {
        let Some(c) = current.get(key) else {
            out.push(format!("{section} {key}: missing from current run"));
            continue;
        };
        for col in P::COLUMNS {
            let (was, now) = (col.text(b), col.text(c));
            if was != now {
                out.push(format!(
                    "{section} {key}: {} changed {was} → {now}",
                    col.name()
                ));
            }
        }
    }
    for key in current.keys() {
        if !baseline.contains_key(key) {
            out.push(format!(
                "{section} {key}: not in baseline (regenerate it to admit new points)"
            ));
        }
    }
}

/// The counts gate: every difference of `current` against `baseline`,
/// empty when the gate passes. Collection is deterministic at a fixed
/// seed, so every cell must match exactly — any drift is a real
/// behavior change.
pub fn compare(baseline: &MetricsReport, current: &MetricsReport) -> Vec<String> {
    let mut out = Vec::new();
    if baseline.seed != current.seed {
        out.push(format!(
            "seed mismatch: baseline {} vs current {}",
            baseline.seed, current.seed
        ));
    }
    compare_section(&baseline.experiments, &current.experiments, &mut out);
    compare_section(&baseline.serve, &current.serve, &mut out);
    compare_section(&baseline.slo, &current.slo, &mut out);
    out
}

fn table_section<P: Point>(s: &mut String, points: &BTreeMap<String, P>) {
    let _ = write!(s, "\n{:<21} {:>4}", P::SECTION, "p");
    for col in P::COLUMNS {
        let _ = write!(s, " {:>8}", col.name());
    }
    s.push('\n');
    for (key, pt) in points {
        let (name, p) = key.rsplit_once("/p").unwrap_or((key.as_str(), "?"));
        let _ = write!(s, "{name:<21} {p:>4}");
        for col in P::COLUMNS {
            let _ = write!(s, " {:>1$}", col.text(pt), col.name().len().max(8));
        }
        s.push('\n');
    }
}

/// Render a report as aligned text tables, one per section and one row
/// per point.
pub fn table(report: &MetricsReport) -> String {
    let mut s = format!(
        "bound-adherence metrics, seed {} ({} points)\n",
        report.seed,
        report.experiments.len()
    );
    table_section(&mut s, &report.experiments);
    table_section(&mut s, &report.serve);
    table_section(&mut s, &report.slo);
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
                io_reads: 20_000,
                io_hit_rate: 0.9988,
            },
        );
        experiments.insert(
            "matmul-square/p27".to_string(),
            ExperimentPoint {
                l: 108,
                rounds: 3,
                bound_ratio: 1.0,
                io_reads: 4096,
                io_hit_rate: 0.875,
            },
        );
        let mut serve = BTreeMap::new();
        serve.insert(
            "steady/p8".to_string(),
            ServePoint {
                p99_l: 950,
                cache_hit_rate: 0.7347,
            },
        );
        serve.insert(
            "cold/p8".to_string(),
            ServePoint {
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
    fn json_roundtrip_is_lossless() {
        let report = sample();
        let json = to_json(&report);
        let mut parsed = from_json(&json).expect("own output parses");
        assert_eq!(parsed, report);
        // Canonical: serializing the parse reproduces the bytes.
        assert_eq!(to_json(&parsed), json);
        parsed.seed += 1;
        assert_ne!(to_json(&parsed), json);
    }

    #[test]
    fn json_roundtrip_preserves_the_serve_section() {
        let report = sample();
        let parsed = from_json(&to_json(&report)).expect("own output parses");
        assert_eq!(parsed.serve.len(), 2);
        let steady = parsed.serve["steady/p8"];
        assert_eq!(steady.p99_l, 950);
        assert!((steady.cache_hit_rate - 0.7347).abs() < 1e-9);
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
    fn from_json_rejects_garbage() {
        assert!(from_json("{}").is_err());
        assert!(from_json("{\"schema\": \"other/v9\"}").is_err());
        let broken = to_json(&sample()).replace("\"L\": 5000", "\"L\": x");
        assert!(from_json(&broken).is_err());
    }

    #[test]
    fn from_json_is_strict_and_names_what_is_wrong() {
        let json = to_json(&sample());
        let err = |doc: String| from_json(&doc).expect_err("must not parse");
        // Another version of the schema is another format.
        let v1 = err(json.replace("metrics/v2", "metrics/v1"));
        assert!(v1.contains("unsupported schema"), "got: {v1}");
        assert!(v1.contains("parqp-bench-metrics/v1"), "got: {v1}");
        // Each section must be present, though it may be empty.
        let (head, _slo) = json.split_once(",\n  \"slo\"").expect("slo section");
        let no_section = err(format!("{head}\n}}\n"));
        assert_eq!(no_section, "missing section \"slo\"");
        let mut empty = sample();
        empty.serve.clear();
        assert_eq!(from_json(&to_json(&empty)).expect("parses"), empty);
        // So is each column of each entry, and nothing else is allowed.
        let no_field = err(json.replace("\"rounds\": 2, ", ""));
        assert_eq!(no_field, "experiments psrs/p8: missing field \"rounds\"");
        let extra = err(json.replace("\"p99_l\": 950", "\"throughput\": 1200, \"p99_l\": 950"));
        assert_eq!(extra, "serve cold/p8: unknown field \"throughput\"");
        let stray = err(json.replace("  \"seed\": 42,", "  \"seed\": 42,\n  \"ncpu\": 2,"));
        assert_eq!(stray, "unknown field \"ncpu\"");
        let no_seed = err(json.replace("  \"seed\": 42,\n", ""));
        assert_eq!(no_seed, "missing field \"seed\"");
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
        assert!(msgs.iter().any(|m| m.contains("L changed 5000 → 5001")));
        assert!(msgs.iter().any(|m| m.contains("rounds changed")));
        assert!(msgs.iter().any(|m| m.contains("bound_ratio changed")));
        // A drift below the document's 4 decimals is not one.
        let mut current = sample();
        current
            .experiments
            .get_mut("psrs/p8")
            .expect("point")
            .bound_ratio += 1e-9;
        assert!(compare(&baseline, &current).is_empty());
    }

    #[test]
    fn compare_flags_io_drift_exactly() {
        let baseline = sample();
        let mut current = sample();
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
        // A baseline that reads 0 is a measurement like any other.
        let mut baseline = sample();
        baseline
            .experiments
            .get_mut("psrs/p8")
            .expect("point")
            .io_reads = 0;
        assert_eq!(compare(&baseline, &sample()).len(), 1);
    }

    #[test]
    fn compare_flags_serve_drift_exactly() {
        let baseline = sample();
        let mut current = sample();
        {
            let pt = current.serve.get_mut("steady/p8").expect("point");
            pt.p99_l -= 1;
            pt.cache_hit_rate += 0.1;
        }
        let msgs = compare(&baseline, &current);
        assert_eq!(msgs.len(), 2, "got: {msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("p99_l changed")));
        assert!(msgs.iter().any(|m| m.contains("cache_hit_rate changed")));
        let mut current = sample();
        let moved = current.serve.remove("cold/p8").expect("point");
        current.serve.insert("new/p8".to_string(), moved);
        let msgs = compare(&baseline, &current);
        assert!(msgs.iter().any(|m| m.contains("serve cold/p8: missing")));
        assert!(msgs
            .iter()
            .any(|m| m.contains("serve new/p8: not in baseline")));
        // An empty baseline section admits nothing.
        let mut baseline = sample();
        baseline.serve.clear();
        assert_eq!(compare(&baseline, &sample()).len(), 2);
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
        assert!(msgs.iter().any(|m| m.contains("burned changed")));
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
        // A title line, then per section a blank line, a header and
        // one row per point.
        assert_eq!(
            t.lines().count(),
            1 + 2 + s.experiments.len() + 2 + s.serve.len() + 2 + s.slo.len()
        );
        for col in ["bound_ratio", "io_hit_rate", "cache_hit_rate", "burned"] {
            assert!(t.contains(col), "no {col} column in:\n{t}");
        }
        assert!(t
            .lines()
            .any(|l| l.starts_with("psrs") && l.contains("1.0312") && l.ends_with("0.9988")));
        assert!(t.lines().any(|l| l.starts_with("steady")));
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
}
