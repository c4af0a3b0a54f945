//! Untraced runs, of one workload or of all eight: one child process
//! per workload and pass, so that `peak_rss_mb` is each workload's own,
//! every pass starts from a fresh address space, and at most one
//! workload runs at a time.
//!
//! A run makes [`PASSES`] passes over its whole workload list rather
//! than finishing one workload before the next: a slow stretch of the
//! host then lands on every workload instead of swallowing one. The
//! command in `BENCHMARK.json` (`--workload W`) is the same run over a
//! list of one. `perf` alone follows the untraced run with a traced
//! one, again a process per workload.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use parqp_testkit::bench::time_ns;

use crate::json::{self, Value};
use crate::measure::{result_line, since};
use crate::registry::{Better, Fold, WorkloadSpec, END_TO_END, PER_LAYER, WORKLOADS};
use crate::spans::Tracer;
use crate::stats::rel_diff;
use crate::workloads::Scale;
use crate::{profile, Args};

/// Passes per run: each sets up afresh and gets a third of the time.
pub const PASSES: usize = 3;

/// `driver.noise_ratio` above this draws a warning: the host was busy
/// enough that even the minimum deserves a second look.
const NOISE_WARNING: f64 = 1.5;

/// Metric name → value.
type Metrics = BTreeMap<String, f64>;

/// A child's parsed result line.
struct ChildResult {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// Write the spans of one traced run to `target/perf/<workload>.spans.jsonl`.
pub fn write_spans(workload: &str, tracer: &Tracer) -> Result<(), String> {
    let dir = std::path::Path::new("target").join("perf");
    let path = dir.join(format!("{workload}.spans.jsonl"));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write_jsonl(&mut out)
    };
    write().map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{} spans -> {}", tracer.spans().len(), path.display());
    Ok(())
}

/// Run this binary on one workload, traced or as one untraced pass,
/// and parse the result line it prints last; what else it prints is
/// passed on, indented. A child that leaves no result line (it could
/// not set up, or died) counts as one failed operation.
fn run_child(
    workload: &str,
    args: &Args,
    trace: bool,
    seconds: f64,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if !trace {
        cmd.arg("--pass");
    }
    if args.scale == Scale::Quick {
        cmd.arg("--quick");
    }
    if args.corrupt_expected {
        cmd.arg("--corrupt-expected");
    }
    let output = cmd.output().map_err(|e| format!("{workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines
        .last()
        .and_then(|line| json::parse(line).ok())
        .filter(|v| v.get("attempted").is_some());
    if result.is_some() {
        lines.pop();
    }
    for line in lines {
        println!("    {line}");
    }
    let Some(v) = result else {
        eprintln!("perf: {workload}: no result line ({})", output.status);
        return Ok(ChildResult {
            attempted: 1,
            failed: 1,
            metrics: Metrics::new(),
        });
    };
    let count = |key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
    let metrics = v
        .get("metrics")
        .map(Value::fields)
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        attempted: count("attempted"),
        // A child that reports no failure and still exits non-zero failed.
        failed: count("failed").max(u64::from(!output.status.success())),
        metrics,
    })
}

/// One workload's passes, folded.
#[derive(Default)]
struct Merged {
    attempted: u64,
    failed: u64,
    /// Empty until a pass reports metrics.
    metrics: Metrics,
}

impl Merged {
    /// Fold one pass in: the fastest timing, the largest memory, and
    /// counts that must not change between passes (one that does is a
    /// failed operation).
    fn fold(&mut self, name: &str, pass: &ChildResult) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        if pass.metrics.is_empty() {
            return;
        }
        for spec in END_TO_END {
            let Some(&new) = pass.metrics.get(spec.name) else {
                eprintln!("perf: {name}: {} missing from a result line", spec.name);
                self.failed += 1;
                continue;
            };
            let slot = self.metrics.entry(spec.name.to_string()).or_insert(new);
            let lower = match (spec.fold, spec.better) {
                (Fold::Same, _) => {
                    if *slot != new {
                        eprintln!(
                            "perf: {name}: {} changed between passes: {slot} then {new}",
                            spec.name
                        );
                        self.failed += 1;
                    }
                    continue;
                }
                (Fold::Best, Better::Lower) | (Fold::Worst, Better::Higher) => true,
                (Fold::Best, Better::Higher) | (Fold::Worst, Better::Lower) => false,
            };
            *slot = if lower { slot.min(new) } else { slot.max(new) };
        }
    }

    /// The end-to-end metrics in `END_TO_END` order; `None` when no
    /// pass reported them all.
    fn end_to_end(&self) -> Option<Vec<(&'static str, &'static str, f64)>> {
        END_TO_END
            .iter()
            .map(|m| Some((m.name, m.unit, *self.metrics.get(m.name)?)))
            .collect()
    }
}

/// Everything an untraced run produced.
struct UntracedRun {
    workloads: BTreeMap<&'static str, Merged>,
    wall_s: f64,
}

impl UntracedRun {
    fn failed(&self) -> u64 {
        self.workloads.values().map(|m| m.failed).sum()
    }

    fn metric(&self, workload: &str, metric: &str) -> Option<f64> {
        self.workloads.get(workload)?.metrics.get(metric).copied()
    }
}

/// The untraced run of `workloads`: `args.seconds` each, split over
/// [`PASSES`] passes of the whole list.
fn run_untraced(workloads: &'static [WorkloadSpec], args: &Args) -> Result<UntracedRun, String> {
    let start = time_ns();
    let mut run = UntracedRun {
        workloads: BTreeMap::new(),
        wall_s: 0.0,
    };
    let per_pass = args.seconds / PASSES as f64;
    for pass in 0..PASSES {
        for w in workloads {
            eprintln!("perf: untraced pass {}/{PASSES}: {}", pass + 1, w.name);
            let child = run_child(w.name, args, false, per_pass)?;
            run.workloads
                .entry(w.name)
                .or_default()
                .fold(w.name, &child);
        }
    }
    run.wall_s = since(start) as f64 / 1e9;
    Ok(run)
}

/// `perf --workload W`: the untraced run of one workload, its result
/// line last.
pub fn run_workload(spec: &'static WorkloadSpec, args: &Args) -> Result<ExitCode, String> {
    let run = run_untraced(std::slice::from_ref(spec), args)?;
    let merged = run.workloads.get(spec.name).ok_or("no pass ran")?;
    let metrics = merged
        .end_to_end()
        .ok_or_else(|| format!("{}: no pass succeeded", spec.name))?;
    println!("{}", result_line(merged.attempted, merged.failed, metrics));
    Ok(if merged.failed == 0 && merged.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn print_metric(name: &str, unit: &str, value: f64, note: &str) {
    println!("  {name:<32} {value:>16.4} {unit:<8} {note}");
}

/// `perf`: all eight workloads, untraced then traced, every metric by
/// name and unit, then the environment they were measured in.
pub fn run_all(args: &Args) -> Result<ExitCode, String> {
    let untraced = run_untraced(WORKLOADS, args)?;
    let start = time_ns();
    let mut failed = untraced.failed();
    let mut warnings = Vec::new();
    let mut summary = Vec::new();
    let reps = |name: &str| untraced.workloads.get(name).map_or(0, |m| m.attempted);
    for w in WORKLOADS {
        eprintln!("perf: traced: {}", w.name);
        let traced = run_child(w.name, args, true, args.seconds)?;
        failed += traced.failed;
        println!("\n== {} — {}", w.name, w.why);
        println!("  (throughput counts {})", w.items);
        let e2e = untraced.workloads.get(w.name).map(|m| &m.metrics);
        for m in END_TO_END {
            if let Some(v) = untraced.metric(w.name, m.name) {
                print_metric(m.name, m.unit, v, "");
            }
        }
        println!("  -- per layer (traced run; metrics of layers off this workload's path omitted)");
        for m in PER_LAYER.iter().filter(|m| m.on.contains(&w.name)) {
            if let Some(&v) = traced.metrics.get(m.name) {
                print_metric(m.name, m.unit, v, &format!("-> {}", m.moves));
            }
        }
        let noise = traced
            .metrics
            .get("driver.noise_ratio")
            .copied()
            .unwrap_or(0.0);
        if noise > NOISE_WARNING {
            warnings.push(format!(
                "warning: {}: driver.noise_ratio {noise:.2} > {NOISE_WARNING}: the host was busy; read op_ms_min with care",
                w.name
            ));
        }
        let to_obj = |m: &Metrics| Value::obj(m.iter().map(|(k, &v)| (k.clone(), Value::from(v))));
        summary.push((
            w.name,
            Value::obj([
                ("reps", Value::from(reps(w.name))),
                ("end_to_end", e2e.map_or(Value::Null, to_obj)),
                ("per_layer", to_obj(&traced.metrics)),
            ]),
        ));
    }
    let traced_wall_s = since(start) as f64 / 1e9;

    println!("\n== environment");
    let env = Value::obj([
        ("ncpu", Value::from(parqp_testkit::pool::ncpu() as u64)),
        ("profile", Value::str(profile())),
        ("seed", Value::from(args.seed)),
        ("seconds_per_workload", Value::from(args.seconds)),
        ("passes", Value::from(PASSES as u64)),
        ("untraced_wall_s", Value::from(untraced.wall_s)),
        ("traced_wall_s", Value::from(traced_wall_s)),
        ("ops_failed", Value::from(failed)),
    ]);
    for (k, v) in env.fields() {
        println!("  {k:<32} {v}");
    }
    for w in WORKLOADS {
        println!("  reps[{}] = {} over {PASSES} passes", w.name, reps(w.name));
    }
    for warning in &warnings {
        println!("{warning}");
    }
    println!(
        "{}",
        Value::obj([("environment", env), ("workloads", Value::obj(summary))])
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `perf aa`: the untraced benchmark `--sets` times on this build and
/// seed. Each metric must repeat within its `same_seed` bound — counts
/// exactly — or the benchmark cannot tell a regression from its own
/// noise.
pub fn run_aa(args: &Args) -> Result<ExitCode, String> {
    let mut sets = Vec::new();
    for i in 0..args.sets {
        eprintln!("perf: aa set {}/{}", i + 1, args.sets);
        sets.push(run_untraced(WORKLOADS, args)?);
    }
    let (Some(first), rest) = (sets.first(), sets.get(1..).unwrap_or_default()) else {
        return Err("aa needs at least two sets".into());
    };
    let mut excess = 0;
    println!(
        "{:<20} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set 1", "worst other", "rel diff", "bound"
    );
    for w in WORKLOADS {
        for m in END_TO_END {
            let Some(a) = first.metric(w.name, m.name) else {
                continue;
            };
            // The set that disagrees most with the first.
            let (diff, b) = rest
                .iter()
                .filter_map(|s| s.metric(w.name, m.name))
                .map(|b| (rel_diff(a, b), b))
                .fold((0.0, a), |worst, x| if x.0 > worst.0 { x } else { worst });
            let verdict = if diff > m.same_seed {
                excess += 1;
                "EXCEEDS"
            } else {
                ""
            };
            println!(
                "{:<20} {:<18} {a:>14.4} {b:>14.4} {diff:>9.4} {:>7.2} {verdict}",
                w.name, m.name, m.same_seed
            );
        }
    }
    let failed: u64 = sets.iter().map(UntracedRun::failed).sum();
    println!(
        "aa: {excess} metric(s) beyond their bound, {failed} operation(s) failed, {} sets",
        sets.len()
    );
    Ok(if excess == 0 && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
