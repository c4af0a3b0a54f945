//! `perf` — the repository's wall-clock benchmark.
//!
//! ```text
//! perf --workload <name> [--seed N] [--seconds S] [--trace 0|1]   one workload, result line last
//! perf [--seed N] [--seconds S]                                   all eight: untraced, then traced
//! perf aa [--sets N] [--seed N] [--seconds S]                     same build, N times: do the runs agree?
//! perf manifest                                                   print BENCHMARK.json
//! ```
//!
//! Every untraced run, of one workload or of all, goes through
//! `driver::run_untraced`: each pass of each workload is a child process
//! (this binary with `--pass`), so `peak_rss_mb` is the workload's own.
//!
//! `BENCH_parqp.json` and the `tables` bin gate the paper's exact
//! counts (L, r, C); this gates time. See `README.md` beside this file
//! for the workloads, the metric glossary and how to read the output.

mod alloc;
mod driver;
mod json;
mod measure;
mod pipelines;
mod registry;
mod spans;
mod stats;
mod traced;
mod workloads;

use std::process::ExitCode;

use measure::{measure, result_line, RunOptions};
use registry::{WorkloadSpec, END_TO_END, RUN_SECONDS};
use workloads::Scale;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The command line, after parsing.
#[derive(Debug)]
pub struct Args {
    pub command: Command,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Set on the child processes `driver.rs` starts: this process is one
    /// pass, measured here and reported on its own result line.
    pub pass: bool,
    pub sets: usize,
    pub corrupt_expected: bool,
}

#[derive(Debug)]
pub enum Command {
    One(&'static WorkloadSpec),
    All,
    Aa,
    Manifest,
}

pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        command: Command::All,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
        scale: Scale::Full,
        pass: false,
        sets: 2,
        corrupt_expected: false,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "aa" => parsed.command = Command::Aa,
            "manifest" => parsed.command = Command::Manifest,
            "--workload" => {
                let name = value("a workload name")?;
                let spec = registry::workload(&name).ok_or_else(|| {
                    let known: Vec<&str> = registry::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("no workload {name:?}; known: {}", known.join(", "))
                })?;
                parsed.command = Command::One(spec);
            }
            "--seed" => parsed.seed = number(&value("a seed")?)?,
            "--seconds" => {
                parsed.seconds = number(&value("a duration")?)?;
                if !(0.0..=600.0).contains(&parsed.seconds) {
                    return Err("--seconds must be between 0 and 600".into());
                }
            }
            "--trace" => parsed.trace = number::<u8>(&value("0 or 1")?)? != 0,
            "--pass" => parsed.pass = true,
            "--sets" => parsed.sets = number::<usize>(&value("a count")?)?.clamp(2, 16),
            "--quick" => parsed.scale = Scale::Quick,
            "--corrupt-expected" => parsed.corrupt_expected = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn number<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("not a number: {s:?}"))
}

/// Build profile of this binary, for the environment record.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Print a workload's failures and its result line, last; the exit code
/// says whether every operation passed.
fn report(
    name: &str,
    attempted: u64,
    failed: u64,
    failures: &[String],
    line: &json::Value,
) -> ExitCode {
    for failure in failures {
        eprintln!("perf: {name}: {failure}");
    }
    println!("{line}");
    if failed == 0 && attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One workload. Traced, and as one pass of an untraced run (`--pass`),
/// it is measured in this process; an untraced run starts its passes as
/// children and folds them.
fn run_one(spec: &'static WorkloadSpec, args: &Args) -> Result<ExitCode, String> {
    println!(
        "perf {} seed={} seconds={} trace={} ncpu={} profile={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        parqp_testkit::pool::ncpu(),
        profile(),
    );
    if args.trace {
        let t = traced::trace(spec, args.seed, args.seconds, args.scale)?;
        if args.scale == Scale::Full {
            driver::write_spans(spec.name, &t.tracer)?;
        }
        let line = result_line(t.attempted, t.failed, t.per_layer());
        return Ok(report(spec.name, t.attempted, t.failed, &t.failures, &line));
    }
    if !args.pass {
        return driver::run_workload(spec, args);
    }
    let opts = RunOptions {
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale,
        corrupt_expected: args.corrupt_expected,
    };
    let m = measure(spec, &opts)?;
    if let Some(ops) = stats::summarize(&m.op_ms) {
        println!(
            "ops: n={} min={:.3} p50={:.3} ms; fastest after each set-up: {:.3?} ms; set-ups: {:.4?} s",
            ops.n, ops.min, ops.p50, m.segment_min_ms, m.setup_s
        );
    }
    let values = m
        .end_to_end()
        .ok_or_else(|| format!("no operation succeeded: {:?}", m.failures))?;
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(spec, (name, value))| (name, spec.unit, value));
    let line = result_line(m.attempted, m.failed, metrics);
    Ok(report(spec.name, m.attempted, m.failed, &m.failures, &line))
}

fn main() -> ExitCode {
    let result = parse_args(std::env::args().skip(1)).and_then(|args| match args.command {
        Command::One(spec) => run_one(spec, &args),
        Command::All => driver::run_all(&args),
        Command::Aa => driver::run_aa(&args),
        Command::Manifest => {
            print!("{}", registry::manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
    });
    result.unwrap_or_else(|e| {
        eprintln!("perf: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args("--workload sort_psrs --seed 7 --seconds 12 --trace 1").expect("valid");
        assert!(matches!(a.command, Command::One(w) if w.name == "sort_psrs"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.scale),
            (7, 12.0, true, Scale::Full)
        );

        let a = args("").expect("valid");
        assert!(matches!(a.command, Command::All));
        assert_eq!((a.seed, a.trace, a.pass), (42, false, false));

        let a = args("--workload sort_psrs --pass").expect("valid");
        assert!(a.pass);

        let a = args("aa --sets 3 --quick").expect("valid");
        assert!(matches!(a.command, Command::Aa));
        assert_eq!((a.sets, a.scale), (3, Scale::Quick));

        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds",
            "--frobnicate",
            "--seconds -1",
        ] {
            assert!(args(bad).is_err(), "{bad:?} accepted");
        }
    }
}
