//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p parqp-bench --bin tables             # all experiments
//! cargo run --release -p parqp-bench --bin tables -- e05 e08  # a subset
//! cargo run --release -p parqp-bench --bin tables -- --csv results/
//! ```
//!
//! With `--csv <dir>` each table is also written as a CSV file named
//! `<experiment>_<index>.csv` under the directory. With `--trace <dir>`
//! each experiment additionally runs under a trace recorder and its
//! round-level event stream is written as `<experiment>.trace.jsonl`.
//! With `--faults <seed>` each experiment runs under a seeded fault
//! plan (see `parqp_mpc::faults`): recovery overhead is charged to every
//! reported load, a `# faults:` summary line precedes each experiment,
//! and with `--trace <dir>` the fault-annotated stream is written as
//! `<experiment>.faults.trace.jsonl` instead.
//!
//! The gated counts of the observe experiments (`BENCH_parqp.json`) come
//! from `parqp metrics`, and wall-clock from the `perf` program; this
//! binary prints neither.

use parqp_bench::experiments;
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut csv_dir: Option<String> = None;
    let mut trace_dir: Option<String> = None;
    let mut fault_seed: Option<u64> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--csv" {
            csv_dir = Some(it.next().unwrap_or_else(|| {
                eprintln!("--csv requires a directory argument");
                std::process::exit(2);
            }));
        } else if a == "--trace" {
            trace_dir = Some(it.next().unwrap_or_else(|| {
                eprintln!("--trace requires a directory argument");
                std::process::exit(2);
            }));
        } else if a == "--faults" {
            let seed = it.next().unwrap_or_else(|| {
                eprintln!("--faults requires a seed argument");
                std::process::exit(2);
            });
            fault_seed = Some(seed.parse().unwrap_or_else(|e| {
                eprintln!("--faults: {e}");
                std::process::exit(2);
            }));
        } else {
            ids.push(a);
        }
    }
    if ids.is_empty() {
        ids = experiments::ALL.iter().map(ToString::to_string).collect();
    }
    for id in &ids {
        if !experiments::ALL.contains(&id.as_str()) {
            eprintln!(
                "unknown experiment id {id:?}; expected one of: {}",
                experiments::ALL.join(", ")
            );
            std::process::exit(2);
        }
    }

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for id in &ids {
        let tables = if let Some(seed) = fault_seed {
            let (tables, log, recorder) = parqp_bench::run_with_faults(id, seed);
            writeln!(
                out,
                "# faults: {id} seed={seed} fired={} recovery: +{} round(s), +{} tuples, +{} words",
                log.injected.len(),
                log.recovery_rounds,
                log.recovery_tuples,
                log.recovery_words,
            )
            .expect("stdout");
            if let Some(dir) = &trace_dir {
                std::fs::create_dir_all(dir).expect("create trace dir");
                let path = format!("{dir}/{id}.faults.trace.jsonl");
                std::fs::write(&path, parqp_mpc::trace::export::jsonl(&recorder))
                    .expect("write trace");
            }
            tables
        } else if let Some(dir) = &trace_dir {
            let (tables, recorder) = parqp_bench::run_traced(id);
            std::fs::create_dir_all(dir).expect("create trace dir");
            let path = format!("{dir}/{id}.trace.jsonl");
            std::fs::write(&path, parqp_mpc::trace::export::jsonl(&recorder)).expect("write trace");
            tables
        } else {
            experiments::run(id)
        };
        for (i, t) in tables.iter().enumerate() {
            writeln!(out, "{}", t.render()).expect("stdout");
            if let Some(dir) = &csv_dir {
                std::fs::create_dir_all(dir).expect("create csv dir");
                let path = format!("{dir}/{id}_{i}.csv");
                std::fs::write(&path, t.to_csv()).expect("write csv");
            }
        }
    }
}
