//! The `parqp-lint` binary: `cargo run -p parqp-lint [-- OPTIONS]`.
//!
//! Exit codes: 0 = clean, 1 = diagnostics found, 2 = usage/setup error.

use std::path::PathBuf;

use parqp_lint::ratchet::Baseline;

const USAGE: &str = "\
parqp-lint — static analysis for the parqp workspace

USAGE:
    cargo run -p parqp-lint [-- OPTIONS]

OPTIONS:
    --fix-baseline      rewrite lint/baseline.toml with the current
                        panic-surface counts instead of checking
    --root <PATH>       workspace root (default: auto-detected)
    --baseline <PATH>   ratchet baseline (default: <root>/lint/baseline.toml)
    --format <FMT>      output format: text (default) or json
    --out <PATH>        also write the JSON report to PATH (written even
                        when findings fail the run, so CI can archive it)
    -q, --quiet         print only diagnostics, no summary
    -h, --help          this text

EXIT CODES:
    0   clean
    1   findings reported
    2   usage or setup error (bad flag, unreadable baseline, ...)

Suppress a finding inline with `// parqp-lint: allow(PQxxx)`; see
DESIGN.md § \"Static analysis & determinism invariants\" for rule docs.";

#[derive(PartialEq, Clone, Copy)]
enum Format {
    Text,
    Json,
}

struct Options {
    root: PathBuf,
    baseline: Option<PathBuf>,
    fix_baseline: bool,
    quiet: bool,
    format: Format,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: parqp_lint::workspace_root(),
        baseline: None,
        fix_baseline: false,
        quiet: false,
        format: Format::Text,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fix-baseline" => opts.fix_baseline = true,
            "--root" => {
                opts.root = PathBuf::from(args.next().ok_or("--root needs a path")?);
            }
            "--baseline" => {
                opts.baseline = Some(PathBuf::from(args.next().ok_or("--baseline needs a path")?));
            }
            "--format" => {
                opts.format = match args.next().ok_or("--format needs text|json")?.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}` (want text|json)")),
                };
            }
            "--out" => {
                opts.out = Some(PathBuf::from(args.next().ok_or("--out needs a path")?));
            }
            "-q" | "--quiet" => opts.quiet = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`\n\n{USAGE}")),
        }
    }
    Ok(opts)
}

fn run() -> Result<i32, String> {
    let opts = parse_args()?;
    let baseline_path = opts
        .baseline
        .clone()
        .unwrap_or_else(|| parqp_lint::baseline_path(&opts.root));

    if opts.fix_baseline {
        let report = parqp_lint::lint_workspace(&opts.root, None)?;
        let baseline = Baseline {
            crates: report.panic_counts,
        };
        if let Some(dir) = baseline_path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&baseline_path, baseline.serialize())
            .map_err(|e| format!("{}: {e}", baseline_path.display()))?;
        if !opts.quiet {
            println!(
                "wrote {} ({} crates, {} files scanned)",
                baseline_path.display(),
                baseline.crates.len(),
                report.files_scanned
            );
        }
        // Non-ratchet diagnostics still fail a --fix-baseline run: fixing
        // the counters must not paper over determinism/layering findings.
        for d in &report.diagnostics {
            eprintln!("{d}");
        }
        return Ok(if report.diagnostics.is_empty() { 0 } else { 1 });
    }

    let baseline = Baseline::parse(&std::fs::read_to_string(&baseline_path).map_err(|e| {
        format!(
            "{}: {e} (run --fix-baseline to create it)",
            baseline_path.display()
        )
    })?)?;
    let report = parqp_lint::lint_workspace(&opts.root, Some(&baseline))?;

    // The JSON artifact is written before the exit decision, so CI can
    // archive the report of a *failing* run.
    if let Some(out) = &opts.out {
        if let Some(dir) = out.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
        }
        std::fs::write(out, parqp_lint::render_json(&report))
            .map_err(|e| format!("{}: {e}", out.display()))?;
    }

    if opts.format == Format::Json {
        print!("{}", parqp_lint::render_json(&report));
        return Ok(if report.diagnostics.is_empty() { 0 } else { 1 });
    }

    for d in &report.diagnostics {
        eprintln!("{d}");
    }
    if !opts.quiet {
        for s in &report.stale_baseline {
            eprintln!(
                "note: panic surface shrank ({s}); run --fix-baseline to tighten the ratchet"
            );
        }
        if report.diagnostics.is_empty() {
            println!(
                "parqp-lint: clean ({} files, {} crates)",
                report.files_scanned,
                report.panic_counts.len()
            );
        } else {
            eprintln!("parqp-lint: {} finding(s)", report.diagnostics.len());
        }
    }
    Ok(if report.diagnostics.is_empty() { 0 } else { 1 })
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("parqp-lint: {e}");
            std::process::exit(2);
        }
    }
}
