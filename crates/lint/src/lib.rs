//! `parqp-lint` — in-tree static analysis for the parqp workspace.
//!
//! Every theorem this repo reproduces is a statement about the
//! deterministic `(L, r, C)` accounting of the MPC simulator: load
//! bounds like the HyperCube `IN/p^{1/τ*}` check in
//! `tests/hypercube_load_bounds.rs` are only meaningful if (a) runs are
//! bit-reproducible and (b) every message an algorithm sends is charged
//! through `parqp_mpc::Cluster::exchange`.
//!
//! Each of those invariants has one enforcer, the strongest available.
//! The compiler enforces the ledger: `LoadReport` and `RoundStats` are
//! `#[non_exhaustive]` and only a finished exchange records a round.
//! Clippy enforces the determinism type and method bans (`HashMap`,
//! `HashSet`, `RandomState`, `DefaultHasher`, `SystemTime`,
//! `Instant::now`, `thread::spawn`) by resolved path, through the
//! workspace `clippy.toml`. This crate keeps only the rules neither can
//! express, lexically and with zero dependencies:
//!
//! - **determinism** (`PQ004`, [`rules`]) — no `std::thread` outside the
//!   sanctioned worker pool: clippy can ban a function, not a module path;
//! - **layering** (`PQ101`/`PQ102`, [`manifest`]; `PQ103`, `PQ109`,
//!   `PQ112`, [`rules`]) — the crate DAG matches DESIGN.md,
//!   `parqp-testkit` stays dev-only outside the RNG whitelist, and the
//!   crate- or file-scoped bans on OS side channels, page-IO
//!   fabrication and new thread-local runtimes hold;
//! - **panic ratchet** (`PQ201`, [`ratchet`]) — the per-crate count of
//!   `.unwrap()`/`.expect(`/`panic!`/index sites never grows past the
//!   committed `lint/baseline.toml`;
//! - **offline guard** (`PQ301`/`PQ302`, [`manifest`]) — every
//!   dependency resolves inside the repo, and `rand`/`proptest`/
//!   `criterion` never return;
//! - **dead suppressions** (`PQ408`, [`lint_files`]) — an `allow(...)`
//!   that suppresses nothing is itself a finding; `PQ000` flags a
//!   malformed rule ID in one.
//!
//! Run it with `cargo run -p parqp-lint`; suppress a finding with an
//! inline `// parqp-lint: allow(PQxxx)` comment (same line, or a lone
//! comment on the line above); regenerate the ratchet with
//! `cargo run -p parqp-lint -- --fix-baseline`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

pub mod manifest;
pub mod ratchet;
pub mod rules;
pub mod tokenize;

use ratchet::{Baseline, PanicCounts};

/// One finding, with a machine-readable rule ID and a clickable location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule ID, e.g. `"PQ103"`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line, or 0 for whole-crate findings (the ratchet).
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{} {}: {}", self.rule, self.path, self.message)
        } else {
            write!(
                f,
                "{} {}:{}: {}",
                self.rule, self.path, self.line, self.message
            )
        }
    }
}

/// Everything one lint run produced.
pub struct LintReport {
    /// Hard failures, sorted by (path, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Ratchet counters that shrank below the baseline (nudge, not failure).
    pub stale_baseline: Vec<String>,
    /// Actual per-crate panic counts (what `--fix-baseline` would write).
    pub panic_counts: BTreeMap<String, PanicCounts>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Locate the workspace root from this crate's manifest dir (two levels
/// up), for use by in-tree tests and the binary.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint lives two levels under the workspace root")
        .to_path_buf()
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .display()
        .to_string()
}

/// The workspace's member crate directories (`crates/*`), sorted by name.
pub fn member_dirs(root: &Path) -> Result<Vec<PathBuf>, String> {
    let crates_dir = root.join("crates");
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("{}: {e}", crates_dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    Ok(dirs)
}

/// All `.rs` files under `dir`, recursively, sorted for deterministic
/// diagnostic order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.filter_map(Result::ok) {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// One loaded and sanitized workspace source file.
pub struct LoadedFile {
    pub crate_name: String,
    pub rel_path: String,
    pub file: tokenize::SourceFile,
}

impl LoadedFile {
    /// Sanitize `src` into a loadable file (used by fixture tests to
    /// run [`lint_files`] on in-memory sources).
    pub fn from_source(crate_name: &str, rel_path: &str, src: &str) -> LoadedFile {
        LoadedFile {
            crate_name: crate_name.to_string(),
            rel_path: rel_path.to_string(),
            file: tokenize::sanitize(src),
        }
    }
}

/// What [`lint_files`] produced for a file set: source-level
/// diagnostics (token rules, PQ408) plus the raw panic counts.
pub struct SourceOutcome {
    pub diagnostics: Vec<Diagnostic>,
    pub panic_counts: BTreeMap<String, PanicCounts>,
}

/// Phases B–C of the lint over an already-loaded file set: per-file
/// token rules and panic counting with `allow(...)` usage tracking,
/// then the PQ408 dead-suppression pass. [`lint_workspace`] wraps this
/// with manifest rules and the ratchet comparison; fixture tests call
/// it directly.
pub fn lint_files(loaded: &[LoadedFile]) -> SourceOutcome {
    let mut diagnostics = Vec::new();
    let mut panic_counts: BTreeMap<String, PanicCounts> = BTreeMap::new();

    // Phase B: per-file token rules + ratchet counts, tracking which
    // allow annotations actually suppressed a finding.
    let mut used_allows: BTreeSet<(usize, usize, String)> = BTreeSet::new();
    for (fi, lf) in loaded.iter().enumerate() {
        let src = rules::lint_source_tracked(&lf.crate_name, &lf.rel_path, &lf.file);
        diagnostics.extend(src.diagnostics);
        for (line, rule) in src.used_allows {
            used_allows.insert((fi, line, rule.to_string()));
        }
        let (counts, used_201) = ratchet::count_file_tracked(&lf.file);
        panic_counts
            .entry(lf.crate_name.clone())
            .or_default()
            .add(counts);
        for line in used_201 {
            used_allows.insert((fi, line, "PQ201".to_string()));
        }
    }

    // Phase C: PQ408 — allow annotations that suppressed nothing.
    // An `allow(PQ408)` on the same line vets its stale neighbours
    // (one level only: a dead PQ408 allow is always reported).
    let mut dead: Vec<(usize, usize, String)> = Vec::new();
    for (fi, lf) in loaded.iter().enumerate() {
        for line in &lf.file.lines {
            for id in &line.allows {
                // Malformed IDs are PQ000's business, not PQ408's.
                if !rules::is_valid_rule_id(id) || id == "PQ408" {
                    continue;
                }
                if !used_allows.contains(&(fi, line.number, id.clone())) {
                    dead.push((fi, line.number, id.clone()));
                }
            }
        }
    }
    for (fi, lf) in loaded.iter().enumerate() {
        for line in &lf.file.lines {
            if !line.allows("PQ408") {
                continue;
            }
            let before = dead.len();
            dead.retain(|(dfi, dline, _)| !(*dfi == fi && *dline == line.number));
            if dead.len() == before {
                // Nothing to vet: the PQ408 allow is itself stale.
                dead.push((fi, line.number, "PQ408".to_string()));
            }
        }
    }
    for (fi, line, id) in dead {
        diagnostics.push(Diagnostic {
            rule: "PQ408",
            path: loaded[fi].rel_path.clone(),
            line,
            message: format!(
                "`allow({id})` suppresses nothing on this line; remove the stale annotation \
                 so the escape-hatch surface ratchets down"
            ),
        });
    }

    SourceOutcome {
        diagnostics,
        panic_counts,
    }
}

/// Run every rule family over the workspace at `root`.
///
/// `baseline` governs the PQ201 ratchet: `Some` compares against it,
/// `None` skips the comparison (used by `--fix-baseline`, which only
/// wants the counts back).
///
/// Structure: load every source file (phase A), run the per-file
/// token rules and panic counting while recording which `allow(...)`
/// annotations earned their keep (phase B), and flag the annotations
/// that suppressed nothing as PQ408 (phase C) before the baseline
/// comparison.
pub fn lint_workspace(root: &Path, baseline: Option<&Baseline>) -> Result<LintReport, String> {
    let mut diagnostics = Vec::new();
    let mut panic_counts: BTreeMap<String, PanicCounts> = BTreeMap::new();

    // Workspace-root manifest (offline rules).
    let ws_manifest_path = root.join("Cargo.toml");
    let ws_manifest = read(&ws_manifest_path)?;
    diagnostics.extend(manifest::lint_workspace_manifest(
        &rel(root, &ws_manifest_path),
        &ws_manifest,
    ));

    // Phase A: manifests + load all member sources.
    let mut loaded: Vec<LoadedFile> = Vec::new();
    for dir in member_dirs(root)? {
        let crate_name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| format!("unreadable crate dir name under {}", dir.display()))?
            .to_string();

        let manifest_path = dir.join("Cargo.toml");
        let toml = read(&manifest_path)?;
        diagnostics.extend(manifest::lint_manifest(
            &crate_name,
            &rel(root, &manifest_path),
            &toml,
        ));

        panic_counts.entry(crate_name.clone()).or_default();
        for file in rust_files(&dir.join("src")) {
            let text = read(&file)?;
            loaded.push(LoadedFile {
                crate_name: crate_name.clone(),
                rel_path: rel(root, &file),
                file: tokenize::sanitize(&text),
            });
        }
    }
    let files_scanned = loaded.len();

    // Phases B–C over the loaded set.
    let outcome = lint_files(&loaded);
    diagnostics.extend(outcome.diagnostics);
    for (name, counts) in outcome.panic_counts {
        panic_counts.entry(name).or_default().add(counts);
    }

    let mut stale_baseline = Vec::new();
    if let Some(baseline) = baseline {
        let outcome = baseline.compare(&panic_counts);
        diagnostics.extend(outcome.diagnostics);
        stale_baseline = outcome.stale;
    }

    diagnostics
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Ok(LintReport {
        diagnostics,
        stale_baseline,
        panic_counts,
        files_scanned,
    })
}

/// Render a report as deterministic machine-readable JSON (the
/// `--format json` output CI archives as an artifact). Hand-rolled —
/// the crate stays zero-dependency — and stable: maps are BTree-backed
/// and vectors arrive pre-sorted.
pub fn render_json(report: &LintReport) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"version\": 1,\n");
    out.push_str(&format!(
        "  \"clean\": {},\n",
        report.diagnostics.is_empty()
    ));
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));

    out.push_str("  \"diagnostics\": [");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            d.rule,
            json_escape(&d.path),
            d.line,
            json_escape(&d.message)
        ));
    }
    if !report.diagnostics.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");

    out.push_str("  \"stale_baseline\": [");
    for (i, s) in report.stale_baseline.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\"", json_escape(s)));
    }
    out.push_str("],\n");

    out.push_str("  \"panic_counts\": {");
    for (i, (name, c)) in report.panic_counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    \"{}\": {{\"unwrap\": {}, \"expect\": {}, \"panic\": {}, \"index\": {}}}",
            json_escape(name),
            c.unwrap,
            c.expect,
            c.panic,
            c.index
        ));
    }
    if !report.panic_counts.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("}\n}\n");
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The default baseline location: `lint/baseline.toml` under `root`.
pub fn baseline_path(root: &Path) -> PathBuf {
    root.join("lint").join("baseline.toml")
}

/// Load the committed ratchet baseline.
pub fn load_baseline(root: &Path) -> Result<Baseline, String> {
    Baseline::parse(&read(&baseline_path(root))?)
}

/// Run only the offline rules (`PQ301`/`PQ302`) over every manifest —
/// the original `offline_guard` check, now callable as a library so the
/// testkit guard test and the full lint share one implementation.
pub fn check_offline(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let ws_manifest_path = root.join("Cargo.toml");
    let mut out =
        manifest::lint_workspace_manifest(&rel(root, &ws_manifest_path), &read(&ws_manifest_path)?);
    for dir in member_dirs(root)? {
        let crate_name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let manifest_path = dir.join("Cargo.toml");
        out.extend(
            manifest::lint_manifest(
                &crate_name,
                &rel(root, &manifest_path),
                &read(&manifest_path)?,
            )
            .into_iter()
            .filter(|d| d.rule == "PQ301" || d.rule == "PQ302"),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostic_display_with_and_without_line() {
        let d = Diagnostic {
            rule: "PQ103",
            path: "crates/mpc/src/hash.rs".into(),
            line: 141,
            message: "msg".into(),
        };
        assert_eq!(d.to_string(), "PQ103 crates/mpc/src/hash.rs:141: msg");
        let d0 = Diagnostic { line: 0, ..d };
        assert_eq!(d0.to_string(), "PQ103 crates/mpc/src/hash.rs: msg");
    }

    #[test]
    fn workspace_root_is_a_workspace() {
        let root = workspace_root();
        assert!(root.join("Cargo.toml").is_file());
        assert!(root.join("crates").is_dir());
    }

    #[test]
    fn member_dirs_sorted_and_complete() {
        let dirs = member_dirs(&workspace_root()).expect("members");
        let names: Vec<String> = dirs
            .iter()
            .map(|d| d.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert!(names.iter().any(|n| n == "mpc"));
        assert!(names.iter().any(|n| n == "lint"));
    }
}
