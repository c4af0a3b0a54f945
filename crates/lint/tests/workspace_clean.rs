//! Self-check: the workspace must satisfy its own linter.
//!
//! This is the test-suite twin of the CI `cargo run -p parqp-lint`
//! step: every rule family runs over every member crate against the
//! committed `lint/baseline.toml`. If this fails, either fix the
//! violation, annotate a sanctioned site with
//! `// parqp-lint: allow(PQxxx)`, or (for a deliberate panic-surface
//! reduction) regenerate the ratchet with
//! `cargo run -p parqp-lint -- --fix-baseline`.

use parqp_lint::{lint_workspace, load_baseline, workspace_root};

#[test]
fn workspace_is_lint_clean_under_committed_baseline() {
    let root = workspace_root();
    let baseline = load_baseline(&root).expect("lint/baseline.toml exists and parses");
    let report = lint_workspace(&root, Some(&baseline)).expect("workspace lint runs");
    assert!(
        report.diagnostics.is_empty(),
        "parqp-lint found violations:\n{}",
        report
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.files_scanned >= 80,
        "walked only {} files — member discovery is broken",
        report.files_scanned
    );
}

#[test]
fn baseline_covers_every_member_crate() {
    let root = workspace_root();
    let baseline = load_baseline(&root).expect("baseline parses");
    for dir in parqp_lint::member_dirs(&root).expect("members") {
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        assert!(
            baseline.crates.contains_key(&name),
            "crate `{name}` missing from lint/baseline.toml — run --fix-baseline"
        );
    }
}
