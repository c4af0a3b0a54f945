//! End-to-end rule tests over the seeded sources in `tests/fixtures/`.
//!
//! Each rule family gets a positive fixture (a planted violation that
//! must be reported with the right `PQxxx` ID and `file:line`) and a
//! negative fixture (idiomatic or annotated code that must pass). The
//! fixtures live in a subdirectory so cargo never compiles them, and
//! only `crates/*/src` is walked by the workspace lint, so the planted
//! violations cannot leak into a real run.

use std::collections::BTreeMap;

use parqp_lint::manifest::lint_manifest;
use parqp_lint::ratchet::{count_file, Baseline, PanicCounts};
use parqp_lint::rules::lint_source;
use parqp_lint::tokenize::sanitize;
use parqp_lint::{lint_files, Diagnostic, LoadedFile};

/// Reduce diagnostics to comparable `(rule, line)` pairs.
fn hits(diags: &[Diagnostic]) -> Vec<(&'static str, usize)> {
    let mut out: Vec<(&'static str, usize)> = diags.iter().map(|d| (d.rule, d.line)).collect();
    out.sort_unstable();
    out.dedup();
    out
}

// --------------------------------------------------------------------- PQ004

#[test]
fn determinism_violations_reported_with_rule_and_line() {
    let src = include_str!("fixtures/determinism_bad.rs");
    let diags = lint_source("join", "fixtures/determinism_bad.rs", &sanitize(src));
    assert_eq!(
        hits(&diags),
        vec![
            ("PQ004", 6),  // std::thread::spawn
            ("PQ004", 10), // std::thread::scope: a module path clippy cannot ban
        ]
    );
    // Diagnostics carry the path verbatim for clickable file:line output.
    assert!(diags
        .iter()
        .all(|d| d.path == "fixtures/determinism_bad.rs"));
}

#[test]
fn determinism_clean_file_passes() {
    let src = include_str!("fixtures/determinism_ok.rs");
    let diags = lint_source("join", "fixtures/determinism_ok.rs", &sanitize(src));
    assert_eq!(
        hits(&diags),
        vec![],
        "aliases, allows, and test modules pass"
    );
}

#[test]
fn thread_spawns_are_sanctioned_only_inside_the_testkit_pool() {
    let src = sanitize(include_str!("fixtures/thread_pool.rs"));
    // Under the real pool's path the PQ004 exemption applies.
    let diags = lint_source("testkit", "crates/testkit/src/pool.rs", &src);
    assert_eq!(hits(&diags), vec![], "testkit::pool may spawn");
    // Anywhere else — including elsewhere in testkit, and in a file that
    // merely *names* itself pool.rs in another crate — both PQ004 tokens
    // still fire on the spawn and on the scoped-thread call.
    for path in [
        "fixtures/thread_pool.rs",
        "crates/testkit/src/bench.rs",
        "crates/mpc/src/pool.rs",
    ] {
        let diags = lint_source("testkit", path, &src);
        assert_eq!(
            hits(&diags),
            vec![("PQ004", 8), ("PQ004", 12)],
            "{path} must still be flagged"
        );
    }
    // Crate name alone is not enough either: mpc never gets the pass.
    let diags = lint_source("mpc", "crates/mpc/src/exec.rs", &src);
    assert_eq!(hits(&diags), vec![("PQ004", 8), ("PQ004", 12)]);
}

// ---------------------------------------------------------------- PQ103/PQ109

#[test]
fn side_channel_and_accounting_violations_reported() {
    let src = include_str!("fixtures/side_channel_bad.rs");
    let diags = lint_source("join", "fixtures/side_channel_bad.rs", &sanitize(src));
    assert_eq!(
        hits(&diags),
        vec![
            ("PQ103", 6),  // std::fs in an algorithm crate
            ("PQ109", 10), // draining the IO ledger
            ("PQ109", 11), // rewinding it
        ]
    );
}

#[test]
fn mpc_is_exempt_from_accounting_ownership() {
    // The same file inside `mpc` keeps only the side-channel finding:
    // mpc owns the IO ledger's round boundaries, but still may not
    // touch the fs. (Load accounting needs no rule: only mpc can
    // build a `LoadReport` or `RoundStats` at all.)
    let src = include_str!("fixtures/side_channel_bad.rs");
    let diags = lint_source("mpc", "fixtures/side_channel_bad.rs", &sanitize(src));
    assert_eq!(hits(&diags), vec![("PQ103", 6)]);
}

#[test]
fn combinator_accounting_passes() {
    let src = include_str!("fixtures/side_channel_ok.rs");
    let diags = lint_source("join", "fixtures/side_channel_ok.rs", &sanitize(src));
    assert_eq!(hits(&diags), vec![]);
}

// ---------------------------------------------------------------- PQ101/PQ102

#[test]
fn layering_dag_violations_reported() {
    let toml = include_str!("fixtures/layering_bad.toml");
    let diags = lint_manifest("sort", "fixtures/layering_bad.toml", toml);
    assert_eq!(
        hits(&diags),
        vec![
            ("PQ101", 7), // sort → join is not a DAG edge
            ("PQ102", 8), // testkit as a runtime dependency
        ]
    );
}

#[test]
fn layering_clean_manifest_passes() {
    let toml = include_str!("fixtures/layering_ok.toml");
    let diags = lint_manifest("sort", "fixtures/layering_ok.toml", toml);
    assert_eq!(hits(&diags), vec![]);
}

// --------------------------------------------------------------------- PQ201

#[test]
fn ratchet_reports_growth_and_only_growth() {
    let counts = count_file(&sanitize(include_str!("fixtures/panics.rs")));
    assert_eq!(
        counts,
        PanicCounts {
            unwrap: 1,
            expect: 1,
            panic: 1,
            index: 1,
        },
        "test-module panic sites are not counted"
    );

    let mut actual = BTreeMap::new();
    actual.insert("join".to_string(), counts);

    // Baseline at zero: every counter grew → four PQ201 diagnostics.
    let mut zero = Baseline::default();
    zero.crates
        .insert("join".to_string(), PanicCounts::default());
    let grown = zero.compare(&actual);
    assert_eq!(grown.diagnostics.len(), 4);
    assert!(grown.diagnostics.iter().all(|d| d.rule == "PQ201"));
    assert!(grown.diagnostics.iter().all(|d| d.path == "crates/join"));

    // Baseline at the actual counts: clean, nothing stale.
    let mut exact = Baseline::default();
    exact.crates.insert("join".to_string(), counts);
    let level = exact.compare(&actual);
    assert!(level.diagnostics.is_empty());
    assert!(level.stale.is_empty());

    // Baseline above the actual counts: no failure, but a stale nudge.
    let mut above = Baseline::default();
    above.crates.insert(
        "join".to_string(),
        PanicCounts {
            unwrap: 5,
            ..counts
        },
    );
    let shrunk = above.compare(&actual);
    assert!(shrunk.diagnostics.is_empty());
    assert_eq!(shrunk.stale, vec!["join.unwrap 5 → 1"]);
}

// --------------------------------------------------------------- PQ301/PQ302

#[test]
fn offline_violations_reported() {
    let toml = include_str!("fixtures/offline_bad.toml");
    let diags = lint_manifest("sort", "fixtures/offline_bad.toml", toml);
    assert_eq!(
        hits(&diags),
        vec![
            ("PQ301", 7),  // serde = "1.0" — registry dependency
            ("PQ302", 10), // rand, banned even as a path dependency
        ]
    );
}

// --------------------------------------------------------------------- PQ408

#[test]
fn dead_allow_annotations_are_flagged_and_vetted_ones_are_not() {
    let out = lint_files(&[LoadedFile::from_source(
        "join",
        "fixtures/dead_allow.rs",
        include_str!("fixtures/dead_allow.rs"),
    )]);
    assert_eq!(
        hits(&out.diagnostics),
        vec![
            ("PQ000", 24), // allow(PQ99): malformed ID, PQ000's business not PQ408's
            ("PQ408", 4),  // allow(PQ004) on a BTreeMap import suppresses nothing
            ("PQ408", 7),  // allow(PQ201) on a panic-free line
            ("PQ408", 20), // a lone allow(PQ408) vets nothing → itself stale
        ]
    );
    // Line 11's allow(PQ201) earned its keep (v[0] is an index site) and
    // line 15's dead allow(PQ201) is vetted by its same-line allow(PQ408).
    assert!(!hits(&out.diagnostics)
        .iter()
        .any(|h| h.1 == 11 || h.1 == 15));
}

// --------------------------------------------------------- tokenizer edges

#[test]
fn tokenizer_hides_raw_strings_comments_and_continuations_not_code() {
    let src = include_str!("fixtures/tokenizer_edge.rs");
    let f = sanitize(src);
    assert_eq!(f.lines.len(), 14);
    assert!(
        !f.lines[6].code.contains("std::thread"),
        "raw string contents dropped: {}",
        f.lines[6].code
    );
    assert!(
        !f.lines[7].code.contains('#') || f.lines[7].code.starts_with("#["),
        "byte raw string with hashes dropped: {}",
        f.lines[7].code
    );
    assert!(
        !f.lines[8].code.contains("std::thread"),
        "nested block comment dropped: {}",
        f.lines[8].code
    );
    assert!(
        !f.lines[10].code.contains("std::thread"),
        "escaped-newline continuation stays string: {}",
        f.lines[10].code
    );
    // The one *real* std::thread use is flagged at exactly line 12 —
    // the string continuation above must not shift later line numbers.
    let diags = lint_source("join", "fixtures/tokenizer_edge.rs", &f);
    assert_eq!(hits(&diags), vec![("PQ004", 12)]);
}
