//! Fixture tests for the effect-analysis rule family (PQ401–PQ404),
//! the dead-suppression pass (PQ408), and tokenizer regressions.
//!
//! The mutation fixtures plant exactly the bugs the analysis exists to
//! catch — an observable effect inside a worker closure, shared state
//! captured across pool threads — and assert the diagnostic carries the
//! propagation chain back to the concrete site. The negative fixture
//! asserts a pure phase passes *and* that the analysis recorded the
//! root (it looked, it didn't vacuously succeed).

use parqp_lint::effects::{analyze, FileInput, RootInfo};
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

/// Run only the effect analysis (no token rules) over one fixture.
fn effect_report(crate_name: &str, path: &str, src: &str) -> (Vec<Diagnostic>, Vec<RootInfo>) {
    let file = sanitize(src);
    let report = analyze(&[FileInput {
        crate_name,
        path,
        file: &file,
    }]);
    (report.diagnostics, report.roots)
}

// ------------------------------------------------------------- PQ401/PQ403

#[test]
fn worker_closure_emitting_trace_is_flagged_at_the_root() {
    let src = include_str!("fixtures/worker_bad_trace.rs");
    let (diags, roots) = effect_report("join", "fixtures/worker_bad_trace.rs", src);
    assert_eq!(
        hits(&diags),
        vec![("PQ403", 6)],
        "anchored at the root line"
    );
    let msg = &diags[0].message;
    assert!(msg.contains("directly"), "direct effect, no chain: {msg}");
    assert!(msg.contains("`trace::span`"), "names the effect: {msg}");
    assert!(
        msg.contains("fixtures/worker_bad_trace.rs:7"),
        "points at the concrete site: {msg}"
    );
    assert_eq!(roots.len(), 1);
    assert!(roots[0].closure);
}

#[test]
fn effect_reached_through_helpers_carries_the_propagation_chain() {
    let src = include_str!("fixtures/worker_bad_chain.rs");
    let (diags, roots) = effect_report("join", "fixtures/worker_bad_chain.rs", src);
    assert_eq!(hits(&diags), vec![("PQ401", 6)]);
    let msg = &diags[0].message;
    assert!(
        msg.contains("via `tally` (fixtures/worker_bad_chain.rs:11)"),
        "chain shows the hop and its call line: {msg}"
    );
    assert!(
        msg.contains("`announce`"),
        "chain reaches the emitter: {msg}"
    );
    assert!(
        msg.contains("`metrics::announce` at fixtures/worker_bad_chain.rs:16"),
        "chain ends at the concrete site: {msg}"
    );
    assert_eq!(roots[0].reachable_fns, 2, "tally and announce");
}

// --------------------------------------------------------------------- PQ402

#[test]
fn worker_closure_capturing_refcell_is_flagged() {
    let src = include_str!("fixtures/worker_bad_refcell.rs");
    let (diags, roots) = effect_report("join", "fixtures/worker_bad_refcell.rs", src);
    assert_eq!(
        hits(&diags),
        vec![("PQ402", 9)],
        "anchored at the root line"
    );
    let msg = &diags[0].message;
    assert!(msg.contains("borrow_mut"), "names the mutation: {msg}");
    assert_eq!(roots.len(), 1);
}

// ----------------------------------------------------- negative + end-to-end

#[test]
fn pure_worker_phase_passes_and_the_root_is_still_recorded() {
    let src = include_str!("fixtures/worker_ok.rs");
    let (diags, roots) = effect_report("join", "fixtures/worker_ok.rs", src);
    assert_eq!(hits(&diags), vec![], "pure phase is clean");
    assert_eq!(roots.len(), 1, "the analysis saw the root");
    assert_eq!((roots[0].line, roots[0].closure), (7, true));
    assert_eq!(roots[0].reachable_fns, 1, "weigh is reachable");
}

#[test]
fn mutation_fixtures_fail_through_the_full_pipeline() {
    // No token rule fires on a span, so the only finding the full
    // pipeline reports is the effect-analysis PQ403.
    let out = lint_files(&[LoadedFile::from_source(
        "join",
        "fixtures/worker_bad_trace.rs",
        include_str!("fixtures/worker_bad_trace.rs"),
    )]);
    assert_eq!(hits(&out.diagnostics), vec![("PQ403", 6)]);
    assert_eq!(out.worker_roots.len(), 1);
}

#[test]
fn effect_allow_on_the_root_line_suppresses_and_is_not_dead() {
    let src = include_str!("fixtures/worker_bad_refcell.rs").replace(
        "cluster.map(parts, |_sid, part| {",
        "cluster.map(parts, |_sid, part| { // parqp-lint: allow(PQ402) scratch is per-call, single-threaded here",
    );
    let out = lint_files(&[LoadedFile::from_source(
        "join",
        "fixtures/worker_bad_refcell.rs",
        &src,
    )]);
    assert_eq!(
        hits(&out.diagnostics),
        vec![],
        "allow(PQ402) suppresses the finding and is counted as used (no PQ408)"
    );
}

// --------------------------------------------------------------------- PQ403

#[test]
fn callgraph_edge_cases_resolve_to_the_effectful_definitions() {
    let src = include_str!("fixtures/callgraph_edges.rs");
    let (diags, roots) = effect_report("join", "fixtures/callgraph_edges.rs", src);
    assert_eq!(
        hits(&diags),
        vec![("PQ401", 28), ("PQ403", 28)],
        "same-name method union finds Gauge::tick; local swap shadows std"
    );
    let pq401 = diags.iter().find(|d| d.rule == "PQ401").expect("PQ401");
    assert!(
        pq401.message.contains("`Gauge::tick`"),
        "method call binds to the union incl. the effectful type: {}",
        pq401.message
    );
    assert!(pq401.message.contains("fixtures/callgraph_edges.rs:9"));
    let pq403 = diags.iter().find(|d| d.rule == "PQ403").expect("PQ403");
    assert!(
        pq403.message.contains("`swap`"),
        "free fn binds locally, not to an assumed-pure std name: {}",
        pq403.message
    );
    assert!(
        pq403
            .message
            .contains("`trace::span` at fixtures/callgraph_edges.rs:23"),
        "{}",
        pq403.message
    );
    assert_eq!(
        roots[0].reachable_fns, 3,
        "Gauge::tick, Counter::tick, swap"
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
            ("PQ408", 4),  // allow(PQ001) on a BTreeMap import suppresses nothing
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
        !f.lines[6].code.contains("HashMap"),
        "raw string contents dropped: {}",
        f.lines[6].code
    );
    assert!(
        !f.lines[7].code.contains('#') || f.lines[7].code.starts_with("#["),
        "byte raw string with hashes dropped: {}",
        f.lines[7].code
    );
    assert!(
        !f.lines[8].code.contains("HashMap"),
        "nested block comment dropped: {}",
        f.lines[8].code
    );
    assert!(
        !f.lines[10].code.contains("HashMap"),
        "escaped-newline continuation stays string: {}",
        f.lines[10].code
    );
    // The one *real* HashMap::new() is flagged at exactly line 12 — the
    // string continuation above must not shift later line numbers.
    let diags = lint_source("join", "fixtures/tokenizer_edge.rs", &f);
    assert_eq!(hits(&diags), vec![("PQ001", 12)]);
}
