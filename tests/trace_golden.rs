//! Golden-file tests for the trace renderers.
//!
//! A fixed-seed 2-round run (a 3-atom chain query through the binary
//! join plan — two hash-join rounds) must export byte-for-byte the JSON
//! committed under `tests/golden/`. This pins the exporter's format:
//! Perfetto/`chrome://tracing` load these files, so silent format drift
//! is a regression even when every unit test passes. The text
//! renderers behind `parqp trace` (`analyze::summary_table` and
//! `analyze::heatmap`) are pinned the same way, on the skew join at
//! p = 27 (its heavy-hitter sub-clusters record rounds narrower than
//! the cluster) and the binary chain plan at p = 8.
//!
//! Regenerate after an *intentional* format change with:
//!
//! ```text
//! PARQP_UPDATE_GOLDEN=1 cargo test --test trace_golden
//! ```

use parqp::data::generate;
use parqp::join::plans;
use parqp::query::Query;
use parqp::trace::{analyze, export, Recorder};

/// Compare `text` with `tests/golden/<file>`, or rewrite the file
/// when `PARQP_UPDATE_GOLDEN` is set.
fn check_golden(file: &str, text: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(file);
    if std::env::var_os("PARQP_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, text).expect("write golden file");
        return;
    }
    let expect = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "{file} missing; regenerate with PARQP_UPDATE_GOLDEN=1 cargo test --test trace_golden"
        )
    });
    assert_eq!(
        text, expect,
        "{file} drifted; if intentional, regenerate with PARQP_UPDATE_GOLDEN=1"
    );
}

#[test]
fn text_renderers_match_golden_files() {
    for (name, p) in [("twoway-skew", 27), ("chain-binary", 8)] {
        let run = parqp::observe::run_experiment_full(name, p, 42).expect("known experiment");
        let loads = analyze::round_loads(&run.recorder);
        let text = analyze::summary_table(&loads) + &analyze::heatmap(&loads, 16);
        check_golden(&format!("{}_p{p}.txt", name.replace('-', "_")), &text);
    }
}

#[test]
fn chrome_export_matches_golden_file() {
    let q = Query::chain(3);
    let rels: Vec<_> = (0..3)
        .map(|i| generate::uniform(2, 40, 12, 100 + i))
        .collect();
    let (rec, run) = Recorder::capture(|| plans::binary_join_plan(&q, &rels, 4, 9, None));
    assert_eq!(
        run.report.num_rounds(),
        2,
        "plan shape changed: not 2 rounds"
    );
    check_golden("chain_binary.chrome.json", &export::chrome_trace(&rec));
}
