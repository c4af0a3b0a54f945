//! The source-level rule families and their `PQxxx` IDs.
//!
//! Every rule is stated in terms of the MPC cost model the repo
//! reproduces: the `(L, r, C)` accounting of `parqp_mpc::Cluster` is
//! only meaningful if runs are bit-reproducible (determinism rules) and
//! if all communication actually flows through the simulator (layering
//! rules). See `DESIGN.md` § "Static analysis & determinism invariants"
//! for the rationale of each rule.
//!
//! Each invariant has one enforcer, the strongest available, and the
//! rules here are the ones neither the type system nor clippy can
//! state. Seeded hash containers, process-random hashers and wall-clock
//! reads are banned by resolved path in the workspace `clippy.toml`,
//! on every target (tests included). Only `parqp-mpc` can build a
//! `RoundStats` or `LoadReport`, because both are `#[non_exhaustive]`
//! and a round enters the ledger only when an exchange finishes. What
//! is left is crate- or file-scoped:
//!
//! | ID    | family      | what it forbids (non-test code)                         |
//! |-------|-------------|---------------------------------------------------------|
//! | PQ000 | meta        | malformed rule ID inside an `allow(...)` annotation     |
//! | PQ004 | determinism | `thread::spawn` / `std::thread` (scheduling order)      |
//! |       |             | outside the worker pool; clippy bans the function but   |
//! |       |             | cannot ban a module path such as `std::thread::scope`   |
//! | PQ103 | layering    | OS side channels (`std::fs`, `std::io`, `println!`, …)  |
//! |       |             | in algorithm and simulator crates; `std::sync` there    |
//! |       |             | and in `data` (clippy's lists are workspace-wide)       |
//! | PQ109 | layering    | raw page access or IO-counter fabrication               |
//! |       |             | (`touch_page`, `alloc_pages`) outside                   |
//! |       |             | `parqp-store`/`parqp-data`; draining/rewinding the IO   |
//! |       |             | ledger (`drain_io`, `reset_io`) outside `parqp-mpc`.    |
//! |       |             | Algorithm crates touch paging only through              |
//! |       |             | `parqp_data::paged` scans. Visibility cannot say it:    |
//! |       |             | the owners call these functions across crate lines      |
//! | PQ112 | layering    | a `thread_local!` outside the two ambient slots         |
//! |       |             | (`mpc::context`, `store::runtime`) and `parqp-testkit`: |
//! |       |             | a new instrument joins the run context instead of       |
//! |       |             | growing a runtime of its own (a macro, not a path)      |
//!
//! Who may *feed* the installed trace sink, metrics registry and fault
//! clock is not a rule here: those hooks are private to `parqp-mpc`.
//! Likewise the serving layer's plan cache is `pub(crate)` and its
//! per-query record `#[non_exhaustive]` — visibility facts, not rules.
//!
//! Manifest-level rules (`PQ101`, `PQ102`, `PQ301`, `PQ302`) live in
//! [`crate::manifest`]; the panic-surface ratchet (`PQ201`) lives in
//! [`crate::ratchet`]; dead suppressions (`PQ408`) in
//! [`crate::lint_files`].

use crate::tokenize::SourceFile;
use crate::Diagnostic;

/// Crate names whose `src/` the side-channel rule PQ103 applies to:
/// the simulator (with its instruments) and the pure algorithm crates. `data`
/// (file I/O), `core` (CLI), `bench` (CSV output), `testkit` (env-var
/// knobs) and `lint` (this tool) legitimately touch the OS.
pub const SIDE_CHANNEL_SCOPE: &[&str] = &[
    "mpc", "lp", "query", "join", "sort", "matmul", "store", "serve",
];

/// Why stdout/stderr writes are a side channel: the one effect of a
/// `Cluster::map` closure that running it detached cannot hide.
const PRINT_MESSAGE: &str = "stdout/stderr writes from worker threads interleave in scheduling \
                             order; return the value and let the CLI print it";

/// The one file in the workspace allowed to touch `std::thread`: the
/// sanctioned worker pool behind `mpc::exec`'s parallel mode. Its
/// `map` primitive merges results in submit order and barriers at the
/// end of every batch, which is exactly the determinism argument PQ004
/// otherwise enforces by banning threads outright.
pub const THREAD_POOL_PATH: &str = "crates/testkit/src/pool.rs";

/// The files allowed a `thread_local!` (PQ112): the run context every
/// simulator-side instrument installs into, the store slot that
/// `parqp_data::paged` reaches from below `mpc`, and the benchmark's
/// per-thread allocation counter (a `#[global_allocator]` has nowhere
/// else to keep state). `parqp-testkit` is exempt as a crate.
pub const THREAD_LOCAL_PATHS: &[&str] = &[
    "crates/mpc/src/context.rs",
    "crates/store/src/runtime.rs",
    "crates/bench/src/bin/perf/alloc.rs",
];

/// A banned token with its rule, message, and crate scope.
struct TokenRule {
    rule: &'static str,
    token: &'static str,
    message: &'static str,
    /// `None` = all crates; `Some(crates)` = only these crate dirs.
    scope: Option<&'static [&'static str]>,
    /// Crates exempt even when `scope` is `None`.
    exempt: &'static [&'static str],
    /// Workspace-relative file paths exempt from this rule (matched
    /// with `ends_with`, so fixture copies under other roots match).
    exempt_paths: &'static [&'static str],
}

const TOKEN_RULES: &[TokenRule] = &[
    TokenRule {
        rule: "PQ004",
        token: "thread::spawn",
        message: "OS threads reorder message arrival; spawning is sanctioned only inside testkit::pool",
        scope: None,
        exempt: &[],
        exempt_paths: &[THREAD_POOL_PATH],
    },
    TokenRule {
        rule: "PQ004",
        token: "std::thread",
        message: "OS threads reorder message arrival; spawning is sanctioned only inside testkit::pool",
        scope: None,
        exempt: &[],
        exempt_paths: &[THREAD_POOL_PATH],
    },
    TokenRule {
        rule: "PQ103",
        token: "std::fs",
        message: "algorithm/simulator crates must not touch the filesystem; I/O belongs in parqp-data::io",
        scope: Some(SIDE_CHANNEL_SCOPE),
        exempt: &[],
        exempt_paths: &[],
    },
    TokenRule {
        rule: "PQ103",
        token: "std::io",
        message: "algorithm/simulator crates must not do OS I/O; it bypasses the exchange ledger",
        scope: Some(SIDE_CHANNEL_SCOPE),
        exempt: &[],
        exempt_paths: &[],
    },
    TokenRule {
        rule: "PQ103",
        token: "std::net",
        message: "real sockets bypass Cluster::exchange; all communication must be charged to the ledger",
        scope: Some(SIDE_CHANNEL_SCOPE),
        exempt: &[],
        exempt_paths: &[],
    },
    TokenRule {
        rule: "PQ103",
        token: "std::process",
        message: "spawning processes bypasses the simulator; algorithm crates stay pure",
        scope: Some(SIDE_CHANNEL_SCOPE),
        exempt: &[],
        exempt_paths: &[],
    },
    TokenRule {
        rule: "PQ103",
        token: "std::env",
        message: "environment reads make runs machine-dependent; pass configuration explicitly",
        scope: Some(SIDE_CHANNEL_SCOPE),
        exempt: &[],
        exempt_paths: &[],
    },
    TokenRule {
        rule: "PQ103",
        token: "std::sync",
        message: "shared-memory synchronization has no MPC counterpart; servers share nothing",
        scope: Some(SIDE_CHANNEL_SCOPE),
        exempt: &[],
        exempt_paths: &[],
    },
    TokenRule {
        rule: "PQ103",
        token: "std::sync",
        message: "data may touch the OS but not share memory: its helpers run inside Cluster::map closures",
        scope: Some(&["data"]),
        exempt: &[],
        exempt_paths: &[],
    },
    TokenRule {
        rule: "PQ103",
        token: "println!",
        message: PRINT_MESSAGE,
        scope: Some(SIDE_CHANNEL_SCOPE),
        exempt: &[],
        exempt_paths: &[],
    },
    TokenRule {
        rule: "PQ103",
        token: "eprintln!",
        message: PRINT_MESSAGE,
        scope: Some(SIDE_CHANNEL_SCOPE),
        exempt: &[],
        exempt_paths: &[],
    },
    TokenRule {
        rule: "PQ103",
        token: "print!",
        message: PRINT_MESSAGE,
        scope: Some(SIDE_CHANNEL_SCOPE),
        exempt: &[],
        exempt_paths: &[],
    },
    TokenRule {
        rule: "PQ103",
        token: "eprint!",
        message: PRINT_MESSAGE,
        scope: Some(SIDE_CHANNEL_SCOPE),
        exempt: &[],
        exempt_paths: &[],
    },
    TokenRule {
        rule: "PQ103",
        token: "dbg!",
        message: PRINT_MESSAGE,
        scope: Some(SIDE_CHANNEL_SCOPE),
        exempt: &[],
        exempt_paths: &[],
    },
    TokenRule {
        rule: "PQ109",
        token: "touch_page",
        message: "only parqp-store's pools and parqp-data's paged scans charge page reads; fabricating them elsewhere desyncs the IO ledger from the data actually scanned",
        scope: None,
        exempt: &["store", "data"],
        exempt_paths: &[],
    },
    TokenRule {
        rule: "PQ109",
        token: "alloc_pages",
        message: "only parqp-store and parqp-data's paged representations allocate pages; scan through parqp_data::paged (RouteScan/IoCursor/IoRegion) instead",
        scope: None,
        exempt: &["store", "data"],
        exempt_paths: &[],
    },
    TokenRule {
        rule: "PQ109",
        token: "drain_io",
        message: "only parqp-mpc drains the IO ledger (at round boundaries), so io metrics mirror the rounds exactly; read totals via store::io_report instead",
        scope: None,
        exempt: &["store", "mpc"],
        exempt_paths: &[],
    },
    TokenRule {
        rule: "PQ109",
        token: "reset_io",
        message: "only parqp-mpc rewinds the IO ledger (in Cluster::reset), so counters stay aligned with the round clock",
        scope: None,
        exempt: &["store", "mpc"],
        exempt_paths: &[],
    },
    TokenRule {
        rule: "PQ112",
        token: "thread_local",
        message: "ambient state lives in mpc::context (or store::runtime, below mpc); install a new instrument there instead of growing another thread-local runtime",
        scope: None,
        exempt: &["testkit"],
        exempt_paths: THREAD_LOCAL_PATHS,
    },
];

/// Result of [`lint_source_tracked`]: diagnostics plus the allow
/// annotations that earned their keep (fed to the PQ408 dead-
/// suppression pass in [`crate::lint_workspace`]).
pub struct SourceLint {
    pub diagnostics: Vec<Diagnostic>,
    /// `(line, rule)` pairs where an `allow(rule)` suppressed a real
    /// finding on that line.
    pub used_allows: Vec<(usize, &'static str)>,
}

/// Lint one sanitized source file belonging to crate `crate_name`
/// (the directory name under `crates/`, e.g. `"mpc"`). `path` is used
/// verbatim in diagnostics.
pub fn lint_source(crate_name: &str, path: &str, file: &SourceFile) -> Vec<Diagnostic> {
    lint_source_tracked(crate_name, path, file).diagnostics
}

/// [`lint_source`], additionally reporting which allow annotations
/// actually suppressed a finding.
pub fn lint_source_tracked(crate_name: &str, path: &str, file: &SourceFile) -> SourceLint {
    let mut out = Vec::new();
    let mut used_allows = Vec::new();
    for line in &file.lines {
        // Malformed allow IDs are reported even on test lines: a typo'd
        // annotation silently fails open otherwise.
        for a in &line.allows {
            if !is_valid_rule_id(a) {
                out.push(Diagnostic {
                    rule: "PQ000",
                    path: path.to_string(),
                    line: line.number,
                    message: format!("malformed rule ID `{a}` in parqp-lint allow annotation"),
                });
            }
        }
        if line.in_test {
            continue;
        }
        for tr in TOKEN_RULES {
            if let Some(scope) = tr.scope {
                if !scope.contains(&crate_name) {
                    continue;
                }
            }
            if tr.exempt.contains(&crate_name) || tr.exempt_paths.iter().any(|p| path.ends_with(p))
            {
                continue;
            }
            if contains_token(&line.code, tr.token) {
                if line.allows(tr.rule) {
                    used_allows.push((line.number, tr.rule));
                } else {
                    out.push(Diagnostic {
                        rule: tr.rule,
                        path: path.to_string(),
                        line: line.number,
                        message: format!("`{}`: {}", tr.token, tr.message),
                    });
                }
            }
        }
    }
    SourceLint {
        diagnostics: out,
        used_allows,
    }
}

/// Whether `id` looks like a rule ID this tool could own (`PQ` + 3 digits).
pub fn is_valid_rule_id(id: &str) -> bool {
    id.len() == 5 && id.starts_with("PQ") && id[2..].bytes().all(|b| b.is_ascii_digit())
}

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Substring match with identifier boundaries on both ends, so that
/// `FxHashMap` does not match `HashMap` and `std::fs` does not match
/// inside `std::fsevent`. `::` inside the token matches literally.
pub fn contains_token(code: &str, token: &str) -> bool {
    let bytes = code.as_bytes();
    let tb = token.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(token) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_char(bytes[at - 1]);
        let end = at + tb.len();
        let after_ok = end >= bytes.len() || !is_ident_char(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::sanitize;

    fn rules_of(crate_name: &str, src: &str) -> Vec<(&'static str, usize)> {
        lint_source(crate_name, "test.rs", &sanitize(src))
            .into_iter()
            .map(|d| (d.rule, d.line))
            .collect()
    }

    #[test]
    fn fxhashmap_not_flagged() {
        // Tokens match on identifier boundaries: a banned path inside a
        // longer name is a different name.
        let src = "use rustc_hash::FxHashMap;\nuse std::fsevent;\nlet my_thread_local = 1;\n";
        assert!(rules_of("join", src).is_empty());
        assert_eq!(rules_of("join", "use std::fs;\n"), vec![("PQ103", 1)]);
    }

    #[test]
    fn test_module_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::fs;\n}\n";
        assert!(rules_of("join", src).is_empty());
    }

    #[test]
    fn allow_suppresses() {
        let src = "use std::thread; // parqp-lint: allow(PQ004)\n";
        assert!(rules_of("data", src).is_empty());
    }

    #[test]
    fn threads_flagged() {
        assert_eq!(
            rules_of("sort", "std::thread::spawn(|| {});\n"),
            vec![("PQ004", 1), ("PQ004", 1)]
        );
    }

    #[test]
    fn thread_pool_file_is_exempt_from_pq004_only() {
        let spawn = "std::thread::spawn(|| {});\n";
        let diags = lint_source(
            "testkit",
            "crates/testkit/src/pool.rs",
            &crate::tokenize::sanitize(spawn),
        );
        assert!(diags.is_empty(), "the sanctioned pool may spawn: {diags:?}");
        // Everything else in testkit (and everywhere else) stays banned.
        for path in [
            "crates/testkit/src/bench.rs",
            "crates/mpc/src/pool.rs",
            "crates/join/src/twoway.rs",
        ] {
            let diags = lint_source("testkit", path, &crate::tokenize::sanitize(spawn));
            assert_eq!(
                diags.iter().map(|d| d.rule).collect::<Vec<_>>(),
                vec!["PQ004", "PQ004"],
                "{path} must still be flagged"
            );
        }
        // The exemption is per-rule: other rules still fire inside the
        // pool file.
        let diags = lint_source(
            "testkit",
            "crates/testkit/src/pool.rs",
            &crate::tokenize::sanitize("store::touch_page(sid, page, rows);\n"),
        );
        assert_eq!(
            diags.iter().map(|d| d.rule).collect::<Vec<_>>(),
            vec!["PQ109"]
        );
    }

    #[test]
    fn side_channels_only_in_algorithm_crates() {
        assert_eq!(rules_of("join", "use std::fs;\n"), vec![("PQ103", 1)]);
        // data owns io.rs; core owns the CLI.
        assert!(rules_of("data", "use std::fs;\n").is_empty());
        assert!(rules_of("core", "use std::env;\n").is_empty());
        // the instruments inside mpc are as pure as the simulator.
        assert_eq!(rules_of("mpc", "use std::fs;\n"), vec![("PQ103", 1)]);
    }

    #[test]
    fn prints_and_shared_memory_are_side_channels() {
        let prints =
            "println!(\"x\");\neprintln!(\"x\");\nprint!(\"x\");\neprint!(\"x\");\ndbg!(x);\n";
        let every_line: Vec<_> = (1..=5).map(|line| ("PQ103", line)).collect();
        assert_eq!(rules_of("join", prints), every_line);
        assert_eq!(rules_of("mpc", prints), every_line);
        // The CLI, the bench tables and file I/O legitimately print.
        assert!(rules_of("core", prints).is_empty());
        assert!(rules_of("data", prints).is_empty());
        // data may touch the OS, but not share memory between servers.
        assert_eq!(
            rules_of("data", "use std::sync::Mutex;\n"),
            vec![("PQ103", 1)]
        );
        assert!(rules_of("core", "use std::sync::Mutex;\n").is_empty());
    }

    #[test]
    fn page_io_fabrication_flagged_outside_store_and_data() {
        let touch = "store::touch_page(sid, page, rows);\nlet base = store::alloc_pages(n);\n";
        assert_eq!(rules_of("join", touch), vec![("PQ109", 1), ("PQ109", 2)]);
        assert_eq!(rules_of("core", touch), vec![("PQ109", 1), ("PQ109", 2)]);
        assert!(rules_of("store", touch).is_empty());
        assert!(rules_of("data", touch).is_empty());
    }

    #[test]
    fn io_ledger_draining_flagged_outside_mpc() {
        let drain = "let d = store::drain_io();\nstore::reset_io();\n";
        assert_eq!(rules_of("join", drain), vec![("PQ109", 1), ("PQ109", 2)]);
        assert_eq!(rules_of("core", drain), vec![("PQ109", 1), ("PQ109", 2)]);
        assert!(rules_of("mpc", drain).is_empty());
        assert!(rules_of("store", drain).is_empty());
    }

    #[test]
    fn serve_is_side_channel_scoped() {
        assert_eq!(rules_of("serve", "use std::fs;\n"), vec![("PQ103", 1)]);
        assert_eq!(rules_of("serve", "use std::env;\n"), vec![("PQ103", 1)]);
    }

    #[test]
    fn thread_locals_only_in_the_two_slots_and_testkit() {
        let src =
            sanitize("thread_local! {\n    static SLOT: Cell<u64> = const { Cell::new(0) };\n}\n");
        for (krate, path) in [
            ("mpc", "crates/mpc/src/context.rs"),
            ("store", "crates/store/src/runtime.rs"),
            ("bench", "crates/bench/src/bin/perf/alloc.rs"),
            ("testkit", "crates/testkit/src/prop.rs"),
        ] {
            let diags = lint_source(krate, path, &src);
            assert!(diags.is_empty(), "{path} may hold a slot: {diags:?}");
        }
        // A seventh runtime anywhere else — including elsewhere in the
        // two owning crates — is flagged.
        for (krate, path) in [
            ("mpc", "crates/mpc/src/exec.rs"),
            ("store", "crates/store/src/pool.rs"),
            ("serve", "crates/serve/src/driver.rs"),
        ] {
            let diags = lint_source(krate, path, &src);
            assert_eq!(
                diags.iter().map(|d| (d.rule, d.line)).collect::<Vec<_>>(),
                vec![("PQ112", 1)],
                "{path} must be flagged"
            );
        }
    }

    #[test]
    fn paged_scans_allowed_everywhere() {
        let src = "let scan = RouteScan::new(sid, part);\n\
                   let mut io = parqp_data::paged::IoCursor::new(sid);\n\
                   let region = parqp_data::paged::IoRegion::new(words);\n\
                   let _g = parqp_data::paged::install(cfg);\n";
        assert!(rules_of("join", src).is_empty());
        assert!(rules_of("sort", src).is_empty());
        assert!(rules_of("core", src).is_empty());
    }

    #[test]
    fn metrics_announce_allowed_everywhere() {
        let src = "metrics::announce(&metrics::PaperBound::tuples(\"hash_join\", l, 1));\n\
                   let (reg, out) = metrics::capture(run);\n";
        assert!(rules_of("join", src).is_empty());
        assert!(rules_of("core", src).is_empty());
    }

    #[test]
    fn fault_plan_installation_allowed_everywhere() {
        let src = "let (log, out) = faults::capture(plan, strategy, run);\n\
                   let _guard = faults::install(plan, strategy);\n";
        assert!(rules_of("core", src).is_empty());
        assert!(rules_of("bench", src).is_empty());
    }

    #[test]
    fn trace_spans_allowed_everywhere() {
        let src = "let _span = trace::span(\"hypercube/shuffle\");\n";
        assert!(rules_of("join", src).is_empty());
        assert!(rules_of("sort", src).is_empty());
    }

    #[test]
    fn mentions_in_comments_and_strings_ignored() {
        let src = "// std::fs would be wrong here\nlet s = \"std::thread\";\n";
        assert!(rules_of("mpc", src).is_empty());
    }

    #[test]
    fn malformed_allow_reported() {
        let v = rules_of("join", "let x = 1; // parqp-lint: allow(PQ1)\n");
        assert_eq!(v, vec![("PQ000", 1)]);
    }

    #[test]
    fn valid_rule_ids() {
        assert!(is_valid_rule_id("PQ004"));
        assert!(is_valid_rule_id("PQ301"));
        assert!(!is_valid_rule_id("PQ1"));
        assert!(!is_valid_rule_id("pq001"));
        assert!(!is_valid_rule_id("PQ00a"));
    }
}
