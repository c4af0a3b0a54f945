//! Manifest-level rules: the crate dependency DAG and the offline guard.
//!
//! | ID    | family   | what it enforces                                        |
//! |-------|----------|---------------------------------------------------------|
//! | PQ101 | layering | `[dependencies]` edges stay inside the allowed DAG      |
//! | PQ102 | layering | `parqp-testkit` is dev-only outside the RNG whitelist   |
//! | PQ301 | offline  | every dependency is an in-workspace path dependency     |
//! | PQ302 | offline  | `rand`/`proptest`/`criterion` never reappear            |
//!
//! The TOML scanner here is deliberately the same shape as the one the
//! original `crates/testkit/tests/offline_guard.rs` used: a line-based
//! `[section]` + `key = value` reader. It is not a general TOML parser,
//! but the workspace's manifests are hand-written and simple, and the
//! offline guard has policed them with exactly this logic since PR 1.

use crate::Diagnostic;

/// The allowed `[dependencies]` DAG, mirroring DESIGN.md § "Dependency
/// graph". Keys are crate *directory* names under `crates/`; values are
/// the directories their `parqp-*` dependencies may point at.
///
/// `dev-dependencies` are unrestricted within the workspace: test-only
/// edges cannot violate runtime layering (cargo itself rejects cycles).
pub const ALLOWED_DEPS: &[(&str, &[&str])] = &[
    (
        "bench",
        &[
            "core", "mpc", "data", "lp", "query", "join", "sort", "matmul", "testkit",
        ],
    ),
    (
        "core",
        &[
            "mpc", "data", "lp", "query", "join", "sort", "matmul", "serve",
        ],
    ),
    ("data", &["store", "testkit"]),
    ("join", &["mpc", "data", "lp", "query", "sort"]),
    ("lint", &[]),
    ("lp", &[]),
    ("matmul", &["mpc", "data", "testkit"]),
    ("mpc", &["store", "testkit"]),
    ("query", &["data", "lp"]),
    ("serve", &["mpc", "data", "join", "testkit"]),
    ("sort", &["mpc", "data"]),
    ("store", &[]),
    ("testkit", &[]),
];

/// Crates whose algorithms are *defined* in terms of seeded randomness
/// and may therefore carry `parqp-testkit` (the deterministic RNG) as a
/// runtime dependency, plus `mpc`, which holds the sanctioned worker
/// pool (`testkit::pool`) behind `ExecMode::Parallel` and draws seeded
/// fault schedules. Everywhere else testkit is dev-only (PQ102).
pub const TESTKIT_RUNTIME_WHITELIST: &[&str] = &["data", "matmul", "bench", "mpc", "serve"];

/// Registry crates whose roles `parqp-testkit` absorbed in PR 1; they
/// must never reappear in any manifest (PQ302).
pub const BANNED_CRATES: &[&str] = &["rand", "proptest", "criterion"];

/// The `key = value` entries of a named TOML section, with line numbers.
/// Skips blank lines and full-line comments.
pub fn section_entries(toml: &str, section: &str) -> Vec<(usize, String, String)> {
    let mut out = Vec::new();
    let mut in_section = false;
    for (idx, line) in toml.lines().enumerate() {
        let line = line.trim();
        if line.starts_with('[') {
            in_section = line == format!("[{section}]");
            continue;
        }
        if !in_section || line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((key, value)) = line.split_once('=') {
            out.push((idx + 1, key.trim().to_string(), value.trim().to_string()));
        }
    }
    out
}

/// Map a dependency name to its crate directory: `parqp-mpc` → `mpc`,
/// the facade `parqp` → `core`. Non-`parqp` names map to `None`.
fn dep_dir(name: &str) -> Option<&str> {
    if name == "parqp" {
        return Some("core");
    }
    name.strip_prefix("parqp-")
}

fn is_path_dep(value: &str) -> bool {
    value.contains("path =") || value.contains("path=") || value.contains("workspace = true")
}

/// Lint one member manifest. `crate_name` is the directory under
/// `crates/`; `path` is used verbatim in diagnostics.
pub fn lint_manifest(crate_name: &str, path: &str, toml: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    let allowed = ALLOWED_DEPS
        .iter()
        .find(|(name, _)| *name == crate_name)
        .map(|(_, deps)| *deps);
    if allowed.is_none() {
        out.push(Diagnostic {
            rule: "PQ101",
            path: path.to_string(),
            line: 1,
            message: format!(
                "crate `{crate_name}` is not in the layering DAG; \
                 add it to ALLOWED_DEPS in crates/lint/src/manifest.rs"
            ),
        });
    }

    for section in ["dependencies", "dev-dependencies", "build-dependencies"] {
        for (line, name, value) in section_entries(toml, section) {
            // Offline rules apply to every section.
            if !is_path_dep(&value) || value.contains("git =") || value.contains("registry =") {
                out.push(Diagnostic {
                    rule: "PQ301",
                    path: path.to_string(),
                    line,
                    message: format!(
                        "`{name} = {value}` is not an in-workspace path dependency; \
                         the build must stay offline"
                    ),
                });
            }
            if BANNED_CRATES.contains(&name.as_str()) {
                out.push(Diagnostic {
                    rule: "PQ302",
                    path: path.to_string(),
                    line,
                    message: format!(
                        "banned dependency `{name}` reintroduced; \
                         use parqp-testkit (crates/testkit) instead"
                    ),
                });
            }
            if section != "dependencies" {
                continue;
            }
            // Layering rules apply to runtime dependencies only.
            let Some(dir) = dep_dir(&name) else { continue };
            if dir == "testkit" && !TESTKIT_RUNTIME_WHITELIST.contains(&crate_name) {
                out.push(Diagnostic {
                    rule: "PQ102",
                    path: path.to_string(),
                    line,
                    message: format!(
                        "`parqp-testkit` must be a dev-dependency of `{crate_name}`: only \
                         {TESTKIT_RUNTIME_WHITELIST:?} run seeded randomness at runtime"
                    ),
                });
            } else if let Some(allowed) = allowed {
                if !allowed.contains(&dir) {
                    out.push(Diagnostic {
                        rule: "PQ101",
                        path: path.to_string(),
                        line,
                        message: format!(
                            "dependency edge `{crate_name}` → `{dir}` is outside the layering \
                             DAG (allowed: {allowed:?}); algorithm crates communicate only \
                             through parqp_mpc::Cluster"
                        ),
                    });
                }
            }
        }
    }
    out
}

/// Lint the workspace-root manifest: every `[workspace.dependencies]`
/// entry must be a path dependency and must not be a banned crate.
pub fn lint_workspace_manifest(path: &str, toml: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (line, name, value) in section_entries(toml, "workspace.dependencies") {
        if !value.contains("path") {
            out.push(Diagnostic {
                rule: "PQ301",
                path: path.to_string(),
                line,
                message: format!(
                    "[workspace.dependencies] `{name} = {value}` is not a path dependency"
                ),
            });
        }
        if BANNED_CRATES.contains(&name.as_str()) {
            out.push(Diagnostic {
                rule: "PQ302",
                path: path.to_string(),
                line,
                message: format!("banned dependency `{name}` in [workspace.dependencies]"),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(crate_name: &str, toml: &str) -> Vec<(&'static str, usize)> {
        lint_manifest(crate_name, "Cargo.toml", toml)
            .into_iter()
            .map(|d| (d.rule, d.line))
            .collect()
    }

    #[test]
    fn clean_manifest_passes() {
        let toml = "[package]\nname = \"parqp-sort\"\n\n[dependencies]\n\
                    parqp-mpc = { workspace = true }\nparqp-data = { workspace = true }\n\n\
                    [dev-dependencies]\nparqp-testkit = { workspace = true }\n";
        assert!(rules_of("sort", toml).is_empty());
    }

    #[test]
    fn dag_violation_named_with_line() {
        // sort must not depend on join.
        let toml = "[dependencies]\nparqp-join = { workspace = true }\n";
        assert_eq!(rules_of("sort", toml), vec![("PQ101", 2)]);
    }

    #[test]
    fn testkit_runtime_dep_flagged_outside_whitelist() {
        let toml = "[dependencies]\nparqp-testkit = { workspace = true }\n";
        assert_eq!(rules_of("join", toml), vec![("PQ102", 2)]);
        // …but data's generators are allowed to hold the RNG.
        assert!(rules_of("data", toml).is_empty());
    }

    #[test]
    fn testkit_dev_dep_fine_everywhere() {
        let toml = "[dev-dependencies]\nparqp-testkit = { workspace = true }\n";
        assert!(rules_of("mpc", toml).is_empty());
    }

    #[test]
    fn registry_dep_flagged() {
        let toml = "[dependencies]\nserde = \"1\"\n";
        assert_eq!(rules_of("mpc", toml), vec![("PQ301", 2)]);
    }

    #[test]
    fn git_dep_flagged() {
        let toml = "[dependencies]\nfoo = { git = \"https://example.com/foo\" }\n";
        assert_eq!(rules_of("mpc", toml), vec![("PQ301", 2)]);
    }

    #[test]
    fn banned_crate_flagged_even_as_path() {
        let toml = "[dev-dependencies]\nrand = { path = \"../rand\" }\n";
        assert_eq!(rules_of("mpc", toml), vec![("PQ302", 2)]);
    }

    #[test]
    fn unknown_crate_flagged() {
        assert_eq!(rules_of("newcrate", "[package]\n"), vec![("PQ101", 1)]);
    }

    #[test]
    fn workspace_manifest_registry_entry_flagged() {
        let toml = "[workspace.dependencies]\nserde = \"1\"\n";
        let v = lint_workspace_manifest("Cargo.toml", toml);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "PQ301");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn dag_matches_design_doc_shape() {
        // Spot-check the table itself: lp and store are leaves, mpc
        // (the simulator with its trace, metrics and fault instruments
        // folded in) sees only store's IO ledger plus testkit for the
        // sanctioned worker pool and seeded fault schedules, core sees
        // every algorithm crate, and nothing depends on the linter (it
        // runs before anything else compiles).
        let find = |n: &str| {
            ALLOWED_DEPS
                .iter()
                .find(|(name, _)| *name == n)
                .map(|(_, d)| *d)
                .expect("crate in table")
        };
        assert_eq!(find("mpc"), &["store", "testkit"]);
        assert!(find("store").is_empty());
        assert_eq!(find("data"), &["store", "testkit"]);
        assert!(find("lp").is_empty());
        assert!(find("core").contains(&"join"));
        // The serving layer composes the simulator and the algorithms
        // it serves (its telemetry is its own `obs` module); only core
        // (the `parqp serve` front door) may depend on it.
        assert_eq!(find("serve"), &["mpc", "data", "join", "testkit"]);
        assert!(find("core").contains(&"serve"));
        for (name, deps) in ALLOWED_DEPS {
            assert!(
                *name == "core" || !deps.contains(&"serve"),
                "only core (the `parqp serve` front door) may depend on serve"
            );
        }
        for (_, deps) in ALLOWED_DEPS {
            assert!(!deps.contains(&"lint"), "nothing depends on the linter");
        }
        assert_eq!(find("matmul"), &["mpc", "data", "testkit"]);
    }
}
