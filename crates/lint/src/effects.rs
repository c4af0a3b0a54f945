//! Pass 3 of the effect analyzer: worker roots, effect propagation,
//! and the PQ401–PQ404 rule family.
//!
//! PR 6's byte-identity argument (see `crates/mpc/src/exec.rs`) rests
//! on a convention: closures handed to `Cluster::map`/`Cluster::try_map`
//! run on `WorkerPool` threads and must be **pure compute** — all
//! observable effects (trace/metrics/faults emission, ledger
//! accounting, exchange sends) and all shared state stay on the calling
//! thread. This pass turns that convention into a checked property:
//!
//! 1. find every **worker root** — a `.map(`/`.try_map(` call on a
//!    receiver named `…cluster`/`…pool` outside test code;
//! 2. scan the closure argument's span for direct effect tokens and
//!    resolve its calls via [`crate::callgraph`];
//! 3. propagate per-function effect summaries (a three-point lattice:
//!    Observable / SharedState / ThreadLocal) callee→caller to a
//!    fixpoint, caching one exemplar site per effect so diagnostics can
//!    show the full propagation chain;
//! 4. report: **PQ401** worker-reachable code emits observables,
//!    **PQ402** touches interior mutability / shared state, **PQ403**
//!    accesses thread-locals, **PQ404** a call could not be bound
//!    (sound-by-default: unresolved means "explicitly allow it or fix
//!    it", never "silently assume pure").
//!
//! Soundness caveats (also in DESIGN.md): resolution is textual, so
//! methods bind by name union and a handful of std-ubiquitous names
//! (`map`, `clone`, …) are assumed std-pure; std cannot call back into
//! this workspace's effect APIs, so the escape is one-directional.

use crate::callgraph::{self, Callee, Index, Resolution, ResolveCtx};
use crate::items::{self, FnItem};
use crate::rules::{contains_token, find_struct_literal};
use crate::tokenize::SourceFile;
use crate::Diagnostic;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The effect lattice. Each kind maps to one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// PQ401 — trace/metrics/faults emission, exchange sends, ledger
    /// accounting (`RoundStats`/`LoadReport` construction).
    Observable,
    /// PQ402 — interior mutability and shared state (`RefCell`,
    /// `Mutex`, atomics, `static mut`, …).
    SharedState,
    /// PQ403 — thread-local access (the trace/faults/metrics/exec
    /// runtimes are thread-local slots workers must never see).
    ThreadLocal,
}

const EFFECTS: [Effect; 3] = [Effect::Observable, Effect::SharedState, Effect::ThreadLocal];

impl Effect {
    pub fn rule(self) -> &'static str {
        match self {
            Effect::Observable => "PQ401",
            Effect::SharedState => "PQ402",
            Effect::ThreadLocal => "PQ403",
        }
    }
    fn idx(self) -> usize {
        match self {
            Effect::Observable => 0,
            Effect::SharedState => 1,
            Effect::ThreadLocal => 2,
        }
    }
    fn describe(self) -> &'static str {
        match self {
            Effect::Observable => "emits an observable effect",
            Effect::SharedState => "touches shared mutable state",
            Effect::ThreadLocal => "accesses a thread-local",
        }
    }
}

/// Qualified-path tokens with a fixed effect (matched with the same
/// ident-boundary rules as the PQ1xx token rules).
const PATH_EFFECT_TOKENS: &[(&str, Effect)] = &[
    ("metrics::announce", Effect::Observable),
    ("trace::span", Effect::ThreadLocal),
    ("trace::install", Effect::ThreadLocal),
    ("Recorder::capture", Effect::ThreadLocal),
    ("metrics::install", Effect::ThreadLocal),
    ("metrics::capture", Effect::ThreadLocal),
    ("faults::install", Effect::ThreadLocal),
    ("faults::capture", Effect::ThreadLocal),
    ("exec::install", Effect::ThreadLocal),
    ("exec::install_pool", Effect::ThreadLocal),
    ("exec::with_mode", Effect::ThreadLocal),
];

/// Type names whose mention marks the line (construction or capture of
/// the type counts — a worker closure holding a `RefCell` is the hazard
/// whether or not it borrows on that exact line).
const TYPE_EFFECT_TOKENS: &[(&str, Effect)] = &[
    ("TraceEvent", Effect::Observable),
    ("RoundStats", Effect::Observable),
    ("RefCell", Effect::SharedState),
    ("Cell", Effect::SharedState),
    ("UnsafeCell", Effect::SharedState),
    ("Mutex", Effect::SharedState),
    ("RwLock", Effect::SharedState),
    ("Condvar", Effect::SharedState),
    ("OnceLock", Effect::SharedState),
    ("OnceCell", Effect::SharedState),
    ("LazyLock", Effect::SharedState),
    ("AtomicBool", Effect::SharedState),
    ("AtomicUsize", Effect::SharedState),
    ("AtomicIsize", Effect::SharedState),
    ("AtomicU8", Effect::SharedState),
    ("AtomicU16", Effect::SharedState),
    ("AtomicU32", Effect::SharedState),
    ("AtomicU64", Effect::SharedState),
    ("AtomicI8", Effect::SharedState),
    ("AtomicI16", Effect::SharedState),
    ("AtomicI32", Effect::SharedState),
    ("AtomicI64", Effect::SharedState),
    ("AtomicPtr", Effect::SharedState),
    ("static mut", Effect::SharedState),
    ("thread_local", Effect::ThreadLocal),
    ("LocalKey", Effect::ThreadLocal),
];

/// Method names that *are* the effect, checked before resolution (the
/// receiver's type is unknown, so the name itself is the signal; none
/// of these names has a pure workspace homonym).
const METHOD_EFFECTS: &[(&str, Effect)] = &[
    ("send", Effect::Observable),
    ("broadcast", Effect::Observable),
    ("send_matching", Effect::Observable),
    ("finish", Effect::Observable),
    ("finish_untracked", Effect::Observable),
    ("record_round", Effect::Observable),
    ("try_record_round", Effect::Observable),
    ("exchange", Effect::Observable),
    ("set_sender", Effect::Observable),
    ("borrow_mut", Effect::SharedState),
    ("lock", Effect::SharedState),
    ("get_or_init", Effect::SharedState),
    ("fetch_add", Effect::SharedState),
    ("fetch_sub", Effect::SharedState),
    ("fetch_or", Effect::SharedState),
    ("fetch_and", Effect::SharedState),
    ("fetch_xor", Effect::SharedState),
    ("compare_exchange", Effect::SharedState),
    ("compare_exchange_weak", Effect::SharedState),
    ("with", Effect::ThreadLocal),
];

const MACRO_EFFECTS: &[(&str, Effect)] = &[
    ("thread_local", Effect::ThreadLocal),
    ("println", Effect::Observable),
    ("print", Effect::Observable),
    ("eprintln", Effect::Observable),
    ("eprint", Effect::Observable),
];

/// One file handed to [`analyze`].
pub struct FileInput<'a> {
    pub crate_name: &'a str,
    /// Workspace-relative path, e.g. `crates/join/src/twoway.rs`.
    pub path: &'a str,
    pub file: &'a SourceFile,
}

/// A detected worker root (for the JSON report and the self-check
/// test: the analysis must *find* the real worker phases, not
/// vacuously pass).
#[derive(Debug, Clone)]
pub struct RootInfo {
    pub path: String,
    pub line: usize,
    pub crate_name: String,
    /// Whether the job argument is a closure literal.
    pub closure: bool,
    /// Number of workspace functions reachable from this root.
    pub reachable_fns: usize,
}

pub struct EffectReport {
    /// Raw (unsuppressed) PQ401–PQ404 diagnostics; the caller applies
    /// `allow(...)` filtering so usage can feed the PQ408 pass.
    pub diagnostics: Vec<Diagnostic>,
    pub roots: Vec<RootInfo>,
}

/// Where a function's effect was observed: directly on a line of its
/// body, or via a call to another function.
#[derive(Debug, Clone)]
enum Exemplar {
    Direct { line: usize, what: String },
    Via { line: usize, callee: usize },
}

#[derive(Default, Clone)]
struct Summary {
    effects: [Option<Exemplar>; 3],
    /// `(line, targets)` resolved call edges.
    edges: Vec<(usize, Vec<usize>)>,
    /// `(line, display, reason)` unresolved calls.
    unresolved: Vec<(usize, String, &'static str)>,
}

/// Crates whose closure-less `pool.map(items, f)` forwarding is the
/// sanctioned plumbing between `Cluster` and the pool — everywhere
/// else a worker job must be a closure literal the analyzer can see
/// into.
const PLUMBING_CRATES: &[&str] = &["mpc", "testkit"];

fn first_direct_effect(code: &str) -> [Option<String>; 3] {
    let mut found: [Option<String>; 3] = [None, None, None];
    for (tok, eff) in PATH_EFFECT_TOKENS {
        if found[eff.idx()].is_none() && contains_token(code, tok) {
            found[eff.idx()] = Some(format!("`{tok}`"));
        }
    }
    for (tok, eff) in TYPE_EFFECT_TOKENS {
        if found[eff.idx()].is_none() && contains_token(code, tok) {
            found[eff.idx()] = Some(format!("`{tok}`"));
        }
    }
    if found[Effect::Observable.idx()].is_none()
        && find_struct_literal(code, "LoadReport").is_some()
    {
        found[Effect::Observable.idx()] = Some("`LoadReport { .. }` construction".to_string());
    }
    for call in callgraph::calls_in_line(code) {
        match &call.callee {
            Callee::Method { name, .. } => {
                for (m, eff) in METHOD_EFFECTS {
                    if name == m && found[eff.idx()].is_none() {
                        found[eff.idx()] = Some(format!("`.{m}(..)`"));
                    }
                }
            }
            Callee::Macro { name } => {
                for (m, eff) in MACRO_EFFECTS {
                    if name == m && found[eff.idx()].is_none() {
                        found[eff.idx()] = Some(format!("`{m}!`"));
                    }
                }
            }
            _ => {}
        }
    }
    found
}

/// Is this path call itself one of the effect tokens (`trace::span`,
/// `metrics::announce`, …)? Those are fully accounted for by the
/// direct-effect scan, so call resolution skips them — resolving would
/// either double-report through the runtime crate's body or, when that
/// crate is absent from the analyzed set, produce a spurious PQ404.
fn is_effect_token_call(callee: &Callee) -> bool {
    if let Callee::Path { segs } = callee {
        let joined = segs.join("::");
        return PATH_EFFECT_TOKENS
            .iter()
            .any(|(tok, _)| joined == *tok || joined.ends_with(&format!("::{tok}")));
    }
    false
}

/// Is this method call a worker root? (`recv.map(` / `recv.try_map(`
/// with a receiver whose name ends in `cluster` or `pool`.)
fn is_root_call(callee: &Callee) -> bool {
    if let Callee::Method { name, recv } = callee {
        if name == "map" || name == "try_map" {
            if let Some(r) = recv {
                let r = r.to_ascii_lowercase();
                return r.ends_with("cluster") || r.ends_with("pool");
            }
        }
    }
    false
}

struct FileModel<'a> {
    input: &'a FileInput<'a>,
    items: Vec<FnItem>,
    owners: Vec<Option<usize>>,
}

/// Run the full analysis over the workspace file set.
pub fn analyze(files: &[FileInput]) -> EffectReport {
    // ---- pass 1: item models -------------------------------------
    let models: Vec<FileModel> = files
        .iter()
        .map(|input| {
            let items = items::extract_with_owners(input.file);
            let owners = items::line_owners(&items, input.file.lines.len());
            FileModel {
                input,
                items,
                owners,
            }
        })
        .collect();

    // ---- pass 2: global index + per-item summaries ---------------
    let index = Index::build(
        models
            .iter()
            .map(|m| (m.input.crate_name.to_string(), m.items.clone()))
            .collect(),
    );
    // Global item id -> (file_idx, local item idx) is implicit in the
    // index build order; recover the per-file local offsets.
    let mut file_item_base = Vec::with_capacity(models.len());
    {
        let mut base = 0;
        for m in &models {
            file_item_base.push(base);
            base += m.items.len();
        }
    }

    let mut summaries: Vec<Summary> = vec![Summary::default(); index.items.len()];
    for (file_idx, m) in models.iter().enumerate() {
        for (local, item) in m.items.iter().enumerate() {
            if item.is_test || !item.has_body {
                continue;
            }
            let global = file_item_base[file_idx] + local;
            let ctx = ResolveCtx {
                crate_name: m.input.crate_name,
                file_idx,
                owner: item.owner.as_deref(),
                params: &item.params,
                is_test: false,
            };
            let mut summary = Summary::default();
            for line in &m.input.file.lines[item.sig_line - 1..item.end_line] {
                // Lines owned by a nested fn are that item's business.
                if m.owners[line.number - 1] != Some(local) {
                    continue;
                }
                let direct = first_direct_effect(&line.code);
                for eff in EFFECTS {
                    if summary.effects[eff.idx()].is_none() {
                        if let Some(what) = &direct[eff.idx()] {
                            summary.effects[eff.idx()] = Some(Exemplar::Direct {
                                line: line.number,
                                what: what.clone(),
                            });
                        }
                    }
                }
                let mut targets_here: Vec<usize> = Vec::new();
                for call in callgraph::calls_in_line(&line.code) {
                    if is_root_call(&call.callee) {
                        continue; // roots are entry points, not edges
                    }
                    if is_effect_token_call(&call.callee) {
                        continue; // accounted as a direct effect above
                    }
                    match index.resolve(&call.callee, &ctx) {
                        Resolution::Edges(t) => targets_here.extend(t),
                        Resolution::Pure => {}
                        Resolution::Unresolved { reason } => {
                            summary
                                .unresolved
                                .push((line.number, call.callee.display(), reason));
                        }
                    }
                }
                if !targets_here.is_empty() {
                    targets_here.sort_unstable();
                    targets_here.dedup();
                    summary.edges.push((line.number, targets_here));
                }
            }
            summaries[global] = summary;
        }
    }

    // ---- pass 3: fixpoint propagation callee -> caller -----------
    loop {
        let mut changed = false;
        for caller in 0..summaries.len() {
            for eff in EFFECTS {
                if summaries[caller].effects[eff.idx()].is_some() {
                    continue;
                }
                let mut hit = None;
                'edges: for (line, targets) in &summaries[caller].edges {
                    for &t in targets {
                        if t != caller && summaries[t].effects[eff.idx()].is_some() {
                            hit = Some(Exemplar::Via {
                                line: *line,
                                callee: t,
                            });
                            break 'edges;
                        }
                    }
                }
                if let Some(ex) = hit {
                    summaries[caller].effects[eff.idx()] = Some(ex);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // ---- pass 4: roots -------------------------------------------
    let mut diagnostics = Vec::new();
    let mut roots = Vec::new();
    let mut reported_unresolved: BTreeSet<(String, usize, String)> = BTreeSet::new();

    for (file_idx, m) in models.iter().enumerate() {
        let lines = &m.input.file.lines;
        for (li, line) in lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            if !callgraph::calls_in_line(&line.code)
                .iter()
                .any(|c| is_root_call(&c.callee))
            {
                continue;
            }
            // Region: from the root line to the line closing the call's
            // parenthesis group (sanitized code, so strings can't
            // unbalance it).
            let mut depth = 0i64;
            let mut end = li;
            let mut started = false;
            'scan: for (lj, l) in lines.iter().enumerate().skip(li) {
                for ch in l.code.chars() {
                    match ch {
                        '(' => {
                            depth += 1;
                            started = true;
                        }
                        ')' => {
                            depth -= 1;
                            if started && depth <= 0 {
                                end = lj;
                                break 'scan;
                            }
                        }
                        _ => {}
                    }
                }
                end = lj;
            }
            let region = &lines[li..=end];
            let has_closure = region.iter().any(|l| l.code.contains('|'));
            let root_path = m.input.path;
            let root_line = line.number;

            if !has_closure {
                if !PLUMBING_CRATES.contains(&m.input.crate_name) {
                    diagnostics.push(Diagnostic {
                        rule: "PQ404",
                        path: root_path.to_string(),
                        line: root_line,
                        message: format!(
                            "worker job at {root_path}:{root_line} is not a closure literal, so \
                             its purity cannot be checked; inline the closure or annotate with \
                             `// parqp-lint: allow(PQ404)`"
                        ),
                    });
                }
                roots.push(RootInfo {
                    path: root_path.to_string(),
                    line: root_line,
                    crate_name: m.input.crate_name.to_string(),
                    closure: false,
                    reachable_fns: 0,
                });
                continue;
            }

            // Scan the region in the enclosing fn's context.
            let encl = m.owners[li].map(|local| &m.items[local]);
            let ctx = ResolveCtx {
                crate_name: m.input.crate_name,
                file_idx,
                owner: encl.and_then(|it| it.owner.as_deref()),
                params: encl.map(|it| it.params.as_slice()).unwrap_or(&[]),
                is_test: false,
            };
            let mut frontier: Vec<(usize, usize)> = Vec::new(); // (call line, target)
            let mut reported_kind = [false; 3];
            for l in region {
                let direct = first_direct_effect(&l.code);
                for eff in EFFECTS {
                    if let Some(what) = &direct[eff.idx()] {
                        if !reported_kind[eff.idx()] {
                            reported_kind[eff.idx()] = true;
                            diagnostics.push(Diagnostic {
                                rule: eff.rule(),
                                path: root_path.to_string(),
                                line: root_line,
                                message: format!(
                                    "worker closure at {root_path}:{root_line} {} directly: {} at \
                                     {root_path}:{}",
                                    eff.describe(),
                                    what,
                                    l.number
                                ),
                            });
                        }
                    }
                }
                for call in callgraph::calls_in_line(&l.code) {
                    if is_root_call(&call.callee) {
                        continue;
                    }
                    if is_effect_token_call(&call.callee) {
                        continue; // accounted as a direct effect above
                    }
                    match index.resolve(&call.callee, &ctx) {
                        Resolution::Edges(t) => {
                            frontier.extend(t.into_iter().map(|t| (l.number, t)))
                        }
                        Resolution::Pure => {}
                        Resolution::Unresolved { reason } => {
                            let key = (root_path.to_string(), l.number, call.callee.display());
                            if reported_unresolved.insert(key) {
                                diagnostics.push(Diagnostic {
                                    rule: "PQ404",
                                    path: root_path.to_string(),
                                    line: l.number,
                                    message: format!(
                                        "unresolved call {} in worker closure (root at \
                                         {root_path}:{root_line}): {reason}; resolve it or \
                                         annotate with `// parqp-lint: allow(PQ404)`",
                                        call.callee.display()
                                    ),
                                });
                            }
                        }
                    }
                }
            }

            // BFS over resolved edges: effects via summaries, PQ404 for
            // unresolved calls inside reachable bodies.
            let mut reachable: BTreeSet<usize> = BTreeSet::new();
            let mut queue: VecDeque<(usize, usize)> = frontier.iter().copied().collect();
            let mut entry: BTreeMap<usize, usize> = BTreeMap::new(); // target -> entry call line
            while let Some((call_line, t)) = queue.pop_front() {
                if !reachable.insert(t) {
                    continue;
                }
                entry.insert(t, call_line);
                for eff in EFFECTS {
                    if reported_kind[eff.idx()] {
                        continue;
                    }
                    if summaries[t].effects[eff.idx()].is_some() {
                        reported_kind[eff.idx()] = true;
                        let (chain, site) = effect_chain(&index, &summaries, files, t, eff);
                        diagnostics.push(Diagnostic {
                            rule: eff.rule(),
                            path: root_path.to_string(),
                            line: root_line,
                            message: format!(
                                "worker closure at {root_path}:{root_line} {} — reaches {site} \
                                 via {chain} (first call at {root_path}:{call_line})",
                                eff.describe()
                            ),
                        });
                    }
                }
                for (line, dl, reason) in &summaries[t].unresolved {
                    let (tf, ti) = (index.items[t].0, &index.items[t].1);
                    let tpath = files[tf].path;
                    let key = (tpath.to_string(), *line, dl.clone());
                    if reported_unresolved.insert(key) {
                        diagnostics.push(Diagnostic {
                            rule: "PQ404",
                            path: tpath.to_string(),
                            line: *line,
                            message: format!(
                                "unresolved call {dl} in worker-reachable fn `{}` (root at \
                                 {root_path}:{root_line}): {reason}; resolve it or annotate \
                                 with `// parqp-lint: allow(PQ404)`",
                                ti.display()
                            ),
                        });
                    }
                }
                for (line, targets) in &summaries[t].edges {
                    for &next in targets {
                        if !reachable.contains(&next) {
                            queue.push_back((*line, next));
                        }
                    }
                }
            }

            roots.push(RootInfo {
                path: root_path.to_string(),
                line: root_line,
                crate_name: m.input.crate_name.to_string(),
                closure: true,
                reachable_fns: reachable.len(),
            });
        }
    }

    EffectReport { diagnostics, roots }
}

/// Reconstruct the propagation chain from item `start` to the concrete
/// effect site: "`a::b` ({path}:{line}) → `c` …" plus the final site
/// description.
fn effect_chain(
    index: &Index,
    summaries: &[Summary],
    files: &[FileInput],
    start: usize,
    eff: Effect,
) -> (String, String) {
    let mut parts = Vec::new();
    let mut cur = start;
    let mut seen = BTreeSet::new();
    loop {
        let (file_idx, item) = &index.items[cur];
        let path = files[*file_idx].path;
        if !seen.insert(cur) {
            parts.push(format!("`{}` ({path})", item.display()));
            return (parts.join(" → "), "a cyclic effect summary".to_string());
        }
        match &summaries[cur].effects[eff.idx()] {
            Some(Exemplar::Direct { line, what }) => {
                parts.push(format!("`{}` ({path})", item.display()));
                return (parts.join(" → "), format!("{what} at {path}:{line}"));
            }
            Some(Exemplar::Via { line, callee }) => {
                // Show the call site that carries the effect to the next hop.
                parts.push(format!("`{}` ({path}:{line})", item.display()));
                cur = *callee;
            }
            None => {
                parts.push(format!("`{}` ({path})", item.display()));
                return (parts.join(" → "), "an inferred effect".to_string());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::sanitize;

    fn run(srcs: &[(&str, &str, &str)]) -> EffectReport {
        let sanitized: Vec<SourceFile> = srcs.iter().map(|(_, _, s)| sanitize(s)).collect();
        let inputs: Vec<FileInput> = srcs
            .iter()
            .zip(&sanitized)
            .map(|((krate, path, _), file)| FileInput {
                crate_name: krate,
                path,
                file,
            })
            .collect();
        analyze(&inputs)
    }

    #[test]
    fn direct_announce_in_closure_is_pq401() {
        let src = "fn go(cluster: &Cluster) {\n    cluster.map(items, |s, v| {\n        metrics::announce(s);\n        v\n    });\n}\n";
        let rep = run(&[("join", "crates/join/src/x.rs", src)]);
        let d: Vec<_> = rep
            .diagnostics
            .iter()
            .filter(|d| d.rule == "PQ401")
            .collect();
        assert_eq!(d.len(), 1, "{:?}", rep.diagnostics);
        assert_eq!(d[0].line, 2);
        assert!(d[0].message.contains("metrics::announce"));
    }

    #[test]
    fn effect_via_helper_shows_chain() {
        let src = "fn helper(x: u64) -> u64 {\n    metrics::announce(x);\n    x\n}\nfn go(cluster: &Cluster) {\n    cluster.map(items, |_, v| helper(v));\n}\n";
        let rep = run(&[("join", "crates/join/src/x.rs", src)]);
        let d: Vec<_> = rep
            .diagnostics
            .iter()
            .filter(|d| d.rule == "PQ401")
            .collect();
        assert_eq!(d.len(), 1, "{:?}", rep.diagnostics);
        assert!(d[0].message.contains("`helper`"), "{}", d[0].message);
        assert!(
            d[0].message.contains("metrics::announce"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn refcell_capture_is_pq402() {
        let src = "fn go(cluster: &Cluster) {\n    let shared = std::cell::RefCell::new(0);\n    cluster.map(items, |_, v| {\n        *shared.borrow_mut() += 1;\n        v\n    });\n}\n";
        let rep = run(&[("join", "crates/join/src/x.rs", src)]);
        assert!(rep.diagnostics.iter().any(|d| d.rule == "PQ402"));
    }

    #[test]
    fn unresolved_param_call_is_pq404() {
        let src = "fn go(cluster: &Cluster, key: impl Fn(u64) -> u64) {\n    cluster.map(items, |_, v| key(v));\n}\n";
        let rep = run(&[("sort", "crates/sort/src/x.rs", src)]);
        let d: Vec<_> = rep
            .diagnostics
            .iter()
            .filter(|d| d.rule == "PQ404")
            .collect();
        assert_eq!(d.len(), 1, "{:?}", rep.diagnostics);
        assert!(d[0].message.contains("higher-order"));
    }

    #[test]
    fn pure_closure_is_clean_and_root_is_recorded() {
        let src = "fn double(v: u64) -> u64 {\n    v * 2\n}\nfn go(cluster: &Cluster) {\n    cluster.map(items, |_, v| double(v));\n}\n";
        let rep = run(&[("join", "crates/join/src/x.rs", src)]);
        assert!(rep.diagnostics.is_empty(), "{:?}", rep.diagnostics);
        assert_eq!(rep.roots.len(), 1);
        assert_eq!(rep.roots[0].reachable_fns, 1);
    }

    #[test]
    fn non_closure_job_is_pq404_outside_plumbing_crates() {
        let src = "fn go(pool: &WorkerPool, f: fn(usize) -> u64) {\n    pool.map(items, f);\n}\n";
        let rep = run(&[("join", "crates/join/src/x.rs", src)]);
        assert!(rep.diagnostics.iter().any(|d| d.rule == "PQ404"));
        let rep = run(&[("mpc", "crates/mpc/src/x.rs", src)]);
        assert!(rep.diagnostics.is_empty(), "{:?}", rep.diagnostics);
    }

    #[test]
    fn test_code_roots_are_ignored() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(cluster: &Cluster) {\n        cluster.map(items, |_, v| metrics::announce(v));\n    }\n}\n";
        let rep = run(&[("join", "crates/join/src/x.rs", src)]);
        assert!(rep.diagnostics.is_empty(), "{:?}", rep.diagnostics);
    }

    #[test]
    fn cross_file_propagation() {
        let a = "pub fn log_it(x: u64) {\n    parqp_mpc::metrics::announce(x);\n}\n";
        let b = "fn go(cluster: &Cluster) {\n    cluster.map(items, |_, v| {\n        crate::log_it(v);\n        v\n    });\n}\n";
        let rep = run(&[
            ("join", "crates/join/src/a.rs", a),
            ("join", "crates/join/src/b.rs", b),
        ]);
        assert!(
            rep.diagnostics.iter().any(|d| d.rule == "PQ401"),
            "{:?}",
            rep.diagnostics
        );
    }

    #[test]
    fn thread_local_access_is_pq403() {
        let src = "fn go(cluster: &Cluster) {\n    cluster.map(items, |_, v| {\n        SLOT.with(|s| s.set(v));\n        v\n    });\n}\n";
        let rep = run(&[("join", "crates/join/src/x.rs", src)]);
        assert!(
            rep.diagnostics.iter().any(|d| d.rule == "PQ403"),
            "{:?}",
            rep.diagnostics
        );
    }
}
