//! Traced mode: the per-layer metrics of one workload.
//!
//! A short untraced series comes first (it supplies the `driver.*`
//! diagnostics and the baseline that tracing overhead is measured
//! against), then the workload's own layers are taken apart: spans
//! around the calls into each crate, a few costs measured by running a
//! piece alone, and differences between interleaved variants of the
//! real entry point. Every `_ms` figure is the fastest of its samples,
//! for the reason `measure.rs` gives; counts are exact.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;

use parqp::obs::SeriesReport;
use parqp::planner;
use parqp::serve::{self, ServeConfig, ServeReport, TEMPLATES};
use parqp_data::paged::{self, IoStats};
use parqp_join::common::JoinRun;
use parqp_join::gym::gym;
use parqp_join::multiway::hypercube;
use parqp_matmul::square_block;
use parqp_mpc::faults::{self, FaultPlan, RecoveryStrategy};
use parqp_mpc::trace::Recorder;
use parqp_mpc::{exec, metrics, Cluster, ExecMode, HashFamily, LoadReport};
use parqp_query::{parse_query, Ghd};
use parqp_sort::psrs;
use parqp_testkit::bench::time_ns;
use parqp_testkit::pool::ncpu;

use crate::alloc;
use crate::measure::{run_op, since};
use crate::pipelines::{hash_join_probes, hash_join_spans, hypercube_probes, hypercube_spans};
use crate::registry::{WorkloadSpec, PER_LAYER};
use crate::spans::Tracer;
use crate::stats::{self, min_or_zero};
use crate::workloads::{
    prepare, under_instruments, Inputs, JoinInputs, MatmulInputs, PlannedInputs, Prepared, Scale,
    OBSERVED_STORE,
};

/// Window width for `replay_observed`, the one `parqp dash` defaults to.
const OBS_WINDOW_TICKS: u64 = 8;

/// What a traced run hands back.
#[derive(Debug, Default)]
pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The metrics this workload measured; `per_layer` fills the rest
    /// with 0.
    pub metrics: BTreeMap<&'static str, f64>,
    pub tracer: Tracer,
}

impl Traced {
    /// Every per-layer metric in `PER_LAYER` order; one this workload
    /// does not exercise reads 0.
    pub fn per_layer(&self) -> Vec<(&'static str, &'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|m| {
                let v = self.metrics.get(m.name).copied().unwrap_or(0.0);
                (m.name, m.unit, v)
            })
            .collect()
    }
}

/// State shared by the per-workload routines.
struct Ctx {
    out: Traced,
    /// Fastest untraced operation of this run, ms.
    op_ms: f64,
    /// Milliseconds the layer measurements may spend.
    budget_ms: f64,
    quick: bool,
}

impl Ctx {
    fn put(&mut self, name: &'static str, value: f64) {
        self.out.metrics.insert(name, value);
    }

    /// How many times to repeat something costing `cost_ms` so that it
    /// uses about `share` of the budget: between 2 and `max` (exactly 1
    /// in quick mode).
    fn reps(&self, cost_ms: f64, share: f64, max: usize) -> usize {
        if self.quick {
            return 1;
        }
        let fit = (self.budget_ms * share / cost_ms.max(1e-3)) as usize;
        fit.clamp(2, max.max(2))
    }

    /// Count a verification: `ok` or a failure called `what`.
    fn verify(&mut self, ok: bool, what: &str) {
        self.out.attempted += 1;
        if !ok {
            self.out.failed += 1;
            self.out.failures.push(what.to_string());
        }
    }

    /// The fastest full duration of the spans called `name`, ms.
    fn total_min(&self, name: &str) -> f64 {
        min_or_zero(&self.out.tracer.total_ms(name))
    }

    /// The fastest self time of the spans called `name`, ms.
    fn self_min(&self, name: &str) -> f64 {
        min_or_zero(&self.out.tracer.self_ms(name))
    }

    fn allocs_min(&self, name: &str) -> f64 {
        self.out.tracer.allocs(name).into_iter().min().unwrap_or(0) as f64
    }

    /// `driver.trace_overhead_share` and `driver.span_coverage` from
    /// the root spans called `op`: how much slower the re-composed,
    /// span-wrapped pipeline is than the real entry point, and how much
    /// of the real operation its phases account for.
    ///
    /// `real_ms` are timings of the real operation taken in between the
    /// traced ones ([`CHUNK`] of each in turn), so that both minima come
    /// from the same stretch of the host.
    fn put_root_ratios(&mut self, real_ms: &[f64]) {
        let real = min_or_zero(real_ms);
        let root = self.total_min("op");
        let phases = min_or_zero(&self.out.tracer.covered_ms("op"));
        if real > 0.0 {
            self.put("driver.trace_overhead_share", root / real - 1.0);
            self.put("driver.span_coverage", phases / real);
        }
    }
}

/// Real and traced operations alternate in chunks of this many: long
/// enough that each runs on a cache its own kind left warm, short
/// enough that a slow stretch of the host lands on both.
const CHUNK: usize = 5;

/// Time `f` once, ms.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = time_ns();
    let out = f();
    (since(start) as f64 / 1e6, out)
}

/// Run every variant once per round and keep each one's fastest time.
/// Interleaving hands a slow stretch of the host to all variants alike,
/// so their differences survive it.
fn interleaved(rounds: usize, variants: &mut [&mut dyn FnMut() -> f64]) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; variants.len()];
    for _ in 0..rounds {
        for (slot, variant) in best.iter_mut().zip(variants.iter_mut()) {
            *slot = slot.min(variant());
        }
    }
    best
}

/// Cost of one `time_ns` pair, ns.
fn timer_ns() -> f64 {
    const PAIRS: u32 = 10_000;
    let start = time_ns();
    for _ in 0..PAIRS {
        black_box(time_ns().saturating_sub(time_ns()));
    }
    since(start) as f64 / f64::from(PAIRS)
}

/// Run `spec` traced: about `seconds` of measurement in all.
pub fn trace(
    spec: &'static WorkloadSpec,
    seed: u64,
    seconds: f64,
    scale: Scale,
) -> Result<Traced, String> {
    let w = prepare(spec, seed, scale)?;
    let quick = scale == Scale::Quick;
    let mut ctx = Ctx {
        out: Traced::default(),
        op_ms: 0.0,
        budget_ms: seconds * 1e3 * 0.7,
        quick,
    };
    untraced_series(&w, &mut ctx, seconds * 0.25)?;
    match &w.inputs {
        Inputs::Join(j) => trace_join(j, false, &mut ctx),
        Inputs::JoinObserved(j) => {
            trace_join(j, true, &mut ctx);
            instrument_matrix(j, &mut ctx);
        }
        Inputs::Planned(q) => trace_planned(q, &mut ctx)?,
        Inputs::Sort { keys, p } => trace_sort(keys, *p, &mut ctx),
        Inputs::Matmul(m) => trace_matmul(m, &mut ctx),
        Inputs::Serve(cfg) => trace_serve(cfg, &mut ctx)?,
    }
    Ok(ctx.out)
}

/// The untraced baseline: time-bounded repetitions of the real
/// operation, the first verified by digest. Fills the `driver.*`
/// diagnostics and the ledger ratios.
fn untraced_series(w: &Prepared, ctx: &mut Ctx, seconds: f64) -> Result<(), String> {
    let mut op_ms = Vec::new();
    let start = time_ns();
    let mut first = None;
    loop {
        let (ns, output) = run_op(w)?;
        op_ms.push(ns as f64 / 1e6);
        if first.is_none() {
            ctx.verify(output.digest() == w.expected, "untraced operation: digest");
            first = Some(output);
        }
        let enough = op_ms.len() >= if ctx.quick { 1 } else { 3 };
        if enough && since(start) as f64 >= seconds * 1e9 {
            break;
        }
    }
    let summary = stats::summarize(&op_ms).ok_or("no untraced sample")?;
    ctx.op_ms = summary.min;
    ctx.put("driver.op_ms_p50", summary.p50);
    ctx.put("driver.noise_ratio", summary.p50 / summary.min);
    if let Some((hi, pct)) = summary.hi {
        ctx.put("driver.op_ms_hi", hi);
        ctx.put("driver.op_hi_pct", pct);
    }
    ctx.put("driver.timer_ns", timer_ns());
    ctx.put("driver.ncpu", ncpu() as f64);
    // One more operation under the allocation counter (this thread's
    // allocations: pool workers' are not attributed to the caller).
    let (counted, result) = alloc::count(|| run_op(w));
    result?;
    ctx.put("driver.allocs_per_op", counted.allocs as f64);
    ctx.put(
        "driver.alloc_mb_per_op",
        counted.bytes as f64 / (1024.0 * 1024.0),
    );
    if let (Some(output), false) = (&first, matches!(w.inputs, Inputs::Serve(_))) {
        put_ledger_ratios(&output.report(), w.items, ctx);
    }
    if matches!(
        w.inputs,
        Inputs::Join(_) | Inputs::JoinObserved(_) | Inputs::Planned(_)
    ) {
        if let Some(output) = &first {
            let digests = ctx.reps(ctx.op_ms, 0.03, 3);
            let samples: Vec<f64> = (0..digests).map(|_| timed(|| output.digest()).0).collect();
            ctx.put("data.canonical_ms", min_or_zero(&samples));
            ctx.put("join.out_rows", output.ledger().out_rows as f64);
        }
    }
    Ok(())
}

/// `mpc.replication` (C ÷ input items), `mpc.load_skew` (L ÷ the mean
/// load of the heaviest round) and `mpc.msgs`.
fn put_ledger_ratios(report: &LoadReport, items: u64, ctx: &mut Ctx) {
    ctx.put(
        "mpc.replication",
        report.total_words() as f64 / items.max(1) as f64,
    );
    let skew = report
        .rounds
        .iter()
        .filter(|r| r.total_words() > 0)
        .map(|r| r.max_words() as f64 * report.servers as f64 / r.total_words() as f64)
        .fold(0.0, f64::max);
    ctx.put("mpc.load_skew", skew);
    ctx.put("mpc.msgs", report.total_tuples() as f64);
}

/// Run `f` bare, or under `join_observed`'s instruments.
fn observed<R>(on: bool, f: impl FnOnce() -> R) -> R {
    if on {
        under_instruments(f)
    } else {
        f()
    }
}

fn digest_of(run: &JoinRun) -> u64 {
    serve::report::digest_relation(&run.gathered())
}

/// The two-way join taken apart (`join_uniform`, and `join_observed`
/// with the instruments installed around every piece).
fn trace_join(j: &JoinInputs, instruments: bool, ctx: &mut Ctx) {
    let real = observed(instruments, || j.run());
    // Operations run back to back (in chunks, alternating with the real
    // entry point), and the pieces measured alone run afterwards:
    // interleaving those too would hand every operation a cache the
    // probes had just emptied.
    let ops = ctx.reps(ctx.op_ms * 2.2, 0.35, 300);
    let probes = ctx.reps(ctx.op_ms * 2.0, 0.15, 30);
    let mut last = None;
    let mut real_ms = Vec::new();
    for i in 0..ops {
        if i % CHUNK == 0 {
            real_ms.extend(
                (0..CHUNK).map(|_| timed(|| black_box(observed(instruments, || j.run()))).0),
            );
        }
        ctx.out.tracer.next_op();
        let tracer = &mut ctx.out.tracer;
        // The root span brackets what the real timing brackets: the
        // instruments' install and teardown as well as the join.
        let (_, run) =
            alloc::count(|| tracer.span("op", |t| observed(instruments, || hash_join_spans(j, t))));
        ctx.verify(
            run.report == real.report && run.output_size() == real.output_size(),
            "re-composed hash join: LoadReport differs from hash_join's",
        );
        last = Some(run);
    }
    for _ in 0..probes {
        ctx.out.tracer.next_op();
        let tracer = &mut ctx.out.tracer;
        alloc::count(|| observed(instruments, || hash_join_probes(j, tracer)));
        if let Some(run) = &last {
            ctx.out
                .tracer
                .span("join.gather", |_| black_box(run.gathered()));
        }
    }
    ctx.verify(
        last.is_some_and(|run| digest_of(&run) == digest_of(&real)),
        "re-composed hash join: output differs from hash_join's",
    );
    let route = ctx.total_min("join.route");
    let scan = ctx.total_min("data.route_scan");
    let hash = ctx.total_min("mpc.hash");
    ctx.put("join.scatter_ms", ctx.self_min("join.scatter"));
    ctx.put("join.route_ms", route);
    ctx.put("data.route_scan_ms", scan);
    ctx.put("mpc.hash_ms", hash);
    ctx.put("mpc.exchange_send_ms", (route - scan - hash).max(0.0));
    ctx.put(
        "mpc.exchange_finish_ms",
        ctx.self_min("mpc.exchange_finish"),
    );
    ctx.put("mpc.map_ms", ctx.total_min("mpc.map"));
    ctx.put(
        "join.local_hash_join_ms",
        ctx.total_min("join.local_hash_join"),
    );
    ctx.put("join.gather_ms", ctx.total_min("join.gather"));
    ctx.put("join.route_allocs", ctx.allocs_min("join.route"));
    ctx.put(
        "join.local_hash_join_allocs",
        ctx.allocs_min("join.local_hash_join"),
    );
    ctx.put_root_ratios(&real_ms);
}

/// What each instrument costs `hash_join` when installed alone, and
/// what they cost together — the real entry point every time, variants
/// interleaved. Also the counts only an installed instrument can give.
fn instrument_matrix(j: &JoinInputs, ctx: &mut Ctx) {
    let mut io = IoStats::default();
    let mut events = (0usize, 0u64);
    let mut bound_ratio = 0.0;
    let rounds = ctx.reps(ctx.op_ms * 6.0, 0.45, 60);
    let best = interleaved(
        rounds,
        &mut [
            &mut || timed(|| black_box(j.run())).0,
            &mut || {
                let (ms, (parts, _)) = timed(|| paged::capture(OBSERVED_STORE, || j.run()));
                io = IoStats::default();
                parts.iter().for_each(|part| io.merge(part));
                ms
            },
            &mut || {
                let (ms, (recorder, _)) = timed(|| Recorder::capture(|| j.run()));
                events = (recorder.len(), recorder.dropped());
                ms
            },
            &mut || {
                let (ms, (registry, _)) = timed(|| metrics::capture(|| j.run()));
                bound_ratio = registry.bound_ratio().unwrap_or(0.0);
                ms
            },
            &mut || {
                timed(|| {
                    faults::capture(FaultPlan::new(), RecoveryStrategy::default(), || {
                        black_box(j.run())
                    })
                })
                .0
            },
            &mut || timed(|| black_box(observed(true, || j.run()))).0,
        ],
    );
    let mut best = best.into_iter();
    let bare = best.next().unwrap_or(0.0);
    for name in [
        "store.overhead_ms",
        "trace.overhead_ms",
        "metrics.overhead_ms",
        "faults.overhead_ms",
        "core.observed_overhead_ms",
    ] {
        ctx.put(name, best.next().unwrap_or(bare) - bare);
    }
    put_io(&io, ctx);
    ctx.put("trace.events", events.0 as f64);
    ctx.put("trace.dropped", events.1 as f64);
    ctx.put("metrics.bound_ratio", bound_ratio);
}

fn put_io(io: &IoStats, ctx: &mut Ctx) {
    ctx.put("store.io_reads", io.reads as f64);
    ctx.put("store.io_misses", io.misses as f64);
    ctx.put("store.io_evictions", io.evictions as f64);
    ctx.put("store.io_hit_rate", io.hit_rate());
}

/// A query through the front door: parse, plan, run_plan, then the
/// algorithm the planner chose — HyperCube re-composed phase by phase,
/// GYM called directly.
fn trace_planned(q: &PlannedInputs, ctx: &mut Ctx) -> Result<(), String> {
    let query = parse_query(q.text).map_err(|e| e.to_string())?;
    let strategy = planner::plan(&query, &q.rels, q.p).strategy;
    let tree = Ghd::join_tree(&query);
    let real = planner::run_plan(&query, &q.rels, q.p, q.seed, &strategy);

    // The front door itself, one span per call; `core.plan_share` is
    // taken per operation, so it is a share of a consistent whole.
    let ops = ctx.reps(ctx.op_ms, 0.2, 100);
    for _ in 0..ops {
        ctx.out.tracer.next_op();
        ctx.out.tracer.span("front_door", |t| {
            let parsed = t.span("query.parse", |_| parse_query(q.text));
            let Ok(parsed) = parsed else { return };
            let decision = t.span("core.plan", |_| planner::plan(&parsed, &q.rels, q.p));
            t.span("core.run_plan", |_| {
                black_box(planner::run_plan(
                    &parsed,
                    &q.rels,
                    q.p,
                    q.seed,
                    &decision.strategy,
                ));
            });
        });
        ctx.out.tracer.span("query.join_tree", |_| {
            black_box(Ghd::join_tree(&query));
        });
    }
    let plan_ms = ctx.out.tracer.total_ms("core.plan");
    let door_ms = ctx.out.tracer.total_ms("front_door");
    let shares: Vec<f64> = plan_ms.iter().zip(&door_ms).map(|(p, d)| p / d).collect();
    ctx.put("core.plan_share", min_or_zero(&shares));
    ctx.put("query.parse_ms", ctx.total_min("query.parse"));
    ctx.put("core.plan_ms", ctx.total_min("core.plan"));
    ctx.put("core.run_plan_ms", ctx.total_min("core.run_plan"));
    ctx.put("query.join_tree_ms", ctx.total_min("query.join_tree"));

    // `run_plan` against the algorithm it dispatches to, interleaved.
    let direct = |strategy: &planner::Strategy| match (strategy, &tree) {
        (planner::Strategy::Gym, Some(tree)) => gym(&query, &q.rels, tree, q.p, q.seed, true),
        _ => hypercube(&query, &q.rels, q.p, q.seed),
    };
    let is_gym = strategy == planner::Strategy::Gym;
    let direct_run = direct(&strategy);
    ctx.verify(
        direct_run.report == real.report && digest_of(&direct_run) == digest_of(&real),
        "direct algorithm call differs from run_plan",
    );
    let rounds = ctx.reps(ctx.op_ms * 2.0, 0.3, 40);
    let best = interleaved(
        rounds,
        &mut [
            &mut || {
                timed(|| black_box(planner::run_plan(&query, &q.rels, q.p, q.seed, &strategy))).0
            },
            &mut || timed(|| black_box(direct(&strategy))).0,
        ],
    );
    if let [via_plan, direct_ms] = best.as_slice() {
        ctx.put("core.run_plan_overhead_ms", via_plan - direct_ms);
        if is_gym {
            ctx.put("join.gym_ms", *direct_ms);
        }
    }
    if is_gym {
        let heaviest = real
            .report
            .rounds
            .iter()
            .map(|r| r.total_words())
            .max()
            .unwrap_or(0);
        ctx.put(
            "join.gym_max_round_share",
            heaviest as f64 / real.report.total_words().max(1) as f64,
        );
        return Ok(());
    }

    // HyperCube, re-composed: parse and plan as above, then the phases.
    let ops = ctx.reps(ctx.op_ms * 2.2, 0.3, 300);
    let probes = ctx.reps(ctx.op_ms * 2.0, 0.1, 30);
    let mut last = None;
    let mut real_ms = Vec::new();
    for i in 0..ops {
        if i % CHUNK == 0 {
            real_ms.extend((0..CHUNK).map(|_| timed(|| black_box(q.run().ok())).0));
        }
        ctx.out.tracer.next_op();
        let tracer = &mut ctx.out.tracer;
        let (_, run) = alloc::count(|| {
            tracer.span("op", |t| {
                let parsed = t.span("query.parse", |_| parse_query(q.text)).ok()?;
                t.span("core.plan", |_| planner::plan(&parsed, &q.rels, q.p));
                Some(hypercube_spans(&parsed, &q.rels, q.p, q.seed, t))
            })
        });
        ctx.verify(
            run.as_ref().is_some_and(|run| run.report == real.report),
            "re-composed HyperCube: LoadReport differs from run_plan's",
        );
        last = run;
    }
    for _ in 0..probes {
        ctx.out.tracer.next_op();
        let tracer = &mut ctx.out.tracer;
        alloc::count(|| hypercube_probes(&query, &q.rels, q.p, q.seed, tracer));
        if let Some(run) = &last {
            ctx.out
                .tracer
                .span("join.gather", |_| black_box(run.gathered()));
        }
    }
    ctx.verify(
        last.is_some_and(|run| digest_of(&run) == digest_of(&real)),
        "re-composed HyperCube: output differs from run_plan's",
    );
    let route = ctx.total_min("join.hypercube_route");
    ctx.put("lp.plan_shares_ms", ctx.total_min("lp.plan_shares"));
    ctx.put("join.scatter_ms", ctx.self_min("join.scatter"));
    ctx.put("join.hypercube_route_ms", route);
    ctx.put(
        "mpc.exchange_send_ms",
        (route - ctx.total_min("join.hypercube_route_nosend")).max(0.0),
    );
    ctx.put(
        "mpc.exchange_finish_ms",
        ctx.self_min("mpc.exchange_finish"),
    );
    ctx.put("mpc.map_ms", ctx.total_min("mpc.map"));
    ctx.put("query.evaluate_ms", ctx.total_min("query.evaluate"));
    ctx.put("join.gather_ms", ctx.total_min("join.gather"));
    ctx.put("join.route_allocs", ctx.allocs_min("join.hypercube_route"));
    ctx.put_root_ratios(&real_ms);
    Ok(())
}

fn trace_sort(keys: &[u64], p: usize, ctx: &mut Ctx) {
    let ops = ctx.reps(ctx.op_ms * 1.5, 0.5, 100);
    let mut imbalance = 0.0;
    for _ in 0..ops {
        let mut cluster = Cluster::new(p);
        let local = cluster.scatter(keys.to_vec());
        ctx.out.tracer.next_op();
        let tracer = &mut ctx.out.tracer;
        let (_, parts) = alloc::count(|| tracer.span("sort.psrs", |_| psrs(&mut cluster, local)));
        let longest = parts.iter().map(Vec::len).max().unwrap_or(0);
        imbalance = longest as f64 * p as f64 / keys.len().max(1) as f64;
    }
    ctx.put("sort.psrs_ms", ctx.total_min("sort.psrs"));
    ctx.put("sort.allocs", ctx.allocs_min("sort.psrs"));
    ctx.put("sort.partition_imbalance", imbalance);

    // One-word messages through send + finish, destinations resolved
    // beforehand so that only the exchange is on the clock.
    let h = HashFamily::new(0, 1);
    let dests: Vec<usize> = keys.iter().map(|&k| h.hash(0, k, p)).collect();
    let rounds = ctx.reps(ctx.op_ms * 0.5, 0.2, 10);
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let mut cluster = Cluster::new(p);
            timed(|| {
                let mut ex = cluster.exchange::<u64>();
                for (&dest, &key) in dests.iter().zip(keys) {
                    ex.send(dest, key);
                }
                black_box(ex.finish());
            })
            .0
        })
        .collect();
    ctx.put(
        "mpc.exchange_word_msg_ns",
        min_or_zero(&samples) * 1e6 / keys.len().max(1) as f64,
    );
}

fn trace_matmul(m: &MatmulInputs, ctx: &mut Ctx) {
    let n = m.a.n() as f64;
    let rounds = ctx.reps(ctx.op_ms * 3.0, 0.7, 200);
    // Serial and parallel alternate, so a slow stretch of the host
    // lands on both and their ratio survives it. The parallel side runs
    // on the workload's own long-lived pool, as its operations do.
    for _ in 0..rounds {
        ctx.out.tracer.next_op();
        let t = &mut ctx.out.tracer;
        exec::with_mode(ExecMode::Serial, || {
            t.span("matmul.square_block_serial", |_| {
                black_box(square_block(&m.a, &m.b, m.h, m.p));
            });
        });
        let _parallel = exec::install_pool(Rc::clone(&m.pool));
        t.span("matmul.square_block_parallel", |_| {
            black_box(square_block(&m.a, &m.b, m.h, m.p));
        });
    }
    let serial = ctx.total_min("matmul.square_block_serial");
    let par = ctx.total_min("matmul.square_block_parallel");
    ctx.put("matmul.square_block_serial_ms", serial);
    ctx.put("mpc.parallel_speedup", serial / par);
    ctx.put("matmul.mflops", 2.0 * n * n * n / (par / 1e3) / 1e6);

    // What it costs to cross the pool with nothing to do: the pool's
    // own `map`, and `Cluster::map` on top of it, `p` no-op jobs each.
    const CALLS: u32 = 500;
    let calls = if ctx.quick { 5 } else { CALLS };
    let per_call_us = |total_ms: f64| total_ms * 1e3 / f64::from(calls);
    let pool = &m.pool;
    let (pool_ms, ()) = timed(|| {
        for _ in 0..calls {
            let out = pool.map(vec![0u64; m.p], |_, x| x);
            black_box(out.is_ok());
        }
    });
    ctx.put("testkit.pool_dispatch_us", per_call_us(pool_ms));
    let _parallel = exec::install_pool(Rc::clone(pool));
    let cluster = Cluster::new(m.p);
    let (cluster_ms, ()) = timed(|| {
        for _ in 0..calls {
            let out = cluster.map(vec![0u64; m.p], |_, x| x);
            black_box(out);
        }
    });
    ctx.put("mpc.map_dispatch_us", per_call_us(cluster_ms));
}

/// Input generation replayed on its own: the base relation of every
/// query that built one, the probe relation of every query.
fn serve_datagen(report: &ServeReport, seed: u64) {
    for q in &report.records {
        let Some(template) = TEMPLATES.iter().position(|t| t.name == q.template) else {
            continue;
        };
        if q.cache != "hit" {
            black_box(serve::templates::base_relation(template, q.group, seed));
        }
        black_box(serve::templates::probe_relation(
            template, q.group, q.serial, seed,
        ));
    }
}

fn trace_serve(cfg: &ServeConfig, ctx: &mut Ctx) -> Result<(), String> {
    let report = serve::replay(cfg)?;
    let mut series: Option<SeriesReport> = None;
    let mut observed_digest = 0;
    let rounds = ctx.reps(ctx.op_ms * 2.2, 0.8, 8);
    for _ in 0..rounds {
        ctx.out.tracer.next_op();
        let t = &mut ctx.out.tracer;
        t.span("serve.replay", |_| black_box(serve::replay(cfg).is_ok()));
        t.span("serve.replay_observed", |_| {
            if let Ok((observed, s)) = serve::replay_observed(cfg, OBS_WINDOW_TICKS) {
                observed_digest = observed.digest();
                series = Some(s);
            }
        });
        t.span("serve.datagen", |_| serve_datagen(&report, cfg.seed));
        t.span("serve.schedule", |_| black_box(serve::schedule(cfg)));
    }
    ctx.verify(
        observed_digest == report.digest(),
        "replay_observed served different answers from replay",
    );
    let replay = ctx.total_min("serve.replay");
    let datagen = ctx.total_min("serve.datagen");
    ctx.put("serve.schedule_ms", ctx.total_min("serve.schedule"));
    ctx.put("serve.datagen_ms", datagen);
    ctx.put("serve.replay_net_ms", replay - datagen);
    ctx.put(
        "serve.us_per_query",
        replay * 1e3 / report.served().max(1) as f64,
    );
    ctx.put(
        "obs.overhead_ms",
        ctx.total_min("serve.replay_observed") - replay,
    );
    ctx.put(
        "obs.windows",
        series.map_or(0.0, |s| s.windows.len() as f64),
    );
    ctx.put("serve.cache_hit_rate", report.cache.hit_rate());
    ctx.put("serve.cache_insertions", report.cache.insertions as f64);
    ctx.put("serve.cache_evictions", report.cache.evictions as f64);
    ctx.put("serve.reads_saved", report.cache.reads_saved as f64);
    ctx.put("serve.words_saved", report.cache.words_saved as f64);
    ctx.put("serve.l_p99", report.l_percentile(99) as f64);
    put_io(&report.io, ctx);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::WORKLOADS;
    use std::collections::BTreeSet;

    #[test]
    fn quick_traced_run_emits_exactly_the_metrics_it_claims() {
        // Under 20 repetitions there is no tail percentile to report.
        let optional = ["driver.op_ms_hi", "driver.op_hi_pct"];
        for w in WORKLOADS {
            let t = trace(w, 42, 0.0, Scale::Quick).expect("set-up");
            assert_eq!(t.failed, 0, "{}: {:?}", w.name, t.failures);
            assert!(t.attempted >= 1, "{}", w.name);
            let emitted: BTreeSet<&str> = t.metrics.keys().copied().collect();
            let claimed: BTreeSet<&str> = PER_LAYER
                .iter()
                .filter(|m| m.on.contains(&w.name) && !optional.contains(&m.name))
                .map(|m| m.name)
                .collect();
            assert_eq!(emitted, claimed, "{}: emitted vs registry `on`", w.name);
            // The result line carries every per-layer metric all the same.
            assert_eq!(t.per_layer().len(), PER_LAYER.len());
            for (name, value) in &t.metrics {
                assert!(value.is_finite(), "{}: {name} = {value}", w.name);
            }
        }
    }

    #[test]
    fn interleaving_keeps_each_variants_fastest_round() {
        let mut a = [3.0, 1.0, 2.0].into_iter();
        let mut b = [9.0, 8.0, 7.0].into_iter();
        let best = interleaved(
            3,
            &mut [&mut || a.next().unwrap_or(f64::NAN), &mut || {
                b.next().unwrap_or(f64::NAN)
            }],
        );
        assert_eq!(best, vec![1.0, 7.0]);
    }
}
