//! Paged-vs-unpaged differential: the buffer pool must be purely
//! observational. Running any experiment under an installed paged store
//! — at any page size, any pool size, including pools small enough to
//! thrash — must reproduce the unpaged run exactly: same output digest,
//! same `(L, r, C)` ledger, byte-identical trace JSONL. The *only*
//! observable difference paging may introduce is the page-IO ledger
//! itself, which these tests also pin (per-row logical reads, forced
//! evictions under a tiny pool).

use std::hash::Hasher;

use parqp::data::fasthash::FxHasher;
use parqp::data::paged::{self, IoStats, StoreConfig};
use parqp::data::{generate, Relation};
use parqp::join::gym::{gym, gym_ghd};
use parqp::join::plans::binary_join_plan;
use parqp::join::JoinRun;
use parqp::mpc::trace::Recorder;
use parqp::mpc::LoadReport;
use parqp::query::{Ghd, Query};
use parqp::trace::export;

const SEED: u64 = 42;

/// Everything observable about one experiment run, plus the summed
/// page-IO ledger (zero for unpaged runs).
struct Observed {
    digest: u64,
    report: LoadReport,
    jsonl: String,
    io: IoStats,
}

fn observe(name: &str, p: usize, cfg: Option<StoreConfig>) -> Observed {
    observe_with(cfg, || {
        let run = parqp::observe::run_experiment_full(name, p, SEED).expect("known experiment");
        (run.digest, run.report, run.recorder)
    })
}

/// `run` (digest, ledger, trace) unpaged, or under a store installed
/// with `cfg`, with the summed page-IO ledger beside it.
fn observe_with(
    cfg: Option<StoreConfig>,
    run: impl FnOnce() -> (u64, LoadReport, Recorder),
) -> Observed {
    let (io, (digest, report, recorder)) = match cfg {
        None => (IoStats::default(), run()),
        Some(cfg) => {
            let (totals, run) = paged::capture(cfg, run);
            let mut io = IoStats::default();
            for t in &totals {
                io.merge(t);
            }
            (io, run)
        }
    };
    Observed {
        digest,
        report,
        jsonl: export::jsonl(&recorder),
        io,
    }
}

/// A join run.
type Join = fn() -> JoinRun;

/// The multi-round joins that are not observe experiments, at p = 8:
/// GYM in both modes (a star, whose optimized upward level takes the
/// intersection round, and a path), generalized GYM, and a binary plan
/// whose intermediates are three and four columns wide.
fn multi_round_joins() -> [(&'static str, Join); 6] {
    fn rels(seed: u64) -> Vec<Relation> {
        (0..4)
            .map(|i| generate::uniform(2, 300, 40, seed + i))
            .collect()
    }
    fn star(optimized: bool) -> JoinRun {
        let q = Query::star(4);
        gym(&q, &rels(10), &Ghd::star_flat(&q), 8, SEED, optimized)
    }
    fn chain(optimized: bool) -> JoinRun {
        let q = Query::chain(4);
        let tree = Ghd::join_tree(&q).expect("chains are acyclic");
        gym(&q, &rels(20), &tree, 8, SEED, optimized)
    }
    [
        ("gym vanilla, star-4", || star(false)),
        ("gym optimized, star-4", || star(true)),
        ("gym vanilla, chain-4", || chain(false)),
        ("gym optimized, chain-4", || chain(true)),
        ("gym_ghd, chain-4 in blocks of 2", || {
            gym_ghd(
                &Query::chain(4),
                &rels(20),
                &Ghd::chain_blocks(4, 2),
                8,
                SEED,
            )
        }),
        ("binary plan, chain-4", || {
            binary_join_plan(&Query::chain(4), &rels(20), 8, SEED, None)
        }),
    ]
}

/// Digest of a join run's fragments, server by server and row by row.
fn fragments_digest(run: &JoinRun) -> u64 {
    let mut h = FxHasher::default();
    for part in &run.outputs {
        h.write_usize(part.arity());
        for &w in part.raw() {
            h.write_u64(w);
        }
        h.write_usize(part.len());
    }
    h.finish()
}

fn observe_join(run: Join, cfg: Option<StoreConfig>) -> Observed {
    observe_with(cfg, || {
        let (recorder, run) = Recorder::capture(run);
        (fragments_digest(&run), run.report, recorder)
    })
}

fn assert_identical(name: &str, p: usize, base: &Observed, paged: &Observed, mode: &str) {
    assert_eq!(
        base.digest, paged.digest,
        "{name}/p{p} [{mode}]: output digest diverged under paging"
    );
    assert_eq!(
        base.report, paged.report,
        "{name}/p{p} [{mode}]: (L, r, C) ledger diverged under paging"
    );
    assert_eq!(
        base.jsonl, paged.jsonl,
        "{name}/p{p} [{mode}]: trace JSONL diverged under paging"
    );
}

/// A pool small enough that every experiment's scans cycle it: 2
/// resident pages of 256 words per server.
fn tiny() -> StoreConfig {
    StoreConfig {
        page_size: 256,
        pool_pages: 2,
    }
}

#[test]
fn every_experiment_identical_under_default_and_tiny_pools_at_p8() {
    for e in parqp::observe::EXPERIMENTS {
        let base = observe(e.name, 8, None);
        assert!(base.io.is_zero(), "{}: unpaged run charged page IO", e.name);
        let default = observe(e.name, 8, Some(StoreConfig::default()));
        assert_identical(e.name, 8, &base, &default, "default pool");
        assert!(
            default.io.reads > 0,
            "{}: paged run measured no logical reads",
            e.name
        );
        let thrashed = observe(e.name, 8, Some(tiny()));
        assert_identical(e.name, 8, &base, &thrashed, "tiny pool");
        // Logical reads are a property of the scan sequence, not of the
        // pool: shrinking the pool changes misses/evictions only.
        assert_eq!(
            default.io.reads, thrashed.io.reads,
            "{}: pool size leaked into logical-read accounting",
            e.name
        );
        assert!(
            thrashed.io.misses >= default.io.misses,
            "{}: a smaller pool cannot miss less",
            e.name
        );
    }
}

#[test]
fn gym_and_the_binary_plan_identical_under_default_and_tiny_pools() {
    for (name, run) in multi_round_joins() {
        let base = observe_join(run, None);
        assert!(base.io.is_zero(), "{name}: unpaged run charged page IO");
        let default = observe_join(run, Some(StoreConfig::default()));
        assert_identical(name, 8, &base, &default, "default pool");
        assert!(default.io.reads > 0, "{name}: no logical reads");
        let thrashed = observe_join(run, Some(tiny()));
        assert_identical(name, 8, &base, &thrashed, "tiny pool");
        assert_eq!(
            default.io.reads, thrashed.io.reads,
            "{name}: pool size leaked into logical-read accounting"
        );
    }
}

#[test]
fn every_experiment_identical_under_a_thrashing_pool_at_p27_and_p64() {
    for &p in &[27usize, 64] {
        for e in parqp::observe::EXPERIMENTS {
            let base = observe(e.name, p, None);
            let paged = observe(e.name, p, Some(tiny()));
            assert_identical(e.name, p, &base, &paged, "tiny pool");
            assert!(paged.io.reads > 0, "{}/p{p}: no logical reads", e.name);
        }
    }
}

#[test]
fn tiny_pool_forces_evictions_on_the_big_scans() {
    // The acceptance scenario: bigjoin (IN = 320k) and twoway-hash both
    // stream far more pages than 2 × 256 words fit, so the clock hand
    // must actually evict — and the runs above prove it never shows.
    for name in ["bigjoin", "twoway-hash"] {
        let run = observe(name, 8, Some(tiny()));
        assert!(
            run.io.evictions > 0,
            "{name}: a 2-page pool over these inputs must evict, got {:?}",
            run.io
        );
        assert!(
            run.io.misses > run.io.evictions,
            "{name}: every eviction follows a miss, plus cold-start misses"
        );
        assert!(
            run.io.hit_rate() < 1.0,
            "{name}: thrashing pool cannot have a perfect hit rate"
        );
    }
}

#[test]
fn bigjoin_scales_the_io_ledger_with_its_input() {
    // bigjoin is 10× twoway-hash's input; its logical reads must scale
    // accordingly (they count scanned rows, not resident pages).
    let small = observe("twoway-hash", 8, Some(StoreConfig::default()));
    let big = observe("bigjoin", 8, Some(StoreConfig::default()));
    assert!(
        big.io.reads >= 5 * small.io.reads,
        "bigjoin reads {} not clearly above twoway-hash reads {}",
        big.io.reads,
        small.io.reads
    );
}

#[test]
fn repeated_paged_runs_are_deterministic() {
    // Same seed, same config ⇒ identical IO ledger, byte for byte the
    // same trace: the clock replacement sequence is a pure function of
    // the touch sequence.
    let a = observe("bigjoin", 8, Some(tiny()));
    let b = observe("bigjoin", 8, Some(tiny()));
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.jsonl, b.jsonl);
    assert_eq!(a.io, b.io);
}
