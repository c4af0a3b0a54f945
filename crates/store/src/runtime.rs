//! The thread-local store runtime: per-server buffer pools behind an
//! install/guard lifecycle.
//!
//! The one ambient slot beside `parqp_mpc::context`, and separate from
//! it because `parqp_data::paged` reaches the pools from *below*
//! `parqp-mpc` (`data → store`). Same lifecycle as the run context: the
//! simulator is single-threaded by design (PQ004), so one thread-local
//! slot is the whole "global" state. [`install`] puts a runtime built from a
//! [`StoreConfig`] in the slot and returns a [`StoreGuard`] that
//! removes exactly that install on drop (panic-safe, in any drop order).
//! When nothing is installed every entry point is a no-op, so the
//! unpaged path pays nothing and — by construction — behaves
//! identically. [`detached`] empties the slot for the duration of a
//! serial `Cluster::map` phase, which is what a pool thread sees anyway.
//!
//! Layering (lint rule PQ109): [`alloc_pages`]/[`touch_page`] are the
//! paged layer's private wire — only `parqp-store` itself and
//! `parqp-data`'s paged scans may call them — and [`drain_io`]/
//! [`reset_io`] belong to `parqp-mpc`, which drains the ledger into the
//! metrics registry at round boundaries and rewinds it on
//! `Cluster::reset`. Everyone else installs a config and reads the
//! captured totals.
//!
//! Server IDs index one global pool vector, grown on demand: a
//! sub-cluster of `p′ < p` servers (skew joins split clusters this way)
//! shares the pools of servers `0..p′`, the same convention the fault
//! runtime uses for its per-server crash state.

use std::cell::RefCell;
use std::rc::Rc;

use crate::page::PageId;
use crate::pool::{BufferPool, IoStats};

/// Default page capacity in words (512 two-column tuples per page).
pub const DEFAULT_PAGE_SIZE: usize = 1024;

/// Default per-server pool bound in pages (¼ MiB of resident words).
pub const DEFAULT_POOL_PAGES: usize = 256;

/// Configuration of the paged store: page capacity and pool bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Page capacity in words (clamped to ≥ 1 at install).
    pub page_size: usize,
    /// Per-server buffer-pool bound in pages (clamped to ≥ 1).
    pub pool_pages: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            page_size: DEFAULT_PAGE_SIZE,
            pool_pages: DEFAULT_POOL_PAGES,
        }
    }
}

/// The installed paged-store state: config, page-ID allocator, and one
/// bounded pool per server (plus its last-drained snapshot).
#[derive(Debug)]
struct Runtime {
    config: StoreConfig,
    next_page: PageId,
    pools: Vec<BufferPool>,
    drained: Vec<IoStats>,
}

impl Runtime {
    fn new(mut config: StoreConfig) -> Self {
        config.page_size = config.page_size.max(1);
        config.pool_pages = config.pool_pages.max(1);
        Self {
            config,
            next_page: 0,
            pools: Vec::new(),
            drained: Vec::new(),
        }
    }

    fn ensure(&mut self, servers: usize) {
        while self.pools.len() < servers {
            self.pools.push(BufferPool::new(self.config.pool_pages));
            self.drained.push(IoStats::default());
        }
    }
}

thread_local! {
    /// Live installs, outermost first; the last one is the live runtime.
    static ACTIVE: RefCell<Vec<Rc<RefCell<Runtime>>>> = const { RefCell::new(Vec::new()) };
}

/// Removes the install it was returned for when dropped — on scope
/// exit, on panic, or out of LIFO order — and nothing else.
#[must_use = "dropping the guard immediately uninstalls the paged store"]
pub struct StoreGuard {
    runtime: Rc<RefCell<Runtime>>,
}

impl Drop for StoreGuard {
    fn drop(&mut self) {
        ACTIVE.with(|live| {
            live.borrow_mut()
                .retain(|rt| !Rc::ptr_eq(rt, &self.runtime));
        });
    }
}

/// Install a paged store built from `config` until the returned guard
/// drops. Nesting is allowed; the innermost install wins and the outer
/// runtime resumes when the inner guard drops.
pub fn install(config: StoreConfig) -> StoreGuard {
    let runtime = Rc::new(RefCell::new(Runtime::new(config)));
    ACTIVE.with(|live| live.borrow_mut().push(runtime.clone()));
    StoreGuard { runtime }
}

/// Run `f` with no store installed — what a worker-pool thread sees —
/// and put the live installs back afterwards, even if `f` panics.
/// `parqp-mpc` runs serial local-compute phases under this, so a
/// `Cluster::map` closure sees the same (empty) slot in both exec modes.
pub fn detached<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(Vec<Rc<RefCell<Runtime>>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            ACTIVE.with(|live| *live.borrow_mut() = std::mem::take(&mut self.0));
        }
    }
    let _restore = Restore(ACTIVE.with(|live| std::mem::take(&mut *live.borrow_mut())));
    f()
}

/// Whether a paged store is currently installed. Paged scans check
/// this once up front and fall back to plain in-memory iteration when
/// it is off.
pub fn is_enabled() -> bool {
    ACTIVE.with(|live| !live.borrow().is_empty())
}

/// The installed configuration, if any.
pub fn config() -> Option<StoreConfig> {
    with(|rt| rt.config)
}

/// Make sure pools for servers `0..p` exist. `Cluster` construction
/// calls this so every virtual server owns its pool before the first
/// round. A no-op when nothing is installed.
pub fn ensure_servers(p: usize) {
    with(|rt| rt.ensure(p));
}

/// Allocate `n` consecutive page IDs, returning the first. `None` when
/// nothing is installed (the caller then keeps its pages unaccounted).
/// Allocation order is the only source of IDs, so a deterministic run
/// assigns deterministic IDs.
pub fn alloc_pages(n: u64) -> Option<PageId> {
    with(|rt| {
        let base = rt.next_page;
        rt.next_page += n;
        base
    })
}

/// Touch `page` in `server`'s pool, charging `reads` logical reads.
/// A no-op when nothing is installed.
pub fn touch_page(server: usize, page: PageId, reads: u64) {
    with(|rt| {
        rt.ensure(server + 1);
        rt.pools[server].touch(page, reads);
    });
}

/// The ledger accumulated across **all** servers since the last drain,
/// advancing the drained snapshots. `parqp-mpc` calls this at round
/// boundaries and on `Cluster::report` to feed the metrics registry;
/// draining all servers (not just a cluster's own `p`) keeps sub-
/// cluster IO from escaping the ledger. Zero when nothing is installed.
pub fn drain_io() -> IoStats {
    with(|rt| {
        let mut delta = IoStats::default();
        for (pool, drained) in rt.pools.iter().zip(rt.drained.iter_mut()) {
            let total = pool.stats();
            delta.merge(&total.since(drained));
            *drained = total;
        }
        delta
    })
    .unwrap_or_default()
}

/// Rewind every server's ledger and pool residency to zero, so a
/// recovery replay reproduces the exact IO of the original attempt.
/// (`Cluster::reset` calls this beside the fault-clock rewind.)
pub fn reset_io() {
    with(|rt| {
        for pool in &mut rt.pools {
            pool.reset();
        }
        for drained in &mut rt.drained {
            *drained = IoStats::default();
        }
    });
}

/// Per-server cumulative totals (index = server ID) since install or
/// the last [`reset_io`]. Empty when nothing is installed.
pub fn io_report() -> Vec<IoStats> {
    with(|rt| rt.pools.iter().map(BufferPool::stats).collect()).unwrap_or_default()
}

/// Run `f` with a fresh paged store installed and return the final
/// per-server totals alongside `f`'s result. The previous runtime (if
/// any) is restored afterwards, even if `f` panics.
pub fn capture<R>(config: StoreConfig, f: impl FnOnce() -> R) -> (Vec<IoStats>, R) {
    let guard = install(config);
    let shared = guard.runtime.clone();
    let result = f();
    drop(guard);
    let runtime = Rc::try_unwrap(shared)
        .expect("capture's store runtime must not be retained past the closure")
        .into_inner();
    (
        runtime.pools.iter().map(BufferPool::stats).collect(),
        result,
    )
}

fn with<R>(f: impl FnOnce(&mut Runtime) -> R) -> Option<R> {
    ACTIVE.with(|live| live.borrow().last().map(|rt| f(&mut rt.borrow_mut())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_runtime_is_inert() {
        assert!(!is_enabled());
        assert!(config().is_none());
        assert!(alloc_pages(4).is_none());
        touch_page(0, 9, 1); // must not panic
        ensure_servers(8);
        assert!(drain_io().is_zero());
        reset_io();
        assert!(io_report().is_empty());
    }

    #[test]
    fn capture_accounts_per_server_io() {
        let (totals, out) = capture(StoreConfig::default(), || {
            assert!(is_enabled());
            ensure_servers(2);
            let base = alloc_pages(3).expect("installed");
            touch_page(0, base, 5);
            touch_page(0, base, 5);
            touch_page(1, base + 1, 2);
            7
        });
        assert!(!is_enabled());
        assert_eq!(out, 7);
        assert_eq!(totals.len(), 2);
        assert_eq!((totals[0].reads, totals[0].misses), (10, 1));
        assert_eq!((totals[1].reads, totals[1].misses), (2, 1));
    }

    #[test]
    fn page_ids_are_monotonic_per_install() {
        let ((), ()) = {
            let _g = install(StoreConfig::default());
            assert_eq!(alloc_pages(4), Some(0));
            assert_eq!(alloc_pages(1), Some(4));
            ((), ())
        };
        let _g = install(StoreConfig::default());
        assert_eq!(alloc_pages(2), Some(0), "fresh install, fresh allocator");
    }

    #[test]
    fn drain_returns_deltas_not_totals() {
        let _g = install(StoreConfig::default());
        touch_page(0, 0, 4);
        let first = drain_io();
        assert_eq!((first.reads, first.misses), (4, 1));
        assert!(drain_io().is_zero(), "nothing new since the last drain");
        touch_page(0, 0, 1);
        assert_eq!(drain_io().reads, 1);
        let totals = io_report();
        assert_eq!(totals[0].reads, 5, "report stays cumulative");
    }

    #[test]
    fn reset_io_rewinds_ledger_and_drain_state() {
        let _g = install(StoreConfig {
            page_size: 8,
            pool_pages: 1,
        });
        touch_page(0, 0, 1);
        touch_page(0, 1, 1);
        assert_eq!(drain_io().evictions, 1);
        reset_io();
        assert!(io_report().iter().all(IoStats::is_zero));
        touch_page(0, 1, 1);
        let delta = drain_io();
        assert_eq!(
            (delta.reads, delta.misses, delta.evictions),
            (1, 1, 0),
            "post-reset touches start cold with a clean drain snapshot"
        );
    }

    #[test]
    fn nested_install_restores_outer_runtime() {
        let _outer = install(StoreConfig::default());
        alloc_pages(10);
        {
            let _inner = install(StoreConfig {
                page_size: 4,
                pool_pages: 2,
            });
            assert_eq!(config().map(|c| c.page_size), Some(4));
            assert_eq!(alloc_pages(1), Some(0), "inner allocator is fresh");
        }
        assert_eq!(config().map(|c| c.page_size), Some(DEFAULT_PAGE_SIZE));
        assert_eq!(alloc_pages(1), Some(10), "outer allocator resumed");
    }

    #[test]
    fn guards_dropped_out_of_order_remove_only_their_own_install() {
        let outer = install(StoreConfig::default());
        let inner = install(StoreConfig {
            page_size: 4,
            pool_pages: 2,
        });
        drop(outer);
        assert_eq!(
            config().map(|c| c.page_size),
            Some(4),
            "dropping the outer guard must leave the inner runtime live"
        );
        drop(inner);
        assert!(!is_enabled(), "the dead outer runtime must not come back");
    }

    #[test]
    fn detached_hides_the_live_runtime_and_restores_it() {
        let _g = install(StoreConfig::default());
        touch_page(0, 0, 3);
        let caught = std::panic::catch_unwind(|| {
            detached(|| {
                assert!(!is_enabled());
                touch_page(0, 0, 5); // charged to nobody
                let _inner = install(StoreConfig::default());
                assert_eq!(alloc_pages(1), Some(0), "a worker may install its own");
                panic!("boom");
            })
        });
        assert!(caught.is_err());
        assert_eq!(io_report()[0].reads, 3, "restored, untouched, on panic");
    }

    #[test]
    fn guard_restores_on_panic() {
        let caught = std::panic::catch_unwind(|| {
            let _ = capture(StoreConfig::default(), || panic!("boom"));
        });
        assert!(caught.is_err());
        assert!(!is_enabled(), "panic must not leave a store installed");
    }

    #[test]
    fn config_is_clamped() {
        let _g = install(StoreConfig {
            page_size: 0,
            pool_pages: 0,
        });
        let c = config().expect("installed");
        assert_eq!((c.page_size, c.pool_pages), (1, 1));
    }
}
