//! Execution modes: serial (the default) or parallel local compute.
//!
//! The simulator's *communication* always happens on the calling
//! thread: exchanges collect messages, charge the ledger, emit trace
//! and metrics events, and resolve fault batches exactly as before, in
//! both modes. What [`ExecMode::Parallel`] changes is purely the
//! *local compute* phases — the per-server closures algorithms pass to
//! [`Cluster::map`](crate::Cluster::map) run on a
//! [`parqp_testkit::pool::WorkerPool`] instead of an inline loop.
//!
//! Determinism argument, in full:
//!
//! 1. every exchange boundary is a barrier — `map` blocks until all
//!    jobs finish, and all sends happen on the calling thread after it
//!    returns;
//! 2. the pool stores job `i`'s output in slot `i`, so results merge
//!    in server order regardless of completion order;
//! 3. worker closures (`Fn(usize, I) -> O + Sync`) see the same empty
//!    world in both modes: a pool thread's run context and store slot
//!    are empty, and the serial loop runs
//!    [detached](crate::context) from both for the duration of the
//!    phase. A span, an announced bound or a paged read inside a worker
//!    is inert either way; sends and finished exchanges need `&mut Cluster`,
//!    which `map(&self)` cannot lend.
//!
//! Hence ledgers, trace streams, metrics registries, and output
//! digests are byte-identical to serial mode *by construction*.
//!
//! Like the trace sink and the metrics registry, the mode is an
//! instrument of the [run context](crate::context): [`install`] returns
//! a guard that restores the previous mode on drop (panic-safe), and
//! every `Cluster` snapshots the installed pool at construction time,
//! so nested clusters (the skew join's sub-joins, plan sub-queries)
//! inherit the mode with no signature changes anywhere.

use std::rc::Rc;

use parqp_testkit::pool::{ncpu, WorkerPool};

use crate::context::{self, ContextGuard, Instrument};
use crate::error::MpcError;

/// How [`Cluster::map`](crate::Cluster::map) runs per-server compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Every per-server closure runs inline on the calling thread.
    Serial,
    /// Per-server closures run on a pool of `workers` threads
    /// (`workers == 0` means one per available CPU).
    Parallel {
        /// Worker-thread count; `0` = [`ncpu`].
        workers: usize,
    },
}

impl ExecMode {
    /// The mode a cluster holding `pool` runs in.
    pub(crate) fn of(pool: Option<&Rc<WorkerPool>>) -> Self {
        match pool {
            None => ExecMode::Serial,
            Some(pool) => ExecMode::Parallel {
                workers: pool.workers(),
            },
        }
    }

    /// Resolve `workers == 0` to the machine's CPU count.
    fn resolved_workers(self) -> usize {
        match self {
            ExecMode::Serial => 0,
            ExecMode::Parallel { workers: 0 } => ncpu(),
            ExecMode::Parallel { workers } => workers,
        }
    }
}

/// Install `mode` for this thread until the returned guard drops.
/// Parallel mode spawns its worker pool here, once; every `Cluster`
/// created while the guard lives shares it. Errors (instead of
/// panicking) when the host refuses to spawn that many threads.
pub fn install(mode: ExecMode) -> Result<ContextGuard, MpcError> {
    let pool = match mode {
        ExecMode::Serial => None,
        parallel @ ExecMode::Parallel { .. } => {
            let workers = parallel.resolved_workers();
            let pool = WorkerPool::try_new(workers).map_err(|e| MpcError::PoolSpawn {
                workers,
                message: e.to_string(),
            })?;
            Some(Rc::new(pool))
        }
    };
    Ok(context::install(Instrument::Pool(pool)))
}

/// Install an existing pool (reuse across runs without respawning).
pub fn install_pool(pool: Rc<WorkerPool>) -> ContextGuard {
    context::install(Instrument::Pool(Some(pool)))
}

/// The currently installed mode.
pub fn current() -> ExecMode {
    ExecMode::of(context::pool().as_ref())
}

/// Run `f` under `mode` and restore the previous mode afterwards.
///
/// # Panics
/// Panics if `mode`'s worker pool cannot be spawned; use [`install`]
/// to handle that case.
pub fn with_mode<R>(mode: ExecMode, f: impl FnOnce() -> R) -> R {
    let _guard = match install(mode) {
        Ok(guard) => guard,
        // The pool constructor's own panic, surfaced one level up.
        Err(e) => panic!("{e}"), // parqp-lint: allow(PQ201)
    };
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_restores_previous_mode_on_drop() {
        let outer = install(ExecMode::Parallel { workers: 2 }).expect("pool spawns");
        assert_eq!(current(), ExecMode::Parallel { workers: 2 });
        {
            // Serial is an install like any other: it shadows the pool.
            let _inner = install(ExecMode::Serial).expect("serial spawns nothing");
            assert_eq!(current(), ExecMode::Serial);
        }
        assert_eq!(current(), ExecMode::Parallel { workers: 2 });
        drop(outer);
        assert_eq!(current(), ExecMode::Serial);
    }

    #[test]
    fn zero_workers_resolves_to_ncpu() {
        assert_eq!(ExecMode::Parallel { workers: 0 }.resolved_workers(), ncpu());
        with_mode(ExecMode::Parallel { workers: 0 }, || {
            assert_eq!(current(), ExecMode::Parallel { workers: ncpu() });
        });
    }

    #[test]
    fn install_pool_shares_an_existing_pool() {
        let pool = Rc::new(WorkerPool::new(3));
        let _guard = install_pool(pool.clone());
        assert_eq!(current(), ExecMode::Parallel { workers: 3 });
        assert!(context::pool().is_some_and(|p| Rc::ptr_eq(&p, &pool)));
    }
}
