//! Deterministic fault injection for the MPC simulator.
//!
//! The MPC model assumes every server survives every round; real
//! clusters do not. This module injects faults into simulated runs —
//! **deterministically**, from a seed — and pairs them with recovery
//! strategies whose overhead is charged honestly to the same
//! `LoadReport` ledger the fault-free algorithms are measured by. That
//! makes fault-tolerance overhead directly comparable against the
//! paper's fault-free `(L, r, C)` lower bounds, with zero noise.
//!
//! ## Model
//!
//! A [`FaultPlan`] maps `(round, server)` slots to a [`FaultKind`]:
//! crashes, message drops, message duplications, and stragglers.
//! [`install`]ing a plan (or wrapping a run in [`capture`]) arms a
//! fault runtime in the [run context](crate::context) that
//! [`Cluster`](crate::Cluster) consults once per recorded round.
//! Injection is **transparent to the algorithm**: the inboxes it
//! receives are the post-recovery view, identical to the fault-free
//! run, so recovered output is byte-identical by construction. What
//! changes is the *ledger*: duplicate deliveries and speculative
//! re-execution inflate the faulty round, drops append a
//! retransmission round, and crashes append replayed rounds
//! (checkpoint-and-restart) or a redistribution round (r-way
//! replication), per the installed [`RecoveryStrategy`].
//!
//! The round hooks (ticking the clock, logging injections, charging
//! recovery) are private to this crate: everything else only installs
//! plans and reads the resulting [`FaultLog`].
//!
//! ## Example
//!
//! ```
//! use parqp_mpc::faults::{capture, FaultKind, FaultPlan, RecoveryStrategy};
//!
//! let plan = FaultPlan::new().with_fault(0, 1, FaultKind::Crash);
//! let (log, out) = capture(plan, RecoveryStrategy::Checkpoint { every: 2 }, || {
//!     // ... run any algorithm on a `parqp_mpc::Cluster` here ...
//!     "output"
//! });
//! assert_eq!(out, "output");
//! assert_eq!(log.fired(), 0); // no cluster ran a round in this doc test
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use crate::context::{self, ContextGuard, Instrument};

pub use crate::plan::{FaultKind, FaultPlan, FaultSpec};
pub use crate::recovery::RecoveryStrategy;

/// One fault that actually fired, as recorded by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Ledger round index the fault was charged to.
    pub round: usize,
    /// Victim server rank.
    pub server: usize,
    /// [`FaultKind::name`] of the fault.
    pub kind: &'static str,
}

/// What an installed plan did to a run: the faults that fired and the
/// total recovery overhead charged to the ledger.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// Every fault that fired, in injection order.
    pub injected: Vec<InjectedFault>,
    /// Extra ledger rounds appended by recovery.
    pub recovery_rounds: usize,
    /// Extra tuples charged by recovery (including same-round charges
    /// for duplicates and speculative re-execution).
    pub recovery_tuples: u64,
    /// Extra words charged by recovery.
    pub recovery_words: u64,
}

impl FaultLog {
    /// Number of faults that fired.
    pub fn fired(&self) -> usize {
        self.injected.len()
    }
}

/// An installed plan with its clock and log: the fault side of the run
/// context.
#[derive(Debug)]
pub(crate) struct FaultRuntime {
    plan: FaultPlan,
    pub(crate) strategy: RecoveryStrategy,
    /// Logical round clock: ticked once per *recorded algorithm round*
    /// (recovery rounds appended to the ledger do not tick it, so
    /// injected overhead never shifts the schedule).
    clock: usize,
    pub(crate) log: FaultLog,
}

impl FaultRuntime {
    pub(crate) fn new(plan: FaultPlan, strategy: RecoveryStrategy) -> Self {
        Self {
            plan,
            strategy,
            clock: 0,
            log: FaultLog::default(),
        }
    }

    /// Advance the logical round clock and return the faults scheduled
    /// for the round that just ran, filtered to servers `< p` and in
    /// ascending server order. `Cluster` calls this exactly once per
    /// recorded algorithm round — dropped and untracked exchanges do
    /// not tick.
    pub(crate) fn next_round_faults(&mut self, p: usize) -> Vec<(usize, FaultKind)> {
        let round = self.clock;
        self.clock += 1;
        let mut faults = self.plan.faults_at(round);
        faults.retain(|&(server, _)| server < p);
        faults
    }

    /// Log that a fault fired at ledger round `round` on `server`.
    pub(crate) fn note_injected(&mut self, round: usize, server: usize, kind: &'static str) {
        self.log.injected.push(InjectedFault {
            round,
            server,
            kind,
        });
    }

    /// Charge recovery overhead to the log: `rounds` extra ledger
    /// rounds carrying `tuples`/`words` of extra load.
    pub(crate) fn note_recovery(&mut self, rounds: usize, tuples: u64, words: u64) {
        self.log.recovery_rounds += rounds;
        self.log.recovery_tuples += tuples;
        self.log.recovery_words += words;
    }

    /// Rewind the logical round clock to 0 (the fault log is kept), so
    /// a replay after `Cluster::reset` sees the same schedule from
    /// round 0 again.
    pub(crate) fn reset_round_clock(&mut self) {
        self.clock = 0;
    }
}

/// Install `plan` (recovered via `strategy`) as this thread's fault
/// runtime until the returned guard drops. Nesting is allowed; the
/// innermost install wins and the outer runtime resumes (clock and log
/// intact) when the inner guard drops.
pub fn install(plan: FaultPlan, strategy: RecoveryStrategy) -> ContextGuard {
    let runtime = FaultRuntime::new(plan, strategy);
    context::install(Instrument::Faults(Rc::new(RefCell::new(runtime))))
}

/// Whether a fault plan is currently installed.
pub fn is_enabled() -> bool {
    context::is_faulted()
}

/// Run `f` with `plan` installed and return what fired alongside `f`'s
/// result. The previous runtime (if any) is restored afterwards, even
/// if `f` panics.
pub fn capture<R>(
    plan: FaultPlan,
    strategy: RecoveryStrategy,
    f: impl FnOnce() -> R,
) -> (FaultLog, R) {
    let (runtime, result) =
        context::capture(FaultRuntime::new(plan, strategy), Instrument::Faults, f);
    (runtime.log, result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn next_round_faults(p: usize) -> Vec<(usize, FaultKind)> {
        context::with_faults(|rt| rt.next_round_faults(p)).unwrap_or_default()
    }

    #[test]
    fn clock_ticks_and_filters_out_of_range_servers() {
        let plan = FaultPlan::new()
            .with_fault(0, 2, FaultKind::Crash)
            .with_fault(0, 9, FaultKind::Straggle) // server ≥ p: ignored
            .with_fault(2, 1, FaultKind::Drop { msgs: 3 });
        let (log, ()) = capture(plan, RecoveryStrategy::default(), || {
            assert_eq!(next_round_faults(4), vec![(2, FaultKind::Crash)]);
            assert!(next_round_faults(4).is_empty()); // round 1
            assert_eq!(next_round_faults(4), vec![(1, FaultKind::Drop { msgs: 3 })]);
        });
        assert_eq!(log.fired(), 0, "only the simulator logs injections");
    }

    #[test]
    fn reset_round_clock_replays_the_schedule() {
        let plan = FaultPlan::new().with_fault(0, 0, FaultKind::Crash);
        let (_, ()) = capture(plan, RecoveryStrategy::default(), || {
            assert_eq!(next_round_faults(2).len(), 1);
            assert!(next_round_faults(2).is_empty());
            context::with_faults(FaultRuntime::reset_round_clock);
            assert_eq!(
                next_round_faults(2).len(),
                1,
                "schedule replays after reset"
            );
        });
    }
}
