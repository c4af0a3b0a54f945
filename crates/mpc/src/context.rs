//! The run context: the one ambient slot behind every instrument the
//! simulator consults at a round boundary.
//!
//! The cost model has one currency, `(L, r, C)`, recorded at one place
//! — the round boundary inside [`Cluster`](crate::Cluster). Everything
//! that watches or perturbs that boundary is an instrument installed
//! here: the trace sink, the metrics registry, the fault
//! runtime and the worker pool. The simulator is single-threaded by
//! design (PQ004), so one `thread_local!` is the whole "global" state.
//!
//! ## Nesting rule
//!
//! Installing pushes an instrument and returns the [`ContextGuard`]
//! that removes exactly that install when it drops — on scope exit, on
//! panic, or out of LIFO order. The live instrument of a *kind* is the
//! innermost surviving install of that kind: an inner
//! `metrics::capture` shadows an outer registry but leaves the outer
//! trace sink, fault plan and pool live, and the outer registry
//! resumes (state intact) when the inner guard drops.
//!
//! ## Detached phases
//!
//! A `Cluster::map` closure is one shared-nothing server's local
//! compute: on a pool thread it finds this slot (and the store's) empty,
//! and in serial mode `Cluster` runs it under `detached`, which
//! empties both for the duration of the phase and restores them
//! afterwards (panic-safe). A span, an announced bound, a paged read or
//! a nested install inside a worker closure is therefore equally inert
//! in both modes — worker purity holds by construction, not by lint.
//!
//! ## Why the hooks are `pub(crate)`
//!
//! The slot and its one legitimate feeder, `Cluster`, live in the same
//! crate, so feeding the installed sink, registry or fault clock
//! (`observe`, `with_registry`, `with_faults`) is not nameable
//! from any algorithm, serving or front-end crate. What used to be
//! lint rules about who may call `emit` is now a visibility fact.
//!
//! ## The second slot
//!
//! `parqp-store` keeps its own thread-local: `parqp_data::paged`
//! reaches the buffer pools from *below* this crate (`data → store`,
//! `mpc → store`), so the store runtime cannot live here without
//! inverting that edge.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::rc::Rc;

use parqp_testkit::pool::WorkerPool;

use crate::event::{TraceEvent, TraceSink};
use crate::faults::FaultRuntime;
use crate::registry::MetricsRegistry;

/// Something installable in the run context, by kind.
pub(crate) enum Instrument {
    /// Receives every event [`observe`] and `trace::span` produce.
    Sink(Rc<RefCell<dyn TraceSink>>),
    /// Folds every event [`observe`] produces into rounds; receives
    /// drained page IO and announced bounds.
    Registry(Rc<RefCell<MetricsRegistry>>),
    /// The fault plan, its logical round clock and its log.
    Faults(Rc<RefCell<FaultRuntime>>),
    /// The pool `Cluster::map` runs on; `None` is serial mode, which
    /// shadows an outer pool like any other inner install.
    Pool(Option<Rc<WorkerPool>>),
}

struct RunContext {
    /// Installs so far; the next install's id.
    installs: u64,
    /// Live installs, outermost first.
    live: Vec<(u64, Instrument)>,
}

thread_local! {
    static CONTEXT: RefCell<RunContext> = const {
        RefCell::new(RunContext { installs: 0, live: Vec::new() })
    };
}

/// The innermost live instrument of one kind, cloned out of the slot so
/// no borrow of it is held while the instrument runs.
macro_rules! live {
    ($kind:ident) => {
        CONTEXT.with(|c| {
            let c = c.borrow();
            c.live.iter().rev().find_map(|(_, i)| match i {
                Instrument::$kind(x) => Some(x.clone()),
                _ => None,
            })
        })
    };
}

/// Removes the install it was returned for when dropped.
///
/// Returned by every `install`/`install_pool` entry point; hold it for
/// as long as the instrument should stay live.
#[must_use = "dropping the guard immediately uninstalls the instrument"]
pub struct ContextGuard {
    id: u64,
    /// The install lives in this thread's slot: the guard must drop here.
    _not_send: PhantomData<*const ()>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CONTEXT.with(|c| c.borrow_mut().live.retain(|(id, _)| *id != self.id));
    }
}

/// Install `instrument` until the returned guard drops: the one
/// primitive behind every public `install`, `capture`, `with_mode` and
/// `install_pool`.
pub(crate) fn install(instrument: Instrument) -> ContextGuard {
    CONTEXT.with(|c| {
        let mut c = c.borrow_mut();
        let id = c.installs;
        c.installs += 1;
        c.live.push((id, instrument));
        ContextGuard {
            id,
            _not_send: PhantomData,
        }
    })
}

/// Run `f` with `state` installed (as the instrument `wrap` makes of
/// its shared handle) and hand the state back beside `f`'s result. The
/// install is removed afterwards even if `f` panics.
pub(crate) fn capture<T, R>(
    state: T,
    wrap: impl FnOnce(Rc<RefCell<T>>) -> Instrument,
    f: impl FnOnce() -> R,
) -> (T, R) {
    let shared = Rc::new(RefCell::new(state));
    let result = {
        let _guard = install(wrap(Rc::clone(&shared)));
        f()
    };
    let state = Rc::try_unwrap(shared)
        .ok()
        .expect("capture's instrument must not be retained past the closure")
        .into_inner();
    (state, result)
}

/// Run `f` with nothing installed — what a worker-pool thread sees —
/// and put the live installs back afterwards, even if `f` panics.
pub(crate) fn detached<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(Vec<(u64, Instrument)>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CONTEXT.with(|c| c.borrow_mut().live = std::mem::take(&mut self.0));
        }
    }
    let _restore = Restore(CONTEXT.with(|c| std::mem::take(&mut c.borrow_mut().live)));
    f()
}

/// Whether any live instrument satisfies `is_kind`.
fn any_live(is_kind: impl Fn(&Instrument) -> bool) -> bool {
    CONTEXT.with(|c| c.borrow().live.iter().any(|(_, i)| is_kind(i)))
}

/// Whether a trace sink is live.
pub(crate) fn is_traced() -> bool {
    any_live(|i| matches!(i, Instrument::Sink(_)))
}

/// Whether a metrics registry is live.
pub(crate) fn is_metered() -> bool {
    any_live(|i| matches!(i, Instrument::Registry(_)))
}

/// Whether a fault runtime is live.
pub(crate) fn is_faulted() -> bool {
    any_live(|i| matches!(i, Instrument::Faults(_)))
}

/// Whether anything is listening to round events. `Cluster` checks
/// this once per recorded round to skip emitting its event block when
/// nobody is.
pub(crate) fn is_observed() -> bool {
    any_live(|i| matches!(i, Instrument::Sink(_) | Instrument::Registry(_)))
}

/// Forward `event` to the live trace sink only (algorithm spans, which
/// the live registry never sees).
pub(crate) fn emit(event: TraceEvent) {
    if let Some(sink) = live!(Sink) {
        sink.borrow_mut().record(event);
    }
}

/// Forward one round-boundary event to the live registry and the live
/// trace sink; each side is a no-op when nothing of its kind is live.
pub(crate) fn observe(event: TraceEvent) {
    with_registry(|registry| registry.observe_event(&event));
    emit(event);
}

/// Run `f` on the live metrics registry, if any.
pub(crate) fn with_registry<R>(f: impl FnOnce(&mut MetricsRegistry) -> R) -> Option<R> {
    live!(Registry).map(|registry| f(&mut registry.borrow_mut()))
}

/// Run `f` on the live fault runtime, if any.
pub(crate) fn with_faults<R>(f: impl FnOnce(&mut FaultRuntime) -> R) -> Option<R> {
    live!(Faults).map(|faults| f(&mut faults.borrow_mut()))
}

/// The pool a `Cluster` built right now would snapshot (`None` =
/// serial).
pub(crate) fn pool() -> Option<Rc<WorkerPool>> {
    live!(Pool).flatten()
}

#[cfg(test)]
mod tests {
    //! One lifecycle suite, run over every kind of instrument.

    use super::*;
    use crate::faults::{self, FaultKind, FaultPlan, RecoveryStrategy};
    use crate::trace::{self, Recorder};
    use crate::{exec, metrics, Cluster};

    /// How many of the given probe rounds an install witnessed.
    type Seen = Box<dyn Fn(&[Cluster]) -> usize>;

    /// One live install of some kind, with a way to ask what it saw.
    struct Installed {
        guard: ContextGuard,
        seen: Seen,
    }

    /// One row of the table: a kind of instrument.
    struct Kind {
        name: &'static str,
        is_live: fn() -> bool,
        install: fn() -> Installed,
    }

    const KINDS: [Kind; 4] = [
        Kind {
            name: "trace sink",
            is_live: trace::is_enabled,
            install: || {
                let rec = Rc::new(RefCell::new(Recorder::new()));
                Installed {
                    guard: trace::install(rec.clone()),
                    seen: Box::new(move |_| {
                        let rec = rec.borrow();
                        rec.events()
                            .filter(|e| matches!(e, TraceEvent::RoundEnd { .. }))
                            .count()
                    }),
                }
            },
        },
        Kind {
            name: "metrics registry",
            is_live: metrics::is_enabled,
            install: || {
                let reg = Rc::new(RefCell::new(MetricsRegistry::new()));
                Installed {
                    guard: install(Instrument::Registry(reg.clone())),
                    seen: Box::new(move |_| reg.borrow().rounds().len()),
                }
            },
        },
        Kind {
            name: "fault runtime",
            is_live: faults::is_enabled,
            install: || {
                // One duplicate per logical round: every round the
                // runtime's clock sees leaves one entry in its log.
                let plan = (0..8).fold(FaultPlan::new(), |plan, round| {
                    plan.with_fault(round, 0, FaultKind::Duplicate { msgs: 1 })
                });
                let rt = FaultRuntime::new(plan, RecoveryStrategy::default());
                let rt = Rc::new(RefCell::new(rt));
                Installed {
                    guard: install(Instrument::Faults(rt.clone())),
                    seen: Box::new(move |_| rt.borrow().log.fired()),
                }
            },
        },
        Kind {
            name: "worker pool",
            is_live: || pool().is_some(),
            install: || {
                let workers = Rc::new(WorkerPool::new(1));
                Installed {
                    guard: exec::install_pool(workers.clone()),
                    seen: Box::new(move |rounds| {
                        let ours =
                            |c: &&Cluster| c.pool.as_ref().is_some_and(|p| Rc::ptr_eq(p, &workers));
                        rounds.iter().filter(ours).count()
                    }),
                }
            },
        },
    ];

    /// Build a cluster and run one round on it.
    fn probe() -> Cluster {
        let mut c = Cluster::new(2);
        let mut ex = c.exchange::<u64>();
        ex.send(0, 7);
        ex.finish();
        c
    }

    #[test]
    fn inert_when_uninstalled() {
        for kind in &KINDS {
            assert!(!(kind.is_live)(), "{}", kind.name);
        }
        assert!(!is_observed());
        observe(TraceEvent::RoundBegin {
            round: 0,
            servers: 1,
        });
        emit(TraceEvent::SpanBegin { label: "x" });
        assert!(with_registry(|_| ()).is_none());
        assert!(with_faults(|_| ()).is_none());
        assert_eq!(probe().report().num_rounds(), 1);
    }

    #[test]
    fn install_collects_and_uninstalls() {
        for kind in &KINDS {
            let installed = (kind.install)();
            assert!((kind.is_live)(), "{}", kind.name);
            let mut rounds = vec![probe(), probe()];
            assert_eq!((installed.seen)(&rounds), 2, "{}", kind.name);
            drop(installed.guard);
            assert!(!(kind.is_live)(), "{}", kind.name);
            rounds.push(probe());
            assert_eq!((installed.seen)(&rounds), 2, "{}", kind.name);
        }
    }

    #[test]
    fn nested_install_restores_the_outer() {
        for kind in &KINDS {
            let outer = (kind.install)();
            let mut rounds = vec![probe()];
            let inner = (kind.install)();
            rounds.extend([probe(), probe()]);
            drop(inner.guard);
            assert!((kind.is_live)(), "{}", kind.name);
            rounds.push(probe());
            assert_eq!((inner.seen)(&rounds), 2, "{}", kind.name);
            // The outer install resumes with its state intact: the
            // fault clock, say, ticks on from where it was shadowed.
            assert_eq!((outer.seen)(&rounds), 2, "{}", kind.name);
            drop(outer.guard);
            assert!(!(kind.is_live)(), "{}", kind.name);
        }
    }

    #[test]
    fn guard_uninstalls_on_panic() {
        for kind in &KINDS {
            let caught = std::panic::catch_unwind(|| {
                let _installed = (kind.install)();
                panic!("boom");
            });
            assert!(caught.is_err());
            assert!(!(kind.is_live)(), "{}", kind.name);
        }
    }

    #[test]
    fn guards_dropped_out_of_order_remove_only_their_own_install() {
        // Same kind: dropping the outer guard first leaves the inner
        // install live, and nothing is resurrected afterwards.
        for kind in &KINDS {
            let outer = (kind.install)();
            let inner = (kind.install)();
            drop(outer.guard);
            assert!((kind.is_live)(), "{}", kind.name);
            let rounds = [probe()];
            assert_eq!((inner.seen)(&rounds), 1, "{}", kind.name);
            assert_eq!((outer.seen)(&rounds), 0, "{}", kind.name);
            drop(inner.guard);
            assert!(!(kind.is_live)(), "{}", kind.name);
        }
        // Across kinds: guards dropped in install order, each taking
        // down exactly its own kind.
        let mut installed: Vec<Installed> = KINDS.iter().map(|k| (k.install)()).collect();
        for gone in 0..KINDS.len() {
            drop(installed.remove(0));
            for (i, kind) in KINDS.iter().enumerate() {
                assert_eq!((kind.is_live)(), i > gone, "{}", kind.name);
            }
        }
    }

    #[test]
    fn mixed_nesting_every_instrument_sees_every_round() {
        fn round(c: &mut Cluster) {
            let mut ex = c.exchange::<Vec<u64>>();
            ex.send(0, vec![1, 2]);
            ex.send(1, vec![3]);
            ex.finish();
        }
        let plan = FaultPlan::new()
            .with_fault(0, 0, FaultKind::Duplicate { msgs: 1 })
            .with_fault(2, 1, FaultKind::Drop { msgs: 1 });
        let (log, (rec, (reg, (shadow, report)))) =
            faults::capture(plan, RecoveryStrategy::default(), || {
                Recorder::capture(|| {
                    metrics::capture(|| {
                        let mut c = Cluster::new(2);
                        round(&mut c);
                        // An inner capture shadows only its own kind.
                        let (shadow, ()) = Recorder::capture(|| round(&mut c));
                        round(&mut c);
                        (shadow, c.report())
                    })
                })
            });
        assert_eq!(log.fired(), 2, "the fault clock saw all three rounds");
        assert_eq!(report.num_rounds(), 4, "three rounds plus one retransmit");
        // registry == ledger …
        assert_eq!(reg.rounds(), &report.rounds[..]);
        // … == trace, the shadowed round landing in the inner recorder.
        let (outer, inner) = (
            trace::analyze::totals(&rec),
            trace::analyze::totals(&shadow),
        );
        assert_eq!((outer.rounds, inner.rounds), (3, 1));
        assert_eq!(outer.tuples + inner.tuples, report.total_tuples());
        assert_eq!(outer.words + inner.words, report.total_words());
        for kind in &KINDS {
            assert!(!(kind.is_live)(), "{}", kind.name);
        }
    }
}
