//! Bound-adherence metrics for the MPC simulator.
//!
//! The tutorial states every result as a closed-form bound — `L =
//! IN/p^{1/τ*}` per round for skew-free inputs, `IN/p^{1/ψ*}` under
//! skew, AGM for output sizes — yet [`crate::trace`] only records *raw*
//! per-round loads. This module closes the gap: a [`MetricsRegistry`]
//! folds the very same [`TraceEvent`](crate::trace::TraceEvent) stream
//! the simulator already emits into the ledger's per-round
//! [`RoundStats`](crate::RoundStats) (the fold `trace::analyze` runs
//! over a recording), and each algorithm *announces* its predicted load
//! through the [`BoundProvider`] trait so the registry can report
//! `measured_L / predicted_L` ratios and round counts vs. paper rounds
//! per experiment.
//!
//! Everything here is deterministic: no clocks, no randomness, no
//! iteration over unordered maps (the `clippy.toml` bans). Wall-clock
//! timing lives in the testkit bench harness, the one sanctioned
//! `Instant::now` site, and only ever decorates exported JSON — it
//! never feeds a metric the CI gate compares exactly.
//!
//! ## Layering
//!
//! [`capture`] puts a fresh registry in the [run context](crate::context)
//! for the length of a closure and hands back the filled registry;
//! nested captures shadow the outer one, which resumes afterwards.
//! Only [`Cluster`](crate::Cluster) forwards communication events and
//! drained page IO into the live registry — the hooks are private to
//! this crate; algorithm crates only [`announce`] bounds, and
//! consumers read the finished registry.

use crate::context::{self, Instrument};

pub use crate::bound::{BoundProvider, LoadUnit, PaperBound};
pub use crate::registry::{bucket_of, nearest_rank, percentile_rank, BoundRecord, MetricsRegistry};

/// Whether a registry is currently installed. Algorithms check this
/// before computing expensive bounds (the SkewHC ψ\* LP, for
/// instance).
pub fn is_enabled() -> bool {
    context::is_metered()
}

/// Forward a drained page-IO delta (summed across servers) to the
/// installed registry, if any: `Cluster` drains the store ledger at
/// round boundaries and on `Cluster::report`, so the registry's IO
/// comes from the store runtime and is never fabricated.
pub(crate) fn emit_io(delta: &parqp_store::IoStats) {
    context::with_registry(|reg| reg.observe_io(delta));
}

/// Announce a paper bound to the installed registry, if any. Algorithm
/// crates call this freely — it is the metrics analogue of
/// `trace::span`. A no-op when nothing is installed.
pub fn announce(bound: &dyn BoundProvider) {
    context::with_registry(|reg| reg.announce_bound(bound));
}

/// Run `f` with a fresh registry installed and return the filled
/// registry alongside `f`'s result. The previous registry (if any) is
/// restored afterwards, even if `f` panics.
pub fn capture<R>(f: impl FnOnce() -> R) -> (MetricsRegistry, R) {
    context::capture(MetricsRegistry::new(), Instrument::Registry, f)
}
