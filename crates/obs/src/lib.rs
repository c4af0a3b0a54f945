//! # parqp-obs — deterministic time-series telemetry for the serving layer
//!
//! The trace, metrics and fault layers each answer a *per-run* question:
//! what happened, how much did it cost, did recovery preserve outputs.
//! This crate answers the *temporal* one — how a long replayed stream
//! behaves over its tick clock: cache warm-up transients, skew episodes
//! when a Zipf-hot group lands, recovery spikes under a fault plan.
//!
//! ## Model
//!
//! * **Windows on the tick clock** — a [`series::SeriesRecorder`] folds
//!   one [`series::QueryObs`] per served query (its exact
//!   `Cluster::report_since` ledger delta, cache outcome, and page-IO
//!   delta) into fixed-width [`series::WindowStats`] windows. Every
//!   counter tiles: window sums reconcile exactly with the whole-run
//!   ledgers (`tests/obs_invariants.rs`).
//! * **Sketched percentiles** — per-window p50/p99 load comes from a
//!   [`sketch::LogHistogram`], a log₂-bucketed histogram with the same
//!   bucket convention as `MetricsRegistry`'s recv histogram. The
//!   nearest-rank sample always falls in the bucket the sketch reports,
//!   so the sketch percentile is within one log₂ bucket of the exact
//!   one — at O(64) state per series instead of O(queries).
//! * **SLO burn rates** — [`slo::SloRules`] are declarative thresholds
//!   (p99 load budget, hit-rate floor, bound-ratio ceiling,
//!   recovery-overhead cap) evaluated per window; a rule *alerts* only
//!   on multi-window burn (a consecutive-window fast burn or a
//!   whole-run slow-burn fraction), so one cold-start window cannot
//!   fail a gate. [`slo::SloReport::gate`] is the CI entry point.
//! * **Exporters** — JSONL series, byte-stable Prometheus
//!   text-exposition (golden-tested), and the `parqp dash` ASCII
//!   dashboard (per-window sparklines plus a servers×windows heatmap),
//!   all pure functions of the series.
//!
//! There is no ambient slot: `parqp-serve`'s `replay_observed` builds
//! the [`series::SeriesRecorder`] and hands it down its own call chain,
//! so an unobserved replay pays nothing. Fabricating observations or
//! recorders outside `parqp-serve` (and this crate) is lint rule PQ111.

pub mod export;
pub mod series;
pub mod sketch;
pub mod slo;

pub use series::{ObsConfig, QueryObs, SeriesRecorder, SeriesReport, WindowStats};
pub use sketch::LogHistogram;
pub use slo::{AlertKind, RuleOutcome, SloAlert, SloReport, SloRules};
