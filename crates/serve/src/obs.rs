//! Time-series telemetry over a replay: the public face of the private
//! `series`, `slo` and `export` modules.
//!
//! * **Windows on the tick clock** — [`SeriesReport::fold`] cuts a
//!   replay's [`QueryRecord`](crate::QueryRecord)s into fixed-width
//!   [`WindowStats`] windows. Every counter tiles: window sums
//!   reconcile exactly with the whole-run ledgers
//!   (`tests/obs_invariants.rs`).
//! * **Log₂ percentiles** — per-window p50/p99 load is the exact
//!   nearest-rank sample of the window's sorted loads, snapped to the
//!   top of its log₂ bucket (the metrics registry's `bucket_of`) and
//!   clamped to the window maximum: within one log₂ bucket of the exact
//!   percentile, and byte-stable in every export.
//! * **SLO burn rates** — [`SloRules`] are declarative thresholds (p99
//!   load budget, hit-rate floor, bound-ratio ceiling,
//!   recovery-overhead cap) evaluated per window; a rule *alerts* only
//!   on multi-window burn (a consecutive-window fast burn or a
//!   whole-run slow-burn fraction), so one cold-start window cannot
//!   fail a gate. [`SloReport::gate`] is the CI entry point.
//! * **Exporters** — JSONL series, byte-stable Prometheus
//!   text-exposition (golden-tested), and the `parqp dash` ASCII
//!   dashboard (per-window sparklines plus a servers×windows heatmap),
//!   all methods of [`SeriesReport`] and pure functions of it.
//!
//! There is no recorder and no ambient slot: a series is a function of
//! the records [`crate::replay`] returns, and
//! [`crate::replay_observed`] is that replay plus the fold.

pub use crate::series::{ObsConfig, SeriesReport, WindowStats};
pub use crate::slo::{AlertKind, RuleOutcome, SloAlert, SloReport, SloRules};
