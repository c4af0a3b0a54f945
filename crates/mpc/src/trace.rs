//! Deterministic round-level observability for the MPC simulator.
//!
//! Every theorem the tutorial states is about *per-round, per-server*
//! communication load, but a [`LoadReport`](crate::LoadReport)
//! collapses a whole run into scalar summaries. This module records the
//! run as a stream of structured [`TraceEvent`]s instead — round
//! boundaries, per-server receive loads, per-server send fan-out, grid
//! topology, and algorithm-supplied span labels — so skew, stragglers,
//! and round structure become visible and diffable.
//!
//! The trace is **fully deterministic**: the only clock is the logical
//! event sequence number (`seq`), assigned by the [`Recorder`] in
//! emission order. There is no wall time anywhere (`clippy.toml` bans
//! the clock), so a fixed-seed run produces a byte-identical trace
//! every time.
//!
//! ## Layering
//!
//! Only [`Cluster`](crate::Cluster) *emits* communication events — the
//! same monopoly that keeps `LoadReport` and `RoundStats` buildable only
//! inside this crate extends to the event stream by visibility: the
//! feeding hook is private to this crate (see [`crate::context`]). Algorithm crates
//! may only open [`span`]s, labelling phases like
//! `"hypercube/shuffle"`. Exporters and analyses consume a borrowed
//! [`Recorder`], never raw events.
//!
//! ## Contents
//!
//! * the [`TraceEvent`] model and the [`TraceSink`] trait;
//! * the ring-buffered [`Recorder`], [`install`]/[`span`], and
//!   [`Recorder::capture`];
//! * [`export`] — [`export::jsonl`] and the Chrome `trace_event`
//!   exporter [`export::chrome_trace`] (loadable in Perfetto /
//!   `about://tracing`);
//! * [`analyze`] — per-round load reconstruction, max/p99/mean/skew
//!   summaries, load histograms, and the ASCII servers × rounds
//!   heatmap.

pub use crate::event::{TraceEvent, TraceSink};
pub use crate::recorder::{install, is_enabled, span, Recorder, Span, DEFAULT_CAPACITY};

/// JSONL and Chrome `trace_event` exporters.
pub mod export {
    pub use crate::export::*;
}

/// Load reconstruction and summaries over a recorded trace.
pub mod analyze {
    pub use crate::analyze::*;
}
