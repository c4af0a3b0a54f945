//! # parqp-mpc — a deterministic simulator of the Massively Parallel Communication model
//!
//! The MPC model (slides 5–20 of the tutorial) is a simplified BSP model:
//!
//! * `p` shared-nothing servers hold the input, `O(IN/p)` tuples each;
//! * an algorithm runs in **rounds**; in each round every server performs
//!   arbitrary local computation and then exchanges messages with every
//!   other server (all-to-all communication);
//! * the two cost parameters are the **load** `L` — the maximum number of
//!   tuples (or words) received by any server in any round — and the
//!   number of **rounds** `r`. Total communication is `C = Σ` messages.
//!
//! This crate implements the model as an in-process simulator. Algorithms
//! keep per-server state in ordinary `Vec`s (index = server id) and use
//! [`Cluster::exchange`] (one message per send) or
//! [`Cluster::exchange_rows`] (fixed-width rows into flat
//! per-destination buffers) to perform one communication round. The cluster
//! records, for every round, exactly how many tuples and words each server
//! received, from which [`LoadReport`] derives `L`, `r` and `C` — the very
//! quantities every theorem in the paper is stated in.
//!
//! The simulator is fully deterministic: all hashing goes through the
//! seeded [`hash::HashFamily`], so repeated runs produce identical loads.
//!
//! ## Modules
//!
//! * [`cluster`] — the cluster, exchanges, and round accounting;
//! * [`error`] — typed invariant violations ([`MpcError`]); every
//!   panicking entry point has a `try_*` sibling returning these;
//! * [`stats`] — per-round statistics and the final [`LoadReport`];
//! * [`grid`] — `p₁ × … × p_k` hypercube topologies with `*`-broadcast
//!   (the HyperCube algorithm's addressing primitive, slide 35);
//! * [`hash`] — a seeded family of independent hash functions;
//! * [`weight`] — how many words a message counts for.
//!
//! ## The run context and its instruments
//!
//! Everything that watches or perturbs a round boundary is installed
//! in one thread-local [`context`] with one guard type
//! ([`ContextGuard`]) and one nesting rule: the innermost install of a
//! kind wins, other kinds stay live. The hooks that *feed* an
//! installed instrument are private to this crate, so only [`Cluster`]
//! can reach them; the public surface of each instrument is
//! install/capture plus what algorithms legitimately call:
//!
//! * [`trace`] — [`trace::Recorder::capture`] the round-level event
//!   stream; algorithm crates label phases with [`trace::span`];
//! * [`metrics`] — [`metrics::capture`] a registry fed by the same
//!   stream plus drained page IO; algorithm crates
//!   [`metrics::announce`] their paper bounds;
//! * [`faults`] — [`faults::capture`] a run under a seeded
//!   [`faults::FaultPlan`]: delivered inboxes are always the
//!   post-recovery view, recovery overhead lands on the same ledger;
//! * [`exec`] — serial vs parallel local compute ([`ExecMode`]), byte-
//!   identical by construction.
//!
//! The paged store ([`store`], a re-export of `parqp-store`) keeps the
//! one other slot: `parqp_data::paged` reaches it from *below* this
//! crate.

pub mod cluster;
pub mod context;
pub mod error;
pub mod exec;
pub mod faults;
pub mod grid;
pub mod hash;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod weight;

// The instruments' implementation files sit flat beside the
// simulator's; their public paths are the `trace`, `metrics` and
// `faults` modules above.
mod analyze;
mod bound;
mod event;
mod export;
mod plan;
mod recorder;
mod recovery;
mod registry;

pub use parqp_store as store;

pub use cluster::{Cluster, Exchange, RowExchange};
pub use context::ContextGuard;
pub use error::MpcError;
pub use exec::ExecMode;
pub use grid::{FanOut, Grid};
pub use hash::HashFamily;
pub use stats::{LoadReport, RoundStats};
pub use weight::Weight;
