//! # parqp-sort — parallel sorting in the MPC model
//!
//! Sorting underlies merge joins, similarity joins and aggregation
//! (slide 99). Two algorithms:
//!
//! * [`mod@psrs`] — Parallel Sorting by Regular Sampling (slides 100–102):
//!   each server sorts locally, broadcasts a regular sample, all servers
//!   deterministically agree on `p−1` splitters, route, and sort locally.
//!   Load `Θ(N/p)` when `p ≪ N^{1/3}`; 2 communication rounds.
//! * [`multiround`] — a splitter-tree distribution sort with bounded
//!   fan-out, the laptop-scale stand-in for Goodrich's BSP sort
//!   (slides 104–105): with per-round fan-out `f` it runs in
//!   `O(log_f p)` rounds, exhibiting the `Ω(log_L N)` round/load
//!   trade-off of the sorting lower bound.
//!
//! The model calls a server's local sort free; wherever either algorithm
//! sorts `u64` keys locally it calls one radix kernel, [`sort_words`].

pub mod multiround;
pub mod psrs;
mod radix;

pub use multiround::{multiround_sort, multiround_sort_with_oversample};
pub use psrs::{psrs, psrs_by};
pub use radix::sort_words;
