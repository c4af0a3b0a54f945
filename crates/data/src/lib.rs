//! # parqp-data — relations, data generators and statistics
//!
//! The storage and workload layer underneath the parallel query processing
//! algorithms:
//!
//! * [`relation`] — arity-tagged flat row-major relations over `u64`
//!   values (the unit in which the MPC model measures load), and their
//!   order-free bag digest ([`Relation::digest`]);
//! * [`fasthash`] — a fast non-cryptographic hasher and map/set aliases
//!   used on hot paths (join build sides, degree counting);
//! * [`index`] — the local-join kernel: a chained `u32` hash index built
//!   over borrowed rows, shared by every build/probe loop in the
//!   workspace;
//! * [`generate`] — seeded workload generators: uniform relations, Zipf
//!   skew, planted heavy hitters, random graphs — the input classes the
//!   tutorial's analyses distinguish (no skew / bounded degree / heavy
//!   hitters / extreme skew);
//! * [`zipf`] — a standalone Zipf(α) sampler built on inverse-CDF tables;
//! * [`stats`] — exact degree statistics, heavy-hitter extraction with the
//!   paper's `IN/p` threshold (slide 29), and exact two-way join output
//!   cardinality;
//! * [`sampling`] — Bernoulli-sample degree estimation, the way a real
//!   system would detect heavy hitters (slide 46);
//! * [`io`] — CSV/TSV relation loading and saving;
//! * [`paged`] — paged relation scans over `parqp-store`'s bounded
//!   buffer pools, charging an exact page-IO ledger beside the
//!   communication ledger (inert unless a store runtime is installed).

pub mod fasthash;
pub mod generate;
pub mod index;
pub mod io;
pub mod paged;
pub mod relation;
pub mod sampling;
pub mod stats;
pub mod zipf;

pub use fasthash::{FastMap, FastSet};
pub use index::{KeyIndex, KeyTable, Rows};
pub use relation::{Relation, Value};
