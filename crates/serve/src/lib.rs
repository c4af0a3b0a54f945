//! # parqp-serve — a deterministic multi-tenant workload driver
//!
//! Every other component of this workspace measures *one* algorithm run
//! at a time. This crate is the serving layer the north star asks for:
//! a long-lived [`parqp_mpc::Cluster`] absorbing a seeded multi-tenant
//! query stream, with cross-query work reuse through an explicit shared
//! cache and an exact per-tenant cost ledger.
//!
//! ## Model
//!
//! * **Tick clock** — arrivals happen on a logical tick clock
//!   (`0..ticks`). Each `(tenant, tick)` slot draws its arrivals from
//!   its own seeded RNG, so the schedule is a pure function of the
//!   configuration: no slot's draws depend on any other slot's.
//! * **Skew** — tenants pick a query [`templates::Template`] through a
//!   Zipf(`zipf_q`) sampler and a data-key *group* through a
//!   Zipf(`zipf_data`) sampler, the skew model of "Skew in Parallel
//!   Query Processing" (PAPERS.md). Popular template+group pairs repeat
//!   — exactly the repetition the shared cache exploits.
//! * **Shared-plan cache** — a query's expensive phase is
//!   hash-partitioning its template's base relation across the cluster.
//!   The plan cache (the crate-private `cache` module) keys the
//!   partitioned relation by the canonical `(template, group, shares)`
//!   triple; hits skip the base scan and the partition exchange
//!   entirely. Eviction is deterministic: the resident entry asked for
//!   least often goes first (lookup counts survive eviction; ties fall
//!   to the least-recent tick, then the smallest key), with an exact
//!   hit/miss/insert/evict ledger ([`CacheStats`]), mirroring the
//!   store's page-IO ledger.
//! * **Accounting** — every ledger round of the long-lived cluster and
//!   every page read is attributed to exactly one query
//!   ([`parqp_mpc::Cluster::report_since`], one store-ledger snapshot
//!   per arrival) and lands in that query's [`QueryRecord`] — the only
//!   per-query type there is. Per-tenant stats are a fold over the
//!   records, so they reconcile *exactly* with the cluster ledger, the
//!   page-IO ledger and the fault log (`tests/serve_reconciliation.rs`).
//! * **Time-series observability** — [`obs`]: the window series is a
//!   second fold over the same records
//!   ([`obs::SeriesReport::fold`]), and [`driver::replay_observed`] is
//!   [`driver::replay`] plus that fold. The exporters, the `parqp dash`
//!   dashboard and the SLO burn-rate gates are functions of the series.
//! * **Faults under load** — an optional seeded
//!   [`parqp_mpc::faults::FaultPlan`] fires while the stream replays;
//!   recovery overhead lands in whichever query's rounds it inflates,
//!   measuring fault tolerance under load instead of per-experiment.
//!
//! Caching, paging, execution mode and fault injection are all purely
//! observational: per-query output digests are byte-identical with the
//! cache on or off, serial or parallel, faulted or fault-free
//! (`tests/serve_differential.rs`).
//!
//! Who may build what is a visibility fact, not a lint rule: the cache
//! types are `pub(crate)` — a hit excuses a query from communication
//! charges, and the differential tests that prove the excusal sound
//! cover this crate's use of it and no one else's — and [`QueryRecord`]
//! is `#[non_exhaustive]`, so other crates read records and cannot
//! invent one.

mod cache;
pub mod driver;
pub mod obs;
pub mod report;
pub mod templates;
pub mod workload;

mod export;
mod series;
mod slo;

pub use cache::CacheStats;
pub use driver::{replay, replay_observed, FaultSetup, ServeConfig};
pub use report::{QueryRecord, ServeReport, TenantStats};
pub use templates::{Template, TEMPLATES};
pub use workload::{schedule, QueryArrival};
