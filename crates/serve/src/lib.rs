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
//!   [`cache::PlanCache`] keys the partitioned relation by the
//!   canonical `(template, group, shares)` triple; hits skip the base
//!   scan and the partition exchange entirely. Eviction is
//!   deterministic LRU by last-used tick with an exact
//!   hit/miss/insert/evict ledger ([`cache::CacheStats`]), mirroring
//!   the store's page-IO ledger.
//! * **Accounting** — every ledger round of the long-lived cluster is
//!   attributed to exactly one query via
//!   [`parqp_mpc::Cluster::report_since`], so per-tenant totals
//!   reconcile *exactly* with the global [`MetricsRegistry`]
//!   (`tests/serve_reconciliation.rs` asserts this).
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
//! Only this crate may construct plan-cache entries and tenant ledgers
//! (lint rule PQ110 confines `PlanCache`/`TenantLedger` to `serve`, the
//! way PQ104 confines `LoadReport` fabrication to `mpc`).
//!
//! * **Time-series observability** — [`driver::replay_observed`] runs
//!   the same replay with a `parqp_obs` recorder passed down to the
//!   stream loop: every served query is recorded as a `QueryObs` (its
//!   exact ledger delta, cache outcome, and page-IO delta) and folded
//!   into fixed-width tick windows. Only this crate may fabricate
//!   observations (lint rule PQ111); consumers read the returned
//!   `SeriesReport` — exporters, the `parqp dash` dashboard, and SLO
//!   burn-rate gates live in `parqp-obs`.
//!
//! [`MetricsRegistry`]: parqp_mpc::metrics::MetricsRegistry

pub mod cache;
pub mod driver;
pub mod report;
pub mod templates;
pub mod workload;

pub use cache::{CacheStats, PlanCache};
pub use driver::{replay, replay_observed, FaultSetup, ServeConfig};
pub use report::{QueryRecord, ServeReport, TenantStats};
pub use templates::{Template, TEMPLATES};
pub use workload::{schedule, QueryArrival};
