//! # parqp — Algorithmic Aspects of Parallel Query Processing, in Rust
//!
//! A faithful implementation of the algorithm suite from the SIGMOD 2018
//! tutorial *Algorithmic Aspects of Parallel Query Processing* (Koutris,
//! Salihoglu, Suciu) on a deterministic simulator of the **MPC model**
//! (Massively Parallel Communication): `p` shared-nothing servers,
//! synchronous rounds, and per-round per-server load `L` as the cost.
//!
//! ## Quick start
//!
//! ```
//! use parqp::prelude::*;
//!
//! // A triangle query over a random graph, on 64 simulated servers.
//! let query = Query::triangle();
//! let edges = parqp::data::generate::random_symmetric_graph(100, 600, 7);
//! let rels = vec![edges.clone(), edges.clone(), edges];
//!
//! let run = parqp::join::multiway::hypercube(&query, &rels, 64, 42);
//! println!(
//!     "{} triangles, load L = {} tuples in {} round(s)",
//!     run.output_size(),
//!     run.report.max_load_tuples(),
//!     run.report.num_rounds(),
//! );
//! # assert_eq!(run.report.num_rounds(), 1);
//! ```
//!
//! ## Crate map
//!
//! * [`mpc`] — the cluster simulator (`Cluster`, `LoadReport`, grids);
//! * [`data`] — relations, generators, statistics;
//! * [`lp`] — simplex, τ\*/ρ\*, AGM, HyperCube share optimization;
//! * [`query`] — conjunctive queries, GHDs, residual queries, oracles;
//! * [`join`] — every join algorithm of the tutorial;
//! * [`sort`] — PSRS and multi-round sorting;
//! * [`matmul`] — MPC matrix multiplication;
//! * [`model`] — the closed-form cost/probability formulas of the slides;
//! * [`planner`] — a heuristic that picks the right algorithm per input;
//! * [`pipeline`] — join-then-aggregate pipelines (slide 52's
//!   `GROUP BY` query);
//! * [`trace`] — deterministic round-level observability (recorders,
//!   exporters, load analysis);
//! * [`faults`] — seeded fault injection (crashes, drops, duplicates,
//!   stragglers) and recovery strategies with honestly charged
//!   overhead;
//! * [`observe`] — named trace experiments for `parqp trace` and
//!   `parqp faults`;
//! * [`metrics`] — bound-adherence metrics over the experiments
//!   (`parqp metrics`) and the counts document (`BENCH_parqp.json`)
//!   the CI gate compares against;
//! * [`serve`] — the multi-tenant workload driver (`parqp serve`):
//!   seeded bursty query streams against one long-lived cluster, with
//!   shared-plan caching and one record per served query;
//! * [`obs`] — `serve::obs`, the time-series telemetry folded from those
//!   records (`parqp dash`): tick-windowed throughput/latency/cache
//!   series, log₂-resolution percentiles, SLO burn-rate gates,
//!   JSONL/Prometheus exporters;
//! * [`cli`] — the `parqp` command-line tool (plan/run/analyze/stats/
//!   generate/trace/faults/metrics over CSV relations).

pub use parqp_data as data;
pub use parqp_join as join;
pub use parqp_lp as lp;
pub use parqp_matmul as matmul;
pub use parqp_mpc as mpc;
pub use parqp_mpc::faults;
pub use parqp_mpc::trace;
pub use parqp_query as query;
pub use parqp_serve as serve;
pub use parqp_serve::obs;
pub use parqp_sort as sort;

pub mod cli;
pub mod metrics;
pub mod model;
pub mod observe;
pub mod pipeline;
pub mod planner;

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use crate::join::JoinRun;
    pub use crate::mpc::{Cluster, LoadReport};
    pub use crate::planner::{plan, run_plan, Strategy};
    pub use crate::query::{Atom, Ghd, Query};
    pub use parqp_data::{Relation, Value};
}
