//! # parqp-store — deterministic paged storage with a page-IO ledger
//!
//! The out-of-core substrate underneath `parqp-data`: page identities
//! ([`page`]), a bounded per-server buffer pool with deterministic
//! clock replacement ([`pool`]), and a thread-local runtime
//! ([`runtime`]) with the run context's install/guard lifecycle —
//! install a [`StoreConfig`], run, and every paged scan is charged to
//! an exact **page-IO ledger** (logical reads, pool misses, evictions)
//! that `parqp-mpc` drains into the metrics registry as a second cost
//! axis beside communication load.
//!
//! Determinism rules match the rest of the workspace: no wall clock,
//! no `HashMap` (the pool's resident index is a `BTreeMap`, frames are
//! a dense vector swept by a clock hand), and page IDs come from a
//! monotonic per-runtime counter, so a fixed seed reproduces the exact
//! same ledger. The store never changes *what* an algorithm computes —
//! paged scans yield byte-identical rows in byte-identical order — it
//! only measures *how* the data was touched, which is why paged and
//! unpaged runs produce identical digests, `(L, r)` ledgers and trace
//! exports (the `store_differential` suite pins this).
//!
//! No real files are involved and the store holds no rows: a page is an
//! id, its rows stay in the relation `parqp-data` views as pages, and
//! eviction merely drops pool residency, so a re-touch of an evicted
//! page is a counted miss, not data loss.

pub mod page;
pub mod pool;
pub mod region;
pub mod runtime;

pub use page::PageId;
pub use pool::{BufferPool, IoStats};
pub use region::{IoCursor, IoRegion};
pub use runtime::{
    alloc_pages, capture, config, detached, drain_io, ensure_servers, install, io_report,
    is_enabled, reset_io, touch_page, StoreConfig, StoreGuard, DEFAULT_PAGE_SIZE,
    DEFAULT_POOL_PAGES,
};
