//! The workspace's one wall-clock read.
//!
//! The paper prices an algorithm in load and rounds and leaves time
//! out, so nothing in the library reads a clock (`clippy.toml` bans
//! `Instant::now` and `SystemTime` everywhere else).
//! Time is measured by the `perf` program (`BENCHMARK.json`,
//! `crates/bench/src/bin/perf/`), which repeats every operation and
//! reports spread; it and the `kernels` micro-bench take every
//! timestamp from [`time_ns`].

use std::time::Instant;

/// Monotonic nanoseconds since the first call.
///
/// The one sanctioned wall-clock read in the workspace: timings are
/// reported, never fed back into algorithm results, so determinism is
/// unaffected.
#[allow(clippy::disallowed_methods)]
pub fn time_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
