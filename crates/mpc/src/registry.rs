//! The [`MetricsRegistry`]: the run's rounds, folded live from the
//! simulator's [`TraceEvent`] stream by the same fold
//! `trace::analyze::round_loads` runs over a recording, plus the
//! drained page IO and the announced bounds.
//!
//! The two conventions every load summary in the workspace shares live
//! beside it: the log₂ bucketing ([`bucket_of`]) and the nearest-rank
//! percentile ([`percentile_rank`], [`nearest_rank`]).

use parqp_store::IoStats;

use crate::analyze::RoundFold;
use crate::bound::{BoundProvider, LoadUnit};
use crate::event::TraceEvent;
use crate::stats::RoundStats;

/// One announced bound, as recorded by [`MetricsRegistry::announce_bound`].
#[derive(Debug, Clone, PartialEq)]
pub struct BoundRecord {
    /// Stable algorithm name.
    pub algorithm: &'static str,
    /// Predicted per-server per-round load in `unit`.
    pub predicted_load: f64,
    /// Predicted round count.
    pub predicted_rounds: usize,
    /// Unit of `predicted_load`.
    pub unit: LoadUnit,
}

/// The log₂ bucket of `value`: 0 holds the value 0, bucket `k ≥ 1`
/// holds `[2^(k−1), 2^k − 1]`. `trace::analyze::histogram` and the
/// serving layer's windowed load percentiles both bucket through this
/// one function.
pub fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The 1-based nearest rank of the `pct`-th percentile among `len`
/// samples: `⌈pct · len / 100⌉` clamped into `1..=len`, so `pct = 0`
/// reads the minimum and any `pct ≥ 100` the maximum. The product is
/// taken in `u128`; no `pct` / `len` pair overflows.
pub fn percentile_rank(len: u64, pct: u64) -> u64 {
    let rank = (u128::from(pct) * u128::from(len)).div_ceil(100);
    rank.clamp(1, u128::from(len.max(1))) as u64
}

/// Nearest-rank percentile of an ascending-sorted sample; 0 when empty.
pub fn nearest_rank(sorted: &[u64], pct: u64) -> u64 {
    match sorted.len() {
        0 => 0,
        len => sorted[percentile_rank(len as u64, pct) as usize - 1],
    }
}

/// What one observed run (or one experiment's worth of runs) measured:
/// its rounds, its page IO, and the bounds its algorithms announced.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    fold: RoundFold,
    io: IoStats,
    bounds: Vec<BoundRecord>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one simulator event into the rounds.
    pub(crate) fn observe_event(&mut self, event: &TraceEvent) {
        self.fold.observe(event);
    }

    /// Add a drained page-IO delta from the store ledger: the registry
    /// accumulates exactly what the buffer pools measured (the second
    /// cost axis beside communication load).
    pub(crate) fn observe_io(&mut self, delta: &IoStats) {
        self.io.merge(delta);
    }

    /// Record an announced bound: the first announcement of a capture
    /// is the run's *primary* bound (outermost algorithm announces
    /// before any sub-algorithm it delegates to).
    pub fn announce_bound(&mut self, bound: &dyn BoundProvider) {
        self.bounds.push(BoundRecord {
            algorithm: bound.algorithm(),
            predicted_load: bound.predicted_load(),
            predicted_rounds: bound.predicted_rounds(),
            unit: bound.unit(),
        });
    }

    /// Every round observed, in stream order — the ledger's own
    /// per-round type.
    pub fn rounds(&self) -> &[RoundStats] {
        &self.fold.rounds
    }

    /// The page IO drained into this registry, summed across servers.
    pub fn io(&self) -> IoStats {
        self.io
    }

    /// Every announced bound, in announcement order.
    pub fn bounds(&self) -> &[BoundRecord] {
        &self.bounds
    }

    /// The first announced bound — the outermost algorithm of the
    /// capture, whose prediction the run is judged against.
    pub fn primary_bound(&self) -> Option<&BoundRecord> {
        self.bounds.first()
    }

    /// Maximum per-server per-round receive load observed, in `unit`.
    pub fn load_max(&self, unit: LoadUnit) -> u64 {
        let max = match unit {
            LoadUnit::Tuples => RoundStats::max_tuples,
            LoadUnit::Words => RoundStats::max_words,
        };
        self.rounds().iter().map(max).max().unwrap_or(0)
    }

    /// `measured_L / predicted_L` against the primary bound, in the
    /// bound's own unit. `None` without a (positive) announced bound.
    pub fn bound_ratio(&self) -> Option<f64> {
        let bound = self.primary_bound()?;
        if bound.predicted_load <= 0.0 {
            return None;
        }
        Some(self.load_max(bound.unit) as f64 / bound.predicted_load)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::PaperBound;

    fn round(reg: &mut MetricsRegistry, round: usize, servers: usize, loads: &[u64]) {
        reg.observe_event(&TraceEvent::RoundBegin { round, servers });
        let mut total = 0;
        for (server, &tuples) in loads.iter().enumerate() {
            if tuples > 0 {
                reg.observe_event(&TraceEvent::Recv {
                    round,
                    server,
                    tuples,
                    words: 2 * tuples,
                });
            }
            total += tuples;
        }
        reg.observe_event(&TraceEvent::RoundEnd {
            round,
            tuples: total,
            words: 2 * total,
        });
    }

    #[test]
    fn counters_and_maxima_track_the_stream() {
        let mut reg = MetricsRegistry::new();
        round(&mut reg, 0, 4, &[10, 20, 0, 30]);
        // Fault, recovery and span markers sit between blocks and
        // carry no load of their own.
        reg.observe_event(&TraceEvent::FaultInjected {
            round: 0,
            server: 1,
            kind: "drop",
        });
        reg.observe_event(&TraceEvent::SpanBegin { label: "x/y" });
        round(&mut reg, 1, 4, &[5, 5, 5, 5]);
        assert_eq!(reg.rounds().len(), 2);
        assert_eq!(reg.rounds()[0].tuples, vec![10, 20, 0, 30]);
        assert_eq!(reg.rounds()[1].words, vec![10; 4]);
        assert_eq!(reg.load_max(LoadUnit::Tuples), 30);
        assert_eq!(reg.load_max(LoadUnit::Words), 60);
    }

    #[test]
    fn bucket_of_splits_at_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!((bucket_of(2), bucket_of(3)), (2, 2));
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for k in 1..64 {
            assert_eq!(bucket_of((1 << k) - 1), k, "2^{k} - 1 closes bucket {k}");
            assert_eq!(bucket_of(1 << k), k + 1, "2^{k} opens bucket {}", k + 1);
        }
    }

    #[test]
    fn nearest_rank_clamps_out_of_range_percentiles() {
        assert_eq!(nearest_rank(&[], 99), 0);
        assert_eq!(nearest_rank(&[7], 50), 7);
        let sorted: Vec<u64> = (0..1000).collect();
        // pct = 0 clamps up to rank 1; 100, 101 and u64::MAX all clamp
        // down to the top sample (pct · len would overflow a u64).
        for (pct, want) in [(0, 0), (50, 499), (99, 989), (100, 999), (101, 999)] {
            assert_eq!(nearest_rank(&sorted, pct), want, "pct {pct}");
        }
        assert_eq!(nearest_rank(&sorted, u64::MAX), 999);
        assert_eq!(nearest_rank(&[u64::MAX], u64::MAX), u64::MAX);
        assert_eq!(percentile_rank(0, 50), 1, "an empty sample has no rank 0");
        assert_eq!(percentile_rank(u64::MAX, u64::MAX), u64::MAX);
    }

    /// Naive nearest-rank reference: walk the sample counting ranks.
    fn nearest_rank_reference(sorted: &[u64], pct: u64) -> u64 {
        let rank = (u128::from(pct) * sorted.len() as u128)
            .div_ceil(100)
            .max(1) as usize;
        let mut taken = 0usize;
        for &v in sorted {
            taken += 1;
            if taken >= rank {
                return v;
            }
        }
        sorted.last().copied().unwrap_or(0)
    }

    #[test]
    fn nearest_rank_matches_naive_reference_on_random_samples() {
        let mut state = 0x5EEDu64;
        for len in [1usize, 2, 3, 7, 100, 101, 997] {
            let mut samples: Vec<u64> = (0..len)
                .map(|_| parqp_testkit::splitmix64(&mut state) % 1_000_000)
                .collect();
            samples.sort_unstable();
            for pct in [0u64, 1, 33, 50, 99, 100] {
                assert_eq!(
                    nearest_rank(&samples, pct),
                    nearest_rank_reference(&samples, pct),
                    "len={len} pct={pct}"
                );
            }
        }
    }

    #[test]
    fn first_announcement_is_primary() {
        let mut reg = MetricsRegistry::new();
        reg.announce_bound(&PaperBound::tuples("skew_join", 100.0, 1));
        reg.announce_bound(&PaperBound::tuples("hash_join", 40.0, 1));
        round(&mut reg, 0, 2, &[110, 90]);
        assert_eq!(reg.primary_bound().map(|b| b.algorithm), Some("skew_join"));
        assert_eq!(reg.bound_ratio(), Some(1.1));
        assert_eq!(reg.bounds().len(), 2);
        assert_eq!(reg.bounds()[1].predicted_load, 40.0);
    }

    #[test]
    fn word_denominated_bounds_use_word_loads() {
        let mut reg = MetricsRegistry::new();
        reg.announce_bound(&PaperBound::words("matmul_square", 80.0, 3));
        round(&mut reg, 0, 2, &[20, 50]); // words = 2 × tuples = 100 max
        assert_eq!(reg.bound_ratio(), Some(100.0 / 80.0));
    }

    #[test]
    fn io_deltas_accumulate_into_counters() {
        let mut reg = MetricsRegistry::new();
        assert_eq!(reg.io(), IoStats::default());
        assert_eq!(reg.io().hit_rate(), 0.0);
        for (reads, misses, evictions) in [(80, 10, 2), (20, 10, 3)] {
            reg.observe_io(&IoStats {
                reads,
                misses,
                evictions,
            });
        }
        let io = reg.io();
        assert_eq!((io.reads, io.misses, io.evictions), (100, 20, 5));
        assert!((io.hit_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn zero_predicted_load_yields_no_ratio() {
        let mut reg = MetricsRegistry::new();
        reg.announce_bound(&PaperBound::tuples("empty", 0.0, 0));
        assert_eq!(reg.bound_ratio(), None);
        assert!(MetricsRegistry::new().bound_ratio().is_none());
    }
}
