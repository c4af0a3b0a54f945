//! The [`MetricsRegistry`]: counters, gauges, a power-of-two receive
//! histogram, and announced bounds, all fed by the simulator's
//! [`TraceEvent`] stream.
//!
//! Every container is a `BTreeMap` or a dense vector — iteration order
//! is deterministic by construction (PQ001).
//!
//! The two conventions every load summary in the workspace shares live
//! beside it: the log₂ bucketing ([`bucket_of`]) and the nearest-rank
//! percentile ([`percentile_rank`], [`nearest_rank`]).

use std::collections::BTreeMap;

use crate::event::{TraceEvent, TraceSink};

use crate::bound::{BoundProvider, LoadUnit};

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
/// holds `[2^(k−1), 2^k − 1]`. [`MetricsRegistry::recv_histogram`],
/// `trace::analyze::histogram` and the serving layer's load sketch all
/// bucket through this one function.
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

/// Counters, gauges, histograms, and bound-adherence state for one
/// observed run (or one experiment's worth of runs).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<String, f64>,
    /// Power-of-two histogram of per-server per-round receive loads in
    /// tuples: bucket 0 counts zero loads, bucket `k ≥ 1` counts loads
    /// in `[2^(k−1), 2^k − 1]` — the same shape `trace::analyze`
    /// uses, so the two stay comparable.
    recv_hist: Vec<u64>,
    bounds: Vec<BoundRecord>,
    load_max_tuples: u64,
    load_max_words: u64,
    round_servers: usize,
    round_max_tuples: u64,
    max_skew_ratio: f64,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observe one simulator event (the [`TraceSink`] entry point).
    pub fn observe_event(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::RoundBegin { servers, .. } => {
                self.add("rounds", 1);
                self.round_servers = servers;
                self.round_max_tuples = 0;
            }
            TraceEvent::Topology { .. } => self.add("topologies", 1),
            TraceEvent::Send { msgs, words, .. } => {
                self.add("sends", msgs);
                self.add("send_words", words);
            }
            TraceEvent::Recv { tuples, words, .. } => {
                self.add("recvs", 1);
                self.bump_hist(tuples);
                self.load_max_tuples = self.load_max_tuples.max(tuples);
                self.load_max_words = self.load_max_words.max(words);
                self.round_max_tuples = self.round_max_tuples.max(tuples);
            }
            TraceEvent::RoundEnd { tuples, words, .. } => {
                self.add("tuples", tuples);
                self.add("words", words);
                if self.round_servers > 0 && tuples > 0 {
                    let mean = tuples as f64 / self.round_servers as f64;
                    let ratio = self.round_max_tuples as f64 / mean;
                    self.max_skew_ratio = self.max_skew_ratio.max(ratio);
                }
            }
            TraceEvent::FaultInjected { .. } => self.add("faults_injected", 1),
            TraceEvent::RecoveryBegin { .. } => self.add("recoveries", 1),
            TraceEvent::RecoveryEnd {
                rounds,
                tuples,
                words,
                ..
            } => {
                self.add("recovery_rounds", rounds as u64);
                self.add("recovery_tuples", tuples);
                self.add("recovery_words", words);
            }
            TraceEvent::SpanBegin { .. } => self.add("spans", 1),
            TraceEvent::SpanEnd { .. } => {}
        }
    }

    /// Observe a drained page-IO delta from the store ledger: counters
    /// `io_reads`, `io_misses` and `io_evictions` accumulate exactly
    /// what the buffer pools measured (the second cost axis beside
    /// communication load). Zero deltas are recorded as-is.
    pub fn observe_io(&mut self, reads: u64, misses: u64, evictions: u64) {
        self.add("io_reads", reads);
        self.add("io_misses", misses);
        self.add("io_evictions", evictions);
    }

    /// Total logical page reads observed (counter `io_reads`).
    pub fn io_reads(&self) -> u64 {
        self.counter("io_reads")
    }

    /// Buffer-pool hit rate ([`IoStats::hit_rate`](parqp_store::IoStats::hit_rate)
    /// of the observed counters); 0 when no paged scan ran.
    pub fn io_hit_rate(&self) -> f64 {
        parqp_store::IoStats {
            reads: self.counter("io_reads"),
            misses: self.counter("io_misses"),
            evictions: self.counter("io_evictions"),
        }
        .hit_rate()
    }

    /// Record an announced bound: the first announcement of a capture
    /// is the run's *primary* bound (outermost algorithm announces
    /// before any sub-algorithm it delegates to).
    pub fn announce_bound(&mut self, bound: &dyn BoundProvider) {
        let record = BoundRecord {
            algorithm: bound.algorithm(),
            predicted_load: bound.predicted_load(),
            predicted_rounds: bound.predicted_rounds(),
            unit: bound.unit(),
        };
        self.set_gauge(
            format!("bound.{}.predicted_load", record.algorithm),
            record.predicted_load,
        );
        self.set_gauge(
            format!("bound.{}.predicted_rounds", record.algorithm),
            record.predicted_rounds as f64,
        );
        self.bounds.push(record);
    }

    /// Set gauge `name` to `value` (overwrites).
    pub fn set_gauge(&mut self, name: impl Into<String>, value: f64) {
        self.gauges.insert(name.into(), value);
    }

    /// Counter value (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
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
        match unit {
            LoadUnit::Tuples => self.load_max_tuples,
            LoadUnit::Words => self.load_max_words,
        }
    }

    /// Rounds observed (counter `rounds`).
    pub fn rounds(&self) -> u64 {
        self.counter("rounds")
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

    /// Largest per-round `max / mean` receive-load ratio observed (1.0
    /// is perfectly balanced; 0.0 when no round carried load).
    pub fn max_skew_ratio(&self) -> f64 {
        self.max_skew_ratio
    }

    /// The power-of-two receive histogram: bucket 0 counts zero loads,
    /// bucket `k ≥ 1` counts loads in `[2^(k−1), 2^k − 1]` tuples.
    pub fn recv_histogram(&self) -> &[u64] {
        &self.recv_hist
    }

    fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    fn bump_hist(&mut self, value: u64) {
        let bucket = bucket_of(value);
        if self.recv_hist.len() <= bucket {
            self.recv_hist.resize(bucket + 1, 0);
        }
        self.recv_hist[bucket] += 1;
    }
}

impl TraceSink for MetricsRegistry {
    fn record(&mut self, event: TraceEvent) {
        self.observe_event(&event);
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
        round(&mut reg, 1, 4, &[5, 5, 5, 5]);
        assert_eq!(reg.rounds(), 2);
        assert_eq!(reg.counter("tuples"), 80);
        assert_eq!(reg.counter("words"), 160);
        assert_eq!(reg.counter("recvs"), 7);
        assert_eq!(reg.load_max(LoadUnit::Tuples), 30);
        assert_eq!(reg.load_max(LoadUnit::Words), 60);
        // Round 0: max 30 over mean 15 ⇒ skew 2; round 1 is balanced.
        assert_eq!(reg.max_skew_ratio(), 2.0);
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
    fn histogram_buckets_are_powers_of_two() {
        let mut reg = MetricsRegistry::new();
        round(&mut reg, 0, 4, &[1, 2, 3, 8]);
        // value 1 → bucket 1; values 2,3 → bucket 2; value 8 → bucket 4.
        assert_eq!(reg.recv_histogram(), &[0, 1, 2, 0, 1]);
    }

    #[test]
    fn first_announcement_is_primary() {
        let mut reg = MetricsRegistry::new();
        reg.announce_bound(&PaperBound::tuples("skew_join", 100.0, 1));
        reg.announce_bound(&PaperBound::tuples("hash_join", 40.0, 1));
        round(&mut reg, 0, 2, &[110, 90]);
        assert_eq!(reg.primary_bound().map(|b| b.algorithm), Some("skew_join"));
        assert_eq!(reg.bound_ratio(), Some(1.1));
        assert_eq!(reg.gauge("bound.hash_join.predicted_load"), Some(40.0));
        assert_eq!(reg.bounds().len(), 2);
    }

    #[test]
    fn word_denominated_bounds_use_word_loads() {
        let mut reg = MetricsRegistry::new();
        reg.announce_bound(&PaperBound::words("matmul_square", 80.0, 3));
        round(&mut reg, 0, 2, &[20, 50]); // words = 2 × tuples = 100 max
        assert_eq!(reg.bound_ratio(), Some(100.0 / 80.0));
    }

    #[test]
    fn fault_and_recovery_events_are_counted() {
        let mut reg = MetricsRegistry::new();
        reg.observe_event(&TraceEvent::FaultInjected {
            round: 0,
            server: 1,
            kind: "crash",
        });
        reg.observe_event(&TraceEvent::RecoveryBegin {
            round: 0,
            server: 1,
            strategy: "checkpoint",
        });
        reg.observe_event(&TraceEvent::RecoveryEnd {
            round: 1,
            server: 1,
            rounds: 1,
            tuples: 25,
            words: 50,
        });
        reg.observe_event(&TraceEvent::SpanBegin { label: "x/y" });
        reg.observe_event(&TraceEvent::SpanEnd { label: "x/y" });
        assert_eq!(reg.counter("faults_injected"), 1);
        assert_eq!(reg.counter("recoveries"), 1);
        assert_eq!(reg.counter("recovery_rounds"), 1);
        assert_eq!(reg.counter("recovery_tuples"), 25);
        assert_eq!(reg.counter("recovery_words"), 50);
        assert_eq!(reg.counter("spans"), 1);
    }

    #[test]
    fn io_deltas_accumulate_into_counters() {
        let mut reg = MetricsRegistry::new();
        assert_eq!(reg.io_reads(), 0);
        assert_eq!(reg.io_hit_rate(), 0.0);
        reg.observe_io(80, 10, 2);
        reg.observe_io(20, 10, 3);
        assert_eq!(reg.io_reads(), 100);
        assert_eq!(reg.counter("io_misses"), 20);
        assert_eq!(reg.counter("io_evictions"), 5);
        assert!((reg.io_hit_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn zero_predicted_load_yields_no_ratio() {
        let mut reg = MetricsRegistry::new();
        reg.announce_bound(&PaperBound::tuples("empty", 0.0, 0));
        assert_eq!(reg.bound_ratio(), None);
        assert!(MetricsRegistry::new().bound_ratio().is_none());
    }
}
