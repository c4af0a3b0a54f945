//! Fixed-width windows on the logical tick clock.
//!
//! A series is a fold over the replay's [`QueryRecord`]s and nothing
//! else: [`SeriesReport::fold`] sends each record — the query's exact
//! ledger delta (`Cluster::report_since`), its cache outcome, and its
//! page-IO delta — to the window its arrival tick belongs to, so every
//! counter *tiles*: summing any field across windows reproduces the
//! whole-run ledger exactly (`tests/obs_invariants.rs` reconciles them
//! against `LoadReport`, `CacheStats` and the IO ledger).
//!
//! Round accounting separates steady work from recovery: a cache hit is
//! probe-only (1 round) and a miss/off query builds then probes (2
//! rounds), so a window's *expected* rounds are `2·served − hits` and
//! anything above that is recovery overhead appended by a fault plan —
//! exactly 0 on a fault-free replay, and summing to the fault log's
//! `recovery_rounds` on a faulted one.

use crate::report::{group_by, QueryRecord, Sums};
use parqp_data::paged::IoStats;
use parqp_mpc::metrics::nearest_rank;

/// Shape of a series: window width and run horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Window width in ticks (≥ 1).
    pub window_ticks: u64,
    /// Length of the replay's tick clock; fixes the window count up
    /// front so trailing quiet windows still appear in the series.
    pub ticks: u64,
    /// Cluster width `p` (per-server load vectors are this long).
    pub servers: usize,
}

/// Everything one window of the series accumulated.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// Window index (0-based).
    pub index: usize,
    /// First tick in the window.
    pub start_tick: u64,
    /// One past the last tick in the window.
    pub end_tick: u64,
    /// Queries served.
    pub served: u64,
    /// Cache hits among them (0 with the cache off).
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Output rows produced.
    pub out_rows: u64,
    /// Ledger rounds (including recovery).
    pub rounds: u64,
    /// Tuples moved.
    pub tuples: u64,
    /// Words moved.
    pub words: u64,
    /// Worst single-query load in the window.
    pub max_l: u64,
    /// Per-query loads, ascending (p50/p99 come from here).
    pub loads: Vec<u64>,
    /// The window's worst bound-ratio query, as an exact
    /// `(l, predicted_l)` pair (compared by cross-multiplication, so
    /// no float ever enters the fold).
    pub worst_l: u64,
    /// Denominator of the worst bound ratio (0 until a query lands).
    pub worst_predicted_l: u64,
    /// Page-IO reads.
    pub io_reads: u64,
    /// Page-IO pool misses.
    pub io_misses: u64,
    /// Page-IO evictions.
    pub io_evictions: u64,
    /// Tuples received per server over the window (length = `p`).
    pub per_server_tuples: Vec<u64>,
}

impl WindowStats {
    /// Window `index` of `cfg`'s horizon, folded from the records whose
    /// arrival tick it covers.
    fn fold(index: usize, cfg: &ObsConfig, records: &[&QueryRecord]) -> Self {
        let sums = Sums::of(records.iter().copied());
        let start = index as u64 * cfg.window_ticks;
        let mut w = Self {
            index,
            start_tick: start,
            end_tick: (start + cfg.window_ticks).min(cfg.ticks),
            served: sums.served,
            hits: sums.hits,
            misses: sums.misses,
            out_rows: 0,
            rounds: sums.rounds,
            tuples: sums.tuples,
            words: sums.words,
            max_l: sums.loads.last().copied().unwrap_or(0),
            loads: sums.loads,
            worst_l: 0,
            worst_predicted_l: 0,
            io_reads: 0,
            io_misses: 0,
            io_evictions: 0,
            per_server_tuples: vec![0; cfg.servers],
        };
        for q in records {
            w.out_rows += q.out_rows;
            // worst l/pred < q.l/q.pred  ⇔  worst_l · q.pred < q.l · worst_pred
            let pred = q.predicted_l();
            if w.worst_predicted_l == 0
                || u128::from(w.worst_l) * u128::from(pred)
                    < u128::from(q.l) * u128::from(w.worst_predicted_l)
            {
                w.worst_l = q.l;
                w.worst_predicted_l = pred;
            }
            w.io_reads += q.io.reads;
            w.io_misses += q.io.misses;
            w.io_evictions += q.io.evictions;
            for (acc, t) in w.per_server_tuples.iter_mut().zip(&q.per_server_tuples) {
                *acc += t;
            }
        }
        w
    }

    /// Window width in ticks (the last window may be short).
    pub fn width_ticks(&self) -> u64 {
        (self.end_tick - self.start_tick).max(1)
    }

    /// Queries served per 1000 ticks of this window.
    pub fn throughput_per_kticks(&self) -> u64 {
        self.served * 1000 / self.width_ticks()
    }

    /// `hits / (hits + misses)`; 0 when the cache saw no lookup.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// [`IoStats::hit_rate`] of the window's page IO; 0 when nothing
    /// was read.
    pub fn io_hit_rate(&self) -> f64 {
        IoStats {
            reads: self.io_reads,
            misses: self.io_misses,
            evictions: self.io_evictions,
        }
        .hit_rate()
    }

    /// Per-query load percentile at log₂ resolution: the exact
    /// nearest-rank sample snapped to the top of its log₂ bucket (the
    /// registry's `bucket_of`), clamped to [`max_l`](Self::max_l) (so
    /// `pct ≥ 100` reads the maximum); 0 for an empty window. Within
    /// one log₂ bucket of the exact nearest rank, and exactly what a
    /// log₂ histogram's cumulative walk returns: the rank-th sample
    /// lies in the bucket where that walk stops.
    pub fn l_percentile(&self, pct: u64) -> u64 {
        let sample = nearest_rank(&self.loads, pct);
        // All ones up to the sample's highest set bit: its log₂ bucket's top.
        let top = u64::MAX.checked_shr(sample.leading_zeros()).unwrap_or(0);
        top.min(self.max_l)
    }

    /// Window-aggregate skew: the hottest server's window total over
    /// the balanced line `tuples / p`. 1.0 for a perfectly balanced
    /// (or empty) window.
    pub fn skew(&self) -> f64 {
        let p = self.per_server_tuples.len().max(1) as f64;
        let max = self.per_server_tuples.iter().copied().max().unwrap_or(0);
        if self.tuples == 0 {
            1.0
        } else {
            max as f64 / (self.tuples as f64 / p)
        }
    }

    /// Worst per-query `L / predicted_L` in the window; 1.0 when empty.
    pub fn bound_ratio(&self) -> f64 {
        if self.worst_predicted_l == 0 {
            1.0
        } else {
            self.worst_l as f64 / self.worst_predicted_l as f64
        }
    }

    /// Steady rounds this window's query mix explains: probe-only for
    /// hits, build+probe for everything else.
    pub fn expected_rounds(&self) -> u64 {
        2 * self.served - self.hits
    }

    /// Rounds above the steady expectation — the window's share of
    /// recovery overhead. Exactly 0 on a fault-free replay.
    pub fn recovery_rounds(&self) -> u64 {
        self.rounds.saturating_sub(self.expected_rounds())
    }

    /// `recovery_rounds / expected_rounds`; 0 when the window is empty.
    pub fn recovery_overhead(&self) -> f64 {
        let expected = self.expected_rounds();
        if expected == 0 {
            0.0
        } else {
            self.recovery_rounds() as f64 / expected as f64
        }
    }
}

/// A finished series: the windows plus the shape they were cut with.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesReport {
    /// The shape the series was cut with.
    pub config: ObsConfig,
    /// One entry per window, in tick order.
    pub windows: Vec<WindowStats>,
}

impl SeriesReport {
    /// Cut `records` into `config`'s windows. Every window of the
    /// horizon is present (quiet ones too, so tiling is total), a
    /// zero width or horizon is clamped to 1, and a tick past the
    /// horizon lands in the last window.
    pub fn fold(mut config: ObsConfig, records: &[QueryRecord]) -> Self {
        config.window_ticks = config.window_ticks.max(1);
        config.ticks = config.ticks.max(1);
        let n = config.ticks.div_ceil(config.window_ticks) as usize;
        let windows = group_by(records, n, |q| (q.tick / config.window_ticks) as usize)
            .iter()
            .enumerate()
            .map(|(i, qs)| WindowStats::fold(i, &config, qs))
            .collect();
        Self { config, windows }
    }

    /// Queries served across all windows.
    pub fn served(&self) -> u64 {
        self.windows.iter().map(|w| w.served).sum()
    }

    /// Ledger rounds across all windows.
    pub fn rounds(&self) -> u64 {
        self.windows.iter().map(|w| w.rounds).sum()
    }

    /// Tuples moved across all windows.
    pub fn tuples(&self) -> u64 {
        self.windows.iter().map(|w| w.tuples).sum()
    }

    /// Words moved across all windows.
    pub fn words(&self) -> u64 {
        self.windows.iter().map(|w| w.words).sum()
    }

    /// Recovery rounds across all windows.
    pub fn recovery_rounds(&self) -> u64 {
        self.windows.iter().map(WindowStats::recovery_rounds).sum()
    }

    /// Worst per-window p99 load over the series.
    pub fn p99_l_worst(&self) -> u64 {
        self.windows
            .iter()
            .map(|w| w.l_percentile(99))
            .max()
            .unwrap_or(0)
    }

    /// Lowest hit rate over windows that saw a cache lookup; 1.0 when
    /// none did (an uncached run has no hit-rate signal).
    pub fn hit_rate_min(&self) -> f64 {
        self.windows
            .iter()
            .filter(|w| w.hits + w.misses > 0)
            .map(WindowStats::hit_rate)
            .fold(f64::INFINITY, f64::min)
            .min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parqp_mpc::metrics::{bucket_of, percentile_rank};
    use parqp_testkit::prelude::*;

    /// The log₂ histogram sketch windows used to keep, as the reference
    /// [`WindowStats::l_percentile`] must reproduce: 65 bucket counters,
    /// a count and a maximum.
    #[derive(Default)]
    struct LogHistogram {
        counts: Vec<u64>,
        count: u64,
        max: u64,
    }

    impl LogHistogram {
        fn record(&mut self, value: u64) {
            self.counts.resize(65, 0);
            self.counts[bucket_of(value)] += 1;
            self.count += 1;
            self.max = self.max.max(value);
        }

        /// Walk the cumulative counts to the nearest rank; report that
        /// bucket's upper bound, clamped to the maximum.
        fn percentile(&self, pct: u64) -> u64 {
            if self.count == 0 {
                return 0;
            }
            let rank = percentile_rank(self.count, pct);
            let mut seen = 0u64;
            for (b, &n) in self.counts.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    let hi = match b {
                        0 => 0,
                        64 => u64::MAX,
                        _ => (1u64 << b) - 1,
                    };
                    return hi.min(self.max);
                }
            }
            self.max
        }
    }

    /// A load from the edges a log₂ percentile must get right — 0,
    /// 2ᵏ − 1, 2ᵏ, `u64::MAX` — or any other magnitude.
    fn edge_load(rng: &mut Rng) -> u64 {
        let k = rng.gen_below(64);
        match rng.gen_below(5) {
            0 => 0,
            1 => (1 << k) - 1,
            2 => 1 << k,
            3 => u64::MAX,
            _ => rng.next_u64() >> k,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn l_percentile_is_the_sketch_percentile(seed in any::<u64>()) {
            let mut rng = Rng::seed_from_u64(seed);
            let len = [0, 1, 2, 3, 17, 100][rng.gen_below(6) as usize];
            let all_equal = rng.gen_below(4) == 0;
            let first = edge_load(&mut rng);
            let loads: Vec<u64> = (0..len)
                .map(|_| if all_equal { first } else { edge_load(&mut rng) })
                .collect();
            let records: Vec<QueryRecord> = loads
                .iter()
                .map(|&l| QueryRecord { l, ..QueryRecord::synthetic(0, 0, "miss") })
                .collect();
            let w = &SeriesReport::fold(cfg(), &records).windows[0];
            let mut sketch = LogHistogram::default();
            for &l in &loads {
                sketch.record(l);
            }
            for pct in [0, 1, 50, 99, 100, 101, u64::MAX] {
                prop_assert_eq!(w.l_percentile(pct), sketch.percentile(pct), "pct {}", pct);
            }
        }
    }

    /// A two-server record at `tick` whose skew-free line is `l / 2`.
    fn obs(tick: u64, l: u64, hit: bool) -> QueryRecord {
        let mut q = QueryRecord::synthetic(tick, l, if hit { "hit" } else { "miss" });
        q.heaviest_round_tuples = l;
        q.out_rows = 1;
        q.io.reads = 10;
        q.io.misses = 2;
        q.io.evictions = 1;
        q
    }

    fn cfg() -> ObsConfig {
        ObsConfig {
            window_ticks: 4,
            ticks: 12,
            servers: 2,
        }
    }

    #[test]
    fn windows_tile_the_horizon() {
        let r = SeriesReport::fold(cfg(), &[]);
        assert_eq!(r.windows.len(), 3);
        assert_eq!(r.windows[0].start_tick, 0);
        for w in r.windows.windows(2) {
            assert_eq!(w[0].end_tick, w[1].start_tick, "windows must abut");
        }
        assert_eq!(r.windows.last().expect("non-empty").end_tick, 12);
    }

    #[test]
    fn ragged_last_window_is_short() {
        let r = SeriesReport::fold(
            ObsConfig {
                window_ticks: 5,
                ticks: 12,
                servers: 1,
            },
            &[],
        );
        assert_eq!(r.windows.len(), 3);
        assert_eq!(r.windows[2].width_ticks(), 2);
    }

    #[test]
    fn observations_land_in_their_tick_window() {
        let records = [
            obs(0, 8, false),
            obs(3, 16, true),
            obs(4, 32, true),
            obs(11, 64, false),
            obs(99, 1, true), // past the horizon: the last window's
        ];
        let r = SeriesReport::fold(cfg(), &records);
        assert_eq!(r.windows[0].served, 2);
        assert_eq!(r.windows[1].served, 1);
        assert_eq!(r.windows[2].served, 2);
        assert_eq!(r.windows[0].hits, 1);
        assert_eq!(r.windows[0].misses, 1);
        assert_eq!(r.windows[0].max_l, 16);
        assert_eq!(r.windows[0].per_server_tuples, vec![24, 24]);
        assert_eq!(r.served(), 5);
        assert_eq!(r.tuples(), 2 * (8 + 16 + 32 + 64 + 1));
    }

    #[test]
    fn derived_rates_are_sane() {
        let r = SeriesReport::fold(cfg(), &[obs(0, 8, false), obs(1, 8, true)]);
        let w = &r.windows[0];
        assert_eq!(w.hit_rate(), 0.5);
        assert_eq!(w.io_reads, 20);
        assert!((w.io_hit_rate() - 0.8).abs() < 1e-12);
        assert_eq!(w.skew(), 1.0, "equal per-server loads are balanced");
        assert_eq!(w.bound_ratio(), 2.0, "pred = l/2 → ratio 2");
        assert_eq!(w.expected_rounds(), 3);
        assert_eq!(w.recovery_rounds(), 0);
    }

    #[test]
    fn recovery_rounds_are_the_excess_over_the_query_mix() {
        let mut q = obs(0, 8, false);
        q.rounds = 5; // build + probe + 3 recovery rounds
        let w = &SeriesReport::fold(cfg(), &[q]).windows[0];
        assert_eq!(w.recovery_rounds(), 3);
        assert!((w.recovery_overhead() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_windows_read_as_neutral() {
        let r = SeriesReport::fold(cfg(), &[]);
        let w = &r.windows[1];
        assert_eq!(w.hit_rate(), 0.0);
        assert_eq!(w.skew(), 1.0);
        assert_eq!(w.bound_ratio(), 1.0);
        assert_eq!(w.recovery_rounds(), 0);
        assert_eq!(w.l_percentile(99), 0);
        assert_eq!(r.hit_rate_min(), 1.0, "no lookups → no hit-rate signal");
    }

    #[test]
    fn zero_width_config_is_clamped() {
        let r = SeriesReport::fold(
            ObsConfig {
                window_ticks: 0,
                ticks: 0,
                servers: 1,
            },
            &[],
        );
        assert_eq!(r.windows.len(), 1);
    }
}
