//! A deterministic log₂-bucketed histogram sketch.
//!
//! Buckets are `MetricsRegistry`'s recv histogram's — one [`bucket_of`],
//! defined beside the registry: bucket 0 holds the value 0, bucket
//! `k ≥ 1` holds `[2^(k−1), 2^k − 1]`. Because log₂ bucketing is
//! monotone, the buckets partition any sorted sample, and
//! walking the cumulative counts to a nearest-rank finds *exactly* the
//! bucket that contains the rank-th sample. The sketch therefore
//! reports a percentile in the same bucket as the exact nearest-rank
//! percentile — the "within one log₂ bucket" guarantee
//! `tests/obs_invariants.rs` checks against a sorted reference.

pub use parqp_mpc::metrics::bucket_of;
use parqp_mpc::metrics::percentile_rank;

/// Number of buckets: the zero bucket plus one per `u64` magnitude.
const BUCKETS: usize = 65;

/// A fixed-size log₂ histogram: 65 counters however many samples it
/// absorbs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The largest value bucket `b` can hold.
fn bucket_hi(b: usize) -> u64 {
    match b {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << b) - 1,
    }
}

impl LogHistogram {
    /// An empty sketch.
    pub fn new() -> Self {
        Self {
            counts: [0; BUCKETS],
            count: 0,
            max: 0,
        }
    }

    /// Absorb one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_of(value)] += 1;
        self.count += 1;
        self.max = self.max.max(value);
    }

    /// Samples absorbed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample absorbed (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Component-wise sum with another sketch.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// Nearest-rank percentile, resolved to the containing bucket.
    ///
    /// Returns a representative value from the bucket that holds the
    /// exact rank-th sample: the bucket's upper bound, clamped to the
    /// sketch maximum (the clamp keeps `percentile(100) == max()` and
    /// can never leave the bucket — the maximum is itself a sample, so
    /// it sits in a bucket at least as high). 0 when empty.
    pub fn percentile(&self, pct: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = percentile_rank(self.count, pct);
        let mut seen = 0u64;
        for (b, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_hi(b).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact nearest-rank reference (ascending-sorted input).
    fn exact(sorted: &[u64], pct: u64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = (u128::from(pct) * sorted.len() as u128)
            .div_ceil(100)
            .max(1) as usize;
        sorted[(rank - 1).min(sorted.len() - 1)]
    }

    #[test]
    fn bucket_hi_is_the_largest_value_of_its_bucket() {
        for b in 0..BUCKETS {
            assert_eq!(bucket_of(bucket_hi(b)), b, "hi of bucket {b}");
            if b < 64 {
                assert_eq!(bucket_of(bucket_hi(b) + 1), b + 1, "hi + 1 leaves {b}");
            }
        }
    }

    #[test]
    fn empty_sketch_is_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50), 0);
        assert_eq!(h.percentile(99), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn percentile_lands_in_the_exact_bucket() {
        let mut state = 0xD1CEu64;
        let mut samples: Vec<u64> = (0..2000)
            .map(|_| {
                let r = parqp_testkit::splitmix64(&mut state);
                r % (1 << (r % 40))
            })
            .collect();
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for pct in [0, 1, 10, 50, 90, 95, 99, 100] {
            let e = exact(&samples, pct);
            let s = h.percentile(pct);
            assert_eq!(
                bucket_of(e),
                bucket_of(s),
                "pct {pct}: exact {e} vs sketch {s} must share a bucket"
            );
        }
        assert_eq!(h.percentile(100), *samples.last().expect("non-empty"));
    }

    #[test]
    fn merge_equals_recording_the_union() {
        let (mut a, mut b, mut u) = (
            LogHistogram::new(),
            LogHistogram::new(),
            LogHistogram::new(),
        );
        for v in [0u64, 1, 5, 9, 1000] {
            a.record(v);
            u.record(v);
        }
        for v in [3u64, 3, 70_000] {
            b.record(v);
            u.record(v);
        }
        a.merge(&b);
        assert_eq!(a, u);
    }

    #[test]
    fn state_is_constant_size() {
        let mut h = LogHistogram::new();
        for v in 0..100_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100_000);
        assert_eq!(
            std::mem::size_of_val(&h),
            std::mem::size_of::<LogHistogram>()
        );
        assert_eq!(h.counts.len(), BUCKETS);
    }
}
