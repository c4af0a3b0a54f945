//! Order statistics over timing samples.

/// A tail percentile is reported only when this many samples lie
/// beyond it (the choosing-metrics rule), which needs twice as many
/// samples in all.
const TAIL_SAMPLES: usize = 10;

/// Summary of one series of samples (any unit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p50: f64,
    /// `(value, percentile)` of the highest percentile that still has
    /// [`TAIL_SAMPLES`] samples beyond it; `None` under 20 samples.
    pub hi: Option<(f64, f64)>,
}

/// Summarise `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let min = *sorted.first()?;
    let mid = sorted.get(n / 2).copied()?;
    // Even counts average the two middle samples, as `statistics.median`
    // does, so the figure compares with the driver's own.
    let p50 = if n.is_multiple_of(2) {
        (sorted.get(n / 2 - 1).copied()? + mid) / 2.0
    } else {
        mid
    };
    let hi = (n >= 2 * TAIL_SAMPLES)
        .then(|| sorted.get(n - TAIL_SAMPLES - 1).copied())
        .flatten()
        .map(|v| (v, 100.0 * (n - TAIL_SAMPLES) as f64 / n as f64));
    Some(Summary { n, min, p50, hi })
}

/// Smallest sample, or 0 for an empty series (a metric that was not
/// measured on this workload reads 0).
pub fn min_or_zero(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// `|a − b| / max(|a|, |b|)`, 0 when both are 0: the relative
/// difference the A/A check holds against a metric's bound.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_vectors() {
        assert_eq!(summarize(&[]), None);
        let odd = summarize(&[5.0, 1.0, 3.0]).expect("non-empty");
        assert_eq!((odd.n, odd.min, odd.p50, odd.hi), (3, 1.0, 3.0, None));
        let even = summarize(&[4.0, 1.0, 3.0, 2.0]).expect("non-empty");
        assert_eq!(even.p50, 2.5, "even counts average the middle pair");
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        let under: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(summarize(&under).expect("non-empty").hi, None);

        // 1..=20: ten samples (11..=20) lie beyond the value 10 = p50.
        let twenty: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(
            summarize(&twenty).expect("non-empty").hi,
            Some((10.0, 50.0))
        );

        // 1..=100: ten samples (91..=100) lie beyond the value 90 = p90.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            summarize(&hundred).expect("non-empty").hi,
            Some((90.0, 90.0))
        );
    }

    #[test]
    fn min_and_relative_difference() {
        assert_eq!(min_or_zero(&[]), 0.0);
        assert_eq!(min_or_zero(&[3.0, 2.0, 7.0]), 2.0);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert_eq!(rel_diff(100.0, 90.0), 0.1);
        assert_eq!(rel_diff(90.0, 100.0), 0.1);
    }
}
