//! A seeded Zipf(α) sampler over `1..=n`.
//!
//! Skewed join keys are the central difficulty the tutorial addresses
//! (slides 24–31, 46–51). We generate them with the classical Zipf
//! distribution: value `k` has probability `k^{-α} / H_{n,α}`. The sampler
//! precomputes the CDF once, plus a guide table (Chen and Asau): the
//! unit interval cut into `m = n.next_power_of_two()` equal buckets, and
//! for each cut `j/m` the first CDF index at or above it. A draw `u`
//! looks up its bucket `⌊u·m⌋` and binary-searches only that bucket's
//! index range, which holds O(1) entries on average (`n ≤ m`), instead
//! of all `n`. Because `m` is a power of two and every draw is a
//! multiple of 2⁻⁵³, `u·m` and `j/m` are exact, so the answer is the
//! first index whose CDF is `≥ u` — the full binary search's, draw for
//! draw — and sampling stays fully deterministic given the RNG.

use parqp_testkit::Rng;

/// Zipf(α) distribution over the integers `1..=n`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[j]` is the first index whose CDF is `≥ j/m`, for
    /// `j ∈ 0..=m`: a draw in `[j/m, (j+1)/m)` lands in
    /// `guide[j]..=guide[j+1]`.
    guide: Vec<usize>,
}

impl Zipf {
    /// Create a Zipf distribution with support `1..=n` and exponent `alpha`.
    ///
    /// `alpha == 0` degenerates to the uniform distribution on `1..=n`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `alpha` is negative or non-finite.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf support must be non-empty");
        assert!(
            alpha >= 0.0 && alpha.is_finite(),
            "Zipf exponent must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-alpha);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating-point shortfall at the end.
        *cdf.last_mut().expect("non-empty cdf") = 1.0;
        // One merged pass over the cuts and the CDF: both ascend, so
        // each cut resumes where the previous one stopped.
        let m = n.next_power_of_two();
        let mut guide = Vec::with_capacity(m + 1);
        let mut i = 0;
        for j in 0..=m {
            let cut = j as f64 / m as f64;
            i += cdf.iter().skip(i).take_while(|&&c| c < cut).count();
            guide.push(i);
        }
        Self { cdf, guide }
    }

    /// Support size `n`.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Draw one sample in `1..=n`.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        (self.index_of(rng.gen_f64()) + 1) as u64
    }

    /// The first index whose CDF is `≥ u`, for `u ∈ [0, 1)`: the guide
    /// bucket of `u` bounds it to `lo..=hi`, and the search runs there.
    fn index_of(&self, u: f64) -> usize {
        let m = self.guide.len() - 1;
        let j = (u * m as f64) as usize;
        let (lo, hi) = match self.guide.get(j..j + 2) {
            Some(&[lo, hi]) => (lo, hi),
            // Only a `u` outside [0, 1) has no bucket: search everything.
            _ => (0, self.cdf.len() - 1),
        };
        lo + self
            .cdf
            .get(lo..hi)
            .map_or(0, |bucket| bucket.partition_point(|&c| c < u))
    }

    /// The probability of value `k` (1-based).
    pub fn pmf(&self, k: u64) -> f64 {
        let i = (k - 1) as usize;
        assert!(i < self.cdf.len(), "value out of support");
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parqp_testkit::prelude::*;

    /// The sampler before the guide table: a binary search over the
    /// whole CDF for the first entry `≥ u`.
    fn reference_index(z: &Zipf, u: f64) -> usize {
        z.cdf.partition_point(|&c| c < u).min(z.cdf.len() - 1)
    }

    /// Draws worth checking for `z`: every bucket boundary `j/m` and its
    /// neighbours one draw (2⁻⁵³) either side, and every CDF entry
    /// rounded down and up to the draw grid.
    fn edge_draws(z: &Zipf) -> Vec<f64> {
        let ulp = 1.0 / (1u64 << 53) as f64;
        let m = z.guide.len() - 1;
        let cuts = (0..m).map(|j| j as f64 / m as f64);
        let grid = |x: f64| (x / ulp).floor() * ulp;
        let cdf = z.cdf.iter().map(|&c| grid(c));
        cuts.chain(cdf)
            .flat_map(|u| [u - ulp, u, u + ulp])
            .filter(|u| (0.0..1.0).contains(u))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn guide_table_draws_what_the_binary_search_draws(
            n_pick in 0usize..38,
            alpha_pick in 0usize..6,
            seed in any::<u64>(),
        ) {
            // 1, 2, and 2ᵏ−1, 2ᵏ, 2ᵏ+1 for k = 2..=12: 38 supports with
            // the serve templates' domains and the proptests' largest.
            let sizes: Vec<usize> = [1, 2]
                .into_iter()
                .chain((2..=12).flat_map(|k| [(1 << k) - 1, 1 << k, (1 << k) + 1]))
                .chain([800, 1500, 5000])
                .collect();
            let n = sizes.get(n_pick).copied().unwrap_or(1);
            let alpha = [0.0, 0.5, 1.1, 1.2, 3.0, 1000.0]
                .get(alpha_pick)
                .copied()
                .unwrap_or(1.0);
            let z = Zipf::new(n, alpha);
            for u in edge_draws(&z) {
                prop_assert_eq!(z.index_of(u), reference_index(&z, u), "n {}, α {}, u {}", n, alpha, u);
            }
            let mut rng = Rng::seed_from_u64(seed);
            let mut twin = rng.clone();
            for _ in 0..500 {
                let want = reference_index(&z, twin.gen_f64()) as u64 + 1;
                prop_assert_eq!(z.sample(&mut rng), want, "n {}, α {}", n, alpha);
            }
        }
    }

    #[test]
    fn guide_entries_are_the_first_index_at_each_cut() {
        for (n, alpha) in [(1, 1.0), (5, 0.0), (800, 1.2), (1000, 1000.0)] {
            let z = Zipf::new(n, alpha);
            let m = n.next_power_of_two();
            assert_eq!(z.guide.len(), m + 1);
            for (j, &g) in z.guide.iter().enumerate() {
                let cut = j as f64 / m as f64;
                assert_eq!(g, z.cdf.partition_point(|&c| c < cut), "n {n}, cut {j}/{m}");
            }
        }
        // At α = 1000 every value past the first has a mass that
        // vanishes beside 1 in the sum: the CDF is all 1.0, and every
        // draw is 1.
        let z = Zipf::new(1000, 1000.0);
        assert!(z.cdf.iter().all(|&c| c == 1.0));
        let mut rng = Rng::seed_from_u64(9);
        assert!((0..100).all(|_| z.sample(&mut rng) == 1));
    }

    #[test]
    fn uniform_when_alpha_zero() {
        let z = Zipf::new(4, 0.0);
        for k in 1..=4 {
            assert!((z.pmf(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(100, 1.2);
        let total: f64 = (1..=100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn heavier_head_with_larger_alpha() {
        let mild = Zipf::new(1000, 0.5);
        let steep = Zipf::new(1000, 1.5);
        assert!(steep.pmf(1) > mild.pmf(1));
        assert!(steep.pmf(1000) < mild.pmf(1000));
    }

    #[test]
    fn samples_in_support_and_skewed() {
        let z = Zipf::new(50, 1.0);
        let mut rng = Rng::seed_from_u64(7);
        let mut counts = vec![0u64; 51];
        for _ in 0..20_000 {
            let s = z.sample(&mut rng);
            assert!((1..=50).contains(&s));
            counts[s as usize] += 1;
        }
        // Value 1 should be drawn far more often than value 50.
        assert!(counts[1] > 10 * counts[50].max(1));
    }

    #[test]
    fn deterministic_given_seed() {
        let z = Zipf::new(10, 1.0);
        let draw = |seed| {
            let mut rng = Rng::seed_from_u64(seed);
            (0..20).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_support_rejected() {
        Zipf::new(0, 1.0);
    }
}
