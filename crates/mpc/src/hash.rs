//! A seeded family of independent hash functions.
//!
//! The HyperCube algorithm (slide 35) requires `k` *independent* hash
//! functions `h₁ … h_k`, one per join variable. This module provides a
//! deterministic family derived from a single seed via splitmix64, which
//! passes the avalanche tests required for the per-coordinate placement
//! `(h_x(a), h_y(b), h_z(c))` to behave like independent uniform choices.

/// The splitmix64 finalizer: a cheap, high-quality 64-bit mixer.
///
/// This is the finalization step of the splitmix64 generator; it is a
/// bijection on `u64` with full avalanche, which makes it a good building
/// block for hashing integer keys.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A family of `k` independent seeded hash functions over `u64` keys.
///
/// Function `i` of the family maps a key `v` to a bucket in `0..m` via
/// `splitmix64(seed_i ⊕ mix(v)) mod m`, where the per-function seeds are
/// themselves derived from the family seed by splitmix64 — so two families
/// with different seeds, and two functions within a family, are
/// statistically independent for all practical purposes.
#[derive(Debug, Clone)]
pub struct HashFamily {
    seeds: Vec<u64>,
}

impl HashFamily {
    /// Create a family of `k` functions derived from `seed`.
    pub fn new(seed: u64, k: usize) -> Self {
        let mut state = splitmix64(seed ^ 0xa076_1d64_78bd_642f);
        let mut seeds = Vec::with_capacity(k);
        for _ in 0..k {
            state = splitmix64(state);
            seeds.push(state);
        }
        Self { seeds }
    }

    /// Number of functions in the family.
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// Whether the family is empty.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// Hash `value` with function `i` into `0..buckets`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()` or `buckets == 0`.
    #[inline]
    pub fn hash(&self, i: usize, value: u64, buckets: usize) -> usize {
        assert!(buckets > 0, "hash into zero buckets");
        let h = splitmix64(self.seeds[i] ^ splitmix64(value));
        // Lemire's multiply-shift range reduction avoids the modulo bias
        // and is faster than `%` for arbitrary bucket counts.
        ((h as u128 * buckets as u128) >> 64) as usize
    }

    /// Hash `value` with function `i` to a full 64-bit digest.
    #[inline]
    pub fn digest(&self, i: usize, value: u64) -> u64 {
        splitmix64(self.seeds[i] ^ splitmix64(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = HashFamily::new(42, 3);
        let b = HashFamily::new(42, 3);
        for v in 0..100 {
            assert_eq!(a.hash(0, v, 17), b.hash(0, v, 17));
            assert_eq!(a.hash(2, v, 5), b.hash(2, v, 5));
        }
    }

    #[test]
    fn functions_differ() {
        let f = HashFamily::new(7, 2);
        let same = (0..1000)
            .filter(|&v| f.hash(0, v, 64) == f.hash(1, v, 64))
            .count();
        // Two independent functions into 64 buckets collide ~1/64 of the time.
        assert!(same < 60, "functions look identical: {same} collisions");
    }

    #[test]
    fn seeds_differ() {
        let f = HashFamily::new(1, 1);
        let g = HashFamily::new(2, 1);
        let same = (0..1000)
            .filter(|&v| f.hash(0, v, 64) == g.hash(0, v, 64))
            .count();
        assert!(
            same < 60,
            "different seeds look identical: {same} collisions"
        );
    }

    #[test]
    fn in_range() {
        let f = HashFamily::new(3, 1);
        for v in 0..10_000 {
            let h = f.hash(0, v, 7);
            assert!(h < 7);
        }
    }

    #[test]
    fn roughly_uniform() {
        let f = HashFamily::new(11, 1);
        let buckets = 10;
        let n = 100_000u64;
        let mut counts = vec![0u64; buckets];
        for v in 0..n {
            counts[f.hash(0, v, buckets)] += 1;
        }
        let expected = n / buckets as u64;
        for (b, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected as f64).abs() / expected as f64;
            assert!(dev < 0.05, "bucket {b} holds {c}, expected ~{expected}");
        }
    }

    #[test]
    fn splitmix_bijection_smoke() {
        // splitmix64 must not map two nearby values to the same digest.
        // (BTreeSet, not std HashSet: clippy's disallowed-types ban
        // seed-dependent containers.)
        let mut seen = std::collections::BTreeSet::new();
        for v in 0..10_000u64 {
            assert!(seen.insert(splitmix64(v)));
        }
    }

    #[test]
    #[should_panic(expected = "zero buckets")]
    fn zero_buckets_panics() {
        HashFamily::new(0, 1).hash(0, 1, 0);
    }
}
