//! Property tests for the data layer: the Zipf sampler realizes its
//! target skew exponent, and the FxHash partitioner spreads both random
//! and adversarially-regular (sequential) keys uniformly across `p`
//! buckets. Both properties are exactly what the skew-resilience
//! analyses assume about the workload generators, so they are checked
//! here once and relied on everywhere else. The last property holds the
//! join kernel's "build once, probe many" form to its "build per probe
//! batch" form.

use parqp_data::fasthash::FxHasher;
use parqp_data::index::IndexError;
use parqp_data::zipf::Zipf;
use parqp_data::{FastMap, KeyIndex, KeyTable, Relation};
use parqp_testkit::prelude::*;
use std::hash::Hasher;

/// Least-squares slope of `log freq(k)` against `log k` over the head
/// of the distribution: for Zipf(α) samples this estimates `-α`.
fn estimate_alpha(counts: &FastMap<u64, u64>, head: u64) -> f64 {
    let points: Vec<(f64, f64)> = (1..=head)
        .filter_map(|k| {
            let c = *counts.get(&k)?;
            (c > 0).then(|| ((k as f64).ln(), (c as f64).ln()))
        })
        .collect();
    assert!(points.len() >= 3, "not enough head mass to fit a slope");
    let n = points.len() as f64;
    let (sx, sy): (f64, f64) = points
        .iter()
        .fold((0.0, 0.0), |(a, b), &(x, y)| (a + x, b + y));
    let (sxx, sxy): (f64, f64) = points
        .iter()
        .fold((0.0, 0.0), |(a, b), &(x, y)| (a + x * x, b + x * y));
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    -slope
}

fn fx_bucket(v: u64, p: usize) -> usize {
    let mut h = FxHasher::default();
    h.write_u64(v);
    (h.finish() % p as u64) as usize
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The sampler's empirical head frequencies fall on a `k^{-α}` line
    /// with the α it was asked for.
    #[test]
    fn zipf_hits_target_skew_exponent(
        alpha_tenths in 6u64..16,
        seed in 0u64..1_000_000,
    ) {
        let alpha = alpha_tenths as f64 / 10.0;
        let n_samples = 120_000;
        let z = Zipf::new(5_000, alpha);
        let mut rng = Rng::seed_from_u64(seed);
        let mut counts: FastMap<u64, u64> = FastMap::default();
        for _ in 0..n_samples {
            *counts.entry(z.sample(&mut rng)).or_insert(0) += 1;
        }
        let estimate = estimate_alpha(&counts, 12);
        prop_assert!(
            (estimate - alpha).abs() < 0.12,
            "α = {alpha}, estimated {estimate:.3} from {n_samples} samples"
        );
    }

    /// Empirical frequency of each head value matches the analytic pmf.
    #[test]
    fn zipf_head_matches_pmf(
        alpha_tenths in 0u64..16,
        seed in 0u64..1_000_000,
    ) {
        let alpha = alpha_tenths as f64 / 10.0;
        let n_samples = 60_000u64;
        let z = Zipf::new(1_000, alpha);
        let mut rng = Rng::seed_from_u64(seed);
        let mut counts: FastMap<u64, u64> = FastMap::default();
        for _ in 0..n_samples {
            *counts.entry(z.sample(&mut rng)).or_insert(0) += 1;
        }
        for k in 1..=5u64 {
            let expect = z.pmf(k) * n_samples as f64;
            let got = *counts.get(&k).unwrap_or(&0) as f64;
            // 5 standard deviations of the binomial count, floored so
            // tiny expectations (uniform case) keep a usable band.
            let sd = expect.sqrt().max(4.0);
            prop_assert!(
                (got - expect).abs() <= 5.0 * sd,
                "α = {alpha}, value {k}: expected ≈{expect:.0}, got {got}"
            );
        }
    }

    /// Random keys spread across `p` FxHash buckets with every bucket
    /// near the `n/p` ideal.
    #[test]
    fn fasthash_partitions_random_keys_uniformly(
        p in 2usize..=64,
        seed in 0u64..1_000_000,
    ) {
        let n = 16_384usize;
        let mut rng = Rng::seed_from_u64(seed);
        let mut buckets = vec![0u64; p];
        for _ in 0..n {
            buckets[fx_bucket(rng.next_u64(), p)] += 1;
        }
        let ideal = n as f64 / p as f64;
        let max = *buckets.iter().max().expect("p >= 2") as f64;
        let min = *buckets.iter().min().expect("p >= 2") as f64;
        prop_assert!(
            max <= 1.5 * ideal && min >= 0.5 * ideal,
            "p = {p}: bucket range [{min}, {max}] vs ideal {ideal:.1}"
        );
    }

    /// Sequential keys are the classic failure mode of multiplicative
    /// hashing; FxHash's rotate-and-multiply must still spread them.
    #[test]
    fn fasthash_partitions_sequential_keys_uniformly(
        p in 2usize..=64,
        start in 0u64..1_000_000_000,
    ) {
        let n = 16_384u64;
        let mut buckets = vec![0u64; p];
        for v in start..start + n {
            buckets[fx_bucket(v, p)] += 1;
        }
        let ideal = n as f64 / p as f64;
        let max = *buckets.iter().max().expect("p >= 2") as f64;
        let min = *buckets.iter().min().expect("p >= 2") as f64;
        prop_assert!(
            max <= 1.5 * ideal && min >= 0.5 * ideal,
            "p = {p}, start {start}: bucket range [{min}, {max}] vs ideal {ideal:.1}"
        );
    }

    /// Generators are pure functions of the seed: byte-identical
    /// relations on replay, different relations on a different seed.
    #[test]
    fn generators_deterministic_in_seed(
        n in 1usize..500,
        domain in 1u64..1_000,
        seed in 0u64..1_000_000,
    ) {
        use parqp_data::generate;
        let a = generate::uniform(2, n, domain, seed);
        let b = generate::uniform(2, n, domain, seed);
        prop_assert_eq!(a.to_rows(), b.to_rows());
        let z1 = generate::zipf_pairs(n, domain as usize, 1.1, 0, seed);
        let z2 = generate::zipf_pairs(n, domain as usize, 1.1, 0, seed);
        prop_assert_eq!(z1.to_rows(), z2.to_rows());
    }
}

/// Squeeze a raw cell into the value pool `shape` names, so random rows
/// collide the ways that matter to a hash index: many duplicates, one
/// key only, values that differ only in their top bits, anything.
fn pooled(shape: u8, cell: u64) -> u64 {
    match shape {
        0 => cell % 4,
        1 => 7,
        2 => (cell % 4) << 62,
        _ => cell,
    }
}

fn pooled_relation(arity: usize, shape: u8, cells: &[u64]) -> Relation {
    Relation::from_rows(
        arity,
        cells
            .chunks_exact(arity)
            .map(|row| row.iter().map(|&c| pooled(shape, c)).collect::<Vec<_>>()),
    )
}

proptest! {
    /// One `KeyTable`, viewed again for every probe batch, yields the
    /// row ids a `KeyIndex` built afresh for that batch yields, in the
    /// same order; and it refuses to view rows of another length.
    #[test]
    fn one_key_table_viewed_per_batch_is_a_fresh_index_per_batch(
        arity in 1usize..4,
        shape in 0u8..4,
        cells in collection::vec(any::<u64>(), 0..150),
        key_width in 1usize..3,
        first_col in 0usize..3,
        batches in collection::vec(collection::vec(any::<u64>(), 0..40), 1..5),
    ) {
        let rel = pooled_relation(arity, shape, &cells);
        let cols: Vec<usize> = (0..key_width).map(|k| (first_col + k) % arity).collect();
        let table = KeyTable::build(&rel, &cols);
        prop_assert_eq!(table.len(), rel.len());
        for batch in &batches {
            let probes = pooled_relation(arity, shape, batch);
            let reused = table.over(&rel, &cols).expect("same rows");
            let rebuilt = KeyIndex::build(&rel, &cols);
            for probe in probes.iter() {
                prop_assert_eq!(
                    reused.probe(probe, &cols).collect::<Vec<_>>(),
                    rebuilt.probe(probe, &cols).collect::<Vec<_>>()
                );
                prop_assert_eq!(reused.contains(probe, &cols), rebuilt.contains(probe, &cols));
            }
        }
        let mut longer = rel.clone();
        longer.push(&vec![0; arity]);
        prop_assert_eq!(
            table.over(&longer, &cols).err(),
            Some(IndexError::RowCountMismatch { built: rel.len(), given: rel.len() + 1 })
        );
    }
}
