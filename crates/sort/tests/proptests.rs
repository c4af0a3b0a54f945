//! Property tests for the sorting algorithms: output is a sorted
//! permutation of the input for arbitrary inputs, cluster sizes and
//! fan-outs, with range-disjoint partitions; and the local radix kernel
//! agrees with the standard sort on the inputs built to break it.

use parqp_mpc::Cluster;
use parqp_sort::{multiround_sort, psrs, psrs_by, sort_words};
use parqp_testkit::prelude::*;
use parqp_testkit::Rng;

/// The length at which `sort_words` switches from `sort_unstable` to
/// radix passes (`radix::SMALL`, private to the crate).
const CUTOFF: usize = 1024;

fn assert_sorted_partitions(items: &[u64], parts: &[Vec<u64>]) {
    let flat: Vec<u64> = parts.concat();
    let mut expect = items.to_vec();
    expect.sort_unstable();
    assert_eq!(flat, expect, "must be a sorted permutation");
    for w in parts.windows(2) {
        if let (Some(&hi), Some(&lo)) = (w[0].last(), w[1].first()) {
            assert!(hi <= lo, "partitions must be range-ordered");
        }
    }
}

/// Keys and a server count: the small shapes, where every part is
/// below [`CUTOFF`] and sorts by comparison, and shapes whose parts
/// (`n/p` keys) cross it — over all of `u64`, and with every key ≥ 2⁶³.
fn keys_and_servers() -> impl Strategy<Value = (Vec<u64>, usize)> {
    prop_oneof![
        (collection::vec(any::<u64>(), 0..800), 1usize..20),
        (collection::vec(any::<u64>(), 0..12_000), 1usize..9),
        (
            collection::vec((1u64 << 63)..=u64::MAX, 0..12_000),
            1usize..9
        ),
    ]
}

/// `len` keys from each generator that defeats one shortcut of the
/// kernel, named for the failure message.
fn kernel_breakers(len: usize, rng: &mut Rng) -> Vec<(String, Vec<u64>)> {
    let base = rng.next_u64();
    let mut random = |below_bits: u32| -> Vec<u64> {
        (0..len)
            .map(|_| rng.next_u64() >> (64 - below_bits))
            .collect()
    };
    let mut sorted = random(64);
    sorted.sort_unstable();
    let reversed = sorted.iter().rev().copied().collect();
    // A signed or shifted-out top digit shows here.
    let top_bit = random(1).into_iter().map(|bit| (base >> 1) | (bit << 63));
    // Two buckets in every one of the eight digits.
    let extremes = random(1).into_iter().map(|bit| bit * u64::MAX);
    let mut out = vec![
        // Every pass skipped: the early return.
        ("all equal".to_string(), vec![base; len]),
        ("sorted".to_string(), sorted),
        ("reversed".to_string(), reversed),
        ("top bit only".to_string(), top_bit.collect()),
        ("0 and MAX".to_string(), extremes.collect()),
    ];
    for byte in 0..8 {
        // Exactly one live digit: one pass runs, and which one matters.
        let shift = 8 * byte;
        let keys = random(8)
            .into_iter()
            .map(|digit| (base & !(0xff << shift)) | (digit << shift))
            .collect();
        out.push((format!("only byte {byte} differs"), keys));
        // 1 to 8 live digits: odd counts end in the scratch buffer.
        out.push((format!("{} live bytes", byte + 1), random(shift + 8)));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sort_words_is_the_standard_sort(seed in any::<u64>(), long in 2_000usize..5_000) {
        let mut rng = Rng::seed_from_u64(seed);
        for len in [0, 1, CUTOFF - 1, CUTOFF, CUTOFF + 1, long] {
            for (name, keys) in kernel_breakers(len, &mut rng) {
                let mut expect = keys.clone();
                expect.sort();
                let mut got = keys;
                sort_words(&mut got);
                prop_assert!(got == expect, "{name}, {len} keys, seed {seed}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn psrs_sorts_anything(shape in keys_and_servers()) {
        let (items, p) = shape;
        let mut cluster = Cluster::new(p);
        let local = cluster.scatter(items.clone());
        let parts = psrs(&mut cluster, local);
        assert_sorted_partitions(&items, &parts);
        prop_assert!(cluster.report().num_rounds() <= 2);
    }

    #[test]
    fn psrs_handles_duplicate_heavy_input(
        distinct in 1u64..5,
        n in 1usize..600,
        p in 1usize..12,
    ) {
        let items: Vec<u64> = (0..n as u64).map(|i| i % distinct).collect();
        let mut cluster = Cluster::new(p);
        let local = cluster.scatter(items.clone());
        let parts = psrs(&mut cluster, local);
        assert_sorted_partitions(&items, &parts);
    }

    #[test]
    fn multiround_sorts_anything(shape in keys_and_servers(), fanout in 2usize..8) {
        let (items, p) = shape;
        let mut cluster = Cluster::new(p);
        let local = cluster.scatter(items.clone());
        let parts = multiround_sort(&mut cluster, local, fanout);
        let flat: Vec<u64> = parts.concat();
        let mut expect = items.clone();
        expect.sort_unstable();
        prop_assert_eq!(flat, expect);
        // Round formula: 3 per level, ⌈log_f p⌉ levels.
        let levels = if p <= 1 { 0 } else { (p as f64).log(fanout as f64).ceil() as usize };
        prop_assert!(cluster.report().num_rounds() <= 3 * levels.max(1));
    }

    #[test]
    fn psrs_by_keeps_payloads(
        pairs in collection::vec((any::<u32>(), any::<u32>()), 0..500),
        p in 1usize..10,
    ) {
        let items: Vec<(u64, u64)> =
            pairs.iter().map(|&(k, v)| (u64::from(k), u64::from(v))).collect();
        let mut cluster = Cluster::new(p);
        let local = cluster.scatter(items.clone());
        let parts = psrs_by(&mut cluster, local, |t| t.0);
        let flat: Vec<(u64, u64)> = parts.concat();
        // Keys sorted.
        prop_assert!(flat.windows(2).all(|w| w[0].0 <= w[1].0));
        // Multiset of pairs preserved.
        let mut a = flat;
        let mut b = items;
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }
}
