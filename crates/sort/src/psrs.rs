//! Parallel Sorting by Regular Sampling (PSRS), slides 100–102.
//!
//! 1. every server sorts its local data — word keys with the radix
//!    kernel ([`sort_words`]), items under an arbitrary `Ord` key by
//!    comparison — and extracts `p−1` evenly spaced local splitters (the
//!    *regular sample*);
//! 2. every server broadcasts its sample (one communication round);
//! 3. all servers deterministically sort the union of samples and keep
//!    every `p`-th element as the global splitters;
//! 4. every item is routed to the server owning its splitter interval
//!    (second communication round); each server sorts what it received
//!    with the same local sort as step 1. Its inbox is `p` sorted runs,
//!    and it is sorted, not merged: the radix kernel is faster than a
//!    merge tree over the runs (DESIGN.md §9, "Local sort kernel").
//!
//! The result is globally sorted: every key on server `i` is ≤ every key
//! on server `i+1`. The regular-sampling guarantee bounds each server's
//! load by `Θ(N/p)` for `p ≪ N^{1/3}` (slide 102) — and degrades under
//! duplicate-heavy inputs, which is exactly the skew effect the sort-based
//! join must handle (slide 31).

use crate::radix::sort_words;
use parqp_mpc::{metrics, trace, Cluster, Weight};

/// Sort `u64` keys across the cluster. Returns per-server partitions,
/// globally sorted. See [`psrs_by`] for the generic version.
///
/// ```
/// use parqp_mpc::Cluster;
///
/// let mut cluster = Cluster::new(4);
/// let local = cluster.scatter((0..100u64).rev().collect());
/// let parts = parqp_sort::psrs(&mut cluster, local);
/// assert_eq!(parts.concat(), (0..100u64).collect::<Vec<_>>());
/// assert_eq!(cluster.report().num_rounds(), 2);
/// ```
pub fn psrs(cluster: &mut Cluster, local: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
    psrs_with(cluster, local, |&k| k, sort_words)
}

/// Sort arbitrary items by an `Ord` key across the cluster.
///
/// `local` holds each server's input (index = server rank). The output is
/// per-server partitions such that all keys on server `i` are ≤ all keys
/// on server `i+1`, and each partition is sorted by key. Ties stay on one
/// server only if the splitters separate them — duplicate-heavy inputs can
/// and do cross partition boundaries (handled by callers that care, e.g.
/// the sort-merge join).
///
/// Costs 2 communication rounds on `cluster`.
///
/// # Panics
/// Panics if `local.len() != cluster.p()`.
pub fn psrs_by<T, K>(
    cluster: &mut Cluster,
    local: Vec<Vec<T>>,
    key: impl Fn(&T) -> K + Sync,
) -> Vec<Vec<T>>
where
    T: Weight + Send,
    K: Ord + Copy + Weight,
{
    psrs_with(cluster, local, &key, |part| part.sort_by_key(&key))
}

/// The one PSRS body: the only function here that opens an exchange.
/// `local_sort` sorts a server's items by `key`, in both local phases,
/// and is all that differs between [`psrs`] and [`psrs_by`].
fn psrs_with<T, K>(
    cluster: &mut Cluster,
    local: Vec<Vec<T>>,
    key: impl Fn(&T) -> K + Sync,
    local_sort: impl Fn(&mut Vec<T>) + Sync,
) -> Vec<Vec<T>>
where
    T: Weight + Send,
    K: Ord + Copy + Weight,
{
    let p = cluster.p();
    assert_eq!(local.len(), p, "one input partition per server required");
    if metrics::is_enabled() {
        // Slide 102: ideal load Θ(N/p) for the routing round (regular
        // sampling keeps the overshoot under 2×), while the sample
        // broadcast costs exactly p(p−1) keys per server and dominates
        // once p ≳ N^{1/3}.
        let n: usize = local.iter().map(Vec::len).sum();
        metrics::announce(&metrics::PaperBound::tuples(
            "psrs",
            (n as f64 / p as f64).max((p * (p - 1)) as f64),
            2,
        ));
    }

    // Phase 1: local sort + regular sample.
    let local: Vec<Vec<T>> = cluster.map(local, |_, mut part| {
        local_sort(&mut part);
        part
    });
    // Round 1: broadcast regular samples (p−1 keys per non-empty
    // server). Every inbox receives every sample, so each is sized once
    // and a sample reaches a destination as one run.
    let sample_span = trace::span("psrs/sample-broadcast");
    let local_samples: Vec<Vec<K>> = local
        .iter()
        .map(|part| regular_sample(part, p, &key))
        .collect();
    let sampled: usize = local_samples.iter().map(Vec::len).sum();
    let mut ex = cluster.exchange::<K>();
    for dest in 0..p {
        ex.reserve(dest, sampled);
    }
    for (sid, sample) in local_samples.into_iter().enumerate() {
        ex.set_sender(sid);
        for dest in 0..p {
            ex.send_all(dest, sample.iter().copied());
        }
    }
    let mut samples = ex.finish().into_iter();
    drop(sample_span);

    // Phase 2: identical splitter computation everywhere. All inboxes see
    // the same multiset; we compute once and assert agreement in debug.
    let mut all: Vec<K> = samples.next().unwrap_or_default();
    all.sort_unstable();
    debug_assert!(samples.all(|mut s| {
        s.sort_unstable();
        s == all
    }));
    let splitters = choose_splitters(&all, p);
    // The p sample inboxes (p(p−1) keys each) are dead from here on:
    // free them before the routing round sizes its own.
    drop((samples, all));

    // Round 2: route every item to its interval's server; local sort.
    // Each part is sorted, so a destination's items are one contiguous
    // run of it: the runs are cut at the splitters (one binary search
    // per splitter, not per item), inboxes are sized from the cut
    // counts before anything moves, and each run is sent whole.
    let _span = trace::span("psrs/route");
    let cuts: Vec<Vec<usize>> = local
        .iter()
        .map(|part| run_ends(part, &splitters, &key))
        .collect();
    let mut ex = cluster.exchange::<T>();
    let mut inbox_len = vec![0usize; p];
    for ends in &cuts {
        let mut start = 0;
        for (len, &end) in inbox_len.iter_mut().zip(ends) {
            *len += end - start;
            start = end;
        }
    }
    for (dest, len) in inbox_len.into_iter().enumerate() {
        ex.reserve(dest, len);
    }
    for (sid, (part, ends)) in local.into_iter().zip(cuts).enumerate() {
        ex.set_sender(sid);
        // The routing scan streams the run through the server's buffer
        // pool (one logical read per item) when a paged store is
        // installed.
        let mut io = parqp_data::paged::IoCursor::new(sid);
        for item in &part {
            io.read(item.words() as usize);
        }
        let mut items = part.into_iter();
        let mut start = 0;
        for (dest, end) in ends.into_iter().enumerate() {
            ex.send_all(dest, items.by_ref().take(end - start));
            start = end;
        }
    }
    let partitions = ex.finish();
    cluster.map(partitions, |_, mut part| {
        local_sort(&mut part);
        part
    })
}

/// Where each destination's run ends in a part sorted by key: entry `d`
/// is one past the last item with `key ≤ splitters[d]`, and the last
/// entry is the part's length. An item therefore lands on the server
/// `splitters.partition_point(|s| s < key)` names — equal keys go to
/// the first interval that admits them.
fn run_ends<T, K: Ord + Copy>(sorted: &[T], splitters: &[K], key: &impl Fn(&T) -> K) -> Vec<usize> {
    let mut ends = Vec::with_capacity(splitters.len() + 1);
    let mut start = 0;
    for &s in splitters {
        start += sorted[start..].partition_point(|t| key(t) <= s);
        ends.push(start);
    }
    ends.push(sorted.len());
    ends
}

/// `p−1` evenly spaced keys from a locally sorted partition, or none if
/// it is empty. Always exactly `p−1`: a partition shorter than that
/// repeats keys, so every non-empty server's share of the sample round
/// is the `p−1` keys the announced `p(p−1)` load counts.
fn regular_sample<T, K: Copy>(sorted: &[T], p: usize, key: &impl Fn(&T) -> K) -> Vec<K> {
    let n = sorted.len();
    if n == 0 || p <= 1 {
        return Vec::new();
    }
    (1..p)
        .map(|i| key(&sorted[(i * n / p).min(n - 1)]))
        .collect()
}

/// Every `p`-th element of the sorted union of samples: the `p−1` global
/// splitters (slide 101).
fn choose_splitters<K: Copy>(sorted_samples: &[K], p: usize) -> Vec<K> {
    let n = sorted_samples.len();
    if n == 0 || p <= 1 {
        return Vec::new();
    }
    (1..p)
        .map(|i| sorted_samples[(i * n / p).min(n - 1)])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parqp_testkit::Rng;

    fn run_psrs(p: usize, items: Vec<u64>) -> (Vec<Vec<u64>>, parqp_mpc::LoadReport) {
        let mut cluster = Cluster::new(p);
        let local = cluster.scatter(items);
        let parts = psrs(&mut cluster, local);
        (parts, cluster.report())
    }

    #[test]
    fn globally_sorted_and_permutation() {
        let mut rng = Rng::seed_from_u64(1);
        let items: Vec<u64> = (0..10_000)
            .map(|_| rng.gen_range(0..1_000_000u64))
            .collect();
        let (parts, report) = run_psrs(8, items.clone());
        let flat: Vec<u64> = parts.concat();
        let mut expect = items;
        expect.sort_unstable();
        assert_eq!(flat, expect);
        assert_eq!(report.num_rounds(), 2);
    }

    #[test]
    fn partitions_are_range_disjoint() {
        let items: Vec<u64> = (0..5000).rev().collect();
        let (parts, _) = run_psrs(5, items);
        for w in parts.windows(2) {
            if let (Some(&hi), Some(&lo)) = (w[0].last(), w[1].first()) {
                assert!(hi <= lo);
            }
        }
    }

    #[test]
    fn load_near_n_over_p() {
        // Slide 102: L = Θ(N/p) for p ≪ N^{1/3}.
        let n = 64_000u64;
        let p = 16;
        let mut rng = Rng::seed_from_u64(3);
        let items: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let (_, report) = run_psrs(p, items);
        let load = report.max_load_tuples() as f64;
        let ideal = n as f64 / p as f64;
        // The routing round dominates; regular sampling keeps it < 2·N/p
        // (the classical PSRS bound), plus the small sample broadcast.
        assert!(
            load < 2.0 * ideal + (p * p) as f64,
            "L = {load}, N/p = {ideal}"
        );
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        let (parts, _) = run_psrs(4, vec![]);
        assert!(parts.iter().all(Vec::is_empty));
        let (parts, _) = run_psrs(4, vec![42]);
        assert_eq!(parts.concat(), vec![42]);
        let (parts, _) = run_psrs(1, vec![3, 1, 2]);
        assert_eq!(parts.concat(), vec![1, 2, 3]);
    }

    #[test]
    fn runs_are_cut_where_the_per_key_rule_sends_each_item() {
        // Duplicate splitters, keys equal to a splitter, keys beyond
        // both ends: every item's run is the server
        // `splitters.partition_point(|s| s < key)` names.
        let splitters = [3u64, 3, 7, 10];
        let sorted: Vec<u64> = vec![0, 1, 3, 3, 3, 4, 7, 7, 8, 10, 11, 12];
        let ends = run_ends(&sorted, &splitters, &|&k| k);
        assert_eq!(ends.len(), splitters.len() + 1);
        let mut start = 0;
        for (dest, &end) in ends.iter().enumerate() {
            for &k in &sorted[start..end] {
                assert_eq!(splitters.partition_point(|&s| s < k), dest, "key {k}");
            }
            start = end;
        }
        assert_eq!(start, sorted.len());
        assert_eq!(run_ends(&sorted, &[], &|&k: &u64| k), vec![sorted.len()]);
        assert_eq!(run_ends(&[], &splitters, &|&k: &u64| k), vec![0; 5]);
    }

    #[test]
    fn a_part_shorter_than_the_sample_still_sends_p_minus_one_keys() {
        // The sample round's announced load is p(p−1) per server: a
        // short part repeats keys rather than sending fewer.
        let p = 64;
        for n in [1, 2, p - 2] {
            let part: Vec<u64> = (0..n as u64).map(|i| 10 * i + 7).collect();
            let sample = regular_sample(&part, p, &|&k| k);
            assert_eq!(sample.len(), p - 1, "{n} keys");
            assert!(sample.iter().all(|k| part.contains(k)), "{n} keys");
            assert!(sample.windows(2).all(|w| w[0] <= w[1]), "{n} keys");
        }
        assert!(regular_sample(&[], p, &|&k: &u64| k).is_empty());
    }

    #[test]
    fn duplicates_preserved() {
        let items = vec![5u64; 1000];
        let (parts, _) = run_psrs(4, items);
        assert_eq!(parts.concat(), vec![5u64; 1000]);
    }

    #[test]
    fn generic_key_extraction() {
        // Sort (key, payload) pairs by key only.
        let mut cluster = Cluster::new(3);
        let items: Vec<(u64, u64)> = (0..300).map(|i| (299 - i, i)).collect();
        let local = cluster.scatter(items);
        let parts = psrs_by(&mut cluster, local, |t| t.0);
        let flat: Vec<(u64, u64)> = parts.concat();
        let keys: Vec<u64> = flat.iter().map(|t| t.0).collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(keys, expect);
        // payload preserved
        assert_eq!(flat.iter().map(|t| t.1).sum::<u64>(), (0..300).sum::<u64>());
    }
}
