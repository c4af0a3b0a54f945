//! Multi-round splitter-tree distribution sort.
//!
//! Goodrich's BSP sorting algorithm achieves `O(log_L N)` rounds at load
//! `L = N/p` for arbitrary `p`, but "the algorithm is very complex"
//! (slide 104). This module implements the standard *splitter tree*
//! simplification that exhibits the same round/fan-out trade-off the
//! lower bound of slide 105 is about:
//!
//! * servers are organized into groups, initially one group of `p`;
//! * each level costs 3 rounds — (1) every member sends an evenly spaced
//!   key sample to the group leader, (2) the leader broadcasts `f−1`
//!   splitters, (3) members route items into the `f` subgroups;
//! * after `⌈log_f p⌉` levels every group is a single server, which sorts
//!   locally; group ranges are ordered, so the result is globally sorted.
//!
//! Every local sort — a member ordering a copy of its run to sample it,
//! the leader ordering the samples it received, the leaves — is the
//! crate's radix kernel ([`sort_words`]); the leaves sort under
//! [`Cluster::map`], so `ExecMode::Parallel` spreads them over the pool.
//!
//! Rounds are `3·⌈log_f p⌉` — exactly the `Θ(log_L N)` shape when the
//! fan-out is what a load budget `L` admits. Larger fan-out `f` = fewer
//! rounds but a larger per-round splitter/sample load; E13 sweeps this.

use crate::radix::sort_words;
use parqp_mpc::{metrics, trace, Cluster};

/// Default oversampling factor: samples collected per subgroup boundary.
const OVERSAMPLE: usize = 8;

/// Sort `u64` keys with a splitter tree of the given fan-out, using the
/// default oversampling factor (8 samples per subgroup boundary).
///
/// Returns per-server partitions, globally sorted (all keys on server `i`
/// ≤ all keys on server `i+1`, each partition sorted). Costs
/// `3·⌈log_f p⌉` communication rounds on `cluster`.
///
/// # Panics
/// Panics if `fanout < 2` or `local.len() != cluster.p()`.
pub fn multiround_sort(
    cluster: &mut Cluster,
    local: Vec<Vec<u64>>,
    fanout: usize,
) -> Vec<Vec<u64>> {
    multiround_sort_with_oversample(cluster, local, fanout, OVERSAMPLE)
}

/// As [`multiround_sort`], with an explicit oversampling factor: each
/// splitting step collects `fanout · oversample` sample keys per group.
/// Larger factors buy better splitter quality (tighter load balance) at
/// a larger sample-round load — the ablation `tables abl` sweeps this.
///
/// # Panics
/// Panics if `fanout < 2`, `oversample == 0`, or
/// `local.len() != cluster.p()`.
pub fn multiround_sort_with_oversample(
    cluster: &mut Cluster,
    local: Vec<Vec<u64>>,
    fanout: usize,
    oversample: usize,
) -> Vec<Vec<u64>> {
    let p = cluster.p();
    assert!(fanout >= 2, "fan-out must be at least 2");
    assert!(oversample >= 1, "oversample must be positive");
    assert_eq!(local.len(), p, "one input partition per server required");

    if metrics::is_enabled() {
        // Slide 105's trade-off: 3 rounds per level, ⌈log_f p⌉ levels,
        // at ideal load N/p per routing round (splitter quality governs
        // the measured overshoot; `tables abl` sweeps the oversample).
        let n: usize = local.iter().map(Vec::len).sum();
        let mut levels = 0usize;
        let mut g = p;
        while g > 1 {
            g = g.div_ceil(fanout);
            levels += 1;
        }
        metrics::announce(&metrics::PaperBound::tuples(
            "multiround_sort",
            (n as f64 / p as f64).max((fanout * oversample) as f64),
            3 * levels,
        ));
    }

    let mut data = local;
    // Groups as half-open server ranges; invariant: item keys on a group's
    // servers fall in the group's (implicit) key range, and groups are
    // ordered by key range.
    let mut groups: Vec<(usize, usize)> = vec![(0, p)];

    let _span = trace::span("multiround_sort/levels");
    while groups.iter().any(|&(lo, hi)| hi - lo > 1) {
        // Round A: members send evenly spaced samples to group leaders.
        let sample_span = trace::span("multiround_sort/sample");
        let mut ex = cluster.exchange::<u64>();
        for &(lo, hi) in &groups {
            let g = hi - lo;
            if g <= 1 {
                continue;
            }
            let subgroups = fanout.min(g);
            let want = subgroups * oversample;
            let per_member = want.div_ceil(g);
            for (m, member) in data[lo..hi].iter().enumerate() {
                ex.set_sender(lo + m);
                for k in sample_keys(member, per_member) {
                    ex.send(lo, k);
                }
            }
        }
        let sample_boxes = ex.finish();
        drop(sample_span);

        // Leaders pick splitters; Round B: broadcast them to the group.
        let splitter_span = trace::span("multiround_sort/splitters");
        let mut ex = cluster.exchange::<u64>();
        let mut group_splitters: Vec<Vec<u64>> = Vec::with_capacity(groups.len());
        for &(lo, hi) in &groups {
            ex.set_sender(lo);
            let g = hi - lo;
            if g <= 1 {
                group_splitters.push(Vec::new());
                continue;
            }
            let subgroups = fanout.min(g);
            let mut sample = sample_boxes[lo].clone();
            sort_words(&mut sample);
            let splitters: Vec<u64> = (1..subgroups)
                .map(|i| {
                    let idx = i * sample.len() / subgroups;
                    sample
                        .get(idx.min(sample.len().saturating_sub(1)))
                        .copied()
                        .unwrap_or(0)
                })
                .collect();
            for s in lo..hi {
                for &sp in &splitters {
                    ex.send(s, sp);
                }
            }
            group_splitters.push(splitters);
        }
        ex.finish();
        drop(splitter_span);

        // Round C: members route items into subgroups (round-robin within
        // a subgroup's servers for balance); groups subdivide. Servers in
        // singleton groups keep their data in place — the model charges
        // only for data that actually moves.
        let route_span = trace::span("multiround_sort/route");
        let mut next_groups = Vec::new();
        let mut kept: Vec<Vec<u64>> = vec![Vec::new(); p];
        let mut ex = cluster.exchange::<u64>();
        for (gi, &(lo, hi)) in groups.iter().enumerate() {
            let g = hi - lo;
            if g <= 1 {
                next_groups.push((lo, hi));
                kept[lo] = std::mem::take(&mut data[lo]);
                continue;
            }
            let splitters = &group_splitters[gi];
            let subgroups = splitters.len() + 1;
            // Partition the server range into `subgroups` contiguous runs.
            let bounds: Vec<usize> = (0..=subgroups).map(|i| lo + i * g / subgroups).collect();
            for i in 0..subgroups {
                next_groups.push((bounds[i], bounds[i + 1].max(bounds[i] + 1).min(hi)));
            }
            for (m, member) in data[lo..hi].iter().enumerate() {
                ex.set_sender(lo + m);
                // Each level re-scans the member's run; a paged store
                // charges every key as one logical read.
                let mut io = parqp_data::paged::IoCursor::new(lo + m);
                for (idx, &k) in member.iter().enumerate() {
                    io.read(1);
                    let sub = splitters.partition_point(|&sp| sp < k);
                    let (slo, shi) = (bounds[sub], bounds[sub + 1].max(bounds[sub] + 1).min(hi));
                    let dest = slo + idx % (shi - slo);
                    ex.send(dest, k);
                }
            }
        }
        data = ex.finish();
        drop(route_span);
        for (s, k) in kept.into_iter().enumerate() {
            if !k.is_empty() {
                data[s] = k;
            }
        }
        // Normalize: drop empty/degenerate ranges produced by rounding.
        next_groups.retain(|&(lo, hi)| hi > lo);
        groups = next_groups;
    }

    cluster.map(data, |_, mut part| {
        sort_words(&mut part);
        part
    })
}

/// `count` evenly spaced keys from (an unsorted copy of) `items`.
fn sample_keys(items: &[u64], count: usize) -> Vec<u64> {
    if items.is_empty() || count == 0 {
        return Vec::new();
    }
    let mut sorted = items.to_vec();
    sort_words(&mut sorted);
    (1..=count)
        .map(|i| sorted[(i * sorted.len() / (count + 1)).min(sorted.len() - 1)])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parqp_testkit::Rng;

    fn run(p: usize, fanout: usize, items: Vec<u64>) -> (Vec<Vec<u64>>, parqp_mpc::LoadReport) {
        let mut cluster = Cluster::new(p);
        let local = cluster.scatter(items);
        let parts = multiround_sort(&mut cluster, local, fanout);
        (parts, cluster.report())
    }

    fn assert_sorted_permutation(items: &[u64], parts: &[Vec<u64>]) {
        let flat: Vec<u64> = parts.concat();
        let mut expect = items.to_vec();
        expect.sort_unstable();
        assert_eq!(flat, expect);
    }

    #[test]
    fn sorts_random_input() {
        let mut rng = Rng::seed_from_u64(5);
        let items: Vec<u64> = (0..8000).map(|_| rng.gen_range(0..100_000u64)).collect();
        let (parts, _) = run(16, 2, items.clone());
        assert_sorted_permutation(&items, &parts);
    }

    #[test]
    fn fanout_controls_rounds() {
        // 3 rounds per level, ⌈log_f p⌉ levels (slide 105's trade-off).
        let items: Vec<u64> = (0..4096).rev().collect();
        let (_, r2) = run(16, 2, items.clone());
        let (_, r4) = run(16, 4, items.clone());
        let (_, r16) = run(16, 16, items);
        assert_eq!(r2.num_rounds(), 3 * 4); // log2(16) = 4 levels
        assert_eq!(r4.num_rounds(), 3 * 2); // log4(16) = 2 levels
        assert_eq!(r16.num_rounds(), 3); // one level
    }

    #[test]
    fn single_server_trivial() {
        let (parts, report) = run(1, 2, vec![3, 1, 2]);
        assert_eq!(parts[0], vec![1, 2, 3]);
        assert_eq!(report.num_rounds(), 0);
    }

    #[test]
    fn non_power_of_two_servers() {
        let mut rng = Rng::seed_from_u64(6);
        let items: Vec<u64> = (0..5000).map(|_| rng.gen_range(0..10_000u64)).collect();
        for p in [3, 5, 7, 13] {
            let (parts, _) = run(p, 3, items.clone());
            assert_sorted_permutation(&items, &parts);
        }
    }

    #[test]
    fn heavy_duplicates_still_sorted() {
        let mut items = vec![7u64; 3000];
        items.extend(0..1000u64);
        let (parts, _) = run(8, 2, items.clone());
        assert_sorted_permutation(&items, &parts);
    }

    #[test]
    fn empty_input() {
        let (parts, _) = run(4, 2, vec![]);
        assert!(parts.iter().all(Vec::is_empty));
    }
}
