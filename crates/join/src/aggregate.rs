//! Distributed grouping and aggregation (slide 52's
//! `SELECT cKey, month, SUM(price) … GROUP BY` and the aggregation side
//! of the matmul lower bound, slide 125).
//!
//! Three strategies for `SELECT key, SUM(val) GROUP BY key`:
//!
//! * [`hash_group_sum`] — repartition raw tuples by key hash, aggregate
//!   locally. One round, load `Θ(IN/p)` without skew but `Θ(deg)` for a
//!   heavy group — the same failure mode as the hash join.
//! * [`combiner_group_sum`] — pre-aggregate locally (the classic
//!   MapReduce combiner), then shuffle partial sums: at most one message
//!   per (server, group), so a group of any degree costs at most `p`
//!   messages and the receive load is `O(min(IN, G·p)/p + G/p)` for `G`
//!   distinct groups. Still one round.
//! * [`tree_group_sum`] — aggregate partial sums up a fan-in-`f` tree in
//!   `⌈log_f p⌉` rounds with per-round load `O(f·G_local)`: the
//!   `log_L N` round/load trade-off of slides 105/125 in its simplest
//!   form.
//!
//! All return per-server `(key, sum)` relations plus the usual report.

use crate::common::JoinRun;
use parqp_data::{FastMap, Relation, Value};
use parqp_mpc::{Cluster, HashFamily};

/// Serial oracle: exact `(key, sum)` pairs, sorted by key.
pub fn group_sum_oracle(rel: &Relation, key_col: usize, val_col: usize) -> Relation {
    let mut acc: FastMap<Value, u64> = FastMap::default();
    for row in rel.iter() {
        *acc.entry(row[key_col]).or_insert(0) += row[val_col];
    }
    let mut rows: Vec<[Value; 2]> = acc.into_iter().map(|(k, v)| [k, v]).collect();
    rows.sort_unstable();
    Relation::from_rows(2, rows)
}

fn finish_outputs(parts: Vec<FastMap<Value, u64>>) -> Vec<Relation> {
    parts
        .into_iter()
        .map(|acc| {
            let mut rows: Vec<[Value; 2]> = acc.into_iter().map(|(k, v)| [k, v]).collect();
            rows.sort_unstable();
            Relation::from_rows(2, rows)
        })
        .collect()
}

/// Shuffle raw tuples by key hash; aggregate at the receiver. One round.
pub fn hash_group_sum(
    rel: &Relation,
    key_col: usize,
    val_col: usize,
    p: usize,
    seed: u64,
) -> JoinRun {
    let mut cluster = Cluster::new(p);
    let h = HashFamily::new(seed, 1);
    let parts = crate::common::scatter(rel, p);
    let mut ex = cluster.exchange::<[Value; 2]>();
    for (sid, part) in parts.iter().enumerate() {
        ex.set_sender(sid);
        for row in part.iter() {
            ex.send(h.hash(0, row[key_col], p), [row[key_col], row[val_col]]);
        }
    }
    let inboxes = ex.finish();
    let accs: Vec<FastMap<Value, u64>> = inboxes
        .into_iter()
        .map(|inbox| {
            let mut acc: FastMap<Value, u64> = FastMap::default();
            for [k, v] in inbox {
                *acc.entry(k).or_insert(0) += v;
            }
            acc
        })
        .collect();
    JoinRun {
        outputs: finish_outputs(accs),
        report: cluster.report(),
    }
}

/// Pre-aggregate locally, then shuffle one partial sum per
/// (server, group). One round; skew-insensitive receive loads.
pub fn combiner_group_sum(
    rel: &Relation,
    key_col: usize,
    val_col: usize,
    p: usize,
    seed: u64,
) -> JoinRun {
    let mut cluster = Cluster::new(p);
    let h = HashFamily::new(seed, 1);
    let parts = crate::common::scatter(rel, p);
    let mut ex = cluster.exchange::<[Value; 2]>();
    for (sid, part) in parts.iter().enumerate() {
        ex.set_sender(sid);
        let mut local: FastMap<Value, u64> = FastMap::default();
        for row in part.iter() {
            *local.entry(row[key_col]).or_insert(0) += row[val_col];
        }
        for (k, v) in local {
            ex.send(h.hash(0, k, p), [k, v]);
        }
    }
    let inboxes = ex.finish();
    let accs: Vec<FastMap<Value, u64>> = inboxes
        .into_iter()
        .map(|inbox| {
            let mut acc: FastMap<Value, u64> = FastMap::default();
            for [k, v] in inbox {
                *acc.entry(k).or_insert(0) += v;
            }
            acc
        })
        .collect();
    JoinRun {
        outputs: finish_outputs(accs),
        report: cluster.report(),
    }
}

/// Aggregate partial sums up a fan-in-`f` reduction tree: round `i`
/// merges every group of `f` consecutive "active" servers into its
/// first. `⌈log_f p⌉` rounds; final sums land on server 0.
///
/// # Panics
/// Panics if `fanin < 2`.
pub fn tree_group_sum(
    rel: &Relation,
    key_col: usize,
    val_col: usize,
    p: usize,
    fanin: usize,
) -> JoinRun {
    assert!(fanin >= 2, "fan-in must be at least 2");
    let mut cluster = Cluster::new(p);
    let parts = crate::common::scatter(rel, p);
    let mut partials: Vec<FastMap<Value, u64>> = parts
        .iter()
        .map(|part| {
            let mut acc: FastMap<Value, u64> = FastMap::default();
            for row in part.iter() {
                *acc.entry(row[key_col]).or_insert(0) += row[val_col];
            }
            acc
        })
        .collect();

    // Active servers hold partials; each round they merge f-to-1.
    let mut stride = 1usize;
    while stride < p {
        let mut ex = cluster.exchange::<[Value; 2]>();
        for src in (0..p).step_by(stride) {
            let block = src / stride;
            if block.is_multiple_of(fanin) {
                continue; // this server is a receiver this round
            }
            let dest = (block - block % fanin) * stride;
            ex.set_sender(src);
            for (&k, &v) in &partials[src] {
                ex.send(dest, [k, v]);
            }
            partials[src].clear();
        }
        let inboxes = ex.finish();
        for (sid, inbox) in inboxes.into_iter().enumerate() {
            for [k, v] in inbox {
                *partials[sid].entry(k).or_insert(0) += v;
            }
        }
        stride *= fanin;
    }
    JoinRun {
        outputs: finish_outputs(partials),
        report: cluster.report(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parqp_data::generate;

    fn gathered_sorted(run: &JoinRun) -> Relation {
        let mut all = run.gathered();
        all.sort();
        all
    }

    #[test]
    fn all_strategies_match_oracle() {
        let rel = generate::zipf_pairs(5000, 300, 1.1, 0, 3);
        let expect = group_sum_oracle(&rel, 0, 1);
        for run in [
            hash_group_sum(&rel, 0, 1, 8, 7),
            combiner_group_sum(&rel, 0, 1, 8, 7),
            tree_group_sum(&rel, 0, 1, 8, 2),
            tree_group_sum(&rel, 0, 1, 8, 4),
        ] {
            assert_eq!(gathered_sorted(&run), expect);
        }
    }

    #[test]
    fn combiner_beats_hash_under_skew() {
        // One group holds almost everything: hash shuffles IN to one
        // server, the combiner at most p partial sums per group.
        let rel = generate::constant_key_pairs(8000, 7, 0);
        let hash = hash_group_sum(&rel, 0, 1, 16, 5);
        let comb = combiner_group_sum(&rel, 0, 1, 16, 5);
        assert_eq!(hash.report.max_load_tuples(), 8000);
        assert!(comb.report.max_load_tuples() <= 16);
        assert_eq!(gathered_sorted(&hash), gathered_sorted(&comb));
    }

    #[test]
    fn tree_rounds_follow_fanin() {
        let rel = generate::uniform(2, 2000, 50, 9);
        let t2 = tree_group_sum(&rel, 0, 1, 16, 2);
        let t4 = tree_group_sum(&rel, 0, 1, 16, 4);
        let t16 = tree_group_sum(&rel, 0, 1, 16, 16);
        assert_eq!(t2.report.num_rounds(), 4); // log2(16)
        assert_eq!(t4.report.num_rounds(), 2); // log4(16)
        assert_eq!(t16.report.num_rounds(), 1);
        assert_eq!(gathered_sorted(&t2), gathered_sorted(&t16));
    }

    #[test]
    fn tree_result_lands_on_root() {
        let rel = generate::uniform(2, 500, 20, 11);
        let run = tree_group_sum(&rel, 0, 1, 8, 2);
        assert!(!run.outputs[0].is_empty());
        assert!(run.outputs[1..].iter().all(Relation::is_empty));
    }

    #[test]
    fn non_power_of_fanin_p() {
        let rel = generate::uniform(2, 1000, 30, 13);
        for p in [3usize, 5, 7, 12] {
            let run = tree_group_sum(&rel, 0, 1, p, 3);
            assert_eq!(gathered_sorted(&run), group_sum_oracle(&rel, 0, 1), "p={p}");
        }
    }

    #[test]
    fn empty_relation() {
        let rel = Relation::new(2);
        let run = combiner_group_sum(&rel, 0, 1, 4, 1);
        assert_eq!(run.output_size(), 0);
    }
}
