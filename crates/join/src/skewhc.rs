//! SkewHC: the skew-resilient HyperCube (slides 46–51).
//!
//! Plain HyperCube loads degrade when join values are skewed. SkewHC
//! fixes this by declaring a value of variable `x` **heavy** when it
//! occurs ≥ `max(|S_j|/p, 2)` times in some atom `S_j` containing `x`
//! (slide 47; [`heavy_threshold`]),
//! and running, *in parallel on disjoint server groups*, one residual
//! query per heavy/light combination of the variables:
//!
//! * within combination `c`, every **light** variable keeps a HyperCube
//!   share computed by the LP of the residual query `Q_c` (heavy
//!   variables are removed from the atoms);
//! * every **heavy** variable gets share 1 — its values are constants of
//!   the residual query; parallelism comes from the light dimensions.
//!
//! A tuple of atom `S_j` knows the heavy/light status of its own
//! variables and is sent to every compatible combination (the status of
//! variables outside the atom is free). Each output tuple has a definite
//! status vector, so it is produced in exactly one combination, at
//! exactly one server — no deduplication needed.
//!
//! With equal sizes `N` the load is `O(N/p^{1/ψ*})`, matching the lower
//! bound of slide 47; e.g. `N/p^{1/2}` for the skewed triangle instead of
//! hash-join's `N` (slides 48–51).

use crate::common::{inboxes, scatter, JoinRun};
use parqp_data::paged::RouteScan;
use parqp_data::stats::{degree_counts, heavy_threshold};
use parqp_data::{FastSet, Relation, Value};
use parqp_mpc::{metrics, trace, Cluster, FanOut, Grid, HashFamily};
use parqp_query::{evaluate, residual, Query};

/// One heavy/light combination's execution plan.
#[derive(Debug, Clone)]
pub struct ComboPlan {
    /// Bitmask over variables: bit `v` set ⇔ `x_v` is heavy.
    pub mask: usize,
    /// Per-variable share (1 for heavy variables).
    pub shares: Vec<usize>,
    /// First server rank of this combination's group.
    pub offset: usize,
}

/// Run SkewHC.
///
/// ```
/// use parqp_join::skewhc::skewhc;
/// use parqp_query::Query;
/// use parqp_data::generate;
///
/// // Extreme skew: every tuple shares one join value. SkewHC's heavy
/// // combination computes the residual Cartesian product on a grid.
/// let r = generate::constant_key_pairs(500, 7, 1);
/// let s = generate::constant_key_pairs(500, 7, 0);
/// let run = skewhc(&Query::two_way(), &[r, s], 64, 42);
/// assert_eq!(run.output_size(), 500 * 500);
/// assert!(run.report.max_load_tuples() < 1000, "far below IN = 1000");
/// ```
///
/// Groups are sized `max(1, p / 2^k)`; the run uses
/// `Σ_c ∏ shares_c ≤ 2^k · max(1, p/2^k)` servers, which is ≤ `p`
/// whenever `p ≥ 2^k` (the regime the analysis assumes; for smaller `p`
/// the groups are still simulated faithfully).
///
/// Inputs are treated as sets (duplicate tuples within an atom are fine
/// but inflate the all-heavy groups beyond the paper's bounds).
pub fn skewhc(query: &Query, rels: &[Relation], p: usize, seed: u64) -> JoinRun {
    let (run, _) = skewhc_with_plans(query, rels, p, seed);
    run
}

/// As [`skewhc`], also returning the per-combination plans (used by the
/// E08 table generator).
pub fn skewhc_with_plans(
    query: &Query,
    rels: &[Relation],
    p: usize,
    seed: u64,
) -> (JoinRun, Vec<ComboPlan>) {
    assert_eq!(rels.len(), query.num_atoms(), "one relation per atom");
    for (a, r) in query.atoms().iter().zip(rels) {
        assert_eq!(a.arity(), r.arity(), "arity mismatch for atom {}", a.name);
    }
    let k = query.num_vars();
    assert!(
        k <= 16,
        "SkewHC combination enumeration limited to 16 variables"
    );

    // Slides 45–50: L = IN/p^{1/ψ*} under arbitrary skew. ψ* is a
    // residual-LP sweep, so only pay for it when a registry is listening.
    if metrics::is_enabled() {
        let input: usize = rels.iter().map(Relation::len).sum();
        let psi = parqp_query::psi_star(query).max(1.0);
        metrics::announce(&metrics::PaperBound::tuples(
            "skewhc",
            input as f64 / (p.max(1) as f64).powf(1.0 / psi),
            1,
        ));
    }

    // Heavy values per variable: degree ≥ |S_j|/p in any atom containing it.
    let heavy: Vec<FastSet<Value>> = heavy_values(query, rels, p);

    // Build one plan per combination.
    let group_budget = (p >> k).max(1);
    let mut plans: Vec<ComboPlan> = Vec::with_capacity(1 << k);
    let mut offset = 0;
    for mask in 0..(1usize << k) {
        let heavy_vars: Vec<usize> = (0..k).filter(|&v| mask & (1 << v) != 0).collect();
        let res = residual(query, &heavy_vars);
        let mut shares = vec![1usize; k];
        if let Some(rq) = &res.query {
            if group_budget >= 2 {
                let sizes: Vec<u64> = rq
                    .atoms()
                    .iter()
                    .enumerate()
                    .map(|(j_new, _)| {
                        // Size of the original atom that produced this
                        // residual atom (full size as the LP's estimate).
                        let j_old = res
                            .atom_map
                            .iter()
                            .position(|m| *m == Some(j_new))
                            .expect("atom map is onto");
                        rels[j_old].len().max(1) as u64
                    })
                    .collect();
                let plan = parqp_lp::plan_shares(&rq.hypergraph(), &sizes, group_budget);
                for (v, share) in shares.iter_mut().enumerate() {
                    if let Some(nv) = res.var_map[v] {
                        *share = plan.shares[nv];
                    }
                }
            }
        }
        let size: usize = shares.iter().product();
        plans.push(ComboPlan {
            mask,
            shares,
            offset,
        });
        offset += size;
    }
    let total_servers = offset;

    let mut cluster = Cluster::new(total_servers);
    let h = HashFamily::new(seed, k);
    let grids: Vec<Grid> = plans.iter().map(|c| Grid::new(c.shares.clone())).collect();

    // One round: every tuple goes to each compatible combination's grid.
    let shuffle = trace::span("skewhc/shuffle");
    let arities: Vec<usize> = rels.iter().map(Relation::arity).collect();
    let mut ex = cluster.exchange_rows(&arities);
    for (j, (atom, rel)) in query.atoms().iter().zip(rels).enumerate() {
        // Every row of the atom fixes the same coordinates on every
        // combination's grid: one fan-out per grid.
        let fans: Vec<FanOut> = grids
            .iter()
            .map(|g| g.fan_out(|v| atom.vars.contains(&v)))
            .collect();
        for (sid, part) in scatter(rel, total_servers).into_iter().enumerate() {
            ex.set_sender(sid);
            let scan = RouteScan::new(sid, &part);
            for row in scan.iter() {
                // Status of the atom's own variables.
                let mut own_mask = 0usize;
                let mut own_bits = 0usize;
                for (pos, &v) in atom.vars.iter().enumerate() {
                    own_bits |= 1 << v;
                    if heavy[v].contains(&row[pos]) {
                        own_mask |= 1 << v;
                    }
                }
                for (plan, fan) in plans.iter().zip(&fans) {
                    if plan.mask & own_bits != own_mask {
                        continue; // incompatible combination
                    }
                    // A heavy variable has share 1: it hashes to 0.
                    let base: usize = row
                        .iter()
                        .zip(&atom.vars)
                        .map(|(&value, &v)| h.hash(v, value, plan.shares[v]) * fan.strides()[v])
                        .sum();
                    for dest in fan.ranks(plan.offset + base) {
                        ex.send_row(j, dest, row);
                    }
                }
            }
        }
    }
    let received = inboxes(&arities, ex.finish());
    drop(shuffle);

    let _span = trace::span("skewhc/evaluate");
    let outputs = received
        .iter()
        .map(|fragments| evaluate(query, fragments))
        .collect();
    (
        JoinRun {
            outputs,
            report: cluster.report(),
        },
        plans,
    )
}

/// Per-variable heavy-hitter sets: value `v` of variable `x` is heavy iff
/// its degree in some atom containing `x` is at least
/// [`heavy_threshold`]`(|S_j|, p)` = `max(|S_j|/p, 2)` (slide 47's `N/p`
/// threshold, per atom; the planner cuts at the same place).
pub fn heavy_values(query: &Query, rels: &[Relation], p: usize) -> Vec<FastSet<Value>> {
    let mut heavy: Vec<FastSet<Value>> = vec![FastSet::default(); query.num_vars()];
    for (j, rel) in rels.iter().enumerate() {
        let threshold = heavy_threshold(rel.len() as u64, p);
        for (pos, &v) in query.atoms()[j].vars.iter().enumerate() {
            for (value, deg) in degree_counts(rel, pos) {
                if deg >= threshold {
                    heavy[v].insert(value);
                }
            }
        }
    }
    heavy
}

#[cfg(test)]
mod tests {
    use super::*;
    use parqp_data::generate;

    fn oracle(query: &Query, rels: &[Relation]) -> Relation {
        evaluate(query, rels)
    }

    #[test]
    fn triangle_no_skew_matches_oracle() {
        let q = Query::triangle();
        let g = generate::random_symmetric_graph(50, 400, 3);
        let rels = vec![g.clone(), g.clone(), g];
        let run = skewhc(&q, &rels, 16, 5);
        let expect = oracle(&q, &rels);
        assert_eq!(run.gathered().canonical(), expect.canonical());
        assert_eq!(run.output_size(), expect.len(), "exactly-once output");
        assert_eq!(run.report.num_rounds(), 1);
    }

    #[test]
    fn triangle_skewed_matches_oracle() {
        let q = Query::triangle();
        // One hub vertex of very high degree in every relation.
        let mut g = generate::random_symmetric_graph(80, 300, 9);
        for i in 0..120 {
            g.push(&[0, 100 + i]);
            g.push(&[100 + i, 0]);
        }
        let rels = vec![g.clone(), g.clone(), g];
        let run = skewhc(&q, &rels, 64, 7);
        let expect = oracle(&q, &rels);
        assert_eq!(run.gathered().canonical(), expect.canonical());
        assert_eq!(run.output_size(), expect.len());
    }

    #[test]
    fn skewed_two_way_beats_hypercube_load() {
        // Extreme skew: hash join (= HyperCube on two-way) puts IN on one
        // server; SkewHC's heavy-y combination runs the Cartesian residual
        // R(x) × S(z) on a √q × √q grid.
        let q = Query::two_way();
        let n = 2000;
        let r = generate::constant_key_pairs(n, 7, 1);
        let s = generate::constant_key_pairs(n, 7, 0);
        let rels = vec![r, s];
        let p = 64;
        let hc = crate::multiway::hypercube(&q, &rels, p, 3);
        let sk = skewhc(&q, &rels, p, 3);
        assert_eq!(sk.gathered().canonical(), hc.gathered().canonical());
        assert_eq!(hc.report.max_load_tuples(), 2 * n as u64);
        let l = sk.report.max_load_tuples();
        // Group budget q = p/8 = 8 → grid ~3×2: L ≈ n/3 + n/2 ≈ 1666...
        // the point is it is far below 2n and shrinks with p.
        assert!(l < (2 * n as u64) * 2 / 3, "SkewHC L = {l}");
    }

    #[test]
    fn semijoin_pair_with_heavy_matches_oracle() {
        let q = Query::semijoin_pair();
        let r = generate::unary_range(40);
        let mut s = generate::uniform(2, 300, 60, 31);
        for _ in 0..100 {
            s.push(&[5, 7]);
        }
        let t = generate::unary_range(50);
        let rels = vec![r, s, t];
        let run = skewhc(&q, &rels, 32, 11);
        let expect = oracle(&q, &rels);
        assert_eq!(run.gathered().canonical(), expect.canonical());
        assert_eq!(run.output_size(), expect.len());
    }

    #[test]
    fn plans_cover_all_masks() {
        let q = Query::triangle();
        let g = generate::random_symmetric_graph(30, 100, 13);
        let rels = vec![g.clone(), g.clone(), g];
        let (_, plans) = skewhc_with_plans(&q, &rels, 64, 5);
        assert_eq!(plans.len(), 8);
        let masks: Vec<usize> = plans.iter().map(|c| c.mask).collect();
        assert_eq!(masks, (0..8).collect::<Vec<_>>());
        for c in &plans {
            for v in 0..3 {
                if c.mask & (1 << v) != 0 {
                    assert_eq!(c.shares[v], 1, "heavy variables take share 1");
                }
            }
        }
    }

    #[test]
    fn heavy_detection_threshold() {
        let q = Query::two_way();
        let mut r = generate::key_unique_pairs(64, 1, 1 << 30, 3);
        for _ in 0..32 {
            r.push(&[999, 5]);
        }
        let s = generate::key_unique_pairs(96, 0, 1 << 30, 4);
        let heavy = heavy_values(&q, &[r, s], 8);
        // Variable y (=1): value 5 occurs 32 ≥ 96/8 times in R's column y.
        assert!(heavy[1].contains(&5));
        assert_eq!(heavy[1].len(), 1);
    }

    #[test]
    fn heavy_cut_matches_the_planner_below_two_p() {
        // 40 rows per atom on 64 servers: |S_j|/p is 0, so only the
        // floor of 2 separates heavy from light. Value 5 appears twice
        // in each atom's first column; every other value once.
        let (q, n, p) = (Query::triangle(), 40, 64);
        let rels: Vec<Relation> = (0..3)
            .map(|i| {
                let mut r = generate::uniform(2, n - 2, 1 << 30, 11 + i);
                r.push(&[5, 6]);
                r.push(&[5, 7]);
                r
            })
            .collect();
        for (v, heavy) in heavy_values(&q, &rels, p).iter().enumerate() {
            assert_eq!(heavy.iter().copied().collect::<Vec<_>>(), vec![5], "x{v}");
        }
        // Were every value heavy, every tuple would go to the
        // all-heavy plan's one server (L = 3n = 120).
        let run = skewhc(&q, &rels, p, 3);
        assert_eq!(run.gathered().canonical(), oracle(&q, &rels).canonical());
        assert_eq!(run.report.max_load_tuples(), 33);
    }
}
