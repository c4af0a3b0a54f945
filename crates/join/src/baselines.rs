//! Deliberately naive strategies from the slide 13–18 cost-regime table.
//!
//! | strategy | load `L` | rounds `r` |
//! |---|---|---|
//! | Naïve 1: ship everything to one server | `IN` | 1 |
//! | Naïve 2: ring rotation (fragment-and-replicate) | `IN/p` | `p` |
//! | Ideal (hash join, no skew) | `IN/p` | 1 |
//!
//! These exist to regenerate E01 and as sanity baselines: every real
//! algorithm in this crate must beat at least one of them on every input.

use crate::common::{
    hash_join_rows, inbox_pairs, joined_arity, route_input, scatter, single_stream, JoinRun,
};
use parqp_data::Relation;
use parqp_mpc::Cluster;

/// Naïve 1 (slide 13): send both relations, in full, to server 0 and join
/// there. One round; load `IN`.
pub fn naive_one_server(
    r: &Relation,
    r_col: usize,
    s: &Relation,
    s_col: usize,
    p: usize,
) -> JoinRun {
    let mut cluster = Cluster::new(p);
    let arities = [r.arity(), s.arity()];
    let mut ex = cluster.exchange_rows(&arities);
    route_input(&mut ex, 0, r, p, &[0], |_, _| 0);
    route_input(&mut ex, 1, s, p, &[0], |_, _| 0);
    let inboxes = inbox_pairs(arities, ex.finish());

    let mut outputs: Vec<Relation> = (0..p)
        .map(|_| Relation::new(joined_arity(r.arity(), s.arity())))
        .collect();
    if let (Some((r_in, s_in)), Some(out)) = (inboxes.first(), outputs.first_mut()) {
        hash_join_rows(r_in, r_col, s_in, s_col, out);
    }
    JoinRun {
        outputs,
        report: cluster.report(),
    }
}

/// Naïve 2 (slide 13): block-nested-loops by rotation. `R` stays
/// partitioned; `S`'s fragments rotate around a ring of servers, one hop
/// per round. `p` rounds; load `≈ IN/p` per round — same total
/// communication as shipping everything, spread over `p` rounds.
pub fn naive_ring(r: &Relation, r_col: usize, s: &Relation, s_col: usize, p: usize) -> JoinRun {
    let mut cluster = Cluster::new(p);
    let r_parts = scatter(r, p);
    let mut s_parts = scatter(s, p);

    let mut outputs: Vec<Relation> = (0..p)
        .map(|_| Relation::new(joined_arity(r.arity(), s.arity())))
        .collect();

    // Round 0 joins the co-resident fragments for free; then p−1 hops.
    for (sid, out) in outputs.iter_mut().enumerate() {
        hash_join_rows(&r_parts[sid], r_col, &s_parts[sid], s_col, out);
    }
    for _hop in 1..p {
        let mut ex = cluster.exchange_rows(&[s.arity()]);
        for (sid, rows) in s_parts.iter().enumerate() {
            ex.set_sender(sid);
            let dest = (sid + 1) % p;
            for row in rows {
                ex.send_row(0, dest, row);
            }
        }
        s_parts = single_stream(s.arity(), ex.finish());
        for (sid, out) in outputs.iter_mut().enumerate() {
            hash_join_rows(&r_parts[sid], r_col, &s_parts[sid], s_col, out);
        }
    }
    JoinRun {
        outputs,
        report: cluster.report(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::twoway_oracle;
    use parqp_data::generate;

    #[test]
    fn one_server_correct_and_costly() {
        let r = generate::uniform(2, 300, 40, 1);
        let s = generate::uniform(2, 300, 40, 2);
        let run = naive_one_server(&r, 1, &s, 0, 8);
        let expect = twoway_oracle(&r, 1, &s, 0);
        assert_eq!(run.gathered().canonical(), expect.canonical());
        assert_eq!(run.report.num_rounds(), 1);
        assert_eq!(run.report.max_load_tuples(), 600, "L = IN");
    }

    #[test]
    fn ring_correct_with_p_rounds() {
        let r = generate::uniform(2, 400, 50, 3);
        let s = generate::uniform(2, 400, 50, 4);
        let p = 8;
        let run = naive_ring(&r, 1, &s, 0, p);
        let expect = twoway_oracle(&r, 1, &s, 0);
        assert_eq!(run.gathered().canonical(), expect.canonical());
        assert_eq!(run.report.num_rounds(), p - 1);
        // Each hop moves one S fragment of ~|S|/p tuples to each server.
        let per_round = run.report.max_load_tuples();
        assert!(
            per_round <= (400 / p + 1) as u64,
            "L per round = {per_round}"
        );
    }

    #[test]
    fn ring_single_server() {
        let r = generate::uniform(2, 50, 10, 5);
        let s = generate::uniform(2, 50, 10, 6);
        let run = naive_ring(&r, 1, &s, 0, 1);
        let expect = twoway_oracle(&r, 1, &s, 0);
        assert_eq!(run.gathered().canonical(), expect.canonical());
        assert_eq!(run.report.num_rounds(), 0);
    }

    #[test]
    fn ring_skew_insensitive() {
        // The ring strategy is oblivious to skew: loads depend only on
        // fragment sizes, never on key distribution.
        let r = generate::constant_key_pairs(400, 7, 1);
        let s = generate::constant_key_pairs(400, 7, 0);
        let run = naive_ring(&r, 1, &s, 0, 8);
        assert_eq!(run.output_size(), 400 * 400);
        assert!(run.report.max_load_tuples() <= 51);
    }
}
