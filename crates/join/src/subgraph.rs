//! A vertex-at-a-time expansion join for subgraph (and general) queries —
//! the BiGJoin / TwinTwigJoin / PSgL family of slide 97.
//!
//! Instead of joining whole relations, the algorithm grows *partial
//! bindings* one query variable per round:
//!
//! 1. bindings start as the tuples of the first atom (free placement);
//! 2. to bind the next variable `v`, every binding is routed to the
//!    server holding the matching fragment of an **extender** atom
//!    (an atom containing `v`, hashed on its variables already bound)
//!    and extended with every consistent `v` value;
//! 3. atoms that become fully bound are applied as **filters**, one
//!    semijoin-style round each (route bindings by the atom's variables,
//!    check membership).
//!
//! For the triangle with order `x, y, z` this is exactly the 2-round
//! BiGJoin pipeline: seed with `R(x,y)`, extend `z` through `S(y,z)`,
//! filter with `T(z,x)`. Rounds are `O(k)`; communication is bounded by
//! the sizes of the partial-binding relations — worst-case-optimal for
//! a good variable order on many subgraph queries.
//!
//! Extension through an atom with *several* unbound variables projects
//! that atom onto (bound ∪ {v}) with duplicate elimination, so the
//! result follows **set semantics** (duplicate input tuples do not
//! multiply outputs; compare canonical forms).

use crate::common::{extend_rows, in_variable_order, inbox_pairs, scatter, JoinRun};
use crate::plans::combined_hash;
use parqp_data::{FastSet, KeyIndex, Relation};
use parqp_mpc::{Cluster, HashFamily};
use parqp_query::{Query, Var};

/// Run the expansion join with the default variable order (the first
/// atom's variables, then the remaining variables in index order).
pub fn expansion_join(query: &Query, rels: &[Relation], p: usize, seed: u64) -> JoinRun {
    let mut order: Vec<Var> = query.atoms()[0].vars.clone();
    for v in 0..query.num_vars() {
        if !order.contains(&v) {
            order.push(v);
        }
    }
    expansion_join_with_order(query, rels, p, seed, &order)
}

/// Run the expansion join binding variables in the given order. The
/// order must start with the variables of some atom (the seed).
///
/// # Panics
/// Panics if the order is not a permutation of the variables, no atom's
/// variable set equals the order's prefix, or (mid-run) no extender atom
/// shares a bound variable — i.e. the order disconnects the query.
pub fn expansion_join_with_order(
    query: &Query,
    rels: &[Relation],
    p: usize,
    seed: u64,
    order: &[Var],
) -> JoinRun {
    assert_eq!(rels.len(), query.num_atoms(), "one relation per atom");
    {
        let mut sorted = order.to_vec();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..query.num_vars()).collect::<Vec<_>>(),
            "order must permute vars"
        );
    }
    let seed_atom = query
        .atoms()
        .iter()
        .position(|a| {
            a.vars.len() <= order.len() && {
                let prefix: FastSet<Var> = order[..a.vars.len()].iter().copied().collect();
                a.vars.iter().all(|v| prefix.contains(v))
            }
        })
        .expect("order must start with some atom's variables (the seed)");

    let mut cluster = Cluster::new(p);
    let h = HashFamily::new(seed ^ 0x5b9e_37c1, 2);

    // State: distributed bindings with schema `bound`.
    let mut bound: Vec<Var> = query.atoms()[seed_atom].vars.clone();
    let mut parts: Vec<Relation> = scatter(&dedup(&rels[seed_atom]), p);
    let mut verified = vec![false; query.num_atoms()];
    verified[seed_atom] = true;

    for &v in &order[bound.len()..] {
        // Choose the extender: an atom containing v sharing the most
        // bound variables and the fewest other unbound ones.
        let extender = (0..query.num_atoms())
            .filter(|&j| query.atoms()[j].vars.contains(&v))
            .max_by_key(|&j| {
                let a = &query.atoms()[j];
                let shared = a.vars.iter().filter(|x| bound.contains(x)).count();
                let unbound_others = a
                    .vars
                    .iter()
                    .filter(|&&x| x != v && !bound.contains(&x))
                    .count();
                (shared, usize::MAX - unbound_others)
            })
            .expect("every variable appears in some atom");
        let atom = &query.atoms()[extender];
        let shared_vars: Vec<Var> = atom
            .vars
            .iter()
            .copied()
            .filter(|x| bound.contains(x))
            .collect();
        assert!(
            !shared_vars.is_empty(),
            "variable order disconnects the query at x{v}"
        );
        // Project the extender onto (shared ++ v), set semantics.
        let mut proj_cols: Vec<usize> = shared_vars
            .iter()
            .map(|sv| atom.vars.iter().position(|x| x == sv).expect("shared"))
            .collect();
        proj_cols.push(
            atom.vars
                .iter()
                .position(|&x| x == v)
                .expect("extender has v"),
        );
        let ext = rels[extender].project(&proj_cols).canonical();
        if proj_cols.len() == atom.vars.len() {
            verified[extender] = true;
        }

        // Extension round: bindings and extender fragments co-hash on the
        // shared variables.
        let bound_pos: Vec<usize> = shared_vars
            .iter()
            .map(|sv| bound.iter().position(|x| x == sv).expect("bound"))
            .collect();
        let ext_key: Vec<usize> = (0..shared_vars.len()).collect();
        let arities = [bound.len(), ext.arity()];
        let mut ex = cluster.exchange_rows(&arities);
        for part in &parts {
            for b in part {
                let dest = (combined_hash(&h, b, &bound_pos) % p as u64) as usize;
                ex.send_row(0, dest, b);
            }
        }
        for part in scatter(&ext, p) {
            for row in part.iter() {
                let dest = (combined_hash(&h, row, &ext_key) % p as u64) as usize;
                ex.send_row(1, dest, row);
            }
        }
        // Extender rows are (shared…, v): key on all but the last
        // column, extend each binding with the last.
        parts = inbox_pairs(arities, ex.finish())
            .iter()
            .map(|(bindings, ext_rows)| {
                extend_rows(bindings, &bound_pos, ext_rows, &ext_key, &[ext_key.len()])
            })
            .collect();
        bound.push(v);

        // Filter rounds: any unverified atom that is now fully bound.
        for j in 0..query.num_atoms() {
            if verified[j] || !query.atoms()[j].vars.iter().all(|x| bound.contains(x)) {
                continue;
            }
            verified[j] = true;
            let fatom = &query.atoms()[j];
            let bpos: Vec<usize> = fatom
                .vars
                .iter()
                .map(|fv| bound.iter().position(|x| x == fv).expect("fully bound"))
                .collect();
            let filt = dedup(&rels[j]);
            let filt_key: Vec<usize> = (0..filt.arity()).collect();
            let arities = [bound.len(), filt.arity()];
            let mut ex = cluster.exchange_rows(&arities);
            for part in &parts {
                for b in part {
                    let dest = (combined_hash(&h, b, &bpos) % p as u64) as usize;
                    ex.send_row(0, dest, b);
                }
            }
            for part in scatter(&filt, p) {
                for row in part.iter() {
                    let dest = (combined_hash(&h, row, &filt_key) % p as u64) as usize;
                    ex.send_row(1, dest, row);
                }
            }
            parts = inbox_pairs(arities, ex.finish())
                .iter()
                .map(|(bindings, members)| {
                    let members = KeyIndex::build(members, &filt_key);
                    bindings.filter(|b| members.contains(b, &bpos))
                })
                .collect();
        }
    }
    assert!(verified.iter().all(|&x| x), "every atom must be verified");

    let outputs = parts
        .into_iter()
        .map(|part| in_variable_order(part, &bound))
        .collect();
    JoinRun {
        outputs,
        report: cluster.report(),
    }
}

fn dedup(rel: &Relation) -> Relation {
    rel.canonical()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parqp_data::generate;
    use parqp_query::evaluate;

    fn check(q: &Query, rels: &[Relation], p: usize) -> JoinRun {
        let run = expansion_join(q, rels, p, 7);
        let expect = evaluate(q, rels).canonical();
        assert_eq!(run.gathered().canonical(), expect, "{q}");
        run
    }

    #[test]
    fn triangle_two_rounds() {
        let g = generate::random_symmetric_graph(60, 500, 5);
        let q = Query::triangle();
        let run = check(&q, &[g.clone(), g.clone(), g], 16);
        // Seed R, extend z via S, filter T: 2 rounds — the BiGJoin shape.
        assert_eq!(run.report.num_rounds(), 2);
    }

    #[test]
    fn square_cycle() {
        let g = generate::random_symmetric_graph(40, 400, 9);
        let q = Query::cycle(4);
        let run = check(&q, &[g.clone(), g.clone(), g.clone(), g], 16);
        // Seed R1(x1,x2); extend x3 via R2; extend x4 via R3; filter R4.
        assert_eq!(run.report.num_rounds(), 3);
    }

    #[test]
    fn five_cycle() {
        let g = generate::random_symmetric_graph(25, 200, 11);
        let q = Query::cycle(5);
        check(&q, &[g.clone(), g.clone(), g.clone(), g.clone(), g], 8);
    }

    #[test]
    fn chain_and_star_acyclic() {
        let q = Query::chain(4);
        let rels: Vec<Relation> = (0..4)
            .map(|i| generate::uniform(2, 150, 30, 20 + i as u64))
            .collect();
        check(&q, &rels, 8);
        let q = Query::star(3);
        let rels: Vec<Relation> = (0..3)
            .map(|i| generate::uniform(2, 150, 30, 30 + i as u64))
            .collect();
        check(&q, &rels, 8);
    }

    #[test]
    fn custom_order_same_answer() {
        let g = generate::random_symmetric_graph(40, 300, 13);
        let q = Query::triangle();
        let rels = vec![g.clone(), g.clone(), g];
        let a = expansion_join_with_order(&q, &rels, 8, 3, &[1, 2, 0]);
        let b = expansion_join(&q, &rels, 8, 3);
        assert_eq!(a.gathered().canonical(), b.gathered().canonical());
    }

    #[test]
    fn set_semantics_on_duplicates() {
        let q = Query::triangle();
        let mut g = Relation::from_rows(2, [[1, 2], [2, 3], [3, 1]]);
        g.push(&[1, 2]); // duplicate edge
        let rels = vec![g.clone(), g.clone(), g];
        let run = expansion_join(&q, &rels, 4, 5);
        // Canonical triangle appears once per rotation, not multiplied.
        assert_eq!(run.gathered().canonical().len(), 3);
    }

    #[test]
    fn skewed_graph_still_correct() {
        let mut g = generate::random_symmetric_graph(50, 300, 17);
        for i in 0..100 {
            g.push(&[0, 100 + i]);
            g.push(&[100 + i, 0]);
        }
        let q = Query::triangle();
        check(&q, &[g.clone(), g.clone(), g], 16);
    }

    #[test]
    #[should_panic(expected = "order must permute")]
    fn bad_order_rejected() {
        let g = generate::uniform(2, 10, 5, 1);
        expansion_join_with_order(
            &Query::triangle(),
            &[g.clone(), g.clone(), g],
            4,
            1,
            &[0, 0, 1],
        );
    }
}
