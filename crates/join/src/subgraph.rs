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
//!    round each (route bindings by the atom's variables and join them
//!    with the atom's rows: every variable is bound, so a binding is
//!    dropped or kept once per copy of its row).
//!
//! For the triangle with order `x, y, z` this is exactly the 2-round
//! BiGJoin pipeline: seed with `R(x,y)`, extend `z` through `S(y,z)`,
//! filter with `T(z,x)`. Rounds are `O(k)`; communication is bounded by
//! the sizes of the partial-binding relations — worst-case-optimal for
//! a good variable order on many subgraph queries.
//!
//! The result is the bag every other engine returns: a row repeated in
//! an input multiplies the outputs it takes part in. Extension through
//! an atom with *several* unbound variables projects that atom onto
//! (bound ∪ {v}) with duplicate elimination — only an existence check,
//! since the atom is joined again, whole, as a filter once it is fully
//! bound.

use crate::common::{dest_of, inbox_pairs, route_input, Dist, JoinRun};
use parqp_data::{FastSet, Relation};
use parqp_mpc::{Cluster, HashFamily};
use parqp_query::{Query, SchemaJoin, Var};

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

    // State: distributed bindings over the variables bound so far.
    let seed_vars = &query.atoms()[seed_atom].vars;
    let mut bindings = Dist::scatter(&sorted(rels[seed_atom].clone()), seed_vars, p);
    let mut verified = vec![false; query.num_atoms()];
    verified[seed_atom] = true;

    for &v in &order[seed_vars.len()..] {
        let bound = |x: &Var| bindings.vars.contains(x);
        // Choose the extender: an atom containing v sharing the most
        // bound variables and the fewest other unbound ones.
        let extender = (0..query.num_atoms())
            .filter(|&j| query.atoms()[j].vars.contains(&v))
            .max_by_key(|&j| {
                let a = &query.atoms()[j];
                let shared = a.vars.iter().filter(|x| bound(x)).count();
                let unbound_others = a.vars.iter().filter(|&&x| x != v && !bound(&x)).count();
                (shared, usize::MAX - unbound_others)
            })
            .expect("every variable appears in some atom");
        let atom = &query.atoms()[extender];
        // Project the extender onto its bound variables (in its own
        // order), then v. A projection that drops a variable is only an
        // existence check, so it keeps one row per value; the atom is
        // joined whole as a filter later.
        let ext_vars: Vec<Var> = atom.vars.iter().copied().filter(bound).chain([v]).collect();
        assert!(
            ext_vars.len() > 1,
            "variable order disconnects the query at x{v}"
        );
        let ext_cols = SchemaJoin::new(&ext_vars, &atom.vars);
        let ext = rels[extender].project(ext_cols.right_key());
        let ext = if ext_vars.len() == atom.vars.len() {
            verified[extender] = true;
            sorted(ext)
        } else {
            ext.canonical()
        };

        // Extension round: each binding extended with every consistent v.
        let on = SchemaJoin::new(&bindings.vars, &ext_vars);
        let parts = expansion_round(&mut cluster, &h, &bindings, &ext, &ext_vars, |b, e| {
            on.join(b, e)
        });
        bindings = Dist::new(on.into_vars(), parts);

        // Filter rounds: any unverified atom that is now fully bound.
        // Every variable of the atom is bound, so the join keeps each
        // binding once per copy of its row in the atom.
        for (j, atom) in query.atoms().iter().enumerate() {
            if verified[j] || !atom.vars.iter().all(|x| bindings.vars.contains(x)) {
                continue;
            }
            verified[j] = true;
            let on = SchemaJoin::new(&bindings.vars, &atom.vars);
            bindings.parts = expansion_round(
                &mut cluster,
                &h,
                &bindings,
                &sorted(rels[j].clone()),
                &atom.vars,
                |b, m| on.join(b, m),
            );
        }
    }
    assert!(verified.iter().all(|&x| x), "every atom must be verified");

    JoinRun {
        outputs: bindings.into_outputs(query.num_vars()),
        report: cluster.report(),
    }
}

/// `rel` with its rows in lexicographic order, repeats kept.
fn sorted(mut rel: Relation) -> Relation {
    rel.sort();
    rel
}

/// One round of the expansion join: the bindings and the rows of `side`
/// (over `side_vars`) meet on the variables they share — hashed in
/// `side_vars`' order, so a binding lands where the atom rows it needs
/// do — and each server applies `local` to the two fragments it holds.
fn expansion_round(
    cluster: &mut Cluster,
    h: &HashFamily,
    bindings: &Dist,
    side: &Relation,
    side_vars: &[Var],
    local: impl Fn(&Relation, &Relation) -> Relation,
) -> Vec<Relation> {
    let p = cluster.p();
    let key = SchemaJoin::new(side_vars, &bindings.vars);
    let arities = [bindings.vars.len(), side.arity()];
    let mut ex = cluster.exchange_rows(&arities);
    bindings.send(&mut ex, 0, |_, row| {
        [dest_of(h, row, key.right_key(), 0, p)]
    });
    route_input(&mut ex, 1, side, p, &[0], |_, row| {
        dest_of(h, row, key.left_key(), 0, p)
    });
    inbox_pairs(arities, ex.finish())
        .iter()
        .map(|(rows, side_rows)| local(rows, side_rows))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parqp_data::generate;
    use parqp_query::evaluate;

    fn check(q: &Query, rels: &[Relation], p: usize) -> JoinRun {
        let run = expansion_join(q, rels, p, 7);
        let expect = sorted(evaluate(q, rels));
        assert_eq!(sorted(run.gathered()), expect, "{q}");
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
        assert_eq!(sorted(a.gathered()), sorted(b.gathered()));
    }

    #[test]
    fn set_semantics_on_duplicates() {
        let q = Query::triangle();
        let mut g = Relation::from_rows(2, [[1, 2], [2, 3], [3, 1]]);
        g.push(&[1, 2]); // duplicate edge
        let rels = vec![g.clone(), g.clone(), g];
        let run = check(&q, &rels, 4);
        // The set is one triangle per rotation; the bag counts each
        // rotation twice, once per copy of the edge it uses.
        assert_eq!(run.gathered().canonical().len(), 3);
        assert_eq!(run.output_size(), 6);
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
