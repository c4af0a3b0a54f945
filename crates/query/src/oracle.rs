//! Serial evaluation: the local phase of the one-round algorithms and
//! the ground truth every distributed algorithm is tested against.
//!
//! The evaluators and the counter are exact and single-machine:
//!
//! * [`evaluate`] — an index nested-loop join that processes atoms left
//!   to right. Worst-case exponential like any join. It is not only an
//!   oracle: HyperCube and SkewHC call it on every server for their
//!   local phase, so it runs on the flat [`KeyIndex`] kernel, one loop
//!   per atom, each loop a [`KeyIndex::for_each_match`] probe whose
//!   continuation is the next atom's loop, all writing one binding row
//!   in place. Each full binding goes to a sink: [`evaluate`] pushes it
//!   into a relation, and [`evaluate_each`] hands it to the caller, who
//!   may count or fold the answer without holding it. The plain
//!   `FastMap<Vec<Value>, …>` version it replaced lives on as this
//!   file's `#[cfg(test)]` `reference` module, and a differential
//!   property test holds the two to the same output rows in the same
//!   order.
//! * [`yannakakis_serial`] — the Yannakakis algorithm over a width-1 GHD
//!   (slides 64–77): upward semijoin phase, downward semijoin phase, then
//!   a bottom-up join phase, running in `O(IN + OUT)`. Every step is a
//!   [`SchemaJoin`], the local join the distributed algorithms share.
//! * [`acyclic_output_size`] — the size of that join and nothing else, in
//!   `O(IN)`: Yannakakis carrying counts instead of tuples. Every tuple
//!   holds the number of ways it extends into its bag's subtree; a child
//!   hands its parent "join key → Σ count" and the parent multiplies. It
//!   needs no semijoin phase because a dangling tuple is simply a tuple
//!   whose count reaches 0, and a 0 contributes nothing to any sum above
//!   it — the filtering the two semijoin passes exist for happens in the
//!   arithmetic. This is what the planner reads OUT from.
//!
//! Both evaluators produce the full natural join with output schema
//! `x₀ … x_{k-1}` under **bag semantics** (tests compare canonical set
//! forms when an algorithm is only set-equivalent); the counter counts
//! that bag.

use crate::ghd::Ghd;
use crate::query::{Query, Var};
use crate::schema::{in_variable_order, SchemaJoin};
use parqp_data::{KeyIndex, Relation, Value};

/// Evaluate `q` over `rels` (one relation per atom, positionally).
///
/// # Panics
/// Panics if `rels.len() != q.num_atoms()` or an atom's arity disagrees
/// with its relation.
pub fn evaluate(q: &Query, rels: &[Relation]) -> Relation {
    let mut out = Relation::new(q.num_vars());
    evaluate_each(q, rels, |row| out.push(row));
    out
}

/// [`evaluate`] without the output relation: `sink(row)` once per row
/// of the answer, in [`evaluate`]'s order, each row the binding
/// `x₀ … x_{k-1}` (valid only for the call). A caller that only counts,
/// digests or aggregates the answer folds it here and never holds it.
///
/// # Panics
/// As [`evaluate`].
pub fn evaluate_each(q: &Query, rels: &[Relation], mut sink: impl FnMut(&[Value])) {
    check_inputs(q, rels);
    let mut atoms = q.atoms().iter().zip(rels);
    let Some((first, first_rel)) = atoms.next() else {
        return;
    };
    if rels.iter().any(Relation::is_empty) {
        return;
    }

    // Per atom after the first: the columns whose variable an earlier
    // atom binds (the probe key), those variables, and the (column,
    // variable) pairs the atom binds itself.
    type Plan = (Vec<usize>, Vec<Var>, Vec<(usize, Var)>);
    let mut bound = first.vars.clone();
    let plans: Vec<Plan> = atoms
        .clone()
        .map(|(atom, _)| {
            let (shared, fresh): (Vec<_>, Vec<_>) = atom
                .vars
                .iter()
                .copied()
                .enumerate()
                .partition(|(_, v)| bound.contains(v));
            bound.extend(fresh.iter().map(|&(_, v)| v));
            let (key_cols, key_vars) = shared.into_iter().unzip();
            (key_cols, key_vars, fresh)
        })
        .collect();

    let steps: Vec<Step<'_>> = plans
        .iter()
        .zip(atoms)
        .map(|((key_cols, key_vars, fresh), (_, rel))| Step {
            index: KeyIndex::build(rel, key_cols),
            key_vars,
            fresh,
        })
        .collect();

    // Nested-loop order — first atom's rows outermost, each later atom's
    // matches in its own row order — without materialising a level: one
    // binding row `cur`, indexed by variable, written in place as the
    // loops descend. A value written at a deeper step is stale after
    // backtracking but is rewritten before anything reads it.
    let mut cur: Vec<Value> = vec![0; q.num_vars()];
    for row in first_rel.iter() {
        for (&v, &x) in first.vars.iter().zip(row) {
            cur[v] = x;
        }
        walk(&steps, &mut cur, &mut sink);
    }
}

/// One level of [`evaluate`]'s nested loop: an atom's relation indexed
/// on the columns an earlier atom binds, those variables, and the
/// (column, variable) pairs the atom binds itself.
struct Step<'a> {
    index: KeyIndex<'a, Relation>,
    key_vars: &'a [Var],
    fresh: &'a [(usize, Var)],
}

impl Step<'_> {
    /// `f(cur)` once per row of this atom that agrees with `cur` on the
    /// key, in row order, with that row's fresh variables bound.
    #[inline(always)]
    fn each(&self, cur: &mut [Value], mut f: impl FnMut(&mut [Value])) {
        let rel = self.index.rows();
        self.index.for_each_match(cur, self.key_vars, |cur, i| {
            let matched = rel.row(i);
            for &(pos, v) in self.fresh {
                cur[v] = matched[pos];
            }
            f(cur);
        });
    }
}

/// The loops of `steps` under the binding `cur`, each full binding
/// handed to `sink`. The last step runs inside its parent's loop rather
/// than through a call, so the closing probe — the triangle's `T(z, x)`,
/// almost always a miss — costs a hash and a filter byte.
fn walk<F: FnMut(&[Value])>(steps: &[Step<'_>], cur: &mut [Value], sink: &mut F) {
    match steps {
        [] => sink(cur),
        [last] => last.each(cur, |cur| sink(cur)),
        [step, last] => step.each(cur, |cur| last.each(cur, |cur| sink(cur))),
        [step, rest @ ..] => step.each(cur, |cur| walk(rest, cur, sink)),
    }
}

/// The Yannakakis algorithm over a width-1 GHD whose bags each carry
/// exactly one atom (a join tree). `O(IN + OUT)`.
///
/// # Panics
/// Panics if the GHD is not a width-1 join tree of `q`, or input shapes
/// disagree with the query.
pub fn yannakakis_serial(q: &Query, rels: &[Relation], tree: &Ghd) -> Relation {
    let bags = join_tree_bags(q, rels, tree);
    // Working copies, one per bag.
    let mut work: Vec<Relation> = bags.iter().map(|&(_, rel)| rel.clone()).collect();

    let order = tree.topological_order(); // parents before children

    // Upward semijoin phase: leaves to root.
    for &b in order.iter().rev() {
        if let Some(parent) = tree.parent[b] {
            let on = SchemaJoin::new(bags[parent].0, bags[b].0);
            work[parent] = on.semijoin(&work[parent], &work[b]);
        }
    }
    // Downward semijoin phase: root to leaves.
    for &b in &order {
        if let Some(parent) = tree.parent[b] {
            let on = SchemaJoin::new(bags[b].0, bags[parent].0);
            work[b] = on.semijoin(&work[b], &work[parent]);
        }
    }

    // Join phase: fold children into parents, bottom-up, each partial
    // result beside its variables.
    type Side = (Vec<Var>, Relation);
    let join = |(left_vars, left): Side, (right_vars, right): Side| {
        let on = SchemaJoin::new(&left_vars, &right_vars);
        let joined = on.join(&left, &right);
        (on.into_vars(), joined)
    };
    let mut partial: Vec<Option<Side>> = bags
        .iter()
        .zip(work)
        .map(|(&(vars, _), rel)| Some((vars.to_vec(), rel)))
        .collect();
    for &b in order.iter().rev() {
        if let Some(parent) = tree.parent[b] {
            let child = partial[b].take().expect("child joined once");
            let parent_side = partial[parent].take().expect("parent present");
            partial[parent] = Some(join(parent_side, child));
        }
    }

    // Combine roots (forest ⇒ Cartesian product across components).
    let (vars, rel) = order
        .iter()
        .filter(|&&b| tree.parent[b].is_none())
        .map(|&b| partial[b].take().expect("root present"))
        .reduce(join)
        .expect("at least one root");
    in_variable_order(rel, &vars)
}

/// `yannakakis_serial(q, rels, tree).len()` without the join: the exact
/// output size of an acyclic query in `O(IN)` time and `O(IN)` words,
/// saturating at `u64::MAX`.
///
/// Every tuple of every bag carries one weight, the number of ways it
/// extends to a joining combination of its bag's subtree (1 at a leaf).
/// Bags are visited children before parents. A finished child becomes a
/// message "join key → Σ weight" — one [`KeyIndex`] over its shared
/// columns, the sum folded into the key's first row — and each parent
/// tuple multiplies its weight by the message for its key, or by 0 when
/// the child has no such key. A root's count is the sum of its weights;
/// a forest's is the product of its roots' (the Cartesian product across
/// components). Bag semantics throughout: duplicate tuples are separate
/// tuples with separate weights, and an empty atom makes every count
/// above it, and the product, 0.
///
/// # Panics
/// As [`yannakakis_serial`].
pub fn acyclic_output_size(q: &Query, rels: &[Relation], tree: &Ghd) -> u64 {
    let bags = join_tree_bags(q, rels, tree);
    let mut weights: Vec<Vec<u64>> = bags.iter().map(|&(_, rel)| vec![1; rel.len()]).collect();
    let mut total: u64 = 1;
    for &b in tree.topological_order().iter().rev() {
        // Children come later in the order, so `b`'s weights are final.
        let mut message = std::mem::take(&mut weights[b]);
        let Some(parent) = tree.parent[b] else {
            let count = message.iter().fold(0u64, |sum, &w| sum.saturating_add(w));
            total = total.saturating_mul(count);
            continue;
        };
        let ((parent_vars, parent_rel), (child_vars, child_rel)) = (bags[parent], bags[b]);
        let on = SchemaJoin::new(parent_vars, child_vars);
        let (parent_cols, child_cols) = (on.left_key(), on.right_key());
        let index = KeyIndex::build(child_rel, child_cols);
        // Fold every later row of a key into the key's first row, in
        // place: that row's weight becomes the message for the key.
        for (i, row) in child_rel.iter().enumerate() {
            let w = message[i];
            let first = index.probe(row, child_cols).next();
            let earlier = first.filter(|&first| first != i);
            if let Some(sum) = earlier.and_then(|first| message.get_mut(first)) {
                *sum = sum.saturating_add(w);
            }
        }
        for (row, w) in parent_rel.iter().zip(&mut weights[parent]) {
            // No child row on this key: the message is 0.
            let first = index.probe(row, parent_cols).next();
            let sum = first.and_then(|first| message.get(first));
            *w = w.saturating_mul(sum.copied().unwrap_or(0));
        }
    }
    total
}

/// Check that `tree` is a width-1 join tree of `q` with one bag per
/// atom, and resolve each bag to its atom's variables and relation.
fn join_tree_bags<'a>(
    q: &'a Query,
    rels: &'a [Relation],
    tree: &Ghd,
) -> Vec<(&'a [Var], &'a Relation)> {
    check_inputs(q, rels);
    tree.validate(q).expect("invalid GHD");
    assert!(
        tree.width() == 1,
        "serial Yannakakis requires a width-1 join tree"
    );
    assert_eq!(
        tree.bags.len(),
        q.num_atoms(),
        "join tree must have one bag per atom"
    );
    let atoms: Vec<(&[Var], &Relation)> = q
        .atoms()
        .iter()
        .zip(rels)
        .map(|(atom, rel)| (atom.vars.as_slice(), rel))
        .collect();
    // Width 1 and no empty cover: exactly one atom per bag.
    tree.bags
        .iter()
        .flat_map(|bag| &bag.atoms)
        .map(|&a| atoms[a])
        .collect()
}

fn check_inputs(q: &Query, rels: &[Relation]) {
    assert_eq!(rels.len(), q.num_atoms(), "one relation per atom required");
    for (a, r) in q.atoms().iter().zip(rels) {
        assert_eq!(a.arity(), r.arity(), "arity mismatch for atom {}", a.name);
    }
}

/// The evaluators as they were before the [`KeyIndex`] kernel, bodies
/// unchanged: one heap key and one heap value per build row, one heap
/// row per binding. Kept as the executable statement of what the kernel
/// versions — `evaluate` and [`SchemaJoin`]'s join and semijoin — must
/// output, row for row.
#[cfg(test)]
mod reference {
    use super::check_inputs;
    use crate::query::{Query, Var};
    use parqp_data::{FastMap, Relation, Value};

    pub fn evaluate(q: &Query, rels: &[Relation]) -> Relation {
        check_inputs(q, rels);
        // Bindings over the variables bound so far, in `bound` order.
        let mut bound: Vec<Var> = Vec::new();
        let mut bindings: Vec<Vec<Value>> = vec![Vec::new()];

        for (atom, rel) in q.atoms().iter().zip(rels) {
            let shared: Vec<usize> = atom
                .vars
                .iter()
                .enumerate()
                .filter_map(|(pos, v)| bound.contains(v).then_some(pos))
                .collect();
            let fresh: Vec<usize> = atom
                .vars
                .iter()
                .enumerate()
                .filter_map(|(pos, v)| (!bound.contains(v)).then_some(pos))
                .collect();
            let bound_idx_of_shared: Vec<usize> = shared
                .iter()
                .map(|&pos| {
                    bound
                        .iter()
                        .position(|&b| b == atom.vars[pos])
                        .expect("shared is bound")
                })
                .collect();

            // Build: key = shared positions (in `shared` order) → fresh values.
            let mut table: FastMap<Vec<Value>, Vec<Vec<Value>>> = FastMap::default();
            for row in rel.iter() {
                let key: Vec<Value> = shared.iter().map(|&p| row[p]).collect();
                let val: Vec<Value> = fresh.iter().map(|&p| row[p]).collect();
                table.entry(key).or_default().push(val);
            }

            let mut next = Vec::new();
            for b in &bindings {
                let key: Vec<Value> = bound_idx_of_shared.iter().map(|&i| b[i]).collect();
                if let Some(matches) = table.get(&key) {
                    for m in matches {
                        let mut nb = b.clone();
                        nb.extend_from_slice(m);
                        next.push(nb);
                    }
                }
            }
            bindings = next;
            bound.extend(fresh.iter().map(|&p| atom.vars[p]));
            if bindings.is_empty() {
                return Relation::new(q.num_vars());
            }
        }

        bindings_to_relation(q.num_vars(), &bound, bindings)
    }

    pub fn semijoin(
        left: &Relation,
        left_vars: &[Var],
        right: &Relation,
        right_vars: &[Var],
    ) -> Relation {
        let shared: Vec<(usize, usize)> = left_vars
            .iter()
            .enumerate()
            .filter_map(|(lp, v)| right_vars.iter().position(|rv| rv == v).map(|rp| (lp, rp)))
            .collect();
        if shared.is_empty() {
            return if right.is_empty() {
                Relation::new(left.arity())
            } else {
                left.clone()
            };
        }
        let mut keys: parqp_data::FastSet<Vec<Value>> = parqp_data::FastSet::default();
        for row in right.iter() {
            keys.insert(shared.iter().map(|&(_, rp)| row[rp]).collect());
        }
        left.filter(|row| keys.contains(&shared.iter().map(|&(lp, _)| row[lp]).collect::<Vec<_>>()))
    }

    pub fn join_on_schemas(
        left: &Relation,
        left_vars: &[Var],
        right: &Relation,
        right_vars: &[Var],
    ) -> (Relation, Vec<Var>) {
        let shared: Vec<(usize, usize)> = left_vars
            .iter()
            .enumerate()
            .filter_map(|(lp, v)| right_vars.iter().position(|rv| rv == v).map(|rp| (lp, rp)))
            .collect();
        let fresh: Vec<usize> = (0..right_vars.len())
            .filter(|&rp| !left_vars.contains(&right_vars[rp]))
            .collect();

        let mut table: FastMap<Vec<Value>, Vec<Vec<Value>>> = FastMap::default();
        for row in right.iter() {
            let key: Vec<Value> = shared.iter().map(|&(_, rp)| row[rp]).collect();
            let val: Vec<Value> = fresh.iter().map(|&p| row[p]).collect();
            table.entry(key).or_default().push(val);
        }

        let mut schema = left_vars.to_vec();
        schema.extend(fresh.iter().map(|&p| right_vars[p]));
        let mut out = Relation::new(schema.len());
        let mut buf = Vec::with_capacity(schema.len());
        for row in left.iter() {
            let key: Vec<Value> = shared.iter().map(|&(lp, _)| row[lp]).collect();
            if let Some(matches) = table.get(&key) {
                for m in matches {
                    buf.clear();
                    buf.extend_from_slice(row);
                    buf.extend_from_slice(m);
                    out.push(&buf);
                }
            }
        }
        (out, schema)
    }

    fn bindings_to_relation(num_vars: usize, schema: &[Var], rows: Vec<Vec<Value>>) -> Relation {
        assert_eq!(schema.len(), num_vars, "result must bind every variable");
        let mut order = vec![0usize; num_vars];
        for (i, &v) in schema.iter().enumerate() {
            order[v] = i;
        }
        let mut out = Relation::with_capacity(num_vars, rows.len());
        let mut buf = vec![0; num_vars];
        for r in rows {
            for (v, slot) in buf.iter_mut().enumerate() {
                *slot = r[order[v]];
            }
            out.push(&buf);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ghd::Ghd;

    #[test]
    fn two_way_join_basic() {
        let q = Query::two_way();
        let r = Relation::from_rows(2, [[1, 10], [2, 10], [3, 20]]);
        let s = Relation::from_rows(2, [[10, 100], [20, 200], [20, 201]]);
        let out = evaluate(&q, &[r, s]);
        let mut rows = out.to_rows();
        rows.sort();
        assert_eq!(
            rows,
            vec![
                vec![1, 10, 100],
                vec![2, 10, 100],
                vec![3, 20, 200],
                vec![3, 20, 201]
            ]
        );
    }

    #[test]
    fn triangle_finds_triangles() {
        let q = Query::triangle();
        // Triangle on 1-2-3 plus a stray edge.
        let r = Relation::from_rows(2, [[1, 2], [1, 9]]);
        let s = Relation::from_rows(2, [[2, 3]]);
        let t = Relation::from_rows(2, [[3, 1]]);
        let out = evaluate(&q, &[r, s, t]);
        assert_eq!(out.to_rows(), vec![vec![1, 2, 3]]);
    }

    #[test]
    fn product_is_cartesian() {
        let q = Query::product();
        let r = Relation::from_rows(1, [[1], [2]]);
        let s = Relation::from_rows(1, [[7], [8], [9]]);
        let out = evaluate(&q, &[r, s]);
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn bag_semantics_multiplicities() {
        let q = Query::two_way();
        let r = Relation::from_rows(2, [[1, 5], [1, 5]]);
        let s = Relation::from_rows(2, [[5, 9]]);
        assert_eq!(evaluate(&q, &[r, s]).len(), 2);
    }

    #[test]
    fn empty_input_empty_output() {
        let q = Query::triangle();
        let e = Relation::new(2);
        let out = evaluate(&q, &[e.clone(), e.clone(), e]);
        assert!(out.is_empty());
        assert_eq!(out.arity(), 3);
    }

    #[test]
    fn semijoin_filters() {
        let l = Relation::from_rows(2, [[1, 2], [3, 4]]);
        let r = Relation::from_rows(2, [[2, 7]]);
        let out = SchemaJoin::new(&[0, 1], &[1, 5]).semijoin(&l, &r);
        assert_eq!(out.to_rows(), vec![vec![1, 2]]);
    }

    #[test]
    fn semijoin_disjoint_schemas_checks_emptiness() {
        let l = Relation::from_rows(1, [[1], [2]]);
        let nonempty = Relation::from_rows(1, [[9]]);
        let empty = Relation::new(1);
        let on = SchemaJoin::new(&[0], &[1]);
        assert_eq!(on.semijoin(&l, &nonempty).len(), 2);
        assert_eq!(on.semijoin(&l, &empty).len(), 0);
    }

    #[test]
    fn yannakakis_matches_evaluate_on_chain() {
        let q = Query::chain(3);
        let rels: Vec<Relation> = (0..3)
            .map(|i| parqp_data::generate::uniform(2, 60, 12, i as u64))
            .collect();
        let tree = Ghd::join_tree(&q).expect("chains are acyclic");
        let fast = yannakakis_serial(&q, &rels, &tree);
        let slow = evaluate(&q, &rels);
        assert_eq!(fast.canonical(), slow.canonical());
    }

    #[test]
    fn yannakakis_matches_evaluate_on_slide64() {
        let q = Query::slide64_tree();
        let rels: Vec<Relation> = (0..5)
            .map(|i| parqp_data::generate::uniform(2, 40, 8, 100 + i as u64))
            .collect();
        let tree = Ghd::join_tree(&q).expect("tree query is acyclic");
        let fast = yannakakis_serial(&q, &rels, &tree);
        let slow = evaluate(&q, &rels);
        assert_eq!(fast.canonical(), slow.canonical());
    }

    #[test]
    fn yannakakis_star_with_dangling_tuples() {
        let q = Query::star(3);
        // Center value 1 joins everywhere; 2 dangles (absent from R3).
        let r1 = Relation::from_rows(2, [[1, 10], [2, 20]]);
        let r2 = Relation::from_rows(2, [[1, 30], [2, 40]]);
        let r3 = Relation::from_rows(2, [[1, 50]]);
        let tree = Ghd::join_tree(&q).expect("stars are acyclic");
        let out = yannakakis_serial(&q, &[r1.clone(), r2.clone(), r3.clone()], &tree);
        let expect = evaluate(&q, &[r1, r2, r3]);
        assert_eq!(out.canonical(), expect.canonical());
        assert_eq!(out.len(), 1);
    }
}

/// Kernel versus [`reference`]: the same rows in the same order
/// (`raw()`-equality, stronger than the canonical comparisons above).
#[cfg(test)]
mod differential {
    use super::{acyclic_output_size, evaluate, evaluate_each, reference, yannakakis_serial};
    use crate::ghd::Ghd;
    use crate::query::{Atom, Query, Var};
    use crate::schema::SchemaJoin;
    use parqp_data::{Relation, Value};
    use parqp_testkit::prelude::*;

    /// A random conjunctive query: 1–4 atoms of arity 1–3 over at most
    /// five variables, renumbered so every variable occurs. Atoms
    /// sharing nothing (products), one variable, or two or three
    /// (composite keys) all come up.
    fn random_query(rng: &mut Rng) -> Query {
        let pool = rng.gen_range(1usize..=5);
        let mut atoms: Vec<Vec<Var>> = (0..rng.gen_range(1usize..=4))
            .map(|_| {
                let mut vars: Vec<Var> = (0..pool).collect();
                rng.shuffle(&mut vars);
                vars.truncate(rng.gen_range(1usize..=3.min(pool)));
                vars
            })
            .collect();
        let mut used: Vec<Var> = atoms.iter().flatten().copied().collect();
        used.sort_unstable();
        used.dedup();
        for vars in &mut atoms {
            for v in vars {
                *v = used.binary_search(v).expect("v is used");
            }
        }
        let atoms = atoms
            .into_iter()
            .enumerate()
            .map(|(i, vars)| Atom::new(format!("A{i}"), vars))
            .collect();
        Query::new(used.len(), atoms)
    }

    /// One relation in one of the shapes the kernel has to survive.
    fn random_relation(rng: &mut Rng, arity: usize) -> Relation {
        let rows = match rng.gen_below(8) {
            0 => 0,
            1 => 1,
            _ => rng.gen_range(2usize..=40),
        };
        let shape = rng.gen_below(5);
        let mut rel = Relation::with_capacity(arity, rows);
        let mut row: Vec<Value> = vec![0; arity];
        for i in 0..rows {
            for slot in &mut row {
                *slot = match shape {
                    // Every row on one key.
                    0 => 3,
                    // Small domain: many matches, duplicate rows.
                    1 => rng.gen_below(3),
                    // Values that differ only above bit 40: the hash's
                    // low input bits are all equal.
                    2 => rng.gen_below(4) << 40 | 1,
                    // Multiples of a large power of two: equal after any
                    // shift that keeps the low bits.
                    3 => rng.gen_below(4) << 60,
                    _ => rng.gen_below(6),
                };
            }
            rel.push(&row);
            // Duplicate rows on top of whatever the shape produced.
            if i % 5 == 4 {
                rel.push(&row);
            }
        }
        rel
    }

    fn random_relations(rng: &mut Rng, q: &Query) -> Vec<Relation> {
        q.atoms()
            .iter()
            .map(|a| random_relation(rng, a.arity()))
            .collect()
    }

    fn random_instance(seed: u64) -> (Query, Vec<Relation>) {
        let mut rng = Rng::seed_from_u64(seed);
        let q = random_query(&mut rng);
        let rels = random_relations(&mut rng, &q);
        (q, rels)
    }

    /// [`random_instance`] over acyclic bodies only: queries are redrawn
    /// until GYO finds a join tree (most draws have one; forests and
    /// products count).
    fn random_acyclic_instance(seed: u64) -> (Query, Vec<Relation>, Ghd) {
        let mut rng = Rng::seed_from_u64(seed);
        loop {
            let q = random_query(&mut rng);
            if let Some(tree) = Ghd::join_tree(&q) {
                let rels = random_relations(&mut rng, &q);
                return (q, rels, tree);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn evaluate_is_the_reference_row_for_row(seed in any::<u64>()) {
            let (q, rels) = random_instance(seed);
            let ours = evaluate(&q, &rels);
            let theirs = reference::evaluate(&q, &rels);
            prop_assert_eq!(ours.arity(), theirs.arity());
            prop_assert_eq!(ours.raw(), theirs.raw(), "query {:?}", q);
        }

        #[test]
        fn evaluate_each_streams_what_evaluate_writes(seed in any::<u64>()) {
            let (q, rels) = random_instance(seed);
            let written = evaluate(&q, &rels);
            let mut streamed = Vec::with_capacity(written.raw().len());
            let mut widths_ok = true;
            evaluate_each(&q, &rels, |row| {
                widths_ok &= row.len() == q.num_vars();
                streamed.extend_from_slice(row);
            });
            prop_assert!(widths_ok, "query {:?}", q);
            prop_assert_eq!(written.raw(), &streamed[..], "query {:?}", q);
        }

        #[test]
        fn semijoin_and_join_are_the_reference_row_for_row(seed in any::<u64>()) {
            // Any two atoms of a random query are a pair of schemas.
            let (q, rels) = random_instance(seed);
            let last = q.num_atoms() - 1;
            let (l, r) = (&q.atoms()[0], &q.atoms()[last]);
            let on = SchemaJoin::new(&l.vars, &r.vars);
            let ours = on.semijoin(&rels[0], &rels[last]);
            let theirs = reference::semijoin(&rels[0], &l.vars, &rels[last], &r.vars);
            prop_assert_eq!(ours.raw(), theirs.raw(), "semijoin of {:?}", q);

            let ours = on.join(&rels[0], &rels[last]);
            let (theirs, their_schema) =
                reference::join_on_schemas(&rels[0], &l.vars, &rels[last], &r.vars);
            prop_assert_eq!(on.into_vars(), their_schema);
            prop_assert_eq!(ours.arity(), theirs.arity());
            prop_assert_eq!(ours.raw(), theirs.raw(), "join of {:?}", q);
        }

        #[test]
        fn the_count_is_the_size_of_the_join(seed in any::<u64>()) {
            let (q, rels, tree) = random_acyclic_instance(seed);
            let counted = acyclic_output_size(&q, &rels, &tree);
            let joined = yannakakis_serial(&q, &rels, &tree).len() as u64;
            prop_assert_eq!(counted, joined, "query {:?} over {:?}", q, tree.parent);
            prop_assert_eq!(counted, evaluate(&q, &rels).len() as u64, "query {:?}", q);
        }
    }

    /// The count on shapes where each of its steps decides the answer.
    #[test]
    fn named_shapes_count_what_the_join_has() {
        let pairs = |rows: &[[Value; 2]]| Relation::from_rows(2, rows);
        let cases: Vec<(Query, Vec<Relation>, u64)> = vec![
            // Every tuple dangles somewhere: R–S join, S–T join, but no
            // S tuple does both. Only a zero message gets this to 0.
            (
                Query::chain(3),
                vec![
                    pairs(&[[1, 2], [1, 3]]),
                    pairs(&[[2, 8], [4, 9]]),
                    pairs(&[[9, 5], [9, 6]]),
                ],
                0,
            ),
            // Star on a shared hub: degrees 2·3·1 on hub 7, 1·0·2 on hub 8.
            (
                Query::star(3),
                vec![
                    pairs(&[[7, 1], [7, 2], [8, 1]]),
                    pairs(&[[7, 1], [7, 1], [7, 3]]),
                    pairs(&[[7, 4], [8, 4], [8, 5]]),
                ],
                6,
            ),
            // Two components, 3 × 2 joining pairs: the roots multiply.
            (
                Query::new(
                    4,
                    vec![
                        Atom::new("R", vec![0, 1]),
                        Atom::new("S", vec![1]),
                        Atom::new("T", vec![2, 3]),
                        Atom::new("U", vec![3]),
                    ],
                ),
                vec![
                    pairs(&[[1, 5], [2, 5], [3, 5], [4, 6]]),
                    Relation::from_rows(1, [[5]]),
                    pairs(&[[1, 9], [2, 9]]),
                    Relation::from_rows(1, [[9], [8]]),
                ],
                6,
            ),
        ];
        for (q, rels, expect) in cases {
            let tree = Ghd::join_tree(&q).expect("acyclic");
            assert_eq!(acyclic_output_size(&q, &rels, &tree), expect, "{q:?}");
            assert_eq!(yannakakis_serial(&q, &rels, &tree).len() as u64, expect);
        }
    }

    /// A count beyond `u64` saturates: it neither wraps nor panics, and
    /// a zero above it still wins.
    #[test]
    fn a_count_past_u64_saturates() {
        // Chains of 4096 copies of (7, 7) per atom, OUT = 4096ⁿ. A path
        // multiplies each weight once, so it is the sums that overflow:
        // the root's total at n = 6, a child's message at n = 7.
        for n in [6, 7] {
            let q = Query::chain(n);
            let tree = Ghd::join_tree(&q).expect("acyclic");
            let mut rels = vec![Relation::from_rows(2, vec![[7u64, 7]; 4096]); n];
            assert_eq!(acyclic_output_size(&q, &rels, &tree), u64::MAX, "n = {n}");
            // One empty atom and the saturated part is multiplied away.
            rels[3] = Relation::new(2);
            assert_eq!(acyclic_output_size(&q, &rels, &tree), 0, "n = {n}");
        }
        // Flat star, 2¹⁶ rows on one hub in each of 5 atoms: a root row
        // multiplies four messages of 2¹⁶, and that product overflows.
        let q = Query::star(5);
        let rels = vec![Relation::from_rows(2, vec![[7u64, 7]; 1 << 16]); 5];
        assert_eq!(
            acyclic_output_size(&q, &rels, &Ghd::star_flat(&q)),
            u64::MAX
        );
        // Six one-atom components of 4096 rows: the product of the roots
        // is 2⁷² as well.
        let forest = Query::new(
            6,
            (0..6)
                .map(|i| Atom::new(format!("A{i}"), vec![i]))
                .collect(),
        );
        let forest_tree = Ghd::join_tree(&forest).expect("acyclic");
        let unary = vec![Relation::from_rows(1, vec![[7u64]; 4096]); 6];
        assert_eq!(acyclic_output_size(&forest, &unary, &forest_tree), u64::MAX);
    }

    /// The property above draws relations of at most 48 rows, so every
    /// table it probes has at most 64 buckets. These cases are 300–3,000
    /// rows a relation: tables of up to 4,096 buckets, chains made long by
    /// duplicate rows and Zipf hubs, and miss-filter slots set by other
    /// keys, so a set slot still ends in a chain that holds no match.
    #[test]
    fn evaluate_at_index_sizes_is_the_reference_row_for_row() {
        use parqp_data::generate::{random_symmetric_graph, uniform, zipf_pairs};
        // Every seventh row again, at the end.
        let with_duplicates = |mut rel: Relation| {
            let copies: Vec<Vec<Value>> = rel.iter().step_by(7).map(<[Value]>::to_vec).collect();
            for row in &copies {
                rel.push(row);
            }
            rel
        };
        let mut cases: Vec<(&str, Query, Vec<Relation>)> = Vec::new();
        for seed in [1, 2] {
            let g = random_symmetric_graph(300, 3000, seed);
            cases.push(("triangle", Query::triangle(), vec![g.clone(), g.clone(), g]));
        }
        let rels = (0..4).map(|i| uniform(2, 800, 120, 30 + i)).collect();
        cases.push(("4-cycle", Query::cycle(4), rels));
        let rels = (0..3)
            .map(|i| with_duplicates(zipf_pairs(600, 300, 1.1, 0, 40 + i)))
            .collect();
        cases.push(("Zipf 3-chain with duplicates", Query::chain(3), rels));
        // The second atom is probed on all three of its columns.
        let composite = Query::new(
            3,
            vec![Atom::new("R", vec![0, 1, 2]), Atom::new("S", vec![2, 0, 1])],
        );
        let rels = vec![uniform(3, 2000, 6, 50), uniform(3, 2000, 6, 51)];
        cases.push(("3-column key", composite, rels));
        // The middle atom shares no variable: its step scans every row.
        let product = Query::new(
            4,
            vec![
                Atom::new("R", vec![0, 1]),
                Atom::new("T", vec![3]),
                Atom::new("S", vec![1, 2]),
            ],
        );
        let rels = vec![
            uniform(2, 500, 1000, 60),
            uniform(1, 300, 1 << 40, 61),
            uniform(2, 300, 1000, 62),
        ];
        cases.push(("product step", product, rels));
        let g = random_symmetric_graph(300, 3000, 3);
        let rels = vec![g.clone(), Relation::new(2), g];
        cases.push(("empty middle atom", Query::triangle(), rels));

        for (name, q, rels) in cases {
            let ours = evaluate(&q, &rels);
            let theirs = reference::evaluate(&q, &rels);
            assert_eq!(ours.arity(), theirs.arity(), "{name}");
            assert_eq!(ours.raw(), theirs.raw(), "{name}");
            assert!(
                !ours.is_empty() || name == "empty middle atom",
                "{name} joins nothing"
            );
        }
    }

    /// The shapes the generator only hits by chance, pinned.
    #[test]
    fn named_shapes_match_the_reference() {
        let unary = |vals: &[Value]| Relation::from_rows(1, vals.iter().map(|&v| [v]));
        let cases: Vec<(Query, Vec<Relation>)> = vec![
            // Product of arity-1 atoms, one of them a single row.
            (Query::product(), vec![unary(&[4, 4, 9]), unary(&[7])]),
            // An empty atom in the middle.
            (
                Query::triangle(),
                vec![
                    Relation::from_rows(2, [[1, 2]]),
                    Relation::new(2),
                    Relation::from_rows(2, [[3, 1]]),
                ],
            ),
            // Composite 2-column key with duplicates (T is fully bound).
            (
                Query::triangle(),
                vec![
                    Relation::from_rows(2, [[1, 2], [1, 2], [5, 2]]),
                    Relation::from_rows(2, [[2, 3], [2, 3]]),
                    Relation::from_rows(2, [[3, 1], [3, 5], [3, 1]]),
                ],
            ),
            // Composite 3-column key: the second atom is the first, permuted.
            (
                Query::new(
                    3,
                    vec![Atom::new("R", vec![0, 1, 2]), Atom::new("S", vec![2, 0, 1])],
                ),
                vec![
                    Relation::from_rows(3, [[1, 2, 3], [4, 5, 6], [1, 2, 3]]),
                    Relation::from_rows(3, [[3, 1, 2], [6, 4, 5], [3, 1, 2], [3, 2, 1]]),
                ],
            ),
        ];
        for (q, rels) in cases {
            let ours = evaluate(&q, &rels);
            let theirs = reference::evaluate(&q, &rels);
            assert_eq!(ours.raw(), theirs.raw(), "{q:?}");
            assert_eq!(ours.arity(), theirs.arity());
        }
    }
}
