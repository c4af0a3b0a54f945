//! GYM: distributed Yannakakis over a GHD (slides 64–95).
//!
//! The Yannakakis algorithm evaluates an acyclic query in `O(IN + OUT)`
//! by an upward semijoin phase, a downward semijoin phase, and a join
//! phase over a width-1 join tree (slides 64–77). GYM distributes each
//! phase:
//!
//! * [`gym`] with `optimized = false` — **vanilla GYM** (slides 80–89):
//!   every semijoin and every join is its own communication round, giving
//!   `r = 3(n−1) = O(n)` rounds at load `O((IN+OUT)/p)`;
//! * [`gym`] with `optimized = true` — **optimized GYM**
//!   (slides 90–94): all semijoins of one tree level run in the same
//!   round (a parent with several children takes one filter round plus
//!   one intersection round), and the join phase absorbs all children of
//!   a node in one round on a per-node HyperCube grid — `r = O(d)` for a
//!   depth-`d` tree (slide 94's `r = 4` for the flat star);
//! * [`gym_ghd`] — **generalized GYM** (slide 95): materialize the bags
//!   of a width-`w` GHD with per-bag HyperCubes (one round), then run
//!   optimized GYM over the bag tree: `r = O(d)`,
//!   `L = O((IN^w + OUT)/p)` — the width/depth trade-off.
//!
//! Each semijoin round is one `common::Dist::semijoin` (a level's edges
//! together, each salted apart) and each pairwise join round, the roots'
//! products included, one `Dist::join`, as in the binary plans. Only the
//! intersection round and the per-node HyperCube join are GYM's own.
//!
//! GYM beats the one-round algorithms whenever
//! `OUT < p^{1−1/τ*} · IN` (slide 78) — experiment E11.

use crate::common::{dest_of, fragments, Dist, JoinRun, Semijoin};
use parqp_data::{FastMap, Relation, Value};
use parqp_mpc::hash::splitmix64;
use parqp_mpc::{Cluster, Grid, HashFamily, LoadReport};
use parqp_query::{Ghd, Query, SchemaJoin, Var};
use std::mem;

/// GYM over a width-1 join tree: `optimized = false` is vanilla
/// (`r = O(n)`), `optimized = true` runs per-level (`r = O(d)`).
///
/// ```
/// use parqp_join::gym::gym;
/// use parqp_query::{Ghd, Query};
/// use parqp_data::generate;
///
/// let q = Query::star(4);
/// let tree = Ghd::star_flat(&q);
/// let rels: Vec<_> = (0..4).map(|i| generate::uniform(2, 100, 20, i)).collect();
/// let vanilla = gym(&q, &rels, &tree, 8, 7, false);
/// let optimized = gym(&q, &rels, &tree, 8, 7, true);
/// assert_eq!(vanilla.report.num_rounds(), 9);   // slide 89
/// assert_eq!(optimized.report.num_rounds(), 4); // slide 94
/// assert_eq!(vanilla.gathered().canonical(), optimized.gathered().canonical());
/// ```
///
/// # Panics
/// Panics if the tree is not a valid width-1 join tree of `query` with
/// one bag per atom.
pub fn gym(
    query: &Query,
    rels: &[Relation],
    tree: &Ghd,
    p: usize,
    seed: u64,
    optimized: bool,
) -> JoinRun {
    assert_eq!(rels.len(), query.num_atoms(), "one relation per atom");
    tree.validate(query).expect("invalid GHD");
    assert_eq!(
        tree.width(),
        1,
        "gym requires a width-1 join tree; use gym_ghd"
    );
    assert_eq!(tree.bags.len(), query.num_atoms(), "one bag per atom");

    let mut cluster = Cluster::new(p);
    let h = HashFamily::new(seed, 4);
    let states: Vec<Dist> = tree
        .bags
        .iter()
        .map(|bag| {
            let a = bag.atoms[0];
            Dist::scatter(&rels[a], &query.atoms()[a].vars, p)
        })
        .collect();

    let final_dist = run_yannakakis(&mut cluster, &h, tree, states, optimized);
    JoinRun {
        report: cluster.report(),
        outputs: final_dist.into_outputs(query.num_vars()),
    }
}

/// Generalized GYM over any GHD (slide 95): one round of per-bag
/// HyperCube materialization, then optimized GYM over the bag tree.
/// Bag relations are materialized under set semantics.
///
/// A bag whose cover atoms are *disconnected* (e.g. the internal bags of
/// [`Ghd::chain_balanced`]) materializes their Cartesian product — the
/// `IN^w` term of slide 95's load bound is real. Size inputs
/// accordingly.
///
/// # Panics
/// Panics if the GHD is invalid for `query`.
pub fn gym_ghd(query: &Query, rels: &[Relation], ghd: &Ghd, p: usize, seed: u64) -> JoinRun {
    ghd.validate(query).expect("invalid GHD");
    let nbags = ghd.bags.len();

    // Materialize every bag: single-atom bags are free (placement);
    // multi-atom bags run a HyperCube on their cover in parallel blocks.
    let multi: Vec<usize> = (0..nbags)
        .filter(|&b| ghd.bags[b].atoms.len() > 1)
        .collect();
    let block = if multi.is_empty() {
        p
    } else {
        (p / multi.len()).max(1)
    };
    let mut mat_reports = Vec::new();
    let mut bag_rels: Vec<Relation> = Vec::with_capacity(nbags);
    for (bi, bag) in ghd.bags.iter().enumerate() {
        if let [a] = bag.atoms[..] {
            // Project the atom onto the bag variable order (λ covers it).
            let on = SchemaJoin::new(&bag.vars, &query.atoms()[a].vars);
            bag_rels.push(rels[a].project(on.right_key()));
        } else {
            let sub_atoms: Vec<parqp_query::Atom> = bag
                .atoms
                .iter()
                .map(|&a| query.atoms()[a].clone())
                .collect();
            let sub_rels: Vec<Relation> = bag.atoms.iter().map(|&a| rels[a].clone()).collect();
            // Renumber variables for the sub-query.
            let mut sub_vars: Vec<Var> = sub_atoms.iter().flat_map(|a| a.vars.clone()).collect();
            sub_vars.sort_unstable();
            sub_vars.dedup();
            let remap = |v: Var| sub_vars.iter().position(|&sv| sv == v).expect("in sub");
            let sub_q = Query::new(
                sub_vars.len(),
                sub_atoms
                    .iter()
                    .map(|a| {
                        parqp_query::Atom::new(
                            a.name.clone(),
                            a.vars.iter().map(|&v| remap(v)).collect(),
                        )
                    })
                    .collect(),
            );
            let run = if sub_rels.iter().any(Relation::is_empty) {
                JoinRun {
                    outputs: vec![Relation::new(sub_vars.len()); block],
                    report: LoadReport::idle(block, 1),
                }
            } else {
                crate::multiway::hypercube(&sub_q, &sub_rels, block, seed ^ bi as u64)
            };
            mat_reports.push(run.report.clone());
            // Project the sub-join onto the bag vars, deduplicated.
            let cols: Vec<usize> = bag.vars.iter().map(|&v| remap(v)).collect();
            bag_rels.push(run.gathered().project(&cols).canonical());
        }
    }
    let mat_report = if mat_reports.is_empty() {
        None
    } else {
        Some(LoadReport::parallel(&mat_reports).folded(p))
    };

    let mut cluster = Cluster::new(p);
    let h = HashFamily::new(seed ^ 0x6d79, 4);
    let states: Vec<Dist> = ghd
        .bags
        .iter()
        .zip(&bag_rels)
        .map(|(bag, rel)| Dist::scatter(rel, &bag.vars, p))
        .collect();
    let final_dist = run_yannakakis(&mut cluster, &h, ghd, states, true);
    let report = cluster.report();
    JoinRun {
        report: match mat_report {
            Some(mat) => LoadReport::sequential(&[mat, report]),
            None => report,
        },
        outputs: final_dist.into_outputs(query.num_vars()),
    }
}

/// The three Yannakakis phases over already-distributed bag states,
/// one per bag of `tree` (only its shape is read).
fn run_yannakakis(
    cluster: &mut Cluster,
    h: &HashFamily,
    tree: &Ghd,
    mut states: Vec<Dist>,
    optimized: bool,
) -> Dist {
    let order = tree.topological_order();
    let depth_of = {
        let mut d = vec![0usize; tree.bags.len()];
        for &b in &order {
            if let Some(par) = tree.parent[b] {
                d[b] = d[par] + 1;
            }
        }
        d
    };
    let max_depth = depth_of.iter().copied().max().unwrap_or(0);

    if optimized {
        // The (parent, child) edges into the bags at depth `level`, which
        // every depth up to `max_depth` has.
        let at = |level: usize| -> Vec<(usize, usize)> {
            order
                .iter()
                .filter(|&&b| depth_of[b] == level)
                .filter_map(|&b| tree.parent[b].map(|par| (par, b)))
                .collect()
        };
        // Upward, per level (deepest first): filter round (+ intersection
        // round when some parent has several children).
        for level in (1..=max_depth).rev() {
            upward_level(cluster, h, &mut states, &at(level));
        }
        // Downward, per level: every bag filtered by its parent, 1 round.
        for level in 1..=max_depth {
            let edges = level_edges(&states, &at(level));
            let filtered = filter_level(cluster, h, &states, &edges, false);
            for (e, child) in edges.iter().zip(filtered) {
                states[e.child] = child;
            }
        }
        // Join, per level (deepest first): each parent absorbs all its
        // children in one round on a per-parent HyperCube block.
        for level in (1..=max_depth).rev() {
            let mut by_parent: FastMap<usize, Vec<usize>> = FastMap::default();
            for (par, b) in at(level) {
                by_parent.entry(par).or_default().push(b);
            }
            join_level(cluster, h, &mut states, &by_parent);
        }
    } else {
        // Vanilla: one round per edge in every phase (slides 80–89). A
        // round consumes the state it replaces, and the join phase the
        // child it folds in: nothing reads either again.
        for &b in order.iter().rev() {
            if let Some(par) = tree.parent[b] {
                states[par] = filter_by(cluster, h, mem::take(&mut states[par]), &states[b]);
            }
        }
        for &b in &order {
            if let Some(par) = tree.parent[b] {
                states[b] = filter_by(cluster, h, mem::take(&mut states[b]), &states[par]);
            }
        }
        for &b in order.iter().rev() {
            if let Some(par) = tree.parent[b] {
                let child = mem::take(&mut states[b]);
                states[par] = mem::take(&mut states[par]).join(child, cluster, h);
            }
        }
    }

    // Combine roots (forest ⇒ Cartesian product rounds).
    (0..tree.bags.len())
        .filter(|&b| tree.parent[b].is_none())
        .map(|b| mem::take(&mut states[b]))
        .reduce(|acc, right| acc.join(right, cluster, h))
        .unwrap_or_default()
}

/// Vanilla GYM's semijoin: `target ⋉ source` in a round of its own,
/// keyed in the target's column order. Bags that share no variable
/// (a hand-built tree may link such bags) need no round: the source's
/// emptiness decides, a 1-bit flag we do not charge.
fn filter_by(cluster: &mut Cluster, h: &HashFamily, target: Dist, source: &Dist) -> Dist {
    let on = SchemaJoin::new(&target.vars, &source.vars);
    if on.is_product() {
        if source.total() == 0 {
            let empty = vec![Relation::new(target.vars.len()); cluster.p()];
            return Dist::new(target.vars, empty);
        }
        return target;
    }
    let edge = Semijoin {
        target: &target,
        target_key: on.left_key(),
        source,
        source_key: on.right_key(),
        salt: 0,
    };
    Dist::semijoin(&[edge], cluster, h)
        .pop()
        .unwrap_or_default()
}

/// One (parent, child) edge of a level round and how the two bags join.
struct Edge {
    parent: usize,
    child: usize,
    on: SchemaJoin,
}

fn level_edges(states: &[Dist], edges: &[(usize, usize)]) -> Vec<Edge> {
    edges
        .iter()
        .map(|&(parent, child)| {
            let on = SchemaJoin::new(&states[parent].vars, &states[child].vars);
            assert!(!on.is_product(), "join-tree edges share variables");
            Edge { parent, child, on }
        })
        .collect()
}

/// The filter round of a level, every edge `i` keyed in its parent's
/// column order and salted by `splitmix64(i)`: each parent filtered by
/// its child (`upward`) or each child by its parent. Returns the
/// filtered targets in edge order.
fn filter_level(
    cluster: &mut Cluster,
    h: &HashFamily,
    states: &[Dist],
    edges: &[Edge],
    upward: bool,
) -> Vec<Dist> {
    let round: Vec<Semijoin<'_>> = edges
        .iter()
        .zip(0u64..)
        .map(|(e, i)| {
            let mut sides = [(e.parent, e.on.left_key()), (e.child, e.on.right_key())];
            if !upward {
                sides.reverse();
            }
            let [(target, target_key), (source, source_key)] = sides;
            Semijoin {
                target: &states[target],
                target_key,
                source: &states[source],
                source_key,
                salt: splitmix64(i),
            }
        })
        .collect();
    Dist::semijoin(&round, cluster, h)
}

/// Optimized upward level: all parents filtered by all their
/// level-children. One filter round; plus one intersection round if any
/// parent has ≥ 2 children here (slides 90–91).
fn upward_level(
    cluster: &mut Cluster,
    h: &HashFamily,
    states: &mut [Dist],
    edges: &[(usize, usize)],
) {
    let p = cluster.p();
    let edges = level_edges(states, edges);
    let mut filter_count: FastMap<usize, u32> = FastMap::default();
    for e in &edges {
        *filter_count.entry(e.parent).or_insert(0) += 1;
    }
    let filtered = filter_level(cluster, h, states, &edges, true);
    if filter_count.values().all(|&c| c == 1) {
        // Each parent had exactly one child: survivors are the new state.
        for (e, parent) in edges.iter().zip(filtered) {
            states[e.parent] = parent;
        }
        return;
    }

    // A parent row's instance id (origin server ≪ 32 | index) is routing
    // metadata and rides beside the rounds uncharged. The filter round
    // sent each parent row to one server, in origin order, and a row
    // survives by its key alone, so a server's survivors of edge i are,
    // in order, the rows sent to it that equal the next survivor.
    let parent_arity = |e: &Edge| states[e.parent].vars.len();
    let mut survivors: Vec<Vec<(Relation, Vec<u64>)>> = Vec::with_capacity(edges.len());
    for ((e, kept), salt) in edges.iter().zip(filtered).zip((0u64..).map(splitmix64)) {
        let parent = &states[e.parent];
        let mut sent: Vec<Vec<u64>> = vec![Vec::new(); p];
        for (sid, part) in parent.parts.iter().enumerate() {
            for (idx, row) in part.iter().enumerate() {
                let dest = dest_of(h, row, e.on.left_key(), salt, p);
                sent[dest].push(((sid as u64) << 32) | idx as u64);
            }
        }
        let row_of = |inst: u64| parent.parts[(inst >> 32) as usize].row(inst as u32 as usize);
        let per_server = kept.parts.into_iter().zip(sent).map(|(rows, sent)| {
            let insts = {
                let mut next = rows.iter().peekable();
                let mut survived = |inst| next.next_if_eq(&row_of(inst)).is_some();
                sent.into_iter().filter(|&inst| survived(inst)).collect()
            };
            (rows, insts)
        });
        survivors.push(per_server.collect());
    }

    // Intersection round: survivors routed by instance id (stream i is
    // edge i's, ids beside it as above); an instance survives iff all
    // of its parent's filters passed it (slide 91).
    let arities: Vec<usize> = edges.iter().map(parent_arity).collect();
    let mut ex = cluster.exchange_rows(&arities);
    let mut insts: Vec<Vec<Vec<u64>>> = vec![vec![Vec::new(); p]; edges.len()];
    for ((i, per_server), edge_insts) in survivors.iter().enumerate().zip(&mut insts) {
        for (sid, (rows, row_insts)) in per_server.iter().enumerate() {
            ex.set_sender(sid);
            for (row, &inst) in rows.iter().zip(row_insts) {
                let dest = (splitmix64(inst) % p as u64) as usize;
                ex.send_row(i, dest, row);
                edge_insts[dest].push(inst);
            }
        }
    }
    let delivered = ex.finish();

    let mut new_parts: FastMap<usize, Vec<Relation>> = FastMap::default();
    for e in &edges {
        new_parts
            .entry(e.parent)
            .or_insert_with(|| vec![Relation::new(parent_arity(e)); p]);
    }
    for sid in 0..p {
        // Count appearances of each (parent, inst); keep its first copy.
        let mut counts: FastMap<(usize, u64), (u32, &[Value])> = FastMap::default();
        for (i, e) in edges.iter().enumerate() {
            let rows = delivered[i][sid].chunks_exact(parent_arity(e));
            for (row, &inst) in rows.zip(&insts[i][sid]) {
                counts.entry((e.parent, inst)).or_insert((0, row)).0 += 1;
            }
        }
        for ((par, _inst), (cnt, row)) in counts {
            if cnt == filter_count[&par] {
                new_parts.get_mut(&par).expect("present")[sid].push(row);
            }
        }
    }
    for (par, parts) in new_parts {
        let vars = mem::take(&mut states[par].vars);
        states[par] = Dist::new(vars, parts);
    }
}

/// Optimized join level: each parent absorbs all its children in one
/// round on its own HyperCube block (slide 93's "Skew-HC join phase").
fn join_level(
    cluster: &mut Cluster,
    h: &HashFamily,
    states: &mut [Dist],
    by_parent: &FastMap<usize, Vec<usize>>,
) {
    let p = cluster.p();
    let mut parents: Vec<usize> = by_parent.keys().copied().collect();
    parents.sort_unstable();
    let block = (p / parents.len()).max(1);

    // Per-parent grid over its children dimensions.
    struct NodePlan {
        parent: usize,
        children: Vec<usize>,
        grid: Grid,
        offset: usize,
        /// The parent's stream; child `ci` is stream `stream + 1 + ci`.
        stream: usize,
        /// Per child: how the parent joins it.
        on: Vec<SchemaJoin>,
    }
    let mut plans = Vec::new();
    let mut arities = Vec::new();
    for (i, &par) in parents.iter().enumerate() {
        let children = by_parent[&par].clone();
        let c = children.len();
        // The node's one-round merge is itself a small multiway join:
        // parent over all c dimensions, child i over dimension i. Let the
        // share LP split the block budget (slide 93's "Skew-HC" phase).
        let shares = if block >= 2 {
            let mut edges: Vec<Vec<usize>> = vec![(0..c).collect()];
            edges.extend((0..c).map(|d| vec![d]));
            let mini = parqp_lp::Hypergraph::new(c, edges);
            let mut sizes = vec![states[par].total().max(1) as u64];
            sizes.extend(children.iter().map(|&b| states[b].total().max(1) as u64));
            parqp_lp::plan_shares(&mini, &sizes, block).shares
        } else {
            vec![1; c]
        };
        let grid = Grid::new(shares);
        let on = children
            .iter()
            .map(|&b| {
                let on = SchemaJoin::new(&states[par].vars, &states[b].vars);
                assert!(!on.is_product(), "join-tree edges share variables");
                on
            })
            .collect();
        let stream = arities.len();
        arities.push(states[par].vars.len());
        arities.extend(children.iter().map(|&b| states[b].vars.len()));
        plans.push(NodePlan {
            parent: par,
            children,
            grid,
            offset: i * block,
            stream,
            on,
        });
    }

    let mut ex = cluster.exchange_rows(&arities);
    for plan in &plans {
        let dims = plan.grid.dims();
        // Parent rows: fully determined coordinates.
        let mut coords = Vec::with_capacity(dims.len());
        for (sid, part) in states[plan.parent].parts.iter().enumerate() {
            ex.set_sender(sid);
            for row in part {
                coords.clear();
                coords.extend(
                    plan.on
                        .iter()
                        .zip(dims)
                        .map(|(on, &dim)| dest_of(h, row, on.left_key(), 0, dim)),
                );
                ex.send_row(plan.stream, plan.offset + plan.grid.rank(&coords), row);
            }
        }
        // Child rows: own dimension fixed, others broadcast.
        for (ci, &b) in plan.children.iter().enumerate() {
            let child_key = plan.on[ci].right_key();
            let fan = plan.grid.fan_out(|d| d == ci);
            let stride = fan.strides()[ci];
            for (sid, part) in states[b].parts.iter().enumerate() {
                ex.set_sender(sid);
                for row in part {
                    let base = plan.offset + dest_of(h, row, child_key, 0, dims[ci]) * stride;
                    for dest in fan.ranks(base) {
                        ex.send_row(plan.stream + 1 + ci, dest, row);
                    }
                }
            }
        }
    }
    // Streams come back in the order they were numbered: each plan's
    // parent, then its children.
    let mut delivered = ex.finish().into_iter();
    let mut next_stream = |arity| fragments(arity, delivered.next().unwrap_or_default());

    // Local: fold children into the parent fragment. Servers outside the
    // node's block received nothing on its streams and fold to empty.
    for plan in &plans {
        let mut vars = states[plan.parent].vars.clone();
        let mut parts = next_stream(vars.len());
        for &b in &plan.children {
            let child = &states[b];
            let on = SchemaJoin::new(&vars, &child.vars);
            let rows = next_stream(child.vars.len());
            parts = parts
                .iter()
                .zip(&rows)
                .map(|(acc, rows)| on.join(acc, rows))
                .collect();
            vars = on.into_vars();
        }
        states[plan.parent] = Dist::new(vars, parts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parqp_data::generate;
    use parqp_query::evaluate;

    fn check(q: &Query, rels: &[Relation], run: &JoinRun) {
        let expect = evaluate(q, rels);
        assert_eq!(run.gathered().canonical(), expect.canonical());
    }

    #[test]
    fn vanilla_star_matches_oracle_with_9_rounds() {
        // Slide 89: star with 4 atoms (3 edges) runs in r = 9.
        let q = Query::star(4);
        let tree = Ghd::star_flat(&q);
        let rels: Vec<Relation> = (0..4)
            .map(|i| generate::uniform(2, 200, 40, i as u64))
            .collect();
        let run = gym(&q, &rels, &tree, 8, 3, false);
        check(&q, &rels, &run);
        assert_eq!(run.report.num_rounds(), 9);
    }

    #[test]
    fn optimized_star_matches_oracle_with_4_rounds() {
        // Slide 94: the flat star runs in r = 4 (filter, intersect,
        // downward, HC join).
        let q = Query::star(4);
        let tree = Ghd::star_flat(&q);
        let rels: Vec<Relation> = (0..4)
            .map(|i| generate::uniform(2, 200, 40, i as u64))
            .collect();
        let run = gym(&q, &rels, &tree, 8, 3, true);
        check(&q, &rels, &run);
        assert_eq!(run.report.num_rounds(), 4);
    }

    #[test]
    fn chain_vanilla_vs_optimized_rounds() {
        let n = 6;
        let q = Query::chain(n);
        let tree = Ghd::join_tree(&q).expect("chains are acyclic");
        let rels: Vec<Relation> = (0..n)
            .map(|i| generate::uniform(2, 120, 25, 10 + i as u64))
            .collect();
        let v = gym(&q, &rels, &tree, 8, 5, false);
        let o = gym(&q, &rels, &tree, 8, 5, true);
        check(&q, &rels, &v);
        assert_eq!(v.gathered().canonical(), o.gathered().canonical());
        assert_eq!(v.report.num_rounds(), 3 * (n - 1));
        // A path tree has one child per level: up d + down d + join d.
        assert_eq!(o.report.num_rounds(), 3 * (n - 1));
    }

    #[test]
    fn slide64_query_both_modes() {
        let q = Query::slide64_tree();
        let tree = Ghd::join_tree(&q).expect("acyclic");
        let rels: Vec<Relation> = (0..5)
            .map(|i| generate::uniform(2, 150, 30, 20 + i as u64))
            .collect();
        let v = gym(&q, &rels, &tree, 8, 7, false);
        let o = gym(&q, &rels, &tree, 8, 7, true);
        check(&q, &rels, &v);
        check(&q, &rels, &o);
        assert!(o.report.num_rounds() <= v.report.num_rounds());
    }

    #[test]
    fn dangling_tuples_filtered_before_join() {
        // Yannakakis' point: intermediates never exceed OUT. One chain-3
        // relation has keys that never join; after semijoins the join
        // phase must not see them.
        let n = 400;
        let q = Query::chain(3);
        let r1 = generate::key_unique_pairs(n, 1, 1 << 30, 1);
        let r2 = generate::key_unique_pairs(n, 0, 1 << 30, 2); // A1 keys ✓, A2 random
        let r3 = generate::uniform(2, n, 1 << 30, 3); // A2 almost never matches
        let rels = vec![r1, r2, r3];
        let tree = Ghd::join_tree(&q).expect("acyclic");
        let run = gym(&q, &rels, &tree, 8, 9, false);
        check(&q, &rels, &run);
        // The join-phase rounds (last 2) must carry almost nothing.
        let maxima = run.report.round_max_tuples();
        let join_phase_max = maxima[maxima.len() - 2..]
            .iter()
            .max()
            .copied()
            .unwrap_or(0);
        assert!(join_phase_max < 20, "join phase load {join_phase_max}");
    }

    #[test]
    fn gym_ghd_chain_blocks_matches_oracle() {
        let n = 6;
        let q = Query::chain(n);
        let rels: Vec<Relation> = (0..n)
            .map(|i| generate::uniform(2, 100, 20, 30 + i as u64))
            .collect();
        for w in [1, 2, 3] {
            let ghd = Ghd::chain_blocks(n, w);
            let run = gym_ghd(&q, &rels, &ghd, 8, 11);
            let expect = evaluate(&q, &rels);
            assert_eq!(
                run.gathered().canonical(),
                expect.canonical(),
                "width {w} mismatch"
            );
        }
    }

    #[test]
    fn gym_ghd_balanced_fewer_rounds_than_path() {
        // Balanced bags have disconnected covers (Cartesian products of
        // IN^w tuples), so keep the instance small.
        let n = 16;
        let q = Query::chain(n);
        let rels: Vec<Relation> = (0..n)
            .map(|i| generate::key_unique_pairs(40, 1, 40, 40 + i as u64))
            .collect();
        let path = gym_ghd(&q, &rels, &Ghd::chain_blocks(n, 1), 8, 13);
        let balanced = gym_ghd(&q, &rels, &Ghd::chain_balanced(n), 8, 13);
        assert_eq!(path.gathered().canonical(), balanced.gathered().canonical());
        assert!(
            balanced.report.num_rounds() < path.report.num_rounds(),
            "balanced {} vs path {}",
            balanced.report.num_rounds(),
            path.report.num_rounds()
        );
    }

    #[test]
    fn forest_query_product_of_components() {
        let q = Query::product();
        let tree = Ghd::join_tree(&q).expect("acyclic");
        let r = generate::uniform(1, 50, 500, 51);
        let s = generate::uniform(1, 60, 500, 52);
        let rels = vec![r, s];
        let run = gym(&q, &rels, &tree, 8, 15, false);
        assert_eq!(run.output_size(), 50 * 60);
    }

    #[test]
    fn vanilla_tree_edge_sharing_no_variable_runs_no_semijoin_round() {
        // A valid tree may link bags that share no variable; vanilla GYM
        // semijoins over such an edge by the source's emptiness alone.
        let q = Query::product();
        let bag = |v| parqp_query::Bag {
            vars: vec![v],
            atoms: vec![v],
        };
        let tree = Ghd {
            bags: vec![bag(0), bag(1)],
            parent: vec![None, Some(0)],
        };
        tree.validate(&q).expect("a valid tree");
        let r = generate::uniform(1, 30, 500, 1);
        let run = gym(
            &q,
            &[r.clone(), generate::uniform(1, 20, 500, 2)],
            &tree,
            8,
            3,
            false,
        );
        assert_eq!(run.output_size(), 30 * 20);
        assert_eq!(run.report.num_rounds(), 1, "only the join phase's round");
        let run = gym(&q, &[r, Relation::new(1)], &tree, 8, 3, false);
        assert_eq!((run.output_size(), run.report.num_rounds()), (0, 1));
    }

    #[test]
    fn empty_relation_empty_output() {
        let q = Query::star(3);
        let tree = Ghd::star_flat(&q);
        let rels = vec![
            generate::uniform(2, 50, 10, 61),
            Relation::new(2),
            generate::uniform(2, 50, 10, 62),
        ];
        for optimized in [false, true] {
            let run = gym(&q, &rels, &tree, 4, 17, optimized);
            assert_eq!(run.output_size(), 0);
        }
    }
}
