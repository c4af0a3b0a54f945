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
//! GYM beats the one-round algorithms whenever
//! `OUT < p^{1−1/τ*} · IN` (slide 78) — experiment E11.

use crate::common::{dest_of, fragments, inbox_pairs, route_rows, Dist, JoinRun};
use parqp_data::{FastMap, KeyIndex, Relation, Value};
use parqp_mpc::hash::splitmix64;
use parqp_mpc::{Cluster, Grid, HashFamily, LoadReport, RowExchange};
use parqp_query::{Ghd, Query, SchemaJoin, Var};

/// Send the `key` projection of `parts` on `stream`, deduplicated per
/// origin server (a row speaks for its key iff it is the first of its
/// chain), each key to the server it hashes to. The projection's
/// variables are the [`SchemaJoin::key_vars`] of the join that keyed it.
fn route_distinct_keys(
    ex: &mut RowExchange<'_>,
    stream: usize,
    parts: &[Relation],
    h: &HashFamily,
    key: &[usize],
    salt: u64,
) {
    let p = ex.p();
    let mut projected = Vec::with_capacity(key.len());
    for part in parts {
        let index = KeyIndex::build(part, key);
        for (i, row) in part.iter().enumerate() {
            if index.is_first_of_key(i) {
                projected.clear();
                projected.extend(key.iter().map(|&c| row[c]));
                ex.send_row(stream, dest_of(h, row, key, salt, p), &projected);
            }
        }
    }
}

/// One distributed semijoin round: `left ⋉ right`, both repartitioned by
/// the hash of their shared variables. Returns the filtered left.
fn semijoin_round(cluster: &mut Cluster, h: &HashFamily, left: Dist, right: &Dist) -> Dist {
    let p = cluster.p();
    let on = SchemaJoin::new(&left.vars, &right.vars);
    if on.is_product() {
        // Disconnected: pure emptiness filter, no data movement needed
        // beyond a 1-bit flag we do not charge.
        if right.total() == 0 {
            return Dist {
                parts: vec![Relation::new(left.vars.len()); p],
                vars: left.vars,
            };
        }
        return left;
    }

    let arities = [left.vars.len(), on.left_key().len()];
    let mut ex = cluster.exchange_rows(&arities);
    route_rows(&mut ex, 0, &left.parts, h, on.left_key(), 0);
    route_distinct_keys(&mut ex, 1, &right.parts, h, on.right_key(), 0);
    let keyed = SchemaJoin::new(&left.vars, &on.key_vars());
    let parts = inbox_pairs(arities, ex.finish())
        .iter()
        .map(|(rows, keys)| keyed.semijoin(rows, keys))
        .collect();
    Dist {
        vars: left.vars,
        parts,
    }
}

/// One distributed binary join round: repartition both sides by the hash
/// of the shared variables (Cartesian grid if none) and join locally.
fn join_round(cluster: &mut Cluster, h: &HashFamily, left: Dist, right: Dist) -> Dist {
    let p = cluster.p();
    let on = SchemaJoin::new(&left.vars, &right.vars);
    let arities = [left.vars.len(), right.vars.len()];
    let mut ex = cluster.exchange_rows(&arities);
    if on.is_product() {
        let (p1, p2) = crate::twoway::product_grid(left.total(), right.total(), p);
        let grid = Grid::new(vec![p1, p2]);
        let (left_fan, right_fan) = (grid.fan_out(|d| d == 0), grid.fan_out(|d| d == 1));
        let mut idx = 0u64;
        for row in left.parts.iter().flatten() {
            let band = (h.digest(0, idx) % p1 as u64) as usize;
            idx += 1;
            for dest in left_fan.ranks(band * p2) {
                ex.send_row(0, dest, row);
            }
        }
        idx = 0;
        for row in right.parts.iter().flatten() {
            let band = (h.digest(0, !idx) % p2 as u64) as usize;
            idx += 1;
            for dest in right_fan.ranks(band) {
                ex.send_row(1, dest, row);
            }
        }
    } else {
        route_rows(&mut ex, 0, &left.parts, h, on.left_key(), 0);
        route_rows(&mut ex, 1, &right.parts, h, on.right_key(), 0);
    }
    let parts = inbox_pairs(arities, ex.finish())
        .iter()
        .map(|(lrows, rrows)| on.join(lrows, rrows))
        .collect();
    Dist {
        vars: on.into_vars(),
        parts,
    }
}

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

    let bag_tree = Ghd {
        bags: ghd
            .bags
            .iter()
            .enumerate()
            .map(|(bi, bag)| parqp_query::Bag {
                vars: bag.vars.clone(),
                atoms: vec![bi],
            })
            .collect(),
        parent: ghd.parent.clone(),
    };

    let mut cluster = Cluster::new(p);
    let h = HashFamily::new(seed ^ 0x6d79, 4);
    let states: Vec<Dist> = ghd
        .bags
        .iter()
        .zip(&bag_rels)
        .map(|(bag, rel)| Dist::scatter(rel, &bag.vars, p))
        .collect();
    let final_dist = run_yannakakis(&mut cluster, &h, &bag_tree, states, true);
    let report = cluster.report();
    JoinRun {
        report: match mat_report {
            Some(mat) => LoadReport::sequential(&[mat, report]),
            None => report,
        },
        outputs: final_dist.into_outputs(query.num_vars()),
    }
}

/// The three Yannakakis phases over already-distributed bag states.
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
        // Upward, per level (deepest first): filter round (+ intersection
        // round when some parent has several children).
        for level in (1..=max_depth).rev() {
            let edges: Vec<(usize, usize)> = order
                .iter()
                .filter(|&&b| depth_of[b] == level)
                .filter_map(|&b| tree.parent[b].map(|par| (par, b)))
                .collect();
            if edges.is_empty() {
                continue;
            }
            upward_level(cluster, h, &mut states, &edges);
        }
        // Downward, per level: every bag filtered by its parent, 1 round.
        for level in 1..=max_depth {
            let edges: Vec<(usize, usize)> = order
                .iter()
                .filter(|&&b| depth_of[b] == level)
                .filter_map(|&b| tree.parent[b].map(|par| (par, b)))
                .collect();
            if edges.is_empty() {
                continue;
            }
            downward_level(cluster, h, &mut states, &edges);
        }
        // Join, per level (deepest first): each parent absorbs all its
        // children in one round on a per-parent HyperCube block.
        for level in (1..=max_depth).rev() {
            let mut by_parent: FastMap<usize, Vec<usize>> = FastMap::default();
            for &b in &order {
                if depth_of[b] == level {
                    if let Some(par) = tree.parent[b] {
                        by_parent.entry(par).or_default().push(b);
                    }
                }
            }
            if by_parent.is_empty() {
                continue;
            }
            join_level(cluster, h, &mut states, &by_parent);
        }
    } else {
        // Vanilla: one round per edge in every phase (slides 80–89). A
        // round consumes the state it replaces, and the join phase the
        // child it folds in: nothing reads either again.
        for &b in order.iter().rev() {
            if let Some(par) = tree.parent[b] {
                let parent_state = std::mem::take(&mut states[par]);
                states[par] = semijoin_round(cluster, h, parent_state, &states[b]);
            }
        }
        for &b in &order {
            if let Some(par) = tree.parent[b] {
                let child_state = std::mem::take(&mut states[b]);
                states[b] = semijoin_round(cluster, h, child_state, &states[par]);
            }
        }
        for &b in order.iter().rev() {
            if let Some(par) = tree.parent[b] {
                let left = std::mem::take(&mut states[par]);
                let right = std::mem::take(&mut states[b]);
                states[par] = join_round(cluster, h, left, right);
            }
        }
    }

    // Combine roots (forest ⇒ Cartesian product rounds).
    (0..tree.bags.len())
        .filter(|&b| tree.parent[b].is_none())
        .map(|b| std::mem::take(&mut states[b]))
        .reduce(|acc, right| join_round(cluster, h, acc, right))
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
    let needs_intersection = filter_count.values().any(|&c| c > 1);
    let parent_arity = |e: &Edge| states[e.parent].vars.len();

    // Filter round. Streams 2i and 2i+1 carry edge i's parent rows and
    // its child keys. A parent row's instance id (origin server ≪ 32 |
    // index) is routing metadata and rides beside the round uncharged:
    // `insts[i][dest][k]` names the k-th row stream 2i delivers to `dest`.
    let arities: Vec<usize> = edges
        .iter()
        .flat_map(|e| [parent_arity(e), e.on.left_key().len()])
        .collect();
    let mut ex = cluster.exchange_rows(&arities);
    let mut insts: Vec<Vec<Vec<u64>>> = vec![vec![Vec::new(); p]; edges.len()];
    for (i, e) in edges.iter().enumerate() {
        let salt = splitmix64(i as u64);
        for (sid, part) in states[e.parent].parts.iter().enumerate() {
            for (idx, row) in part.iter().enumerate() {
                let dest = dest_of(h, row, e.on.left_key(), salt, p);
                ex.send_row(2 * i, dest, row);
                if needs_intersection {
                    insts[i][dest].push(((sid as u64) << 32) | idx as u64);
                }
            }
        }
        route_distinct_keys(
            &mut ex,
            2 * i + 1,
            &states[e.child].parts,
            h,
            e.on.right_key(),
            salt,
        );
    }
    let mut delivered = ex.finish().into_iter();

    // Local filtering: per edge, per server, the parent rows some child
    // key vouches for (and, for the intersection, their instance ids).
    let mut survivors: Vec<Vec<(Relation, Vec<u64>)>> = Vec::with_capacity(edges.len());
    for (i, e) in edges.iter().enumerate() {
        let inboxes = inbox_pairs([parent_arity(e), e.on.left_key().len()], delivered.by_ref());
        let keyed = SchemaJoin::new(&states[e.parent].vars, &e.on.key_vars());
        survivors.push(
            inboxes
                .iter()
                .zip(&insts[i])
                .map(|((rows, keys), row_insts)| {
                    if !needs_intersection {
                        return (keyed.semijoin(rows, keys), Vec::new());
                    }
                    let keep = keyed.matches(keys);
                    let mut kept = (Relation::new(rows.arity()), Vec::new());
                    for (row, &inst) in rows.iter().zip(row_insts).filter(|(row, _)| keep(row)) {
                        kept.0.push(row);
                        kept.1.push(inst);
                    }
                    kept
                })
                .collect(),
        );
    }

    if !needs_intersection {
        // Each parent had exactly one child: survivors are the new state.
        for (e, kept) in edges.iter().zip(survivors) {
            states[e.parent].parts = kept.into_iter().map(|(rows, _)| rows).collect();
        }
        return;
    }

    // Intersection round: survivors routed by instance id (stream i is
    // edge i's, ids beside it as above); an instance survives iff all
    // of its parent's filters passed it (slide 91).
    let arities: Vec<usize> = edges.iter().map(parent_arity).collect();
    let mut ex = cluster.exchange_rows(&arities);
    let mut insts: Vec<Vec<Vec<u64>>> = vec![vec![Vec::new(); p]; edges.len()];
    for (i, per_server) in survivors.iter().enumerate() {
        for (rows, row_insts) in per_server {
            for (row, &inst) in rows.iter().zip(row_insts) {
                let dest = (splitmix64(inst) % p as u64) as usize;
                ex.send_row(i, dest, row);
                insts[i][dest].push(inst);
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
        states[par].parts = parts;
    }
}

/// Optimized downward level: every level bag filtered by its (unique)
/// parent, all in one round.
fn downward_level(
    cluster: &mut Cluster,
    h: &HashFamily,
    states: &mut [Dist],
    edges: &[(usize, usize)],
) {
    let edges = level_edges(states, edges);
    // Streams 2i and 2i+1: edge i's child rows and its parent keys.
    let arities: Vec<usize> = edges
        .iter()
        .flat_map(|e| [states[e.child].vars.len(), e.on.left_key().len()])
        .collect();
    let mut ex = cluster.exchange_rows(&arities);
    for (i, e) in edges.iter().enumerate() {
        let salt = splitmix64(i as u64);
        route_rows(
            &mut ex,
            2 * i,
            &states[e.child].parts,
            h,
            e.on.right_key(),
            salt,
        );
        route_distinct_keys(
            &mut ex,
            2 * i + 1,
            &states[e.parent].parts,
            h,
            e.on.left_key(),
            salt,
        );
    }
    let mut delivered = ex.finish().into_iter();

    for e in &edges {
        let child = &states[e.child];
        let keyed = SchemaJoin::new(&child.vars, &e.on.key_vars());
        let arities = [child.vars.len(), e.on.left_key().len()];
        states[e.child].parts = inbox_pairs(arities, delivered.by_ref())
            .iter()
            .map(|(rows, keys)| keyed.semijoin(rows, keys))
            .collect();
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
        for row in states[plan.parent].parts.iter().flatten() {
            coords.clear();
            coords.extend(
                plan.on
                    .iter()
                    .zip(dims)
                    .map(|(on, &dim)| dest_of(h, row, on.left_key(), 0, dim)),
            );
            ex.send_row(plan.stream, plan.offset + plan.grid.rank(&coords), row);
        }
        // Child rows: own dimension fixed, others broadcast.
        for (ci, &b) in plan.children.iter().enumerate() {
            let child_key = plan.on[ci].right_key();
            let fan = plan.grid.fan_out(|d| d == ci);
            let stride = fan.strides()[ci];
            for row in states[b].parts.iter().flatten() {
                let base = plan.offset + dest_of(h, row, child_key, 0, dims[ci]) * stride;
                for dest in fan.ranks(base) {
                    ex.send_row(plan.stream + 1 + ci, dest, row);
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
        states[plan.parent] = Dist { vars, parts };
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
