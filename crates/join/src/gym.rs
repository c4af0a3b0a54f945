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

use crate::common::{extend_rows, scatter, JoinRun};
use crate::plans::combined_hash;
use parqp_data::{FastMap, FastSet, Relation, Value};
use parqp_mpc::{Cluster, Grid, HashFamily, LoadReport, Weight};
use parqp_query::{Ghd, Query, Var};

/// A distributed intermediate relation: per-server rows plus the variable
/// schema they share.
#[derive(Debug, Clone)]
struct Dist {
    schema: Vec<Var>,
    parts: Vec<Vec<Vec<Value>>>,
}

impl Dist {
    fn from_relation(rel: &Relation, vars: &[Var], p: usize) -> Self {
        Self {
            schema: vars.to_vec(),
            parts: scatter(rel, p)
                .into_iter()
                .map(Relation::into_messages)
                .collect(),
        }
    }

    fn total(&self) -> usize {
        self.parts.iter().map(Vec::len).sum()
    }
}

/// A message of the semijoin/join machinery.
#[derive(Debug, Clone)]
struct GymMsg {
    /// Which (parent, child) pair this belongs to.
    pair: u32,
    /// 0 = data row, 1 = semijoin key, 2 = intersection survivor.
    kind: u8,
    /// Row instance id (origin server ≪ 32 | index) for intersections.
    inst: u64,
    row: Vec<Value>,
}

impl Weight for GymMsg {
    fn words(&self) -> u64 {
        self.row.len() as u64
    }
}

fn shared_positions(left: &[Var], right: &[Var]) -> Vec<(usize, usize)> {
    left.iter()
        .enumerate()
        .filter_map(|(lp, v)| right.iter().position(|rv| rv == v).map(|rp| (lp, rp)))
        .collect()
}

/// One distributed semijoin round: `left ⋉ right`, both repartitioned by
/// the hash of their shared variables. Returns the filtered left.
fn semijoin_round(cluster: &mut Cluster, h: &HashFamily, left: Dist, right: &Dist) -> Dist {
    let p = cluster.p();
    let sv = shared_positions(&left.schema, &right.schema);
    if sv.is_empty() {
        // Disconnected: pure emptiness filter, no data movement needed
        // beyond a 1-bit flag we do not charge.
        if right.total() == 0 {
            return Dist {
                schema: left.schema,
                parts: vec![Vec::new(); p],
            };
        }
        return left;
    }
    let left_pos: Vec<usize> = sv.iter().map(|&(lp, _)| lp).collect();
    let right_pos: Vec<usize> = sv.iter().map(|&(_, rp)| rp).collect();

    let mut ex = cluster.exchange::<GymMsg>();
    for part in &left.parts {
        for row in part {
            let key: Vec<Value> = left_pos.iter().map(|&i| row[i]).collect();
            let dest =
                (combined_hash(h, &key, &(0..key.len()).collect::<Vec<_>>()) % p as u64) as usize;
            ex.send(
                dest,
                GymMsg {
                    pair: 0,
                    kind: 0,
                    inst: 0,
                    row: row.clone(),
                },
            );
        }
    }
    for part in &right.parts {
        let mut seen: FastSet<Vec<Value>> = FastSet::default();
        for row in part {
            let key: Vec<Value> = right_pos.iter().map(|&i| row[i]).collect();
            if seen.insert(key.clone()) {
                let dest = (combined_hash(h, &key, &(0..key.len()).collect::<Vec<_>>()) % p as u64)
                    as usize;
                ex.send(
                    dest,
                    GymMsg {
                        pair: 0,
                        kind: 1,
                        inst: 0,
                        row: key,
                    },
                );
            }
        }
    }
    let inboxes = ex.finish();

    let parts = inboxes
        .into_iter()
        .map(|inbox| {
            let mut keys: FastSet<Vec<Value>> = FastSet::default();
            let mut rows = Vec::new();
            for m in inbox {
                if m.kind == 1 {
                    keys.insert(m.row);
                } else {
                    rows.push(m.row);
                }
            }
            rows.retain(|row| {
                let key: Vec<Value> = left_pos.iter().map(|&i| row[i]).collect();
                keys.contains(&key)
            });
            rows
        })
        .collect();
    Dist {
        schema: left.schema,
        parts,
    }
}

/// One distributed binary join round: repartition both sides by the hash
/// of the shared variables (Cartesian grid if none) and join locally.
fn join_round(cluster: &mut Cluster, h: &HashFamily, left: Dist, right: Dist) -> Dist {
    let p = cluster.p();
    let sv = shared_positions(&left.schema, &right.schema);
    let fresh: Vec<usize> = (0..right.schema.len())
        .filter(|&rp| !left.schema.contains(&right.schema[rp]))
        .collect();
    let mut schema = left.schema.clone();
    schema.extend(fresh.iter().map(|&rp| right.schema[rp]));

    let inboxes = if sv.is_empty() {
        let (p1, p2) = crate::twoway::product_grid(left.total(), right.total(), p);
        let grid = Grid::new(vec![p1, p2]);
        let mut ex = cluster.exchange::<GymMsg>();
        let mut idx = 0u64;
        for part in &left.parts {
            for row in part {
                let band = (h.digest(0, idx) % p1 as u64) as usize;
                idx += 1;
                for dest in grid.matching(&[Some(band), None]) {
                    ex.send(
                        dest,
                        GymMsg {
                            pair: 0,
                            kind: 0,
                            inst: 0,
                            row: row.clone(),
                        },
                    );
                }
            }
        }
        idx = 0;
        for part in &right.parts {
            for row in part {
                let band = (h.digest(0, !idx) % p2 as u64) as usize;
                idx += 1;
                for dest in grid.matching(&[None, Some(band)]) {
                    ex.send(
                        dest,
                        GymMsg {
                            pair: 0,
                            kind: 1,
                            inst: 0,
                            row: row.clone(),
                        },
                    );
                }
            }
        }
        let mut boxes = ex.finish();
        boxes.resize_with(p, Vec::new);
        boxes
    } else {
        let left_pos: Vec<usize> = sv.iter().map(|&(lp, _)| lp).collect();
        let right_pos: Vec<usize> = sv.iter().map(|&(_, rp)| rp).collect();
        let mut ex = cluster.exchange::<GymMsg>();
        for part in &left.parts {
            for row in part {
                let key: Vec<Value> = left_pos.iter().map(|&i| row[i]).collect();
                let dest = (combined_hash(h, &key, &(0..key.len()).collect::<Vec<_>>()) % p as u64)
                    as usize;
                ex.send(
                    dest,
                    GymMsg {
                        pair: 0,
                        kind: 0,
                        inst: 0,
                        row: row.clone(),
                    },
                );
            }
        }
        for part in &right.parts {
            for row in part {
                let key: Vec<Value> = right_pos.iter().map(|&i| row[i]).collect();
                let dest = (combined_hash(h, &key, &(0..key.len()).collect::<Vec<_>>()) % p as u64)
                    as usize;
                ex.send(
                    dest,
                    GymMsg {
                        pair: 0,
                        kind: 1,
                        inst: 0,
                        row: row.clone(),
                    },
                );
            }
        }
        ex.finish()
    };

    let right_pos: Vec<usize> = sv.iter().map(|&(_, rp)| rp).collect();
    let left_pos: Vec<usize> = sv.iter().map(|&(lp, _)| lp).collect();
    let parts = inboxes
        .into_iter()
        .map(|inbox| {
            let mut lrows = Vec::new();
            let mut rrows = Vec::new();
            for m in inbox {
                if m.kind == 0 {
                    lrows.push(m.row);
                } else {
                    rrows.push(m.row);
                }
            }
            extend_rows(&lrows, &left_pos, rrows.as_slice(), &right_pos, &fresh)
        })
        .collect();
    Dist { schema, parts }
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
            Dist::from_relation(&rels[a], &query.atoms()[a].vars, p)
        })
        .collect();

    let final_dist = run_yannakakis(&mut cluster, &h, tree, states, optimized);
    finish(query, final_dist, cluster.report())
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
    let mut bag_rels: Vec<Option<Relation>> = vec![None; nbags];
    for (bi, bag) in ghd.bags.iter().enumerate() {
        if bag.atoms.len() == 1 {
            let a = bag.atoms[0];
            // Project the atom onto the bag variable order.
            let cols: Vec<usize> = bag
                .vars
                .iter()
                .map(|v| {
                    query.atoms()[a]
                        .vars
                        .iter()
                        .position(|av| av == v)
                        .expect("λ covers")
                })
                .collect();
            bag_rels[bi] = Some(rels[a].project(&cols));
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
            bag_rels[bi] = Some(run.gathered().project(&cols).canonical());
        }
    }
    let mat_report = if mat_reports.is_empty() {
        None
    } else {
        Some(LoadReport::parallel(&mat_reports).folded(p))
    };

    // Synthetic acyclic query over the bag relations.
    let bag_query = Query::new(
        query.num_vars(),
        ghd.bags
            .iter()
            .enumerate()
            .map(|(bi, bag)| parqp_query::Atom::new(format!("B{bi}"), bag.vars.clone()))
            .collect(),
    );
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
    let states: Vec<Dist> = (0..nbags)
        .map(|bi| {
            Dist::from_relation(
                bag_rels[bi].as_ref().expect("materialized"),
                &ghd.bags[bi].vars,
                p,
            )
        })
        .collect();
    let final_dist = run_yannakakis(&mut cluster, &h, &bag_tree, states, true);
    let mut run = finish(&bag_query, final_dist, cluster.report());
    if let Some(mat) = mat_report {
        run.report = LoadReport::sequential(&[mat, run.report]);
    }
    run
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
        // Vanilla: one round per edge in every phase (slides 80–89).
        for &b in order.iter().rev() {
            if let Some(par) = tree.parent[b] {
                let parent_state = states[par].clone();
                states[par] = semijoin_round(cluster, h, parent_state, &states[b]);
            }
        }
        for &b in &order {
            if let Some(par) = tree.parent[b] {
                let child_state = states[b].clone();
                states[b] = semijoin_round(cluster, h, child_state, &states[par]);
            }
        }
        for &b in order.iter().rev() {
            if let Some(par) = tree.parent[b] {
                let left = states[par].clone();
                let right = states[b].clone();
                states[par] = join_round(cluster, h, left, right);
            }
        }
    }

    // Combine roots (forest ⇒ Cartesian product rounds).
    let roots: Vec<usize> = (0..tree.bags.len())
        .filter(|&b| tree.parent[b].is_none())
        .collect();
    let mut acc = states[roots[0]].clone();
    for &r in &roots[1..] {
        let right = states[r].clone();
        acc = join_round(cluster, h, acc, right);
    }
    acc
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
    let mut children_of: FastMap<usize, Vec<usize>> = FastMap::default();
    for &(par, b) in edges {
        children_of.entry(par).or_default().push(b);
    }
    let needs_intersection = children_of.values().any(|c| c.len() > 1);

    // Filter round.
    let mut ex = cluster.exchange::<GymMsg>();
    let mut pair_meta = Vec::new(); // (parent, child, left_pos, right_pos)
    for (pair_id, &(par, b)) in edges.iter().enumerate() {
        let sv = shared_positions(&states[par].schema, &states[b].schema);
        assert!(!sv.is_empty(), "join-tree edges share variables");
        let left_pos: Vec<usize> = sv.iter().map(|&(lp, _)| lp).collect();
        let right_pos: Vec<usize> = sv.iter().map(|&(_, rp)| rp).collect();
        // Parent rows, tagged with instance ids.
        for (sid, part) in states[par].parts.iter().enumerate() {
            for (idx, row) in part.iter().enumerate() {
                let key: Vec<Value> = left_pos.iter().map(|&i| row[i]).collect();
                let dest = (combined_hash(h, &key, &(0..key.len()).collect::<Vec<_>>())
                    ^ parqp_mpc::hash::splitmix64(pair_id as u64))
                    % p as u64;
                ex.send(
                    dest as usize,
                    GymMsg {
                        pair: pair_id as u32,
                        kind: 0,
                        inst: ((sid as u64) << 32) | idx as u64,
                        row: row.clone(),
                    },
                );
            }
        }
        // Child keys, deduplicated per origin server.
        for part in &states[b].parts {
            let mut seen: FastSet<Vec<Value>> = FastSet::default();
            for row in part {
                let key: Vec<Value> = right_pos.iter().map(|&i| row[i]).collect();
                if seen.insert(key.clone()) {
                    let dest = (combined_hash(h, &key, &(0..key.len()).collect::<Vec<_>>())
                        ^ parqp_mpc::hash::splitmix64(pair_id as u64))
                        % p as u64;
                    ex.send(
                        dest as usize,
                        GymMsg {
                            pair: pair_id as u32,
                            kind: 1,
                            inst: 0,
                            row: key,
                        },
                    );
                }
            }
        }
        pair_meta.push((par, b, left_pos, right_pos));
    }
    let inboxes = ex.finish();

    // Local filtering: survivors per pair per server.
    type Survivors = Vec<Vec<(u64, Vec<Value>)>>; // per server: (instance, row)
    let mut survivors: Vec<Survivors> = vec![vec![Vec::new(); p]; edges.len()];
    for (sid, inbox) in inboxes.into_iter().enumerate() {
        let mut keys: Vec<FastSet<Vec<Value>>> = vec![FastSet::default(); edges.len()];
        let mut rows: Vec<Vec<(u64, Vec<Value>)>> = vec![Vec::new(); edges.len()];
        for m in inbox {
            if m.kind == 1 {
                keys[m.pair as usize].insert(m.row);
            } else {
                rows[m.pair as usize].push((m.inst, m.row));
            }
        }
        for (pair_id, pair_rows) in rows.into_iter().enumerate() {
            let left_pos = &pair_meta[pair_id].2;
            for (inst, row) in pair_rows {
                let key: Vec<Value> = left_pos.iter().map(|&i| row[i]).collect();
                if keys[pair_id].contains(&key) {
                    survivors[pair_id][sid].push((inst, row));
                }
            }
        }
    }

    if !needs_intersection {
        // Each parent had exactly one child: survivors are the new state.
        for (pair_id, &(par, _, _, _)) in pair_meta.iter().enumerate() {
            states[par].parts = survivors[pair_id]
                .iter()
                .map(|rows| rows.iter().map(|(_, r)| r.clone()).collect())
                .collect();
        }
        return;
    }

    // Intersection round: survivors routed by instance id; an instance
    // survives iff all of its parent's filters passed it (slide 91).
    let mut ex = cluster.exchange::<GymMsg>();
    for (pair_id, per_server) in survivors.iter().enumerate() {
        for rows in per_server {
            for (inst, row) in rows {
                let dest = (parqp_mpc::hash::splitmix64(*inst) % p as u64) as usize;
                ex.send(
                    dest,
                    GymMsg {
                        pair: pair_id as u32,
                        kind: 2,
                        inst: *inst,
                        row: row.clone(),
                    },
                );
            }
        }
    }
    let inboxes = ex.finish();

    let mut filter_count: FastMap<usize, u32> = FastMap::default();
    for (pair_id, &(par, _, _, _)) in pair_meta.iter().enumerate() {
        let _ = pair_id;
        *filter_count.entry(par).or_insert(0) += 1;
    }
    let parent_of_pair: Vec<usize> = pair_meta.iter().map(|m| m.0).collect();

    let mut new_parts: FastMap<usize, Vec<Vec<Vec<Value>>>> = FastMap::default();
    for &par in children_of.keys() {
        new_parts.insert(par, vec![Vec::new(); p]);
    }
    for (sid, inbox) in inboxes.into_iter().enumerate() {
        // Count appearances of each (parent, inst); keep one row copy.
        let mut counts: FastMap<(usize, u64), (u32, Vec<Value>)> = FastMap::default();
        for m in inbox {
            let par = parent_of_pair[m.pair as usize];
            let e = counts.entry((par, m.inst)).or_insert((0, m.row));
            e.0 += 1;
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
    let p = cluster.p();
    let mut ex = cluster.exchange::<GymMsg>();
    let mut pair_meta = Vec::new();
    for (pair_id, &(par, b)) in edges.iter().enumerate() {
        let sv = shared_positions(&states[b].schema, &states[par].schema);
        assert!(!sv.is_empty(), "join-tree edges share variables");
        let left_pos: Vec<usize> = sv.iter().map(|&(lp, _)| lp).collect();
        let right_pos: Vec<usize> = sv.iter().map(|&(_, rp)| rp).collect();
        for part in &states[b].parts {
            for row in part {
                let key: Vec<Value> = left_pos.iter().map(|&i| row[i]).collect();
                let dest = (combined_hash(h, &key, &(0..key.len()).collect::<Vec<_>>())
                    ^ parqp_mpc::hash::splitmix64(pair_id as u64))
                    % p as u64;
                ex.send(
                    dest as usize,
                    GymMsg {
                        pair: pair_id as u32,
                        kind: 0,
                        inst: 0,
                        row: row.clone(),
                    },
                );
            }
        }
        for part in &states[par].parts {
            let mut seen: FastSet<Vec<Value>> = FastSet::default();
            for row in part {
                let key: Vec<Value> = right_pos.iter().map(|&i| row[i]).collect();
                if seen.insert(key.clone()) {
                    let dest = (combined_hash(h, &key, &(0..key.len()).collect::<Vec<_>>())
                        ^ parqp_mpc::hash::splitmix64(pair_id as u64))
                        % p as u64;
                    ex.send(
                        dest as usize,
                        GymMsg {
                            pair: pair_id as u32,
                            kind: 1,
                            inst: 0,
                            row: key,
                        },
                    );
                }
            }
        }
        pair_meta.push((par, b, left_pos));
    }
    let inboxes = ex.finish();

    let mut new_parts: Vec<Vec<Vec<Vec<Value>>>> = vec![vec![Vec::new(); p]; edges.len()];
    for (sid, inbox) in inboxes.into_iter().enumerate() {
        let mut keys: Vec<FastSet<Vec<Value>>> = vec![FastSet::default(); edges.len()];
        let mut rows: Vec<Vec<Vec<Value>>> = vec![Vec::new(); edges.len()];
        for m in inbox {
            if m.kind == 1 {
                keys[m.pair as usize].insert(m.row);
            } else {
                rows[m.pair as usize].push(m.row);
            }
        }
        for (pair_id, pair_rows) in rows.into_iter().enumerate() {
            let left_pos = &pair_meta[pair_id].2;
            for row in pair_rows {
                let key: Vec<Value> = left_pos.iter().map(|&i| row[i]).collect();
                if keys[pair_id].contains(&key) {
                    new_parts[pair_id][sid].push(row);
                }
            }
        }
    }
    for (pair_id, &(_, b, _)) in pair_meta.iter().enumerate() {
        states[b].parts = std::mem::take(&mut new_parts[pair_id]);
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
        sv: Vec<(Vec<usize>, Vec<usize>)>, // per child: (parent pos, child pos)
    }
    let mut plans = Vec::new();
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
        let sv = children
            .iter()
            .map(|&b| {
                let pairs = shared_positions(&states[par].schema, &states[b].schema);
                assert!(!pairs.is_empty(), "join-tree edges share variables");
                (
                    pairs.iter().map(|&(lp, _)| lp).collect(),
                    pairs.iter().map(|&(_, rp)| rp).collect(),
                )
            })
            .collect();
        plans.push(NodePlan {
            parent: par,
            children,
            grid,
            offset: i * block,
            sv,
        });
    }

    let mut ex = cluster.exchange::<GymMsg>();
    for plan in &plans {
        let par = plan.parent;
        // Parent rows: fully determined coordinates.
        for part in &states[par].parts {
            for row in part {
                let coords: Vec<usize> = plan
                    .sv
                    .iter()
                    .enumerate()
                    .map(|(ci, (ppos, _))| {
                        let key: Vec<Value> = ppos.iter().map(|&i| row[i]).collect();
                        (combined_hash(h, &key, &(0..key.len()).collect::<Vec<_>>())
                            % plan.grid.dims()[ci] as u64) as usize
                    })
                    .collect();
                ex.send(
                    plan.offset + plan.grid.rank(&coords),
                    GymMsg {
                        pair: u32::MAX,
                        kind: 0,
                        inst: 0,
                        row: row.clone(),
                    },
                );
            }
        }
        // Child rows: own dimension fixed, others broadcast.
        for (ci, &b) in plan.children.iter().enumerate() {
            let (_, cpos) = &plan.sv[ci];
            for part in &states[b].parts {
                for row in part {
                    let key: Vec<Value> = cpos.iter().map(|&i| row[i]).collect();
                    let coord = (combined_hash(h, &key, &(0..key.len()).collect::<Vec<_>>())
                        % plan.grid.dims()[ci] as u64) as usize;
                    let mut partial = vec![None; plan.children.len()];
                    partial[ci] = Some(coord);
                    for dest in plan.grid.matching(&partial) {
                        ex.send(
                            plan.offset + dest,
                            GymMsg {
                                pair: ci as u32,
                                kind: 1,
                                inst: 0,
                                row: row.clone(),
                            },
                        );
                    }
                }
            }
        }
    }
    let inboxes = ex.finish();

    // Local: fold children into the parent fragment.
    for plan in &plans {
        let par = plan.parent;
        let mut schema = states[par].schema.clone();
        let child_schemas: Vec<Vec<Var>> = plan
            .children
            .iter()
            .map(|&b| states[b].schema.clone())
            .collect();
        let mut new_parts: Vec<Vec<Vec<Value>>> = vec![Vec::new(); p];
        for local in 0..plan.grid.len() {
            let sid = plan.offset + local;
            let inbox = &inboxes[sid];
            let mut acc: Vec<Vec<Value>> = inbox
                .iter()
                .filter(|m| m.kind == 0)
                .map(|m| m.row.clone())
                .collect();
            let mut acc_schema = states[par].schema.clone();
            for (ci, child_schema) in child_schemas.iter().enumerate() {
                let rows: Vec<&Vec<Value>> = inbox
                    .iter()
                    .filter(|m| m.kind == 1 && m.pair == ci as u32)
                    .map(|m| &m.row)
                    .collect();
                let pairs = shared_positions(&acc_schema, child_schema);
                let lpos: Vec<usize> = pairs.iter().map(|&(lp, _)| lp).collect();
                let rpos: Vec<usize> = pairs.iter().map(|&(_, rp)| rp).collect();
                let fresh: Vec<usize> = (0..child_schema.len())
                    .filter(|&rp| !acc_schema.contains(&child_schema[rp]))
                    .collect();
                acc = extend_rows(&acc, &lpos, rows.as_slice(), &rpos, &fresh);
                acc_schema.extend(fresh.iter().map(|&posn| child_schema[posn]));
            }
            new_parts[sid] = acc;
            schema = acc_schema;
        }
        states[par] = Dist {
            schema,
            parts: new_parts,
        };
    }
}

/// Convert the final distributed state into per-server output relations
/// in variable order.
fn finish(query: &Query, dist: Dist, report: LoadReport) -> JoinRun {
    assert_eq!(
        dist.schema.len(),
        query.num_vars(),
        "result must bind every variable"
    );
    let mut col_of_var = vec![0usize; query.num_vars()];
    for (i, &v) in dist.schema.iter().enumerate() {
        col_of_var[v] = i;
    }
    let outputs = dist
        .parts
        .into_iter()
        .map(|rows| {
            let mut rel = Relation::with_capacity(query.num_vars(), rows.len());
            let mut buf = vec![0; query.num_vars()];
            for row in rows {
                for (v, slot) in buf.iter_mut().enumerate() {
                    *slot = row[col_of_var[v]];
                }
                rel.push(&buf);
            }
            rel
        })
        .collect();
    JoinRun { outputs, report }
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
