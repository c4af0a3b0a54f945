//! Two-way equi-joins in the MPC model (slides 22–32).
//!
//! | algorithm | load (slides) | rounds |
//! |---|---|---|
//! | [`hash_join`] | `Θ(IN/p)` without skew, up to `IN` with | 1 |
//! | [`broadcast_join`] | `|R| + |S|/p` (broadcast the small side) | 1 |
//! | [`cartesian`] | `2·√(|R|·|S|/p)` — optimal for products | 1 |
//! | [`skew_join`] | `O(√(OUT/p) + IN/p)` for any skew | 1 |
//! | [`sort_merge_join`] | `O(√(OUT/p) + IN/p)` for any skew | 4 |
//!
//! Output convention: a joined row is the full `R` row followed by the
//! `S` row minus its join column ([`Relation::push_merged`]).

use crate::common::{
    hash_join_rows, hash_partition, inbox_pairs, joined_arity, route_input, scatter, single_stream,
    JoinRun,
};
use parqp_data::stats::{degree_counts, degree_join_size, join_heavy_hitters, join_output_size};
use parqp_data::{Relation, Value};
use parqp_mpc::{metrics, trace, Cluster, HashFamily, LoadReport, Weight};

/// The two streams of a two-way round: `R` rows and `S` rows.
const TAG_R: usize = 0;
const TAG_S: usize = 1;

/// Parallel hash join (slide 23): both relations are repartitioned by a
/// shared hash of the join attribute; each server joins its bucket
/// locally. One round; load `Θ(IN/p)` w.h.p. on skew-free input, but a
/// value of degree `d` puts `d` tuples on one server — the skew failure
/// mode of slides 25–27.
///
/// ```
/// use parqp_join::twoway::hash_join;
/// use parqp_data::Relation;
///
/// let r = Relation::from_rows(2, [[1, 10], [2, 20]]);
/// let s = Relation::from_rows(2, [[10, 7], [20, 8]]);
/// let run = hash_join(&r, 1, &s, 0, 4, 42);
/// // Output convention: R row ++ S row minus its join column.
/// assert_eq!(run.gathered().canonical().to_rows(),
///            vec![vec![1, 10, 7], vec![2, 20, 8]]);
/// ```
pub fn hash_join(
    r: &Relation,
    r_col: usize,
    s: &Relation,
    s_col: usize,
    p: usize,
    seed: u64,
) -> JoinRun {
    let mut cluster = Cluster::new(p);
    let h = HashFamily::new(seed, 1);
    if metrics::is_enabled() {
        // Slide 23: one round at L = IN/p on skew-free input (τ* = 1).
        metrics::announce(&metrics::PaperBound::tuples(
            "hash_join",
            (r.len() + s.len()) as f64 / p as f64,
            1,
        ));
    }

    let _span = trace::span("hash_join/partition");
    let arities = [r.arity(), s.arity()];
    let mut ex = cluster.exchange_rows(&arities);
    hash_partition(&mut ex, TAG_R, r, r_col, &h);
    hash_partition(&mut ex, TAG_S, s, s_col, &h);
    let inboxes = inbox_pairs(arities, ex.finish());

    let arity = joined_arity(r.arity(), s.arity());
    let outputs = cluster.map(inboxes, |_, (r_in, s_in)| {
        let mut out = Relation::new(arity);
        hash_join_rows(&r_in, r_col, &s_in, s_col, &mut out);
        out
    });
    JoinRun {
        outputs,
        report: cluster.report(),
    }
}

/// Broadcast join (slide 32): replicate `r` (the small side) to every
/// server; `s` never moves. One round; load `|R| + |S|/p` — the right
/// choice when `|R| ≪ |S|/√p`.
pub fn broadcast_join(r: &Relation, r_col: usize, s: &Relation, s_col: usize, p: usize) -> JoinRun {
    let mut cluster = Cluster::new(p);
    let s_parts = scatter(s, p);
    if metrics::is_enabled() {
        // Slide 32: the replicated small side lands whole on every
        // server; the big side never moves (its resident |S|/p share
        // is the bound's second term but is never received).
        metrics::announce(&metrics::PaperBound::tuples(
            "broadcast_join",
            r.len() as f64 + s.len() as f64 / p as f64,
            1,
        ));
    }

    let _span = trace::span("broadcast_join/replicate");
    let mut ex = cluster.exchange_rows(&[r.arity()]);
    let everyone: Vec<usize> = (0..p).collect();
    route_input(&mut ex, 0, r, p, &everyone, |_, _| 0);
    let replicas = single_stream(r.arity(), ex.finish());

    let arity = joined_arity(r.arity(), s.arity());
    let work: Vec<_> = replicas.into_iter().zip(s_parts).collect();
    let outputs = cluster.map(work, |_, (r_in, s_part)| {
        let mut out = Relation::new(arity);
        hash_join_rows(&r_in, r_col, &s_part, s_col, &mut out);
        out
    });
    JoinRun {
        outputs,
        report: cluster.report(),
    }
}

/// The optimal `p₁ × p₂` split for a Cartesian product:
/// `|R|/p₁ = |S|/p₂` with `p₁·p₂ ≤ p` (slide 28).
pub fn product_grid(nr: usize, ns: usize, p: usize) -> (usize, usize) {
    if p <= 1 {
        return (1, 1);
    }
    let ratio = ((nr.max(1) as f64) / (ns.max(1) as f64)).sqrt();
    let mut p1 = ((p as f64).sqrt() * ratio).round().max(1.0) as usize;
    p1 = p1.min(p);
    let mut p2 = p / p1;
    if p2 == 0 {
        p2 = 1;
        p1 = p;
    }
    // Local search: try to improve the load by shifting the balance.
    let load = |a: usize, b: usize| nr as f64 / a as f64 + ns as f64 / b as f64;
    let mut best = (p1, p2);
    for a in 1..=p {
        let b = p / a;
        if b >= 1 && load(a, b) < load(best.0, best.1) {
            best = (a, b);
        }
    }
    best
}

/// Cartesian product on a `p₁ × p₂` server grid (slide 28): each `R`
/// tuple goes to one random row (replicated across its `p₂` columns),
/// each `S` tuple to one random column. One round; load
/// `|R|/p₁ + |S|/p₂ = Θ(√(|R|·|S|/p))` at the optimal split.
///
/// Output rows are `r_row ++ s_row` (no join column to drop).
pub fn cartesian(r: &Relation, s: &Relation, p: usize, seed: u64) -> JoinRun {
    let (p1, p2) = product_grid(r.len(), s.len(), p);
    let grid = parqp_mpc::Grid::new(vec![p1, p2]);
    let mut cluster = Cluster::new(grid.len());
    let h = HashFamily::new(seed, 2);
    if metrics::is_enabled() {
        // Slide 28: |R|/p₁ + |S|/p₂ at the grid the split chose.
        metrics::announce(&metrics::PaperBound::tuples(
            "cartesian",
            r.len() as f64 / p1 as f64 + s.len() as f64 / p2 as f64,
            1,
        ));
    }

    let _span = trace::span("cartesian/scatter");
    let arities = [r.arity(), s.arity()];
    let mut ex = cluster.exchange_rows(&arities);
    if !(r.is_empty() && s.is_empty()) {
        ex.note_grid(&grid);
    }
    // An R row fixes its grid row (stride p₂) and spans the columns; an
    // S row fixes its column and spans the rows. A row's band is drawn
    // from its index in fragment order.
    let (r_fan, s_fan) = (grid.fan_out(|d| d == 0), grid.fan_out(|d| d == 1));
    let on_grid = grid.len();
    route_input(&mut ex, TAG_R, r, on_grid, r_fan.offsets(), |i, _| {
        h.hash(0, i as u64, p1) * p2
    });
    route_input(&mut ex, TAG_S, s, on_grid, s_fan.offsets(), |i, _| {
        h.hash(1, i as u64, p2)
    });
    let inboxes = inbox_pairs(arities, ex.finish());

    let arity = r.arity() + s.arity();
    let outputs = cluster.map(inboxes, |_, (r_in, s_in)| {
        let mut out = Relation::new(arity);
        let mut buf = Vec::new();
        for a in &r_in {
            for b in &s_in {
                buf.clear();
                buf.extend_from_slice(a);
                buf.extend_from_slice(b);
                out.push(&buf);
            }
        }
        out
    });
    JoinRun {
        outputs,
        report: cluster.report(),
    }
}

/// Skew-resilient join (slide 30): light values run the parallel hash
/// join; every heavy hitter `b` gets its own group of servers computing
/// `R(·,b) × S(b,·)` as a Cartesian product. Server groups are allocated
/// by greedy water-filling on the groups' predicted loads, achieving
/// `L = O(√(OUT/p) + IN/p)` for arbitrary skew.
///
/// Heavy hitters are values of degree ≥ `IN/p` in either relation
/// (slide 29). The statistics are computed exactly (a real system uses a
/// sampling round; that changes only constants).
pub fn skew_join(
    r: &Relation,
    r_col: usize,
    s: &Relation,
    s_col: usize,
    p: usize,
    seed: u64,
) -> JoinRun {
    let input = (r.len() + s.len()) as u64;
    let threshold = (input / p as u64).max(1);
    // The one statistics pass: the announced OUT, the heavy list, the
    // truncation order and the water-filling costs are all read off
    // these two tables.
    let r_deg = degree_counts(r, r_col);
    let s_deg = degree_counts(s, s_col);
    // Slide 30: L = O(√(OUT/p) + IN/p) for arbitrary skew.
    // Announced before any sub-algorithm runs, so this is the
    // capture's primary bound even on the hash-join fallback path.
    if metrics::is_enabled() {
        announce_out_bound("skew_join", degree_join_size(&r_deg, &s_deg), input, p, 1);
    }
    let degrees_of = |b: &Value| {
        let (nr, ns) = (r_deg.get(b), s_deg.get(b));
        (nr.copied().unwrap_or(0), ns.copied().unwrap_or(0))
    };
    let mut heavy = join_heavy_hitters(&r_deg, &s_deg, threshold);
    if heavy.is_empty() || p == 1 {
        // No split possible (or needed): plain hash join.
        return hash_join(r, r_col, s, s_col, p, seed);
    }
    // Each heavy hitter needs an exclusive server group; with fewer
    // servers than hitters, keep the heaviest p−1 and let the rest ride
    // the light hash join (they are at most barely heavy anyway).
    if heavy.len() + 1 > p {
        heavy.sort_by_key(|b| {
            let (nr, ns) = degrees_of(b);
            std::cmp::Reverse(nr + ns)
        });
        heavy.truncate(p.saturating_sub(1).max(1));
        heavy.sort_unstable();
    }

    let heavy_set: parqp_data::FastSet<Value> = heavy.iter().copied().collect();
    let r_light = r.filter(|row| !heavy_set.contains(&row[r_col]));
    let s_light = s.filter(|row| !heavy_set.contains(&row[s_col]));

    // Group 0 = light hash join; group i ≥ 1 = heavy hitter i−1.
    // Predicted cost of a group given its server count, for water-filling.
    let light_in = (r_light.len() + s_light.len()) as f64;
    let heavy_cost: Vec<Box<dyn Fn(usize) -> f64>> = heavy
        .iter()
        .map(|b| {
            let (nr, ns) = degrees_of(b);
            let (nr, ns) = (nr as usize, ns as usize);
            // The true load of the b-group at q servers: the optimal
            // grid's |R_b|/p₁ + |S_b|/p₂ (degenerates to a broadcast
            // line when one side is a single tuple — 2√(nr·ns/q) alone
            // would badly underestimate that case).
            Box::new(move |q: usize| {
                let (p1, p2) = product_grid(nr, ns, q);
                nr as f64 / p1 as f64 + ns as f64 / p2 as f64
            }) as Box<dyn Fn(usize) -> f64>
        })
        .collect();
    let groups = 1 + heavy.len();
    let mut alloc = vec![1usize; groups];
    let mut spare = p.saturating_sub(groups);
    let cost = |g: usize, q: usize| -> f64 {
        if g == 0 {
            light_in / q as f64
        } else {
            heavy_cost[g - 1](q)
        }
    };
    while spare > 0 {
        let worst = (0..groups)
            .max_by(|&a, &b| {
                cost(a, alloc[a])
                    .partial_cmp(&cost(b, alloc[b]))
                    .expect("finite costs")
            })
            .expect("at least one group");
        alloc[worst] += 1;
        spare -= 1;
    }

    // Run each group on its own sub-cluster; they share the single round.
    let mut outputs = Vec::new();
    let mut reports = Vec::new();
    let light_span = trace::span("skew_join/light");
    let light_run = hash_join(&r_light, r_col, &s_light, s_col, alloc[0], seed);
    drop(light_span);
    outputs.extend(light_run.outputs);
    reports.push(light_run.report);

    let _span = trace::span("skew_join/heavy");
    for (i, &b) in heavy.iter().enumerate() {
        let rb = r.filter(|row| row[r_col] == b);
        let sb = s.filter(|row| row[s_col] == b);
        let run = cartesian(&rb, &sb, alloc[i + 1], seed ^ (i as u64 + 1));
        // Convert product rows (r_row ++ s_row) to the join convention
        // (drop the s join column, now at offset r.arity() + s_col).
        let drop_at = r.arity() + s_col;
        for part in run.outputs {
            let keep: Vec<usize> = (0..part.arity()).filter(|&c| c != drop_at).collect();
            outputs.push(if part.is_empty() {
                Relation::new(joined_arity(r.arity(), s.arity()))
            } else {
                part.project(&keep)
            });
        }
        reports.push(run.report);
    }

    JoinRun {
        outputs,
        report: LoadReport::parallel(&reports),
    }
}

/// Announce `L = √(OUT/p) + IN/p` over `rounds` rounds (slides 30–31).
fn announce_out_bound(algorithm: &'static str, out: u64, input: u64, p: usize, rounds: usize) {
    metrics::announce(&metrics::PaperBound::tuples(
        algorithm,
        (out as f64 / p as f64).sqrt() + input as f64 / p as f64,
        rounds,
    ));
}

/// A tagged tuple sorted by join key: the unit of the sort-based join.
/// The tiebreak hash makes sort keys effectively distinct, so PSRS keeps
/// its `Θ(N/p)` balance even when one join value dominates; the tuples of
/// such a value then span several servers and are handled by the
/// crossing-key Cartesian grid.
#[derive(Debug, Clone)]
struct SortItem {
    key: Value,
    tie: u64,
    tag: usize,
    row: Vec<Value>,
}

impl Weight for SortItem {
    fn words(&self) -> u64 {
        self.row.len() as u64
    }
}

/// Sort-based join (slide 31, Hu et al. '17): union the relations, sort
/// by the join attribute with PSRS, join locally where a value lives on a
/// single server, and fall back to the Cartesian grid for values that
/// cross server boundaries. `L = O(√(OUT/p) + IN/p)`; 4 rounds
/// (2 for PSRS + boundary exchange + crossing redistribution).
pub fn sort_merge_join(
    r: &Relation,
    r_col: usize,
    s: &Relation,
    s_col: usize,
    p: usize,
    seed: u64,
) -> JoinRun {
    let mut cluster = Cluster::new(p);
    let h = HashFamily::new(seed ^ 0x50f7, 2);
    if metrics::is_enabled() {
        // Slide 31: same load bound as the skew join, in 4 rounds.
        let out = join_output_size(r, r_col, s, s_col);
        let input = (r.len() + s.len()) as u64;
        announce_out_bound("sort_merge_join", out, input, p, 4);
    }

    // Union, tagged, keyed by the join attribute with a tiebreak.
    let mut items: Vec<SortItem> = Vec::with_capacity(r.len() + s.len());
    let tie_of = |i: usize| h.digest(0, i as u64);
    for row in r.iter() {
        items.push(SortItem {
            key: row[r_col],
            tie: tie_of(items.len()),
            tag: TAG_R,
            row: row.to_vec(),
        });
    }
    for row in s.iter() {
        items.push(SortItem {
            key: row[s_col],
            tie: tie_of(items.len()),
            tag: TAG_S,
            row: row.to_vec(),
        });
    }
    let local = cluster.scatter(items);
    let psrs_span = trace::span("sort_merge/psrs");
    let parts = parqp_sort::psrs_by(&mut cluster, local, |it| (it.key, it.tie));
    drop(psrs_span);

    // Boundary exchange: everyone learns every server's key span plus the
    // per-side row counts at the two boundary keys, so all servers can
    // agree on the *size-aware* grid for every crossing key (a crossing
    // key is the min or max of each of its holders).
    let boundary_span = trace::span("sort_merge/boundaries");
    let mut ex = cluster.exchange::<Vec<u64>>();
    for (sid, part) in parts.iter().enumerate() {
        ex.set_sender(sid);
        if let (Some(first), Some(last)) = (part.first(), part.last()) {
            let count = |key: Value, tag: usize| -> u64 {
                part.iter()
                    .filter(|it| it.key == key && it.tag == tag)
                    .count() as u64
            };
            ex.broadcast(vec![
                sid as u64,
                first.key,
                last.key,
                count(first.key, TAG_R),
                count(first.key, TAG_S),
                count(last.key, TAG_R),
                count(last.key, TAG_S),
            ]);
        }
    }
    let spans_raw = ex.finish();
    drop(boundary_span);
    let spans: Vec<(usize, Value, Value)> = spans_raw[0]
        .iter()
        .map(|m| (m[0] as usize, m[1], m[2]))
        .collect();
    // Global per-candidate-key (r, s) counts from the boundary reports.
    let mut key_counts: parqp_data::FastMap<Value, (usize, usize)> = parqp_data::FastMap::default();
    for m in &spans_raw[0] {
        let (first, last) = (m[1], m[2]);
        let e = key_counts.entry(first).or_insert((0, 0));
        e.0 += m[3] as usize;
        e.1 += m[4] as usize;
        if last != first {
            let e = key_counts.entry(last).or_insert((0, 0));
            e.0 += m[5] as usize;
            e.1 += m[6] as usize;
        }
    }

    // Crossing keys: spans are ordered by key range, so a key crosses iff
    // it lies in ≥ 2 spans; its holders are contiguous. Each crossing key
    // gets the optimal p₁ × p₂ grid for its true (r, s) counts.
    let mut crossing: Vec<(Value, Vec<usize>, usize, usize)> = Vec::new();
    let mut candidates: Vec<Value> = spans.iter().flat_map(|&(_, lo, hi)| [lo, hi]).collect();
    candidates.sort_unstable();
    candidates.dedup();
    for k in candidates {
        let holders: Vec<usize> = spans
            .iter()
            .filter(|&&(_, lo, hi)| lo <= k && k <= hi)
            .map(|&(sid, _, _)| sid)
            .collect();
        if holders.len() >= 2 {
            let (rk, sk) = key_counts.get(&k).copied().unwrap_or((0, 0));
            let (p1, p2) = product_grid(rk.max(1), sk.max(1), holders.len());
            crossing.push((k, holders, p1, p2));
        }
    }
    let crossing_keys: parqp_data::FastSet<Value> =
        crossing.iter().map(|&(k, _, _, _)| k).collect();

    // Redistribution round: rows of crossing keys go to a grid inside the
    // key's holder range; everything else joins locally, no communication.
    let _span = trace::span("sort_merge/crossing");
    let arities = [r.arity(), s.arity()];
    let mut ex = cluster.exchange_rows(&arities);
    for (sid, part) in parts.iter().enumerate() {
        ex.set_sender(sid);
        let mut io = parqp_data::paged::IoCursor::new(sid);
        for item in part {
            io.read(item.row.len());
            if !crossing_keys.contains(&item.key) {
                continue;
            }
            let (_, holders, p1, p2) = crossing
                .iter()
                .find(|&&(k, _, _, _)| k == item.key)
                .expect("crossing key known");
            let (p1, p2) = (*p1, *p2);
            // R rows take a random row band, S rows a random column band
            // of the p1 × p2 sub-grid laid over the holders. The tiebreak
            // digest doubles as the band choice.
            if item.tag == TAG_R {
                let band = (item.tie % p1 as u64) as usize;
                for col in 0..p2 {
                    ex.send_row(TAG_R, holders[band * p2 + col], &item.row);
                }
            } else {
                let band = (item.tie % p2 as u64) as usize;
                for rowb in 0..p1 {
                    ex.send_row(TAG_S, holders[rowb * p2 + band], &item.row);
                }
            }
        }
    }
    let redist = inbox_pairs(arities, ex.finish());

    let out_arity = joined_arity(r.arity(), s.arity());
    let work: Vec<_> = parts.into_iter().zip(redist).collect();
    let outputs = cluster.map(work, |_, (part, (cross_r, cross_s))| {
        let mut out = Relation::new(out_arity);
        // Local phase: non-crossing keys, matched within the sorted run.
        let mut local = [Relation::new(r.arity()), Relation::new(s.arity())];
        for it in part.iter().filter(|it| !crossing_keys.contains(&it.key)) {
            local[it.tag].push(&it.row);
        }
        let [local_r, local_s] = local;
        hash_join_rows(&local_r, r_col, &local_s, s_col, &mut out);
        // Crossing phase: Cartesian within each key.
        for a in &cross_r {
            for b in &cross_s {
                if a[r_col] == b[s_col] {
                    out.push_merged(a, b, s_col);
                }
            }
        }
        out
    });
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

    fn check_against_oracle(run: &JoinRun, r: &Relation, r_col: usize, s: &Relation, s_col: usize) {
        let expect = twoway_oracle(r, r_col, s, s_col);
        assert_eq!(run.gathered().canonical(), expect.canonical());
        // Bag semantics: sizes must match too.
        assert_eq!(run.output_size(), expect.len());
    }

    #[test]
    fn hash_join_correct() {
        let r = generate::uniform(2, 500, 100, 1);
        let s = generate::uniform(2, 500, 100, 2);
        let run = hash_join(&r, 1, &s, 0, 8, 42);
        check_against_oracle(&run, &r, 1, &s, 0);
        assert_eq!(run.report.num_rounds(), 1);
        assert_eq!(run.report.total_tuples(), 1000);
    }

    #[test]
    fn hash_join_load_balanced_without_skew() {
        let r = generate::key_unique_pairs(8000, 1, 1 << 40, 3);
        let s = generate::key_unique_pairs(8000, 0, 1 << 40, 4);
        let run = hash_join(&r, 1, &s, 0, 16, 7);
        let ideal = 16_000.0 / 16.0;
        let l = run.report.max_load_tuples() as f64;
        assert!(l < 1.5 * ideal, "L = {l}, ideal = {ideal}");
    }

    #[test]
    fn hash_join_suffers_under_extreme_skew() {
        // Slide 27: all tuples share one key → hash join load = IN.
        let r = generate::constant_key_pairs(1000, 7, 1);
        let s = generate::constant_key_pairs(1000, 7, 0);
        let run = hash_join(&r, 1, &s, 0, 8, 5);
        assert_eq!(run.report.max_load_tuples(), 2000);
    }

    #[test]
    fn broadcast_join_correct() {
        let r = generate::uniform(2, 50, 30, 10);
        let s = generate::uniform(2, 2000, 30, 11);
        let run = broadcast_join(&r, 1, &s, 0, 8);
        check_against_oracle(&run, &r, 1, &s, 0);
        // Load = |R| per server (S never moves).
        assert_eq!(run.report.max_load_tuples(), 50);
        assert_eq!(run.report.total_tuples(), 50 * 8);
    }

    #[test]
    fn cartesian_correct_and_balanced() {
        let r = generate::uniform(1, 200, 1000, 20);
        let s = generate::uniform(1, 200, 1000, 21);
        let run = cartesian(&r, &s, 16, 9);
        assert_eq!(run.output_size(), 200 * 200);
        // Slide 28: L = 2·√(|R||S|/p) = 2·√(40000/16) = 100.
        let l = run.report.max_load_tuples() as f64;
        assert!(l < 2.0 * 100.0, "L = {l}");
    }

    #[test]
    fn cartesian_unequal_sides() {
        let r = generate::uniform(1, 40, 1000, 22);
        let s = generate::uniform(1, 4000, 1000, 23);
        let run = cartesian(&r, &s, 16, 13);
        assert_eq!(run.output_size(), 40 * 4000);
        let (p1, p2) = product_grid(40, 4000, 16);
        assert!(p1 <= p2, "small side gets fewer bands: {p1}x{p2}");
    }

    #[test]
    fn product_grid_within_budget() {
        for (nr, ns, p) in [(10, 10, 4), (1, 100, 7), (1000, 10, 64), (5, 5, 1)] {
            let (p1, p2) = product_grid(nr, ns, p);
            assert!(p1 * p2 <= p.max(1));
            assert!(p1 >= 1 && p2 >= 1);
        }
    }

    #[test]
    fn skew_join_correct_on_zipf() {
        let r = generate::zipf_pairs(2000, 500, 1.2, 1, 31);
        let s = generate::zipf_pairs(2000, 500, 1.2, 0, 32);
        let run = skew_join(&r, 1, &s, 0, 16, 8);
        check_against_oracle(&run, &r, 1, &s, 0);
    }

    #[test]
    fn skew_join_beats_hash_join_on_extreme_skew() {
        let r = generate::constant_key_pairs(2000, 7, 1);
        let s = generate::constant_key_pairs(2000, 7, 0);
        let hash = hash_join(&r, 1, &s, 0, 16, 5);
        let skew = skew_join(&r, 1, &s, 0, 16, 5);
        assert_eq!(skew.gathered().canonical(), hash.gathered().canonical());
        // Hash join: everything on one server (4000). Skew join:
        // 2·√(|R||S|/p) = 2·√(4M/16) = 1000.
        assert_eq!(hash.report.max_load_tuples(), 4000);
        assert!(
            skew.report.max_load_tuples() < 1600,
            "skew L = {}",
            skew.report.max_load_tuples()
        );
    }

    #[test]
    fn skew_join_respects_server_budget_with_many_heavies() {
        // 16 heavy values, only 4 servers: the group allocation must not
        // exceed p.
        let mut r = Relation::new(2);
        let mut s = Relation::new(2);
        for k in 0..16u64 {
            for i in 0..50 {
                r.push(&[i, k]);
                s.push(&[k, i]);
            }
        }
        let run = skew_join(&r, 1, &s, 0, 4, 9);
        assert!(
            run.report.servers <= 4,
            "used {} servers",
            run.report.servers
        );
        check_against_oracle(&run, &r, 1, &s, 0);
        // p = 1 degenerates to the single-server hash join.
        let run1 = skew_join(&r, 1, &s, 0, 1, 9);
        assert_eq!(run1.report.servers, 1);
        check_against_oracle(&run1, &r, 1, &s, 0);
    }

    #[test]
    fn skew_join_no_heavy_is_hash_join() {
        let r = generate::key_unique_pairs(500, 1, 1 << 30, 40);
        let s = generate::key_unique_pairs(500, 0, 1 << 30, 41);
        let run = skew_join(&r, 1, &s, 0, 8, 3);
        assert_eq!(run.report.num_rounds(), 1);
        check_against_oracle(&run, &r, 1, &s, 0);
    }

    #[test]
    fn sort_merge_join_correct() {
        let r = generate::uniform(2, 800, 60, 50);
        let s = generate::uniform(2, 800, 60, 51);
        let run = sort_merge_join(&r, 1, &s, 0, 8, 12);
        check_against_oracle(&run, &r, 1, &s, 0);
    }

    #[test]
    fn sort_merge_join_handles_extreme_skew() {
        let r = generate::constant_key_pairs(1000, 7, 1);
        let s = generate::constant_key_pairs(1000, 7, 0);
        let run = sort_merge_join(&r, 1, &s, 0, 16, 12);
        assert_eq!(run.output_size(), 1_000_000);
        // All rows share one key: the crossing grid must spread the load
        // well below the all-on-one-server 2000.
        let l = run.report.max_load_tuples();
        assert!(l < 1200, "L = {l}");
    }

    #[test]
    fn sort_merge_join_empty_sides() {
        let r = Relation::new(2);
        let s = generate::uniform(2, 100, 10, 52);
        let run = sort_merge_join(&r, 1, &s, 0, 4, 1);
        assert_eq!(run.output_size(), 0);
    }

    #[test]
    fn single_server_degenerate() {
        let r = generate::uniform(2, 100, 20, 60);
        let s = generate::uniform(2, 100, 20, 61);
        for run in [
            hash_join(&r, 1, &s, 0, 1, 2),
            broadcast_join(&r, 1, &s, 0, 1),
            skew_join(&r, 1, &s, 0, 1, 2),
            sort_merge_join(&r, 1, &s, 0, 1, 2),
        ] {
            check_against_oracle(&run, &r, 1, &s, 0);
        }
    }
}
