//! Heavy-Light + Semijoins — the multi-round skew algorithms of
//! slides 57–60.
//!
//! Multi-round processing beats the one-round `IN/p^{1/ψ*}` bound by
//! using **semijoins**, which "remove potential outputs each round
//! without growing intermediate relations" (slide 58):
//!
//! * [`semijoin_pair_hl`] — slide 58's easy-hard query
//!   `R(x) ⋈ S(x,y) ⋈ T(y)`: two skew-insensitive semijoin reductions of
//!   `S` bring the load to `O(IN/p)` even when `x` or `y` is heavy
//!   (versus `IN/p^{1/2}` for any one-round algorithm). Each semijoin is
//!   a request/reply pair — `S` never moves, only *distinct keys* travel,
//!   so a value of any degree costs at most `p` messages.
//! * [`hl_triangle`] — slide 59's triangle decomposition: `z` values of
//!   degree below `IN/p^{1/3}` run the one-round HyperCube; each heavy
//!   `z = c` spawns the residual semijoin query
//!   `R(x,y) ⋉ S(y,c) ⋉ T(c,x)` on its own `~p^{2/3}`-server group,
//!   2 rounds at `L = O(IN/p^{2/3})` — worst-case optimal overall.

use crate::common::{fragments, inbox_pairs, route_input, scatter, single_stream, JoinRun};
use parqp_data::{FastMap, FastSet, KeyIndex, Relation, Value};
use parqp_mpc::{Cluster, HashFamily, LoadReport};
use parqp_query::SchemaJoin;

/// Filter the in-place fragments of `S(x₀, x₁)` by membership of
/// column `key_col` in the unary relation `right`, without moving `S`:
/// a request/reply distributed semijoin (2 rounds on `cluster`).
///
/// Skew-insensitive: only *distinct* keys travel, so a key of any degree
/// costs at most one request per holding server and one reply each.
fn semijoin_requests(
    cluster: &mut Cluster,
    left_parts: &mut [Relation],
    key_col: usize,
    right: &Relation,
    h: &HashFamily,
    dim: usize,
) {
    let p = cluster.p();
    // Round A: distinct left keys and right keys meet at h(key). Stream
    // `sid` carries server `sid`'s asks — the asking server is routing
    // metadata, as uncharged as a tag — and stream `p` the right keys,
    // routed from their initial placement.
    let mut ex = cluster.exchange_rows(&vec![1; p + 1]);
    for (sid, part) in left_parts.iter().enumerate() {
        ex.set_sender(sid);
        let mut seen: FastSet<Value> = FastSet::default();
        for row in part.iter() {
            let key = row[key_col];
            if seen.insert(key) {
                ex.send_row(sid, h.hash(dim, key, p), &[key]);
            }
        }
    }
    route_input(&mut ex, p, right, p, &[0], |_, row| h.hash(dim, row[0], p));
    let mut asks = ex.finish();
    let members = fragments(1, asks.pop().unwrap_or_default());

    // Round B: positive replies go back to the asking servers, each sent
    // by the member server that holds the key.
    let mut ex = cluster.exchange_rows(&[1]);
    for (at, members) in members.iter().enumerate() {
        ex.set_sender(at);
        let members = KeyIndex::build(members, &[0]);
        for (origin, from) in asks.iter().enumerate() {
            for key in from[at].chunks_exact(1) {
                if members.contains(key, &[0]) {
                    ex.send_row(0, origin, key);
                }
            }
        }
    }
    let replies = single_stream(1, ex.finish());

    let on = SchemaJoin::new(&[0, 1], &[key_col]);
    for (part, reply) in left_parts.iter_mut().zip(replies) {
        *part = on.semijoin(part, &reply);
    }
}

/// Slide 58: evaluate `R(x) ⋈ S(x,y) ⋈ T(y)` by two semijoin reductions
/// of `S` (4 rounds total — each semijoin is a request/reply pair),
/// at `L = O(IN/p)` under arbitrary skew. Output schema `(x, y)`.
pub fn semijoin_pair_hl(r: &Relation, s: &Relation, t: &Relation, p: usize, seed: u64) -> JoinRun {
    assert_eq!(r.arity(), 1, "R must be unary");
    assert_eq!(s.arity(), 2, "S must be binary");
    assert_eq!(t.arity(), 1, "T must be unary");
    let mut cluster = Cluster::new(p);
    let h = HashFamily::new(seed ^ 0x51ab, 2);
    let mut s_parts = scatter(s, p);
    semijoin_requests(&mut cluster, &mut s_parts, 0, r, &h, 0);
    semijoin_requests(&mut cluster, &mut s_parts, 1, t, &h, 1);
    JoinRun {
        outputs: s_parts,
        report: cluster.report(),
    }
}

/// Slide 59: the Heavy-Light + Semijoins triangle. Output schema
/// `(x, y, z)`, set semantics for the heavy side's key sets.
pub fn hl_triangle(r: &Relation, s: &Relation, t: &Relation, p: usize, seed: u64) -> JoinRun {
    assert_eq!(r.arity(), 2, "R(x,y) must be binary");
    assert_eq!(s.arity(), 2, "S(y,z) must be binary");
    assert_eq!(t.arity(), 2, "T(z,x) must be binary");
    let input = (r.len() + s.len() + t.len()) as f64;
    let threshold = (input / (p as f64).cbrt()).max(1.0) as u64;

    // Heavy z values: degree ≥ IN/p^{1/3} in S.z or T.z.
    let mut heavy: Vec<Value> = Vec::new();
    {
        let mut deg: FastMap<Value, u64> = FastMap::default();
        for row in s.iter() {
            *deg.entry(row[1]).or_insert(0) += 1;
        }
        for row in t.iter() {
            *deg.entry(row[0]).or_insert(0) += 1;
        }
        for (v, d) in deg {
            if d >= threshold {
                heavy.push(v);
            }
        }
        heavy.sort_unstable();
    }
    let heavy_set: FastSet<Value> = heavy.iter().copied().collect();

    // Light side: one-round HyperCube on S, T restricted to light z.
    let s_light = s.filter(|row| !heavy_set.contains(&row[1]));
    let t_light = t.filter(|row| !heavy_set.contains(&row[0]));
    let p_light = if heavy.is_empty() { p } else { (p / 2).max(1) };
    let q = parqp_query::Query::triangle();
    let light_run = if s_light.is_empty() || t_light.is_empty() || r.is_empty() {
        JoinRun {
            outputs: vec![Relation::new(3); p_light],
            report: LoadReport::empty(p_light),
        }
    } else {
        crate::multiway::hypercube(&q, &[r.clone(), s_light, t_light], p_light, seed)
    };

    if heavy.is_empty() {
        return light_run;
    }

    // Heavy side: per heavy c, the residual semijoin query
    // R(x,y) ⋉ {y: S(y,c)} ⋉ {x: T(c,x)} on its own group, 2 rounds:
    // round 1 filters on y, round 2 filters on x (co-hash semijoins).
    let group = ((p / 2) / heavy.len()).max(1);
    // R(x₀, x₁) ⋉ {x₁ : S(x₁, c)}, then ⋉ {x₀ : T(c, x₀)}.
    let (on_y, on_x) = (
        SchemaJoin::new(&[0, 1], &[1]),
        SchemaJoin::new(&[0, 1], &[0]),
    );
    let mut reports = vec![light_run.report.clone()];
    let mut outputs = light_run.outputs;
    for (i, &c) in heavy.iter().enumerate() {
        let sc: Vec<Value> = {
            let mut ys: Vec<Value> = s
                .iter()
                .filter(|row| row[1] == c)
                .map(|row| row[0])
                .collect();
            ys.sort_unstable();
            ys.dedup();
            ys
        };
        let tc: Vec<Value> = {
            let mut xs: Vec<Value> = t
                .iter()
                .filter(|row| row[0] == c)
                .map(|row| row[1])
                .collect();
            xs.sort_unstable();
            xs.dedup();
            xs
        };
        let mut cluster = Cluster::new(group);
        let h = HashFamily::new(seed ^ (0x7e47 + i as u64), 2);
        // Round 1: R by h(y), S_c keys by h(y); filter. The key lists
        // are computed centrally and belong to no server, so each round
        // sends its keys before any sender is set.
        let mut ex = cluster.exchange_rows(&[2, 1]);
        for &y in &sc {
            ex.send_row(1, h.hash(0, y, group), &[y]);
        }
        route_input(&mut ex, 0, r, group, &[0], |_, row| {
            h.hash(0, row[1], group)
        });
        let filtered: Vec<Relation> = inbox_pairs([2, 1], ex.finish())
            .iter()
            .map(|(rows, keys)| on_y.semijoin(rows, keys))
            .collect();
        // Round 2: survivors by h(x), T_c keys by h(x); filter; emit (x,y,c).
        let mut ex = cluster.exchange_rows(&[2, 1]);
        for &x in &tc {
            ex.send_row(1, h.hash(1, x, group), &[x]);
        }
        for (sid, rows) in filtered.iter().enumerate() {
            ex.set_sender(sid);
            for row in rows {
                ex.send_row(0, h.hash(1, row[0], group), row);
            }
        }
        for (rows, keys) in inbox_pairs([2, 1], ex.finish()) {
            let kept = on_x.semijoin(&rows, &keys);
            outputs.push(Relation::from_raw(
                3,
                kept.iter().flat_map(|row| [row[0], row[1], c]).collect(),
            ));
        }
        reports.push(cluster.report());
    }
    JoinRun {
        outputs,
        report: LoadReport::parallel(&reports),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parqp_data::generate;
    use parqp_query::{evaluate, Query};

    #[test]
    fn semijoin_pair_matches_oracle() {
        let q = Query::semijoin_pair();
        let r = generate::unary_range(60);
        let s = generate::uniform(2, 400, 100, 3);
        let t = generate::unary_range(80);
        let run = semijoin_pair_hl(&r, &s, &t, 8, 7);
        let expect = evaluate(&q, &[r, s, t]);
        assert_eq!(run.gathered().canonical(), expect.canonical());
        assert_eq!(run.report.num_rounds(), 4);
    }

    #[test]
    fn semijoin_pair_skew_insensitive_load() {
        // Heavy x in S: the one-round bound is IN/√p, but the semijoin
        // algorithm stays near IN/p because S never moves.
        let n = 8000;
        let p = 64;
        let r = generate::unary_range(10);
        let s = generate::constant_key_pairs(n, 5, 0); // all x = 5
        let t = generate::unary_range(n as u64 as usize);
        let run = semijoin_pair_hl(&r, &s, &t, p, 7);
        let q = Query::semijoin_pair();
        let expect = evaluate(&q, &[r, s, t]);
        assert_eq!(run.gathered().canonical(), expect.canonical());
        let l = run.report.max_load_tuples() as f64;
        let one_round = (n as f64 + n as f64 + 10.0) / (p as f64).sqrt();
        assert!(
            l < one_round,
            "semijoin load {l} should beat the 1-round bound {one_round}"
        );
    }

    #[test]
    fn hl_triangle_no_heavy_is_hypercube() {
        let g = generate::uniform(2, 600, 1 << 30, 5);
        let run = hl_triangle(&g, &g, &g, 27, 3);
        assert_eq!(
            run.report.num_rounds(),
            1,
            "no heavy values ⇒ pure HyperCube"
        );
        let q = Query::triangle();
        let expect = evaluate(&q, &[g.clone(), g.clone(), g]);
        assert_eq!(run.gathered().canonical(), expect.canonical());
    }

    #[test]
    fn hl_triangle_with_hub_matches_oracle() {
        // Hub degree must clear the IN/p^{1/3} threshold: here IN = 6000,
        // p = 64 ⇒ threshold 1500, and the hub touches 1600 tuples.
        let mut g = generate::random_symmetric_graph(80, 400, 9);
        for i in 0..800u64 {
            g.push(&[300 + i, 0]);
            g.push(&[0, 300 + i]);
        }
        let q = Query::triangle();
        let expect = evaluate(&q, &[g.clone(), g.clone(), g.clone()]);
        let run = hl_triangle(&g, &g, &g, 64, 11);
        assert_eq!(run.gathered().canonical(), expect.canonical());
        assert_eq!(
            run.report.num_rounds(),
            2,
            "heavy side adds the 2-round semijoins"
        );
    }

    #[test]
    fn hl_triangle_beats_plain_hypercube_under_z_skew() {
        // All of S concentrates on one z value: HyperCube's z dimension
        // collapses, HL routes that value to its own semijoin group.
        let n = 3000usize;
        let r = generate::uniform(2, n, 200, 21);
        let s = generate::constant_key_pairs(n, 9, 1); // S(y, 9) for all rows
        let mut t = generate::uniform(2, n, 200, 22);
        for i in 0..n as u64 {
            t.push(&[9, i % 200]); // T(9, x): make z = 9 heavy in T too
        }
        let q = Query::triangle();
        let rels = vec![r.clone(), s.clone(), t.clone()];
        let expect = evaluate(&q, &rels);
        let hc = crate::multiway::hypercube(&q, &rels, 64, 5);
        let hl = hl_triangle(&r, &s, &t, 64, 5);
        assert_eq!(hl.gathered().canonical(), expect.canonical());
        assert!(
            hl.report.max_load_tuples() < hc.report.max_load_tuples(),
            "HL {} vs HC {}",
            hl.report.max_load_tuples(),
            hc.report.max_load_tuples()
        );
    }

    #[test]
    fn empty_inputs() {
        let e = Relation::new(2);
        let run = hl_triangle(&e, &e, &e, 8, 1);
        assert_eq!(run.output_size(), 0);
        let run = semijoin_pair_hl(
            &Relation::new(1),
            &Relation::new(2),
            &Relation::new(1),
            4,
            1,
        );
        assert_eq!(run.output_size(), 0);
    }
}
