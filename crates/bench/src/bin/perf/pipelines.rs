//! `hash_join` and `hypercube` re-composed from their public building
//! blocks, one span per phase.
//!
//! The library has no spans of its own yet, so traced mode runs these
//! instead of the real entry points. They send the same messages in the
//! same order; a result is accepted only if its digest and its
//! `LoadReport` equal the real entry point's (checked on every traced
//! run and, at small sizes, by the drift-guard tests).

use parqp_data::paged::RouteScan;
use parqp_data::{Relation, Value};
use parqp_join::common::{joined_arity, local_hash_join, scatter, JoinRun, Tagged};
use parqp_lp::plan_shares;
use parqp_mpc::{trace, Cluster, Exchange, Grid, HashFamily};
use parqp_query::{evaluate, Query};

use crate::spans::Tracer;
use crate::workloads::{JoinInputs, R_COL, S_COL};

const TAG_R: u32 = 0;
const TAG_S: u32 = 1;

/// Scan every fragment and send each row to the server its join key
/// hashes to: the routing loop of `hash_join`, round left unfinished.
fn route_join<'c>(
    cluster: &'c mut Cluster,
    h: &HashFamily,
    r_parts: &[Relation],
    s_parts: &[Relation],
) -> Exchange<'c, Tagged> {
    let p = cluster.p();
    let mut ex = cluster.exchange::<Tagged>();
    for (tag, col, parts) in [(TAG_R, R_COL, r_parts), (TAG_S, S_COL, s_parts)] {
        for (sid, part) in parts.iter().enumerate() {
            ex.set_sender(sid);
            let scan = RouteScan::new(sid, part);
            for row in scan.iter() {
                if let Some(&key) = row.get(col) {
                    ex.send(h.hash(0, key, p), Tagged::new(tag, row.to_vec()));
                }
            }
        }
    }
    ex
}

fn split_tags(inbox: Vec<Tagged>) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let mut r_rows = Vec::new();
    let mut s_rows = Vec::new();
    for t in inbox {
        if t.tag == TAG_R {
            r_rows.push(t.row);
        } else {
            s_rows.push(t.row);
        }
    }
    (r_rows, s_rows)
}

/// One server's local phase of the hash join.
fn probe_inbox(inbox: Vec<Tagged>, arity: usize) -> Relation {
    let (r_rows, s_rows) = split_tags(inbox);
    let mut out = Relation::new(arity);
    local_hash_join(&r_rows, R_COL, &s_rows, S_COL, &mut out);
    out
}

/// `hash_join(&j.r, 1, &j.s, 0, j.p, j.seed)`, phase by phase.
pub fn hash_join_spans(j: &JoinInputs, t: &mut Tracer) -> JoinRun {
    let mut cluster = Cluster::new(j.p);
    let h = HashFamily::new(j.seed, 1);
    let (r_parts, s_parts) = t.span("join.scatter", |_| (scatter(&j.r, j.p), scatter(&j.s, j.p)));
    let _label = trace::span("hash_join/partition");
    let ex = {
        let cluster = &mut cluster;
        t.span("join.route", move |_| {
            route_join(cluster, &h, &r_parts, &s_parts)
        })
    };
    let inboxes = t.span("mpc.exchange_finish", |_| ex.finish());
    let arity = joined_arity(j.r.arity(), j.s.arity());
    let outputs = t.span("mpc.map", |_| {
        cluster.map(inboxes, |_, inbox| probe_inbox(inbox, arity))
    });
    JoinRun {
        outputs,
        report: cluster.report(),
    }
}

/// The costs `hash_join_spans` cannot separate with nested spans,
/// measured by running each alone: the scan without the send, the hash
/// without the scan, and the `p` local joins without `Cluster::map`.
pub fn hash_join_probes(j: &JoinInputs, t: &mut Tracer) {
    let (r_parts, s_parts) = (scatter(&j.r, j.p), scatter(&j.s, j.p));
    t.span("data.route_scan", |_| {
        for parts in [&r_parts, &s_parts] {
            for (sid, part) in parts.iter().enumerate() {
                let scan = RouteScan::new(sid, part);
                for row in scan.iter() {
                    std::hint::black_box(row);
                }
            }
        }
    });
    let h = HashFamily::new(j.seed, 1);
    let keys: Vec<Value> = [(R_COL, &r_parts), (S_COL, &s_parts)]
        .into_iter()
        .flat_map(|(col, parts)| {
            parts
                .iter()
                .flat_map(move |part| part.iter().filter_map(move |row| row.get(col).copied()))
        })
        .collect();
    t.span("mpc.hash", |_| {
        for &key in &keys {
            std::hint::black_box(h.hash(0, key, j.p));
        }
    });
    // An uncharged second routing pass rebuilds the inboxes the real
    // pipeline consumed.
    let mut cluster = Cluster::new(j.p);
    let inboxes = route_join(&mut cluster, &h, &r_parts, &s_parts).finish_untracked();
    let arity = joined_arity(j.r.arity(), j.s.arity());
    t.span("join.local_hash_join", |_| {
        for inbox in inboxes {
            std::hint::black_box(probe_inbox(inbox, arity));
        }
    });
}

/// What `hypercube_spans` needs beyond the query: where each atom's
/// rows go.
struct Placement<'a> {
    query: &'a Query,
    grid: Grid,
    shares: Vec<usize>,
    h: HashFamily,
}

impl Placement<'_> {
    /// The grid coordinates a row of atom `j` fixes (`None` = `*`).
    fn partial(&self, j: usize, row: &[Value]) -> Vec<Option<usize>> {
        let mut partial = vec![None; self.query.num_vars()];
        let Some(atom) = self.query.atoms().get(j) else {
            return partial;
        };
        for (&v, &value) in atom.vars.iter().zip(row) {
            if let (Some(slot), Some(&share)) = (partial.get_mut(v), self.shares.get(v)) {
                *slot = Some(self.h.hash(v, value, share));
            }
        }
        partial
    }
}

/// The HyperCube shuffle: every row to every server matching its
/// hashed coordinates. With `send` off the loop still scans, hashes and
/// resolves destinations, which is what the send's own cost is
/// measured against.
fn route_hypercube<'c>(
    cluster: &'c mut Cluster,
    place: &Placement<'_>,
    parts: &[Vec<Relation>],
    send: bool,
) -> Exchange<'c, Tagged> {
    let mut ex = cluster.exchange::<Tagged>();
    for (j, atom_parts) in parts.iter().enumerate() {
        for (sid, part) in atom_parts.iter().enumerate() {
            ex.set_sender(sid);
            let scan = RouteScan::new(sid, part);
            for row in scan.iter() {
                let partial = place.partial(j, row);
                if send {
                    ex.send_matching(&place.grid, &partial, Tagged::new(j as u32, row.to_vec()));
                } else {
                    std::hint::black_box(place.grid.matching(&partial));
                }
            }
        }
    }
    ex
}

/// One server's local phase of HyperCube: rebuild the atom fragments
/// and evaluate the query on them.
fn evaluate_inbox(query: &Query, inbox: Vec<Tagged>) -> Relation {
    let mut fragments: Vec<Relation> = query
        .atoms()
        .iter()
        .map(|a| Relation::new(a.arity()))
        .collect();
    for t in inbox {
        if let Some(fragment) = fragments.get_mut(t.tag as usize) {
            fragment.push(&t.row);
        }
    }
    evaluate(query, &fragments)
}

fn placement<'a>(query: &'a Query, shares: Vec<usize>, seed: u64) -> Placement<'a> {
    Placement {
        query,
        grid: Grid::new(shares.clone()),
        shares,
        h: HashFamily::new(seed, query.num_vars()),
    }
}

fn lp_shares(query: &Query, rels: &[Relation], p: usize) -> Vec<usize> {
    let sizes: Vec<u64> = rels.iter().map(|r| r.len() as u64).collect();
    plan_shares(&query.hypergraph(), &sizes, p).shares
}

/// `multiway::hypercube(query, rels, p, seed)` for non-empty inputs and
/// `p ≥ 2`, phase by phase.
pub fn hypercube_spans(
    query: &Query,
    rels: &[Relation],
    p: usize,
    seed: u64,
    t: &mut Tracer,
) -> JoinRun {
    let shares = t.span("lp.plan_shares", |_| lp_shares(query, rels, p));
    let place = placement(query, shares, seed);
    let mut cluster = Cluster::new(place.grid.len());
    let parts: Vec<Vec<Relation>> = t.span("join.scatter", |_| {
        rels.iter()
            .map(|rel| scatter(rel, place.grid.len()))
            .collect()
    });
    let shuffle = trace::span("hypercube/shuffle");
    let ex = {
        let cluster = &mut cluster;
        let place = &place;
        t.span("join.hypercube_route", move |_| {
            route_hypercube(cluster, place, &parts, true)
        })
    };
    let inboxes = t.span("mpc.exchange_finish", |_| ex.finish());
    drop(shuffle);
    let _label = trace::span("hypercube/evaluate");
    let outputs = t.span("mpc.map", |_| {
        cluster.map(inboxes, |_, inbox| evaluate_inbox(query, inbox))
    });
    JoinRun {
        outputs,
        report: cluster.report(),
    }
}

/// The shuffle without its sends, and the `p` local evaluations without
/// `Cluster::map`, each run alone (see [`hash_join_probes`]).
pub fn hypercube_probes(query: &Query, rels: &[Relation], p: usize, seed: u64, t: &mut Tracer) {
    let place = placement(query, lp_shares(query, rels, p), seed);
    let parts: Vec<Vec<Relation>> = rels
        .iter()
        .map(|rel| scatter(rel, place.grid.len()))
        .collect();
    let mut cluster = Cluster::new(place.grid.len());
    t.span("join.hypercube_route_nosend", |_| {
        drop(route_hypercube(&mut cluster, &place, &parts, false));
    });
    let inboxes = route_hypercube(&mut cluster, &place, &parts, true).finish_untracked();
    t.span("query.evaluate", |_| {
        for inbox in inboxes {
            std::hint::black_box(evaluate_inbox(query, inbox));
        }
    });
}

/// The drift guard: at small sizes the re-composed pipelines must be
/// indistinguishable from the entry points they stand in for.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::OBSERVED_STORE;
    use parqp_data::{generate, paged};
    use parqp_join::multiway::hypercube;
    use parqp_join::twoway::hash_join;
    use parqp_mpc::faults::{self, FaultPlan, RecoveryStrategy};
    use parqp_mpc::metrics;
    use parqp_mpc::trace::Recorder;
    use std::collections::BTreeSet;

    /// `f` under every instrument at once: the 2-page store, a metrics
    /// registry, a trace recorder and an empty fault plan.
    fn instrumented<R>(f: impl FnOnce() -> R) -> R {
        let _store = paged::install(OBSERVED_STORE);
        let (_recorder, (_registry, (_log, out))) = Recorder::capture(|| {
            metrics::capture(|| faults::capture(FaultPlan::new(), RecoveryStrategy::default(), f))
        });
        out
    }

    fn assert_same_run(what: &str, ours: &JoinRun, real: &JoinRun) {
        assert_eq!(
            ours.report, real.report,
            "{what}: LoadReport (L, r, C, per-round vectors)"
        );
        assert_eq!(
            ours.gathered().canonical(),
            real.gathered().canonical(),
            "{what}: output"
        );
        // Stronger than the digest: the same rows on the same servers.
        assert_eq!(ours.outputs, real.outputs, "{what}: per-server fragments");
    }

    fn tiny_join() -> JoinInputs {
        JoinInputs {
            r: generate::uniform(2, 1000, 500, 11),
            s: generate::uniform(2, 1000, 500, 12),
            p: 8,
            seed: 11,
        }
    }

    #[test]
    fn recomposed_hash_join_is_hash_join() {
        let j = tiny_join();
        let real = hash_join(&j.r, 1, &j.s, 0, j.p, j.seed);
        assert!(real.output_size() > 0);
        let ours = hash_join_spans(&j, &mut Tracer::default());
        assert_same_run("bare", &ours, &real);

        let real = instrumented(|| hash_join(&j.r, 1, &j.s, 0, j.p, j.seed));
        let ours = instrumented(|| hash_join_spans(&j, &mut Tracer::default()));
        assert_same_run("instrumented", &ours, &real);
    }

    #[test]
    fn recomposed_hypercube_is_hypercube() {
        let q = Query::triangle();
        let g = generate::random_symmetric_graph(80, 700, 5);
        let rels: Vec<Relation> = vec![g.clone(), g.clone(), g];
        assert!(rels.iter().map(Relation::len).sum::<usize>() >= 2000);
        let real = hypercube(&q, &rels, 8, 5);
        assert!(real.output_size() > 0);
        let ours = hypercube_spans(&q, &rels, 8, 5, &mut Tracer::default());
        assert_same_run("bare", &ours, &real);

        let real = instrumented(|| hypercube(&q, &rels, 8, 5));
        let ours = instrumented(|| hypercube_spans(&q, &rels, 8, 5, &mut Tracer::default()));
        assert_same_run("instrumented", &ours, &real);

        // A chain query has atoms that do not span every variable.
        let chain = Query::chain(3);
        let rels: Vec<Relation> = (0..3)
            .map(|i| generate::uniform(2, 400, 60, 20 + i))
            .collect();
        let real = hypercube(&chain, &rels, 8, 9);
        let ours = hypercube_spans(&chain, &rels, 8, 9, &mut Tracer::default());
        assert_same_run("chain", &ours, &real);
    }

    #[test]
    fn probes_record_the_spans_the_metrics_read() {
        let j = tiny_join();
        let mut t = Tracer::default();
        hash_join_spans(&j, &mut t);
        hash_join_probes(&j, &mut t);
        let q = Query::triangle();
        let g = generate::random_symmetric_graph(40, 200, 3);
        let rels = vec![g.clone(), g.clone(), g];
        hypercube_spans(&q, &rels, 8, 3, &mut t);
        hypercube_probes(&q, &rels, 8, 3, &mut t);
        let names: BTreeSet<&str> = t.spans().iter().map(|s| s.name).collect();
        for name in [
            "join.scatter",
            "join.route",
            "mpc.exchange_finish",
            "mpc.map",
            "data.route_scan",
            "mpc.hash",
            "join.local_hash_join",
            "lp.plan_shares",
            "join.hypercube_route",
            "join.hypercube_route_nosend",
            "query.evaluate",
        ] {
            assert!(names.contains(name), "no span called {name}");
        }
    }
}
