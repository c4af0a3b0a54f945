//! `hash_partition` against the round it stands for: the input cut into
//! `p` round-robin fragments by `scatter`, each fragment scanned with a
//! `RouteScan` and every row sent with `send_row`, sender by sender.
//! Both must deliver the same buffers and charge the same ledger, the
//! same `Send`/`Recv` events and the same page reads on every server.

use parqp_data::paged::{capture, IoStats, RouteScan, StoreConfig};
use parqp_data::{generate, Relation};
use parqp_join::common::{hash_partition, scatter};
use parqp_mpc::trace::{Recorder, TraceEvent};
use parqp_mpc::{Cluster, HashFamily, LoadReport, RowExchange};

/// The reference: scatter, then route each fragment as it is scanned.
fn scatter_and_send(
    ex: &mut RowExchange<'_>,
    stream: usize,
    rel: &Relation,
    col: usize,
    h: &HashFamily,
) {
    let p = ex.p();
    for (sid, frag) in scatter(rel, p).iter().enumerate() {
        ex.set_sender(sid);
        for row in RouteScan::new(sid, frag).iter() {
            ex.send_row(stream, h.hash(0, row[col], p), row);
        }
    }
}

/// The round under test.
fn placed(ex: &mut RowExchange<'_>, stream: usize, rel: &Relation, col: usize, h: &HashFamily) {
    hash_partition(ex, stream, rel, col, h);
}

type Route = fn(&mut RowExchange<'_>, usize, &Relation, usize, &HashFamily);

/// Everything one round shows: delivered buffers `[stream][dest]`, the
/// ledger, the trace and, under a store, each server's page IO.
type Seen = (
    Vec<Vec<Vec<u64>>>,
    LoadReport,
    Vec<TraceEvent>,
    Vec<IoStats>,
);

/// Route `rel` on its key column and then its one-column projection of
/// that key, as two streams of one round, so the second stream's pages
/// follow the first's.
fn run(route: Route, p: usize, rel: &Relation, col: usize, store: Option<StoreConfig>) -> Seen {
    let h = HashFamily::new(23, 1);
    let narrow = rel.project(&[col]);
    let round = || {
        let (trace, (delivered, report)) = Recorder::capture(|| {
            let mut cluster = Cluster::new(p);
            let mut ex = cluster.exchange_rows(&[rel.arity(), 1]);
            route(&mut ex, 0, rel, col, &h);
            route(&mut ex, 1, &narrow, 0, &h);
            (ex.finish(), cluster.report())
        });
        (delivered, report, trace.events().cloned().collect())
    };
    match store {
        None => {
            let (delivered, report, events) = round();
            (delivered, report, events, Vec::new())
        }
        Some(config) => {
            let (io, (delivered, report, events)) = capture(config, round);
            (delivered, report, events, io)
        }
    }
}

fn check(p: usize, n: usize, arity: usize, stores: &[Option<StoreConfig>]) {
    // A domain of about n/2 keys: most keys repeat, some servers get none.
    let rel = generate::uniform(arity, n, (n as u64 / 2).max(1), (n * 31 + p) as u64);
    for col in 0..arity {
        for &store in stores {
            let what = format!("p = {p}, n = {n}, arity {arity}, col {col}, {store:?}");
            let got = run(placed, p, &rel, col, store);
            let want = run(scatter_and_send, p, &rel, col, store);
            assert_eq!(got.0, want.0, "{what}: delivered buffers");
            assert_eq!(got.1, want.1, "{what}: ledger");
            assert_eq!(got.2, want.2, "{what}: trace");
            assert_eq!(got.3, want.3, "{what}: page IO");
            for buf in got.0.iter().flatten() {
                assert_eq!(buf.capacity(), buf.len(), "{what}: slack delivered");
            }
        }
    }
}

/// No store, then page sizes of one word, one word short of a row, 16
/// words and 1024 words, each over pools of 1, 2 and 256 pages.
fn stores(arity: usize) -> Vec<Option<StoreConfig>> {
    let mut page_sizes = vec![1, (arity - 1).max(1), 16, 1024];
    page_sizes.dedup();
    let mut stores = vec![None];
    for page_size in page_sizes {
        for pool_pages in [1, 2, 256] {
            stores.push(Some(StoreConfig {
                page_size,
                pool_pages,
            }));
        }
    }
    stores
}

#[test]
fn placed_round_is_scatter_and_send_on_small_inputs() {
    for p in [1usize, 2, 5, 8, 64] {
        // Empty, one row, fewer rows than servers, one per server, and
        // a count that is not a multiple of p.
        let mut sizes = vec![0, 1, p.saturating_sub(1).max(1), p, 3 * p + 2];
        sizes.dedup();
        for n in sizes {
            for arity in 1..=4 {
                check(p, n, arity, &stores(arity));
            }
        }
    }
}

#[test]
fn placed_round_is_scatter_and_send_on_40k_rows() {
    for p in [1, 2, 5, 8, 64] {
        for arity in 1..=4 {
            check(p, 40_000, arity, &stores(arity));
        }
    }
}
