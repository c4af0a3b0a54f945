//! The reference every placed-round test compares against, and the
//! harness that runs one round and records what it shows.

use parqp_data::paged::{capture, IoStats, RouteScan, StoreConfig};
use parqp_data::{Relation, Value};
use parqp_join::common::scatter;
use parqp_mpc::trace::{Recorder, TraceEvent};
use parqp_mpc::{Cluster, LoadReport, RowExchange};

/// The reference: scatter `rel` over `senders`, then send each
/// fragment's rows as they are scanned to every server `dests(i, row)`
/// names, `i` counting rows fragment by fragment.
pub fn scatter_and_send(
    ex: &mut RowExchange<'_>,
    stream: usize,
    rel: &Relation,
    senders: usize,
    mut dests: impl FnMut(usize, &[Value]) -> Vec<usize>,
) {
    let mut i = 0;
    for (sid, frag) in scatter(rel, senders).iter().enumerate() {
        ex.set_sender(sid);
        for row in RouteScan::new(sid, frag).iter() {
            for dest in dests(i, row) {
                ex.send_row(stream, dest, row);
            }
            i += 1;
        }
    }
}

/// Everything one round shows: delivered buffers `[stream][dest]`, the
/// ledger, the trace and, under a store, each server's page IO.
pub type Seen = (
    Vec<Vec<Vec<u64>>>,
    LoadReport,
    Vec<TraceEvent>,
    Vec<IoStats>,
);

/// One round on `p` servers with streams of `strides`, routed by
/// `route`, under `store` if any.
pub fn run(
    p: usize,
    strides: &[usize],
    store: Option<StoreConfig>,
    route: impl Fn(&mut RowExchange<'_>),
) -> Seen {
    let round = || {
        let (trace, (delivered, report)) = Recorder::capture(|| {
            let mut cluster = Cluster::new(p);
            let mut ex = cluster.exchange_rows(strides);
            route(&mut ex);
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

pub fn assert_same(what: &str, got: &Seen, want: &Seen) {
    assert_eq!(got.0, want.0, "{what}: delivered buffers");
    assert_eq!(got.1, want.1, "{what}: ledger");
    assert_eq!(got.2, want.2, "{what}: trace");
    assert_eq!(got.3, want.3, "{what}: page IO");
    for buf in got.0.iter().flatten() {
        assert_eq!(buf.capacity(), buf.len(), "{what}: slack delivered");
    }
}
