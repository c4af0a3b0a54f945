//! Mutation fixture: a worker closure that opens a trace span. The
//! closure runs on a pool thread, where no run context is installed
//! and the span would vanish — PQ403 must anchor at the root line.

pub fn probe_phase(cluster: &Cluster, parts: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
    cluster.map(parts, |_sid, part| {
        let _span = trace::span("probe/local");
        part
    })
}
