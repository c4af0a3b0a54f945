//! Mutation fixture: the closure itself looks clean, but a helper's
//! transitive callee emits metrics — the PQ401 diagnostic must carry
//! the propagation chain through `tally` to `announce`.

pub fn chained_phase(cluster: &Cluster, parts: Vec<Vec<u64>>) -> Vec<u64> {
    cluster.map(parts, |_sid, part| tally(&part))
}

fn tally(part: &[u64]) -> u64 {
    let n = part.len() as u64;
    announce(n);
    n
}

fn announce(n: u64) {
    metrics::announce(n);
}
