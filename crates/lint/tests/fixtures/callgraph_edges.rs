//! Call-graph resolution edge cases: a method name defined on two
//! types (the union must include the effectful one), a free fn
//! shadowing a std name (must bind to the local definition), and a
//! closure nested inside the worker closure.

pub struct Gauge;
impl Gauge {
    fn tick(&self) {
        metrics::announce(1);
    }
}

pub struct Counter;
impl Counter {
    fn tick(&self) -> u64 {
        7
    }
}

/// Shadows `std::mem::swap` by bare name: the local definition (which
/// opens a thread-local trace span) must win over any std-pure guess.
fn swap(a: u64, b: u64) -> (u64, u64) {
    let _guard = trace::span("swap");
    (b, a)
}

pub fn edge_phase(cluster: &Cluster, parts: Vec<Vec<u64>>) -> Vec<u64> {
    cluster.map(parts, |_sid, part| {
        let scaled: Vec<u64> = part.iter().map(|v| v.wrapping_mul(3)).collect();
        let g = Gauge;
        g.tick();
        let (x, _y) = swap(scaled.len() as u64, 2);
        x
    })
}
