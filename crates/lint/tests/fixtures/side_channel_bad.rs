//! Fixture: MPC-layering violations in an algorithm crate (PQ103/PQ109).

use parqp_store as store;

pub fn leak() -> String {
    std::fs::read_to_string("/tmp/x").expect("read")
}

pub fn fabricate() {
    let _ = store::drain_io();
    store::reset_io();
}
