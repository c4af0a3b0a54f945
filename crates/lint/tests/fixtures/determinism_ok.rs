//! Fixture: determinism-clean file — aliases, annotations, test modules.

use parqp_data::{FastMap, FastSet};

pub fn counts() -> FastMap<u64, u64> {
    FastMap::default()
}

pub fn seen() -> FastSet<u64> {
    FastSet::default()
}

pub fn hint() {
    std::thread::yield_now(); // parqp-lint: allow(PQ004)
}

// A mention of std::thread in a comment is not a use of std::thread.
pub const DOC: &str = "prefer Cluster::map over std::thread::spawn";

#[cfg(test)]
mod tests {
    use std::thread;

    #[test]
    fn test_only_usage_is_fine() {
        thread::spawn(|| {}).join().unwrap();
    }
}
