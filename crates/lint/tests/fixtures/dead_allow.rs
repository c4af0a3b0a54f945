//! PQ408 fixture: allow annotations that suppress nothing are
//! themselves findings; justified, vetted, and malformed ones are not.

use std::collections::BTreeMap; // parqp-lint: allow(PQ004)

pub fn clean(v: &BTreeMap<u64, u64>) -> u64 {
    v.len() as u64 // parqp-lint: allow(PQ201)
}

pub fn justified(v: &[u64]) -> u64 {
    v[0] // parqp-lint: allow(PQ201) first element checked by caller
}

pub fn vetted(v: &[u64]) -> u64 {
    v.iter().count() as u64 // parqp-lint: allow(PQ201, PQ408) kept while migrating
}

pub fn lone_dead() -> u64 {
    // parqp-lint: allow(PQ408)
    0
}

pub fn malformed() -> u64 {
    0 // parqp-lint: allow(PQ99)
}
