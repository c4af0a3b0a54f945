//! Fixture: layering-clean accounting — combinators and ledger reads only.

use parqp_mpc::LoadReport;
use parqp_store as store;

pub fn silent(p: usize) -> LoadReport {
    LoadReport::empty(p)
}

pub fn sat_out(p: usize) -> LoadReport {
    LoadReport::idle(p, 1)
}

pub fn combined(a: &LoadReport, b: &LoadReport) -> LoadReport {
    LoadReport::sequential(&[a.clone(), b.clone()])
}

pub fn page_reads() -> u64 {
    store::io_report().iter().map(|s| s.reads).sum()
}
