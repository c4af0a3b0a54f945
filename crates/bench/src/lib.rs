//! # parqp-bench — the experiment harness
//!
//! One module per experiment (`e01` … `e14`), each regenerating a table
//! or figure of the paper as plain text rows plus CSV-ready series. The
//! `tables` binary prints any subset:
//!
//! ```text
//! cargo run --release -p parqp-bench --bin tables            # everything
//! cargo run --release -p parqp-bench --bin tables -- e05 e08 # a subset
//! ```
//!
//! The *numbers the paper is about* — loads, rounds, communication —
//! come from this module, deterministically. Wall-clock is the `perf`
//! program's (`src/bin/perf/`, run through `BENCHMARK.json`), and
//! `benches/kernels.rs` times the local-join and local-sort kernels
//! alone so a regression there can be attributed without a full `perf`
//! run.

pub mod experiments;
pub mod table;

use parqp_mpc::faults::{self, FaultLog, FaultPlan, FaultSpec, RecoveryStrategy};
use parqp_mpc::trace::Recorder;

pub use table::Table;

/// Run one experiment with a trace recorder installed, returning its
/// tables plus the captured round-level event stream. The `tables`
/// binary uses this for `--trace <dir>`, persisting a
/// `<id>.trace.jsonl` next to each experiment's CSV output.
pub fn run_traced(id: &str) -> (Vec<Table>, Recorder) {
    let (recorder, tables) = Recorder::capture(|| experiments::run(id));
    (tables, recorder)
}

/// Fault-injection horizon for [`run_with_faults`]: logical rounds the
/// seeded plan spreads its faults over. Kept short so the schedule is
/// dense — bench experiments record few rounds per cluster, and faults
/// planned past the last recorded round never fire.
const FAULT_HORIZON: usize = 8;

/// Cluster size the seeded plan targets; faults scheduled on servers
/// outside a smaller cluster's range simply don't fire there.
const FAULT_SERVERS: usize = 64;

/// Faults per kind for [`run_with_faults`]: two of each over the short
/// horizon, so any experiment recording a handful of rounds at a
/// reasonable `p` fires at least once.
fn bench_fault_spec() -> FaultSpec {
    FaultSpec {
        crashes: 2,
        drops: 2,
        duplicates: 2,
        stragglers: 2,
        max_batch: 8,
    }
}

/// Run one experiment under a seeded fault plan *and* a trace recorder:
/// crashes, message drops/duplications, and stragglers fire at exact
/// logical rounds (see `parqp_mpc::faults`), recovery overhead is charged to
/// every `LoadReport` the experiment produces, and the returned trace
/// carries the `fault_injected`/`recovery_*` event stream. Outputs are
/// unchanged — injection is transparent to algorithms — so experiments'
/// own correctness asserts still hold under faults.
pub fn run_with_faults(id: &str, seed: u64) -> (Vec<Table>, FaultLog, Recorder) {
    let plan = FaultPlan::random(seed, FAULT_SERVERS, FAULT_HORIZON, &bench_fault_spec());
    let (log, (recorder, tables)) = faults::capture(plan, RecoveryStrategy::default(), || {
        Recorder::capture(|| experiments::run(id))
    });
    (tables, log, recorder)
}

#[cfg(test)]
mod tests {
    #[test]
    fn run_traced_captures_rounds() {
        let (tables, rec) = super::run_traced("e06");
        assert!(!tables.is_empty());
        let totals = parqp_mpc::trace::analyze::totals(&rec);
        assert!(totals.rounds >= 1);
        assert!(totals.tuples > 0);
    }

    #[test]
    fn run_with_faults_charges_overhead_without_changing_tables() {
        let (clean, _) = super::run_traced("e06");
        let (tables, log, rec) = super::run_with_faults("e06", 7);
        let rendered: Vec<String> = tables.iter().map(super::Table::render).collect();
        let clean_rendered: Vec<String> = clean.iter().map(super::Table::render).collect();
        assert!(log.fired() >= 1, "seeded plan must fire on e06");
        assert!(
            rec.events()
                .any(|e| matches!(e, parqp_mpc::trace::TraceEvent::FaultInjected { .. })),
            "trace must carry fault events"
        );
        // e06's tables report loads measured per run; injection charges
        // recovery to the ledger, so at least the header rows match and
        // the tables parse — but outputs (and thus correctness asserts
        // inside the experiment) are untouched by construction.
        assert_eq!(rendered.len(), clean_rendered.len());
    }
}
