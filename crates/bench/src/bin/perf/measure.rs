//! One untraced pass of one workload: set up, warm up, time operations
//! until the clock runs out, verify. `driver.rs` runs each pass in a
//! process of its own and folds the passes together.
//!
//! Every workload is a deterministic batch computation: each repetition
//! executes the same instructions and allocations, so all run-to-run
//! variance is the host's and only ever adds time. The gated timing is
//! therefore the fastest repetition; median and tail are reported as
//! diagnostics.

use std::panic::{catch_unwind, AssertUnwindSafe};

use parqp_testkit::bench::time_ns;
use parqp_testkit::pool::panic_message;

use crate::json::Value;
use crate::registry::{WorkloadSpec, END_TO_END};
use crate::stats;
use crate::workloads::{prepare, Ledger, Output, Prepared, Scale};

/// At most this many set-ups per pass, all set-ups together costing at
/// most a twentieth of it; `setup_s` is the fastest of all.
const SEGMENTS: u64 = 4;

#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub seed: u64,
    /// Timed seconds; 0 runs exactly one operation.
    pub seconds: f64,
    pub scale: Scale,
    /// Test hook: flip the oracle's digest, so verification must fail.
    pub corrupt_expected: bool,
}

/// Everything one untraced pass measured.
#[derive(Debug, Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// Time of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Every timed operation, ms, in run order.
    pub op_ms: Vec<f64>,
    /// The fastest operation after each set-up, ms.
    pub segment_min_ms: Vec<f64>,
    /// The verified `(L, r, C, rows)`; equal on every operation.
    pub ledger: Option<Ledger>,
    pub items: u64,
    pub peak_rss_mb: f64,
    /// What went wrong, one line per failed operation (first few).
    pub failures: Vec<String>,
}

/// One operation, with a panic turned into an error.
pub fn run_op(w: &Prepared) -> Result<(u64, Output), String> {
    match catch_unwind(AssertUnwindSafe(|| w.op())) {
        Ok(result) => result,
        Err(payload) => Err(format!("panicked: {}", panic_message(payload.as_ref()))),
    }
}

/// Nanoseconds since `start`.
pub fn since(start: u64) -> u64 {
    time_ns().saturating_sub(start)
}

impl Measured {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    /// Check one operation's output: on the ledger always, on the full
    /// digest when `expected` is given. The first output checked fixes
    /// the ledger the rest must repeat. Returns whether it passed.
    fn check(&mut self, what: &str, output: &Output, expected: Option<u64>) -> bool {
        let ledger = output.ledger();
        let reference = *self.ledger.get_or_insert(ledger);
        if ledger != reference {
            self.fail(format!("{what}: {ledger:?} differs from {reference:?}"));
            false
        } else if expected.is_some_and(|e| e != output.digest()) {
            self.fail(format!("{what}: output digest differs from the oracle's"));
            false
        } else {
            true
        }
    }

    /// One set-up: generate the inputs, compute the oracle's answer, run
    /// the warm-up operations. Its time is one more `setup_s` sample.
    fn set_up(
        &mut self,
        spec: &'static WorkloadSpec,
        opts: &RunOptions,
    ) -> Result<(u64, Prepared), String> {
        let start = time_ns();
        let mut w = prepare(spec, opts.seed, opts.scale)?;
        let mut setup_ns = since(start);
        if opts.corrupt_expected {
            w.expected = !w.expected;
        }
        self.items = w.items;
        for i in 0..spec.warmups {
            let start = time_ns();
            let result = run_op(&w);
            setup_ns += since(start);
            self.attempted += 1;
            match result {
                // Digest work stays off every clock, set-up's included.
                Ok((_, output)) => {
                    self.check("warm-up", &output, (i == 0).then_some(w.expected));
                }
                Err(e) => self.fail(format!("warm-up: {e}")),
            }
        }
        self.setup_s.push(setup_ns as f64 / 1e9);
        Ok((setup_ns, w))
    }

    /// Repeat the operation on `w` for `budget_ns`, at least once. The
    /// last operation that passed the ledger check is also held to the
    /// full digest.
    fn timed_ops(&mut self, w: &Prepared, budget_ns: u64) {
        let start = time_ns();
        let first = self.op_ms.len();
        let mut last = None;
        loop {
            self.attempted += 1;
            match run_op(w) {
                Ok((ns, output)) => {
                    self.op_ms.push(ns as f64 / 1e6);
                    last = self.check("operation", &output, None).then_some(output);
                }
                Err(e) => self.fail(format!("operation: {e}")),
            }
            if since(start) >= budget_ns {
                break;
            }
        }
        let fastest = self.op_ms.get(first..).unwrap_or_default();
        self.segment_min_ms.push(stats::min_or_zero(fastest));
        if last.is_some_and(|output| output.digest() != w.expected) {
            self.fail("last operation: output digest differs from the oracle's".into());
        }
    }

    /// One pass: set up, then operations for `opts.seconds`. Where the
    /// set-up is cheap the pass is cut into up to [`SEGMENTS`] segments,
    /// each with a set-up of its own: a set-up of a few tens of
    /// milliseconds is too short a sample to trust alone, and a fresh
    /// set-up is a fresh heap and, for `matmul_parallel`, a fresh worker
    /// pool, whose threads the kernel places well only some of the time
    /// (README, "Noise").
    fn pass(&mut self, spec: &'static WorkloadSpec, opts: &RunOptions) -> Result<(), String> {
        let budget_ns = (opts.seconds * 1e9) as u64;
        let (setup_ns, w) = self.set_up(spec, opts)?;
        let segments = (budget_ns / 20 / setup_ns.max(1)).clamp(1, SEGMENTS);
        self.timed_ops(&w, budget_ns / segments);
        // One set of inputs alive at a time, or `peak_rss_mb` would count two.
        drop(w);
        for _ in 1..segments {
            let (_, w) = self.set_up(spec, opts)?;
            self.timed_ops(&w, budget_ns / segments);
        }
        Ok(())
    }

    /// The end-to-end metrics by name, in `END_TO_END` order. `None`
    /// when no operation succeeded.
    pub fn end_to_end(&self) -> Option<Vec<(&'static str, f64)>> {
        let op_ms_min = stats::summarize(&self.op_ms)?.min;
        let setup_s = stats::summarize(&self.setup_s)?.min;
        let ledger = self.ledger?;
        let values = END_TO_END.iter().map(|m| {
            let v = match m.name {
                "setup_s" => setup_s,
                "op_ms_min" => op_ms_min,
                "throughput_per_s" => self.items as f64 / (op_ms_min / 1e3),
                "load_max_words" => ledger.load_max_words as f64,
                "rounds" => ledger.rounds as f64,
                "comm_words" => ledger.comm_words as f64,
                "peak_rss_mb" => self.peak_rss_mb,
                _ => f64::NAN,
            };
            (m.name, v)
        });
        Some(values.collect())
    }
}

/// Run one untraced pass of `spec` under `opts`. `Err` means set-up
/// itself failed and there is nothing to report.
pub fn measure(spec: &'static WorkloadSpec, opts: &RunOptions) -> Result<Measured, String> {
    let mut m = Measured::default();
    m.pass(spec, opts)?;
    m.peak_rss_mb = peak_rss_mb();
    Ok(m)
}

/// This process's resident-set high-water mark (`VmHWM`), MiB; 0 where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line the driver reads: `{correct, attempted, failed,
/// metrics: {name: {value, unit}}}`.
pub fn result_line(
    attempted: u64,
    failed: u64,
    metrics: impl IntoIterator<Item = (&'static str, &'static str, f64)>,
) -> Value {
    Value::obj([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::from(attempted)),
        ("failed", Value::from(failed)),
        (
            "metrics",
            Value::obj(metrics.into_iter().map(|(name, unit, value)| {
                (
                    name,
                    Value::obj([("value", Value::from(value)), ("unit", Value::str(unit))]),
                )
            })),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{self, WORKLOADS};

    fn quick(corrupt_expected: bool) -> RunOptions {
        RunOptions {
            seed: 42,
            seconds: 0.0,
            scale: Scale::Quick,
            corrupt_expected,
        }
    }

    #[test]
    fn quick_run_of_all_eight_workloads_verifies() {
        for w in WORKLOADS {
            let m = measure(w, &quick(false)).expect("set-up");
            assert_eq!(m.failed, 0, "{}: {:?}", w.name, m.failures);
            assert_eq!(m.attempted as usize, w.warmups + 1, "{}", w.name);
            assert_eq!((m.op_ms.len(), m.setup_s.len()), (1, 1), "{}", w.name);
            let e2e = m.end_to_end().expect("metrics");
            assert_eq!(e2e.len(), END_TO_END.len());
            for (name, value) in e2e {
                // peak_rss_mb is read from /proc, which need not exist.
                assert!(
                    value > 0.0 || name == "peak_rss_mb",
                    "{}: {name} = {value} (end-to-end metrics are never 0)",
                    w.name
                );
            }
        }
    }

    #[test]
    fn a_corrupted_oracle_digest_fails_the_run() {
        for name in [
            "join_uniform",
            "sort_psrs",
            "matmul_parallel",
            "serve_steady",
        ] {
            let w = registry::workload(name).expect("known workload");
            let m = measure(w, &quick(true)).expect("set-up");
            // The first warm-up and the last timed operation are the two
            // held to the full digest.
            assert_eq!(m.failed, 2, "{name}: {:?}", m.failures);
        }
    }

    #[test]
    fn result_line_has_the_contracts_shape() {
        let line = result_line(7, 0, [("op_ms_min", "ms", 1.25)]);
        assert_eq!(
            line.to_string(),
            r#"{"correct": true, "attempted": 7, "failed": 0, "metrics": {"op_ms_min": {"value": 1.25, "unit": "ms"}}}"#
        );
        let failed = result_line(7, 1, []);
        assert_eq!(failed.get("correct"), Some(&Value::Bool(false)));
    }
}
