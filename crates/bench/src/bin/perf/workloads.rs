//! The eight workloads: how each one's inputs are generated from the
//! seed, what its serial oracle answers, and the one call it times.
//!
//! An operation is one complete call of a public entry point, from
//! in-memory inputs to distributed outputs. Everything else — input
//! generation, the oracle, digests — happens outside the clock.

use std::hash::Hasher;
use std::rc::Rc;

use parqp::planner;
use parqp::serve::{self, ServeConfig, ServeReport};
use parqp_data::fasthash::FxHasher;
use parqp_data::paged::{self, StoreConfig};
use parqp_data::{generate, Relation};
use parqp_join::common::{twoway_oracle, JoinRun};
use parqp_join::twoway::hash_join;
use parqp_matmul::{square_block, Matrix};
use parqp_mpc::trace::Recorder;
use parqp_mpc::{exec, metrics, Cluster, ExecMode, LoadReport};
use parqp_query::{evaluate, parse_query};
use parqp_sort::psrs;
use parqp_testkit::bench::time_ns;
use parqp_testkit::pool::{ncpu, WorkerPool};

use crate::measure::since;
use crate::registry::WorkloadSpec;

/// Input sizes: the benchmark's, or shrunken ones that let `cargo test`
/// drive every workload end to end in a debug build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

/// The store `join_observed` runs under: 256-word pages and a 2-page
/// pool, below each server's 10-page working set (2 × 625 two-word
/// rows), so every partition scan evicts.
pub const OBSERVED_STORE: StoreConfig = StoreConfig {
    page_size: 256,
    pool_pages: 2,
};

/// Run `f` as `join_observed` runs its operation: under
/// [`OBSERVED_STORE`], a metrics registry and a trace recorder, all of
/// them installed and torn down inside the call.
pub fn under_instruments<R>(f: impl FnOnce() -> R) -> R {
    let _store = paged::install(OBSERVED_STORE);
    let (_recorder, (_registry, out)) = Recorder::capture(|| metrics::capture(f));
    out
}

pub const TRIANGLE_QUERY: &str = "R(x,y), S(y,z), T(z,x)";
pub const CHAIN_QUERY: &str = "R(a,b), S(b,c), T(c,d)";

/// The join column of each side: both join workloads join `r.1 = s.0`.
pub const R_COL: usize = 1;
pub const S_COL: usize = 0;

/// A two-way join's inputs.
#[derive(Debug)]
pub struct JoinInputs {
    pub r: Relation,
    pub s: Relation,
    pub p: usize,
    pub seed: u64,
}

impl JoinInputs {
    /// The operation: the real entry point on these inputs.
    pub fn run(&self) -> JoinRun {
        hash_join(&self.r, R_COL, &self.s, S_COL, self.p, self.seed)
    }
}

/// A query through the front door: text, one relation per atom.
#[derive(Debug)]
pub struct PlannedInputs {
    pub text: &'static str,
    pub rels: Vec<Relation>,
    pub p: usize,
    pub seed: u64,
}

impl PlannedInputs {
    /// The operation: parse the text, plan, run the plan.
    pub fn run(&self) -> Result<JoinRun, String> {
        let query = parse_query(self.text).map_err(|e| e.to_string())?;
        let decision = planner::plan(&query, &self.rels, self.p);
        let strategy = &decision.strategy;
        Ok(planner::run_plan(
            &query, &self.rels, self.p, self.seed, strategy,
        ))
    }
}

#[derive(Debug)]
pub struct MatmulInputs {
    pub a: Matrix,
    pub b: Matrix,
    /// Blocking factor H (H × H blocks).
    pub h: usize,
    pub p: usize,
    /// One worker per CPU, spawned once per set-up and installed around
    /// every operation: freshly spawned threads take a while to spread
    /// over the CPUs, so a pool per operation would time the kernel's
    /// thread placement, not the parallel backend.
    pub pool: Rc<WorkerPool>,
}

/// Generated inputs, by the shape of the call that consumes them.
#[derive(Debug)]
pub enum Inputs {
    Join(JoinInputs),
    JoinObserved(JoinInputs),
    Planned(PlannedInputs),
    Sort { keys: Vec<u64>, p: usize },
    Matmul(MatmulInputs),
    Serve(ServeConfig),
}

/// What one operation produced, kept for verification after the clock
/// has stopped.
#[derive(Debug)]
pub enum Output {
    Join(JoinRun),
    Sorted {
        parts: Vec<Vec<u64>>,
        report: LoadReport,
    },
    Product {
        c: Matrix,
        report: LoadReport,
    },
    Served(Box<ServeReport>),
}

/// The paper's three costs plus the output size: what every operation
/// is checked on, and exact for a given seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ledger {
    pub load_max_words: u64,
    pub rounds: u64,
    pub comm_words: u64,
    pub out_rows: u64,
}

impl Output {
    /// A copy of the run's `(L, r, C)` ledger.
    pub fn report(&self) -> LoadReport {
        self.with_report(LoadReport::clone)
    }

    fn with_report<R>(&self, f: impl FnOnce(&LoadReport) -> R) -> R {
        match self {
            Output::Join(run) => f(&run.report),
            Output::Sorted { report, .. } | Output::Product { report, .. } => f(report),
            Output::Served(served) => f(&served.totals),
        }
    }

    pub fn ledger(&self) -> Ledger {
        let out_rows = match self {
            Output::Join(run) => run.output_size() as u64,
            Output::Sorted { parts, .. } => parts.iter().map(|p| p.len() as u64).sum(),
            Output::Product { c, .. } => (c.n() * c.n()) as u64,
            Output::Served(served) => served.records.iter().map(|q| q.out_rows).sum(),
        };
        self.with_report(|report| Ledger {
            load_max_words: report.max_load_words(),
            rounds: report.num_rounds() as u64,
            comm_words: report.total_words(),
            out_rows,
        })
    }

    /// Full canonical digest, comparable with [`Prepared::expected`].
    /// A sorted output that is out of order digests to its complement,
    /// so it can never match.
    pub fn digest(&self) -> u64 {
        match self {
            Output::Join(run) => serve::report::digest_relation(&run.gathered()),
            Output::Sorted { parts, .. } => {
                let d = digest_words(parts.iter().flatten().copied());
                if partitions_in_order(parts) {
                    d
                } else {
                    !d
                }
            }
            Output::Product { c, .. } => digest_matrix(c),
            Output::Served(served) => served.digest(),
        }
    }
}

fn digest_words(words: impl Iterator<Item = u64>) -> u64 {
    let mut h = FxHasher::default();
    for w in words {
        h.write_u64(w);
    }
    h.finish()
}

fn digest_matrix(m: &Matrix) -> u64 {
    digest_words((0..m.n()).flat_map(|i| m.row(i).iter().map(|v| v.to_bits())))
}

/// Every partition sorted, and no key on server `i` above one on
/// server `i + 1`.
pub fn partitions_in_order(parts: &[Vec<u64>]) -> bool {
    let mut last = None;
    for &k in parts.iter().flatten() {
        if last.is_some_and(|l| l > k) {
            return false;
        }
        last = Some(k);
    }
    true
}

/// A workload ready to run: inputs plus the oracle's answer.
#[derive(Debug)]
pub struct Prepared {
    pub inputs: Inputs,
    /// The serial oracle's digest of the expected output.
    pub expected: u64,
    /// What `throughput_per_s` divides by the operation time.
    pub items: u64,
}

fn join_inputs(seed: u64, scale: Scale) -> JoinInputs {
    let (n, domain, p) = match scale {
        Scale::Full => (40_000, 20_000, 64),
        Scale::Quick => (1000, 500, 8),
    };
    JoinInputs {
        r: generate::uniform(2, n, domain, seed),
        s: generate::uniform(2, n, domain, seed.wrapping_add(1)),
        p,
        seed,
    }
}

fn serve_config(name: &str, seed: u64, scale: Scale) -> ServeConfig {
    let steady = name == "serve_steady";
    ServeConfig {
        servers: 8,
        tenants: 4,
        templates: if steady { 3 } else { 5 },
        groups: if steady { 8 } else { 16 },
        ticks: match scale {
            Scale::Full => 480,
            Scale::Quick => 24,
        },
        seed,
        cache_budget: if steady { 120_000 } else { 60_000 },
        ..ServeConfig::default()
    }
}

/// Generate `spec`'s inputs from `seed` and compute the expected answer
/// with the serial oracle.
pub fn prepare(spec: &'static WorkloadSpec, seed: u64, scale: Scale) -> Result<Prepared, String> {
    let (inputs, expected, items) = match spec.name {
        "join_uniform" | "join_observed" => {
            let j = join_inputs(seed, scale);
            let expected = serve::report::digest_relation(&twoway_oracle(&j.r, R_COL, &j.s, S_COL));
            let items = (j.r.len() + j.s.len()) as u64;
            let inputs = if spec.name == "join_uniform" {
                Inputs::Join(j)
            } else {
                Inputs::JoinObserved(j)
            };
            (inputs, expected, items)
        }
        "triangle_planned" => {
            let (nodes, edges, p) = match scale {
                Scale::Full => (1500, 20_000, 64),
                Scale::Quick => (60, 600, 8),
            };
            let g = generate::random_symmetric_graph(nodes, edges, seed);
            planned(TRIANGLE_QUERY, vec![g.clone(), g.clone(), g], p, seed)?
        }
        "chain_gym_planned" => {
            let (n, domain, p) = match scale {
                Scale::Full => (60_000, 30_000, 64),
                Scale::Quick => (600, 300, 8),
            };
            let rels = (0..3)
                .map(|i| generate::uniform(2, n, domain, seed.wrapping_add(i)))
                .collect();
            planned(CHAIN_QUERY, rels, p, seed)?
        }
        "sort_psrs" => {
            let (n, p) = match scale {
                Scale::Full => (1_000_000, 64),
                Scale::Quick => (5000, 8),
            };
            let keys = generate::uniform(1, n, 1 << 32, seed).raw().to_vec();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            let expected = digest_words(sorted.into_iter());
            (Inputs::Sort { keys, p }, expected, n as u64)
        }
        "matmul_parallel" => {
            let n = match scale {
                Scale::Full => 216,
                Scale::Quick => 48,
            };
            let m = MatmulInputs {
                a: Matrix::random(n, seed),
                b: Matrix::random(n, seed.wrapping_add(1)),
                h: 4,
                p: 8,
                pool: Rc::new(WorkerPool::new(ncpu())),
            };
            // The oracle is the same algorithm on the calling thread:
            // the pool must not change a single bit of the product.
            let serial = exec::with_mode(ExecMode::Serial, || square_block(&m.a, &m.b, m.h, m.p));
            let expected = digest_matrix(&serial.c);
            (Inputs::Matmul(m), expected, 2 * (n * n) as u64)
        }
        "serve_steady" | "serve_churn" => {
            let cfg = serve_config(spec.name, seed, scale);
            // The oracle is the same stream with the plan cache off: a
            // cache may change costs, never answers.
            let cold = serve::replay(&ServeConfig {
                cache_budget: 0,
                ..cfg.clone()
            })?;
            let items = cold.served();
            (Inputs::Serve(cfg), cold.digest(), items)
        }
        other => return Err(format!("no such workload: {other}")),
    };
    Ok(Prepared {
        inputs,
        expected,
        items,
    })
}

fn planned(
    text: &'static str,
    rels: Vec<Relation>,
    p: usize,
    seed: u64,
) -> Result<(Inputs, u64, u64), String> {
    let query = parse_query(text).map_err(|e| e.to_string())?;
    let expected = serve::report::digest_relation(&evaluate(&query, &rels));
    let items = rels.iter().map(|r| r.len() as u64).sum();
    let inputs = Inputs::Planned(PlannedInputs {
        text,
        rels,
        p,
        seed,
    });
    Ok((inputs, expected, items))
}

impl Prepared {
    /// Run one operation and return its wall time in ns with its
    /// output. Only the entry point named in the README is on the clock.
    pub fn op(&self) -> Result<(u64, Output), String> {
        match &self.inputs {
            Inputs::Join(j) => {
                let t = time_ns();
                let run = j.run();
                Ok((since(t), Output::Join(run)))
            }
            Inputs::JoinObserved(j) => {
                let t = time_ns();
                let run = under_instruments(|| j.run());
                Ok((since(t), Output::Join(run)))
            }
            Inputs::Planned(q) => {
                let t = time_ns();
                let run = q.run()?;
                Ok((since(t), Output::Join(run)))
            }
            Inputs::Sort { keys, p } => {
                let mut cluster = Cluster::new(*p);
                let local = cluster.scatter(keys.clone());
                let t = time_ns();
                let parts = psrs(&mut cluster, local);
                let ns = since(t);
                let report = cluster.report();
                Ok((ns, Output::Sorted { parts, report }))
            }
            Inputs::Matmul(m) => {
                let _parallel = exec::install_pool(Rc::clone(&m.pool));
                let t = time_ns();
                let run = square_block(&m.a, &m.b, m.h, m.p);
                let ns = since(t);
                let output = Output::Product {
                    c: run.c,
                    report: run.report,
                };
                Ok((ns, output))
            }
            Inputs::Serve(cfg) => {
                let t = time_ns();
                let served = serve::replay(cfg)?;
                Ok((since(t), Output::Served(Box::new(served))))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_misordered_sort_never_matches() {
        assert!(partitions_in_order(&[vec![1, 2], vec![], vec![2, 9]]));
        assert!(!partitions_in_order(&[vec![1, 3], vec![2]]));
        assert!(!partitions_in_order(&[vec![2, 1]]));
        let report = Cluster::new(2).report();
        let sorted = |parts: Vec<Vec<u64>>| Output::Sorted {
            parts,
            report: report.clone(),
        };
        assert_eq!(
            sorted(vec![vec![1, 2], vec![3]]).digest(),
            sorted(vec![vec![1], vec![2, 3]]).digest(),
            "where the partition boundaries fall does not matter"
        );
        assert_ne!(
            sorted(vec![vec![2, 1], vec![3]]).digest(),
            digest_words([2, 1, 3].into_iter()),
            "an unsorted output must not match even its own words"
        );
    }
}
