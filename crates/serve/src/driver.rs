//! The replay driver: one long-lived cluster, one query stream, exact
//! per-query accounting.
//!
//! [`replay`] schedules the stream, then runs every arrival against a
//! single [`Cluster`] under captured store and fault runtimes. Each
//! query is two phases: *build* (scatter + hash-partition the
//! template's base and index each partition's join column — skipped
//! entirely on a cache hit) and *probe* (route the per-query probe
//! relation with the same hash, then probe the partitions' tables
//! locally). The base is paid for once per build: cache off, miss, hit
//! and rejected build all run the same probe against a
//! `Partition` — only who owns it differs. A ledger mark taken before
//! each query turns the cluster's cumulative ledger into exact
//! per-query deltas via [`Cluster::report_since`], and one store-ledger
//! snapshot per arrival does the same for page IO. The resulting
//! [`QueryRecord`] is all the loop produces: tenant stats and the
//! window series are folds over the records, so they reconcile with the
//! ledgers to the tuple.

use parqp_data::paged::{self, IoStats, StoreConfig};
use parqp_data::Relation;
use parqp_join::common::{hash_partition, probe_digest, single_stream};
use parqp_mpc::faults::{self, FaultPlan, FaultSpec, RecoveryStrategy};
use parqp_mpc::{Cluster, HashFamily, LoadReport};

use crate::cache::{Admission, BuildCost, CacheKey, CacheStats, Partition, PlanCache};
use crate::report::{QueryRecord, ServeReport, TenantStats};
use crate::series::{ObsConfig, SeriesReport};
use crate::templates::{self, ZipfTables, TEMPLATES};
use crate::workload::{self, QueryArrival};

/// Fault injection for a replay: a seeded plan over the first
/// `horizon` algorithm rounds, recovered by `strategy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSetup {
    /// How many faults of each kind to schedule.
    pub spec: FaultSpec,
    /// How crashes are recovered.
    pub strategy: RecoveryStrategy,
    /// Rounds the schedule may place faults in (the plan's grid).
    pub horizon: usize,
}

impl Default for FaultSetup {
    fn default() -> Self {
        Self {
            spec: FaultSpec::default(),
            strategy: RecoveryStrategy::default(),
            horizon: 8,
        }
    }
}

/// Everything a replay is a pure function of.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Cluster width `p`.
    pub servers: usize,
    /// Number of tenants issuing queries.
    pub tenants: usize,
    /// Templates in play (a prefix of [`TEMPLATES`]).
    pub templates: usize,
    /// Data-key groups per template.
    pub groups: usize,
    /// Length of the logical tick clock.
    pub ticks: u64,
    /// The replay seed: workload, inputs, hashing, and fault plan.
    pub seed: u64,
    /// Zipf exponent over templates (query skew).
    pub zipf_q: f64,
    /// Zipf exponent over data-key groups (data skew).
    pub zipf_data: f64,
    /// Plan-cache budget in resident tuples; 0 disables the cache.
    pub cache_budget: u64,
    /// Paged-store shape the replay runs under.
    pub store: StoreConfig,
    /// Optional fault injection under load.
    pub faults: Option<FaultSetup>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            servers: 8,
            tenants: 4,
            templates: 3,
            groups: 12,
            ticks: 120,
            seed: 42,
            zipf_q: 1.1,
            zipf_data: 1.2,
            cache_budget: 120_000,
            store: StoreConfig::default(),
            faults: None,
        }
    }
}

impl ServeConfig {
    fn validate(&self) -> Result<(), String> {
        if self.servers == 0 {
            return Err("serve: need at least one server".into());
        }
        if self.tenants == 0 {
            return Err("serve: need at least one tenant".into());
        }
        if self.ticks == 0 {
            return Err("serve: need at least one tick".into());
        }
        if self.templates == 0 || self.templates > TEMPLATES.len() {
            return Err(format!(
                "serve: --templates must be in 1..={} (the catalog size), got {}",
                TEMPLATES.len(),
                self.templates
            ));
        }
        if self.groups == 0 {
            return Err("serve: need at least one data-key group".into());
        }
        for (name, alpha) in [("--zipf-q", self.zipf_q), ("--zipf-data", self.zipf_data)] {
            if !alpha.is_finite() || alpha < 0.0 {
                return Err(format!("serve: {name} must be a finite exponent >= 0"));
            }
        }
        if let Some(f) = &self.faults {
            if f.horizon == 0 {
                return Err("serve: fault horizon must be at least one round".into());
            }
        }
        Ok(())
    }
}

/// What the streamed portion of a replay produces (everything measured
/// inside the captured runtimes).
struct StreamOut {
    records: Vec<QueryRecord>,
    cache: CacheStats,
    totals: LoadReport,
}

/// Replay `cfg`'s query stream and return the full report.
///
/// Deterministic end to end: equal configurations produce byte-equal
/// reports (records, ledgers, digests), under any execution mode and
/// any fault plan.
pub fn replay(cfg: &ServeConfig) -> Result<ServeReport, String> {
    cfg.validate()?;
    let arrivals = workload::schedule(cfg);
    let (io_parts, (fault_log, out)) = paged::capture(cfg.store, || match &cfg.faults {
        Some(f) => {
            let plan = FaultPlan::random(cfg.seed, cfg.servers, f.horizon, &f.spec);
            let (log, out) = faults::capture(plan, f.strategy, || run_stream(cfg, &arrivals));
            (Some(log), out)
        }
        None => (None, run_stream(cfg, &arrivals)),
    });
    Ok(ServeReport {
        config: cfg.clone(),
        tenants: TenantStats::fold(cfg, &out.records),
        records: out.records,
        cache: out.cache,
        totals: out.totals,
        io: sum_io(&io_parts),
        fault_log,
    })
}

/// Run every arrival against one long-lived cluster.
fn run_stream(cfg: &ServeConfig, arrivals: &[QueryArrival]) -> StreamOut {
    let p = cfg.servers;
    let mut cluster = Cluster::new(p);
    let mut cache = PlanCache::new(cfg.cache_budget);
    // Every miss on a skewed template draws its base from that
    // template's one Zipf table, built here rather than per build.
    let zipf = ZipfTables::new(cfg.templates);
    let mut records = Vec::with_capacity(arrivals.len());
    // The store ledger is monotone over a replay, so each query's
    // closing snapshot opens the next one's delta.
    let mut io_so_far = io_totals();
    for a in arrivals {
        let key = CacheKey {
            template: a.template,
            group: a.group,
            shares: p,
        };
        let h = HashFamily::new(templates::partition_seed(a.template, a.group, cfg.seed), 1);
        let mark = cluster.rounds_so_far();
        // Whoever ends up owning the partitions — the cache, or this
        // query alone when the cache is off or refused the build — the
        // probe below reads them through one borrow.
        let uncached: Vec<Partition>;
        let (cache_state, parts): (_, &[Partition]) = if !cache.enabled() {
            uncached = build_partitions(&mut cluster, &h, &zipf, a, cfg.seed).0;
            ("off", &uncached)
        } else if let Some(resident) = cache.lookup(&key, a.tick) {
            ("hit", resident)
        } else {
            let (built, cost) = build_partitions(&mut cluster, &h, &zipf, a, cfg.seed);
            match cache.insert(key, built, cost, a.tick) {
                Admission::Admitted(resident) => ("miss", resident),
                Admission::Rejected(back) => {
                    uncached = back;
                    ("miss", &uncached)
                }
            }
        };

        // Probe phase: route this query's probe rows with the *same*
        // hash that partitioned the base, then probe each partition's
        // table locally. Each server folds every match straight into
        // its row count and bag digest, so no server writes its output
        // and nothing is gathered: the answer's digest is the sum.
        let probe = templates::probe_relation(a.template, a.group, a.serial, cfg.seed);
        let inboxes = partition_by_key(&mut cluster, &h, &probe);
        let outputs = cluster.map(inboxes, |s, probes| {
            probe_digest(&parts[s].index(), &probes, 0)
        });
        let (out_rows, digest) = outputs.iter().fold((0, 0u64), |(rows, sum), &(n, d)| {
            (rows + n, sum.wrapping_add(d))
        });

        let delta = cluster.report_since(mark);
        let io_now = io_totals();
        let heaviest_round_tuples = delta
            .rounds
            .iter()
            .map(|round| round.total_tuples())
            .max()
            .unwrap_or(0);
        let mut record = QueryRecord {
            serial: a.serial,
            tick: a.tick,
            tenant: a.tenant,
            template: TEMPLATES[a.template].name,
            group: a.group,
            cache: cache_state,
            l: delta.max_load_tuples(),
            rounds: delta.num_rounds() as u64,
            tuples: delta.total_tuples(),
            words: delta.total_words(),
            out_rows,
            digest,
            io: io_now.since(&io_so_far),
            per_server_tuples: Vec::new(),
            heaviest_round_tuples,
        };
        // The delta is this query's alone, so its first round's vector
        // becomes the record's and the other rounds are added into it.
        record.per_server_tuples = delta
            .rounds
            .into_iter()
            .map(|round| round.tuples)
            .reduce(|mut sum, round| {
                for (acc, t) in sum.iter_mut().zip(&round) {
                    *acc += t;
                }
                sum
            })
            .unwrap_or_default();
        records.push(record);
        io_so_far = io_now;
    }
    StreamOut {
        records,
        cache: cache.stats(),
        totals: cluster.report(),
    }
}

/// Per-server IO ledgers summed into one.
fn sum_io(parts: &[IoStats]) -> IoStats {
    let mut sum = IoStats::default();
    for part in parts {
        sum.merge(part);
    }
    sum
}

/// The paged store's cumulative IO totals summed across servers — a
/// pure read of `paged::io_report`, monotone over a replay (nothing in
/// the serving path resets the ledger), so two snapshots bracket
/// exactly the IO charged between them.
fn io_totals() -> IoStats {
    sum_io(&paged::io_report())
}

/// [`replay`], with its records also cut into fixed-width tick windows:
/// the series beside the report. Same determinism contract as
/// [`replay`]: equal configurations (and equal window widths) produce
/// byte-equal series under any execution mode and any fault plan's
/// recovery (`tests/obs_invariants.rs`).
pub fn replay_observed(
    cfg: &ServeConfig,
    window_ticks: u64,
) -> Result<(ServeReport, SeriesReport), String> {
    if window_ticks == 0 {
        return Err("serve: --window must be at least one tick".into());
    }
    let report = replay(cfg)?;
    let shape = ObsConfig {
        window_ticks,
        ticks: cfg.ticks,
        servers: cfg.servers,
    };
    let series = SeriesReport::fold(shape, &report.records);
    Ok((report, series))
}

/// Build phase: draw the base from the replay's `zipf` tables,
/// scatter it, hash-partition it across the cluster (one exchange
/// round) and index every partition where it landed, returning the
/// per-server partitions and what the build cost — the charges a cache
/// hit skips.
fn build_partitions(
    cluster: &mut Cluster,
    h: &HashFamily,
    zipf: &ZipfTables,
    a: &QueryArrival,
    seed: u64,
) -> (Vec<Partition>, BuildCost) {
    let base = zipf.base_relation(a.template, a.group, seed);
    // The delivered buffers are the rows the cache keeps; indexing them
    // is each server's local work.
    let delivered = partition_by_key(cluster, h, &base);
    let parts = cluster.map(delivered, |_, rows| Partition::new(rows));
    let n = base.len() as u64;
    (
        parts,
        BuildCost {
            reads: n,
            words: 2 * n,
            tuples: n,
        },
    )
}

/// One exchange round: the binary `rel`, in its initial placement,
/// every row to the server its first column hashes to. Each server's
/// inbox comes back as the fragment its flat receive buffer already is.
fn partition_by_key(cluster: &mut Cluster, h: &HashFamily, rel: &Relation) -> Vec<Relation> {
    let mut ex = cluster.exchange_rows(&[2]);
    hash_partition(&mut ex, 0, rel, 0, h);
    single_stream(2, ex.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ServeConfig {
        ServeConfig {
            servers: 4,
            tenants: 2,
            templates: 2,
            groups: 4,
            ticks: 20,
            cache_budget: 50_000,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let a = replay(&small()).expect("valid config");
        let b = replay(&small()).expect("valid config");
        assert_eq!(a.records, b.records);
        assert_eq!(a.tenants, b.tenants);
        assert_eq!(a.cache, b.cache);
        assert_eq!(a.totals, b.totals);
        assert_eq!(a.io, b.io);
    }

    #[test]
    fn skewed_stream_hits_the_cache() {
        let r = replay(&small()).expect("valid config");
        assert!(
            r.cache.hits > 0,
            "no cache hits on a Zipf stream: {:?}",
            r.cache
        );
        assert!(r.cache.insertions > 0);
        assert!(r.records.iter().any(|q| q.cache == "hit"));
        assert!(r.records.iter().any(|q| q.cache == "miss"));
    }

    #[test]
    fn cache_off_marks_every_query_off() {
        let r = replay(&ServeConfig {
            cache_budget: 0,
            ..small()
        })
        .expect("valid config");
        assert!(r.records.iter().all(|q| q.cache == "off"));
        assert_eq!(r.cache, CacheStats::default());
    }

    #[test]
    fn per_query_deltas_cover_the_whole_ledger() {
        let r = replay(&small()).expect("valid config");
        let rounds: u64 = r.records.iter().map(|q| q.rounds).sum();
        assert_eq!(rounds, r.totals.num_rounds() as u64);
        let words: u64 = r.records.iter().map(|q| q.words).sum();
        assert_eq!(words, r.totals.total_words());
    }

    #[test]
    fn hits_skip_the_build_round() {
        let r = replay(&small()).expect("valid config");
        for q in &r.records {
            match q.cache {
                "hit" => assert_eq!(q.rounds, 1, "hit must be probe-only: {q:?}"),
                _ => assert_eq!(q.rounds, 2, "miss must build + probe: {q:?}"),
            }
        }
    }

    #[test]
    fn a_hit_indexes_nothing() {
        use crate::cache::PARTITIONS_BUILT;
        let indexed_by = |cfg: &ServeConfig| {
            let before = PARTITIONS_BUILT.with(std::cell::Cell::get);
            let report = replay(cfg).expect("valid config");
            (PARTITIONS_BUILT.with(std::cell::Cell::get) - before, report)
        };
        // 8k tuples hold two bases at most, 2k none: hits, evictions
        // and rejected builds are all in play.
        for cache_budget in [50_000, 8000, 2000] {
            let cfg = ServeConfig {
                cache_budget,
                ..small()
            };
            let (indexed, r) = indexed_by(&cfg);
            assert_eq!(r.cache.misses, r.cache.insertions + r.cache.rejected);
            assert_eq!(
                indexed as u64,
                cfg.servers as u64 * r.cache.misses,
                "budget {cache_budget}: only a miss indexes, once per server: {:?}",
                r.cache
            );
        }
        let off = ServeConfig {
            cache_budget: 0,
            ..small()
        };
        let (indexed, r) = indexed_by(&off);
        assert_eq!(indexed as u64, off.servers as u64 * r.served());
    }

    #[test]
    fn tiny_budget_forces_evictions() {
        let r = replay(&ServeConfig {
            cache_budget: 8000,
            ..small()
        })
        .expect("valid config");
        assert!(
            r.cache.evictions > 0,
            "8k-tuple budget must evict: {:?}",
            r.cache
        );
        assert!(r.cache.resident_tuples <= 8000);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        for bad in [
            ServeConfig {
                servers: 0,
                ..small()
            },
            ServeConfig {
                tenants: 0,
                ..small()
            },
            ServeConfig {
                ticks: 0,
                ..small()
            },
            ServeConfig {
                templates: 0,
                ..small()
            },
            ServeConfig {
                templates: TEMPLATES.len() + 1,
                ..small()
            },
            ServeConfig {
                groups: 0,
                ..small()
            },
            ServeConfig {
                zipf_q: -1.0,
                ..small()
            },
            ServeConfig {
                zipf_data: f64::NAN,
                ..small()
            },
        ] {
            assert!(replay(&bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn observed_replay_rejects_zero_window() {
        assert!(replay_observed(&small(), 0).is_err());
    }

    #[test]
    fn faulted_replay_reproduces_faultfree_digests() {
        let clean = replay(&small()).expect("valid config");
        let faulted = replay(&ServeConfig {
            faults: Some(FaultSetup::default()),
            ..small()
        })
        .expect("valid config");
        let log = faulted.fault_log.as_ref().expect("fault log present");
        assert!(log.fired() > 0, "default plan must fire inside the horizon");
        let digests = |r: &ServeReport| r.records.iter().map(|q| q.digest).collect::<Vec<_>>();
        assert_eq!(
            digests(&clean),
            digests(&faulted),
            "fault injection must be transparent to query outputs"
        );
        assert!(
            faulted.totals.total_tuples() > clean.totals.total_tuples(),
            "recovery overhead must be charged to the ledger"
        );
    }
}
