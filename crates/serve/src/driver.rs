//! The replay driver: one long-lived cluster, one query stream, exact
//! per-query accounting.
//!
//! [`replay`] schedules the stream, then runs every arrival against a
//! single [`Cluster`] under captured store/metrics/fault runtimes. Each
//! query is two phases: *build* (scatter + hash-partition the
//! template's base and index each partition's join column — skipped
//! entirely on a cache hit) and *probe* (route the per-query probe
//! relation with the same hash, then probe the partitions' tables
//! locally). The base is paid for once per build: cache off, miss, hit
//! and rejected build all run the same probe against a
//! [`Partition`] — only who owns it differs. A ledger mark taken before
//! each query turns the cluster's cumulative ledger into exact
//! per-query deltas via [`Cluster::report_since`], so tenant totals
//! reconcile with the global registry to the tuple.

use parqp_data::paged::{self, IoStats, StoreConfig};
use parqp_data::Relation;
use parqp_join::common::{hash_partition, joined_arity, probe_rows, scatter, single_stream};
use parqp_mpc::faults::{self, FaultPlan, FaultSpec, RecoveryStrategy};
use parqp_mpc::metrics::{self, MetricsRegistry};
use parqp_mpc::{Cluster, HashFamily, LoadReport};
use parqp_obs::{LogHistogram, ObsConfig, QueryObs, SeriesRecorder, SeriesReport};

use crate::cache::{Admission, BuildCost, CacheKey, CacheStats, Partition, PlanCache};
use crate::report::{digest_relation, QueryRecord, ServeReport, TenantStats};
use crate::templates::{self, TEMPLATES};
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

/// Exact load samples a tenant ledger retains before falling back to
/// its log₂ sketch: short streams keep byte-exact percentiles, long
/// streams stay O(buckets) instead of O(queries).
pub(crate) const MAX_EXACT_L_SAMPLES: usize = 512;

/// Per-tenant accumulation while the stream replays. Fabricating one
/// of these outside `parqp-serve` is a layering violation (lint rule
/// PQ110): tenant counters must come out of the cluster's ledger
/// deltas, never be invented.
///
/// Load percentiles come from a bounded pair: up to
/// [`MAX_EXACT_L_SAMPLES`] exact samples (exact nearest-rank while the
/// tenant's stream is short) plus a [`LogHistogram`] sketch that
/// absorbs every sample — so state is O(buckets + cap) however long
/// the stream runs, and sketch percentiles stay within one log₂ bucket
/// of exact (`percentile_cap_keeps_state_bounded` below).
#[derive(Debug, Clone, Default)]
struct TenantLedger {
    served: u64,
    rounds: u64,
    tuples: u64,
    words: u64,
    hits: u64,
    misses: u64,
    l_hist: LogHistogram,
    l_exact: Vec<u64>,
}

impl TenantLedger {
    /// Fold one served query into the ledger.
    fn observe(&mut self, r: &QueryRecord) {
        self.served += 1;
        self.rounds += r.rounds;
        self.tuples += r.tuples;
        self.words += r.words;
        match r.cache {
            "hit" => self.hits += 1,
            "miss" => self.misses += 1,
            _ => {}
        }
        self.l_hist.record(r.l);
        if self.l_exact.len() < MAX_EXACT_L_SAMPLES {
            self.l_exact.push(r.l);
        }
    }

    /// Nearest-rank load percentile: exact while every sample is
    /// retained, sketched (within one log₂ bucket) beyond the cap.
    fn l_percentile(&self, sorted_exact: &[u64], pct: u64) -> u64 {
        if self.served as usize <= MAX_EXACT_L_SAMPLES {
            percentile(sorted_exact, pct)
        } else {
            self.l_hist.percentile(pct)
        }
    }
}

/// Replay `cfg`'s query stream and return the full report.
///
/// Deterministic end to end: equal configurations produce byte-equal
/// reports (records, ledgers, digests), under any execution mode and
/// any fault plan.
pub fn replay(cfg: &ServeConfig) -> Result<ServeReport, String> {
    replay_into(cfg, None)
}

/// [`replay`], feeding one observation per served query to `obs` when
/// there is one.
fn replay_into(
    cfg: &ServeConfig,
    mut obs: Option<&mut SeriesRecorder>,
) -> Result<ServeReport, String> {
    cfg.validate()?;
    let arrivals = workload::schedule(cfg);
    let (io_parts, (mut registry, (fault_log, out))) = paged::capture(cfg.store, || {
        metrics::capture(|| match &cfg.faults {
            Some(f) => {
                let plan = FaultPlan::random(cfg.seed, cfg.servers, f.horizon, &f.spec);
                let (log, out) = faults::capture(plan, f.strategy, || {
                    run_stream(cfg, &arrivals, obs.as_deref_mut())
                });
                (Some(log), out)
            }
            None => (None, run_stream(cfg, &arrivals, obs)),
        })
    });
    let mut io = IoStats::default();
    for part in &io_parts {
        io.merge(part);
    }
    let tenants = tally_tenants(cfg, &out.records);
    annotate_registry(&mut registry, &tenants, &out.cache, cfg.ticks);
    Ok(ServeReport {
        config: cfg.clone(),
        records: out.records,
        tenants,
        cache: out.cache,
        totals: out.totals,
        io,
        registry,
        fault_log,
    })
}

/// Run every arrival against one long-lived cluster.
fn run_stream(
    cfg: &ServeConfig,
    arrivals: &[QueryArrival],
    mut obs: Option<&mut SeriesRecorder>,
) -> StreamOut {
    let p = cfg.servers;
    let mut cluster = Cluster::new(p);
    let mut cache = PlanCache::new(cfg.cache_budget);
    let mut records = Vec::with_capacity(arrivals.len());
    for a in arrivals {
        // Observations need the query's IO delta; an unobserved replay
        // skips building them entirely.
        let io_before = obs.is_some().then(io_totals);
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
            uncached = build_partitions(&mut cluster, &h, a, cfg.seed).0;
            ("off", &uncached)
        } else if let Some(resident) = cache.lookup(&key, a.tick) {
            ("hit", resident)
        } else {
            let (built, cost) = build_partitions(&mut cluster, &h, a, cfg.seed);
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
        // table locally.
        let probe = templates::probe_relation(a.template, a.group, a.serial, cfg.seed);
        let inboxes = partition_by_key(&mut cluster, &h, &probe);
        let arity = joined_arity(2, 2);
        let outputs = cluster.map(inboxes, |s, probes| {
            let mut out = Relation::new(arity);
            probe_rows(&parts[s].index(), &probes, 0, &mut out);
            out
        });

        let out_rows = outputs.iter().map(Relation::len).sum();
        let mut gathered = Relation::with_capacity(arity, out_rows);
        for part in &outputs {
            gathered.extend_from(part);
        }
        let delta = cluster.report_since(mark);
        if let (Some(obs), Some(io_before)) = (obs.as_deref_mut(), io_before) {
            let io = io_totals().since(&io_before);
            let mut per_server = vec![0u64; p];
            let mut heaviest_round = 0u64;
            for round in &delta.rounds {
                heaviest_round = heaviest_round.max(round.total_tuples());
                for (acc, t) in per_server.iter_mut().zip(&round.tuples) {
                    *acc += t;
                }
            }
            obs.record(&QueryObs {
                serial: a.serial,
                tick: a.tick,
                tenant: a.tenant,
                lookup: cache_state != "off",
                hit: cache_state == "hit",
                l: delta.max_load_tuples(),
                predicted_l: heaviest_round.div_ceil(p as u64).max(1),
                rounds: delta.num_rounds() as u64,
                tuples: delta.total_tuples(),
                words: delta.total_words(),
                out_rows: gathered.len() as u64,
                io_reads: io.reads,
                io_misses: io.misses,
                io_evictions: io.evictions,
                per_server_tuples: per_server,
            });
        }
        records.push(QueryRecord {
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
            out_rows: gathered.len() as u64,
            digest: digest_relation(&gathered),
        });
    }
    StreamOut {
        records,
        cache: cache.stats(),
        totals: cluster.report(),
    }
}

/// The paged store's cumulative IO totals summed across servers — a
/// pure read of `paged::io_report`, monotone over a replay (nothing in
/// the serving path resets the ledger), so two snapshots bracket a
/// query's exact IO delta.
fn io_totals() -> IoStats {
    let mut sum = IoStats::default();
    for part in &paged::io_report() {
        sum.merge(part);
    }
    sum
}

/// [`replay`], observed: record the per-query stream into fixed-width
/// tick windows and return the series beside the report. The registry
/// additionally carries `serve.window.*` gauges. Same determinism
/// contract as [`replay`]: equal configurations (and equal window
/// widths) produce byte-equal series under any execution mode and any
/// fault plan's recovery (`tests/obs_invariants.rs`).
pub fn replay_observed(
    cfg: &ServeConfig,
    window_ticks: u64,
) -> Result<(ServeReport, SeriesReport), String> {
    cfg.validate()?;
    if window_ticks == 0 {
        return Err("serve: --window must be at least one tick".into());
    }
    let obs_cfg = ObsConfig {
        window_ticks,
        ticks: cfg.ticks,
        servers: cfg.servers,
    };
    let mut recorder = SeriesRecorder::new(obs_cfg);
    let mut report = replay_into(cfg, Some(&mut recorder))?;
    let series = recorder.finish();
    annotate_window_gauges(&mut report.registry, &series);
    Ok((report, series))
}

/// Mirror the window series into registry gauges, beside the tenant
/// and cache gauges [`annotate_registry`] sets.
fn annotate_window_gauges(registry: &mut MetricsRegistry, series: &SeriesReport) {
    registry.set_gauge("serve.windows", series.windows.len() as f64);
    registry.set_gauge(
        "serve.window.width_ticks",
        series.config.window_ticks as f64,
    );
    registry.set_gauge("serve.recovery_rounds", series.recovery_rounds() as f64);
    for w in &series.windows {
        let base = format!("serve.window.{}", w.index);
        registry.set_gauge(format!("{base}.served"), w.served as f64);
        registry.set_gauge(format!("{base}.p99_l"), w.l_percentile(99) as f64);
        registry.set_gauge(format!("{base}.hit_rate"), w.hit_rate());
        registry.set_gauge(
            format!("{base}.recovery_rounds"),
            w.recovery_rounds() as f64,
        );
    }
}

/// Build phase: scatter the base, hash-partition it across the cluster
/// (one exchange round) and index every partition where it landed,
/// returning the per-server partitions and what the build cost — the
/// charges a cache hit skips.
fn build_partitions(
    cluster: &mut Cluster,
    h: &HashFamily,
    a: &QueryArrival,
    seed: u64,
) -> (Vec<Partition>, BuildCost) {
    let base = templates::base_relation(a.template, a.group, seed);
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

/// One exchange round: the binary `rel`, scattered, every row to the
/// server its first column hashes to. Each server's inbox comes back as
/// the fragment its flat receive buffer already is.
fn partition_by_key(cluster: &mut Cluster, h: &HashFamily, rel: &Relation) -> Vec<Relation> {
    let frags = scatter(rel, cluster.p());
    let mut ex = cluster.exchange_rows(&[2]);
    hash_partition(&mut ex, 0, &frags, 0, h);
    single_stream(2, ex.finish())
}

/// Fold the per-query records into per-tenant stats.
fn tally_tenants(cfg: &ServeConfig, records: &[QueryRecord]) -> Vec<TenantStats> {
    let mut ledgers = vec![TenantLedger::default(); cfg.tenants];
    for r in records {
        ledgers[r.tenant].observe(r);
    }
    ledgers
        .into_iter()
        .enumerate()
        .map(|(tenant, mut t)| {
            t.l_exact.sort_unstable();
            TenantStats {
                tenant,
                served: t.served,
                rounds: t.rounds,
                tuples: t.tuples,
                words: t.words,
                hits: t.hits,
                misses: t.misses,
                l_p50: t.l_percentile(&t.l_exact, 50),
                l_p99: t.l_percentile(&t.l_exact, 99),
                throughput_per_kticks: t.served * 1000 / cfg.ticks,
            }
        })
        .collect()
}

/// Nearest-rank percentile of an ascending-sorted sample; 0 when empty.
/// Rank arithmetic is u128 so no `pct`/length combination can overflow.
pub(crate) fn percentile(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (u128::from(pct) * sorted.len() as u128)
        .div_ceil(100)
        .max(1);
    let idx = (rank - 1).min(sorted.len() as u128 - 1) as usize;
    sorted[idx]
}

/// Mirror the per-tenant and cache ledgers into registry gauges, so
/// `parqp metrics`-style consumers see serving health next to the
/// event-derived counters.
fn annotate_registry(
    registry: &mut MetricsRegistry,
    tenants: &[TenantStats],
    cache: &CacheStats,
    ticks: u64,
) {
    let mut served = 0u64;
    for t in tenants {
        served += t.served;
        let base = format!("serve.tenant.{}", t.tenant);
        registry.set_gauge(format!("{base}.served"), t.served as f64);
        registry.set_gauge(format!("{base}.rounds"), t.rounds as f64);
        registry.set_gauge(format!("{base}.p50_l"), t.l_p50 as f64);
        registry.set_gauge(format!("{base}.p99_l"), t.l_p99 as f64);
        registry.set_gauge(format!("{base}.cache_hit_rate"), t.hit_rate());
        registry.set_gauge(
            format!("{base}.throughput_per_kticks"),
            t.throughput_per_kticks as f64,
        );
    }
    registry.set_gauge("serve.queries_served", served as f64);
    registry.set_gauge(
        "serve.throughput_per_kticks",
        (served * 1000 / ticks) as f64,
    );
    registry.set_gauge("serve.cache.hits", cache.hits as f64);
    registry.set_gauge("serve.cache.misses", cache.misses as f64);
    registry.set_gauge("serve.cache.insertions", cache.insertions as f64);
    registry.set_gauge("serve.cache.evictions", cache.evictions as f64);
    registry.set_gauge("serve.cache.hit_rate", cache.hit_rate());
    registry.set_gauge(
        "serve.cache.peak_resident_tuples",
        cache.peak_resident_tuples as f64,
    );
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
    fn percentile_nearest_rank() {
        assert_eq!(percentile(&[], 99), 0);
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[1, 2, 3, 4], 50), 2);
        assert_eq!(percentile(&[1, 2, 3, 4], 99), 4);
        assert_eq!(percentile(&[1, 2, 3, 4], 100), 4);
    }

    /// Naive nearest-rank reference for the percentile property test:
    /// count how many samples each candidate dominates.
    fn percentile_reference(sorted: &[u64], pct: u64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = (u128::from(pct) * sorted.len() as u128)
            .div_ceil(100)
            .max(1) as usize;
        let mut taken = 0usize;
        for &v in sorted {
            taken += 1;
            if taken >= rank {
                return v;
            }
        }
        *sorted.last().expect("non-empty")
    }

    #[test]
    fn percentile_matches_naive_reference_on_random_samples() {
        let mut state = 0x5EEDu64;
        for len in [1usize, 2, 3, 7, 100, 101, 997] {
            let mut samples: Vec<u64> = (0..len)
                .map(|_| parqp_testkit::splitmix64(&mut state) % 1_000_000)
                .collect();
            samples.sort_unstable();
            for pct in [0u64, 1, 33, 50, 99, 100] {
                assert_eq!(
                    percentile(&samples, pct),
                    percentile_reference(&samples, pct),
                    "len={len} pct={pct}"
                );
            }
        }
    }

    #[test]
    fn percentile_pct_zero_is_the_minimum() {
        // rank clamps to 1: pct=0 reads the smallest sample, not a
        // panic or an out-of-range index.
        assert_eq!(percentile(&[5, 9, 12], 0), 5);
        assert_eq!(percentile(&[], 0), 0);
    }

    #[test]
    fn percentile_rank_arithmetic_cannot_overflow() {
        // u64::MAX · len would overflow the old u64 rank arithmetic;
        // the u128 path clamps to the top sample instead.
        let sorted: Vec<u64> = (0..1000).collect();
        assert_eq!(percentile(&sorted, u64::MAX), 999);
        assert_eq!(percentile(&[u64::MAX], u64::MAX), u64::MAX);
    }

    #[test]
    fn tenant_ledger_state_is_bounded_by_the_cap() {
        // Regression for the unbounded l_samples vector: however many
        // queries a tenant serves, the ledger retains at most the cap
        // of exact samples plus the fixed-size sketch.
        let mut ledger = TenantLedger::default();
        for serial in 0..(MAX_EXACT_L_SAMPLES as u64 * 20) {
            ledger.observe(&QueryRecord {
                serial,
                tick: serial,
                tenant: 0,
                template: "t",
                group: 1,
                cache: "hit",
                l: serial % 4096,
                rounds: 1,
                tuples: 2,
                words: 4,
                out_rows: 0,
                digest: 0,
            });
        }
        assert_eq!(ledger.served, MAX_EXACT_L_SAMPLES as u64 * 20);
        assert!(ledger.l_exact.len() <= MAX_EXACT_L_SAMPLES);
        assert_eq!(ledger.l_hist.count(), ledger.served);
    }

    #[test]
    fn capped_ledger_percentiles_stay_within_one_bucket() {
        let mut ledger = TenantLedger::default();
        let mut all = Vec::new();
        let mut state = 0xABu64;
        for serial in 0..10_000u64 {
            let l = parqp_testkit::splitmix64(&mut state) % 100_000;
            all.push(l);
            ledger.observe(&QueryRecord {
                serial,
                tick: serial,
                tenant: 0,
                template: "t",
                group: 1,
                cache: "miss",
                l,
                rounds: 2,
                tuples: 2 * l,
                words: 4 * l,
                out_rows: 0,
                digest: 0,
            });
        }
        all.sort_unstable();
        let mut sorted_exact = ledger.l_exact.clone();
        sorted_exact.sort_unstable();
        for pct in [50u64, 99] {
            let exact = percentile(&all, pct);
            let sketched = ledger.l_percentile(&sorted_exact, pct);
            let bucket = |v: u64| 64 - v.leading_zeros();
            assert_eq!(
                bucket(exact),
                bucket(sketched),
                "pct {pct}: exact {exact} vs sketch {sketched}"
            );
        }
    }

    #[test]
    fn observed_replay_matches_plain_replay() {
        let plain = replay(&small()).expect("valid config");
        let (observed, series) = replay_observed(&small(), 4).expect("valid config");
        assert_eq!(plain.records, observed.records);
        assert_eq!(plain.tenants, observed.tenants);
        assert_eq!(series.served(), plain.served());
        assert_eq!(series.rounds(), plain.totals.num_rounds() as u64);
        assert_eq!(series.windows.len(), 5);
        let gauges: Vec<&str> = observed.registry.gauges().map(|(name, _)| name).collect();
        assert!(gauges.contains(&"serve.windows"));
        assert!(gauges.contains(&"serve.window.0.served"));
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
