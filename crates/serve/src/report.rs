//! The replay report: per-query records, the per-tenant fold over
//! them, and the deterministic table / JSONL renderers behind `parqp
//! serve`.
//!
//! A [`QueryRecord`] is the only thing the stream loop produces per
//! arrival; [`TenantStats`] here and the window series in
//! [`crate::obs`] are both pure functions of the record slice, sharing
//! one accumulator (`Sums`).
//!
//! Both renderers are pure functions of the report with fixed field
//! order and fixed-precision floats, so byte-identical output is
//! exactly equivalent to equal replays — the property the CI smoke
//! step and the differential suite compare.

use std::fmt::Write as _;
use std::hash::Hasher;

use parqp_data::fasthash::FxHasher;
use parqp_data::paged::IoStats;
use parqp_data::Relation;
use parqp_mpc::faults::{FaultLog, RecoveryStrategy};
use parqp_mpc::metrics::nearest_rank;
use parqp_mpc::LoadReport;

use crate::cache::CacheStats;
use crate::driver::ServeConfig;

/// One served query: where it came from, how the cache treated it, and
/// its exact slice of the cluster and page-IO ledgers.
///
/// `#[non_exhaustive]`: other crates read records, only the replay's
/// stream loop builds them — from `Cluster::report_since` and the store
/// ledger — so every number downstream of a record was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct QueryRecord {
    /// Stream serial (replay order).
    pub serial: u64,
    /// Arrival tick.
    pub tick: u64,
    /// Issuing tenant.
    pub tenant: usize,
    /// Template name.
    pub template: &'static str,
    /// Data-key group.
    pub group: u64,
    /// `"hit"`, `"miss"`, or `"off"` (cache disabled).
    pub cache: &'static str,
    /// The query's load `L` in tuples (max over its rounds).
    pub l: u64,
    /// Ledger rounds attributed to this query (including any recovery
    /// rounds faults appended during it).
    pub rounds: u64,
    /// Total tuples this query's rounds moved.
    pub tuples: u64,
    /// Total words this query's rounds moved.
    pub words: u64,
    /// Output rows produced.
    pub out_rows: u64,
    /// Digest of the canonicalized output.
    pub digest: u64,
    /// Page IO while this query ran, summed across servers.
    pub io: IoStats,
    /// Tuples received per server across this query's rounds (length =
    /// `p`; sums to `tuples`).
    pub per_server_tuples: Vec<u64>,
    /// Total tuples of this query's heaviest round.
    pub heaviest_round_tuples: u64,
}

impl QueryRecord {
    /// The skew-free line for this query: its heaviest round's total
    /// spread evenly over the `p` servers (≥ 1). `l / predicted_l` is
    /// the query's bound ratio.
    pub fn predicted_l(&self) -> u64 {
        let p = self.per_server_tuples.len().max(1) as u64;
        self.heaviest_round_tuples.div_ceil(p).max(1)
    }

    /// A record no replay produced, for unit tests of the folds: one
    /// query at `tick` with load `l` on two balanced servers (so
    /// `predicted_l == l`), one round on a `"hit"` and two otherwise.
    #[cfg(test)]
    pub(crate) fn synthetic(tick: u64, l: u64, cache: &'static str) -> Self {
        Self {
            serial: tick,
            tick,
            tenant: 0,
            template: "t",
            group: 0,
            cache,
            l,
            rounds: if cache == "hit" { 1 } else { 2 },
            tuples: 2 * l,
            words: 4 * l,
            out_rows: 0,
            digest: 0,
            io: IoStats::default(),
            per_server_tuples: vec![l, l],
            heaviest_round_tuples: 2 * l,
        }
    }
}

/// The sums every fold over a group of records starts from: the tenant
/// stats and the window series differ only in how they group.
#[derive(Debug, Clone, Default)]
pub(crate) struct Sums {
    pub(crate) served: u64,
    pub(crate) rounds: u64,
    pub(crate) tuples: u64,
    pub(crate) words: u64,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    /// Per-query loads `L`, ascending: the percentiles' sample.
    pub(crate) loads: Vec<u64>,
}

impl Sums {
    pub(crate) fn of<'a>(records: impl IntoIterator<Item = &'a QueryRecord>) -> Self {
        let mut sums = Self::default();
        for q in records {
            sums.served += 1;
            sums.rounds += q.rounds;
            sums.tuples += q.tuples;
            sums.words += q.words;
            match q.cache {
                "hit" => sums.hits += 1,
                "miss" => sums.misses += 1,
                _ => {}
            }
            sums.loads.push(q.l);
        }
        sums.loads.sort_unstable();
        sums
    }
}

/// Split `records` into `n ≥ 1` groups by `key` (a key past the end
/// joins the last group), replay order kept within each.
pub(crate) fn group_by(
    records: &[QueryRecord],
    n: usize,
    key: impl Fn(&QueryRecord) -> usize,
) -> Vec<Vec<&QueryRecord>> {
    let mut groups = vec![Vec::new(); n];
    for q in records {
        groups[key(q).min(n - 1)].push(q);
    }
    groups
}

/// Per-tenant serving stats folded from the query records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant id.
    pub tenant: usize,
    /// Queries served.
    pub served: u64,
    /// Ledger rounds across the tenant's queries.
    pub rounds: u64,
    /// Tuples moved by the tenant's queries.
    pub tuples: u64,
    /// Words moved by the tenant's queries.
    pub words: u64,
    /// Cache hits among the tenant's queries.
    pub hits: u64,
    /// Cache misses among the tenant's queries.
    pub misses: u64,
    /// Median per-query load `L` (nearest rank).
    pub l_p50: u64,
    /// 99th-percentile per-query load `L` (nearest rank).
    pub l_p99: u64,
    /// Queries served per 1000 ticks.
    pub throughput_per_kticks: u64,
}

impl TenantStats {
    /// One entry per tenant of `cfg`, each a fold over that tenant's own
    /// records; the percentiles are the exact nearest rank.
    pub(crate) fn fold(cfg: &ServeConfig, records: &[QueryRecord]) -> Vec<TenantStats> {
        group_by(records, cfg.tenants, |q| q.tenant)
            .iter()
            .enumerate()
            .map(|(tenant, qs)| {
                let sums = Sums::of(qs.iter().copied());
                TenantStats {
                    tenant,
                    served: sums.served,
                    rounds: sums.rounds,
                    tuples: sums.tuples,
                    words: sums.words,
                    hits: sums.hits,
                    misses: sums.misses,
                    l_p50: nearest_rank(&sums.loads, 50),
                    l_p99: nearest_rank(&sums.loads, 99),
                    throughput_per_kticks: sums.served * 1000 / cfg.ticks,
                }
            })
            .collect()
    }

    /// `hits / (hits + misses)`; 0 when the cache never saw the tenant.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// Everything a replay produced.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The configuration replayed.
    pub config: ServeConfig,
    /// Every served query in replay order.
    pub records: Vec<QueryRecord>,
    /// Per-tenant stats, indexed by tenant id.
    pub tenants: Vec<TenantStats>,
    /// The exact plan-cache ledger.
    pub cache: CacheStats,
    /// The whole-replay `(L, r, C)` ledger.
    pub totals: LoadReport,
    /// The whole-replay page-IO ledger (summed across servers).
    pub io: IoStats,
    /// What fired, when faults were injected.
    pub fault_log: Option<FaultLog>,
}

/// Digest of a relation's canonical row set: row length then values, in
/// canonical row order, so per-server output order cannot leak into it.
/// Served queries and the `parqp::observe` experiments both report it.
/// The rows are hashed where they lie — what hashing
/// [`Relation::canonical`] yields, without building it.
pub fn digest_relation(rel: &Relation) -> u64 {
    let mut h = FxHasher::default();
    for row in rel.canonical_rows() {
        h.write_u64(row.len() as u64);
        for &v in row {
            h.write_u64(v);
        }
    }
    h.finish()
}

impl ServeReport {
    /// Total queries served.
    pub fn served(&self) -> u64 {
        self.records.len() as u64
    }

    /// Queries served per 1000 ticks.
    pub fn throughput_per_kticks(&self) -> u64 {
        self.served() * 1000 / self.config.ticks
    }

    /// Nearest-rank percentile of per-query load `L` across the whole
    /// stream.
    pub fn l_percentile(&self, pct: u64) -> u64 {
        let mut samples: Vec<u64> = self.records.iter().map(|q| q.l).collect();
        samples.sort_unstable();
        nearest_rank(&samples, pct)
    }

    /// Order-sensitive digest of the whole replay: folds every query's
    /// serial and output digest, so two replays with equal digests
    /// served identical results in identical order.
    pub fn digest(&self) -> u64 {
        let mut h = FxHasher::default();
        for q in &self.records {
            h.write_u64(q.serial);
            h.write_u64(q.digest);
        }
        h.finish()
    }

    fn faults_label(&self) -> String {
        match &self.config.faults {
            None => "off".to_string(),
            Some(f) => {
                let strategy = match f.strategy {
                    RecoveryStrategy::Checkpoint { every } => {
                        format!("checkpoint({every})")
                    }
                    RecoveryStrategy::Replication { replicas } => {
                        format!("replication({replicas})")
                    }
                };
                format!("{strategy}/h{}", f.horizon)
            }
        }
    }

    /// The human-readable summary behind `parqp serve`.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let c = &self.config;
        let _ = writeln!(
            out,
            "serve replay: p={} tenants={} templates={} groups={} ticks={} seed={} \
             cache_budget={} faults={}",
            c.servers,
            c.tenants,
            c.templates,
            c.groups,
            c.ticks,
            c.seed,
            c.cache_budget,
            self.faults_label()
        );
        let _ = writeln!(
            out,
            "queries={} throughput={}/kticks p50(L)={} p99(L)={} rounds={} C={} tuples \
             ({} words)",
            self.served(),
            self.throughput_per_kticks(),
            self.l_percentile(50),
            self.l_percentile(99),
            self.totals.num_rounds(),
            self.totals.total_tuples(),
            self.totals.total_words(),
        );
        let _ = writeln!(
            out,
            "cache: hits={} misses={} hit_rate={:.4} insertions={} evictions={} rejected={} \
             resident={} saved_reads={} saved_words={}",
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate(),
            self.cache.insertions,
            self.cache.evictions,
            self.cache.rejected,
            self.cache.resident_tuples,
            self.cache.reads_saved,
            self.cache.words_saved,
        );
        let _ = writeln!(
            out,
            "io: reads={} misses={} evictions={} hit_rate={:.4}",
            self.io.reads,
            self.io.misses,
            self.io.evictions,
            self.io.hit_rate(),
        );
        if let Some(log) = &self.fault_log {
            let _ = writeln!(
                out,
                "faults: fired={} recovery_rounds={} recovery_tuples={} recovery_words={}",
                log.fired(),
                log.recovery_rounds,
                log.recovery_tuples,
                log.recovery_words,
            );
        }
        let _ = writeln!(
            out,
            "{:>6} {:>7} {:>8} {:>8} {:>7} {:>6} {:>9}",
            "tenant", "served", "p50(L)", "p99(L)", "rounds", "hit%", "q/kticks"
        );
        for t in &self.tenants {
            let _ = writeln!(
                out,
                "{:>6} {:>7} {:>8} {:>8} {:>7} {:>6.1} {:>9}",
                t.tenant,
                t.served,
                t.l_p50,
                t.l_p99,
                t.rounds,
                100.0 * t.hit_rate(),
                t.throughput_per_kticks,
            );
        }
        let _ = writeln!(out, "digest=0x{:016x}", self.digest());
        out
    }

    /// The machine-readable replay: one JSON object per line (config,
    /// then queries, tenants, cache, optional faults, totals), fixed
    /// field order, fixed-precision floats.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        let c = &self.config;
        let _ = writeln!(
            out,
            "{{\"type\":\"config\",\"servers\":{},\"tenants\":{},\"templates\":{},\
             \"groups\":{},\"ticks\":{},\"seed\":{},\"zipf_q\":\"{:.3}\",\
             \"zipf_data\":\"{:.3}\",\"cache_budget\":{},\"page_size\":{},\
             \"pool_pages\":{},\"faults\":\"{}\"}}",
            c.servers,
            c.tenants,
            c.templates,
            c.groups,
            c.ticks,
            c.seed,
            c.zipf_q,
            c.zipf_data,
            c.cache_budget,
            c.store.page_size,
            c.store.pool_pages,
            self.faults_label(),
        );
        for q in &self.records {
            let _ = writeln!(
                out,
                "{{\"type\":\"query\",\"serial\":{},\"tick\":{},\"tenant\":{},\
                 \"template\":\"{}\",\"group\":{},\"cache\":\"{}\",\"l\":{},\
                 \"rounds\":{},\"tuples\":{},\"words\":{},\"out\":{},\
                 \"digest\":\"0x{:016x}\"}}",
                q.serial,
                q.tick,
                q.tenant,
                q.template,
                q.group,
                q.cache,
                q.l,
                q.rounds,
                q.tuples,
                q.words,
                q.out_rows,
                q.digest,
            );
        }
        for t in &self.tenants {
            let _ = writeln!(
                out,
                "{{\"type\":\"tenant\",\"tenant\":{},\"served\":{},\"rounds\":{},\
                 \"tuples\":{},\"words\":{},\"hits\":{},\"misses\":{},\
                 \"hit_rate\":\"{:.4}\",\"p50_l\":{},\"p99_l\":{},\
                 \"throughput_per_kticks\":{}}}",
                t.tenant,
                t.served,
                t.rounds,
                t.tuples,
                t.words,
                t.hits,
                t.misses,
                t.hit_rate(),
                t.l_p50,
                t.l_p99,
                t.throughput_per_kticks,
            );
        }
        let _ = writeln!(
            out,
            "{{\"type\":\"cache\",\"hits\":{},\"misses\":{},\"insertions\":{},\
             \"evictions\":{},\"rejected\":{},\"resident_tuples\":{},\
             \"peak_resident_tuples\":{},\"hit_rate\":\"{:.4}\",\"reads_saved\":{},\
             \"words_saved\":{}}}",
            self.cache.hits,
            self.cache.misses,
            self.cache.insertions,
            self.cache.evictions,
            self.cache.rejected,
            self.cache.resident_tuples,
            self.cache.peak_resident_tuples,
            self.cache.hit_rate(),
            self.cache.reads_saved,
            self.cache.words_saved,
        );
        if let Some(log) = &self.fault_log {
            let _ = writeln!(
                out,
                "{{\"type\":\"faults\",\"fired\":{},\"recovery_rounds\":{},\
                 \"recovery_tuples\":{},\"recovery_words\":{}}}",
                log.fired(),
                log.recovery_rounds,
                log.recovery_tuples,
                log.recovery_words,
            );
        }
        let _ = writeln!(
            out,
            "{{\"type\":\"totals\",\"queries\":{},\"throughput_per_kticks\":{},\
             \"p50_l\":{},\"p99_l\":{},\"rounds\":{},\"tuples\":{},\"words\":{},\
             \"io_reads\":{},\"io_misses\":{},\"io_evictions\":{},\
             \"io_hit_rate\":\"{:.4}\",\"digest\":\"0x{:016x}\"}}",
            self.served(),
            self.throughput_per_kticks(),
            self.l_percentile(50),
            self.l_percentile(99),
            self.totals.num_rounds(),
            self.totals.total_tuples(),
            self.totals.total_words(),
            self.io.reads,
            self.io.misses,
            self.io.evictions,
            self.io.hit_rate(),
            self.digest(),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{replay, ServeConfig};

    fn small() -> ServeConfig {
        ServeConfig {
            servers: 4,
            tenants: 2,
            templates: 2,
            groups: 4,
            ticks: 16,
            cache_budget: 50_000,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn digest_relation_matches_canonical_content() {
        let a = Relation::from_rows(2, [[1, 2], [3, 4]]);
        let b = Relation::from_rows(2, [[3, 4], [1, 2]]);
        assert_eq!(digest_relation(&a), digest_relation(&b), "order-free");
        let c = Relation::from_rows(2, [[1, 2], [3, 5]]);
        assert_ne!(digest_relation(&a), digest_relation(&c));
    }

    /// `digest_relation` as it was first written: build the canonical
    /// copy, then hash it.
    fn digest_of_canonical_copy(rel: &Relation) -> u64 {
        let mut h = FxHasher::default();
        for row in rel.canonical().iter() {
            h.write_u64(row.len() as u64);
            for &v in row {
                h.write_u64(v);
            }
        }
        h.finish()
    }

    #[test]
    fn digest_relation_is_the_digest_of_the_canonical_copy() {
        let empty = Relation::new(3);
        assert_eq!(digest_relation(&empty), digest_of_canonical_copy(&empty));
        let mut state = 0xD16E57u64;
        for arity in 1..=3 {
            for rows in [1usize, 2, 50, 400] {
                // A domain of 6 makes most rows duplicates of another.
                for domain in [6u64, u64::MAX] {
                    let rel = Relation::from_rows(
                        arity,
                        (0..rows).map(|_| {
                            (0..arity)
                                .map(|_| parqp_testkit::splitmix64(&mut state) % domain)
                                .collect::<Vec<_>>()
                        }),
                    );
                    assert_eq!(
                        digest_relation(&rel),
                        digest_of_canonical_copy(&rel),
                        "arity {arity}, {rows} rows, domain {domain}"
                    );
                }
            }
        }
    }

    #[test]
    fn renderers_are_deterministic_and_complete() {
        let r = replay(&small()).expect("valid config");
        assert_eq!(r.table(), r.table());
        assert_eq!(r.jsonl(), r.jsonl());
        let jsonl = r.jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(lines[0].starts_with("{\"type\":\"config\""));
        assert!(lines
            .last()
            .expect("non-empty")
            .starts_with("{\"type\":\"totals\""));
        let queries = lines
            .iter()
            .filter(|l| l.contains("\"type\":\"query\""))
            .count();
        assert_eq!(queries as u64, r.served());
        let tenants = lines
            .iter()
            .filter(|l| l.contains("\"type\":\"tenant\""))
            .count();
        assert_eq!(tenants, 2);
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.contains("\"type\":\"cache\""))
                .count(),
            1
        );
        let table = r.table();
        assert!(table.contains("digest=0x"));
        assert!(table.contains("cache: hits="));
    }

    #[test]
    fn faulted_report_includes_the_fault_line() {
        let r = replay(&ServeConfig {
            faults: Some(crate::driver::FaultSetup::default()),
            ..small()
        })
        .expect("valid config");
        assert!(r.jsonl().contains("\"type\":\"faults\""));
        assert!(r.table().contains("faults: fired="));
    }

    #[test]
    fn stream_percentiles_are_monotone() {
        let r = replay(&small()).expect("valid config");
        assert!(r.l_percentile(50) <= r.l_percentile(99));
        assert!(r.l_percentile(99) <= r.totals.max_load_tuples());
    }
}
