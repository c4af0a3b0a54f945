//! Per-tenant metrics reconciliation: the serving layer invents no
//! numbers. Tenant stats are folded from per-query ledger deltas
//! (`Cluster::report_since`), so their sums must equal the whole-replay
//! `(L, r, C)` ledger *exactly*, and recovery overhead on that ledger
//! must be exactly what the fault log tallied.

use parqp::serve::{replay, FaultSetup, ServeConfig, ServeReport};

fn stream() -> ServeConfig {
    ServeConfig {
        servers: 4,
        tenants: 3,
        templates: 3,
        groups: 5,
        ticks: 24,
        seed: 42,
        cache_budget: 60_000,
        ..ServeConfig::default()
    }
}

/// Sum one per-tenant field across all tenants.
fn tenant_sum(r: &ServeReport, f: impl Fn(&parqp::serve::TenantStats) -> u64) -> u64 {
    r.tenants.iter().map(f).sum()
}

#[test]
fn tenant_sums_equal_the_cluster_ledger_exactly() {
    let r = replay(&stream()).expect("valid config");
    assert_eq!(tenant_sum(&r, |t| t.served), r.served());
    assert_eq!(tenant_sum(&r, |t| t.rounds), r.totals.num_rounds() as u64);
    assert_eq!(tenant_sum(&r, |t| t.tuples), r.totals.total_tuples());
    assert_eq!(tenant_sum(&r, |t| t.words), r.totals.total_words());
    // Every tenant actually served something in this stream.
    assert!(r.tenants.iter().all(|t| t.served > 0));
}

#[test]
fn tenant_cache_counters_equal_the_cache_ledger_exactly() {
    let r = replay(&stream()).expect("valid config");
    assert!(r.cache.hits > 0, "stream must exercise the cache");
    assert_eq!(tenant_sum(&r, |t| t.hits), r.cache.hits);
    assert_eq!(tenant_sum(&r, |t| t.misses), r.cache.misses);
}

#[test]
fn tenant_sums_equal_the_query_records_exactly() {
    let r = replay(&stream()).expect("valid config");
    for t in &r.tenants {
        let records: Vec<_> = r.records.iter().filter(|q| q.tenant == t.tenant).collect();
        assert_eq!(t.served, records.len() as u64);
        assert_eq!(t.rounds, records.iter().map(|q| q.rounds).sum::<u64>());
        assert_eq!(t.tuples, records.iter().map(|q| q.tuples).sum::<u64>());
        assert_eq!(t.words, records.iter().map(|q| q.words).sum::<u64>());
        // Percentiles come from the same per-query L samples.
        let mut l: Vec<u64> = records.iter().map(|q| q.l).collect();
        l.sort_unstable();
        assert!(t.l_p50 <= t.l_p99);
        assert!(l.contains(&t.l_p50) && l.contains(&t.l_p99));
    }
}

#[test]
fn reconciliation_holds_under_injected_faults() {
    let r = replay(&ServeConfig {
        faults: Some(FaultSetup::default()),
        ..stream()
    })
    .expect("valid config");
    let log = r.fault_log.as_ref().expect("fault log present");
    assert!(log.fired() > 0, "plan must fire under load");
    // Recovery rounds land inside some query's report_since window, so
    // the tenant sums still tile the inflated ledger exactly.
    assert_eq!(tenant_sum(&r, |t| t.rounds), r.totals.num_rounds() as u64);
    assert_eq!(tenant_sum(&r, |t| t.tuples), r.totals.total_tuples());
    assert_eq!(tenant_sum(&r, |t| t.words), r.totals.total_words());
    // A hit probes (1 round), anything else builds and probes (2): the
    // ledger's rounds beyond that are the ones the fault log appended.
    assert_eq!(
        r.totals.num_rounds() as u64,
        2 * r.served() - r.cache.hits + log.recovery_rounds as u64
    );
}
