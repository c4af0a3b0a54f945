//! Serving differential: the shared-plan cache must be purely a cost
//! optimization. Replaying the same seeded stream cache-on and
//! cache-off must produce byte-identical per-query outputs while the
//! cache-on run charges strictly less IO and communication — and the
//! savings must reconcile *exactly* with the cache's own ledger: every
//! hit banks precisely the build cost the off run pays. The same
//! replay must also be byte-identical under `ExecMode::Parallel` and
//! fully deterministic under injected fault plans with either recovery
//! strategy. Above all of these, every served answer must be the one a
//! serial join of the template's base and the query's probe gives:
//! two identical wrong answers agree with each other, not with it.

use parqp::faults::{FaultSpec, RecoveryStrategy};
use parqp::join::common::twoway_oracle;
use parqp::mpc::{exec, ExecMode};
use parqp::serve::report::digest_relation;
use parqp::serve::templates::{base_relation, probe_relation, TEMPLATES};
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

fn cache_off(cfg: &ServeConfig) -> ServeConfig {
    ServeConfig {
        cache_budget: 0,
        ..cfg.clone()
    }
}

fn faulted(cfg: &ServeConfig, strategy: RecoveryStrategy) -> ServeConfig {
    ServeConfig {
        faults: Some(FaultSetup {
            spec: FaultSpec {
                crashes: 2,
                ..FaultSpec::default()
            },
            strategy,
            horizon: 6,
        }),
        ..cfg.clone()
    }
}

fn digests(r: &ServeReport) -> Vec<(u64, u64)> {
    r.records.iter().map(|q| (q.serial, q.digest)).collect()
}

/// Every record's `(out_rows, digest)` against the serial oracle's
/// answer to the same query.
fn assert_served_answers_match_the_serial_oracle(cfg: &ServeConfig) {
    let report = replay(cfg).expect("valid config");
    assert!(report.served() > 0);
    for q in &report.records {
        let t = TEMPLATES
            .iter()
            .position(|spec| spec.name == q.template)
            .expect("a catalog template");
        let oracle = twoway_oracle(
            &base_relation(t, q.group, cfg.seed),
            0,
            &probe_relation(t, q.group, q.serial, cfg.seed),
            0,
        );
        assert_eq!(
            (q.out_rows, q.digest),
            (oracle.len() as u64, digest_relation(&oracle)),
            "query #{} ({} group {}, cache {})",
            q.serial,
            q.template,
            q.group,
            q.cache
        );
    }
}

#[test]
fn served_answers_equal_the_serial_oracle() {
    assert_served_answers_match_the_serial_oracle(&stream());
    assert_served_answers_match_the_serial_oracle(&cache_off(&stream()));
    let _guard = exec::install(ExecMode::Parallel { workers: 2 }).expect("pool spawns");
    assert_served_answers_match_the_serial_oracle(&stream());
}

#[test]
fn cache_on_and_off_serve_byte_identical_results() {
    let on = replay(&stream()).expect("valid config");
    let off = replay(&cache_off(&stream())).expect("valid config");
    assert_eq!(on.served(), off.served(), "same stream, same arrivals");
    assert!(on.cache.hits > 0, "stream must exercise the cache");
    for (a, b) in on.records.iter().zip(off.records.iter()) {
        assert_eq!((a.serial, a.tick, a.tenant), (b.serial, b.tick, b.tenant));
        assert_eq!(a.out_rows, b.out_rows, "query #{}", a.serial);
        assert_eq!(
            a.digest, b.digest,
            "query #{} ({} group {}) diverged under caching",
            a.serial, a.template, a.group
        );
    }
}

#[test]
fn cache_savings_reconcile_exactly_with_the_build_costs() {
    let on = replay(&stream()).expect("valid config");
    let off = replay(&cache_off(&stream())).expect("valid config");
    // Strictly cheaper: hits skip base scans and partition exchanges.
    assert!(on.cache.reads_saved > 0);
    assert!(
        on.io.reads < off.io.reads,
        "{} vs {}",
        on.io.reads,
        off.io.reads
    );
    assert!(on.totals.total_words() < off.totals.total_words());
    assert!(on.totals.total_tuples() < off.totals.total_tuples());
    // And exactly cheaper: the off run pays one build per query, the on
    // run pays one per miss; every hit banks exactly that build's cost.
    assert_eq!(on.io.reads + on.cache.reads_saved, off.io.reads);
    assert_eq!(
        on.totals.total_words() + on.cache.words_saved,
        off.totals.total_words()
    );
    assert_eq!(
        on.totals.total_tuples() + on.cache.reads_saved,
        off.totals.total_tuples()
    );
    // Round arithmetic: off = build + probe per query; on skips the
    // build round on every hit.
    assert_eq!(off.totals.num_rounds() as u64, 2 * off.served());
    assert_eq!(on.totals.num_rounds() as u64, on.served() + on.cache.misses);
}

#[test]
fn parallel_execution_is_byte_identical_to_serial() {
    let serial = replay(&stream()).expect("valid config").jsonl();
    let parallel = {
        let _guard = exec::install(ExecMode::Parallel { workers: 2 }).expect("pool spawns");
        replay(&stream()).expect("valid config").jsonl()
    };
    assert_eq!(serial, parallel, "--exec parallel must not change output");
}

#[test]
fn parallel_execution_is_byte_identical_under_faults() {
    let cfg = faulted(&stream(), RecoveryStrategy::Checkpoint { every: 2 });
    let serial = replay(&cfg).expect("valid config").jsonl();
    let parallel = {
        let _guard = exec::install(ExecMode::Parallel { workers: 2 }).expect("pool spawns");
        replay(&cfg).expect("valid config").jsonl()
    };
    assert_eq!(serial, parallel);
}

#[test]
fn replays_are_byte_identical_under_both_recovery_strategies() {
    for strategy in [
        RecoveryStrategy::Checkpoint { every: 2 },
        RecoveryStrategy::Replication { replicas: 2 },
    ] {
        let cfg = faulted(&stream(), strategy);
        let a = replay(&cfg).expect("valid config");
        let b = replay(&cfg).expect("valid config");
        assert_eq!(a.jsonl(), b.jsonl(), "{strategy:?}");
        assert_eq!(a.table(), b.table(), "{strategy:?}");
        let log = a.fault_log.as_ref().expect("fault log present");
        assert!(log.fired() > 0, "{strategy:?}: plan must fire under load");
    }
}

#[test]
fn fault_injection_is_transparent_to_served_results() {
    let clean = replay(&stream()).expect("valid config");
    for strategy in [
        RecoveryStrategy::Checkpoint { every: 2 },
        RecoveryStrategy::Replication { replicas: 2 },
    ] {
        let faulty = replay(&faulted(&stream(), strategy)).expect("valid config");
        assert_eq!(
            digests(&clean),
            digests(&faulty),
            "{strategy:?}: recovery must reproduce every query's output"
        );
        assert!(
            faulty.totals.total_tuples() > clean.totals.total_tuples(),
            "{strategy:?}: recovery overhead must be charged to the ledger"
        );
    }
}

#[test]
fn cache_remains_transparent_under_faults() {
    let strategy = RecoveryStrategy::Checkpoint { every: 2 };
    let on = replay(&faulted(&stream(), strategy)).expect("valid config");
    let off = replay(&cache_off(&faulted(&stream(), strategy))).expect("valid config");
    assert_eq!(digests(&on), digests(&off));
}
