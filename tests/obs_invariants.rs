//! Observability invariants: the window series `replay_observed`
//! returns is an exact re-tiling of the serving ledgers — it invents
//! nothing and loses nothing.
//!
//! * **A fold, by construction** — the series is `SeriesReport::fold`
//!   over the records a plain `replay` returns, and the observed
//!   replay's report is that replay's report.
//! * **Tiling** — per-window served/rounds/tuples/words/out_rows and
//!   the cache and page-IO deltas sum exactly to the `ServeReport`
//!   ledgers the same replay produced.
//! * **Percentile accuracy** — the log₂-resolution p50/p99 land in the
//!   same bucket as the exact nearest-rank percentile of the per-window
//!   samples.
//! * **Determinism** — the full JSONL/Prometheus/dashboard exports are
//!   byte-identical serial vs `ExecMode::Parallel`.
//! * **Fault invariance** — the steady projection (served/hits/misses/
//!   out_rows) is byte-identical fault-free vs recovered, while the
//!   derived per-window recovery rounds are zero fault-free and sum
//!   exactly to the fault log's recovery-round charge when faults fire.
//! * **SLO gate** — the committed `slo/serve_steady.slo` parses to the
//!   in-code objectives and passes on the steady preset; slashing the
//!   cache budget must trip the hit-rate burn gate.

use parqp::faults::FaultSpec;
use parqp::metrics::{serve_presets, SLO_WINDOW_TICKS};
use parqp::mpc::metrics::bucket_of;
use parqp::mpc::{exec, ExecMode};
use parqp::obs::{ObsConfig, SeriesReport, SloRules};
use parqp::serve::{replay, replay_observed, FaultSetup, ServeConfig, ServeReport};

const WINDOW: u64 = 6;

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

fn faulted(cfg: &ServeConfig) -> ServeConfig {
    ServeConfig {
        faults: Some(FaultSetup {
            spec: FaultSpec {
                crashes: 2,
                ..FaultSpec::default()
            },
            horizon: 6,
            ..FaultSetup::default()
        }),
        ..cfg.clone()
    }
}

fn observed(cfg: &ServeConfig) -> (ServeReport, SeriesReport) {
    replay_observed(cfg, WINDOW).expect("valid config")
}

#[test]
fn the_series_is_a_function_of_the_plain_replays_records() {
    let cold = ServeConfig {
        cache_budget: 0,
        ..stream()
    };
    let mut small_pool = stream();
    small_pool.store.pool_pages = 2;
    for cfg in [stream(), cold, faulted(&stream()), small_pool] {
        let plain = replay(&cfg).expect("valid config");
        let (report, series) = observed(&cfg);
        let shape = ObsConfig {
            window_ticks: WINDOW,
            ticks: cfg.ticks,
            servers: cfg.servers,
        };
        assert_eq!(series, SeriesReport::fold(shape, &plain.records));
        assert_eq!(series.windows.len(), 4);
        assert_eq!(report.records, plain.records);
        assert_eq!(report.tenants, plain.tenants);
        assert_eq!(report.cache, plain.cache);
        assert_eq!(report.totals, plain.totals);
        assert_eq!(report.io, plain.io);
    }
}

#[test]
fn window_series_tiles_the_serving_ledgers_exactly() {
    for cfg in [stream(), faulted(&stream())] {
        let (report, series) = observed(&cfg);
        let sum = |f: &dyn Fn(&parqp::obs::WindowStats) -> u64| -> u64 {
            series.windows.iter().map(f).sum()
        };
        assert_eq!(sum(&|w| w.served), report.served());
        assert_eq!(sum(&|w| w.rounds), report.totals.num_rounds() as u64);
        assert_eq!(sum(&|w| w.tuples), report.totals.total_tuples());
        assert_eq!(sum(&|w| w.words), report.totals.total_words());
        assert_eq!(
            sum(&|w| w.out_rows),
            report.records.iter().map(|r| r.out_rows).sum::<u64>()
        );
        // The cache ledger: every lookup lands in exactly one window.
        assert_eq!(sum(&|w| w.hits), report.cache.hits);
        assert_eq!(sum(&|w| w.misses), report.cache.misses);
        // The page-IO ledger: per-query deltas re-tile the totals.
        assert_eq!(sum(&|w| w.io_reads), report.io.reads);
        assert_eq!(sum(&|w| w.io_misses), report.io.misses);
        assert_eq!(sum(&|w| w.io_evictions), report.io.evictions);
        // The records the windows were folded from tile the same
        // ledgers: per-query IO deltas and per-server tuples.
        let mut io = parqp::data::paged::IoStats::default();
        let mut recorded = vec![0u64; cfg.servers];
        for q in &report.records {
            io.merge(&q.io);
            assert_eq!(q.per_server_tuples.iter().sum::<u64>(), q.tuples);
            for (acc, t) in recorded.iter_mut().zip(&q.per_server_tuples) {
                *acc += t;
            }
        }
        assert_eq!(io, report.io);
        // Per-server tuples tile the per-server communication volume.
        for (s, &recorded) in recorded.iter().enumerate() {
            let windowed: u64 = series.windows.iter().map(|w| w.per_server_tuples[s]).sum();
            let ledger: u64 = report.totals.rounds.iter().map(|r| r.tuples[s]).sum();
            assert_eq!(windowed, ledger, "server {s}");
            assert_eq!(recorded, ledger, "server {s}");
        }
    }
}

#[test]
fn every_query_lands_in_the_window_of_its_tick() {
    let (report, series) = observed(&stream());
    for w in &series.windows {
        let exact = report
            .records
            .iter()
            .filter(|r| (r.tick / WINDOW).min(series.windows.len() as u64 - 1) == w.index as u64)
            .count() as u64;
        assert_eq!(w.served, exact, "window {}", w.index);
    }
}

#[test]
fn sketched_percentiles_land_in_the_exact_buckets() {
    let (report, series) = observed(&stream());
    for w in &series.windows {
        let mut exact: Vec<u64> = report
            .records
            .iter()
            .filter(|r| (r.tick / WINDOW).min(series.windows.len() as u64 - 1) == w.index as u64)
            .map(|r| r.l)
            .collect();
        exact.sort_unstable();
        if exact.is_empty() {
            continue;
        }
        for pct in [50, 99] {
            let rank = (pct as usize * exact.len()).div_ceil(100).max(1);
            let truth = exact[rank - 1];
            let sketched = w.l_percentile(pct);
            assert_eq!(
                bucket_of(sketched),
                bucket_of(truth),
                "window {} p{pct}: sketch {sketched} vs exact {truth}",
                w.index
            );
        }
        assert_eq!(w.l_percentile(100), *exact.last().expect("non-empty"));
    }
}

#[test]
fn series_exports_are_byte_identical_serial_vs_parallel() {
    let (_, serial) = observed(&stream());
    let (_, parallel) = {
        let _guard = exec::install(ExecMode::Parallel { workers: 2 }).expect("pool spawns");
        observed(&stream())
    };
    assert_eq!(serial.jsonl(), parallel.jsonl());
    assert_eq!(serial.prometheus(), parallel.prometheus());
    assert_eq!(serial.dashboard(), parallel.dashboard());
}

#[test]
fn steady_projection_is_byte_identical_under_faults() {
    let (clean_report, clean) = observed(&stream());
    let (faulty_report, faulty) = observed(&faulted(&stream()));
    // Recovery inflates rounds, loads and IO — the full series must
    // show it (that is what the recovery sparkline renders) …
    assert_ne!(clean.jsonl(), faulty.jsonl());
    // … but the query mix it serves is untouched: the fault-invariant
    // projection exports byte-identically.
    assert_eq!(clean.steady_jsonl(), faulty.steady_jsonl());
    // Derived recovery rounds: zero everywhere fault-free, and exactly
    // the fault log's recovery-round charge when faults fire.
    assert!(clean_report.fault_log.is_none());
    assert!(clean.windows.iter().all(|w| w.recovery_rounds() == 0));
    let log = faulty_report.fault_log.as_ref().expect("faults fired");
    assert!(log.recovery_rounds > 0, "plan must actually fire");
    assert_eq!(
        faulty
            .windows
            .iter()
            .map(|w| w.recovery_rounds())
            .sum::<u64>(),
        log.recovery_rounds as u64
    );
}

fn committed_rules() -> SloRules {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../slo/serve_steady.slo");
    let src = std::fs::read_to_string(&path).expect("committed rules file exists");
    SloRules::parse(&src).expect("committed rules parse")
}

#[test]
fn committed_rules_file_matches_the_in_code_objectives() {
    assert_eq!(committed_rules(), SloRules::serve_steady());
}

#[test]
fn slo_gate_passes_on_the_steady_preset() {
    let presets = serve_presets(42);
    let (_, cfg) = presets
        .iter()
        .find(|(name, _)| *name == "steady/p8")
        .expect("steady preset exists");
    let (_, series) = replay_observed(cfg, SLO_WINDOW_TICKS).expect("valid config");
    let verdict = committed_rules().evaluate(&series);
    verdict.gate().expect("committed objectives hold");
}

#[test]
fn slashing_the_cache_budget_trips_the_hit_rate_gate() {
    let presets = serve_presets(42);
    let (_, steady) = presets
        .iter()
        .find(|(name, _)| *name == "steady/p8")
        .expect("steady preset exists");
    // A seeded regression: the cache still takes lookups but can no
    // longer retain anything, so the hit-rate floor burns window after
    // window. The gate must catch it.
    let starved = ServeConfig {
        cache_budget: 1,
        ..steady.clone()
    };
    let (_, series) = replay_observed(&starved, SLO_WINDOW_TICKS).expect("valid config");
    let err = committed_rules()
        .evaluate(&series)
        .gate()
        .expect_err("starved cache must burn");
    assert!(err.contains("hit_rate_floor"), "got: {err}");
}
