//! Fixture: fabricating query observations and a window recorder
//! from outside serve/obs (PQ111).

use parqp_obs::{ObsConfig, QueryObs, SeriesRecorder};

pub fn forge_series() -> u64 {
    let cfg = ObsConfig {
        window_ticks: 8,
        ticks: 64,
        servers: 4,
    };
    let mut rec = SeriesRecorder::new(cfg);
    let q = QueryObs {
        serial: 0,
        tick: 0,
        tenant: 0,
        lookup: true,
        hit: true,
        l: 9000,
        predicted_l: 1,
        rounds: 1,
        tuples: 9000,
        words: 18000,
        out_rows: 0,
        io_reads: 0,
        io_misses: 0,
        io_evictions: 0,
        per_server_tuples: vec![9000, 0, 0, 0],
    };
    rec.record(&q);
    rec.finish().served()
}
