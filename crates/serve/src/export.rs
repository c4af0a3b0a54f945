//! Exporters: JSONL series, Prometheus text exposition, and the ASCII
//! dashboard behind `parqp dash`.
//!
//! All three are pure functions of the series with fixed field order
//! and fixed-precision floats, so byte-identical output is exactly
//! equivalent to equal series — the property the Prometheus golden test
//! and the CI dash snapshot rely on. The [`SeriesReport::steady_jsonl`]
//! projection keeps only the fields fault recovery cannot perturb
//! (query mix and outputs), so it is byte-identical between a
//! fault-free and a recovered replay of the same configuration while
//! the full series shows the overhead.

use std::fmt::Write as _;

use crate::series::{SeriesReport, WindowStats};

/// A named gauge: metric suffix, Prometheus HELP text, extractor.
type Gauge<T> = (&'static str, &'static str, fn(&WindowStats) -> T);

/// Glyph ramp for sparklines and the heatmap (space = zero), the same
/// idiom as the trace analyzer's heatmap.
const RAMP: &[u8] = b" .:-=+*#%@";

/// Map `v` in `0..=max` onto the ramp; zero stays blank.
fn glyph(v: u64, max: u64) -> char {
    if v == 0 || max == 0 {
        return RAMP[0] as char;
    }
    let steps = (RAMP.len() - 2) as u128;
    let idx = 1 + (u128::from(v) * steps / u128::from(max)) as usize;
    RAMP[idx.min(RAMP.len() - 1)] as char
}

/// One sparkline over the windows, scaled to the series maximum.
fn sparkline(values: &[u64]) -> String {
    let max = values.iter().copied().max().unwrap_or(0);
    values.iter().map(|&v| glyph(v, max)).collect()
}

/// A float series, fixed at 4 decimal places for byte stability.
fn scaled(values: impl Iterator<Item = f64>) -> Vec<u64> {
    values
        .map(|v| (v.max(0.0) * 10_000.0).round() as u64)
        .collect()
}

impl SeriesReport {
    /// The machine-readable series: one `window` object per window, a
    /// closing `series_totals` object, fixed field order,
    /// fixed-precision floats.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for w in &self.windows {
            let _ = writeln!(
                out,
                "{{\"type\":\"window\",\"index\":{},\"start_tick\":{},\"end_tick\":{},\
                 \"served\":{},\"throughput_per_kticks\":{},\"hits\":{},\"misses\":{},\
                 \"hit_rate\":\"{:.4}\",\"p50_l\":{},\"p99_l\":{},\"max_l\":{},\
                 \"rounds\":{},\"recovery_rounds\":{},\"tuples\":{},\"words\":{},\
                 \"out_rows\":{},\"skew\":\"{:.4}\",\"bound_ratio\":\"{:.4}\",\
                 \"io_reads\":{},\"io_misses\":{},\"io_evictions\":{},\
                 \"io_hit_rate\":\"{:.4}\"}}",
                w.index,
                w.start_tick,
                w.end_tick,
                w.served,
                w.throughput_per_kticks(),
                w.hits,
                w.misses,
                w.hit_rate(),
                w.l_percentile(50),
                w.l_percentile(99),
                w.max_l,
                w.rounds,
                w.recovery_rounds(),
                w.tuples,
                w.words,
                w.out_rows,
                w.skew(),
                w.bound_ratio(),
                w.io_reads,
                w.io_misses,
                w.io_evictions,
                w.io_hit_rate(),
            );
        }
        let _ = writeln!(
            out,
            "{{\"type\":\"series_totals\",\"windows\":{},\"window_ticks\":{},\
             \"served\":{},\"rounds\":{},\"recovery_rounds\":{},\"tuples\":{},\
             \"words\":{},\"p99_l_worst\":{},\"hit_rate_min\":\"{:.4}\"}}",
            self.windows.len(),
            self.config.window_ticks,
            self.served(),
            self.rounds(),
            self.recovery_rounds(),
            self.tuples(),
            self.words(),
            self.p99_l_worst(),
            self.hit_rate_min(),
        );
        out
    }

    /// The fault-invariant projection of the series: per-window query
    /// mix and outputs only. Recovery inflates rounds, loads and IO but
    /// never the schedule, the cache decisions, or the outputs — so
    /// this rendering is byte-identical between a fault-free and a
    /// recovered replay (`tests/obs_invariants.rs`).
    pub fn steady_jsonl(&self) -> String {
        let mut out = String::new();
        for w in &self.windows {
            let _ = writeln!(
                out,
                "{{\"type\":\"steady_window\",\"index\":{},\"served\":{},\"hits\":{},\
                 \"misses\":{},\"out_rows\":{}}}",
                w.index, w.served, w.hits, w.misses, w.out_rows,
            );
        }
        out
    }

    /// Prometheus text exposition: every window series as a gauge with
    /// a `window` label, then run totals. Byte-stable (golden-tested).
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let int_series: &[Gauge<u64>] = &[
            ("served", "Queries served in the window.", |w| w.served),
            (
                "throughput_per_kticks",
                "Queries served per 1000 ticks of the window.",
                WindowStats::throughput_per_kticks,
            ),
            ("cache_hits", "Plan-cache hits in the window.", |w| w.hits),
            ("cache_misses", "Plan-cache misses in the window.", |w| {
                w.misses
            }),
            (
                "p50_l",
                "Median per-query load L (log2-sketched, tuples).",
                |w| w.l_percentile(50),
            ),
            (
                "p99_l",
                "99th-percentile per-query load L (log2-sketched, tuples).",
                |w| w.l_percentile(99),
            ),
            ("max_l", "Worst per-query load L (tuples).", |w| w.max_l),
            ("rounds", "Ledger rounds attributed to the window.", |w| {
                w.rounds
            }),
            (
                "recovery_rounds",
                "Rounds above the steady query-mix expectation.",
                WindowStats::recovery_rounds,
            ),
            ("tuples", "Tuples moved in the window.", |w| w.tuples),
            ("words", "Words moved in the window.", |w| w.words),
            ("io_reads", "Page-IO logical reads in the window.", |w| {
                w.io_reads
            }),
            ("io_misses", "Page-IO pool misses in the window.", |w| {
                w.io_misses
            }),
            ("io_evictions", "Page-IO evictions in the window.", |w| {
                w.io_evictions
            }),
        ];
        for (name, help, f) in int_series {
            let _ = writeln!(out, "# HELP parqp_serve_window_{name} {help}");
            let _ = writeln!(out, "# TYPE parqp_serve_window_{name} gauge");
            for w in &self.windows {
                let _ = writeln!(
                    out,
                    "parqp_serve_window_{name}{{window=\"{}\"}} {}",
                    w.index,
                    f(w)
                );
            }
        }
        let float_series: &[Gauge<f64>] = &[
            (
                "cache_hit_rate",
                "Plan-cache hit rate over the window's lookups.",
                WindowStats::hit_rate,
            ),
            (
                "io_hit_rate",
                "Buffer-pool hit rate over the window's reads.",
                WindowStats::io_hit_rate,
            ),
            (
                "skew",
                "Hottest server over the balanced line tuples/p.",
                WindowStats::skew,
            ),
            (
                "bound_ratio",
                "Worst per-query L over its skew-free prediction.",
                WindowStats::bound_ratio,
            ),
        ];
        for (name, help, f) in float_series {
            let _ = writeln!(out, "# HELP parqp_serve_window_{name} {help}");
            let _ = writeln!(out, "# TYPE parqp_serve_window_{name} gauge");
            for w in &self.windows {
                let _ = writeln!(
                    out,
                    "parqp_serve_window_{name}{{window=\"{}\"}} {:.4}",
                    w.index,
                    f(w)
                );
            }
        }
        let totals: &[(&str, &str, u64)] = &[
            (
                "windows",
                "Windows in the series.",
                self.windows.len() as u64,
            ),
            (
                "window_ticks",
                "Window width in ticks.",
                self.config.window_ticks,
            ),
            (
                "served_total",
                "Queries served across the run.",
                self.served(),
            ),
            (
                "rounds_total",
                "Ledger rounds across the run.",
                self.rounds(),
            ),
            (
                "recovery_rounds_total",
                "Recovery rounds across the run.",
                self.recovery_rounds(),
            ),
            (
                "tuples_total",
                "Tuples moved across the run.",
                self.tuples(),
            ),
            ("words_total", "Words moved across the run.", self.words()),
        ];
        for (name, help, v) in totals {
            let _ = writeln!(out, "# HELP parqp_serve_{name} {help}");
            let _ = writeln!(out, "# TYPE parqp_serve_{name} gauge");
            let _ = writeln!(out, "parqp_serve_{name} {v}");
        }
        out
    }

    /// The ASCII dashboard behind `parqp dash`: one sparkline per
    /// window series, then a servers×windows heatmap of received
    /// tuples. Pure text, fixed width, deterministic.
    pub fn dashboard(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "serve series: p={} windows={}x{} ticks served={} rounds={} recovery={}",
            self.config.servers,
            self.windows.len(),
            self.config.window_ticks,
            self.served(),
            self.rounds(),
            self.recovery_rounds(),
        );
        let rows: Vec<(&str, Vec<u64>, String)> = vec![
            row_int("served", self, |w| w.served),
            row_int("p50(L)", self, |w| w.l_percentile(50)),
            row_int("p99(L)", self, |w| w.l_percentile(99)),
            row_int("rounds", self, |w| w.rounds),
            row_int("recovery", self, WindowStats::recovery_rounds),
            row_int("io_reads", self, |w| w.io_reads),
            row_float("hit_rate", self, WindowStats::hit_rate),
            row_float("io_hit_rate", self, WindowStats::io_hit_rate),
            row_float("skew", self, WindowStats::skew),
            row_float("bound_ratio", self, WindowStats::bound_ratio),
        ];
        for (name, values, range) in &rows {
            let _ = writeln!(out, "{:>12} |{}| {}", name, sparkline(values), range);
        }
        let _ = writeln!(out, "heatmap: tuples received, servers x windows");
        let global_max = self
            .windows
            .iter()
            .flat_map(|w| w.per_server_tuples.iter().copied())
            .max()
            .unwrap_or(0);
        for s in 0..self.config.servers {
            let line: String = self
                .windows
                .iter()
                .map(|w| glyph(w.per_server_tuples.get(s).copied().unwrap_or(0), global_max))
                .collect();
            let _ = writeln!(out, "{s:>12} |{line}|");
        }
        out
    }
}

fn row_int(
    name: &'static str,
    series: &SeriesReport,
    f: fn(&WindowStats) -> u64,
) -> (&'static str, Vec<u64>, String) {
    let values: Vec<u64> = series.windows.iter().map(f).collect();
    let min = values.iter().copied().min().unwrap_or(0);
    let max = values.iter().copied().max().unwrap_or(0);
    (name, values, format!("min={min} max={max}"))
}

fn row_float(
    name: &'static str,
    series: &SeriesReport,
    f: fn(&WindowStats) -> f64,
) -> (&'static str, Vec<u64>, String) {
    let floats: Vec<f64> = series.windows.iter().map(f).collect();
    let values = scaled(floats.iter().copied());
    let min = floats.iter().copied().fold(f64::INFINITY, f64::min);
    let max = floats.iter().copied().fold(0.0f64, f64::max);
    let min = if min.is_finite() { min } else { 0.0 };
    (name, values, format!("min={min:.4} max={max:.4}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::QueryRecord;
    use crate::series::ObsConfig;

    fn sample() -> SeriesReport {
        let records: Vec<QueryRecord> = (0..6u64)
            .map(|tick| {
                let cache = if tick % 3 == 0 { "hit" } else { "miss" };
                let mut q = QueryRecord::synthetic(tick, 8 << tick, cache);
                q.out_rows = tick;
                q.io.reads = 100;
                q.io.misses = 10;
                q.io.evictions = 1;
                // Skewed 3:1 across the two servers; predicted_l = l / 2.
                q.per_server_tuples = vec![12 << tick, 4 << tick];
                q.heaviest_round_tuples = 8 << tick;
                q
            })
            .collect();
        let shape = ObsConfig {
            window_ticks: 2,
            ticks: 6,
            servers: 2,
        };
        SeriesReport::fold(shape, &records)
    }

    #[test]
    fn jsonl_is_deterministic_and_shaped() {
        let s = sample();
        assert_eq!(s.jsonl(), s.jsonl());
        let jsonl = s.jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4, "3 windows + totals");
        assert!(lines[0].starts_with("{\"type\":\"window\",\"index\":0,"));
        assert!(lines[3].starts_with("{\"type\":\"series_totals\""));
        assert!(lines[0].contains("\"hit_rate\":\"0.5000\""));
    }

    #[test]
    fn steady_jsonl_is_the_projection() {
        let s = sample();
        let steady = s.steady_jsonl();
        assert_eq!(steady.lines().count(), 3);
        assert!(steady.contains("\"type\":\"steady_window\""));
        assert!(!steady.contains("rounds"), "cost fields must be absent");
        assert!(!steady.contains("io_"), "IO fields must be absent");
    }

    #[test]
    fn prometheus_is_byte_stable_and_labelled() {
        let s = sample();
        let prom = s.prometheus();
        assert_eq!(prom, s.prometheus());
        assert!(prom.contains("# TYPE parqp_serve_window_p99_l gauge"));
        assert!(prom.contains("parqp_serve_window_served{window=\"0\"} 2"));
        assert!(prom.contains("parqp_serve_window_cache_hit_rate{window=\"0\"} 0.5000"));
        assert!(prom.contains("parqp_serve_served_total 6"));
        for line in prom.lines() {
            assert!(
                line.starts_with('#') || line.starts_with("parqp_serve_"),
                "stray exposition line: {line}"
            );
        }
    }

    #[test]
    fn dashboard_draws_every_row_and_server() {
        let s = sample();
        let dash = s.dashboard();
        assert_eq!(dash, s.dashboard());
        assert!(dash.starts_with("serve series: p=2 windows=3x2 ticks"));
        for row in ["served", "p99(L)", "hit_rate", "bound_ratio", "heatmap"] {
            assert!(dash.contains(row), "missing row {row}: {dash}");
        }
        // Two heatmap rows, one per server, as wide as the series.
        let heat: Vec<&str> = dash
            .lines()
            .skip_while(|l| !l.starts_with("heatmap"))
            .skip(1)
            .collect();
        assert_eq!(heat.len(), 2);
        for line in &heat {
            assert_eq!(line.len(), 12 + 2 + 3 + 1, "server gutter + |...|");
        }
    }

    #[test]
    fn glyphs_cover_the_ramp() {
        assert_eq!(glyph(0, 100), ' ');
        assert_eq!(glyph(100, 100), '@');
        assert_eq!(glyph(1, u64::MAX), '.');
        assert_eq!(glyph(5, 0), ' ');
        assert_eq!(sparkline(&[]), "");
    }
}
