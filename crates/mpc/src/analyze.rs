//! Analysis passes over a recorded trace: per-round load
//! reconstruction, skew summaries, histograms, and the ASCII
//! servers × rounds heatmap.
//!
//! Everything here consumes the *receive* side of the event stream —
//! `Recv` events are what the ledger charges, so they are the ground
//! truth for the load `L` the paper's theorems bound. A recording folds
//! into the ledger's own per-round type, [`RoundStats`], through the
//! same fold the live metrics registry runs, so a trace, a registry and
//! a `LoadReport` are three readings of one value.

use crate::event::TraceEvent;
use crate::recorder::Recorder;
use crate::registry::{bucket_of, nearest_rank};
use crate::stats::RoundStats;

/// The streaming fold from events to [`RoundStats`]: each `RoundBegin
/// … Recv … RoundEnd` block becomes one round, elided zero-load
/// servers filled in. Events outside a block (spans, fault and recovery
/// markers, send attribution, topology) carry no receive-side load and
/// are skipped; a block whose `RoundBegin` fell off a recorder's ring
/// is discarded rather than reported with partial loads.
#[derive(Debug, Clone, Default)]
pub(crate) struct RoundFold {
    open: Option<RoundStats>,
    /// Every completed round, in stream order.
    pub(crate) rounds: Vec<RoundStats>,
}

impl RoundFold {
    /// Fold one event.
    pub(crate) fn observe(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::RoundBegin { servers, .. } => self.open = Some(RoundStats::zero(servers)),
            TraceEvent::Recv {
                server,
                tuples,
                words,
                ..
            } => {
                if let Some(round) = &mut self.open {
                    if let (Some(t), Some(w)) =
                        (round.tuples.get_mut(server), round.words.get_mut(server))
                    {
                        (*t, *w) = (tuples, words);
                    }
                }
            }
            TraceEvent::RoundEnd { .. } => self.rounds.extend(self.open.take()),
            _ => {}
        }
    }
}

/// Fold every complete round block in the trace, in order. The
/// position in the returned `Vec` is the global round ordinal; a
/// round's width is its cluster's `p` (a capture spanning several
/// clusters holds rounds of several widths).
pub fn round_loads(rec: &Recorder) -> Vec<RoundStats> {
    let mut fold = RoundFold::default();
    for ev in rec.events() {
        fold.observe(ev);
    }
    fold.rounds
}

/// Whole-trace communication totals: the sums of [`round_loads`].
///
/// Exact only when [`Recorder::dropped`] is zero — a truncated ring
/// loses the oldest rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    /// Number of complete recorded rounds in the trace.
    pub rounds: usize,
    /// Total tuples communicated across all rounds.
    pub tuples: u64,
    /// Total words communicated across all rounds.
    pub words: u64,
}

/// Sum the folded rounds of the retained trace.
pub fn totals(rec: &Recorder) -> Totals {
    let rounds = round_loads(rec);
    Totals {
        rounds: rounds.len(),
        tuples: rounds.iter().map(RoundStats::total_tuples).sum(),
        words: rounds.iter().map(RoundStats::total_words).sum(),
    }
}

/// Skew summary of one round: the per-round statistics the tutorial's
/// load-balance arguments are about.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSummary {
    /// Global round ordinal (position in the trace).
    pub index: usize,
    /// Cluster size `p`.
    pub servers: usize,
    /// `L_max`: maximum tuples received by any server.
    pub max_tuples: u64,
    /// 99th-percentile (nearest-rank) per-server tuple load.
    pub p99_tuples: u64,
    /// `L_mean = C_round / p`.
    pub mean_tuples: f64,
    /// Skew ratio `L_max / L_mean` (0 when the round moved nothing).
    pub skew: f64,
    /// Total tuples this round.
    pub total_tuples: u64,
    /// Total words this round.
    pub total_words: u64,
}

/// Nearest-rank percentile of an unsorted load vector.
fn percentile(values: &[u64], pct: u64) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    nearest_rank(&sorted, pct)
}

/// Summarize each round's load distribution.
pub fn summarize(loads: &[RoundStats]) -> Vec<RoundSummary> {
    loads
        .iter()
        .enumerate()
        .map(|(index, rl)| {
            let servers = rl.tuples.len();
            let total_tuples = rl.total_tuples();
            let max_tuples = rl.max_tuples();
            let mean_tuples = if servers == 0 {
                0.0
            } else {
                total_tuples as f64 / servers as f64
            };
            let skew = if mean_tuples > 0.0 {
                max_tuples as f64 / mean_tuples
            } else {
                0.0
            };
            RoundSummary {
                index,
                servers,
                max_tuples,
                p99_tuples: percentile(&rl.tuples, 99),
                mean_tuples,
                skew,
                total_tuples,
                total_words: rl.total_words(),
            }
        })
        .collect()
}

/// Render [`summarize`] as an aligned text table (one row per round).
pub fn summary_table(loads: &[RoundStats]) -> String {
    let mut out = String::from(
        "round        p      L_max        p99       mean   skew     tuples      words\n",
    );
    for s in summarize(loads) {
        out.push_str(&format!(
            "{:>5} {:>8} {:>10} {:>10} {:>10.1} {:>6.2} {:>10} {:>10}\n",
            s.index,
            s.servers,
            s.max_tuples,
            s.p99_tuples,
            s.mean_tuples,
            s.skew,
            s.total_tuples,
            s.total_words
        ));
    }
    out
}

/// One bucket of a load histogram: servers whose tuple load fell in
/// `lo..=hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistBucket {
    /// Inclusive lower bound of the bucket.
    pub lo: u64,
    /// Inclusive upper bound of the bucket.
    pub hi: u64,
    /// Number of servers in the bucket.
    pub count: usize,
}

/// Power-of-two load histogram of one round: bucket 0 is exactly-zero
/// load, bucket `k ≥ 1` covers `[2^(k-1), 2^k - 1]`.
pub fn histogram(load: &RoundStats) -> Vec<HistBucket> {
    let nbuckets = 1 + bucket_of(load.max_tuples());
    let mut buckets: Vec<HistBucket> = (0..nbuckets)
        .map(|k| HistBucket {
            lo: (1 << k) >> 1,
            hi: (1 << k) - 1,
            count: 0,
        })
        .collect();
    for &t in &load.tuples {
        buckets[bucket_of(t)].count += 1;
    }
    buckets
}

/// Intensity ramp for the heatmap, blank → densest.
const RAMP: &str = " .:-=+*#%@";

/// Render a servers × rounds ASCII heatmap of per-server tuple load.
///
/// Rows are servers (bucketed by taking the *maximum* load within the
/// bucket when there are more than `max_rows` servers — max is the
/// quantity the theorems bound, so bucketing never hides a hot spot);
/// columns are rounds in trace order. Intensity is scaled to the
/// whole-trace maximum, printed in the legend.
pub fn heatmap(loads: &[RoundStats], max_rows: usize) -> String {
    let max_rows = max_rows.max(1);
    let servers = loads.iter().map(|rl| rl.tuples.len()).max().unwrap_or(0);
    if servers == 0 || loads.is_empty() {
        return String::from("(empty trace)\n");
    }
    let per_row = servers.div_ceil(max_rows);
    let nrows = servers.div_ceil(per_row);
    // cell[row][col] = max tuple load over the row's server bucket.
    let mut cells = vec![vec![0u64; loads.len()]; nrows];
    for (col, rl) in loads.iter().enumerate() {
        for (s, &t) in rl.tuples.iter().enumerate() {
            let row = s / per_row;
            if t > cells[row][col] {
                cells[row][col] = t;
            }
        }
    }
    let global_max = cells
        .iter()
        .flat_map(|r| r.iter().copied())
        .max()
        .unwrap_or(0);
    let label_of = |row: usize| {
        let lo = row * per_row;
        let hi = (lo + per_row - 1).min(servers - 1);
        if per_row == 1 {
            format!("s{lo}")
        } else {
            format!("s{lo}-{hi}")
        }
    };
    let label_width = (0..nrows).map(|r| label_of(r).len()).max().unwrap_or(2);
    let mut out = format!(
        "load heatmap: {servers} servers ({nrows} rows) x {} rounds, L_max={global_max} tuples\n",
        loads.len()
    );
    for (row, row_cells) in cells.iter().enumerate() {
        out.push_str(&format!("{:>label_width$} |", label_of(row)));
        for &v in row_cells {
            let idx = if v == 0 || global_max == 0 {
                0
            } else {
                (1 + v as usize * (RAMP.len() - 2) / global_max as usize).min(RAMP.len() - 1)
            };
            out.push(RAMP.as_bytes()[idx] as char);
        }
        out.push_str("|\n");
    }
    out.push_str(&format!(
        "{:>label_width$} |{}|\n",
        "round",
        (0..loads.len())
            .map(|c| char::from_digit((c % 10) as u32, 10).unwrap_or('?'))
            .collect::<String>()
    ));
    out.push_str(&format!("scale: \"{RAMP}\" = 0..L_max\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceSink;

    fn record_round(rec: &mut Recorder, round: usize, servers: usize, tuples: &[(usize, u64)]) {
        rec.record(TraceEvent::RoundBegin { round, servers });
        let mut total = 0;
        for &(s, t) in tuples {
            rec.record(TraceEvent::Recv {
                round,
                server: s,
                tuples: t,
                words: 2 * t,
            });
            total += t;
        }
        rec.record(TraceEvent::RoundEnd {
            round,
            tuples: total,
            words: 2 * total,
        });
    }

    #[test]
    fn round_loads_fill_elided_zeros() {
        let mut rec = Recorder::new();
        record_round(&mut rec, 0, 4, &[(1, 5), (3, 2)]);
        let loads = round_loads(&rec);
        assert_eq!(loads.len(), 1);
        assert_eq!(loads[0].tuples, vec![0, 5, 0, 2]);
        assert_eq!(loads[0].words, vec![0, 10, 0, 4]);
        assert_eq!(loads[0].max_tuples(), 5);
    }

    #[test]
    fn truncated_leading_block_discarded() {
        let mut rec = Recorder::new();
        // Recv/RoundEnd with no RoundBegin (as if it fell off the ring).
        rec.record(TraceEvent::Recv {
            round: 0,
            server: 0,
            tuples: 9,
            words: 9,
        });
        rec.record(TraceEvent::RoundEnd {
            round: 0,
            tuples: 9,
            words: 9,
        });
        record_round(&mut rec, 1, 2, &[(0, 1)]);
        let loads = round_loads(&rec);
        assert_eq!(loads.len(), 1);
        assert_eq!(loads[0].tuples, vec![1, 0]);
    }

    #[test]
    fn totals_sum_round_ends() {
        let mut rec = Recorder::new();
        record_round(&mut rec, 0, 2, &[(0, 3)]);
        record_round(&mut rec, 1, 2, &[(1, 4)]);
        let t = totals(&rec);
        assert_eq!(t.rounds, 2);
        assert_eq!(t.tuples, 7);
        assert_eq!(t.words, 14);
    }

    #[test]
    fn summarize_computes_skew() {
        let mut rec = Recorder::new();
        record_round(&mut rec, 0, 4, &[(0, 8), (1, 4), (2, 4), (3, 0)]);
        let s = summarize(&round_loads(&rec));
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].max_tuples, 8);
        assert_eq!(s[0].total_tuples, 16);
        assert!((s[0].mean_tuples - 4.0).abs() < 1e-9);
        assert!((s[0].skew - 2.0).abs() < 1e-9);
        assert_eq!(s[0].p99_tuples, 8);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&[7], 99), 7);
        assert_eq!(percentile(&[], 99), 0);
    }

    #[test]
    fn histogram_buckets_by_powers_of_two() {
        let rl = RoundStats {
            tuples: vec![0, 1, 2, 3, 8],
            words: vec![0; 5],
        };
        let h = histogram(&rl);
        // buckets: [0], [1], [2,3], [4,7], [8,15]
        assert_eq!(h.len(), 5);
        assert_eq!((h[0].lo, h[0].hi, h[0].count), (0, 0, 1));
        assert_eq!((h[1].lo, h[1].hi, h[1].count), (1, 1, 1));
        assert_eq!((h[2].lo, h[2].hi, h[2].count), (2, 3, 2));
        assert_eq!((h[3].lo, h[3].hi, h[3].count), (4, 7, 0));
        assert_eq!((h[4].lo, h[4].hi, h[4].count), (8, 15, 1));
    }

    #[test]
    fn heatmap_marks_hot_servers() {
        let mut rec = Recorder::new();
        record_round(&mut rec, 0, 3, &[(0, 10)]);
        record_round(&mut rec, 1, 3, &[(2, 1)]);
        let map = heatmap(&round_loads(&rec), 8);
        assert!(map.contains("L_max=10"));
        let rows: Vec<&str> = map.lines().collect();
        // Row s0: hot in round 0, idle in round 1.
        assert!(
            rows[1].starts_with("   s0 |@ |") || rows[1].contains("s0 |@ |"),
            "got {map}"
        );
        // Row s2: idle then minimal.
        assert!(rows[3].contains("s2 | .|"), "got {map}");
    }

    #[test]
    fn heatmap_buckets_servers() {
        let mut rec = Recorder::new();
        record_round(&mut rec, 0, 100, &[(0, 1), (99, 9)]);
        let map = heatmap(&round_loads(&rec), 4);
        assert!(map.contains("(4 rows)"), "got {map}");
        assert!(map.contains("s75-99"), "got {map}");
    }

    #[test]
    fn empty_heatmap() {
        assert_eq!(heatmap(&[], 8), "(empty trace)\n");
    }

    #[test]
    fn empty_trace_yields_no_loads_or_totals() {
        let rec = Recorder::new();
        assert!(round_loads(&rec).is_empty());
        let t = totals(&rec);
        assert_eq!((t.rounds, t.tuples, t.words), (0, 0, 0));
        assert!(summarize(&[]).is_empty());
        // The table degenerates to its header line.
        assert_eq!(summary_table(&[]).lines().count(), 1);
    }

    #[test]
    fn single_server_round_has_unit_skew() {
        let mut rec = Recorder::new();
        record_round(&mut rec, 0, 1, &[(0, 7)]);
        let loads = round_loads(&rec);
        assert_eq!(loads[0].tuples.len(), 1);
        let s = summarize(&loads);
        // With p = 1, max == mean == p99 and the skew ratio is exactly 1.
        assert_eq!(s[0].max_tuples, 7);
        assert_eq!(s[0].p99_tuples, 7);
        assert!((s[0].mean_tuples - 7.0).abs() < 1e-9);
        assert!((s[0].skew - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_load_round_has_zero_skew_and_single_bucket() {
        let mut rec = Recorder::new();
        record_round(&mut rec, 0, 3, &[]);
        let loads = round_loads(&rec);
        let s = summarize(&loads);
        assert_eq!(s[0].max_tuples, 0);
        assert!((s[0].skew - 0.0).abs() < 1e-9);
        // Histogram collapses to the exactly-zero bucket holding all p.
        let h = histogram(&loads[0]);
        assert_eq!(h.len(), 1);
        assert_eq!((h[0].lo, h[0].hi, h[0].count), (0, 0, 3));
    }

    #[test]
    fn histogram_boundary_values_split_buckets() {
        // 2^k - 1 closes bucket k; 2^k opens bucket k + 1.
        let rl = RoundStats {
            tuples: vec![3, 4, 7, 8],
            words: vec![0; 4],
        };
        let h = histogram(&rl);
        assert_eq!(h.len(), 5);
        assert_eq!((h[2].lo, h[2].hi, h[2].count), (2, 3, 1));
        assert_eq!((h[3].lo, h[3].hi, h[3].count), (4, 7, 2));
        assert_eq!((h[4].lo, h[4].hi, h[4].count), (8, 15, 1));
    }

    #[test]
    fn histogram_handles_large_loads_without_overflow() {
        let big = 1u64 << 62;
        let rl = RoundStats {
            tuples: vec![big - 1, big],
            words: vec![0; 2],
        };
        let h = histogram(&rl);
        assert_eq!(h.len(), 64);
        assert_eq!((h[62].lo, h[62].hi, h[62].count), (big / 2, big - 1, 1));
        assert_eq!((h[63].lo, h[63].hi, h[63].count), (big, 2 * big - 1, 1));
    }

    #[test]
    fn percentile_rank_boundaries() {
        let v: Vec<u64> = (1..=100).collect();
        // Nearest-rank: pct 100 is the max, pct 0 clamps to the min.
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&v, 0), 1);
        assert_eq!(percentile(&v, 1), 1);
        // Two values: rank ⌈2·50/100⌉ = 1 keeps the lower, 51 tips over.
        assert_eq!(percentile(&[10, 20], 50), 10);
        assert_eq!(percentile(&[10, 20], 51), 20);
        // Past 100 there is no further rank to take: still the max.
        assert_eq!(percentile(&v, 101), 100);
        assert_eq!(percentile(&v, u64::MAX), 100);
    }

    #[test]
    fn summary_table_has_one_row_per_round() {
        let mut rec = Recorder::new();
        record_round(&mut rec, 0, 2, &[(0, 3)]);
        record_round(&mut rec, 1, 2, &[(1, 4)]);
        let table = summary_table(&round_loads(&rec));
        assert_eq!(table.lines().count(), 3);
        assert!(table.lines().next().unwrap().contains("skew"));
    }
}
