//! The local-join kernel on its own: what every server does after the
//! shuffle, minus the query — index `n` rows, then probe with `n` rows
//! at about one match each. A slower join row in `perf` can be told
//! apart from a slower `KeyIndex` here without the full run. The last
//! row is the serve shape — a small resident build side probed by many
//! tiny batches — indexed per batch and indexed once. Nothing gates
//! these numbers; each is the fastest of [`RUNS`] calls.
//!
//! ```text
//! cargo bench -p parqp-bench --bench join_kernel
//! ```

use parqp::data::{generate, KeyIndex, KeyTable, Relation};
use parqp_testkit::bench::time_ns;
use std::borrow::Borrow;
use std::hint::black_box;

const RUNS: usize = 30;

/// Fastest of [`RUNS`] calls of `f` after one untimed warm-up, in µs.
fn best_us<O>(mut f: impl FnMut() -> O) -> f64 {
    black_box(f());
    let best = (0..RUNS)
        .map(|_| {
            let start = time_ns();
            black_box(f());
            time_ns().saturating_sub(start)
        })
        .min()
        .unwrap_or(0);
    best as f64 / 1e3
}

/// The serve shape's join column, on both sides.
const KEY: &[usize] = &[0];

/// Matches of `batch`'s rows in `index`, both keyed on [`KEY`].
fn matches<T: Borrow<KeyTable>>(index: &KeyIndex<'_, Relation, T>, batch: &Relation) -> usize {
    batch.iter().map(|row| index.probe(row, KEY).count()).sum()
}

fn main() {
    for n in [1_000usize, 100_000] {
        for cols in [&[0usize][..], &[0, 1]] {
            // As many distinct keys as rows, whatever the key width.
            let domain = (n as f64).powf(1.0 / cols.len() as f64).ceil() as u64;
            let build = generate::uniform(2, n, domain, 51);
            let probe = generate::uniform(2, n, domain, 52);
            let shape = format!("{n}rows_{}col", cols.len());
            let build_us = best_us(|| KeyIndex::build(&build, cols));
            println!("join_kernel/build/{shape:<16} {build_us:>10.1} µs");
            let index = KeyIndex::build(&build, cols);
            let probe_us = best_us(|| {
                probe
                    .iter()
                    .map(|row| index.probe(row, cols).count())
                    .sum::<usize>()
            });
            println!("join_kernel/probe/{shape:<16} {probe_us:>10.1} µs");
        }
    }

    // One server's share of a served base (500 rows), probed by the
    // 8-row batches a served query routes to it.
    let build = generate::uniform(2, 500, 250, 53);
    let batches: Vec<Relation> = (0..64)
        .map(|i| generate::uniform(2, 8, 250, 54 + i))
        .collect();
    let rebuilt_us = best_us(|| {
        batches
            .iter()
            .map(|batch| matches(&KeyIndex::build(&build, KEY), batch))
            .sum::<usize>()
    });
    println!("join_kernel/reuse/build_per_batch   {rebuilt_us:>10.1} µs");
    let table = KeyTable::build(&build, KEY);
    let reused_us = best_us(|| {
        batches
            .iter()
            .map(|batch| matches(&table.over(&build, KEY).expect("same rows"), batch))
            .sum::<usize>()
    });
    println!("join_kernel/reuse/one_key_table     {reused_us:>10.1} µs");
}
