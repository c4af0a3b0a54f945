//! `hash_partition` against the round it stands for: the input cut into
//! `p` round-robin fragments by `scatter`, each fragment scanned with a
//! `RouteScan` and every row sent with `send_row`, sender by sender.
//! Both must deliver the same buffers and charge the same ledger, the
//! same `Send`/`Recv` events and the same page reads on every server,
//! and every delivered buffer must hold no slack.

mod support;

use parqp_data::generate;
use parqp_data::paged::StoreConfig;
use parqp_join::common::hash_partition;
use parqp_mpc::HashFamily;
use support::{assert_same, run, scatter_and_send};

/// Route `rel` on its key column and then its one-column projection of
/// that key, as two streams of one round, so the second stream's pages
/// follow the first's.
fn check_hash(p: usize, n: usize, arity: usize, stores: &[Option<StoreConfig>]) {
    // A domain of about n/2 keys: most keys repeat, some servers get none.
    let rel = generate::uniform(arity, n, (n as u64 / 2).max(1), (n * 31 + p) as u64);
    let h = HashFamily::new(23, 1);
    for col in 0..arity {
        let narrow = rel.project(&[col]);
        for &store in stores {
            let what = format!("hash: p = {p}, n = {n}, arity {arity}, col {col}, {store:?}");
            let got = run(p, &[arity, 1], store, |ex| {
                hash_partition(ex, 0, &rel, col, &h);
                hash_partition(ex, 1, &narrow, 0, &h);
            });
            let want = run(p, &[arity, 1], store, |ex| {
                scatter_and_send(ex, 0, &rel, p, |_, row| vec![h.hash(0, row[col], p)]);
                scatter_and_send(ex, 1, &narrow, p, |_, row| vec![h.hash(0, row[0], p)]);
            });
            assert_same(&what, &got, &want);
        }
    }
}

/// No store, then page sizes of one word, one word short of a row, 16
/// words and 1024 words, each over pools of 1, 2 and 256 pages.
fn stores(arity: usize) -> Vec<Option<StoreConfig>> {
    let mut page_sizes = vec![1, (arity - 1).max(1), 16, 1024];
    page_sizes.dedup();
    let mut stores = vec![None];
    for page_size in page_sizes {
        for pool_pages in [1, 2, 256] {
            stores.push(Some(StoreConfig {
                page_size,
                pool_pages,
            }));
        }
    }
    stores
}

#[test]
fn placed_round_is_scatter_and_send_on_small_inputs() {
    for p in [1usize, 2, 5, 8, 64] {
        // Empty, one row, fewer rows than servers, one per server, and
        // a count that is not a multiple of p.
        let mut sizes = vec![0, 1, p.saturating_sub(1).max(1), p, 3 * p + 2];
        sizes.dedup();
        for n in sizes {
            for arity in 1..=4 {
                check_hash(p, n, arity, &stores(arity));
            }
        }
    }
}

#[test]
fn placed_round_is_scatter_and_send_on_40k_rows() {
    for p in [1, 2, 5, 8, 64] {
        for arity in 1..=4 {
            check_hash(p, 40_000, arity, &stores(arity));
        }
    }
}
