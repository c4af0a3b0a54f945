//! Paged relation scans: the `parqp-data` face of `parqp-store`.
//!
//! A [`PagedRelation`] views a [`Relation`]'s rows as fixed-size pages
//! (rows never straddle a page boundary) and iterates them
//! **byte-identically, in the original order**, charging the owning
//! server's buffer pool one logical read per row as each page is
//! entered. It is a view: the rows it yields are windows of the
//! relation's own storage, and a page is an id and a row range, never a
//! copy. With no store runtime installed the whole layer is inert: page
//! IDs come from a local counter and pool touches are no-ops, so paged
//! and unpaged scans are observationally identical except for the IO
//! ledger — the property the `store_differential` suite pins.
//!
//! This module also re-exports the store runtime surface (install,
//! capture, cursors, regions) so the algorithm crates — join, sort,
//! matmul, core — reach paging exclusively through `parqp_data::paged`
//! and never grow a direct `parqp-store` dependency (the lint DAG keeps
//! `store` reachable only from `data` and `mpc`).

use crate::relation::{Relation, Value};
use parqp_store::{self as store, PageId};

pub use parqp_store::{
    capture, install, io_report, is_enabled, IoCursor, IoRegion, IoStats, StoreConfig, StoreGuard,
    DEFAULT_PAGE_SIZE, DEFAULT_POOL_PAGES,
};

/// A relation viewed as fixed-size pages owned by one server: page `i`
/// is id `base + i` and rows `i·rows_per_page ..` of the borrowed
/// relation.
#[derive(Debug, Clone)]
pub struct PagedRelation<'a> {
    server: usize,
    rel: &'a Relation,
    rows_per_page: usize,
    base: PageId,
}

impl<'a> PagedRelation<'a> {
    /// Page `rel`'s rows for `server`, honoring the installed page size
    /// (or [`DEFAULT_PAGE_SIZE`] when nothing is installed). Each page
    /// holds `max(1, page_size / arity)` whole rows; the page ids are
    /// allocated here, once, so every scan of the view touches the same
    /// pages.
    pub fn build(server: usize, rel: &'a Relation) -> Self {
        let page_size = store::config().map_or(DEFAULT_PAGE_SIZE, |c| c.page_size);
        let rows_per_page = (page_size / rel.arity()).max(1);
        let num_pages = rel.len().div_ceil(rows_per_page) as u64;
        let base = if num_pages > 0 {
            store::alloc_pages(num_pages).unwrap_or(0)
        } else {
            0
        };
        Self {
            server,
            rel,
            rows_per_page,
            base,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rel.len()
    }

    /// Whether the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rel.is_empty()
    }

    /// Row arity.
    pub fn arity(&self) -> usize {
        self.rel.arity()
    }

    /// Number of pages backing the relation.
    #[cfg(test)]
    fn num_pages(&self) -> usize {
        self.rel.len().div_ceil(self.rows_per_page)
    }

    /// Scan the rows in original order, charging `server`'s pool one
    /// logical read per row (billed page-at-a-time on page entry).
    pub fn iter(&self) -> PagedIter<'a> {
        let arity = self.rel.arity();
        PagedIter {
            server: self.server,
            arity,
            next_page: self.base,
            pages: self.rel.raw().chunks(self.rows_per_page * arity),
            rows: <&[Value]>::default().chunks_exact(arity),
        }
    }

    /// Rebuild the flat relation (test helper for round-trip checks).
    #[cfg(test)]
    fn to_relation(&self) -> Relation {
        let mut rel = Relation::with_capacity(self.arity(), self.len());
        for row in self.iter() {
            rel.push(row);
        }
        rel
    }
}

/// Iterator over a [`PagedRelation`]'s rows: touches each page as its
/// first row is asked for.
#[derive(Debug)]
pub struct PagedIter<'a> {
    server: usize,
    arity: usize,
    next_page: PageId,
    pages: std::slice::Chunks<'a, Value>,
    rows: std::slice::ChunksExact<'a, Value>,
}

impl<'a> Iterator for PagedIter<'a> {
    type Item = &'a [Value];

    #[inline]
    fn next(&mut self) -> Option<&'a [Value]> {
        if let Some(row) = self.rows.next() {
            return Some(row);
        }
        let page = self.pages.next()?;
        store::touch_page(
            self.server,
            self.next_page,
            (page.len() / self.arity) as u64,
        );
        self.next_page += 1;
        self.rows = page.chunks_exact(self.arity);
        self.rows.next()
    }
}

/// The scan every routing loop runs on: paged (through `server`'s
/// buffer pool, charging the IO ledger) when a store runtime is
/// installed, a plain flat scan otherwise. Rows come back
/// byte-identical in either mode, so algorithms can adopt paging
/// without perturbing outputs, ledgers or traces.
#[derive(Debug)]
pub enum RouteScan<'a> {
    /// No store installed: scan the relation's flat row vector.
    Flat(&'a Relation),
    /// Store installed: scan it as pages owned by `server`.
    Paged(PagedRelation<'a>),
}

impl<'a> RouteScan<'a> {
    /// A scan of `part` on `server`'s behalf, paged iff a store
    /// runtime is installed.
    pub fn new(server: usize, part: &'a Relation) -> Self {
        if is_enabled() {
            RouteScan::Paged(PagedRelation::build(server, part))
        } else {
            RouteScan::Flat(part)
        }
    }

    /// The rows, in the relation's original order.
    pub fn iter(&self) -> ScanIter<'a> {
        ScanIter {
            inner: match self {
                RouteScan::Flat(rel) => ScanInner::Flat(rel.raw().chunks_exact(rel.arity())),
                RouteScan::Paged(paged) => ScanInner::Paged(paged.iter()),
            },
        }
    }
}

/// Iterator over a [`RouteScan`]'s rows.
#[derive(Debug)]
pub struct ScanIter<'a> {
    inner: ScanInner<'a>,
}

#[derive(Debug)]
enum ScanInner<'a> {
    Flat(std::slice::ChunksExact<'a, Value>),
    Paged(PagedIter<'a>),
}

impl<'a> Iterator for ScanIter<'a> {
    type Item = &'a [Value];

    #[inline]
    fn next(&mut self) -> Option<&'a [Value]> {
        match &mut self.inner {
            ScanInner::Flat(it) => it.next(),
            ScanInner::Paged(it) => it.next(),
        }
    }
}

/// A relation read front to back as the `p` round-robin fragments of
/// its free initial placement — server `s` holds rows `s, s + p, …` —
/// without cutting them out. Each server is charged exactly what a
/// [`RouteScan`] of its cut fragment would charge: the same page ids,
/// allocated server by server as the fragments' scans would allocate
/// them, and the same reads per page in the same order. Only the
/// interleaving of different servers' touches differs, and pools are
/// per server.
#[derive(Debug)]
pub struct PlacementScan<'a> {
    rel: &'a Relation,
    p: usize,
    /// With a store installed: rows per page and each server's first
    /// page id.
    pages: Option<(usize, Vec<PageId>)>,
}

impl<'a> PlacementScan<'a> {
    /// A scan of `rel` as placed on `p` servers, paged iff a store
    /// runtime is installed.
    pub fn new(p: usize, rel: &'a Relation) -> Self {
        let p = p.max(1);
        let pages = store::config().map(|config| {
            let rows_per_page = (config.page_size / rel.arity()).max(1);
            let bases = (0..p)
                .map(|s| {
                    let pages = fragment_len(rel.len(), p, s).div_ceil(rows_per_page) as u64;
                    (pages > 0)
                        .then(|| store::alloc_pages(pages))
                        .flatten()
                        .unwrap_or(0)
                })
                .collect();
            (rows_per_page, bases)
        });
        Self { rel, p, pages }
    }

    /// The rows in order as blocks of raw words, each starting at a row
    /// whose index is a multiple of `p` (so a block's `k`-th row is
    /// server `k mod p`'s). Unpaged, the whole relation is one block;
    /// paged, a block is one page of every fragment, charged before it
    /// is handed out.
    pub fn blocks(&self) -> impl Iterator<Item = &'a [Value]> + '_ {
        let raw = self.rel.raw();
        let (n, p) = (self.rel.len(), self.p);
        let block_words = match &self.pages {
            Some((rows_per_page, _)) => rows_per_page
                .saturating_mul(p)
                .saturating_mul(self.rel.arity()),
            None => raw.len().max(1),
        };
        raw.chunks(block_words).zip(0..).map(move |(block, page)| {
            if let Some((rows_per_page, bases)) = &self.pages {
                for (s, &base) in bases.iter().enumerate() {
                    let left = fragment_len(n, p, s).saturating_sub(page * rows_per_page);
                    if left > 0 {
                        let reads = left.min(*rows_per_page) as u64;
                        store::touch_page(s, base + page as u64, reads);
                    }
                }
            }
            block
        })
    }
}

/// Rows of a relation of `n` rows that server `s` holds when it is
/// placed round-robin on `p`.
fn fragment_len(n: usize, p: usize, s: usize) -> usize {
    n.saturating_sub(s).div_ceil(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn paged_scan_is_byte_identical_to_flat_scan() {
        let rel = generate::uniform(3, 500, 64, 7);
        let paged = PagedRelation::build(0, &rel);
        assert_eq!(paged.len(), rel.len());
        let flat: Vec<&[Value]> = rel.iter().collect();
        let via_pages: Vec<&[Value]> = paged.iter().collect();
        assert_eq!(flat, via_pages, "same rows, same order");
        assert_eq!(paged.to_relation().raw(), rel.raw());
    }

    #[test]
    fn scan_charges_one_read_per_row() {
        let rel = generate::uniform(2, 100, 32, 9);
        let (totals, pages) = capture(
            StoreConfig {
                page_size: 16, // 8 two-column rows per page
                pool_pages: 4,
            },
            || {
                let paged = PagedRelation::build(3, &rel);
                let rows = paged.iter().count();
                assert_eq!(rows, 100);
                paged.num_pages()
            },
        );
        assert_eq!(pages, 13, "100 rows at 8 rows/page");
        assert_eq!(totals[3].reads, 100, "one logical read per row");
        assert_eq!(totals[3].misses, 13, "one miss per cold page");
    }

    #[test]
    fn small_pool_forces_evictions_on_rescan() {
        let rel = generate::uniform(2, 64, 16, 5);
        let (totals, ()) = capture(
            StoreConfig {
                page_size: 8,
                pool_pages: 2,
            },
            || {
                let paged = PagedRelation::build(0, &rel);
                for _ in 0..2 {
                    assert_eq!(paged.iter().count(), 64);
                }
            },
        );
        assert_eq!(totals[0].reads, 128);
        assert!(
            totals[0].evictions > 0,
            "16 pages cycling through a 2-page pool must evict"
        );
        assert_eq!(
            totals[0].misses, 32,
            "every page entry misses when thrashing"
        );
    }

    #[test]
    fn route_scan_switches_on_the_installed_runtime() {
        let rel = generate::uniform(2, 40, 16, 11);
        let flat: Vec<Vec<Value>> = rel.iter().map(<[Value]>::to_vec).collect();

        let unpaged = RouteScan::new(0, &rel);
        assert!(matches!(unpaged, RouteScan::Flat(_)));
        let rows: Vec<Vec<Value>> = unpaged.iter().map(<[Value]>::to_vec).collect();
        assert_eq!(rows, flat);

        let (totals, rows) = capture(StoreConfig::default(), || {
            let scan = RouteScan::new(2, &rel);
            assert!(matches!(scan, RouteScan::Paged(_)));
            scan.iter().map(<[Value]>::to_vec).collect::<Vec<_>>()
        });
        assert_eq!(rows, flat, "paged and flat scans agree byte-for-byte");
        assert_eq!(totals[2].reads, 40);
    }

    #[test]
    fn disabled_runtime_scans_without_accounting() {
        assert!(!is_enabled());
        let rel = generate::uniform(2, 50, 16, 3);
        let paged = PagedRelation::build(1, &rel);
        assert_eq!(paged.to_relation().raw(), rel.raw());
        assert!(io_report().is_empty());
    }

    #[test]
    fn empty_and_unit_relations_page_cleanly() {
        let empty = Relation::new(2);
        let paged = PagedRelation::build(0, &empty);
        assert!(paged.is_empty());
        assert_eq!(paged.num_pages(), 0);
        assert_eq!(paged.iter().count(), 0);

        let mut one = Relation::new(4);
        one.push(&[9, 8, 7, 6]);
        let (totals, ()) = capture(
            StoreConfig {
                page_size: 1, // narrower than a row: one row per page, whole
                pool_pages: 1,
            },
            || {
                let paged = PagedRelation::build(0, &one);
                assert_eq!(paged.num_pages(), 1);
                assert_eq!(paged.iter().next(), Some(&[9, 8, 7, 6][..]));
            },
        );
        assert_eq!((totals[0].reads, totals[0].misses), (1, 1));
    }

    #[test]
    fn placement_scan_charges_what_scans_of_the_cut_fragments_would() {
        // Fewer rows than servers, a multiple of p and not; page sizes
        // of one row, a few rows and more than any fragment holds.
        for (p, rows) in [(4, 3), (4, 40), (3, 41), (1, 9)] {
            let rel = generate::uniform(2, rows, 64, 17);
            let fragments: Vec<Relation> = (0..p)
                .map(|s| Relation::from_rows(2, rel.iter().skip(s).step_by(p)))
                .collect();
            for page_size in [2, 6, 1024] {
                let config = StoreConfig {
                    page_size,
                    pool_pages: 2,
                };
                let (placed, words) = capture(config, || {
                    let scan = PlacementScan::new(p, &rel);
                    scan.blocks().flatten().copied().collect::<Vec<_>>()
                });
                assert_eq!(words, rel.raw(), "blocks are the rows in order");
                let (cut, ()) = capture(config, || {
                    for (s, fragment) in fragments.iter().enumerate() {
                        RouteScan::new(s, fragment).iter().for_each(drop);
                    }
                });
                assert_eq!(placed, cut, "p = {p}, {rows} rows, page {page_size}");
            }
            let unpaged = PlacementScan::new(p, &rel);
            assert_eq!(unpaged.blocks().count(), usize::from(rows > 0));
        }
    }

    #[test]
    fn paged_rows_are_windows_of_the_relation() {
        // Page sizes that do and do not divide the row count, one
        // narrower than a row; an empty and a one-row relation.
        for arity in 1..=3 {
            for rows in [0, 1, 24, 25] {
                let rel = generate::uniform(arity, rows, 64, 13);
                let storage = rel.raw().as_ptr_range();
                for page_size in [1, 6, 8, 1024] {
                    let config = StoreConfig {
                        page_size,
                        pool_pages: 2,
                    };
                    let (totals, seen) = capture(config, || {
                        let scan = RouteScan::new(1, &rel);
                        assert!(matches!(scan, RouteScan::Paged(_)));
                        let mut seen = 0;
                        for (i, row) in scan.iter().enumerate() {
                            let window = row.as_ptr_range();
                            assert!(
                                storage.start <= window.start && window.end <= storage.end,
                                "arity {arity}, {rows} rows, page {page_size}: row {i} was copied"
                            );
                            assert_eq!(row, rel.row(i));
                            seen += 1;
                        }
                        seen
                    });
                    assert_eq!(seen, rows);
                    let reads = totals.get(1).map_or(0, |t| t.reads);
                    assert_eq!(reads, rows as u64, "one logical read per row");
                }
            }
        }
    }
}
