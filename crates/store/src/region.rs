//! Paged views over flat word buffers: [`IoRegion`] for random access
//! (matrix blocks) and [`IoCursor`] for append-order streams (sort
//! routing).
//!
//! Both are *accounting overlays*: the actual words stay wherever the
//! caller keeps them (a `Matrix`, a routed `Vec<T>`); the region or
//! cursor maps word offsets onto allocated page IDs and charges the
//! owning server's buffer pool for every access. When no store runtime
//! is installed neither allocates nor touches anything, so the unpaged
//! path is untouched.
//!
//! Read semantics: one call to [`IoRegion::read_at`] or
//! [`IoCursor::read`] is **one logical read**, however many pages it
//! spans — the first page touched is charged `reads = 1` and any
//! further pages of the same access `reads = 0` (still counting their
//! misses). This matches the paged-relation convention where a row is
//! one logical read, so `io_reads` stays comparable across scan kinds.

use crate::page::PageId;
use crate::runtime;

/// A paged view over a flat buffer of `total_words` words, for random
/// (offset-addressed) access patterns such as matrix blocks.
#[derive(Debug, Clone)]
pub struct IoRegion {
    base: Option<PageId>,
    page_size: usize,
}

impl IoRegion {
    /// Map `total_words` words onto freshly allocated pages. Inert when
    /// no store runtime is installed.
    pub fn new(total_words: u64) -> Self {
        match runtime::config() {
            Some(cfg) => {
                let ps = cfg.page_size as u64;
                let pages = total_words.div_ceil(ps).max(1);
                Self {
                    base: runtime::alloc_pages(pages),
                    page_size: cfg.page_size,
                }
            }
            None => Self {
                base: None,
                page_size: 1,
            },
        }
    }

    /// Charge `server` one logical read covering the word span
    /// `[offset, offset + len)`. `len == 0` accesses are free.
    pub fn read_at(&self, server: usize, offset: u64, len: u64) {
        let Some(base) = self.base else { return };
        if len == 0 {
            return;
        }
        let ps = self.page_size as u64;
        let first = offset / ps;
        let last = (offset + len - 1) / ps;
        for (i, page) in (first..=last).enumerate() {
            runtime::touch_page(server, base + page, u64::from(i == 0));
        }
    }
}

/// A paged append cursor for one server's stream of variable-width
/// records: each [`read`](IoCursor::read) charges one logical read and
/// lazily allocates pages as the stream crosses page boundaries.
/// Records may straddle pages (streams carry arbitrary `Weight` items,
/// unlike fixed-arity relation rows).
#[derive(Debug)]
pub struct IoCursor {
    server: usize,
    page_size: usize,
    current: Option<PageId>,
    used: usize,
    enabled: bool,
}

impl IoCursor {
    /// A cursor charging `server`'s pool. Inert when no store runtime
    /// is installed.
    pub fn new(server: usize) -> Self {
        match runtime::config() {
            Some(cfg) => Self {
                server,
                page_size: cfg.page_size,
                current: None,
                used: 0,
                enabled: true,
            },
            None => Self {
                server,
                page_size: 1,
                current: None,
                used: 0,
                enabled: false,
            },
        }
    }

    /// Charge one logical read for the next record of `words` words,
    /// touching (and allocating, at boundaries) every page it covers.
    pub fn read(&mut self, words: usize) {
        if !self.enabled {
            return;
        }
        let mut remaining = words.max(1);
        let mut charge = 1u64;
        while remaining > 0 {
            let page = match self.current {
                Some(p) if self.used < self.page_size => p,
                _ => {
                    let p = runtime::alloc_pages(1).expect("cursor built while store was enabled");
                    self.current = Some(p);
                    self.used = 0;
                    p
                }
            };
            let take = remaining.min(self.page_size - self.used);
            self.used += take;
            remaining -= take;
            runtime::touch_page(self.server, page, charge);
            charge = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{capture, StoreConfig};

    fn cfg(page_size: usize, pool_pages: usize) -> StoreConfig {
        StoreConfig {
            page_size,
            pool_pages,
        }
    }

    #[test]
    fn region_charges_one_read_per_access() {
        let (totals, ()) = capture(cfg(4, 16), || {
            let r = IoRegion::new(10); // 3 pages
            r.read_at(0, 0, 4); // page 0
            r.read_at(0, 2, 4); // pages 0–1: one read, one extra miss
            r.read_at(0, 9, 1); // page 2
            r.read_at(0, 0, 0); // free
        });
        assert_eq!((totals[0].reads, totals[0].misses), (3, 3));
    }

    #[test]
    fn hit_rate_at_page_size_one_is_zero_not_negative() {
        // Eight words over one-word pages: one read, eight misses.
        let (totals, ()) = capture(cfg(1, 1), || IoRegion::new(8).read_at(0, 0, 8));
        assert_eq!((totals[0].reads, totals[0].misses), (1, 8));
        assert_eq!(totals[0].hit_rate(), 0.0);
    }

    #[test]
    fn region_is_inert_when_disabled() {
        let r = IoRegion::new(1000);
        r.read_at(0, 500, 10); // must not panic, charges nothing
        let (totals, ()) = capture(StoreConfig::default(), || {
            r.read_at(0, 0, 10); // region predates the install: still inert
        });
        assert!(totals.is_empty());
    }

    #[test]
    fn cursor_allocates_lazily_and_straddles_pages() {
        let (totals, ()) = capture(cfg(4, 16), || {
            let mut c = IoCursor::new(1);
            c.read(3); // page A, 3/4 used
            c.read(3); // straddles A → B: 1 read, 1 new miss
            c.read(0); // zero-width records still cost one read
        });
        assert_eq!((totals[1].reads, totals[1].misses), (3, 2));
    }

    #[test]
    fn cursor_eviction_pressure_shows_up_in_the_ledger() {
        let (totals, ()) = capture(cfg(2, 1), || {
            let mut c = IoCursor::new(0);
            for _ in 0..4 {
                c.read(2); // each record fills a fresh page in a 1-page pool
            }
        });
        assert_eq!(totals[0].misses, 4);
        assert_eq!(totals[0].evictions, 3);
    }

    #[test]
    fn cursor_is_inert_when_disabled() {
        let mut c = IoCursor::new(0);
        c.read(100);
        assert!(!runtime::is_enabled());
    }
}
