//! The bounded buffer pool with deterministic clock replacement.
//!
//! Frames are a dense vector swept by a clock hand; the resident index
//! is a `BTreeMap`. Replacement is the textbook clock (second-chance)
//! policy: a hit sets the frame's reference bit, a miss sweeps the hand
//! forward clearing reference bits until it finds an unreferenced frame
//! to evict. Ties never arise — the hand visits frames in index order —
//! so the eviction sequence is a pure function of the touch sequence,
//! which is itself deterministic (no hashing, no clock: the
//! `clippy.toml` bans).
//!
//! "IO" here is logical: an evicted page loses only *residency*. The
//! next touch of it is a counted miss, exactly the signal a real
//! out-of-core engine would pay a disk read for.

use std::collections::BTreeMap;

use crate::page::PageId;

/// The page-IO ledger of one pool (or one drained delta of it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Logical reads: one per row for paged relation scans, one per
    /// record/block access for cursor and region reads.
    pub reads: u64,
    /// Pool misses: touches of a page that was not resident.
    pub misses: u64,
    /// Evictions performed to admit missed pages into a full pool.
    pub evictions: u64,
}

impl IoStats {
    /// `1 − misses/reads` clamped into `[0, 1]`; 0 when nothing was
    /// read. A record wider than a page is one logical read and one
    /// miss per page it spans (`region.rs`), so misses can outnumber
    /// reads — that is a rate of 0, not a negative one. The only
    /// definition: the metrics registry and serve's windows call it.
    #[inline]
    pub fn hit_rate(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            (1.0 - self.misses as f64 / self.reads as f64).clamp(0.0, 1.0)
        }
    }

    /// Component-wise difference (`self − earlier`), used by the
    /// runtime to turn cumulative totals into drained deltas.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            reads: self.reads - earlier.reads,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
        }
    }

    /// Component-wise sum.
    pub fn merge(&mut self, other: &IoStats) {
        self.reads += other.reads;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == IoStats::default()
    }
}

#[derive(Debug, Clone)]
struct Frame {
    page: PageId,
    referenced: bool,
}

/// A bounded buffer pool over page IDs with clock replacement.
#[derive(Debug, Clone)]
pub struct BufferPool {
    capacity: usize,
    frames: Vec<Frame>,
    resident: BTreeMap<PageId, usize>,
    hand: usize,
    stats: IoStats,
}

impl BufferPool {
    /// A pool holding at most `capacity` pages (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            frames: Vec::new(),
            resident: BTreeMap::new(),
            hand: 0,
            stats: IoStats::default(),
        }
    }

    /// Touch `page`, charging `reads` logical reads. Returns `true` on
    /// a hit. A miss admits the page, evicting the clock victim when
    /// the pool is full.
    pub fn touch(&mut self, page: PageId, reads: u64) -> bool {
        self.stats.reads += reads;
        if let Some(&idx) = self.resident.get(&page) {
            self.frames[idx].referenced = true;
            return true;
        }
        self.stats.misses += 1;
        if self.frames.len() < self.capacity {
            self.resident.insert(page, self.frames.len());
            self.frames.push(Frame {
                page,
                referenced: true,
            });
            return false;
        }
        // Clock sweep: clear reference bits until an unreferenced frame
        // comes under the hand; that frame is the victim. Terminates
        // within two sweeps because every cleared bit stays cleared.
        loop {
            let frame = &mut self.frames[self.hand];
            if frame.referenced {
                frame.referenced = false;
                self.hand = (self.hand + 1) % self.capacity;
            } else {
                break;
            }
        }
        let victim = self.hand;
        let evicted = self.frames[victim].page;
        self.resident.remove(&evicted);
        self.stats.evictions += 1;
        self.resident.insert(page, victim);
        self.frames[victim] = Frame {
            page,
            referenced: true,
        };
        self.hand = (self.hand + 1) % self.capacity;
        false
    }

    /// Cumulative ledger since construction (or the last [`reset`]).
    ///
    /// [`reset`]: BufferPool::reset
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Pages currently resident.
    #[cfg(test)]
    fn resident_pages(&self) -> usize {
        self.resident.len()
    }

    /// Pool capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether `page` is resident right now.
    #[cfg(test)]
    fn is_resident(&self, page: PageId) -> bool {
        self.resident.contains_key(&page)
    }

    /// Zero the ledger and drop all residency, as if freshly built —
    /// the rewind `Cluster::reset` performs for recovery replays.
    pub fn reset(&mut self) {
        self.frames.clear();
        self.resident.clear();
        self.hand = 0;
        self.stats = IoStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_misses_are_counted() {
        let mut pool = BufferPool::new(4);
        assert!(!pool.touch(1, 1), "cold touch misses");
        assert!(pool.touch(1, 1), "warm touch hits");
        assert!(!pool.touch(2, 3));
        let s = pool.stats();
        assert_eq!((s.reads, s.misses, s.evictions), (5, 2, 0));
        assert!((s.hit_rate() - 0.6).abs() < 1e-12);
        assert_eq!(pool.resident_pages(), 2);
    }

    #[test]
    fn full_pool_evicts_deterministically() {
        let mut pool = BufferPool::new(2);
        pool.touch(10, 1);
        pool.touch(11, 1);
        // Both referenced: the sweep clears 10 then 11, wraps, and
        // evicts frame 0 (page 10).
        pool.touch(12, 1);
        assert_eq!(pool.stats().evictions, 1);
        assert!(!pool.is_resident(10));
        assert!(pool.is_resident(11) && pool.is_resident(12));
        // Re-touching the evicted page is a miss that now evicts 11
        // (frame 1, its bit was cleared by the previous sweep).
        assert!(!pool.touch(10, 1));
        assert!(!pool.is_resident(11));
    }

    #[test]
    fn second_chance_spares_rereferenced_pages() {
        let mut pool = BufferPool::new(3);
        pool.touch(1, 1);
        pool.touch(2, 1);
        pool.touch(3, 1);
        pool.touch(4, 1); // full sweep clears all bits, evicts 1; hand at frame 1
        assert!(pool.touch(2, 1), "page 2 survived and is re-referenced");
        // The hand reaches page 2 first, but its reference bit buys the
        // second chance: the sweep clears it and evicts page 3 instead.
        pool.touch(5, 1);
        assert!(!pool.is_resident(3));
        assert!(pool.is_resident(2) && pool.is_resident(4) && pool.is_resident(5));
        assert_eq!(pool.stats().evictions, 2);
    }

    #[test]
    fn identical_touch_sequences_yield_identical_ledgers() {
        let run = || {
            let mut pool = BufferPool::new(3);
            for page in [5u64, 9, 5, 7, 1, 9, 5, 2, 7, 7, 1] {
                pool.touch(page, 2);
            }
            pool.stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reset_rewinds_ledger_and_residency() {
        let mut pool = BufferPool::new(2);
        pool.touch(1, 1);
        pool.touch(2, 1);
        pool.touch(3, 1);
        pool.reset();
        assert!(pool.stats().is_zero());
        assert_eq!(pool.resident_pages(), 0);
        assert!(!pool.touch(3, 1), "post-reset touches start cold");
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut pool = BufferPool::new(0);
        assert_eq!(pool.capacity(), 1);
        pool.touch(1, 1);
        pool.touch(2, 1);
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn stats_algebra() {
        let a = IoStats {
            reads: 10,
            misses: 4,
            evictions: 1,
        };
        let b = IoStats {
            reads: 6,
            misses: 1,
            evictions: 0,
        };
        assert_eq!(
            a.since(&b),
            IoStats {
                reads: 4,
                misses: 3,
                evictions: 1
            }
        );
        let mut c = b;
        c.merge(&a);
        assert_eq!(c.reads, 16);
        assert!(IoStats::default().is_zero());
        assert_eq!(IoStats::default().hit_rate(), 0.0);
    }
}
