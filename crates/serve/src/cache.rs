//! The shared-plan cache: hash-partitioned base relations keyed by
//! canonical `(template, group, shares)`, with deterministic LRU-by-tick
//! eviction and an exact hit/miss/insert/evict ledger.
//!
//! An entry keeps the build side *built*: each server's partition is
//! stored with the [`KeyTable`] that indexes its join column
//! ([`Partition`]), so a hit probes the resident table and costs
//! O(probe), not an O(base) re-index.
//!
//! The budget is in **resident tuples**. A resident tuple of arity `a`
//! costs `8·a` bytes of row — delivered buffers are reserved at their
//! exact size, so there is no growth slack to keep — plus 8–12 bytes of
//! table (a `u32` chain link per row and a `u32` head per bucket, one
//! to two buckets per row).
//!
//! The cache is purely observational with respect to query *results*:
//! a hit hands back exactly the partitions a rebuild would produce
//! (bases are pure functions of their key and the replay seed), so
//! output digests are byte-identical cache-on vs cache-off — only the
//! `(L, r, C)` and page-IO ledgers shrink. Eviction order is a pure
//! function of the admission/touch sequence: least-recently-used tick
//! first, ties broken by smallest key, so replays never diverge.
//!
//! Everything here but the [`CacheStats`] a report carries is
//! `pub(crate)`: cache hits excuse queries from communication charges,
//! so only the serving layer — whose differential tests prove the
//! excusal sound — can grant them.

use std::collections::BTreeMap;

use parqp_data::{KeyIndex, KeyTable, Relation};

/// Canonical identity of a cacheable partitioned base: the template,
/// the data-key group, and the share count `p` it was partitioned for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct CacheKey {
    /// Index into [`crate::templates::TEMPLATES`].
    pub template: usize,
    /// Data-key group.
    pub group: u64,
    /// Number of hash shares (the cluster's `p`): the same base
    /// partitioned for a different cluster width is a different plan.
    pub shares: usize,
}

/// What building one entry cost — the charges a future hit skips.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct BuildCost {
    /// Logical page reads charged by the base scan.
    pub reads: u64,
    /// Words the partition exchange moved.
    pub words: u64,
    /// Tuples the partition exchange moved (also the resident size).
    pub tuples: u64,
}

/// The column every template's base is partitioned and joined on.
const KEY: [usize; 1] = [0];

#[cfg(test)]
thread_local! {
    /// Partitions indexed on this thread ([`Partition::new`] bumps it).
    pub(crate) static PARTITIONS_BUILT: std::cell::Cell<usize> =
        const { std::cell::Cell::new(0) };
}

/// One server's share of a hash-partitioned base, with the table that
/// indexes its join column. The fields are private and [`Partition::new`]
/// is the only constructor, so the table is always the table of these
/// rows.
#[derive(Debug, Clone)]
pub(crate) struct Partition {
    rows: Relation,
    table: KeyTable,
}

impl Partition {
    /// Index `rows` on the join column and keep both.
    pub fn new(rows: Relation) -> Self {
        #[cfg(test)]
        PARTITIONS_BUILT.with(|n| n.set(n.get() + 1));
        let table = KeyTable::build(&rows, &KEY);
        Self { rows, table }
    }

    /// The partition as a probe-ready index on its join column; builds
    /// nothing.
    pub fn index(&self) -> KeyIndex<'_, Relation, &KeyTable> {
        self.table
            .over(&self.rows, &KEY)
            .expect("a partition's table was built over its own rows")
    }
}

#[derive(Debug, Clone)]
struct Entry {
    parts: Vec<Partition>,
    cost: BuildCost,
    last_used: u64,
}

/// What [`PlanCache::insert`] did with a build.
#[derive(Debug)]
pub(crate) enum Admission<'c> {
    /// Resident now; these are the cache's partitions.
    Admitted(&'c [Partition]),
    /// Larger than the whole budget (or the cache is off): served
    /// uncached, the partitions go back to the caller.
    Rejected(Vec<Partition>),
}

/// The exact cache ledger, mirroring the store's [`IoStats`] shape:
/// every admission decision is counted, nothing is sampled.
///
/// [`IoStats`]: parqp_data::paged::IoStats
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a resident entry.
    pub hits: u64,
    /// Lookups that found nothing (each followed by a build).
    pub misses: u64,
    /// Entries admitted.
    pub insertions: u64,
    /// Entries evicted to respect the budget.
    pub evictions: u64,
    /// Builds too large to ever fit the budget, served uncached.
    pub rejected: u64,
    /// Tuples resident right now.
    pub resident_tuples: u64,
    /// High-water mark of `resident_tuples`.
    pub peak_resident_tuples: u64,
    /// Logical page reads hits avoided (sum of hit entries' build reads).
    pub reads_saved: u64,
    /// Exchange words hits avoided.
    pub words_saved: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`; 0 when the cache was never consulted.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// A budgeted store of hash-partitioned base relations shared across
/// queries and tenants. Budget 0 disables the cache entirely (every
/// lookup misses without being counted — the "off" differential arm).
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    entries: BTreeMap<CacheKey, Entry>,
    budget_tuples: u64,
    stats: CacheStats,
}

impl PlanCache {
    /// A cache holding at most `budget_tuples` resident tuples; 0
    /// disables caching.
    pub fn new(budget_tuples: u64) -> Self {
        Self {
            budget_tuples,
            ..Self::default()
        }
    }

    /// Whether caching is on at all.
    pub fn enabled(&self) -> bool {
        self.budget_tuples > 0
    }

    /// Look `key` up at `tick`. A hit refreshes the entry's LRU tick,
    /// banks its skipped build charges and hands out the resident
    /// partitions; a miss is counted and the caller is expected to
    /// build + [`PlanCache::insert`]. Always a miss (uncounted) when the
    /// cache is disabled.
    pub fn lookup(&mut self, key: &CacheKey, tick: u64) -> Option<&[Partition]> {
        if !self.enabled() {
            return None;
        }
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                self.stats.hits += 1;
                self.stats.reads_saved += entry.cost.reads;
                self.stats.words_saved += entry.cost.words;
                Some(&entry.parts)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Admit a freshly built entry, evicting LRU entries (ties: the
    /// smallest key) until it fits the budget. A build that alone
    /// exceeds the budget is rejected and handed back. Re-admitting a
    /// resident key replaces it: the old entry's tuples are retired
    /// before the budget is consulted, and a replacement is not an
    /// eviction.
    ///
    /// Disabled caches reject everything without counting.
    pub fn insert(
        &mut self,
        key: CacheKey,
        parts: Vec<Partition>,
        cost: BuildCost,
        tick: u64,
    ) -> Admission<'_> {
        if !self.enabled() {
            return Admission::Rejected(parts);
        }
        if cost.tuples > self.budget_tuples {
            self.stats.rejected += 1;
            return Admission::Rejected(parts);
        }
        if let Some(old) = self.entries.remove(&key) {
            self.stats.resident_tuples -= old.cost.tuples;
        }
        while self.stats.resident_tuples + cost.tuples > self.budget_tuples {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(k, e)| (e.last_used, **k))
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            let evicted = self.entries.remove(&victim).map_or(0, |e| e.cost.tuples);
            self.stats.resident_tuples -= evicted;
            self.stats.evictions += 1;
        }
        self.stats.resident_tuples += cost.tuples;
        self.stats.peak_resident_tuples = self
            .stats
            .peak_resident_tuples
            .max(self.stats.resident_tuples);
        self.stats.insertions += 1;
        let entry = self.entries.entry(key).or_insert(Entry {
            parts,
            cost,
            last_used: tick,
        });
        Admission::Admitted(&entry.parts)
    }

    /// The exact ledger so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(template: usize, group: u64) -> CacheKey {
        CacheKey {
            template,
            group,
            shares: 8,
        }
    }

    fn parts(tuples: u64) -> (Vec<Partition>, BuildCost) {
        let mut rel = Relation::new(2);
        for i in 0..tuples {
            rel.push(&[i, i]);
        }
        (
            vec![Partition::new(rel)],
            BuildCost {
                reads: tuples,
                words: 2 * tuples,
                tuples,
            },
        )
    }

    #[test]
    fn hit_miss_ledger_is_exact() {
        let mut c = PlanCache::new(100);
        assert!(c.lookup(&key(0, 1), 0).is_none());
        let (p, cost) = parts(10);
        assert!(matches!(
            c.insert(key(0, 1), p, cost, 0),
            Admission::Admitted([only]) if only.index().rows().len() == 10
        ));
        assert!(c.lookup(&key(0, 1), 1).is_some());
        assert!(c.lookup(&key(0, 2), 1).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 2, 1));
        assert_eq!(s.reads_saved, 10);
        assert_eq!(s.words_saved, 20);
        assert_eq!(s.resident_tuples, 10);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_is_deterministic_by_tick_then_key() {
        let mut c = PlanCache::new(30);
        for (i, tick) in [(0usize, 5u64), (1, 3), (2, 3)] {
            let (p, cost) = parts(10);
            c.insert(key(i, 1), p, cost, tick);
        }
        // Admitting 10 more evicts the LRU tie (tick 3) with the
        // smallest key: template 1.
        let (p, cost) = parts(10);
        c.insert(key(3, 1), p, cost, 6);
        assert!(
            !c.entries.contains_key(&key(1, 1)),
            "LRU tie-break must evict 1"
        );
        assert!(c.entries.contains_key(&key(0, 1)) && c.entries.contains_key(&key(2, 1)));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().resident_tuples, 30);
        assert_eq!(c.stats().peak_resident_tuples, 30);
    }

    #[test]
    fn touch_refreshes_lru_order() {
        let mut c = PlanCache::new(20);
        let (p, cost) = parts(10);
        c.insert(key(0, 1), p, cost, 0);
        let (p, cost) = parts(10);
        c.insert(key(1, 1), p, cost, 1);
        assert!(c.lookup(&key(0, 1), 2).is_some()); // 0 is now the newest
        let (p, cost) = parts(10);
        c.insert(key(2, 1), p, cost, 3);
        assert!(
            !c.entries.contains_key(&key(1, 1)),
            "untouched entry must go"
        );
        assert!(c.entries.contains_key(&key(0, 1)));
    }

    #[test]
    fn oversized_builds_are_rejected_not_admitted() {
        let mut c = PlanCache::new(5);
        let (p, cost) = parts(10);
        let returned = c.insert(key(0, 1), p, cost, 0);
        assert!(
            matches!(returned, Admission::Rejected(back) if back.len() == 1),
            "rejected build returns to caller"
        );
        assert_eq!(c.stats().rejected, 1);
        assert_eq!(c.stats().insertions, 0);
        assert!(c.entries.is_empty());
    }

    #[test]
    fn disabled_cache_is_inert() {
        let mut c = PlanCache::new(0);
        assert!(!c.enabled());
        assert!(c.lookup(&key(0, 1), 0).is_none());
        let (p, cost) = parts(10);
        assert!(matches!(
            c.insert(key(0, 1), p, cost, 0),
            Admission::Rejected(back) if back.len() == 1
        ));
        assert_eq!(c.stats(), CacheStats::default());
        assert_eq!(c.entries.len(), 0);
    }

    #[test]
    fn readmitting_a_resident_key_replaces_it_within_the_budget() {
        // The budget fits exactly one copy: the second admission must
        // retire the first copy's tuples instead of stacking on them,
        // and must not evict anything to make room for itself.
        let mut c = PlanCache::new(20);
        let (p, cost) = parts(10);
        c.insert(key(1, 1), p, cost, 0);
        for tick in [1, 2] {
            let (p, cost) = parts(10);
            assert!(matches!(
                c.insert(key(0, 1), p, cost, tick),
                Admission::Admitted(_)
            ));
        }
        let s = c.stats();
        assert_eq!(s.resident_tuples, 20, "two keys, one copy each");
        assert_eq!(s.evictions, 0, "a replacement is not an eviction");
        assert_eq!((c.entries.len(), s.insertions), (2, 3));
        assert!(
            c.entries.contains_key(&key(1, 1)),
            "the bystander stays resident"
        );

        let mut c = PlanCache::new(10);
        for tick in [0, 1] {
            let (p, cost) = parts(10);
            c.insert(key(0, 1), p, cost, tick);
        }
        let s = c.stats();
        assert_eq!(
            (s.resident_tuples, s.evictions, c.entries.len()),
            (10, 0, 1)
        );
    }
}
