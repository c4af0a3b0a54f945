//! The local-join kernel: a chained hash index over borrowed rows.
//!
//! Every local join in the workspace — the serial oracles, the per-server
//! phases of the two-way joins, HyperCube, GYM, the binary plans and the
//! expansion join — is "build a table on some key columns of one row
//! set, probe it with rows of another". [`KeyIndex`] is that table. It
//! never copies a row or a key: it borrows the row source and stores two
//! `u32` vectors, `heads` (one slot per bucket) and `next` (one slot per
//! row), and a byte per bucket of miss filter (below), so a build is
//! three allocations whatever the row count and a probe is none.
//!
//! **Build once, probe many.** The three vectors are a [`KeyTable`]: owned,
//! lifetime-free, everything `build` computes. A [`KeyIndex`] is a table
//! plus the borrowed rows and key columns it reads through — either its
//! own table ([`KeyIndex::build`]) or one kept beside the rows by a
//! caller that probes them again later ([`KeyTable::over`]). There is
//! one probe walk whichever it is.
//!
//! **Two ways to probe, one walk.** [`KeyIndex::probe`] is an iterator
//! over the matching row ids; [`KeyIndex::for_each_match`] calls a
//! continuation per match instead and hands the probing row back
//! writable, which is the shape of a nested-loop multiway join (the
//! continuation is the next atom's loop). Both, and the semijoin and
//! first-of-key tests, step down a bucket chain through the same private
//! walk.
//!
//! **Order contract.** Rows are linked in *reverse* at build time, so
//! walking a bucket's chain visits rows in ascending index — insertion
//! order. A probe therefore yields its matches exactly as a
//! `FastMap<key, Vec<row id>>` filled by a forward scan would, and every
//! join written as "probe rows outer, matches inner" produces the same
//! output rows in the same order.
//!
//! **Verified on probe.** A bucket chain holds every row whose key
//! hashes there, not only equal keys. Each candidate's key columns are
//! compared against the probe's before it is yielded, so a hash
//! collision can cost a comparison but never a false match.
//!
//! **Misses are predictable.** Most probes of a local join miss: the
//! closing atom of a HyperCube triangle is probed once per 2-path and
//! almost none of those close a triangle. With at most one row per
//! bucket on average, 37–61 % of the buckets are empty, so "is this
//! chain empty?" is close to a coin flip the branch predictor loses. Beside the heads sits a one-bit-per-slot
//! miss filter: eight slots per bucket, one byte beside each head, a
//! key's slot picked by the three hash bits below its bucket's. A build
//! sets the slot of every key it inserts, and a probe whose slot is
//! clear returns the empty chain after one load and a branch that
//! almost always goes the same way, without touching the heads. A set
//! slot only sends the probe down its chain as before, so the order
//! contract and verify-on-probe are untouched and every probe returns
//! what the bare chain walk returns.

use crate::fasthash::mix;
use crate::{Relation, Value};
use std::borrow::Borrow;
use std::fmt;

/// End-of-chain marker; also why a row id must stay below `u32::MAX`.
const NIL: u32 = u32::MAX;

/// `log2` of the miss filter's slots per bucket (one byte's bits).
const SLOTS_PER_BUCKET_LOG2: u32 = 3;

/// A row source an index can be built over and probed from: anything
/// with `len()` rows addressable by position.
pub trait Rows {
    /// Number of rows.
    fn len(&self) -> usize;

    /// The `i`-th row.
    fn row(&self, i: usize) -> &[Value];

    /// Column `c` of the `i`-th row, or `None` if the row has no column
    /// `c`.
    #[inline]
    fn value(&self, i: usize, c: usize) -> Option<Value> {
        self.row(i).get(c).copied()
    }

    /// Whether there are no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Rows for Relation {
    fn len(&self) -> usize {
        Relation::len(self)
    }

    #[inline]
    fn row(&self, i: usize) -> &[Value] {
        Relation::row(self, i)
    }

    /// One bounds check on the flat storage, not a row slice and then a
    /// column.
    #[inline]
    fn value(&self, i: usize, c: usize) -> Option<Value> {
        let arity = self.arity();
        (c < arity).then(|| self.raw().get(i * arity + c).copied())?
    }
}

/// Row-per-allocation sources: `[Vec<Value>]` (exchange inboxes),
/// `[&Vec<Value>]` (filtered views of one) and the like.
impl<T: AsRef<[Value]>> Rows for [T] {
    fn len(&self) -> usize {
        <[T]>::len(self)
    }

    #[inline]
    fn row(&self, i: usize) -> &[Value] {
        self[i].as_ref()
    }
}

/// Why an index could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// Row ids are `u32` with `u32::MAX` reserved for end-of-chain.
    TooManyRows {
        /// The offending row count.
        rows: usize,
    },
    /// A [`KeyTable`] was asked to view a row source that is not the
    /// length of the one it was built over: its row ids would point
    /// past the end, or leave rows unreachable.
    RowCountMismatch {
        /// Rows the table was built over.
        built: usize,
        /// Rows of the source it was asked to view.
        given: usize,
    },
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::TooManyRows { rows } => write!(
                f,
                "cannot index {rows} rows: row ids are u32 and {NIL} marks end-of-chain"
            ),
            IndexError::RowCountMismatch { built, given } => write!(
                f,
                "a key table built over {built} rows cannot view {given} rows"
            ),
        }
    }
}

impl std::error::Error for IndexError {}

/// The owned half of a [`KeyIndex`]: the bucket heads, per-row chain
/// links and miss filter a build computes, without the rows. Keep it
/// beside the rows it was built over and [`KeyTable::over`] views them
/// as an index again, at no cost — what a cache of build sides stores.
#[derive(Debug, Clone)]
pub struct KeyTable {
    /// First row of each bucket's chain, or [`NIL`]. Power-of-two length.
    heads: Vec<u32>,
    /// The row after row `i` in its chain, or [`NIL`].
    next: Vec<u32>,
    /// The miss filter: eight one-bit slots per bucket, a slot set iff
    /// some inserted key hashes to it.
    seen: Vec<u8>,
    /// `64 - log2(heads.len())`: a hash's top bits pick its bucket.
    shift: u32,
}

/// A hash index on the `cols` of `rows`, borrowing both. `T` is where
/// the table lives: owned (the default, from [`KeyIndex::build`]) or
/// `&KeyTable` (from [`KeyTable::over`]).
#[derive(Debug)]
pub struct KeyIndex<'a, R: Rows + ?Sized, T: Borrow<KeyTable> = KeyTable> {
    rows: &'a R,
    cols: &'a [usize],
    table: T,
}

/// A hash's miss-filter slot within its bucket's byte: the three hash
/// bits below the bucket's.
#[inline]
fn slot_bit(hash: u64, shift: u32) -> u8 {
    1 << (hash >> (shift - SLOTS_PER_BUCKET_LOG2) & 7)
}

/// Fx-mix the key columns of `row`. One column is one multiply.
#[inline]
fn hash_key(row: &[Value], cols: &[usize]) -> u64 {
    if let [c] = cols {
        return mix(0, row[*c]);
    }
    cols.iter().fold(0, |h, &c| mix(h, row[c]))
}

#[inline]
fn key_eq(a: &[Value], a_cols: &[usize], b: &[Value], b_cols: &[usize]) -> bool {
    if let ([ac], [bc]) = (a_cols, b_cols) {
        return a[*ac] == b[*bc];
    }
    a_cols.iter().zip(b_cols).all(|(&ac, &bc)| a[ac] == b[bc])
}

impl KeyTable {
    /// The table of `rows` keyed on `cols` (in that order; empty means
    /// every row shares the one empty key, which turns a probe into a
    /// full scan — the Cartesian product).
    ///
    /// # Panics
    /// Panics if `rows` has `u32::MAX` rows or more (see
    /// [`KeyTable::try_build`]) or a row is narrower than a key column.
    pub fn build<R: Rows + ?Sized>(rows: &R, cols: &[usize]) -> Self {
        let n = rows.len();
        assert!(n < NIL as usize, "{}", IndexError::TooManyRows { rows: n });
        // At most one row per bucket on average, at least two buckets so
        // the shift stays below 64.
        let buckets = n.next_power_of_two().max(2);
        let shift = 64 - buckets.trailing_zeros();
        let mut heads = vec![NIL; buckets];
        let mut next = vec![NIL; n];
        let mut seen = vec![0u8; buckets];
        // Linked back to front, so each chain reads front to back.
        for i in (0..n).rev() {
            let hash = hash_key(rows.row(i), cols);
            let b = (hash >> shift) as usize;
            next[i] = heads[b];
            heads[b] = i as u32;
            if let Some(slots) = seen.get_mut(b) {
                *slots |= slot_bit(hash, shift);
            }
        }
        Self {
            heads,
            next,
            seen,
            shift,
        }
    }

    /// Fallible [`KeyTable::build`]: refuses a row count whose ids would
    /// not fit below the end-of-chain marker instead of wrapping them.
    pub fn try_build<R: Rows + ?Sized>(rows: &R, cols: &[usize]) -> Result<Self, IndexError> {
        if rows.len() >= NIL as usize {
            return Err(IndexError::TooManyRows { rows: rows.len() });
        }
        Ok(Self::build(rows, cols))
    }

    /// Rows this table was built over.
    pub fn len(&self) -> usize {
        self.next.len()
    }

    /// Whether it was built over no rows.
    pub fn is_empty(&self) -> bool {
        self.next.is_empty()
    }

    /// View `rows` through this table: the index [`KeyIndex::build`]
    /// would return for the `rows` and `cols` the table was built from,
    /// without building it. Handing it *other* rows of the same length,
    /// or other columns, cannot produce a false match — candidates are
    /// verified against `rows` on probe — but can miss true ones; a row
    /// source of another length is refused.
    pub fn over<'a, R: Rows + ?Sized>(
        &'a self,
        rows: &'a R,
        cols: &'a [usize],
    ) -> Result<KeyIndex<'a, R, &'a KeyTable>, IndexError> {
        if rows.len() != self.len() {
            return Err(IndexError::RowCountMismatch {
                built: self.len(),
                given: rows.len(),
            });
        }
        Ok(KeyIndex {
            rows,
            cols,
            table: self,
        })
    }
}

impl<'a, R: Rows + ?Sized> KeyIndex<'a, R> {
    /// Index `rows` on `cols`: [`KeyTable::build`], owned by the index.
    ///
    /// # Panics
    /// As [`KeyTable::build`].
    pub fn build(rows: &'a R, cols: &'a [usize]) -> Self {
        Self {
            rows,
            cols,
            table: KeyTable::build(rows, cols),
        }
    }

    /// Fallible [`KeyIndex::build`], as [`KeyTable::try_build`].
    pub fn try_build(rows: &'a R, cols: &'a [usize]) -> Result<Self, IndexError> {
        let table = KeyTable::try_build(rows, cols)?;
        Ok(Self { rows, cols, table })
    }
}

impl<'a, R: Rows + ?Sized, T: Borrow<KeyTable>> KeyIndex<'a, R, T> {
    /// The indexed row source.
    pub fn rows(&self) -> &'a R {
        self.rows
    }

    /// Ids of the indexed rows whose key equals `row`'s `cols`, in
    /// insertion order. No allocation.
    ///
    /// # Panics
    /// Panics if `cols` is not as long as the indexed key.
    #[inline]
    pub fn probe<'i>(
        &'i self,
        row: &'i [Value],
        cols: &'i [usize],
    ) -> impl Iterator<Item = usize> + 'i {
        assert_eq!(cols.len(), self.cols.len(), "probe key width");
        let mut at = self.head(hash_key(row, cols));
        std::iter::from_fn(move || {
            self.walk(&mut at, |i| key_eq(self.rows.row(i), self.cols, row, cols))
        })
    }

    /// [`KeyIndex::probe`] as internal iteration: `f(row, i)` for each
    /// match `i`, in the same order, with `row` handed back writable —
    /// what a nested-loop join needs, whose inner loops bind the rest of
    /// the probing row between one match and the next. `f` may write any
    /// column of `row` but `cols`. One- and two-column keys are read once
    /// and compared from registers.
    ///
    /// # Panics
    /// Panics if `cols` is not as long as the indexed key.
    // Always inlined: the caller's continuation is then compiled into the
    // chain walk, and a nested-loop join's innermost probe costs one
    // hash and one filter byte on a miss, with no call.
    #[inline(always)]
    pub fn for_each_match(
        &self,
        row: &mut [Value],
        cols: &[usize],
        mut f: impl FnMut(&mut [Value], usize),
    ) {
        assert_eq!(cols.len(), self.cols.len(), "probe key width");
        match (cols, self.cols) {
            (&[c], &[own]) => self.for_each_fixed([c], [own], row, f),
            (&[c0, c1], &[own0, own1]) => self.for_each_fixed([c0, c1], [own0, own1], row, f),
            _ => {
                let mut at = self.head(hash_key(row, cols));
                while let Some(i) =
                    self.walk(&mut at, |i| key_eq(self.rows.row(i), self.cols, row, cols))
                {
                    f(row, i);
                }
            }
        }
    }

    /// [`KeyIndex::for_each_match`] for a key of `W` columns, read once:
    /// the hash folds and the comparison loops unroll.
    #[inline(always)]
    fn for_each_fixed<const W: usize>(
        &self,
        cols: [usize; W],
        own: [usize; W],
        row: &mut [Value],
        mut f: impl FnMut(&mut [Value], usize),
    ) {
        let key = cols.map(|c| row[c]);
        // `hash_key`'s fold: the build hashed every key with it.
        let mut at = self.head(key.iter().fold(0, |h, &v| mix(h, v)));
        while let Some(i) = self.walk(&mut at, |i| {
            own.iter()
                .zip(&key)
                .all(|(&c, &k)| self.rows.value(i, c) == Some(k))
        }) {
            f(row, i);
        }
    }

    /// The first row of the bucket chain `hash` picks, or [`NIL`] when
    /// the miss filter says no inserted key hashes where this one does.
    #[inline(always)]
    fn head(&self, hash: u64) -> u32 {
        let table = self.table.borrow();
        let b = (hash >> table.shift) as usize;
        let seen = table.seen.get(b).copied().unwrap_or(0);
        if seen & slot_bit(hash, table.shift) == 0 {
            return NIL;
        }
        table.heads.get(b).copied().unwrap_or(NIL)
    }

    /// The one chain walk, under every probe: moves `at` past the next
    /// row on its chain whose id passes `matches` and returns that id,
    /// or `None` once the chain is exhausted.
    #[inline(always)]
    fn walk(&self, at: &mut u32, matches: impl Fn(usize) -> bool) -> Option<usize> {
        let next = &self.table.borrow().next;
        while *at != NIL {
            let i = *at as usize;
            *at = next.get(i).copied().unwrap_or(NIL);
            if matches(i) {
                return Some(i);
            }
        }
        None
    }

    /// Whether indexed row `i` is the first row carrying its key: true
    /// for exactly one row per distinct key, in insertion order — a
    /// forward scan that keeps these rows visits the distinct keys as a
    /// "seen" set filled on the way would.
    #[inline]
    pub fn is_first_of_key(&self, i: usize) -> bool {
        self.probe(self.rows.row(i), self.cols).next() == Some(i)
    }

    /// Whether some indexed row has `row`'s `cols` as its key: the
    /// semijoin form of [`KeyIndex::probe`].
    #[inline]
    pub fn contains(&self, row: &[Value], cols: &[usize]) -> bool {
        self.probe(row, cols).next().is_some()
    }
}

/// The table before the miss filter: bucket heads and chain links only,
/// every probe walking its bucket's chain. The reference [`KeyIndex`]
/// probes are held to, id for id and in order.
#[cfg(test)]
mod reference {
    use super::{hash_key, key_eq, Rows, NIL};
    use crate::Value;

    pub struct ChainTable {
        heads: Vec<u32>,
        next: Vec<u32>,
        shift: u32,
    }

    impl ChainTable {
        pub fn build<R: Rows + ?Sized>(rows: &R, cols: &[usize]) -> Self {
            let n = rows.len();
            let buckets = n.next_power_of_two().max(2);
            let shift = 64 - buckets.trailing_zeros();
            let mut heads = vec![NIL; buckets];
            let mut next = vec![NIL; n];
            for i in (0..n).rev() {
                let b = (hash_key(rows.row(i), cols) >> shift) as usize;
                next[i] = heads[b];
                heads[b] = i as u32;
            }
            Self { heads, next, shift }
        }

        /// Ids of `rows` whose `cols` equal `row`'s `probe_cols`.
        pub fn probe<R: Rows + ?Sized>(
            &self,
            rows: &R,
            cols: &[usize],
            row: &[Value],
            probe_cols: &[usize],
        ) -> Vec<usize> {
            let mut out = Vec::new();
            let mut at = self.heads[(hash_key(row, probe_cols) >> self.shift) as usize];
            while at != NIL {
                let i = at as usize;
                at = self.next[i];
                if key_eq(rows.row(i), cols, row, probe_cols) {
                    out.push(i);
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parqp_testkit::prelude::*;

    fn ids<R: Rows + ?Sized>(index: &KeyIndex<'_, R>, key: &[Value]) -> Vec<usize> {
        let cols: Vec<usize> = (0..key.len()).collect();
        index.probe(key, &cols).collect()
    }

    #[test]
    fn empty_source_matches_nothing() {
        let rel = Relation::new(2);
        let index = KeyIndex::build(&rel, &[0]);
        assert!(ids(&index, &[7]).is_empty());
        assert!(!index.contains(&[7], &[0]));
        // Even the empty key has no row to match.
        let index = KeyIndex::build(&rel, &[]);
        assert!(ids(&index, &[]).is_empty());
    }

    #[test]
    fn single_row() {
        let rel = Relation::from_rows(2, [[5, 9]]);
        let index = KeyIndex::build(&rel, &[1]);
        assert_eq!(ids(&index, &[9]), vec![0]);
        assert!(ids(&index, &[5]).is_empty());
    }

    #[test]
    fn empty_key_list_scans_every_row_in_order() {
        let rows: Vec<Vec<Value>> = (0..37).map(|i| vec![i, i * i]).collect();
        let index = KeyIndex::build(rows.as_slice(), &[]);
        assert_eq!(ids(&index, &[]), (0..37).collect::<Vec<_>>());
        assert!(index.contains(&[1, 2, 3], &[]));
    }

    #[test]
    fn matches_come_in_insertion_order() {
        // Key 3 at rows 1, 4, 5, 9 between other keys; duplicates kept.
        let keys = [8, 3, 8, 1, 3, 3, 0, 8, 1, 3];
        let rel = Relation::from_rows(2, keys.iter().map(|&k| [k, 100 + k]));
        let index = KeyIndex::build(&rel, &[0]);
        assert_eq!(ids(&index, &[3]), vec![1, 4, 5, 9]);
        assert_eq!(ids(&index, &[8]), vec![0, 2, 7]);
        assert_eq!(ids(&index, &[0]), vec![6]);
        assert!(ids(&index, &[2]).is_empty());
    }

    #[test]
    fn first_of_key_marks_one_row_per_distinct_key() {
        let keys = [8, 3, 8, 1, 3, 3, 0, 8, 1, 3];
        let rel = Relation::from_rows(2, keys.iter().map(|&k| [100 + k, k]));
        let index = KeyIndex::build(&rel, &[1]);
        let firsts: Vec<usize> = (0..keys.len())
            .filter(|&i| index.is_first_of_key(i))
            .collect();
        assert_eq!(firsts, vec![0, 1, 3, 6]);
    }

    #[test]
    fn composite_keys_compare_every_column() {
        let rel = Relation::from_rows(3, [[1, 2, 3], [1, 2, 4], [2, 1, 3], [1, 2, 3]]);
        let index = KeyIndex::build(&rel, &[0, 1, 2]);
        assert_eq!(ids(&index, &[1, 2, 3]), vec![0, 3]);
        assert!(ids(&index, &[3, 2, 1]).is_empty());
        // Probe columns are the prober's own positions.
        let index = KeyIndex::build(&rel, &[2, 0]);
        assert_eq!(
            index.probe(&[9, 1, 9, 3], &[3, 1]).collect::<Vec<_>>(),
            vec![0, 3]
        );
    }

    #[test]
    fn colliding_keys_are_told_apart() {
        // Four buckets for four rows: find keys that land in row 0's
        // bucket, some equal to its key after the shift, none equal
        // before it.
        let shift = 64 - 2;
        let bucket = |k: Value| mix(0, k) >> shift;
        let colliders: Vec<Value> = (1..).filter(|&k| bucket(k) == bucket(0)).take(3).collect();
        let mut keys = vec![0];
        keys.extend(&colliders);
        let rel = Relation::from_rows(1, keys.iter().map(|&k| [k]));
        let index = KeyIndex::build(&rel, &[0]);
        assert_eq!(index.table.heads.iter().filter(|&&h| h != NIL).count(), 1);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(ids(&index, &[k]), vec![i], "key {k}");
        }
        // A miss that walks the whole chain.
        let miss = (1..)
            .find(|k| bucket(*k) == bucket(0) && !keys.contains(k))
            .expect("some key collides");
        assert!(!index.contains(&[miss], &[0]));
        // High-bit-only differences are different keys.
        let rel = Relation::from_rows(1, [[1u64], [1 | 1 << 63], [1 | 1 << 40]]);
        let index = KeyIndex::build(&rel, &[0]);
        assert_eq!(ids(&index, &[1 | 1 << 63]), vec![1]);
    }

    #[test]
    fn row_sources_agree() {
        let rel = Relation::from_rows(2, [[1, 7], [2, 7], [1, 8]]);
        let owned = rel.to_rows();
        let views: Vec<&Vec<Value>> = owned.iter().collect();
        let a = KeyIndex::build(&rel, &[0]);
        let b = KeyIndex::build(owned.as_slice(), &[0]);
        let c = KeyIndex::build(views.as_slice(), &[0]);
        for key in 0..4 {
            assert_eq!(ids(&a, &[key]), ids(&b, &[key]));
            assert_eq!(ids(&a, &[key]), ids(&c, &[key]));
        }
        // A column past the row's end is no value, not the next row's.
        for i in 0..rel.len() {
            for col in 0..3 {
                let want = rel.row(i).get(col).copied();
                assert_eq!(Rows::value(&rel, i, col), want, "row {i}, column {col}");
                assert_eq!(Rows::value(owned.as_slice(), i, col), want);
            }
        }
    }

    /// Row counts on both sides of powers of two, where the bucket count
    /// and so the filter's width change.
    fn random_len(rng: &mut Rng) -> usize {
        match rng.gen_below(4) {
            0 => rng.gen_below(2) as usize,
            1 => {
                let pow = 1usize << rng.gen_range(1u32..=8);
                pow - 1 + rng.gen_below(3) as usize
            }
            _ => rng.gen_range(2usize..=300),
        }
    }

    /// Keys that share row 0's bucket in a table of `n` rows.
    fn colliders(n: usize) -> Vec<Value> {
        let shift = 64 - n.next_power_of_two().max(2).trailing_zeros();
        let bucket = |k: Value| mix(0, k) >> shift;
        (0..).filter(|&k| bucket(k) == bucket(0)).take(4).collect()
    }

    /// A relation of `n` rows in one of the shapes a table must survive,
    /// and the probe rows to ask it: every row it holds, then as many
    /// drawn from the same shape (mostly misses) and from far away.
    fn random_case(rng: &mut Rng) -> (Relation, Vec<usize>, Vec<Vec<Value>>) {
        let arity = rng.gen_range(1usize..=3);
        let mut cols: Vec<usize> = (0..arity).collect();
        rng.shuffle(&mut cols);
        cols.truncate(rng.gen_range(0usize..=arity));
        let n = random_len(rng);
        let shape = rng.gen_below(6);
        let pool = colliders(n);
        let value = |rng: &mut Rng| match shape {
            // Every row on one key.
            0 => 3,
            // Small domain: duplicate keys and rows.
            1 => rng.gen_below(3),
            // Values that differ only above bit 40.
            2 => rng.gen_below(4) << 40 | 1,
            // Multiples of a large power of two.
            3 => rng.gen_below(4) << 60,
            // Keys that collide in one bucket.
            4 => pool[rng.gen_below(pool.len() as u64) as usize],
            _ => rng.gen_below(1 << 20),
        };
        let mut rel = Relation::with_capacity(arity, n);
        let mut row = vec![0; arity];
        for _ in 0..n {
            for slot in &mut row {
                *slot = value(rng);
            }
            rel.push(&row);
        }
        let mut probes = rel.to_rows();
        for far in [false, true] {
            for _ in 0..n.max(8) {
                let mut probe: Vec<Value> = (0..arity).map(|_| value(rng)).collect();
                if far {
                    for slot in &mut probe {
                        *slot ^= 1 << 50;
                    }
                }
                probes.push(probe);
            }
        }
        (rel, cols, probes)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn probes_are_the_chain_walk_id_for_id(seed in any::<u64>()) {
            let mut rng = Rng::seed_from_u64(seed);
            let (rel, cols, probes) = random_case(&mut rng);
            let reference = reference::ChainTable::build(&rel, &cols);
            let table = KeyTable::build(&rel, &cols);
            let index = table.over(&rel, &cols).expect("same rows");
            for probe in &probes {
                let want = reference.probe(&rel, &cols, probe, &cols);
                let got: Vec<usize> = index.probe(probe, &cols).collect();
                prop_assert_eq!(&got, &want, "cols {:?}, probe {:?}", cols, probe);
                prop_assert_eq!(index.contains(probe, &cols), !want.is_empty());
                // Internal iteration, with every column but the key's
                // overwritten between matches as a nested loop would.
                let mut row = probe.clone();
                let mut each = Vec::new();
                index.for_each_match(&mut row, &cols, |row, i| {
                    for (c, slot) in row.iter_mut().enumerate() {
                        if !cols.contains(&c) {
                            *slot = slot.wrapping_add(i as Value + 1);
                        }
                    }
                    each.push(i);
                });
                prop_assert_eq!(&each, &want, "for_each_match, cols {:?}, probe {:?}", cols, probe);
            }
            for i in 0..rel.len() {
                let first = reference.probe(&rel, &cols, rel.row(i), &cols).first() == Some(&i);
                prop_assert_eq!(index.is_first_of_key(i), first);
            }
        }
    }

    #[test]
    fn a_clear_slot_is_a_miss_without_a_walk() {
        // One row: two buckets of eight slots, one slot set.
        let rel = Relation::from_rows(1, [[7u64]]);
        let index = KeyIndex::build(&rel, &[0]);
        let table = &index.table;
        assert_eq!(table.seen.len(), table.heads.len());
        assert_eq!(table.seen.iter().map(|s| s.count_ones()).sum::<u32>(), 1);
        let slot = |k: Value| mix(0, k) >> (table.shift - SLOTS_PER_BUCKET_LOG2);
        // A key in row 0's bucket but another slot: the chain is not empty,
        // the probe never walks it.
        let bucket = |k: Value| mix(0, k) >> table.shift;
        let miss = (0..)
            .find(|&k| bucket(k) == bucket(7) && slot(k) != slot(7))
            .expect("other slots of the bucket");
        assert_eq!(index.head(mix(0, miss)), NIL);
        assert!(!index.contains(&[miss], &[0]));
        assert_eq!(ids(&index, &[7]), vec![0]);
    }

    /// Claims a row count without holding a row.
    #[derive(Debug)]
    struct Claimed(usize);

    impl Rows for Claimed {
        fn len(&self) -> usize {
            self.0
        }

        fn row(&self, _: usize) -> &[Value] {
            &[]
        }
    }

    #[test]
    fn too_many_rows_is_a_typed_error() {
        for rows in [u32::MAX as usize, u32::MAX as usize + 1] {
            let err = KeyIndex::try_build(&Claimed(rows), &[]).expect_err("ids would wrap");
            assert_eq!(err, IndexError::TooManyRows { rows });
            assert!(err.to_string().contains("u32"));
        }
    }

    #[test]
    #[should_panic(expected = "cannot index 4294967295 rows")]
    fn build_refuses_what_try_build_refuses() {
        let _ = KeyIndex::build(&Claimed(u32::MAX as usize), &[]);
    }

    #[test]
    #[should_panic(expected = "probe key width")]
    fn probe_width_checked() {
        let rel = Relation::from_rows(2, [[1, 2]]);
        let index = KeyIndex::build(&rel, &[0, 1]);
        let _ = index.probe(&[1, 2], &[0]).count();
    }
}
