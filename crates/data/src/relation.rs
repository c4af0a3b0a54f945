//! Flat row-major relation storage.
//!
//! A [`Relation`] is a bag of fixed-arity tuples over [`Value`]s stored in
//! a single contiguous `Vec<u64>`: row `i` occupies
//! `data[i*arity .. (i+1)*arity]`. This keeps scans cache-friendly and
//! makes the "load in tuples / words" accounting of the MPC simulator
//! exact (one word per attribute value).

use crate::fasthash::mix;

/// An attribute value. All data in the system is integer-encoded.
pub type Value = u64;

/// A bag (multiset) of fixed-arity tuples, stored row-major in one flat
/// vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    arity: usize,
    data: Vec<Value>,
}

impl Relation {
    /// Create an empty relation of the given arity.
    ///
    /// # Panics
    /// Panics if `arity == 0`; nullary relations are not supported as data.
    pub fn new(arity: usize) -> Self {
        assert!(arity > 0, "relations must have positive arity");
        Self {
            arity,
            data: Vec::new(),
        }
    }

    /// Create an empty relation with room for `rows` tuples.
    pub fn with_capacity(arity: usize, rows: usize) -> Self {
        assert!(arity > 0, "relations must have positive arity");
        Self {
            arity,
            data: Vec::with_capacity(arity * rows),
        }
    }

    /// Adopt `data` as the row-major storage of a relation, without
    /// touching a row: how a flat buffer delivered by a row exchange
    /// becomes the fragment a local join reads.
    ///
    /// # Panics
    /// Panics if `arity == 0` or `data` is not a whole number of rows.
    pub fn from_raw(arity: usize, data: Vec<Value>) -> Self {
        assert!(arity > 0, "relations must have positive arity");
        assert_eq!(data.len() % arity, 0, "raw data is not whole rows");
        Self { arity, data }
    }

    /// Give up the row-major storage (the inverse of
    /// [`Relation::from_raw`]).
    pub fn into_raw(self) -> Vec<Value> {
        self.data
    }

    /// Build a relation from an iterator of rows.
    ///
    /// # Panics
    /// Panics if a row's length differs from `arity`.
    pub fn from_rows<I, R>(arity: usize, rows: I) -> Self
    where
        I: IntoIterator<Item = R>,
        R: AsRef<[Value]>,
    {
        let mut rel = Self::new(arity);
        for r in rows {
            rel.push(r.as_ref());
        }
        rel
    }

    /// Arity (number of attributes).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.data.len() / self.arity
    }

    /// Whether the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Append one tuple.
    ///
    /// # Panics
    /// Panics if `row.len() != self.arity()`.
    #[inline]
    pub fn push(&mut self, row: &[Value]) {
        assert_eq!(row.len(), self.arity, "row arity mismatch");
        self.data.extend_from_slice(row);
    }

    /// Append `left`'s values followed by `right`'s without column
    /// `skip`: a two-way join's output row, written straight into the
    /// storage. The row's width is the caller's to get right: this is
    /// the per-match path of a local join, and only debug builds check
    /// it.
    #[inline]
    pub fn push_merged(&mut self, left: &[Value], right: &[Value], skip: usize) {
        debug_assert_eq!(left.len() + right.len(), self.arity + 1, "merged row width");
        self.data
            .reserve(left.len() + right.len().saturating_sub(1));
        self.data.extend_from_slice(left);
        for (c, &v) in right.iter().enumerate() {
            if c != skip {
                self.data.push(v);
            }
        }
    }

    /// The `i`-th tuple.
    #[inline]
    pub fn row(&self, i: usize) -> &[Value] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// Iterate over tuples.
    pub fn iter(&self) -> impl Iterator<Item = &[Value]> + '_ {
        self.data.chunks_exact(self.arity)
    }

    /// The underlying flat storage (row-major).
    pub fn raw(&self) -> &[Value] {
        &self.data
    }

    /// Project onto the given columns (in the given order, repeats allowed).
    ///
    /// # Panics
    /// Panics if a column index is out of range or `cols` is empty.
    pub fn project(&self, cols: &[usize]) -> Relation {
        assert!(!cols.is_empty(), "projection needs at least one column");
        assert!(
            cols.iter().all(|&c| c < self.arity),
            "projection column out of range"
        );
        let mut out = Relation::with_capacity(cols.len(), self.len());
        let mut buf = vec![0; cols.len()];
        for row in self.iter() {
            for (b, &c) in buf.iter_mut().zip(cols) {
                *b = row[c];
            }
            out.push(&buf);
        }
        out
    }

    /// Keep only tuples satisfying the predicate.
    pub fn filter(&self, mut pred: impl FnMut(&[Value]) -> bool) -> Relation {
        let mut out = Relation::new(self.arity);
        for row in self.iter() {
            if pred(row) {
                out.push(row);
            }
        }
        out
    }

    /// Append all tuples of `other`.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn extend_from(&mut self, other: &Relation) {
        assert_eq!(self.arity, other.arity, "arity mismatch in extend");
        self.data.extend_from_slice(&other.data);
    }

    /// Sort tuples lexicographically (in place).
    pub fn sort(&mut self) {
        let arity = self.arity;
        let mut rows: Vec<&[Value]> = self.data.chunks_exact(arity).collect();
        rows.sort_unstable();
        let mut sorted = Vec::with_capacity(self.data.len());
        for r in rows {
            sorted.extend_from_slice(r);
        }
        self.data = sorted;
    }

    /// Sorted-and-deduplicated copy: the canonical *set* form, used to
    /// compare algorithm outputs under set semantics in tests.
    pub fn canonical(&self) -> Relation {
        let mut rows: Vec<&[Value]> = self.iter().collect();
        rows.sort_unstable();
        rows.dedup();
        let mut out = Relation::with_capacity(self.arity, rows.len());
        for r in rows {
            out.push(r);
        }
        out
    }

    /// Order-free *bag* digest: the wrapping sum of one well-mixed
    /// 64-bit term per row, 0 on an empty relation.
    ///
    /// A sum, not a sort: it needs no row order, so a distributed answer
    /// is digested fragment by fragment where it lies, and the fragment
    /// digests (added with `wrapping_add`) are the digest of the
    /// gathered answer. A sum, not XOR: `t ⊕ t = 0` would erase a
    /// repeated row, while `t + t` keeps it, so two bags with the same
    /// set of rows and different multiplicities digest differently.
    ///
    /// This is a non-cryptographic check: it tells a wrong answer from a
    /// right one, it cannot stand up to an adversary who crafts one.
    pub fn digest(&self) -> u64 {
        self.iter()
            .fold(0, |sum, row| sum.wrapping_add(row_digest(row)))
    }

    /// Convert to a vector of owned rows (test convenience).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        self.iter().map(<[Value]>::to_vec).collect()
    }
}

/// One row's term of [`Relation::digest`]: an Fx hash of its width and
/// its words, then the splitmix64 finaliser, so that one changed bit
/// anywhere flips about half of the term's bits. Every step is a
/// bijection in the word it folds in, so rows of one width that differ
/// in one value always get different terms.
#[inline]
fn row_digest(row: &[Value]) -> u64 {
    let h = row.iter().fold(mix(0, row.len() as u64), |h, &v| mix(h, v));
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a [Value];
    type IntoIter = std::slice::ChunksExact<'a, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.chunks_exact(self.arity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r3() -> Relation {
        Relation::from_rows(2, [[3, 1], [1, 2], [2, 2]])
    }

    #[test]
    fn push_and_access() {
        let r = r3();
        assert_eq!(r.arity(), 2);
        assert_eq!(r.len(), 3);
        assert_eq!(r.row(1), &[1, 2]);
        assert!(!r.is_empty());
    }

    #[test]
    fn iterate() {
        let r = r3();
        let rows: Vec<&[Value]> = r.iter().collect();
        assert_eq!(rows, vec![&[3, 1][..], &[1, 2], &[2, 2]]);
        let via_into: Vec<&[Value]> = (&r).into_iter().collect();
        assert_eq!(rows, via_into);
    }

    #[test]
    fn project_reorders_and_repeats() {
        let r = r3();
        let p = r.project(&[1, 0, 1]);
        assert_eq!(p.arity(), 3);
        assert_eq!(p.row(0), &[1, 3, 1]);
    }

    #[test]
    fn filter_keeps_matching() {
        let r = r3();
        let f = r.filter(|row| row[1] == 2);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn sort_lexicographic() {
        let mut r = r3();
        r.sort();
        assert_eq!(r.to_rows(), vec![vec![1, 2], vec![2, 2], vec![3, 1]]);
    }

    #[test]
    fn canonical_dedups() {
        let r = Relation::from_rows(1, [[2], [1], [2], [1], [3]]);
        assert_eq!(r.canonical().to_rows(), vec![vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn extend_concats() {
        let mut a = r3();
        let b = Relation::from_rows(2, [[9, 9]]);
        a.extend_from(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.row(3), &[9, 9]);
    }

    #[test]
    fn raw_roundtrip_is_zero_copy() {
        let r = r3();
        let raw = r.clone().into_raw();
        assert_eq!(raw, vec![3, 1, 1, 2, 2, 2]);
        let ptr = raw.as_ptr();
        let back = Relation::from_raw(2, raw);
        assert_eq!(back, r);
        assert_eq!(back.raw().as_ptr(), ptr);
        assert!(Relation::from_raw(3, Vec::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "not whole rows")]
    fn from_raw_rejects_ragged_data() {
        Relation::from_raw(2, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked() {
        let mut r = Relation::new(2);
        r.push(&[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "positive arity")]
    fn zero_arity_rejected() {
        Relation::new(0);
    }
}
