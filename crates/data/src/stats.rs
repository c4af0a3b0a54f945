//! Exact data statistics: degrees, heavy hitters, join output size.
//!
//! The skew-resilient algorithms split values at the *heavy hitter*
//! threshold — degree ≥ `IN/p` in a two-way join (slide 29) or `N/p` per
//! relation in SkewHC (slide 47). Since the simulator holds all data in
//! memory we compute these statistics exactly; a real system would use
//! sampling, which only changes the constants in the analysis.

use crate::fasthash::FastMap;
use crate::relation::{Relation, Value};

/// Exact degree (occurrence count) of every value in column `col`.
pub fn degree_counts(rel: &Relation, col: usize) -> FastMap<Value, u64> {
    assert!(col < rel.arity(), "column out of range");
    let mut deg: FastMap<Value, u64> = FastMap::default();
    // Growing from empty rehashes the table a dozen times on the way to
    // a join column's tens of thousands of values, which is half the
    // cost of the scan. Room for one value per row up front, up to a
    // table of a megabyte or two: a column of few values wastes at most
    // that, and a longer one has amortised its growth by then.
    deg.reserve(rel.len().min(1 << 16));
    for row in rel.iter() {
        *deg.entry(row[col]).or_insert(0) += 1;
    }
    deg
}

/// The heavy-hitter cut for an atom of `size` tuples on `p` servers:
/// a value is heavy when its degree reaches `max(size/p, 2)`. The
/// `size/p` part is slide 47's `N/p`; the floor of 2 is
/// arXiv:1401.1872's, and keeps a value seen once light, since no
/// residual query can spread one tuple thinner. Without it every value
/// of an atom smaller than `2p` would be heavy, and SkewHC would send
/// every such tuple to its all-heavy plan's single server. The planner
/// and SkewHC both cut here, so the planner's "heavy hitters exist" is
/// SkewHC's.
pub fn heavy_threshold(size: u64, p: usize) -> u64 {
    (size / p.max(1) as u64).max(2)
}

/// Values whose degree in column `col` is **at least** `threshold`.
///
/// The paper's definition (slide 29): a heavy hitter is a value occurring
/// at least `IN/p` times. The result is sorted for determinism.
pub fn heavy_hitters(rel: &Relation, col: usize, threshold: u64) -> Vec<Value> {
    heavy_in(&degree_counts(rel, col), threshold)
}

/// [`heavy_hitters`] read off a column's degree table.
pub fn heavy_in(degrees: &FastMap<Value, u64>, threshold: u64) -> Vec<Value> {
    let mut out: Vec<Value> = degrees
        .iter()
        .filter_map(|(&v, &d)| (d >= threshold).then_some(v))
        .collect();
    out.sort_unstable();
    out
}

/// Heavy hitters of a join, given the degree tables of its two join
/// columns: values heavy in *either* side, with the threshold applied
/// to the combined input size as on slide 29 ("occurs at least IN/p
/// times in R or S"). Sorted, each value once.
pub fn join_heavy_hitters(
    r_degrees: &FastMap<Value, u64>,
    s_degrees: &FastMap<Value, u64>,
    threshold: u64,
) -> Vec<Value> {
    let mut heavy = heavy_in(r_degrees, threshold);
    heavy.extend(heavy_in(s_degrees, threshold));
    heavy.sort_unstable();
    heavy.dedup();
    heavy
}

/// Exact output cardinality of the equi-join `R ⋈_{R.r_col = S.s_col} S`:
/// `Σ_v deg_R(v) · deg_S(v)`, computed without materializing the join.
pub fn join_output_size(r: &Relation, r_col: usize, s: &Relation, s_col: usize) -> u64 {
    degree_join_size(&degree_counts(r, r_col), &degree_counts(s, s_col))
}

/// [`join_output_size`] read off the two join columns' degree tables.
pub fn degree_join_size(dr: &FastMap<Value, u64>, ds: &FastMap<Value, u64>) -> u64 {
    // Iterate over the smaller map.
    let (small, big) = if dr.len() <= ds.len() {
        (dr, ds)
    } else {
        (ds, dr)
    };
    small
        .iter()
        .map(|(v, d)| d * big.get(v).copied().unwrap_or(0))
        .sum()
}

/// The maximum degree in column `col` (0 for an empty relation).
pub fn max_degree(rel: &Relation, col: usize) -> u64 {
    degree_counts(rel, col).values().copied().max().unwrap_or(0)
}

/// Number of distinct values in column `col`.
pub fn distinct_count(rel: &Relation, col: usize) -> usize {
    degree_counts(rel, col).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Relation {
        // column 0 degrees: 1→3, 2→1, 3→2
        Relation::from_rows(2, [[1, 10], [1, 11], [1, 12], [2, 10], [3, 10], [3, 13]])
    }

    #[test]
    fn degrees_exact() {
        let d = degree_counts(&sample(), 0);
        assert_eq!(d[&1], 3);
        assert_eq!(d[&2], 1);
        assert_eq!(d[&3], 2);
    }

    #[test]
    fn heavy_hitters_threshold_inclusive() {
        let r = sample();
        assert_eq!(heavy_hitters(&r, 0, 2), vec![1, 3]);
        assert_eq!(heavy_hitters(&r, 0, 3), vec![1]);
        assert_eq!(heavy_hitters(&r, 0, 4), Vec::<Value>::new());
    }

    #[test]
    fn join_heavy_union() {
        let r = sample();
        let s = Relation::from_rows(2, [[10, 2], [11, 2], [12, 2]]); // 2 heavy in s.col(1)
        let h = join_heavy_hitters(&degree_counts(&r, 0), &degree_counts(&s, 1), 2);
        assert_eq!(h, vec![1, 2, 3]);
    }

    #[test]
    fn output_size_matches_nested_loop() {
        let r = sample();
        let s = Relation::from_rows(2, [[1, 0], [1, 1], [3, 0], [9, 9]]);
        let brute = r
            .iter()
            .flat_map(|a| s.iter().map(move |b| (a, b)))
            .filter(|(a, b)| a[0] == b[0])
            .count() as u64;
        assert_eq!(join_output_size(&r, 0, &s, 0), brute);
        assert_eq!(brute, 3 * 2 + 2);
    }

    #[test]
    fn max_degree_and_distinct() {
        let r = sample();
        assert_eq!(max_degree(&r, 0), 3);
        assert_eq!(distinct_count(&r, 0), 3);
        assert_eq!(distinct_count(&r, 1), 4);
    }

    #[test]
    fn empty_relation_stats() {
        let r = Relation::new(2);
        assert_eq!(max_degree(&r, 0), 0);
        assert_eq!(distinct_count(&r, 0), 0);
        assert!(heavy_hitters(&r, 0, 1).is_empty());
    }
}
