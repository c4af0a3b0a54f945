//! Hypercube (grid) topologies: arranging `p` servers in a `p₁ × … × p_k` box.
//!
//! The HyperCube/Shares algorithm (slides 34–44) addresses servers by
//! coordinates. A tuple of relation `S_j(x_{j1}, x_{j2}, …)` is sent to all
//! servers whose coordinates *agree* with `h_{j1}(x_{j1}), h_{j2}(x_{j2}), …`
//! on the dimensions `S_j` mentions, and are arbitrary (`*`) elsewhere —
//! i.e. a broadcast along the unconstrained dimensions. [`Grid`] provides
//! the rank ↔ coordinate mapping and the `*`-match enumeration.
//!
//! An atom fixes the same dimensions on every one of its rows, so that
//! enumeration has one shape per atom: a row's matches are one *base*
//! rank, its fixed coordinates times their strides, plus a fixed list of
//! *offsets* spanning the free dimensions. [`Grid::fan_out`] computes
//! that shape once ([`FanOut`]); [`Grid::matching_ranks`] is the same
//! list moved to one partial coordinate's base.

use crate::error::MpcError;

/// A `k`-dimensional grid of servers with side lengths `dims`.
///
/// Ranks are assigned in row-major order: the last dimension varies fastest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid {
    dims: Vec<usize>,
}

impl Grid {
    /// Create a grid with the given per-dimension sizes (the *shares*).
    ///
    /// # Panics
    /// Panics if any dimension is zero; use [`Grid::try_new`] to handle
    /// that case.
    pub fn new(dims: Vec<usize>) -> Self {
        match Self::try_new(dims) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Grid::new`]: errors on a zero dimension instead of
    /// panicking, for callers deriving shares from untrusted input.
    #[must_use = "the grid (or the sizing error) must be inspected"]
    pub fn try_new(dims: Vec<usize>) -> Result<Self, MpcError> {
        if dims.contains(&0) {
            return Err(MpcError::EmptyTopology { what: "grid" });
        }
        Ok(Self { dims })
    }

    /// A 1-dimensional grid of `p` servers (plain hash partitioning).
    pub fn line(p: usize) -> Self {
        Self::new(vec![p])
    }

    /// Per-dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of servers `∏ pᵢ`.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether the grid has zero dimensions (a single server).
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
    }

    /// The rank of the server at `coords`.
    ///
    /// # Panics
    /// Panics if `coords` has the wrong length or a coordinate is out of
    /// range.
    pub fn rank(&self, coords: &[usize]) -> usize {
        match self.try_rank(coords) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Grid::rank`].
    fn try_rank(&self, coords: &[usize]) -> Result<usize, MpcError> {
        if coords.len() != self.dims.len() {
            return Err(MpcError::BadArity {
                got: coords.len(),
                expected: self.dims.len(),
            });
        }
        let mut r = 0;
        for (&c, &d) in coords.iter().zip(&self.dims) {
            if c >= d {
                return Err(MpcError::BadCoordinate {
                    coord: c,
                    dim_size: d,
                });
            }
            r = r * d + c;
        }
        Ok(r)
    }

    /// The coordinates of server `rank`.
    ///
    /// # Panics
    /// Panics if `rank >= self.len()`.
    pub fn coords(&self, rank: usize) -> Vec<usize> {
        match self.try_coords(rank) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Grid::coords`].
    fn try_coords(&self, rank: usize) -> Result<Vec<usize>, MpcError> {
        if rank >= self.len() {
            return Err(MpcError::BadRank {
                rank,
                size: self.len(),
            });
        }
        let mut rest = rank;
        let mut out = vec![0; self.dims.len()];
        for (i, &d) in self.dims.iter().enumerate().rev() {
            out[i] = rest % d;
            rest /= d;
        }
        Ok(out)
    }

    /// Enumerate the ranks of all servers matching a partial coordinate,
    /// where `None` means `*` (any value along that dimension).
    ///
    /// This is the HyperCube broadcast set: e.g. for the triangle query,
    /// `R(a,b)` goes to `(h_x(a), h_y(b), *)` — every server whose first
    /// two coordinates match, across the whole third dimension.
    ///
    /// # Panics
    /// Panics if `partial` has the wrong arity or a fixed coordinate is
    /// out of range.
    pub fn matching(&self, partial: &[Option<usize>]) -> Vec<usize> {
        self.matching_ranks(partial).collect()
    }

    /// [`Grid::matching`] as an iterator. Panics as `matching` does. A
    /// routing loop whose rows all fix the same dimensions takes their
    /// [`Grid::fan_out`] once instead.
    pub fn matching_ranks(&self, partial: &[Option<usize>]) -> impl Iterator<Item = usize> {
        match self.try_matching_ranks(partial) {
            Ok(ranks) => ranks,
            Err(e) => panic!("{e}"),
        }
    }

    /// The matching ranks in order (the last free dimension varies
    /// fastest): the fixed coordinates' rank, the base, plus each offset
    /// of the partial's [`FanOut`].
    fn try_matching_ranks(
        &self,
        partial: &[Option<usize>],
    ) -> Result<impl Iterator<Item = usize>, MpcError> {
        if partial.len() != self.dims.len() {
            return Err(MpcError::BadArity {
                got: partial.len(),
                expected: self.dims.len(),
            });
        }
        let mut base = 0;
        for (&c, &d) in partial.iter().zip(&self.dims) {
            let c = c.unwrap_or(0);
            if c >= d {
                return Err(MpcError::BadCoordinate {
                    coord: c,
                    dim_size: d,
                });
            }
            base = base * d + c;
        }
        let fan = self.fan_out(|d| partial.get(d).is_some_and(Option::is_some));
        Ok(fan.offsets.into_iter().map(move |o| base + o))
    }

    /// The placement shape of every row that fixes the dimensions `fixed`
    /// selects and leaves the others free (`*`): the strides of all
    /// dimensions and the rank offsets of the free dimensions' matches,
    /// in [`Grid::matching`] order. A row whose fixed coordinate along
    /// dimension `d` is `c_d` goes to `base + o` for every offset `o`,
    /// with `base = Σ_d c_d · stride(d)` — one multiply-add per fixed
    /// dimension and one add per destination, where enumerating the
    /// matches afresh costs a `%` and a `/` per destination.
    ///
    /// ```
    /// use parqp_mpc::Grid;
    ///
    /// // Triangle on 2×3×4: R(x, y) fixes x and y, broadcasts along z.
    /// let g = Grid::new(vec![2, 3, 4]);
    /// let fan = g.fan_out(|d| d < 2);
    /// assert!(fan.ranks(0).eq(0..4));
    /// let base = fan.strides()[0] + 2 * fan.strides()[1]; // (x, y) = (1, 2)
    /// assert!(fan.ranks(base).eq(g.matching_ranks(&[Some(1), Some(2), None])));
    /// ```
    pub fn fan_out(&self, fixed: impl Fn(usize) -> bool) -> FanOut {
        let mut strides = vec![1; self.dims.len()];
        let mut stride = 1;
        for (s, &d) in strides.iter_mut().zip(&self.dims).rev() {
            *s = stride;
            stride *= d;
        }
        // Dimension 0 outermost: each free dimension expands every offset
        // so far into its `d` steps, side by side.
        let mut offsets = vec![0];
        for (dim, (&d, &s)) in self.dims.iter().zip(&strides).enumerate() {
            if !fixed(dim) {
                offsets = offsets
                    .iter()
                    .flat_map(|&o| (0..d).map(move |c| o + c * s))
                    .collect();
            }
        }
        FanOut { strides, offsets }
    }

    /// Number of servers a partial coordinate matches (`∏` of the free dims).
    pub fn matching_count(&self, partial: &[Option<usize>]) -> usize {
        partial
            .iter()
            .zip(&self.dims)
            .map(|(c, &d)| if c.is_some() { 1 } else { d })
            .product()
    }
}

/// Where the rows of one atom go on a [`Grid`]: the strides of its
/// dimensions and the rank offsets its free dimensions span (see
/// [`Grid::fan_out`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FanOut {
    /// Per dimension, how far one step along it moves a rank.
    strides: Vec<usize>,
    /// The free dimensions' matches relative to the base, in
    /// [`Grid::matching`] order; the first is always 0.
    offsets: Vec<usize>,
}

impl FanOut {
    /// Per dimension, how far one step along it moves a rank (row-major:
    /// the last dimension's stride is 1).
    #[inline]
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// The free dimensions' matches relative to a row's base rank, in
    /// [`Grid::matching`] order; the first is always 0.
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The destinations of a row whose fixed coordinates put it at rank
    /// `base`.
    #[inline]
    pub fn ranks(&self, base: usize) -> impl Iterator<Item = usize> + '_ {
        self.offsets.iter().map(move |&o| base + o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parqp_testkit::prelude::*;

    #[test]
    fn rank_roundtrip() {
        let g = Grid::new(vec![2, 3, 4]);
        assert_eq!(g.len(), 24);
        for r in 0..g.len() {
            assert_eq!(g.rank(&g.coords(r)), r);
        }
    }

    #[test]
    fn row_major_order() {
        let g = Grid::new(vec![2, 3]);
        assert_eq!(g.rank(&[0, 0]), 0);
        assert_eq!(g.rank(&[0, 1]), 1);
        assert_eq!(g.rank(&[0, 2]), 2);
        assert_eq!(g.rank(&[1, 0]), 3);
        assert_eq!(g.coords(4), vec![1, 1]);
    }

    #[test]
    fn line_grid() {
        let g = Grid::line(5);
        assert_eq!(g.dims(), &[5]);
        assert_eq!(g.len(), 5);
        assert_eq!(g.rank(&[3]), 3);
    }

    #[test]
    fn matching_full_wildcard() {
        let g = Grid::new(vec![2, 2]);
        let all = g.matching(&[None, None]);
        assert_eq!(all, vec![0, 1, 2, 3]);
        assert_eq!(g.matching_count(&[None, None]), 4);
    }

    #[test]
    fn matching_partial() {
        let g = Grid::new(vec![2, 3, 2]);
        // fix middle coordinate to 1: servers (i, 1, k) for i in 0..2, k in 0..2
        let m = g.matching(&[None, Some(1), None]);
        assert_eq!(m.len(), 4);
        assert_eq!(g.matching_count(&[None, Some(1), None]), 4);
        for r in m {
            assert_eq!(g.coords(r)[1], 1);
        }
    }

    #[test]
    fn matching_fully_fixed() {
        let g = Grid::new(vec![3, 3]);
        let m = g.matching(&[Some(2), Some(0)]);
        assert_eq!(m, vec![g.rank(&[2, 0])]);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_dim_rejected() {
        Grid::new(vec![2, 0]);
    }

    #[test]
    fn try_variants_return_typed_errors() {
        use crate::error::MpcError;
        assert_eq!(
            Grid::try_new(vec![2, 0]),
            Err(MpcError::EmptyTopology { what: "grid" })
        );
        let g = Grid::new(vec![2, 3]);
        assert_eq!(g.try_rank(&[1, 2]), Ok(5));
        assert_eq!(
            g.try_rank(&[1]),
            Err(MpcError::BadArity {
                got: 1,
                expected: 2
            })
        );
        assert_eq!(
            g.try_rank(&[0, 3]),
            Err(MpcError::BadCoordinate {
                coord: 3,
                dim_size: 3
            })
        );
        assert_eq!(g.try_coords(5), Ok(vec![1, 2]));
        assert_eq!(g.try_coords(6), Err(MpcError::BadRank { rank: 6, size: 6 }));
        assert!(g.try_matching_ranks(&[None]).is_err());
        assert_eq!(
            g.try_matching_ranks(&[Some(1), None]).map(Iterator::count),
            Ok(3)
        );
    }

    #[test]
    fn matching_enumerates_in_row_major_order_of_the_free_dims() {
        // The definition: every coordinate vector agreeing with the
        // partial, dimension 0 outermost.
        fn by_definition(g: &Grid, partial: &[Option<usize>]) -> Vec<usize> {
            (0..g.len())
                .filter(|&r| {
                    let coords = g.coords(r);
                    partial
                        .iter()
                        .zip(&coords)
                        .all(|(p, c)| p.is_none_or(|p| p == *c))
                })
                .collect()
        }
        let g = Grid::new(vec![3, 1, 2, 4]);
        let choices = |d: usize| (0..d).map(Some).chain([None]);
        for a in choices(3) {
            for b in choices(1) {
                for c in choices(2) {
                    for d in choices(4) {
                        let partial = [a, b, c, d];
                        assert_eq!(
                            g.matching(&partial),
                            by_definition(&g, &partial),
                            "{partial:?}"
                        );
                    }
                }
            }
        }
        assert_eq!(
            g.try_matching_ranks(&[None, Some(1), None, None])
                .map(Iterator::count),
            Err(MpcError::BadCoordinate {
                coord: 1,
                dim_size: 1
            })
        );
    }

    /// The enumeration [`Grid::fan_out`] replaced: the `t`-th match is
    /// the fixed coordinates' rank plus `t` written in the mixed radix
    /// of the free dimensions, one `%` and one `/` per free dimension
    /// per destination.
    fn mixed_radix(g: &Grid, partial: &[Option<usize>]) -> Vec<usize> {
        let base = partial
            .iter()
            .zip(g.dims())
            .fold(0, |r, (c, &d)| r * d + c.unwrap_or(0));
        (0..g.matching_count(partial))
            .map(|t| {
                let (mut rank, mut rest, mut stride) = (base, t, 1);
                for (c, &d) in partial.iter().zip(g.dims()).rev() {
                    if c.is_none() {
                        rank += rest % d * stride;
                        rest /= d;
                    }
                    stride *= d;
                }
                rank
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn fan_out_is_the_mixed_radix_enumeration(seed in any::<u64>()) {
            let mut rng = Rng::seed_from_u64(seed);
            let dims: Vec<usize> = (0..rng.gen_range(1usize..=5))
                .map(|_| rng.gen_range(1usize..=5))
                .collect();
            let g = Grid::new(dims.clone());
            let partial: Vec<Option<usize>> = dims
                .iter()
                .map(|&d| rng.gen_bool(0.5).then(|| rng.gen_range(0..d)))
                .collect();
            let fan = g.fan_out(|d| partial[d].is_some());
            let base: usize = partial
                .iter()
                .zip(fan.strides())
                .map(|(c, s)| c.unwrap_or(0) * s)
                .sum();
            let want = mixed_radix(&g, &partial);
            prop_assert_eq!(fan.ranks(base).collect::<Vec<_>>(), want.clone(), "{:?} {:?}", dims, partial);
            prop_assert_eq!(g.matching(&partial), want);
            prop_assert_eq!(fan.ranks(0).next(), Some(0));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_coord_rejected() {
        Grid::new(vec![2, 2]).rank(&[0, 2]);
    }

    #[test]
    fn matching_covers_grid_exactly_once_when_partitioned() {
        // Fixing one dimension partitions the grid into disjoint slabs.
        let g = Grid::new(vec![3, 4]);
        let mut seen = vec![false; g.len()];
        for c in 0..3 {
            for r in g.matching(&[Some(c), None]) {
                assert!(!seen[r]);
                seen[r] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
