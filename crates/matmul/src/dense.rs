//! Dense matrices, the serial oracle, and the one local kernel
//! ([`gemm_acc`]) every product in this crate runs through.

use parqp_mpc::Weight;
use parqp_testkit::Rng;

/// A dense `rows × cols` matrix of `f64`, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// The zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrices must be non-empty");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from row-major data.
    ///
    /// # Panics
    /// Panics unless `data.len() == rows·cols`.
    pub fn from_data(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "row-major data must have rows·cols entries"
        );
        Self { rows, cols, data }
    }

    /// A random square matrix with entries uniform in `[0, 1)`.
    pub fn random(n: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        Self {
            rows: n,
            cols: n,
            data: (0..n * n).map(|_| rng.gen_f64()).collect(),
        }
    }

    /// A random matrix with small *integer* entries in `0..max` (exact
    /// arithmetic, used by the SQL cross-check), each then kept with
    /// probability `density` in `(0, 1]` and zeroed otherwise (sparse
    /// generation). At density 1 nothing further is drawn, so a dense
    /// matrix depends on the seed and the entry count alone.
    pub fn random_int(rows: usize, cols: usize, max: u32, density: f64, seed: u64) -> Self {
        assert!(density > 0.0 && density <= 1.0, "density in (0, 1]");
        let mut rng = Rng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| {
                let v = f64::from(rng.gen_range(0..max));
                if density < 1.0 && rng.gen_f64() >= density {
                    0.0
                } else {
                    v
                }
            })
            .collect();
        Self { rows, cols, data }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Side length `n` of a square matrix.
    ///
    /// # Panics
    /// Panics unless the matrix is square.
    pub fn n(&self) -> usize {
        assert_eq!(self.rows, self.cols, "n() is the side of a square matrix");
        self.rows
    }

    /// Element `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Set element `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// Add `v` to element `(i, j)`.
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] += v;
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The non-empty `rows × cols` block whose top-left element is
    /// `(r0, c0)`, read where it lies.
    ///
    /// # Panics
    /// Panics if the block is empty or reaches outside the matrix.
    pub fn block(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> View<'_> {
        assert!(
            rows > 0 && cols > 0 && r0 + rows <= self.rows && c0 + cols <= self.cols,
            "a block is non-empty and inside the matrix"
        );
        View {
            data: &self.data[r0 * self.cols + c0..],
            stride: self.cols,
            rows,
            cols,
        }
    }

    /// The whole matrix as a [`View`].
    pub fn view(&self) -> View<'_> {
        self.block(0, 0, self.rows, self.cols)
    }

    /// Column `j` as an owned vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Number of non-zero entries.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|&&v| v != 0.0).count()
    }

    /// Serial conventional multiplication (the oracle): all
    /// `rows · cols · other.cols` products.
    ///
    /// # Panics
    /// Panics unless `self.cols == other.rows`.
    pub fn multiply(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimension mismatch");
        let mut c = Matrix::zeros(self.rows, other.cols);
        gemm_acc(&mut c.data, other.cols, self.view(), other.view());
        c
    }

    /// Max absolute element difference.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// A borrowed row-major `rows × cols` operand whose rows start `stride`
/// elements apart: a [`Matrix`] or a [block](Matrix::block) of one, read
/// where it lies. On the wire it weighs its `rows · cols` elements.
#[derive(Debug, Clone, Copy)]
pub struct View<'a> {
    data: &'a [f64],
    stride: usize,
    rows: usize,
    cols: usize,
}

impl<'a> View<'a> {
    fn row_slices(self) -> impl Iterator<Item = &'a [f64]> {
        let rows = self.data.chunks(self.stride).take(self.rows);
        rows.map(move |r| &r[..self.cols])
    }
}

impl Weight for View<'_> {
    fn words(&self) -> u64 {
        (self.rows * self.cols) as u64
    }
}

/// The local kernel: `C += A · B`, where `c` holds the `a.rows × b.cols`
/// result row-major with rows `c_stride` apart. Every `C` element
/// accumulates its products in ascending inner index and an exactly-zero
/// `A` element contributes nothing, so the result's bits depend on the
/// operands' values alone, never on strides or the running thread. The
/// loops run over row slices: no bounds check is left inside them and
/// the inner `c += a·b` vectorises.
///
/// # Panics
/// Panics unless `a.cols == b.rows` and `c` reaches the end of the last
/// result row.
pub fn gemm_acc(c: &mut [f64], c_stride: usize, a: View<'_>, b: View<'_>) {
    assert_eq!(a.cols, b.rows, "inner dimension mismatch");
    assert!(
        c_stride >= b.cols && c.len() >= (a.rows - 1) * c_stride + b.cols,
        "c ends before the last result row"
    );
    for (crow, arow) in c.chunks_mut(c_stride).zip(a.row_slices()) {
        for (&av, brow) in arow.iter().zip(b.row_slices()) {
            if av == 0.0 {
                continue;
            }
            // `brow` is `b.cols` long and ends the zip there.
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
}

#[cfg(test)]
impl Matrix {
    /// Every element's bit pattern, for tests that compare products
    /// bit for bit (`==` on `f64` equates `0.0` and `-0.0`).
    pub(crate) fn bits(&self) -> Vec<u64> {
        self.data.iter().map(|v| v.to_bits()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_multiplication() {
        let mut i3 = Matrix::zeros(3, 3);
        for i in 0..3 {
            i3.set(i, i, 1.0);
        }
        let a = Matrix::random(3, 1);
        assert!(a.multiply(&i3).max_abs_diff(&a) < 1e-12);
        assert!(i3.multiply(&a).max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn hand_computed_2x2() {
        let a = Matrix::from_data(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_data(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.multiply(&b);
        assert_eq!(c, Matrix::from_data(2, 2, vec![19.0, 22.0, 43.0, 50.0]));
    }

    #[test]
    fn rows_and_cols() {
        let a = Matrix::from_data(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.col(0), vec![1.0, 3.0]);
    }

    #[test]
    fn random_deterministic() {
        assert_eq!(Matrix::random(4, 9), Matrix::random(4, 9));
        assert_ne!(Matrix::random(4, 9), Matrix::random(4, 10));
    }

    #[test]
    fn add_accumulates() {
        let mut a = Matrix::zeros(2, 2);
        a.add(0, 1, 2.5);
        a.add(0, 1, 0.5);
        assert_eq!(a.get(0, 1), 3.0);
    }

    #[test]
    fn rectangular_product_and_shape() {
        let a = Matrix::from_data(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_data(3, 1, vec![1.0, 0.0, 2.0]);
        let c = a.multiply(&b);
        assert_eq!((c.rows(), c.cols()), (2, 1));
        assert_eq!(c, Matrix::from_data(2, 1, vec![7.0, 16.0]));
        assert_eq!(b.nnz(), 2);
    }

    /// The triple-indexed loop `gemm_acc` replaced, kept as the reference:
    /// ascending `k` per `C` element, exact-zero `A` elements skipped.
    fn gemm_reference(
        c: &mut [f64],
        c_stride: usize,
        a: &[f64],
        a_stride: usize,
        b: &[f64],
        b_stride: usize,
        (m, k, n): (usize, usize, usize),
    ) {
        for r in 0..m {
            for kk in 0..k {
                let av = a[r * a_stride + kk];
                if av == 0.0 {
                    continue;
                }
                for col in 0..n {
                    c[r * c_stride + col] += av * b[kk * b_stride + col];
                }
            }
        }
    }

    /// Non-integer entries (so rounding depends on summation order), a
    /// `1 − density` share of them exactly zero.
    fn fractional(rows: usize, cols: usize, density: f64, seed: u64) -> Matrix {
        let mut m = Matrix::random_int(rows, cols, 4, density, seed);
        let scale = Matrix::random(rows.max(cols), seed + 1);
        for (v, f) in m.data.iter_mut().zip(&scale.data) {
            *v *= f;
        }
        m
    }

    #[test]
    fn gemm_acc_equals_the_indexed_loop_bit_for_bit() {
        // Sub-blocks of larger matrices at an offset (so every stride
        // exceeds its width), non-square m×k×n, exact zeros in A, and a
        // C that does not start at zero.
        let big_a = fractional(13, 17, 0.6, 1);
        let big_b = Matrix::random(19, 3);
        let start_c = Matrix::random(23, 4);
        assert!(big_a.nnz() < 13 * 17, "the skip must be exercised");
        for (m, k, n) in [(5, 7, 3), (1, 9, 11), (8, 1, 8), (6, 6, 6), (11, 8, 13)] {
            let (ar, ac, br, bc, cr, cc) = (2, 3, 1, 4, 3, 2);
            let mut got = start_c.clone();
            let mut want = start_c.clone();
            gemm_acc(
                &mut got.data[cr * 23 + cc..],
                23,
                big_a.block(ar, ac, m, k),
                big_b.block(br, bc, k, n),
            );
            gemm_reference(
                &mut want.data[cr * 23 + cc..],
                23,
                &big_a.data[ar * 17 + ac..],
                17,
                &big_b.data[br * 19 + bc..],
                19,
                (m, k, n),
            );
            assert_eq!(got.bits(), want.bits(), "{m}x{k}x{n}");
            assert_ne!(got, start_c);
        }
    }

    #[test]
    fn multiply_is_the_kernel_on_whole_matrices() {
        let a = fractional(9, 14, 0.5, 5);
        let b = fractional(14, 6, 1.0, 7);
        let mut want = Matrix::zeros(9, 6);
        gemm_reference(&mut want.data, 6, &a.data, 14, &b.data, 6, (9, 14, 6));
        assert_eq!(a.multiply(&b).bits(), want.bits());
    }

    #[test]
    #[should_panic(expected = "inside the matrix")]
    fn block_outside_the_matrix_rejected() {
        Matrix::zeros(4, 4).block(2, 2, 3, 1);
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn dimension_mismatch_rejected() {
        let a = Matrix::zeros(3, 4);
        let b = Matrix::zeros(5, 3);
        a.multiply(&b);
    }
}
