//! Dense matrices and the serial oracle.

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
        let n = other.cols;
        let mut c = Matrix::zeros(self.rows, n);
        // i-k-j loop order for cache-friendly row access.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let brow = other.row(k);
                let crow = &mut c.data[i * n..(i + 1) * n];
                for (cv, bv) in crow.iter_mut().zip(brow) {
                    *cv += a * bv;
                }
            }
        }
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

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn dimension_mismatch_rejected() {
        let a = Matrix::zeros(3, 4);
        let b = Matrix::zeros(5, 3);
        a.multiply(&b);
    }
}
