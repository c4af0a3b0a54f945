//! # parqp-matmul — conventional matrix multiplication in the MPC model
//!
//! Slides 107–127: dense `n × n` matrix multiplication with all `n³`
//! elementary products (Strassen-like algorithms are out of scope, as in
//! the tutorial), analyzed by communication `C`, load `L` and rounds `r`:
//!
//! | algorithm | communication | rounds |
//! |---|---|---|
//! | [`rect_block`] (rectangle-block, 1 round) | `C = Θ(n⁴/L)` | 1 |
//! | [`square_block`] (square-block, multi-round) | `C = Θ(n³/√L)` | `Θ(n³/(p·L^{3/2}))` (+ aggregation) |
//!
//! plus the SQL formulation of slide 108 ([`sql_matmul`]: `SELECT A.i,
//! B.k, SUM(A.v*B.v) FROM A, B WHERE A.j = B.j GROUP BY A.i, B.k`) as a
//! cross-check, and the closed-form cost model behind the slide 126
//! `C`-vs-`L` frontier. [`Matrix`] is `rows × cols`, and [`rect_block`]
//! and [`sql_matmul`] take any conforming `m×k · k×n` — slide 127's
//! non-square and sparse "Other Results" are the same code, not a copy.

pub mod cost;
pub mod dense;
pub mod rect;
pub mod sqlmm;
pub mod square;

pub use dense::{gemm_acc, Matrix, View};
pub use rect::rect_block;
pub use sqlmm::sql_matmul;
pub use square::square_block;

/// Result of a distributed matrix multiplication.
#[derive(Debug, Clone)]
pub struct MatMulRun {
    /// The product matrix, gathered (verification convenience).
    pub c: Matrix,
    /// Communication ledger of the run.
    pub report: parqp_mpc::LoadReport,
}
