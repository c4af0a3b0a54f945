//! Matrix multiplication three ways (slides 107–126): as a SQL query
//! (join + group-by), as the 1-round rectangle-block algorithm, and as
//! the multi-round square-block algorithm — all on the same simulated
//! cluster, all producing the same matrix.
//!
//! ```text
//! cargo run --release --example matmul_sql
//! ```

use parqp::matmul::{cost, rect_block, sql_matmul, square_block, Matrix};

fn main() {
    let n = 64;
    let p = 64;
    let a = Matrix::random_int(n, n, 10, 1.0, 1);
    let b = Matrix::random_int(n, n, 10, 1.0, 2);
    let oracle = a.multiply(&b);

    // SELECT A.i, B.k, SUM(A.v*B.v) FROM A, B WHERE A.j = B.j GROUP BY A.i, B.k
    let sql = sql_matmul(&a, &b, p, 42);
    // Rectangle-block: t rows × t cols per processor, one round.
    let t = 16;
    let rect = rect_block(&a, &b, t, t);
    // Square-block: H×H blocking, groups G_z, H rounds at p = H².
    let h = 8;
    let square = square_block(&a, &b, h, h * h);

    println!("n = {n}, all entries integer — results must agree exactly\n");
    println!(
        "{:<18} {:>8} {:>7} {:>12} {:>10}",
        "algorithm", "L(words)", "rounds", "C(words)", "servers"
    );
    for (name, report) in [
        ("SQL join+groupby", &sql.report),
        ("rectangle-block", &rect.report),
        ("square-block", &square.report),
    ] {
        println!(
            "{:<18} {:>8} {:>7} {:>12} {:>10}",
            name,
            report.max_load_words(),
            report.num_rounds(),
            report.total_words(),
            report.servers,
        );
    }
    assert!(sql.c.max_abs_diff(&oracle) < 1e-9);
    assert!(rect.c.max_abs_diff(&oracle) < 1e-9);
    assert!(square.c.max_abs_diff(&oracle) < 1e-9);

    let l_rect = (2 * t * n) as u64;
    let nb = n / h;
    let l_square = (2 * nb * nb) as u64;
    println!("\npaper formulas (slides 110, 122):");
    println!(
        "  rectangle-block: C = 4n⁴/L = {:.0} (measured {})",
        cost::rect_comm(n as u64, l_rect),
        rect.report.total_words()
    );
    println!(
        "  square-block:    C = 2√2·n³/√L = {:.0} (measured {})",
        cost::square_comm(n as u64, l_square),
        square.report.total_words()
    );
    println!(
        "  square-block beats rectangle-block in C whenever L ≪ n² — \
         the slide 126 frontier"
    );
}
