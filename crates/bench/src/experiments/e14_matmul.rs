//! E14 — matrix multiplication: the cost table and the `C`-vs-`L`
//! frontier (slides 122, 126).
//!
//! Table 1 reproduces slide 122: measured communication and rounds of
//! the rectangle-block and square-block algorithms against their closed
//! forms. Table 2 regenerates the slide 126 figure as a series: for a
//! grid of loads `L`, the 1-round frontier `n⁴/L`, the multi-round
//! frontier `n³/√L`, and the minimum rounds each load admits. Table 3
//! cross-checks the SQL formulation.

use crate::table::fmt;
use crate::Table;
use parqp::matmul::{cost, rect_block, sql_matmul, square_block, Matrix};

/// Run E14.
pub fn run() -> Vec<Table> {
    let n = 64usize;
    let a = Matrix::random(n, 1);
    let b = Matrix::random(n, 2);
    let oracle = a.multiply(&b);

    let mut t1 = Table::new(
        format!("E14a (slide 122): measured vs formula, n = {n}"),
        &[
            "algorithm",
            "L (words)",
            "rounds",
            "C measured",
            "C formula",
            "r formula",
        ],
    );
    for t in [4usize, 8, 16] {
        let run = rect_block(&a, &b, t, t);
        assert!(run.c.max_abs_diff(&oracle) < 1e-9);
        let l = (2 * t * n) as u64;
        t1.row(vec![
            format!("rect t={t}"),
            run.report.max_load_words().to_string(),
            run.report.num_rounds().to_string(),
            run.report.total_words().to_string(),
            fmt(cost::rect_comm(n as u64, l)),
            "1".into(),
        ]);
    }
    for (h, p) in [(4usize, 16usize), (8, 64), (8, 128), (16, 64)] {
        let run = square_block(&a, &b, h, p);
        assert!(run.c.max_abs_diff(&oracle) < 1e-9);
        let nb = n / h;
        let l = (2 * nb * nb) as u64;
        t1.row(vec![
            format!("square H={h} p={p}"),
            run.report.max_load_words().to_string(),
            run.report.num_rounds().to_string(),
            run.report.total_words().to_string(),
            fmt(cost::square_comm(n as u64, l)),
            fmt(cost::square_rounds(n as u64, l, p as u64)),
        ]);
    }

    let big_n = 1u64 << 10;
    let p = 1u64 << 6;
    let mut t2 = Table::new(
        format!("E14b (slide 126): the C-vs-L frontier, n = {big_n}, p = {p}"),
        &[
            "L",
            "1-round C = n⁴/L",
            "multi-round C = n³/√L",
            "min rounds at L",
        ],
    );
    // The frontier sweep stays below L = n² (= 2^20), where the 1-round
    // and multi-round curves cross and a single round becomes optimal.
    for log_l in [11u32, 13, 15, 17, 19] {
        let l = 1u64 << log_l;
        t2.row(vec![
            format!("2^{log_l}"),
            fmt(cost::lb_comm_one_round(big_n, l)),
            fmt(cost::lb_comm_multi_round(big_n, l)),
            cost::min_rounds_on_frontier(big_n, l, p).to_string(),
        ]);
    }

    let ai = Matrix::random_int(32, 32, 8, 1.0, 3);
    let bi = Matrix::random_int(32, 32, 8, 1.0, 4);
    let sql = sql_matmul(&ai, &bi, 16, 5);
    let rect = rect_block(&ai, &bi, 8, 8);
    let square = square_block(&ai, &bi, 4, 16);
    assert!(sql.c.max_abs_diff(&rect.c) < 1e-9);
    assert!(sql.c.max_abs_diff(&square.c) < 1e-9);
    let mut t3 = Table::new(
        "E14c (slide 108): SQL join+group-by cross-check, n = 32, p = 16",
        &["engine", "L (words)", "rounds", "C (words)"],
    );
    for (name, run) in [("SQL", &sql), ("rect t=8", &rect), ("square H=4", &square)] {
        t3.row(vec![
            name.into(),
            run.report.max_load_words().to_string(),
            run.report.num_rounds().to_string(),
            run.report.total_words().to_string(),
        ]);
    }
    vec![t1, t2, t3]
}

#[cfg(test)]
mod tests {
    #[test]
    fn formulas_match_measured_exactly_for_rect() {
        let tables = super::run();
        let t1 = &tables[0];
        for row in t1.rows.iter().filter(|r| r[0].starts_with("rect")) {
            let measured: f64 = row[3].parse().expect("C");
            let formula: f64 = row[4].parse().expect("formula");
            assert!((measured - formula).abs() < 1e-6, "{row:?}");
        }
    }

    #[test]
    fn frontier_monotone_and_ordered() {
        let tables = super::run();
        let t2 = &tables[1];
        let mut last_rounds = u64::MAX;
        for row in &t2.rows {
            let one: f64 = row[1].parse().expect("1-round C");
            let multi: f64 = row[2].parse().expect("multi C");
            assert!(
                multi < one,
                "multi-round frontier sits below 1-round: {row:?}"
            );
            let r: u64 = row[3].parse().expect("rounds");
            assert!(r <= last_rounds);
            last_rounds = r;
        }
    }
}
