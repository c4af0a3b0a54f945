//! E11 — GYM versus HyperCube: the output-size crossover (slide 78).
//!
//! GYM's load is `(IN + OUT)/p`; the one-round load is `IN/p^{1/τ*}`.
//! GYM wins exactly while `OUT < p^{1−1/τ*}·IN` (minus lower-order
//! terms). We sweep OUT on a chain-3 query by planting uniform degrees
//! `d` (so `OUT ≈ N·d²·…`) and report who wins where, against the
//! predicted crossover.

use crate::table::fmt;
use crate::Table;
use parqp::data::generate;
use parqp::join::{gym, multiway};
use parqp::model;
use parqp::prelude::*;
use parqp_data::Relation;

/// Run E11.
pub fn run() -> Vec<Table> {
    let p = 64usize;
    let n = 8000usize;
    let q = Query::chain(3);
    let tau = model::tau_star(&q); // chain-3: τ* = 2
    let tree = Ghd::join_tree(&q).expect("chains are acyclic");

    let mut t = Table::new(
        format!(
            "E11 (slide 78): GYM vs HyperCube on chain-3, N = {n}, p = {p} — \
             predicted crossover at OUT ≈ p^(1-1/τ*)·IN = {}",
            fmt(model::gym_crossover_output(3.0 * n as f64, p as f64, tau))
        ),
        &[
            "degree d",
            "OUT",
            "GYM L",
            "GYM r",
            "HC L",
            "HC r",
            "winner (L)",
            "paper winner",
        ],
    );
    let input = 3.0 * n as f64;
    let crossover = model::gym_crossover_output(input, p as f64, tau);
    for d in [1usize, 2, 4, 8, 16, 32] {
        // All three relations share keys 0..n/d on both columns, each key
        // appearing d times ⇒ each join multiplies cardinality by ~d.
        let rels: Vec<Relation> = (0..3)
            .map(|i| {
                let mut r = generate::uniform_degree_pairs(n, d, 0, (n / d) as u64, 70 + i);
                // Make column 1 range over the shared key space too.
                r = Relation::from_rows(
                    2,
                    r.iter()
                        .map(|row| [row[0], row[1] % (n / d) as u64])
                        .collect::<Vec<_>>(),
                );
                r
            })
            .collect();
        let mut out = 0usize;
        parqp::query::evaluate_each(&q, &rels, |_| out += 1);
        let g = gym::gym(&q, &rels, &tree, p, 5, true);
        let h = multiway::hypercube(&q, &rels, p, 5);
        let gl = g.report.max_load_tuples();
        let hl = h.report.max_load_tuples();
        let winner = if gl <= hl { "GYM" } else { "HyperCube" };
        let paper = if (out as f64) < crossover {
            "GYM"
        } else {
            "HyperCube"
        };
        t.row(vec![
            d.to_string(),
            out.to_string(),
            gl.to_string(),
            g.report.num_rounds().to_string(),
            hl.to_string(),
            h.report.num_rounds().to_string(),
            winner.into(),
            paper.into(),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn gym_wins_small_out_hypercube_wins_large_out() {
        let t = &super::run()[0];
        let first = &t.rows[0];
        let last = t.rows.last().expect("rows");
        assert_eq!(first[6], "GYM", "small OUT favours GYM: {first:?}");
        assert_eq!(
            last[6], "HyperCube",
            "huge OUT favours the one-round algorithm: {last:?}"
        );
        // The measured winner flips exactly once along the sweep.
        let flips = t.rows.windows(2).filter(|w| w[0][6] != w[1][6]).count();
        assert_eq!(flips, 1, "one crossover expected: {:?}", t.rows);
    }
}
