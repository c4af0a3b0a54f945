//! E04 — two-way joins under arbitrary skew (slides 29–31).
//!
//! Sweeps Zipf skew from none to extreme and compares the parallel hash
//! join (which degrades toward `L = IN`), the heavy/light skew join and
//! the sort-based join (both `O(√(OUT/p) + IN/p)`) against the paper's
//! bound.

use crate::table::fmt;
use crate::Table;
use parqp::data::generate;
use parqp::data::stats::join_output_size;
use parqp::join::twoway;
use parqp_data::Relation;

/// Run E04.
pub fn run() -> Vec<Table> {
    let p = 16; // keep p well below N^{1/3}·… so PSRS's p² sample term stays small
    let n = 30_000;
    let mut t = Table::new(
        format!("E04 (slides 29–31): skew sweep — |R| = |S| = {n}, p = {p}"),
        &[
            "workload",
            "OUT",
            "hash L",
            "skew L",
            "sort L",
            "paper √(OUT/p)+IN/p",
        ],
    );
    let cases: Vec<(String, Relation, Relation)> = vec![
        (
            "no skew".into(),
            generate::key_unique_pairs(n, 1, 1 << 40, 1),
            generate::key_unique_pairs(n, 0, 1 << 40, 2),
        ),
        (
            "zipf 0.8".into(),
            generate::zipf_pairs(n, n / 4, 0.8, 1, 3),
            generate::zipf_pairs(n, n / 4, 0.8, 0, 4),
        ),
        (
            "zipf 1.2".into(),
            generate::zipf_pairs(n, n / 4, 1.2, 1, 5),
            generate::zipf_pairs(n, n / 4, 1.2, 0, 6),
        ),
        (
            "one heavy key".into(),
            generate::planted_heavy_pairs(n, &[7], n / 4, 1, 1 << 30, 7),
            generate::planted_heavy_pairs(n, &[7], n / 4, 0, 1 << 30, 8),
        ),
        (
            "extreme".into(),
            generate::constant_key_pairs(n / 10, 7, 1),
            generate::constant_key_pairs(n / 10, 7, 0),
        ),
    ];
    for (name, r, s) in &cases {
        let out = join_output_size(r, 1, s, 0);
        let input = (r.len() + s.len()) as f64;
        let hash = twoway::hash_join(r, 1, s, 0, p, 42);
        let skew = twoway::skew_join(r, 1, s, 0, p, 42);
        let sort = twoway::sort_merge_join(r, 1, s, 0, p, 42);
        let bound = (out as f64 / p as f64).sqrt() + input / p as f64;
        t.row(vec![
            name.clone(),
            out.to_string(),
            hash.report.max_load_tuples().to_string(),
            skew.report.max_load_tuples().to_string(),
            sort.report.max_load_tuples().to_string(),
            fmt(bound),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn skew_resilient_wins_under_extreme_skew() {
        let t = &super::run()[0];
        let extreme = t.rows.last().expect("rows");
        let hash: f64 = extreme[2].parse().expect("hash L");
        let skew: f64 = extreme[3].parse().expect("skew L");
        let sort: f64 = extreme[4].parse().expect("sort L");
        let bound: f64 = extreme[5].parse().expect("bound");
        assert!(
            skew < hash / 2.0,
            "skew join must beat hash join: {skew} vs {hash}"
        );
        assert!(
            sort < hash / 2.0,
            "sort join must beat hash join: {sort} vs {hash}"
        );
        assert!(
            skew < 6.0 * bound,
            "skew join within a constant of the bound"
        );
        // Without skew, all three are near IN/p.
        let no_skew = &t.rows[0];
        let h0: f64 = no_skew[2].parse().expect("hash L");
        let b0: f64 = no_skew[5].parse().expect("bound");
        assert!(h0 < 2.5 * b0);
    }
}
