//! Adversarial and pathological inputs: every two-way algorithm must
//! stay correct (and the skew-resilient ones bounded) on the inputs that
//! break naive implementations — all-equal keys, sequential keys,
//! bit-pattern keys that stress weak hash functions, empty sides,
//! singleton relations, and self-joins.

use parqp_data::stats::join_output_size;
use parqp_data::{generate, Relation};
use parqp_join::common::twoway_oracle;
use parqp_join::twoway;

fn pathological_inputs() -> Vec<(&'static str, Relation)> {
    let sequential = Relation::from_rows(2, (0..500u64).map(|i| [i, i]).collect::<Vec<_>>());
    let powers_of_two =
        Relation::from_rows(2, (0..63u64).map(|i| [1u64 << i, i]).collect::<Vec<_>>());
    let high_bits = Relation::from_rows(2, (0..400u64).map(|i| [i << 48, i]).collect::<Vec<_>>());
    let all_equal = generate::constant_key_pairs(400, u64::MAX, 0);
    let singleton = Relation::from_rows(2, [[7, 7]]);
    let two_values = Relation::from_rows(2, (0..300u64).map(|i| [i % 2, i]).collect::<Vec<_>>());
    vec![
        ("sequential", sequential),
        ("powers_of_two", powers_of_two),
        ("high_bits", high_bits),
        ("all_equal_umax", all_equal),
        ("singleton", singleton),
        ("two_values", two_values),
    ]
}

#[test]
fn all_twoway_algorithms_survive_pathological_inputs() {
    let inputs = pathological_inputs();
    for (rn, r) in &inputs {
        for (sn, s) in &inputs {
            let expect = twoway_oracle(r, 0, s, 0).canonical();
            for p in [1usize, 7, 16] {
                let runs = [
                    ("hash", twoway::hash_join(r, 0, s, 0, p, 3)),
                    ("skew", twoway::skew_join(r, 0, s, 0, p, 3)),
                    ("sort", twoway::sort_merge_join(r, 0, s, 0, p, 3)),
                ];
                for (alg, run) in runs {
                    assert_eq!(
                        run.gathered().canonical(),
                        expect,
                        "{alg} wrong on {rn} ⋈ {sn} at p = {p}"
                    );
                }
            }
        }
    }
}

#[test]
fn self_join_consistency() {
    // R ⋈ R on the same column: every tuple pairs with every same-key
    // tuple, including itself.
    let r = generate::uniform_degree_pairs(300, 3, 0, 1 << 20, 5);
    let expect = twoway_oracle(&r, 0, &r, 0).canonical();
    for run in [
        twoway::hash_join(&r, 0, &r, 0, 8, 9),
        twoway::skew_join(&r, 0, &r, 0, 8, 9),
        twoway::sort_merge_join(&r, 0, &r, 0, 8, 9),
    ] {
        assert_eq!(run.gathered().canonical(), expect);
    }
}

#[test]
fn skew_resilient_loads_bounded_on_two_heavy_values() {
    // Two maximally heavy values: the skew join must give each its own
    // grid; load stays near 2√(OUT/p), not IN.
    let n = 2000;
    let mut r = generate::constant_key_pairs(n / 2, 1, 0);
    r.extend_from(&generate::constant_key_pairs(n / 2, 2, 0));
    let mut s = generate::constant_key_pairs(n / 2, 1, 0);
    s.extend_from(&generate::constant_key_pairs(n / 2, 2, 0));
    let p = 64;
    let run = twoway::skew_join(&r, 0, &s, 0, p, 7);
    let out = join_output_size(&r, 0, &s, 0);
    assert_eq!(out, 2 * (n as u64 / 2) * (n as u64 / 2));
    let bound = 2.0 * (out as f64 / p as f64).sqrt() + (2 * n) as f64 / p as f64;
    let l = run.report.max_load_tuples() as f64;
    assert!(l < 3.0 * bound, "L = {l} vs bound {bound}");
}

#[test]
fn weak_hash_stress_distinct_loads_stay_reasonable() {
    // Keys differing only in high bits stress multiplicative hashers; the
    // hash join's load must stay near IN/p, not collapse onto one server.
    let n = 8192u64;
    let r = Relation::from_rows(2, (0..n).map(|i| [i << 50, i]).collect::<Vec<_>>());
    let s = Relation::from_rows(2, (0..n).map(|i| [i << 50, i + 1]).collect::<Vec<_>>());
    let p = 16;
    let run = twoway::hash_join(&r, 0, &s, 0, p, 11);
    let ideal = (2 * n) as f64 / p as f64;
    let l = run.report.max_load_tuples() as f64;
    assert!(
        l < 1.5 * ideal,
        "high-bit keys skewed the hash: L = {l} vs {ideal}"
    );
}

#[test]
fn aggregation_on_pathological_groups() {
    use parqp_join::aggregate::*;
    for (name, rel) in pathological_inputs() {
        let expect = group_sum_oracle(&rel, 0, 1);
        for run in [
            hash_group_sum(&rel, 0, 1, 8, 3),
            combiner_group_sum(&rel, 0, 1, 8, 3),
            tree_group_sum(&rel, 0, 1, 8, 3),
        ] {
            let mut got = run.gathered();
            got.sort();
            assert_eq!(got, expect, "{name}");
        }
    }
}
