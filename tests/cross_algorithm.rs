//! Cross-algorithm consistency: independent implementations of the same
//! semantics must agree — joins with joins, matmul with matmul, and the
//! LP layer with the measured behaviour of the algorithms it predicts.

use parqp::data::generate;
use parqp::join::{gym, multiway, plans, skewhc};
use parqp::matmul::{rect_block, sql_matmul, square_block, Matrix};
use parqp::model;
use parqp::prelude::*;
use parqp_data::Relation;

#[test]
fn four_engines_one_answer_chain() {
    let q = Query::chain(3);
    let rels: Vec<Relation> = (0..3)
        .map(|i| generate::uniform(2, 300, 60, 40 + i as u64))
        .collect();
    let tree = Ghd::join_tree(&q).expect("acyclic");
    // The atoms repeat rows, so the join is a bag with repeats: compare
    // sorted rows, which tell it from its set.
    let sorted = |run: JoinRun| {
        let mut rows = run.gathered();
        rows.sort();
        rows
    };
    let a = sorted(multiway::hypercube(&q, &rels, 16, 5));
    let b = sorted(skewhc::skewhc(&q, &rels, 16, 5));
    let c = sorted(plans::binary_join_plan(&q, &rels, 16, 5, None));
    let d = sorted(gym::gym(&q, &rels, &tree, 16, 5, true));
    assert!(a.canonical().len() < a.len());
    assert_eq!(a, b);
    assert_eq!(a, c);
    assert_eq!(a, d);
}

#[test]
fn gym_ghd_widths_agree_with_hypercube() {
    let n = 6;
    let q = Query::chain(n);
    // Small: the balanced GHD materializes a Cartesian product (IN^w).
    let rels: Vec<Relation> = (0..n)
        .map(|i| generate::uniform(2, 60, 25, 50 + i as u64))
        .collect();
    let reference = multiway::hypercube(&q, &rels, 8, 7).gathered().canonical();
    for ghd in [
        Ghd::chain_blocks(n, 2),
        Ghd::chain_blocks(n, 3),
        Ghd::chain_balanced(n),
    ] {
        let run = gym::gym_ghd(&q, &rels, &ghd, 8, 7);
        assert_eq!(
            run.gathered().canonical(),
            reference,
            "width {}",
            ghd.width()
        );
    }
}

#[test]
fn matmul_three_engines_agree() {
    let a = Matrix::random_int(24, 24, 6, 1.0, 1);
    let b = Matrix::random_int(24, 24, 6, 1.0, 2);
    let oracle = a.multiply(&b);
    assert!(sql_matmul(&a, &b, 8, 3).c.max_abs_diff(&oracle) < 1e-9);
    assert!(rect_block(&a, &b, 6, 6).c.max_abs_diff(&oracle) < 1e-9);
    assert!(square_block(&a, &b, 4, 16).c.max_abs_diff(&oracle) < 1e-9);
    assert!(square_block(&a, &b, 3, 5).c.max_abs_diff(&oracle) < 1e-9);
}

#[test]
fn lp_load_prediction_matches_measured_hypercube() {
    // The share LP predicts the per-relation load |S_j|/∏ shares; the
    // measured max load must sit within a small constant of it
    // (hashing adds concentration noise, replication counts all atoms).
    let q = Query::triangle();
    let n = 20_000;
    let g = generate::uniform(2, n, 1 << 40, 9);
    let rels = vec![g.clone(), g.clone(), g];
    let p = 64;
    let plan = parqp::lp::plan_shares(&q.hypergraph(), &[n as u64; 3], p);
    let predicted = parqp::lp::predicted_load(&q.hypergraph(), &[n as u64; 3], &plan.shares);
    let run = multiway::hypercube_with_shares(&q, &rels, &plan.shares, 5);
    let measured = run.report.max_load_tuples() as f64;
    // Three relations contribute; each ≈ predicted.
    assert!(
        measured < 3.0 * predicted * 1.5 && measured > predicted,
        "measured {measured}, per-relation prediction {predicted}"
    );
}

#[test]
fn skewhc_load_respects_psi_star_scaling() {
    // Skewed two-way join: SkewHC's load must scale like p^{-1/ψ*} = p^{-1/2}
    // while plain HyperCube stays flat at IN.
    let n = 4000;
    let r = generate::constant_key_pairs(n, 7, 1);
    let s = generate::constant_key_pairs(n, 7, 0);
    let q = Query::two_way();
    let rels = vec![r, s];
    let l16 = skewhc::skewhc(&q, &rels, 16, 3).report.max_load_tuples() as f64;
    let l256 = skewhc::skewhc(&q, &rels, 256, 3).report.max_load_tuples() as f64;
    let ratio = l16 / l256;
    // 16× more servers ⇒ ≈ 4× smaller load (ψ* = 2); allow generous slack
    // for integer shares at small group budgets.
    assert!(
        ratio > 2.0,
        "SkewHC skew scaling ratio {ratio} (l16={l16}, l256={l256})"
    );
    let hc16 = multiway::hypercube(&q, &rels, 16, 3)
        .report
        .max_load_tuples();
    let hc256 = multiway::hypercube(&q, &rels, 256, 3)
        .report
        .max_load_tuples();
    assert_eq!(
        hc16, hc256,
        "plain HyperCube cannot improve under extreme skew"
    );
}

#[test]
fn model_formulas_consistent_with_lp() {
    for q in [
        Query::triangle(),
        Query::two_way(),
        Query::chain(5),
        Query::semijoin_pair(),
    ] {
        let tau = model::tau_star(&q);
        let psi = model::psi_star_of(&q);
        assert!(psi >= tau - 1e-9, "{q}: ψ* ≥ τ*");
        // slide 54: ρ* ≤ … the AGM exponent with equal sizes N is N^{ρ*};
        // verify AGM(N,…,N) = N^{ρ*}.
        let n = 1000u64;
        let sizes = vec![n; q.num_atoms()];
        let agm = parqp::lp::agm_bound(&q.hypergraph(), &sizes);
        let rho = parqp::lp::fractional_edge_cover(&q.hypergraph()).value;
        assert!(
            (agm.ln() - rho * (n as f64).ln()).abs() < 1e-6,
            "{q}: AGM = N^ρ*"
        );
    }
}

#[test]
fn agm_bound_never_violated_empirically() {
    for seed in 0..5 {
        let q = Query::triangle();
        let g = generate::uniform(2, 300, 40, seed);
        let rels = vec![g.clone(), g.clone(), g];
        let out = parqp::query::evaluate(&q, &rels).len() as f64;
        let sizes: Vec<u64> = rels.iter().map(|r| r.len() as u64).collect();
        let agm = parqp::lp::agm_bound(&q.hypergraph(), &sizes);
        assert!(out <= agm + 1e-6, "seed {seed}: OUT {out} > AGM {agm}");
    }
}
