//! Row-for-row parity with the build/probe loops the `KeyIndex` kernel
//! replaced.
//!
//! Each digest below was printed by this same file run against the
//! commit before the kernel (`FastMap<Vec<Value>, Vec<…>>` tables in
//! `local_hash_join`, `gym`, `plans` and `subgraph`). A digest covers
//! every server's fragment in order — arity, length, then the `raw()`
//! words — so it moves if a single output row moves, is duplicated or
//! changes server, which canonical-set comparisons cannot see.
//!
//! To re-derive them: check out the parent commit, copy this file into
//! its `crates/join/tests/` and run it; each test fails listing every
//! digest it computed next to the pinned one.

use parqp_data::fasthash::FxHasher;
use parqp_data::{generate, Relation};
use parqp_join::common::{joined_arity, local_hash_join, JoinRun};
use parqp_join::gym::{gym, gym_ghd};
use parqp_join::plans::{binary_join_plan, max_intermediate_size};
use parqp_join::subgraph::{expansion_join, expansion_join_with_order};
use parqp_query::{Ghd, Query};
use std::hash::Hasher;

fn digest(fragments: &[Relation]) -> u64 {
    let mut h = FxHasher::default();
    for f in fragments {
        h.write_usize(f.arity());
        h.write_usize(f.len());
        for &w in f.raw() {
            h.write_u64(w);
        }
    }
    h.finish()
}

/// Digests that disagree with their pins, gathered so that one run
/// reports all of them.
#[derive(Default)]
struct Pins(Vec<String>);

impl Pins {
    fn check(&mut self, what: &str, got: u64, want: u64) {
        if got != want {
            self.0
                .push(format!("{what}: {got:#018x} != pinned {want:#018x}"));
        }
    }

    fn finish(self) {
        assert!(self.0.is_empty(), "{:#?}", self.0);
    }
}

fn run_digest(run: &JoinRun) -> u64 {
    digest(&run.outputs) ^ run.report.total_words().rotate_left(17) ^ run.report.num_rounds() as u64
}

fn uniform_rels(n: usize, rows: usize, domain: u64, seed: u64) -> Vec<Relation> {
    (0..n)
        .map(|i| generate::uniform(2, rows, domain, seed + i as u64))
        .collect()
}

#[test]
fn local_hash_join_rows_and_order() {
    let cases: [(&str, Relation, Relation, u64); 4] = [
        (
            "uniform with duplicates",
            generate::uniform(2, 600, 40, 1),
            generate::uniform(2, 500, 40, 2),
            0xd005_69e3_707f_de00,
        ),
        (
            "zipf build side",
            generate::zipf_pairs(800, 50, 1.2, 1, 3),
            generate::uniform(2, 300, 50, 4),
            0x060d_adbd_9da7_c20a,
        ),
        (
            "every row on one key",
            generate::constant_key_pairs(70, 9, 1),
            generate::constant_key_pairs(30, 9, 0),
            0xee79_000d_fcf1_dc80,
        ),
        (
            "empty probe side",
            generate::uniform(2, 50, 10, 5),
            Relation::new(2),
            0x27d0_3dca_d77b_42d6,
        ),
    ];
    let mut pins = Pins::default();
    for (what, r, s, want) in cases {
        let (r_rows, s_rows) = (r.to_rows(), s.to_rows());
        let mut out = Relation::new(joined_arity(2, 2));
        local_hash_join(&r_rows, 1, &s_rows, 0, &mut out);
        pins.check(what, digest(&[out]), want);
    }
    pins.finish();
}

#[test]
fn gym_fragments_and_ledger() {
    let star = Query::star(4);
    let star_rels = uniform_rels(4, 200, 40, 10);
    let chain = Query::chain(4);
    let chain_rels = uniform_rels(4, 150, 30, 20);
    let chain_tree = Ghd::join_tree(&chain).expect("chains are acyclic");
    let tree64 = Query::slide64_tree();
    let tree64_rels = uniform_rels(5, 150, 30, 30);
    let tree64_tree = Ghd::join_tree(&tree64).expect("acyclic");
    let product = Query::product();
    let product_rels = vec![
        generate::uniform(1, 50, 500, 51),
        generate::uniform(1, 60, 500, 52),
    ];
    let product_tree = Ghd::join_tree(&product).expect("acyclic");

    let cases: [(&str, JoinRun, u64); 8] = [
        (
            "star vanilla",
            gym(&star, &star_rels, &Ghd::star_flat(&star), 8, 3, false),
            0x6aaa_17d7_6c5e_6a34,
        ),
        (
            "star optimized",
            gym(&star, &star_rels, &Ghd::star_flat(&star), 8, 3, true),
            0xb98a_08da_3a9a_c04c,
        ),
        (
            "chain vanilla",
            gym(&chain, &chain_rels, &chain_tree, 8, 5, false),
            0x367f_a442_89a9_2cab,
        ),
        (
            "chain optimized",
            gym(&chain, &chain_rels, &chain_tree, 8, 5, true),
            0x367f_a442_89a9_2cab,
        ),
        (
            "slide-64 tree vanilla",
            gym(&tree64, &tree64_rels, &tree64_tree, 8, 7, false),
            0x849b_c1ed_961c_28c0,
        ),
        (
            "slide-64 tree optimized",
            gym(&tree64, &tree64_rels, &tree64_tree, 8, 7, true),
            0x849b_c1ed_961c_28c0,
        ),
        (
            "forest (product) vanilla",
            gym(&product, &product_rels, &product_tree, 8, 15, false),
            0xd456_2092_7db3_4acc,
        ),
        (
            "gym_ghd chain blocks of 2",
            gym_ghd(&chain, &chain_rels, &Ghd::chain_blocks(4, 2), 8, 11),
            0xae2a_b678_94f7_f97d,
        ),
    ];
    let mut pins = Pins::default();
    for (what, run, want) in cases {
        assert!(run.output_size() > 0, "{what}: a vacuous case pins nothing");
        pins.check(what, run_digest(&run), want);
    }
    pins.finish();
}

#[test]
fn binary_plan_fragments_and_ledger() {
    let chain = Query::chain(4);
    let chain_rels = uniform_rels(4, 150, 30, 0);
    let triangle = Query::triangle();
    let g = generate::random_symmetric_graph(40, 300, 8);
    let triangle_rels = vec![g.clone(), g.clone(), g];
    let product = Query::product();
    let product_rels = vec![
        generate::uniform(1, 40, 500, 61),
        generate::uniform(1, 30, 500, 62),
    ];

    struct Case<'a> {
        what: &'a str,
        query: &'a Query,
        rels: &'a [Relation],
        order: Option<Vec<usize>>,
        run: u64,
        max_intermediate: usize,
    }
    let cases = [
        Case {
            what: "chain",
            query: &chain,
            rels: &chain_rels,
            order: None,
            run: 0x5455_58a8_4154_2d71,
            max_intermediate: 19_289,
        },
        Case {
            what: "chain reordered",
            query: &chain,
            rels: &chain_rels,
            order: Some(vec![2, 1, 3, 0]),
            run: 0x5a70_0701_35a3_9e32,
            max_intermediate: 19_289,
        },
        Case {
            what: "triangle",
            query: &triangle,
            rels: &triangle_rels,
            order: None,
            run: 0x5683_48f5_20f1_aab8,
            max_intermediate: 2232,
        },
        Case {
            what: "product (cartesian round)",
            query: &product,
            rels: &product_rels,
            order: None,
            run: 0xeb8f_ac42_1cd6_c97c,
            max_intermediate: 1200,
        },
    ];
    let mut pins = Pins::default();
    for c in cases {
        let run = binary_join_plan(c.query, c.rels, 8, 9, c.order.clone());
        assert!(
            run.output_size() > 0,
            "{}: a vacuous case pins nothing",
            c.what
        );
        pins.check(c.what, run_digest(&run), c.run);
        let max = max_intermediate_size(c.query, c.rels, c.order);
        pins.check(
            &format!("{} max intermediate", c.what),
            max as u64,
            c.max_intermediate as u64,
        );
    }
    pins.finish();
}

#[test]
fn expansion_join_fragments_and_ledger() {
    let g = generate::random_symmetric_graph(40, 300, 8);
    let triangle = Query::triangle();
    let square = Query::cycle(4);
    let cases: [(&str, JoinRun, u64); 3] = [
        (
            "triangle",
            expansion_join(&triangle, &[g.clone(), g.clone(), g.clone()], 8, 5),
            0xfa60_8030_7997_79a6,
        ),
        (
            "triangle, order z x y",
            expansion_join_with_order(
                &triangle,
                &[g.clone(), g.clone(), g.clone()],
                8,
                5,
                &[2, 0, 1],
            ),
            0xf254_cfaa_8fdd_f0c0,
        ),
        (
            "4-cycle",
            expansion_join(&square, &[g.clone(), g.clone(), g.clone(), g.clone()], 8, 6),
            0xf9a3_0e5f_54be_18d5,
        ),
    ];
    let mut pins = Pins::default();
    for (what, run, want) in cases {
        assert!(run.output_size() > 0, "{what}: a vacuous case pins nothing");
        pins.check(what, run_digest(&run), want);
    }
    pins.finish();
}
