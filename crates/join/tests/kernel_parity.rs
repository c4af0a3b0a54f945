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
//! digest it computed next to the pinned one. Pins added later were
//! printed the same way, in a commit of their own that changed no code
//! they pin, so a refactor landing after them has to reproduce them.

use parqp_data::fasthash::FxHasher;
use parqp_data::{generate, Relation};
use parqp_join::common::{joined_arity, local_hash_join, JoinRun};
use parqp_join::gym::{gym, gym_ghd};
use parqp_join::hl::{hl_triangle, semijoin_pair_hl};
use parqp_join::multiway::hypercube;
use parqp_join::plans::{binary_join_plan, max_intermediate_size};
use parqp_join::skewhc::skewhc;
use parqp_join::subgraph::{expansion_join, expansion_join_with_order};
use parqp_join::twoway::{broadcast_join, cartesian, hash_join, skew_join, sort_merge_join};
use parqp_query::{yannakakis_serial, Atom, Bag, Ghd, Query};
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
    // Small: the balanced GHD's root bag covers R0 and R2 ⋈ R3, which
    // share nothing, so it materializes their product.
    let balanced_rels = uniform_rels(4, 40, 12, 70);
    // Every tree edge shares two variables, listed in a different order
    // by each side, so a key taken in the wrong side's column order
    // hashes elsewhere. R has two children (the optimized upward level
    // takes its intersection round) and S one (a second level).
    let pairs = Query::new(
        6,
        vec![
            Atom::new("R", vec![0, 1, 2]),
            Atom::new("S", vec![2, 1, 3]),
            Atom::new("T", vec![1, 0, 4]),
            Atom::new("U", vec![3, 2, 5]),
        ],
    );
    let pairs_rels: Vec<Relation> = (0..4)
        .map(|i| generate::uniform(3, 200, 8, 80 + i))
        .collect();
    let pairs_tree = Ghd {
        bags: pairs
            .atoms()
            .iter()
            .enumerate()
            .map(|(a, atom)| Bag {
                vars: atom.vars.clone(),
                atoms: vec![a],
            })
            .collect(),
        parent: vec![None, Some(0), Some(0), Some(1)],
    };

    let cases: [(&str, JoinRun, u64); 13] = [
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
            "forest (product) optimized",
            gym(&product, &product_rels, &product_tree, 8, 15, true),
            0xd456_2092_7db3_4acc,
        ),
        (
            "two-variable edges vanilla",
            gym(&pairs, &pairs_rels, &pairs_tree, 8, 17, false),
            0xd693_d5cf_6063_9d50,
        ),
        (
            "two-variable edges optimized",
            gym(&pairs, &pairs_rels, &pairs_tree, 8, 17, true),
            0x3fe9_b474_7f13_4308,
        ),
        (
            "gym_ghd two-variable edges",
            gym_ghd(&pairs, &pairs_rels, &pairs_tree, 8, 17),
            0x9f91_19e2_0b93_b12d,
        ),
        (
            "gym_ghd chain blocks of 2",
            gym_ghd(&chain, &chain_rels, &Ghd::chain_blocks(4, 2), 8, 11),
            0xae2a_b678_94f7_f97d,
        ),
        (
            "gym_ghd chain balanced (a product bag)",
            gym_ghd(&chain, &balanced_rels, &Ghd::chain_balanced(4), 8, 11),
            0x9c10_c4c7_520c_9460,
        ),
    ];
    let mut pins = Pins::default();
    for (what, run, want) in cases {
        assert!(run.output_size() > 0, "{what}: a vacuous case pins nothing");
        pins.check(what, run_digest(&run), want);
    }
    pins.finish();
}

/// Serial Yannakakis in raw row order: its semijoins and joins and the
/// reorder of its result are the ones the distributed algorithms use.
#[test]
fn yannakakis_serial_rows_and_order() {
    let chain = Query::chain(4);
    let star = Query::star(4);
    let tree64 = Query::slide64_tree();
    let product = Query::product();
    // A chain written back to front: the join tree's result columns are
    // not in variable order, so the reorder permutes.
    let reversed = Query::new(
        4,
        vec![
            Atom::new("R", vec![3, 2]),
            Atom::new("S", vec![2, 1]),
            Atom::new("T", vec![1, 0]),
        ],
    );
    let tree = |q: &Query| Ghd::join_tree(q).expect("acyclic");
    let cases: [(&str, Relation, u64); 5] = [
        (
            "chain",
            yannakakis_serial(&chain, &uniform_rels(4, 150, 30, 20), &tree(&chain)),
            0xf0be_b7f7_cd9d_e42a,
        ),
        (
            "star",
            yannakakis_serial(&star, &uniform_rels(4, 200, 40, 10), &Ghd::star_flat(&star)),
            0x65e5_87cc_be20_2ee4,
        ),
        (
            "slide-64 tree",
            yannakakis_serial(&tree64, &uniform_rels(5, 150, 30, 30), &tree(&tree64)),
            0x040c_1453_6bab_c1b8,
        ),
        (
            "forest (product)",
            yannakakis_serial(
                &product,
                &[
                    generate::uniform(1, 50, 500, 51),
                    generate::uniform(1, 60, 500, 52),
                ],
                &tree(&product),
            ),
            0xf691_7737_cea3_92d9,
        ),
        (
            "chain written back to front",
            yannakakis_serial(&reversed, &uniform_rels(3, 150, 30, 40), &tree(&reversed)),
            0x8472_7aa0_a854_eb87,
        ),
    ];
    let mut pins = Pins::default();
    for (what, out, want) in cases {
        assert!(!out.is_empty(), "{what}: a vacuous case pins nothing");
        pins.check(what, digest(&[out]), want);
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

/// Every row-routing entry point, per server, at `p` = 1, 5 (not a
/// cube, not a power of two), 8 and 64 (more servers than some inputs
/// have distinct keys). Printed by this file run against the commit
/// before the flat wire format (`Exchange<Tagged>` inboxes un-tagged
/// into `Vec<Vec<Value>>`), committed unchanged after the port: a row
/// routed through a per-stream flat buffer must land on the same
/// server at the same position as the `Tagged` message it replaced.
///
/// The planner's picks are pinned as the calls `run_plan` dispatches
/// them to (`parqp-join` cannot name `parqp::planner`): HyperCube for
/// the triangle, optimized GYM over the join tree for the 3-chain.
///
/// Two pins at `p` = 5 were re-derived once, when HyperCube began
/// returning `p` servers where share rounding leaves some off the grid
/// (2 × 2 × 1 = 4 here): "hypercube (the planner's triangle)" and
/// `hl_triangle`, which finds no heavy value at `p` = 5 and returns its
/// light HyperCube run as is. Each new digest is the old run plus one
/// idle server, which [`padding_hypercube_appends_idle_servers`] checks
/// against the old pins.
#[test]
fn routed_fragments_and_ledger_per_server() {
    const PS: [usize; 4] = [1, 5, 8, 64];
    let r = generate::uniform(2, 600, 40, 1);
    let s = generate::uniform(2, 500, 40, 2);
    let small = generate::uniform(2, 30, 40, 3);
    let zr = generate::zipf_pairs(600, 30, 1.2, 1, 4);
    let zs = generate::zipf_pairs(500, 30, 1.2, 0, 5);
    let (ur, us) = (
        generate::uniform(1, 40, 1000, 6),
        generate::uniform(1, 30, 1000, 7),
    );
    let empty = Relation::new(2);

    let two_way = Query::two_way();
    let zipf_rels = vec![zr.clone(), zs.clone()];
    let triangle = Query::triangle();
    let g = generate::random_symmetric_graph(40, 300, 8);
    let tri_rels = vec![g.clone(), g.clone(), g.clone()];
    let tri_empty = vec![g.clone(), empty.clone(), g.clone()];
    let mut hub = generate::random_symmetric_graph(50, 200, 9);
    for i in 0..60 {
        hub.push(&[0, 100 + i]);
        hub.push(&[100 + i, 0]);
    }
    let hub_rels = vec![hub.clone(), hub.clone(), hub];
    // z = 9 is heavy in S and T from p = 8 up (threshold IN/p^{1/3}).
    let hl_r = generate::uniform(2, 400, 60, 21);
    let hl_s = generate::constant_key_pairs(400, 9, 1);
    let mut hl_t = generate::uniform(2, 400, 60, 22);
    for i in 0..400u64 {
        hl_t.push(&[9, i % 60]);
    }
    let (sj_r, sj_s, sj_t) = (
        generate::unary_range(60),
        generate::uniform(2, 400, 100, 23),
        generate::unary_range(80),
    );
    let chain = Query::chain(3);
    let chain_rels = uniform_rels(3, 300, 60, 30);
    let chain_tree = Ghd::join_tree(&chain).expect("chains are acyclic");

    type Run<'a> = Box<dyn Fn(usize) -> JoinRun + 'a>;
    let cases: Vec<(&str, Run<'_>, [u64; 4])> = vec![
        (
            "hash_join",
            Box::new(|p| hash_join(&r, 1, &s, 0, p, 42)),
            [
                0xd005_69e3_614f_de01,
                0xfa07_da1e_15ff_2995,
                0xa384_afac_1743_f0b7,
                0x62c8_6fa7_fb98_8982,
            ],
        ),
        (
            "hash_join, empty S",
            Box::new(|p| hash_join(&r, 1, &empty, 0, p, 42)),
            [
                0x27d0_3dca_de1b_42d7,
                0x9e9f_3845_fefb_142e,
                0x3d3e_ee6a_5451_d9e9,
                0x6575_3e91_57bc_1e7e,
            ],
        ),
        (
            "broadcast_join",
            Box::new(|p| broadcast_join(&small, 1, &s, 0, p)),
            [
                0x2cb8_d8ff_c7dd_9c63,
                0x4043_1e74_9366_90a6,
                0xea52_ea18_d0cf_7514,
                0x388d_a9af_54c1_4b3c,
            ],
        ),
        (
            "cartesian",
            Box::new(|p| cartesian(&ur, &us, p, 9)),
            [
                0x83ae_9e63_ee78_ecca,
                0xeb2d_e3b7_b451_4a1c,
                0x4a85_d6e7_e1d4_cb24,
                0x91ac_77ab_27bc_ec8e,
            ],
        ),
        (
            "skew_join",
            Box::new(|p| skew_join(&zr, 1, &zs, 0, p, 8)),
            [
                0x7723_16fe_d092_db40,
                0xf1c2_33be_03bd_1181,
                0x0d11_9da4_e002_e069,
                0xb5ca_3367_a406_c1d0,
            ],
        ),
        (
            "sort_merge_join",
            Box::new(|p| sort_merge_join(&zr, 1, &zs, 0, p, 12)),
            [
                0x2919_4fad_a1a9_c66e,
                0xbb82_4e38_3989_9559,
                0xa04b_cd93_70db_8627,
                0xfe58_7429_a36a_b386,
            ],
        ),
        (
            "hypercube (the planner's triangle)",
            Box::new(|p| hypercube(&triangle, &tri_rels, p, 5)),
            [
                0x0ba3_ff14_1111_d2e2,
                0xe40f_3d54_23f2_cc6c,
                0x4118_272c_82f8_47e6,
                0xde2c_f11b_dd9d_e13e,
            ],
        ),
        (
            "hypercube, empty atom",
            Box::new(|p| hypercube(&triangle, &tri_empty, p, 5)),
            [
                0x27d0_3dca_d77b_42d6,
                0x9e9f_3845_f79b_142f,
                0x3d3e_ee6a_5d31_d9e8,
                0x6575_3e91_5edc_1e7f,
            ],
        ),
        (
            "skewhc, triangle with a hub",
            Box::new(|p| skewhc(&triangle, &hub_rels, p, 7)),
            [
                0xe99e_ec29_1f3f_e187,
                0xe99e_ec29_1f3f_e187,
                0xe99e_ec29_1f3f_e187,
                0xc0ef_95bd_8851_0a9c,
            ],
        ),
        (
            "skewhc, two-way zipf",
            Box::new(|p| skewhc(&two_way, &zipf_rels, p, 7)),
            [
                0x3e61_8b22_d763_9bfd,
                0x3c5a_4738_da2d_4ca7,
                0xfd0a_45bc_8b0b_7ee5,
                0x54a5_1f4b_27a2_72fb,
            ],
        ),
        (
            "hl_triangle",
            Box::new(|p| hl_triangle(&hl_r, &hl_s, &hl_t, p, 5)),
            [
                0x9c47_62d1_ef42_a675,
                0xe0f7_f3ca_3734_37ff,
                0x4b02_cb1e_61a6_1cb0,
                0xb957_9a22_c6ad_e09b,
            ],
        ),
        (
            "semijoin_pair_hl",
            Box::new(|p| semijoin_pair_hl(&sj_r, &sj_s, &sj_t, p, 7)),
            [
                0x0c1f_a0c8_f8b1_fd47,
                0xcb07_55cd_2ad2_f5d9,
                0x4f7c_0f6f_4649_6b62,
                0x10f3_26cc_d1d9_ed2c,
            ],
        ),
        (
            "expansion_join",
            Box::new(|p| expansion_join(&triangle, &tri_rels, p, 5)),
            [
                0xc4d3_96f7_c184_c1cf,
                0x1833_8e0a_72ef_3ca6,
                0xfa60_8030_7997_79a6,
                0xc15e_d408_5393_e68c,
            ],
        ),
        (
            "optimized gym (the planner's 3-chain)",
            Box::new(|p| gym(&chain, &chain_rels, &chain_tree, p, 5, true)),
            [
                0x0196_7a88_e5d0_15c6,
                0xa8e9_1637_9d98_d0db,
                0x931c_cdac_75ce_76dc,
                0x10d2_61d6_089f_709c,
            ],
        ),
    ];
    let mut pins = Pins::default();
    for (what, run, want) in &cases {
        let mut got = [0u64; 4];
        for (slot, &p) in got.iter_mut().zip(&PS) {
            let run = run(p);
            assert!(
                run.output_size() > 0 || what.contains("empty"),
                "{what}, p = {p}: a vacuous case pins nothing"
            );
            *slot = run_digest(&run);
        }
        if got != *want {
            pins.0
                .push(format!("{what}: {got:#018x?} != pinned {want:#018x?}"));
        }
    }
    pins.finish();
}

/// The old `p` = 5 pins of HyperCube and `hl_triangle` (servers 0–3,
/// the 2 × 2 × 1 grid) are the new runs' first four servers: padding
/// appended an idle fifth server and moved no row and no word.
#[test]
fn padding_hypercube_appends_idle_servers() {
    let triangle = Query::triangle();
    let g = generate::random_symmetric_graph(40, 300, 8);
    let hl_r = generate::uniform(2, 400, 60, 21);
    let hl_s = generate::constant_key_pairs(400, 9, 1);
    let mut hl_t = generate::uniform(2, 400, 60, 22);
    for i in 0..400u64 {
        hl_t.push(&[9, i % 60]);
    }
    let cases = [
        (
            hypercube(&triangle, &[g.clone(), g.clone(), g], 5, 5),
            0xa6e5_ec67_692e_399d,
        ),
        (
            hl_triangle(&hl_r, &hl_s, &hl_t, 5, 5),
            0x3a94_36d2_d812_f05e,
        ),
    ];
    for (mut run, old) in cases {
        assert_eq!((run.outputs.len(), run.report.servers), (5, 5));
        let idle = run.outputs.pop().expect("five servers");
        assert!(idle.is_empty());
        assert!(run.report.rounds.iter().all(|r| r.words[4] == 0));
        assert_eq!(run_digest(&run), old);
    }
}
