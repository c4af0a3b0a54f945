//! `route_input` against the round it stands for: the input cut into
//! `senders` round-robin fragments by `scatter`, each fragment scanned
//! with a `RouteScan` and every row sent with `send_row` to each of its
//! destinations, sender by sender, with a row counter that runs
//! fragment by fragment. Both must deliver the same buffers and charge
//! the same ledger, the same trace events (so the same per-sender
//! `Send`s and `Topology`) and the same page reads on every server, and
//! every delivered buffer must hold no slack.
//!
//! The rounds: HyperCube's fan-outs (a cube, a grid padded to a
//! non-product `p`, unary atoms, an empty atom, a product query); a
//! broadcast; and the Cartesian grid, whose bands are drawn from the
//! fragment-order index. `hash_partition`, the one-destination round,
//! has its own matrix in `hash_partition.rs`.

mod support;

use parqp_data::paged::StoreConfig;
use parqp_data::{generate, Relation};
use parqp_join::common::route_input;
use parqp_join::twoway::product_grid;
use parqp_mpc::{Cluster, Grid, HashFamily};
use parqp_query::Query;
use support::{assert_same, run, scatter_and_send};

/// No store, and a small page over a pool of two pages.
const SMALL_STORES: [Option<StoreConfig>; 2] = [
    None,
    Some(StoreConfig {
        page_size: 8,
        pool_pages: 2,
    }),
];

/// The ranks of `grid` that agree with `partial` wherever it is fixed,
/// in rank order: enumerated afresh, without a fan-out.
fn matching(grid: &Grid, partial: &[Option<usize>]) -> Vec<usize> {
    (0..grid.len())
        .filter(|&rank| {
            let coords = grid.coords(rank);
            coords
                .iter()
                .zip(partial)
                .all(|(c, fixed)| fixed.is_none_or(|f| f == *c))
        })
        .collect()
}

#[test]
fn placed_round_is_scatter_and_send_on_hypercube_fan_outs() {
    let g = generate::random_symmetric_graph(40, 300, 8);
    let tri = vec![g.clone(), g.clone(), g.clone()];
    let chain: Vec<Relation> = (0..4)
        .map(|i| generate::uniform(2, 90, 12, 50 + i))
        .collect();
    let pair = vec![
        generate::unary_range(30),
        generate::uniform(2, 120, 40, 71),
        generate::unary_range(20),
    ];
    // (query, inputs, shares, servers): a cube, a grid padded to a
    // non-product p, a shared dimension of size 1, an empty atom, a
    // product query, and unary atoms fixing one dimension each.
    let cases: Vec<(Query, Vec<Relation>, Vec<usize>, usize)> = vec![
        (Query::triangle(), tri.clone(), vec![2, 2, 2], 8),
        (Query::triangle(), tri.clone(), vec![2, 2, 1], 5),
        (Query::triangle(), tri, vec![4, 4, 4], 64),
        (Query::chain(4), chain, vec![2, 1, 3, 1, 2], 12),
        (
            Query::triangle(),
            vec![g.clone(), Relation::new(2), g],
            vec![3, 1, 2],
            6,
        ),
        (
            Query::product(),
            vec![
                generate::uniform(1, 50, 100, 1),
                generate::uniform(1, 40, 100, 2),
            ],
            vec![3, 4],
            13,
        ),
        (Query::semijoin_pair(), pair, vec![3, 3], 9),
    ];
    for (query, rels, shares, p) in &cases {
        let grid = Grid::new(shares.clone());
        let h = HashFamily::new(17, query.num_vars());
        let strides: Vec<usize> = rels.iter().map(Relation::arity).collect();
        for store in SMALL_STORES {
            let what = format!("hypercube {shares:?} on p = {p}, {store:?}");
            // As `multiway` routes: one base per row, the atom's fan-out.
            let got = run(*p, &strides, store, |ex| {
                for (j, (atom, rel)) in query.atoms().iter().zip(rels).enumerate() {
                    let fan = grid.fan_out(|v| atom.vars.contains(&v));
                    if !rel.is_empty() {
                        ex.note_grid(&grid);
                    }
                    route_input(ex, j, rel, grid.len(), fan.offsets(), |_, row| {
                        row.iter()
                            .zip(&atom.vars)
                            .map(|(&value, &v)| h.hash(v, value, grid.dims()[v]) * fan.strides()[v])
                            .sum()
                    });
                }
            });
            // Every row places itself afresh on its partial coordinate.
            let want = run(*p, &strides, store, |ex| {
                for (j, (atom, rel)) in query.atoms().iter().zip(rels).enumerate() {
                    if !rel.is_empty() {
                        ex.note_grid(&grid);
                    }
                    let mut partial: Vec<Option<usize>> = vec![None; query.num_vars()];
                    scatter_and_send(ex, j, rel, grid.len(), |_, row| {
                        for (&value, &v) in row.iter().zip(&atom.vars) {
                            partial[v] = Some(h.hash(v, value, grid.dims()[v]));
                        }
                        matching(&grid, &partial)
                    });
                }
            });
            assert_same(&what, &got, &want);
        }
    }
}

#[test]
fn placed_round_is_scatter_and_send_on_a_broadcast() {
    for p in [1usize, 5, 8] {
        for n in [0, 1, 3 * p + 2, 200] {
            let rel = generate::uniform(2, n, 50, (n + p) as u64);
            let everyone: Vec<usize> = (0..p).collect();
            for store in SMALL_STORES {
                let what = format!("broadcast: p = {p}, n = {n}, {store:?}");
                let got = run(p, &[2], store, |ex| {
                    route_input(ex, 0, &rel, p, &everyone, |_, _| 0);
                });
                let want = run(p, &[2], store, |ex| {
                    scatter_and_send(ex, 0, &rel, p, |_, _| everyone.clone());
                });
                assert_same(&what, &got, &want);
            }
        }
    }
}

#[test]
fn placed_round_is_scatter_and_send_on_the_cartesian_grid() {
    // Row counts that are not multiples of the grid, so fragment order
    // and input order disagree on most rows' index.
    for (nr, ns, p) in [(40, 30, 8), (37, 101, 6), (5, 3, 16), (0, 12, 4)] {
        let r = generate::uniform(1, nr, 1000, 6);
        let s = generate::uniform(2, ns, 1000, 7);
        let (p1, p2) = product_grid(nr, ns, p);
        let grid = Grid::new(vec![p1, p2]);
        let h = HashFamily::new(9, 2);
        let (r_fan, s_fan) = (grid.fan_out(|d| d == 0), grid.fan_out(|d| d == 1));
        for store in SMALL_STORES {
            let what = format!("cartesian {p1} x {p2}: |R| = {nr}, |S| = {ns}, {store:?}");
            let got = run(grid.len(), &[1, 2], store, |ex| {
                ex.note_grid(&grid);
                route_input(ex, 0, &r, grid.len(), r_fan.offsets(), |i, _| {
                    h.hash(0, i as u64, p1) * p2
                });
                route_input(ex, 1, &s, grid.len(), s_fan.offsets(), |i, _| {
                    h.hash(1, i as u64, p2)
                });
            });
            let want = run(grid.len(), &[1, 2], store, |ex| {
                ex.note_grid(&grid);
                scatter_and_send(ex, 0, &r, grid.len(), |i, _| {
                    matching(&grid, &[Some(h.hash(0, i as u64, p1)), None])
                });
                scatter_and_send(ex, 1, &s, grid.len(), |i, _| {
                    matching(&grid, &[None, Some(h.hash(1, i as u64, p2))])
                });
            });
            assert_same(&what, &got, &want);
        }
    }
}

#[test]
#[should_panic(expected = "offsets must start with 0")]
fn route_input_refuses_offsets_that_miss_the_base() {
    let mut cluster = Cluster::new(2);
    let mut ex = cluster.exchange_rows(&[1]);
    let rel = Relation::from_rows(1, [[1], [2]]);
    route_input(&mut ex, 0, &rel, 2, &[1], |_, _| 0);
}
