//! Seeded workload generators.
//!
//! The tutorial's analyses distinguish input classes by the *degree* of
//! join-attribute values: no skew (every value appears once, slide 24),
//! bounded degree `d` (slide 25), heavy hitters (degree > IN/p, slide 29),
//! and extreme skew (a single value everywhere, slide 27). Each generator
//! here produces one of those classes deterministically from a seed.
//!
//! Every generator writes its rows, in draw order, straight into one
//! exactly sized row-major buffer and adopts it with
//! [`Relation::from_raw`]: no row is staged or width-checked on its way
//! in.

use std::iter;

use crate::fasthash::FastSet;
use crate::relation::{Relation, Value};
use crate::zipf::Zipf;
use parqp_testkit::Rng;

/// `n` tuples of the given arity with attributes drawn uniformly from
/// `0..domain`.
pub fn uniform(arity: usize, n: usize, domain: u64, seed: u64) -> Relation {
    assert!(domain > 0, "empty domain");
    let mut rng = Rng::seed_from_u64(seed);
    let data = (0..arity * n).map(|_| rng.gen_range(0..domain)).collect();
    Relation::from_raw(arity, data)
}

/// `rows` `(key, other)` pairs as a binary relation whose join column is
/// `key_col`: the other column fills the other slot.
fn keyed_pairs(
    rows: usize,
    key_col: usize,
    pairs: impl IntoIterator<Item = (Value, Value)>,
) -> Relation {
    assert!(key_col < 2, "key column of a binary relation is 0 or 1");
    let mut data = Vec::with_capacity(2 * rows);
    for (key, other) in pairs {
        let row = if key_col == 0 {
            [key, other]
        } else {
            [other, key]
        };
        data.extend_from_slice(&row);
    }
    Relation::from_raw(2, data)
}

/// A binary relation whose *join column* (`key_col`, 0 or 1) takes each of
/// the values `0..n` exactly once — the "no skew" case of slide 24. The
/// other column is uniform in `0..domain`.
pub fn key_unique_pairs(n: usize, key_col: usize, domain: u64, seed: u64) -> Relation {
    let mut rng = Rng::seed_from_u64(seed);
    let pairs = (0..n as u64).map(|k| (k, rng.gen_range(0..domain)));
    keyed_pairs(n, key_col, pairs)
}

/// A binary relation where every join-column value in `0..n/d` appears
/// exactly `d` times — the uniform-degree-`d` case of slide 25.
///
/// Produces `(n / d) * d` tuples (i.e. `n` rounded down to a multiple of `d`).
pub fn uniform_degree_pairs(
    n: usize,
    d: usize,
    key_col: usize,
    domain: u64,
    seed: u64,
) -> Relation {
    assert!(d > 0, "degree must be positive");
    let keys = n / d;
    let mut rng = Rng::seed_from_u64(seed);
    let pairs = (0..keys as u64)
        .flat_map(|k| iter::repeat_n(k, d))
        .map(|k| (k, rng.gen_range(0..domain)));
    keyed_pairs(keys * d, key_col, pairs)
}

/// A binary relation with `n` tuples whose join column follows Zipf(α)
/// over `1..=domain` — the realistic skew case.
pub fn zipf_pairs(n: usize, domain: usize, alpha: f64, key_col: usize, seed: u64) -> Relation {
    zipf_pairs_with(&Zipf::new(domain, alpha), n, key_col, seed)
}

/// [`zipf_pairs`] drawing its join column from a sampler built once by
/// the caller: `n` tuples whose join column follows `z` and whose other
/// column is uniform over `0..z.n()`. Building the sampler draws
/// nothing, so `zipf_pairs_with(&Zipf::new(domain, alpha), ..)` is
/// `zipf_pairs(.., domain, alpha, ..)` row for row; a caller generating
/// many relations over one distribution builds its table once.
pub fn zipf_pairs_with(z: &Zipf, n: usize, key_col: usize, seed: u64) -> Relation {
    let mut rng = Rng::seed_from_u64(seed);
    let domain = z.n() as u64;
    let pairs = (0..n).map(|_| {
        let key = z.sample(&mut rng);
        (key, rng.gen_range(0..domain))
    });
    keyed_pairs(n, key_col, pairs)
}

/// A binary relation with planted heavy hitters: `heavy.len()` designated
/// key values each receive `heavy_degree` tuples, and the remaining
/// `n - heavy.len()*heavy_degree` tuples get unique light keys (disjoint
/// from the heavy ones). This reproduces slide 29's heavy/light split
/// exactly, with full control over who is heavy.
///
/// # Panics
/// Panics if the heavy tuples alone exceed `n`.
pub fn planted_heavy_pairs(
    n: usize,
    heavy: &[Value],
    heavy_degree: usize,
    key_col: usize,
    domain: u64,
    seed: u64,
) -> Relation {
    let heavy_total = heavy.len() * heavy_degree;
    assert!(
        heavy_total <= n,
        "heavy tuples ({heavy_total}) exceed n ({n})"
    );
    let mut rng = Rng::seed_from_u64(seed);
    let heavy_keys = heavy.iter().flat_map(|&h| iter::repeat_n(h, heavy_degree));
    // Light keys: values above the largest heavy value, each used once.
    let base = heavy.iter().copied().max().map_or(0, |m| m + 1);
    let light_keys = (0..(n - heavy_total) as u64).map(|i| base + i);
    let pairs = heavy_keys
        .chain(light_keys)
        .map(|key| (key, rng.gen_range(0..domain)));
    keyed_pairs(n, key_col, pairs)
}

/// The extreme-skew relation of slide 27: all `n` tuples share the single
/// join-column value `key`; the other column enumerates `0..n`.
pub fn constant_key_pairs(n: usize, key: Value, key_col: usize) -> Relation {
    keyed_pairs(n, key_col, (0..n as u64).map(|i| (key, i)))
}

/// A unary relation enumerating `0..n`.
pub fn unary_range(n: usize) -> Relation {
    Relation::from_raw(1, (0..n as u64).collect())
}

/// `m` distinct directed edges over `nodes` vertices, sampled uniformly
/// without self-loops — the edge relation for subgraph (triangle) queries.
///
/// # Panics
/// Panics if `m` exceeds the number of possible edges.
pub fn random_graph(nodes: u64, m: usize, seed: u64) -> Relation {
    assert!(nodes >= 2, "need at least two nodes");
    let max_edges = (nodes as u128) * (nodes as u128 - 1);
    assert!((m as u128) <= max_edges, "too many edges requested");
    let mut rng = Rng::seed_from_u64(seed);
    let mut seen = FastSet::default();
    seen.reserve(m);
    let mut data = Vec::with_capacity(2 * m);
    while seen.len() < m {
        let a = rng.gen_range(0..nodes);
        let b = rng.gen_range(0..nodes);
        if a != b && seen.insert((a, b)) {
            data.extend_from_slice(&[a, b]);
        }
    }
    Relation::from_raw(2, data)
}

/// A small star-schema warehouse: `Orders(custkey, prodkey)`,
/// `Customers(custkey, region)`, `Products(prodkey, category)`.
///
/// Customer keys in `Orders` follow Zipf(`alpha`) — a few customers
/// place most orders, the realistic skew of slide 52's analytics query.
/// Regions and categories are small dimensions (`0..16`).
pub fn warehouse(
    n_orders: usize,
    n_customers: usize,
    n_products: usize,
    alpha: f64,
    seed: u64,
) -> (Relation, Relation, Relation) {
    assert!(
        n_customers > 0 && n_products > 0,
        "dimensions must be non-empty"
    );
    let zc = Zipf::new(n_customers, alpha);
    let mut rng = Rng::seed_from_u64(seed);
    let order_rows = (0..n_orders).map(|_| {
        let c = zc.sample(&mut rng);
        (c, rng.gen_range(0..n_products as u64))
    });
    let orders = keyed_pairs(n_orders, 0, order_rows);
    let customer_rows = (1..=n_customers as u64).map(|c| (c, rng.gen_range(0..16u64)));
    let customers = keyed_pairs(n_customers, 0, customer_rows);
    let product_rows = (0..n_products as u64).map(|p| (p, rng.gen_range(0..16u64)));
    let products = keyed_pairs(n_products, 0, product_rows);
    (orders, customers, products)
}

/// An undirected-style graph stored as both `(a,b)` and `(b,a)` with
/// **distinct** directed edges: convenient for triangle queries
/// `R(x,y) ⋈ S(y,z) ⋈ T(z,x)` where `R = S = T`. Produces at most `m`
/// directed edges (fewer when a sampled edge's reverse was also drawn).
pub fn random_symmetric_graph(nodes: u64, m: usize, seed: u64) -> Relation {
    let half = random_graph(nodes, m / 2, seed);
    let mut seen = FastSet::default();
    seen.reserve(2 * half.len());
    let mut data = Vec::with_capacity(4 * half.len());
    for row in half.iter() {
        for edge in [[row[0], row[1]], [row[1], row[0]]] {
            if seen.insert((edge[0], edge[1])) {
                data.extend_from_slice(&edge);
            }
        }
    }
    Relation::from_raw(2, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::degree_counts;

    #[test]
    fn uniform_shape() {
        let r = uniform(3, 100, 50, 1);
        assert_eq!(r.arity(), 3);
        assert_eq!(r.len(), 100);
        assert!(r.iter().all(|row| row.iter().all(|&v| v < 50)));
    }

    #[test]
    fn uniform_deterministic() {
        assert_eq!(uniform(2, 10, 100, 5), uniform(2, 10, 100, 5));
        assert_ne!(uniform(2, 10, 100, 5), uniform(2, 10, 100, 6));
    }

    #[test]
    fn key_unique_has_degree_one() {
        let r = key_unique_pairs(100, 1, 1000, 2);
        let deg = degree_counts(&r, 1);
        assert_eq!(deg.len(), 100);
        assert!(deg.values().all(|&d| d == 1));
    }

    #[test]
    fn uniform_degree_exact() {
        let r = uniform_degree_pairs(100, 5, 0, 10, 3);
        assert_eq!(r.len(), 100);
        let deg = degree_counts(&r, 0);
        assert_eq!(deg.len(), 20);
        assert!(deg.values().all(|&d| d == 5));
    }

    #[test]
    fn planted_heavy_degrees() {
        let r = planted_heavy_pairs(100, &[1, 2], 20, 0, 10, 4);
        assert_eq!(r.len(), 100);
        let deg = degree_counts(&r, 0);
        assert_eq!(deg[&1], 20);
        assert_eq!(deg[&2], 20);
        // 60 light tuples, each with its own key
        let lights = deg.iter().filter(|&(_, &d)| d == 1).count();
        assert_eq!(lights, 60);
    }

    #[test]
    fn constant_key_is_extreme_skew() {
        let r = constant_key_pairs(50, 7, 0);
        let deg = degree_counts(&r, 0);
        assert_eq!(deg.len(), 1);
        assert_eq!(deg[&7], 50);
    }

    #[test]
    fn zipf_pairs_skewed() {
        let r = zipf_pairs(10_000, 1000, 1.2, 0, 9);
        let deg = degree_counts(&r, 0);
        let max = deg.values().copied().max().unwrap();
        // With α=1.2 the top value takes a large constant fraction.
        assert!(max > 500, "max degree {max} unexpectedly small");
    }

    #[test]
    fn a_shared_sampler_draws_what_a_fresh_one_does() {
        // The serve templates' Zipf bases (zipf-light, zipf-heavy), a
        // uniform "Zipf", and the 40-value triangle inputs' skew.
        for (domain, alpha) in [(1500, 0.8), (800, 1.2), (50, 0.0), (40, 1.1)] {
            let z = Zipf::new(domain, alpha);
            for (key_col, seed) in [(0, 42), (1, 7)] {
                assert_eq!(
                    zipf_pairs_with(&z, 2400, key_col, seed),
                    zipf_pairs(2400, domain, alpha, key_col, seed),
                    "domain {domain}, α {alpha}, key column {key_col}"
                );
            }
        }
    }

    #[test]
    fn graph_edges_distinct_no_loops() {
        let g = random_graph(20, 100, 11);
        assert_eq!(g.len(), 100);
        let mut seen = std::collections::BTreeSet::new();
        for e in g.iter() {
            assert_ne!(e[0], e[1]);
            assert!(seen.insert((e[0], e[1])));
        }
    }

    #[test]
    fn symmetric_graph_closed_under_reversal() {
        let g = random_symmetric_graph(20, 60, 13);
        let set: std::collections::BTreeSet<(u64, u64)> = g.iter().map(|e| (e[0], e[1])).collect();
        for &(a, b) in &set {
            assert!(set.contains(&(b, a)));
        }
    }

    #[test]
    fn warehouse_shapes() {
        let (orders, customers, products) = warehouse(5000, 300, 100, 1.1, 7);
        assert_eq!(orders.len(), 5000);
        assert_eq!(customers.len(), 300);
        assert_eq!(products.len(), 100);
        // Order custkeys must be valid foreign keys into Customers.
        let keys: std::collections::BTreeSet<u64> = customers.iter().map(|row| row[0]).collect();
        assert!(orders.iter().all(|row| keys.contains(&row[0])));
        // Zipf head: the busiest customer dominates.
        let deg = degree_counts(&orders, 0);
        assert!(*deg.values().max().expect("non-empty") > 200);
    }

    #[test]
    fn unary_range_enumerates() {
        let r = unary_range(5);
        assert_eq!(
            r.to_rows(),
            vec![vec![0], vec![1], vec![2], vec![3], vec![4]]
        );
    }

    /// `rel` with each row led by its position: its digest, unlike the
    /// bag digest, moves when two rows trade places.
    fn numbered(rel: &Relation) -> Relation {
        let rows = rel.iter().enumerate();
        Relation::from_rows(
            rel.arity() + 1,
            rows.map(|(i, row)| [&[i as Value], row].concat()),
        )
    }

    /// Every generator at fixed arguments, pinned by its bag digest and
    /// by the digest of its rows numbered in order: a generator that
    /// draws in another order, or lays its rows out in another order,
    /// fails here, so served digests and the experiments' loads stay
    /// comparable across builds.
    #[test]
    fn every_generator_is_pinned() {
        let (orders, customers, products) = warehouse(2000, 300, 100, 1.1, 13);
        let cases: Vec<(&str, Relation, u64, u64)> = vec![
            ("uniform/empty", uniform(2, 0, 10, 1), 0, 0),
            (
                "uniform/1",
                uniform(1, 300, 50, 1),
                0x8cef_314f_11b5_4996,
                0x57bb_bc7d_6c8a_53ce,
            ),
            (
                "uniform/2",
                uniform(2, 4000, 2000, 2),
                0x6576_0199_2aac_ae56,
                0x59a4_4577_fc04_39a1,
            ),
            (
                "uniform/3",
                uniform(3, 500, 1 << 40, 3),
                0x0f6d_5736_26b9_259c,
                0x0b41_a0f3_e19d_5606,
            ),
            (
                "key_unique/0",
                key_unique_pairs(400, 0, 1000, 4),
                0x87b1_633d_a123_e278,
                0x1750_c267_2123_9b00,
            ),
            (
                "key_unique/1",
                key_unique_pairs(400, 1, 1000, 5),
                0x3287_98f5_1c85_6c8e,
                0x1994_31b9_1736_9d71,
            ),
            (
                "uniform_degree/0",
                uniform_degree_pairs(403, 7, 0, 100, 6),
                0xe9d0_b12a_909b_d2dc,
                0x4f51_92cb_0215_1715,
            ),
            (
                "uniform_degree/1",
                uniform_degree_pairs(403, 7, 1, 100, 7),
                0x84ee_5c08_6830_dc2c,
                0x14c5_a37c_4a22_a8e4,
            ),
            (
                "zipf/0",
                zipf_pairs(3000, 1500, 0.8, 0, 8),
                0x9d8d_faab_a915_48d7,
                0xb186_b1ea_ce7c_9c75,
            ),
            (
                "zipf/1",
                zipf_pairs(2400, 800, 1.2, 1, 9),
                0x8b90_fdc7_143a_cd12,
                0x5a3e_5c01_902a_47c1,
            ),
            (
                "planted/0",
                planted_heavy_pairs(500, &[3, 11], 100, 0, 50, 10),
                0x9516_5f23_2c69_898d,
                0x54e9_0493_81ba_e7dd,
            ),
            (
                "planted/1",
                planted_heavy_pairs(500, &[3, 11], 100, 1, 50, 10),
                0xdc8b_888d_209c_22e0,
                0xf3db_6a17_0e7b_7422,
            ),
            (
                "constant/0",
                constant_key_pairs(200, 7, 0),
                0x840b_f1ed_c992_025f,
                0x3f70_7b1e_ad90_83f9,
            ),
            (
                "constant/1",
                constant_key_pairs(200, 7, 1),
                0x0f57_0bcb_0e6c_592c,
                0xf7c7_a8dd_bef3_4310,
            ),
            (
                "unary_range",
                unary_range(100),
                0xebfb_15b4_e048_428f,
                0x4b97_4cb4_d31a_ee29,
            ),
            (
                "graph",
                random_graph(400, 3200, 11),
                0x1c1d_3406_1588_5173,
                0x6ea2_aa73_7e4a_f670,
            ),
            (
                "symmetric_graph",
                random_symmetric_graph(300, 2000, 12),
                0x91f9_a750_71fd_1d75,
                0xe9ae_e8fc_caaa_980a,
            ),
            (
                "warehouse/orders",
                orders,
                0xa003_6398_8381_92d5,
                0x5281_c784_e05c_3b8b,
            ),
            (
                "warehouse/customers",
                customers,
                0x8bfe_e902_d186_507c,
                0x62a3_3f96_349e_910e,
            ),
            (
                "warehouse/products",
                products,
                0x93a9_2038_f51b_f860,
                0x0827_9b19_05fd_43df,
            ),
        ];
        let moved: Vec<String> = cases
            .iter()
            .filter(|(_, rel, bag, ordered)| {
                (rel.digest(), numbered(rel).digest()) != (*bag, *ordered)
            })
            .map(|(name, rel, _, _)| {
                format!("{name}: {:#x}, {:#x}", rel.digest(), numbered(rel).digest())
            })
            .collect();
        assert!(moved.is_empty(), "generators moved:\n{}", moved.join("\n"));
    }
}
