//! The HyperCube (Shares) one-round multiway join (slides 34–44).
//!
//! Servers form a `p₁ × … × p_k` grid, one dimension per query variable,
//! with independent hash functions `h₁ … h_k`. A tuple of atom
//! `S_j(x_{j1}, x_{j2}, …)` is sent to every server whose coordinates
//! agree with `h_{ji}(t[x_{ji}])` on the atom's variables (`*` on the
//! rest); each server then evaluates the query on what it received. Every
//! potential output `(a₁ … a_k)` is examined by exactly one server —
//! `(h₁(a₁), …, h_k(a_k))` — so the result is produced exactly once.
//!
//! The shares are chosen by the LP of slide 38 (see
//! [`parqp_lp::plan_shares`]); on skew-free inputs with equal sizes the
//! load is `N / p^{1/τ*}` w.h.p. (slide 40), e.g. `N/p^{2/3}` for the
//! triangle query (slide 36).

use crate::common::{inboxes, scatter, JoinRun};
use parqp_data::paged::RouteScan;
use parqp_data::Relation;
use parqp_mpc::{metrics, trace, Cluster, Grid, HashFamily};
use parqp_query::{evaluate, Query};

/// Run the HyperCube algorithm with LP-optimal integer shares.
///
/// ```
/// use parqp_join::multiway::hypercube;
/// use parqp_query::Query;
/// use parqp_data::Relation;
///
/// let q = Query::triangle();
/// let r = Relation::from_rows(2, [[1, 2], [4, 5]]);
/// let s = Relation::from_rows(2, [[2, 3]]);
/// let t = Relation::from_rows(2, [[3, 1]]);
/// let run = hypercube(&q, &[r, s, t], 8, 42);
/// assert_eq!(run.gathered().to_rows(), vec![vec![1, 2, 3]]);
/// assert_eq!(run.report.num_rounds(), 1);
/// ```
///
/// An empty atom makes the join empty: the run returns `p` empty
/// fragments and zero communication rounds.
///
/// # Panics
/// Panics if inputs mismatch the query.
pub fn hypercube(query: &Query, rels: &[Relation], p: usize, seed: u64) -> JoinRun {
    if rels.iter().any(Relation::is_empty) {
        return JoinRun {
            outputs: vec![Relation::new(query.num_vars()); p],
            report: parqp_mpc::LoadReport::empty(p),
        };
    }
    let sizes: Vec<u64> = rels.iter().map(|r| r.len() as u64).collect();
    let shares = if p >= 2 {
        parqp_lp::plan_shares(&query.hypergraph(), &sizes, p).shares
    } else {
        vec![1; query.num_vars()]
    };
    if metrics::is_enabled() {
        // Slide 40: L = Σ_j N_j / ∏_{i ∈ vars(S_j)} p_i at the chosen
        // shares — the grid-mean load, which equals IN/p^{1/τ*} for
        // equal sizes at the LP optimum (N/p^{2/3} for the triangle).
        let predicted: f64 = query
            .atoms()
            .iter()
            .zip(&sizes)
            .map(|(atom, &n)| {
                let replicated: f64 = atom
                    .vars
                    .iter()
                    .map(|&v| shares.get(v).map_or(1.0, |&s| s as f64))
                    .product();
                n as f64 / replicated
            })
            .sum();
        metrics::announce(&metrics::PaperBound::tuples("hypercube", predicted, 1));
    }
    hypercube_with_shares(query, rels, &shares, seed)
}

/// Run the HyperCube algorithm with explicit shares (one per variable).
///
/// # Panics
/// Panics if `shares.len() != query.num_vars()` or any share is zero.
pub fn hypercube_with_shares(
    query: &Query,
    rels: &[Relation],
    shares: &[usize],
    seed: u64,
) -> JoinRun {
    assert_eq!(rels.len(), query.num_atoms(), "one relation per atom");
    for (a, r) in query.atoms().iter().zip(rels) {
        assert_eq!(a.arity(), r.arity(), "arity mismatch for atom {}", a.name);
    }
    assert_eq!(shares.len(), query.num_vars(), "one share per variable");

    let grid = Grid::new(shares.to_vec());
    let mut cluster = Cluster::new(grid.len());
    let h = HashFamily::new(seed, query.num_vars());

    let shuffle = trace::span("hypercube/shuffle");
    // One stream per atom: an inbox is the atom fragments `evaluate`
    // takes, already in place.
    let arities: Vec<usize> = rels.iter().map(Relation::arity).collect();
    let mut ex = cluster.exchange_rows(&arities);
    for (j, rel) in rels.iter().enumerate() {
        let atom = &query.atoms()[j];
        // Every row of the atom fixes the same coordinates (its own
        // variables) and leaves the same ones free: one buffer per atom.
        let mut partial: Vec<Option<usize>> = vec![None; query.num_vars()];
        for (sid, part) in scatter(rel, grid.len()).into_iter().enumerate() {
            ex.set_sender(sid);
            let scan = RouteScan::new(sid, &part);
            for row in scan.iter() {
                for (pos, &v) in atom.vars.iter().enumerate() {
                    partial[v] = Some(h.hash(v, row[pos], shares[v]));
                }
                ex.send_row_matching(j, &grid, &partial, row);
            }
        }
    }
    let received = inboxes(&arities, ex.finish());
    drop(shuffle);

    let evaluate_span = trace::span("hypercube/evaluate");
    let outputs = cluster.map(received, |_, fragments| evaluate(query, &fragments));
    drop(evaluate_span);
    JoinRun {
        outputs,
        report: cluster.report(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parqp_data::generate;

    fn oracle(query: &Query, rels: &[Relation]) -> Relation {
        evaluate(query, rels)
    }

    #[test]
    fn triangle_small_exact() {
        let q = Query::triangle();
        let r = Relation::from_rows(2, [[1, 2], [4, 5], [1, 9]]);
        let s = Relation::from_rows(2, [[2, 3], [5, 6]]);
        let t = Relation::from_rows(2, [[3, 1], [6, 4]]);
        let run = hypercube(&q, &[r.clone(), s.clone(), t.clone()], 8, 99);
        let expect = oracle(&q, &[r, s, t]);
        assert_eq!(run.gathered().canonical(), expect.canonical());
        assert_eq!(run.output_size(), expect.len(), "no duplicate outputs");
        assert_eq!(run.report.num_rounds(), 1);
    }

    #[test]
    fn triangle_random_graph_matches_oracle() {
        let q = Query::triangle();
        let g = generate::random_symmetric_graph(60, 600, 7);
        let rels = vec![g.clone(), g.clone(), g];
        let run = hypercube(&q, &rels, 27, 3);
        let expect = oracle(&q, &rels);
        assert_eq!(run.gathered().canonical(), expect.canonical());
        assert_eq!(run.output_size(), expect.len());
    }

    #[test]
    fn triangle_load_scales_as_p_to_two_thirds() {
        // Slide 36: L = Θ(N/p^{2/3}); each tuple is replicated p^{1/3}
        // times, so the per-server load is ≈ 3·N/p^{2/3}.
        let q = Query::triangle();
        let n = 6000;
        let g = generate::uniform(2, n, 1 << 40, 21);
        let rels = vec![g.clone(), g.clone(), g];
        let run8 = hypercube(&q, &rels, 8, 5);
        let run64 = hypercube(&q, &rels, 64, 5);
        let l8 = run8.report.max_load_tuples() as f64;
        let l64 = run64.report.max_load_tuples() as f64;
        // p × 8 ⇒ load ÷ 4 (two-thirds power), modulo concentration noise.
        let ratio = l8 / l64;
        assert!(
            (3.0..5.0).contains(&ratio),
            "load ratio {ratio} (l8={l8}, l64={l64}) not ≈ 4"
        );
    }

    #[test]
    fn two_way_reduces_to_hash_join_shares() {
        let q = Query::two_way();
        let r = generate::uniform(2, 400, 50, 31);
        let s = generate::uniform(2, 400, 50, 32);
        let run = hypercube(&q, &[r.clone(), s.clone()], 8, 11);
        let expect = oracle(&q, &[r, s]);
        assert_eq!(run.gathered().canonical(), expect.canonical());
        // All shares on the join variable ⇒ no replication.
        assert_eq!(run.report.total_tuples(), 800);
    }

    #[test]
    fn product_query_uses_grid() {
        let q = Query::product();
        let r = generate::uniform(1, 100, 1000, 41);
        let s = generate::uniform(1, 100, 1000, 42);
        let run = hypercube(&q, &[r.clone(), s.clone()], 16, 13);
        assert_eq!(run.output_size(), 100 * 100);
        let l = run.report.max_load_tuples() as f64;
        // 2·√(10⁴/16) = 50, allow hashing imbalance.
        assert!(l < 100.0, "L = {l}");
    }

    #[test]
    fn chain_query_matches_oracle() {
        let q = Query::chain(4);
        let rels: Vec<Relation> = (0..4)
            .map(|i| generate::uniform(2, 200, 40, 50 + i as u64))
            .collect();
        let run = hypercube(&q, &rels, 16, 17);
        let expect = oracle(&q, &rels);
        assert_eq!(run.gathered().canonical(), expect.canonical());
        assert_eq!(run.output_size(), expect.len());
    }

    #[test]
    fn explicit_shares_respected() {
        let q = Query::triangle();
        let r = generate::uniform(2, 100, 30, 61);
        let rels = vec![r.clone(), r.clone(), r];
        let run = hypercube_with_shares(&q, &rels, &[2, 2, 2], 19);
        assert_eq!(run.report.servers, 8);
        // Each tuple replicated along its free dimension: total = 3·100·2.
        assert_eq!(run.report.total_tuples(), 600);
    }

    #[test]
    fn empty_relation_empty_run() {
        let q = Query::triangle();
        let r = Relation::from_rows(2, [[1, 2]]);
        let run = hypercube(&q, &[r.clone(), Relation::new(2), r], 8, 7);
        assert_eq!(run.output_size(), 0);
        assert_eq!(run.outputs.len(), 8);
        assert_eq!(run.report.num_rounds(), 0);
    }

    #[test]
    fn single_server_fallback() {
        let q = Query::triangle();
        let r = Relation::from_rows(2, [[1, 2]]);
        let s = Relation::from_rows(2, [[2, 3]]);
        let t = Relation::from_rows(2, [[3, 1]]);
        let run = hypercube(&q, &[r, s, t], 1, 7);
        assert_eq!(run.output_size(), 1);
    }

    #[test]
    fn semijoin_pair_matches_oracle() {
        let q = Query::semijoin_pair();
        let r = generate::unary_range(50);
        let s = generate::uniform(2, 300, 80, 71);
        let t = generate::unary_range(60);
        let run = hypercube(&q, &[r.clone(), s.clone(), t.clone()], 9, 23);
        let expect = oracle(&q, &[r, s, t]);
        assert_eq!(run.gathered().canonical(), expect.canonical());
    }
}
