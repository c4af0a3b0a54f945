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

use crate::common::{inboxes, route_input, JoinRun};
use parqp_data::Relation;
use parqp_mpc::{metrics, trace, Cluster, Grid, HashFamily, RowExchange};
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
/// Share rounding keeps `∏ shares ≤ p`, and a `p` that is not a product
/// of the shares leaves servers off the grid. They sit the round out:
/// the run still has `p` servers, `p` (possibly empty) fragments and a
/// ledger and trace over all `p`.
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
    run_on_grid(query, rels, &shares, seed, p)
}

/// Run the HyperCube algorithm with explicit shares (one per variable)
/// on exactly `∏ shares` servers.
///
/// # Panics
/// Panics if `shares.len() != query.num_vars()` or any share is zero.
pub fn hypercube_with_shares(
    query: &Query,
    rels: &[Relation],
    shares: &[usize],
    seed: u64,
) -> JoinRun {
    run_on_grid(query, rels, shares, seed, 0)
}

/// HyperCube on a cluster of `max(p, ∏ shares)` servers: the grid is
/// ranks `0 .. ∏ shares`, and the servers past it hold no input and
/// receive nothing.
fn run_on_grid(query: &Query, rels: &[Relation], shares: &[usize], seed: u64, p: usize) -> JoinRun {
    assert_eq!(rels.len(), query.num_atoms(), "one relation per atom");
    for (a, r) in query.atoms().iter().zip(rels) {
        assert_eq!(a.arity(), r.arity(), "arity mismatch for atom {}", a.name);
    }
    assert_eq!(shares.len(), query.num_vars(), "one share per variable");

    let grid = Grid::new(shares.to_vec());
    let mut cluster = Cluster::new(p.max(grid.len()));
    let h = HashFamily::new(seed, query.num_vars());

    let shuffle = trace::span("hypercube/shuffle");
    // One stream per atom: an inbox is the atom fragments `evaluate`
    // takes, already in place.
    let arities: Vec<usize> = rels.iter().map(Relation::arity).collect();
    let mut ex = cluster.exchange_rows(&arities);
    route(&mut ex, query, rels, &grid, &h);
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

/// The HyperCube shuffle: atom `j`'s rows, in their free initial
/// placement on the grid's servers, go on stream `j` to every server
/// whose coordinates agree with the hashes of the row's variables.
///
/// Every row of an atom fixes the grid dimensions of the atom's
/// variables and leaves the others free, so its destinations are one
/// base rank plus the offsets of the atom's [`FanOut`](parqp_mpc::FanOut):
/// one [`route_input`] round per atom, the base hashed from the row.
fn route(ex: &mut RowExchange<'_>, query: &Query, rels: &[Relation], grid: &Grid, h: &HashFamily) {
    for (j, (atom, rel)) in query.atoms().iter().zip(rels).enumerate() {
        let fan = grid.fan_out(|v| atom.vars.contains(&v));
        // Per column: its variable (which hash), share and stride.
        let per_col: Vec<(usize, usize, usize)> = atom
            .vars
            .iter()
            .map(|&v| (v, grid.dims()[v], fan.strides()[v]))
            .collect();
        if !rel.is_empty() {
            ex.note_grid(grid);
        }
        route_input(ex, j, rel, grid.len(), fan.offsets(), |_, row| {
            row.iter()
                .zip(&per_col)
                .map(|(&value, &(v, share, stride))| h.hash(v, value, share) * stride)
                .sum()
        });
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
    fn p_off_the_grid_sits_the_round_out() {
        use parqp_mpc::trace::{analyze, Recorder};

        let q = Query::triangle();
        let g = generate::random_symmetric_graph(60, 600, 7);
        let rels = vec![g.clone(), g.clone(), g];
        let sizes = [rels[0].len() as u64; 3];
        for p in [5, 7, 10, 30, 63] {
            let shares = parqp_lp::plan_shares(&q.hypergraph(), &sizes, p).shares;
            let on_grid: usize = shares.iter().product();
            assert!(on_grid < p, "p = {p} must leave servers off the grid");
            let (trace, run) = Recorder::capture(|| hypercube(&q, &rels, p, 3));
            let grid_run = hypercube_with_shares(&q, &rels, &shares, 3);
            assert_eq!(run.outputs.len(), p);
            assert_eq!(run.report.servers, p);
            assert_eq!(
                run.report.max_load_tuples(),
                grid_run.report.max_load_tuples()
            );
            assert_eq!(run.report.total_words(), grid_run.report.total_words());
            assert_eq!(run.outputs[..on_grid], grid_run.outputs[..]);
            assert!(run.outputs[on_grid..].iter().all(Relation::is_empty));
            // The trace's rounds are the ledger's, over all p servers.
            assert_eq!(analyze::round_loads(&trace), run.report.rounds);
        }
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
