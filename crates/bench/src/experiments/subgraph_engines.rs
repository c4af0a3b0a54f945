//! SUB — subgraph query engines in practice (slide 97).
//!
//! The tutorial's closing practice slide lists the BiGJoin / TwinTwig /
//! PSgL family: multi-round vertex-at-a-time engines for subgraph
//! queries. This experiment compares, on the same random graph:
//!
//! * the one-round HyperCube (optimal L, replicates input),
//! * the vertex-at-a-time expansion join (rounds = query radius,
//!   communication tracks partial-binding sizes),
//! * the iterative binary-join plan (edge-at-a-time, intermediate
//!   blow-up),
//!
//! across the triangle, the 4-cycle and the 5-cycle. No engine
//! dominates: on a sparse graph the vertex-at-a-time engines avoid the
//! HyperCube's replication (triangle), while on selective cycles their
//! path intermediates dwarf the output and the one-round algorithm wins
//! total communication.

use crate::Table;
use parqp::data::generate;
use parqp::join::{multiway, plans, subgraph};
use parqp::prelude::*;

/// Run SUB.
pub fn run() -> Vec<Table> {
    let p = 64usize;
    // A *sparse* graph (average degree ≈ 4): the vertex-at-a-time engines
    // shine when partial-binding sizes stay near the input, while the
    // one-round HyperCube must replicate by p^{1-1/τ*} regardless.
    let g = generate::random_symmetric_graph(4000, 16_000, 7);
    let n = g.len();

    let mut t = Table::new(
        format!("SUB (slide 97): subgraph engines on a graph with {n} directed edges, p = {p}"),
        &["query", "engine", "L", "rounds", "C", "matches"],
    );
    for (name, q) in [
        ("triangle", Query::triangle()),
        ("4-cycle", Query::cycle(4)),
        ("5-cycle", Query::cycle(5)),
    ] {
        let rels: Vec<Relation> = (0..q.num_atoms()).map(|_| g.clone()).collect();
        let hc = multiway::hypercube(&q, &rels, p, 5);
        let ex = subgraph::expansion_join(&q, &rels, p, 5);
        let bp = plans::binary_join_plan(&q, &rels, p, 5, None);
        // All engines return the same bag.
        let sorted = |run: &JoinRun| {
            let mut rows = run.gathered();
            rows.sort();
            rows
        };
        assert_eq!(sorted(&hc), sorted(&ex), "{name}");
        assert_eq!(sorted(&hc), sorted(&bp), "{name}");
        for (engine, run) in [("HyperCube", &hc), ("expansion", &ex), ("binary plan", &bp)] {
            t.row(vec![
                name.into(),
                engine.into(),
                run.report.max_load_tuples().to_string(),
                run.report.num_rounds().to_string(),
                run.report.total_tuples().to_string(),
                run.output_size().to_string(),
            ]);
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn engines_agree_and_the_tradeoff_goes_both_ways() {
        let t = &super::run()[0];
        // Per query, the three engines report identical match counts.
        for chunk in t.rows.chunks(3) {
            let m: Vec<&String> = chunk.iter().map(|r| &r[5]).collect();
            assert!(m.windows(2).all(|w| w[0] == w[1]), "{chunk:?}");
        }
        let get = |query: &str, engine: &str, col: usize| -> f64 {
            t.rows
                .iter()
                .find(|r| r[0] == query && r[1] == engine)
                .expect("row")[col]
                .parse()
                .expect("numeric")
        };
        // Sparse triangle: the multi-round engines avoid the HyperCube's
        // p^{1/3} replication and win on load.
        assert!(get("triangle", "expansion", 2) < get("triangle", "HyperCube", 2));
        // Selective 5-cycle: intermediates (all 4-paths) dwarf the output,
        // so the one-round HyperCube wins total communication — no engine
        // dominates, which is the slide 97 story.
        assert!(get("5-cycle", "HyperCube", 4) < get("5-cycle", "expansion", 4));
    }
}
