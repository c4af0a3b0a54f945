//! Join-then-aggregate pipelines — the query of slide 52:
//!
//! ```sql
//! SELECT cKey, month, SUM(price)
//! FROM Orders, Customers WHERE …
//! GROUP BY cKey, month
//! ```
//!
//! An [`AggregateQuery`] is a conjunctive join plus a grouping of the
//! output variables with a `COUNT` or `SUM` aggregate. Execution chains
//! the planner-chosen join with one combiner-style aggregation round
//! (local pre-aggregation, then one partial sum per (server, group) —
//! skew-insensitive, see [`parqp_join::aggregate`]); the report
//! concatenates both phases' rounds.

use crate::planner::plan_and_run;
use parqp_data::{FastMap, Relation, Value};
use parqp_mpc::{Cluster, HashFamily, LoadReport, Weight};
use parqp_query::{Query, Var};

/// The aggregate applied per group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Number of join results in the group.
    Count,
    /// Sum of the given output variable over the group.
    Sum(Var),
}

/// A conjunctive join with grouping and aggregation on top.
#[derive(Debug, Clone)]
pub struct AggregateQuery {
    /// The join producing rows over all query variables.
    pub join: Query,
    /// Output variables to group by (distinct, non-empty).
    pub group_by: Vec<Var>,
    /// The aggregate.
    pub agg: Agg,
}

impl AggregateQuery {
    /// Validate shape invariants.
    ///
    /// # Panics
    /// Panics if `group_by` is empty, repeats or exceeds the variables,
    /// or a `Sum` variable is out of range / inside the grouping.
    pub fn new(join: Query, group_by: Vec<Var>, agg: Agg) -> Self {
        assert!(!group_by.is_empty(), "group_by must be non-empty");
        let mut sorted = group_by.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), group_by.len(), "group_by repeats a variable");
        assert!(
            group_by.iter().all(|&v| v < join.num_vars()),
            "group_by variable out of range"
        );
        if let Agg::Sum(v) = agg {
            assert!(v < join.num_vars(), "sum variable out of range");
            assert!(!group_by.contains(&v), "sum variable cannot be grouped");
        }
        Self {
            join,
            group_by,
            agg,
        }
    }

    /// Output arity: the group columns plus the aggregate.
    fn output_arity(&self) -> usize {
        self.group_by.len() + 1
    }
}

/// One aggregation message: group key values plus a partial aggregate.
#[derive(Debug, Clone)]
struct Partial {
    key: Vec<Value>,
    agg: u64,
}

impl Weight for Partial {
    fn words(&self) -> u64 {
        self.key.len() as u64 + 1
    }
}

/// Result of running an [`AggregateQuery`].
#[derive(Debug, Clone)]
pub struct AggregateRun {
    /// Per-server result fragments (`group_by` columns ++ aggregate).
    pub outputs: Vec<Relation>,
    /// Combined cost ledger (join phase ++ aggregation round).
    pub report: LoadReport,
    /// The planner's decision for the join phase.
    pub strategy: crate::planner::Strategy,
}

impl AggregateRun {
    /// Gather all fragments (testing/driver convenience).
    pub fn gathered(&self) -> Relation {
        let arity = self.outputs.first().map_or(1, Relation::arity);
        let mut out = Relation::new(arity);
        for part in &self.outputs {
            out.extend_from(part);
        }
        out
    }
}

/// Execute the pipeline on `p` servers.
pub fn run_aggregate(aq: &AggregateQuery, rels: &[Relation], p: usize, seed: u64) -> AggregateRun {
    let (decision, join_run) = plan_and_run(&aq.join, rels, p, seed);

    // Aggregation round over the join's *distributed* outputs: local
    // pre-aggregation, then one partial per (server, group).
    let mut cluster = Cluster::new(join_run.outputs.len());
    let h = HashFamily::new(seed ^ 0xa66, 1);
    let pn = cluster.p();
    let mut ex = cluster.exchange::<Partial>();
    for (sid, fragment) in join_run.outputs.iter().enumerate() {
        ex.set_sender(sid);
        let mut local: FastMap<Vec<Value>, u64> = FastMap::default();
        for row in fragment.iter() {
            let key: Vec<Value> = aq.group_by.iter().map(|&v| row[v]).collect();
            let inc = match aq.agg {
                Agg::Count => 1,
                Agg::Sum(v) => row[v],
            };
            *local.entry(key).or_insert(0) += inc;
        }
        for (key, agg) in local {
            let dest = h.hash(0, key_digest(&key), pn);
            ex.send(dest, Partial { key, agg });
        }
    }
    let inboxes = ex.finish();

    let outputs: Vec<Relation> = inboxes
        .into_iter()
        .map(|inbox| {
            let mut acc: FastMap<Vec<Value>, u64> = FastMap::default();
            for m in inbox {
                *acc.entry(m.key).or_insert(0) += m.agg;
            }
            let mut rows: Vec<Vec<Value>> = acc
                .into_iter()
                .map(|(mut key, agg)| {
                    key.push(agg);
                    key
                })
                .collect();
            rows.sort_unstable();
            Relation::from_rows(aq.output_arity(), rows)
        })
        .collect();

    let report = LoadReport::sequential(&[join_run.report.padded(pn), cluster.report()]);
    AggregateRun {
        outputs,
        report,
        strategy: decision.strategy,
    }
}

/// Fold a composite group key into one routing digest.
fn key_digest(key: &[Value]) -> u64 {
    key.iter().fold(0xcbf2_9ce4_8422_2325u64, |acc, &v| {
        parqp_mpc::hash::splitmix64(acc ^ v)
    })
}

/// Serial oracle: evaluate the join, aggregating each answer row into a
/// hash map as the join produces it, without holding the join.
pub fn aggregate_oracle(aq: &AggregateQuery, rels: &[Relation]) -> Relation {
    let mut acc: FastMap<Vec<Value>, u64> = FastMap::default();
    parqp_query::evaluate_each(&aq.join, rels, |row| {
        let key: Vec<Value> = aq.group_by.iter().map(|&v| row[v]).collect();
        let inc = match aq.agg {
            Agg::Count => 1,
            Agg::Sum(v) => row[v],
        };
        *acc.entry(key).or_insert(0) += inc;
    });
    let mut rows: Vec<Vec<Value>> = acc
        .into_iter()
        .map(|(mut key, agg)| {
            key.push(agg);
            key
        })
        .collect();
    rows.sort_unstable();
    Relation::from_rows(aq.output_arity(), rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parqp_data::generate;

    fn sorted(rel: Relation) -> Relation {
        let mut r = rel;
        r.sort();
        r
    }

    #[test]
    fn slide52_orders_customers() {
        // Orders(cKey, price) ⋈ Customers(cKey, region), SUM(price) per cKey.
        let join = parqp_query::parse_query("Orders(c, p), Customers(c, r)").expect("valid");
        let aq = AggregateQuery::new(join, vec![0], Agg::Sum(1));
        let orders = generate::zipf_pairs(3000, 200, 1.1, 0, 3);
        let customers = generate::key_unique_pairs(200, 0, 10, 4);
        let run = run_aggregate(&aq, &[orders.clone(), customers.clone()], 16, 7);
        let expect = aggregate_oracle(&aq, &[orders, customers]);
        assert_eq!(sorted(run.gathered()), expect);
        // One aggregation round beyond the join's.
        assert_eq!(run.report.num_rounds(), 2);
    }

    #[test]
    fn count_per_group_on_triangle() {
        // Triangles per x value.
        let g = generate::random_symmetric_graph(40, 300, 5);
        let aq = AggregateQuery::new(Query::triangle(), vec![0], Agg::Count);
        let rels = vec![g.clone(), g.clone(), g];
        let run = run_aggregate(&aq, &rels, 8, 3);
        let expect = aggregate_oracle(&aq, &rels);
        assert_eq!(sorted(run.gathered()), expect);
    }

    #[test]
    fn multi_column_grouping() {
        let join = parqp_query::parse_query("R(a,b), S(b,c)").expect("valid");
        let aq = AggregateQuery::new(join, vec![0, 2], Agg::Count);
        let r = generate::uniform(2, 400, 30, 8);
        let s = generate::uniform(2, 400, 30, 9);
        let run = run_aggregate(&aq, &[r.clone(), s.clone()], 8, 5);
        assert_eq!(sorted(run.gathered()), aggregate_oracle(&aq, &[r, s]));
    }

    #[test]
    fn skewed_groups_stay_balanced() {
        // All join rows share one group: the combiner sends ≤ p partials.
        let join = parqp_query::parse_query("R(a,b), S(b,c)").expect("valid");
        let aq = AggregateQuery::new(join.clone(), vec![0], Agg::Count);
        let r = generate::constant_key_pairs(2000, 7, 0); // a = 7 everywhere
        let s = generate::key_unique_pairs(500, 0, 10, 5);
        let run = run_aggregate(&aq, &[r, s], 16, 5);
        let last = run.report.rounds.last().expect("agg round");
        assert!(last.max_tuples() <= 16, "aggregation round stays tiny");
        assert_eq!(run.gathered().len(), 1);
    }

    #[test]
    #[should_panic(expected = "sum variable cannot be grouped")]
    fn bad_shape_rejected() {
        AggregateQuery::new(Query::two_way(), vec![0], Agg::Sum(0));
    }
}
