//! # parqp-query — conjunctive queries, decompositions and serial oracles
//!
//! The query-language layer of the reproduction:
//!
//! * [`query`] — full conjunctive queries (natural joins)
//!   `Q(x₁…x_k) = S₁(x̄₁) ⋈ … ⋈ S_l(x̄_l)` with named constructors for
//!   every shape the tutorial uses (triangle, chains, stars, cycles,
//!   the semijoin pair `R(x) ⋈ S(x,y) ⋈ T(y)`);
//! * [`ghd`] — generalized hypertree decompositions: the GYO ear-removal
//!   test building width-1 join trees for acyclic queries (slide 64), and
//!   the chain-query constructions trading width for depth (slide 95);
//! * [`mod@residual`] — residual queries `Q_x` for heavy/light decompositions
//!   and the skew exponent ψ\* (slide 47);
//! * [`oracle`] — serial reference evaluation: a binding-table hash join
//!   (the ground truth every MPC algorithm is tested against), the
//!   serial Yannakakis algorithm (slides 64–77) and its count-only form,
//!   the `O(IN)` output size the planner reads;
//! * [`parser`] — a Datalog-style surface syntax
//!   (`Q(x,y,z) :- R(x,y), S(y,z), T(z,x)`);
//! * [`schema`] — the one local join and semijoin of two relations over
//!   variable schemas ([`SchemaJoin`]) and the reorder into variable
//!   order, shared by the serial oracle and every multi-round algorithm.

pub mod ghd;
pub mod oracle;
pub mod parser;
pub mod query;
pub mod residual;
pub mod schema;

pub use ghd::{Bag, Ghd};
pub use oracle::{acyclic_output_size, evaluate, evaluate_each, yannakakis_serial};
pub use parser::{parse_query, ParseError};
pub use query::{Atom, Query, Var};
pub use residual::{all_residuals, psi_star, residual, ResidualQuery};
pub use schema::{in_variable_order, SchemaJoin};
