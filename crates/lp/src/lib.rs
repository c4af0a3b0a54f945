//! # parqp-lp — linear programming for parallel query processing
//!
//! The tutorial's load bounds are all linear programs over the query's
//! hypergraph (slides 39–44, 55):
//!
//! * the **fractional edge packing** number τ\* governs the skew-free
//!   one-round load `L = IN / p^{1/τ*}`;
//! * the **fractional edge cover** number ρ\* gives the AGM output bound
//!   `|OUT| ≤ IN^{ρ*}` and the multi-round communication lower bound;
//! * the **fractional vertex cover** is the LP dual of edge packing
//!   (slide 39: `min Σw = max Σu = τ*`);
//! * the HyperCube **shares** `p₁ … p_k` are the solution of an LP in the
//!   exponents `e_i` with `pᵢ = p^{e_i}` (slide 38).
//!
//! All of these are solved with [`simplex`], a from-scratch dense
//! two-phase primal simplex with Bland's rule. Query LPs have at most a
//! few dozen variables, so the implementation favours numerical
//! robustness and clarity over sparse-matrix performance.

pub mod covers;
pub mod hypergraph;
pub mod shares;
pub mod simplex;

pub use covers::{
    agm_bound, fractional_edge_cover, fractional_edge_packing, fractional_vertex_cover,
};
pub use hypergraph::Hypergraph;
pub use shares::{
    integer_shares, optimal_share_exponents, plan_shares, predicted_load, ShareAssignment,
};
pub use simplex::{solve, Constraint, ConstraintOp, LinearProgram, LpOutcome, Solution};
