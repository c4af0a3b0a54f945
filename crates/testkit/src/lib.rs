//! `parqp-testkit` — self-contained randomness, property testing, a
//! worker pool and the workspace's one clock.
//!
//! The workspace must build and test with **zero network access**, so
//! nothing here comes from crates.io. Two modules replace external
//! dev-dependencies the seed tree had:
//!
//! * [`rng`] replaces `rand`: a SplitMix64-seeded xoshiro256++
//!   generator behind a small `gen_range`/`gen_f64`/`shuffle` API.
//!   Every generated relation, hash seed, and benchmark input in the
//!   workspace is a pure function of a `u64` seed.
//! * [`prop`] replaces `proptest`: seeded strategies, a `proptest!`
//!   macro, `prop_assert*!`/`prop_assume!`, and counterexample
//!   shrinking. Failures print a `PARQP_PROPTEST_SEED=… cargo test …`
//!   line that replays the exact case.
//!
//! [`mod@bench`] is [`bench::time_ns`] and nothing else: the one
//! wall-clock read, which the `perf` program times everything with.
//! [`pool`] is the one place that spawns threads.
//!
//! The seeding convention across the workspace: public APIs take a
//! `u64` seed and derive all internal randomness from it via
//! [`Rng::seed_from_u64`]; independent streams come from [`Rng::fork`].
//! Two runs with the same seeds are byte-identical.

pub mod bench;
pub mod pool;
pub mod prop;
pub mod rng;

pub use rng::{splitmix64, Rng};

/// One-stop imports for property tests, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::prop::collection;
    pub use crate::prop::{any, Arbitrary, BoxedStrategy, CaseError, CaseResult};
    pub use crate::prop::{Config, Just, ProptestConfig, Strategy, Union};
    pub use crate::rng::Rng;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}
