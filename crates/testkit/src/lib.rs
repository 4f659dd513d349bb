//! In-tree correctness tooling for the whale workspace.
//!
//! The workspace builds in hermetic environments with no network access,
//! so everything a test or benchmark needs lives here, dependency-free:
//!
//! - [`rng`]: a deterministic, seedable PRNG (SplitMix64 seeding into
//!   xoshiro256**) with the `seed_from_u64` / `gen_range` / `gen_bool`
//!   surface the synthetic-program generator and the test suites use.
//!   Same seed, same stream, on every platform.
//! - [`prop`]: a small property-testing harness — generator combinators,
//!   configurable case counts, failing-seed reporting and greedy
//!   shrinking. Re-run a failure with `TESTKIT_SEED=<n>`.

pub mod prop;
pub mod rng;

pub use prop::{check, Config, Gen};
pub use rng::Rng;
