//! # ringbench — the repo's benchmark
//!
//! Five ring workloads, measured end to end through the calls a user
//! makes (`CycloJoin::run_*`, `MultiTenantJoin::run`) and layer by layer
//! through the public functions of each crate. `README.md` has the
//! commands, the metrics and the reasons; `../BENCHMARK.json` is the
//! contract later changes are held to.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc;
pub mod cli;
pub mod compare;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod nulldriver;
pub mod round;
pub mod staged;
pub mod stats;
pub mod suite;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
