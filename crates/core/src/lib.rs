//! # cyclo-join — distributed join processing on the Data Roundabout
//!
//! A faithful reproduction of *"A Spinning Join That Does Not Get Dizzy"*
//! (Frey, Goncalves, Kersten, Teubner — ICDCS 2010): relation `S` stays
//! partitioned across a ring of hosts while relation `R` rotates through
//! it over an RDMA-style transport; after one full revolution every host
//! holds `R ⋈ S_i`, and their union is the complete join — computed
//! entirely in distributed main memory.
//!
//! The six-blade RDMA cluster of the paper is replaced by a deterministic
//! discrete-event simulation (see the `simnet` and `data-roundabout`
//! crates); the local join algorithms, the ring protocol, and the results
//! themselves are all real and verified against single-host reference
//! joins.
//!
//! ## Quick start
//!
//! ```
//! use cyclo_join::CycloJoin;
//! use relation::GenSpec;
//!
//! # fn main() -> Result<(), cyclo_join::PlanError> {
//! // Two relations of 50k 12-byte tuples with uniform join keys.
//! let r = GenSpec::uniform(50_000, 1).generate();
//! let s = GenSpec::uniform(50_000, 2).generate();
//!
//! // Join them on a six-host RDMA ring.
//! let report = CycloJoin::new(r, s).hosts(6).run()?;
//! println!("{report}");
//! assert!(report.match_count() > 0);
//! # Ok(())
//! # }
//! ```
//!
//! ## Module map
//!
//! * [`plan::CycloJoin`] — the builder/entry point;
//! * [`compute`] — measured vs modeled compute pricing;
//! * [`distribute`] — spreading inputs over the ring, rotation choice;
//! * [`result`] — the distributed join result;
//! * `session` / `exec` (crate-private) — the one query session (per-query
//!   stationary state and collectors; setup, visit, takeover) that
//!   `CycloJoin`, `MultiTenantJoin` and `ConcurrentJoins` all run, and the
//!   one executor that plugs it into the four backends;
//! * [`report`] — phase breakdowns (setup / join / sync, CPU load);
//! * [`model`] — the analytic cost model and §V-E crossover analysis;
//! * [`pipeline`] / [`ternary`] — multi-way joins via repeated revolutions
//!   (the ternary join is the two-stage pipeline);
//! * [`concurrent`] — multiple queries sharing one rotation;
//! * [`multiplex`] — independent tenants multiplexed on one ring with
//!   per-query credits and admission control;
//! * [`cyclotron`] — continuous rotation with ad-hoc query arrivals (the
//!   full Data Cyclotron operational mode);
//! * [`sql`] — a minimal SQL front-end (§VII's "SQL-enabled system");
//! * [`verify`] — trusted single-host reference joins.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compute;
pub mod concurrent;
pub mod cyclotron;
pub mod distribute;
mod exec;
pub mod model;
pub mod multiplex;
pub mod pipeline;
pub mod plan;
pub mod report;
pub mod result;
mod session;
pub mod sql;
pub mod ternary;
pub mod verify;

pub use compute::{ComputeMode, CostModel};
pub use concurrent::{ConcurrentJoins, ConcurrentReport, QueryOutcome};
pub use cyclotron::{CyclotronReport, DataCyclotron, QueryArrival};
pub use distribute::{Placement, RotateSide};
pub use model::{
    advise, advise_from_data, crossover_ring_size, predict, predict_degraded, predict_rescale,
    Advice, PhasePrediction, Workload,
};
pub use multiplex::{MultiTenantJoin, MultiTenantReport, TenantReport};
pub use pipeline::{JoinPipeline, PipelineReport};
pub use plan::{CycloJoin, PlanError};
pub use report::CycloJoinReport;
pub use result::DistributedResult;
pub use sql::{Catalog, Query, SqlError};
pub use ternary::{TernaryJoin, TernaryReport};
pub use verify::{reference_join, Reference};

// Re-exports so downstream users can drive everything from one crate.
pub use data_roundabout::{FaultPlan, HostId, RescalePlan, RingConfig, RingError, RingMetrics};
pub use mem_joins::{Algorithm, JoinPredicate, OutputMode};
pub use simnet::span::{SpanKind, SpanTracer};
