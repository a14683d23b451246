//! # mem-joins — cache-conscious in-memory join algorithms
//!
//! The local-join substrate of the cyclo-join reproduction: Rust ports of
//! the algorithms the paper took from MonetDB (§IV-C), exposed through a
//! uniform two-phase API so cyclo-join can amortize setup across a full
//! ring revolution.
//!
//! * [`hash`] — radix-partitioned hash join tuned to the cache a host
//!   really gets (Manegold, Boncz & Kersten's radix join), equi-joins only;
//! * [`sort`] — radix sort + multi-threaded merge join, including band
//!   joins;
//! * [`nested`] — blocked nested loops for arbitrary theta predicates;
//! * [`operator::Algorithm`] — the uniform setup/prepare/join dispatch;
//! * [`wire`] — a [`PreparedFragment`]: the ring-transport bytes a
//!   fragment is reorganised straight into, which every join reads
//!   through a [`FragmentView`] where they lie.
//!
//! ```
//! use mem_joins::{Algorithm, JoinCollector, JoinPredicate};
//! use relation::GenSpec;
//!
//! let r = GenSpec::uniform(10_000, 1).generate();
//! let s = GenSpec::uniform(10_000, 2).generate();
//!
//! let alg = Algorithm::partitioned_hash();
//! let bits = alg.ring_radix_bits(s.len());
//! let state = alg.setup_stationary(&s, bits, 4);      // setup phase
//! let frag = alg.prepare_fragment(&r, bits, 4);       // fragment reorganization
//! let mut out = JoinCollector::aggregating();
//! alg.join(&state, &frag, &JoinPredicate::Equi, 4, &mut out); // join phase
//! assert!(out.count() > 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod collector;
pub mod hash;
pub mod nested;
pub mod operator;
pub mod parallel;
pub mod predicate;
pub mod sort;
pub mod stats;
pub mod wire;

pub use collector::{JoinCollector, OutputMode};
pub use hash::{CacheParams, HashJoinState, PartitionsView, RadixPartitioned};
pub use nested::nested_loops_join;
pub use operator::{Algorithm, FragmentView, StationaryState};
pub use predicate::JoinPredicate;
pub use sort::{merge_join, SortMergeState, SortedRun};
pub use stats::timed;
pub use wire::PreparedFragment;
