//! # relation — columnar storage and workload generation
//!
//! The data substrate of the cyclo-join reproduction: 12-byte tuples
//! (4-byte join key + 8-byte payload, exactly the paper's tuple layout)
//! held in MonetDB-BAT-style columnar [`Relation`]s, plus seeded,
//! reproducible generators for the paper's uniform and Zipf-skewed
//! workloads, partitioning schemes for spreading data over hosts, and
//! order-independent [`Checksum`]s for verifying distributed join results.
//!
//! ```
//! use relation::{GenSpec, Relation};
//!
//! // 10k tuples with uniform keys, deterministically from seed 42.
//! let r: Relation = GenSpec::uniform(10_000, 42).generate();
//! assert_eq!(r.byte_volume(), 120_000);
//! let parts = r.split_even(4);
//! assert_eq!(parts.iter().map(Relation::len).sum::<usize>(), 10_000);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checksum;
pub mod column;
pub mod generator;
pub mod partition;
pub mod profile;
pub mod relation;
pub mod tuple;
pub mod wire;
pub mod zipf;

pub use checksum::{relation_checksum, Checksum};
pub use column::Column;
pub use generator::{paper_skew_pair, paper_uniform_pair, GenSpec, KeyDistribution};
pub use partition::{hash_partition, partition_of};
pub use profile::estimate_equi_matches;
pub use relation::Relation;
pub use tuple::{Key, MatchPair, Payload, Tuple, TUPLE_BYTES};
pub use wire::{decode, encode, ColumnValue, Columns, DecodeError, RelationView};
pub use zipf::Zipf;
