//! Radix-partitioned hash join (MonetDB’s radix join \[22\]).
//!
//! The algorithm is carefully tuned to CPU cache characteristics: during a
//! **setup phase** both inputs are radix-partitioned on a hash of the join
//! key so that each partition of the stationary relation *plus its hash
//! table* fits in the cache its host gets; the subsequent **join phase**
//! scans the probe-side partitions and probes the matching cache-resident
//! tables. The paper sized a partition to half its blades' 4 MB L2;
//! [`radix_bits_for`] gives one 1/48 of [`CacheParams::l2_bytes`], about
//! 80 KiB under the defaults, because ring hosts that share a core share
//! its caches (the measurement is in its comment).
//!
//! Module layout:
//! * [`radix`] — the radix partitioner: one pass at any fan-out, into a
//!   fragment's wire bytes (the one layout a radix-partitioned fragment
//!   has) or a stationary state's columns,
//! * [`table`] — bucket-chained hash tables over a partition, and the
//!   batched, prefetching probe kernel over a borrowed table,
//! * [`join`] — the two-phase join operator gluing them together, all of
//!   a stationary side's tables in one set of arrays.

pub mod join;
pub mod radix;
pub mod table;

pub use join::HashJoinState;
pub use radix::{radix_bits_for, Partitions, PartitionsView, RadixPartitioned};
pub use table::{ChainedTable, PROBE_BATCH};

use relation::Key;
use serde::{Deserialize, Serialize};

/// The CPU cache the radix join is tuned to: its size sets the fan-out
/// ([`radix_bits_for`]). A partitioning is one pass at any fan-out
/// ([`radix`] has the measurement), so nothing else of the cache is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheParams {
    /// Unified L2 cache size in bytes.
    pub l2_bytes: usize,
}

impl CacheParams {
    /// The paper's testbed: 4 MB unified L2.
    pub fn paper_xeon() -> Self {
        CacheParams { l2_bytes: 4 << 20 }
    }

    /// A deliberately tiny cache, useful in tests to force many partitions
    /// on small inputs.
    pub fn tiny_for_tests() -> Self {
        CacheParams { l2_bytes: 1 << 10 }
    }
}

impl Default for CacheParams {
    fn default() -> Self {
        CacheParams::paper_xeon()
    }
}

/// The hash function applied to join keys before taking radix bits.
///
/// A multiply–xorshift finalizer: cheap, and decorrelates partition ids
/// from raw key values so sequential keys spread over all partitions.
#[inline]
pub fn hash_key(key: Key) -> u32 {
    let mut x = key;
    x = x.wrapping_mul(0x85eb_ca6b);
    x ^= x >> 13;
    x = x.wrapping_mul(0xc2b2_ae35);
    x ^= x >> 16;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_key_is_deterministic_and_spreading() {
        assert_eq!(hash_key(42), hash_key(42));
        // Sequential keys should not collide in their low bits too often.
        let mut low_bits: Vec<u32> = (0..1024u32).map(|k| hash_key(k) & 0xf).collect();
        low_bits.sort_unstable();
        low_bits.dedup();
        assert_eq!(low_bits.len(), 16, "all 16 low-bit buckets should be hit");
    }

    #[test]
    fn default_params_are_the_paper_machine() {
        let p = CacheParams::default();
        assert_eq!(p.l2_bytes, 4 << 20);
    }
}
