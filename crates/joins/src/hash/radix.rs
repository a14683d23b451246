//! Multi-pass radix partitioning.
//!
//! Partitioning scatters tuples into `2^bits` partitions according to the
//! low bits of `hash_key(key)`. Resolving too many bits in one pass would
//! thrash the TLB and cache (one open scatter target per partition), so
//! passes resolve at most [`CacheParams::max_bits_per_pass`] bits each,
//! refining the partitions of the previous pass — exactly the scheme of
//! Manegold, Boncz and Kersten \[22\].

use relation::{ColumnValue, Columns, Key, Payload, Relation, RelationView};
use serde::{Deserialize, Serialize};

use super::{hash_key, CacheParams};
use crate::parallel::{fork_join, shard_ranges};
use crate::wire::TableParts;

/// A relation scattered into `2^bits` hash partitions.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RadixPartitioned {
    bits: u32,
    partitions: Vec<Relation>,
}

impl RadixPartitioned {
    /// Partitions `rel` — a relation, a range of one, or bytes it arrived
    /// in — on `bits` radix bits of the key hash, in passes of at most
    /// `params.max_bits_per_pass` bits.
    ///
    /// The first pass scatters straight from the borrowed input's columns
    /// as they lie — the input is never cloned. Callers that own their
    /// relation and are done with it should prefer
    /// [`RadixPartitioned::from_owned`], which also avoids the copy on the
    /// `bits == 0` identity path.
    pub fn new<'r>(rel: impl Into<RelationView<'r>>, bits: u32, params: &CacheParams) -> Self {
        assert!(bits <= 24, "more than 2^24 partitions is never useful here");
        let rel = rel.into();
        if bits == 0 {
            return RadixPartitioned {
                bits: 0,
                partitions: vec![rel.to_relation()],
            };
        }
        RadixPartitioned {
            bits,
            partitions: scatter_view(rel, bits, params),
        }
    }

    /// Like [`RadixPartitioned::new`] but consumes the relation, so the
    /// `bits == 0` identity partitioning moves the storage instead of
    /// copying it. For `bits > 0` the input is scattered from a borrow and
    /// dropped — the partitions own fresh storage either way.
    pub fn from_owned(rel: Relation, bits: u32, params: &CacheParams) -> Self {
        assert!(bits <= 24, "more than 2^24 partitions is never useful here");
        if bits == 0 {
            return RadixPartitioned {
                bits: 0,
                partitions: vec![rel],
            };
        }
        RadixPartitioned::new(&rel, bits, params)
    }

    /// Like [`RadixPartitioned::new`] but scatters with `threads` worker
    /// threads: each thread partitions a contiguous chunk of the input and
    /// the per-partition pieces are concatenated. The partition *multisets*
    /// equal the sequential result; only the order of tuples within each
    /// partition differs.
    pub fn new_parallel<'r>(
        rel: impl Into<RelationView<'r>>,
        bits: u32,
        params: &CacheParams,
        threads: usize,
    ) -> Self {
        let rel = rel.into();
        if threads <= 1 || rel.len() < 4 * threads || bits == 0 {
            return RadixPartitioned::new(rel, bits, params);
        }
        let ranges = shard_ranges(rel.len(), threads);
        // Each thread scatters its borrowed chunk of the input columns
        // directly — no per-chunk copy of the tuples before the scatter.
        let chunk_parts: Vec<Vec<Relation>> = fork_join(threads, |i| {
            let chunk = rel.range(ranges[i].clone()).expect("shard range in bounds");
            scatter_view(chunk, bits, params)
        });
        let fanout = 1usize << bits;
        let mut partitions: Vec<Relation> = (0..fanout)
            .map(|j| {
                let cap = chunk_parts.iter().map(|cp| cp[j].len()).sum();
                Relation::with_capacity(cap)
            })
            .collect();
        for cp in &chunk_parts {
            for (j, p) in cp.iter().enumerate() {
                partitions[j].extend_from(p);
            }
        }
        RadixPartitioned { bits, partitions }
    }

    /// Reassembles a partitioned relation from its parts — the inverse of
    /// taking `bits()` and `partitions()` apart, used when a partitioned
    /// fragment is reconstructed after crossing a byte-oriented transport.
    ///
    /// # Panics
    ///
    /// Panics if `partitions.len() != 2^bits`; callers deserializing
    /// untrusted bytes must validate the count first.
    pub fn from_parts(bits: u32, partitions: Vec<Relation>) -> Self {
        assert_eq!(
            partitions.len(),
            1usize << bits,
            "a {bits}-bit radix partitioning needs exactly 2^{bits} partitions"
        );
        RadixPartitioned { bits, partitions }
    }

    /// Number of radix bits (`partitions() == 2^bits`).
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The partitions, indexed by the low `bits` of the key hash.
    pub fn partitions(&self) -> &[Relation] {
        &self.partitions
    }

    /// Consumes the partitioning, returning the owned partitions — lets a
    /// consumer (the per-partition hash-table build) take over the backing
    /// storage instead of copying both columns of every partition.
    pub fn into_partitions(self) -> Vec<Relation> {
        self.partitions
    }

    /// Partition `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn partition(&self, index: usize) -> &Relation {
        &self.partitions[index]
    }

    /// Total number of tuples across all partitions.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(Relation::len).sum()
    }

    /// True if no partition holds any tuple.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical byte volume (12 bytes per tuple), for transport accounting.
    pub fn byte_volume(&self) -> u64 {
        self.partitions.iter().map(Relation::byte_volume).sum()
    }

    /// Reassembles a flat relation (partition order; for tests).
    pub fn flatten(&self) -> Relation {
        let mut out = Relation::with_capacity(self.len());
        for p in &self.partitions {
            out.extend_from(p);
        }
        out
    }
}

/// A radix-partitioned fragment as a visit reads it: the partitions of an
/// owned [`RadixPartitioned`], or the partition table of the bytes it
/// arrived in ([`crate::wire`]), read in place and in order.
#[derive(Debug, Clone, Copy)]
pub struct PartitionsView<'a> {
    bits: u32,
    parts: Parts<'a>,
}

#[derive(Debug, Clone, Copy)]
enum Parts<'a> {
    Owned(&'a [Relation]),
    /// `count` length-prefixed relation encodings, already accepted.
    Wire {
        count: usize,
        table: &'a [u8],
    },
}

impl<'a> From<&'a RadixPartitioned> for PartitionsView<'a> {
    fn from(part: &'a RadixPartitioned) -> Self {
        PartitionsView {
            bits: part.bits,
            parts: Parts::Owned(&part.partitions),
        }
    }
}

impl<'a> PartitionsView<'a> {
    /// The `count` partitions of an accepted wire table.
    pub(crate) fn wire(bits: u32, count: usize, table: &'a [u8]) -> Self {
        PartitionsView {
            bits,
            parts: Parts::Wire { count, table },
        }
    }

    /// Number of radix bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The partitions in index order (`2^bits` of them).
    pub fn partitions(&self) -> Partitions<'a> {
        Partitions(match self.parts {
            Parts::Owned(parts) => PartsIter::Owned(parts.iter()),
            Parts::Wire { count, table } => PartsIter::Wire(TableParts::new(table, count)),
        })
    }

    /// Total number of tuples across all partitions.
    pub fn len(&self) -> usize {
        self.partitions().map(|p| p.len()).sum()
    }

    /// True if no partition holds any tuple.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An owned copy of the partitioning.
    pub fn to_partitioned(&self) -> RadixPartitioned {
        let partitions = self.partitions().map(|p| p.to_relation()).collect();
        RadixPartitioned::from_parts(self.bits, partitions)
    }
}

/// Iterator over a [`PartitionsView`]'s partitions.
#[derive(Debug, Clone)]
pub struct Partitions<'a>(PartsIter<'a>);

#[derive(Debug, Clone)]
enum PartsIter<'a> {
    Owned(std::slice::Iter<'a, Relation>),
    Wire(TableParts<'a>),
}

impl<'a> Iterator for Partitions<'a> {
    type Item = RelationView<'a>;

    fn next(&mut self) -> Option<RelationView<'a>> {
        match &mut self.0 {
            PartsIter::Owned(parts) => parts.next().map(RelationView::from),
            PartsIter::Wire(parts) => parts.next(),
        }
    }
}

/// The partition a key belongs to under `bits` total radix bits.
#[inline]
pub fn radix_of(key: Key, bits: u32) -> usize {
    if bits == 0 {
        0
    } else {
        (hash_key(key) & ((1u32 << bits) - 1)) as usize
    }
}

/// [`scatter_slices`] over a view's columns as they lie.
fn scatter_view(rel: RelationView<'_>, bits: u32, params: &CacheParams) -> Vec<Relation> {
    match rel.columns() {
        Columns::Native(keys, payloads) => scatter_slices(keys, payloads, bits, params),
        Columns::Wire(keys, payloads) => scatter_slices(keys, payloads, bits, params),
    }
}

/// Multi-pass scatter over borrowed column slices: resolves
/// most-significant radix bits first, so after every pass the flat
/// concatenation of partitions is ordered by the bits resolved so far (as
/// the *top* of the final index) and once all passes ran, partition `i`
/// holds exactly the keys with `hash & mask == i`. The first pass reads
/// the caller's slices directly (native or little-endian values, one
/// kernel: [`ColumnValue`]); only the refinement passes touch owned
/// intermediate partitions.
fn scatter_slices<K: ColumnValue<Key>, P: ColumnValue<Payload>>(
    keys: &[K],
    payloads: &[P],
    bits: u32,
    params: &CacheParams,
) -> Vec<Relation> {
    debug_assert!(bits > 0, "bits == 0 is the identity; callers handle it");
    let mut remaining = bits;
    let step = params.max_bits_per_pass.max(1).min(remaining);
    let mut current = scatter_one(keys, payloads, remaining - step, step);
    remaining -= step;
    while remaining > 0 {
        let step = params.max_bits_per_pass.max(1).min(remaining);
        let shift = remaining - step;
        let mut refined = Vec::with_capacity(current.len() << step);
        for part in &current {
            refined.extend(scatter_one(part.keys(), part.payloads(), shift, step));
        }
        current = refined;
        remaining -= step;
    }
    current
}

/// Scatters one pair of column slices on `step` bits starting at bit
/// `shift` of the key hash, using a histogram + exact-capacity scatter
/// targets (no per-partition reallocation).
fn scatter_one<K: ColumnValue<Key>, P: ColumnValue<Payload>>(
    keys: &[K],
    payloads: &[P],
    shift: u32,
    step: u32,
) -> Vec<Relation> {
    let fanout = 1usize << step;
    let mask = (fanout - 1) as u32;

    let mut histogram = vec![0usize; fanout];
    for k in keys {
        histogram[((hash_key(k.value()) >> shift) & mask) as usize] += 1;
    }

    let mut out_keys: Vec<Vec<Key>> = histogram.iter().map(|&n| Vec::with_capacity(n)).collect();
    let mut out_payloads: Vec<Vec<Payload>> =
        histogram.iter().map(|&n| Vec::with_capacity(n)).collect();
    for (k, p) in keys.iter().zip(payloads) {
        let k = k.value();
        let idx = ((hash_key(k) >> shift) & mask) as usize;
        out_keys[idx].push(k);
        out_payloads[idx].push(p.value());
    }

    out_keys
        .into_iter()
        .zip(out_payloads)
        .map(|(k, p)| Relation::from_columns(k.into(), p.into()))
        .collect()
}

/// Chooses the number of radix bits so that each partition of a stationary
/// relation with `s_tuples` rows — *plus its hash table* — fits in half the
/// L2 cache (the other half is left for the probe stream), as the paper's
/// radix join requires.
pub fn radix_bits_for(s_tuples: usize, params: &CacheParams) -> u32 {
    // Per tuple: 12 B of data + 8 B of table (4 B head amortized + 4 B next).
    const BYTES_PER_TUPLE: usize = 20;
    let budget = (params.l2_bytes / 2).max(BYTES_PER_TUPLE);
    let tuples_per_partition = (budget / BYTES_PER_TUPLE).max(1);
    let mut bits = 0u32;
    while (s_tuples >> bits) > tuples_per_partition && bits < 18 {
        bits += 1;
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::GenSpec;

    #[test]
    fn partitions_preserve_all_tuples() {
        let rel = GenSpec::uniform(10_000, 1).generate();
        let part = RadixPartitioned::new(&rel, 6, &CacheParams::default());
        assert_eq!(part.partitions().len(), 64);
        assert_eq!(part.len(), rel.len());
        assert_eq!(part.byte_volume(), rel.byte_volume());
    }

    #[test]
    fn tuples_land_in_their_radix_partition() {
        let rel = GenSpec::uniform(5_000, 2).generate();
        let bits = 5;
        let part = RadixPartitioned::new(&rel, bits, &CacheParams::default());
        for (i, p) in part.partitions().iter().enumerate() {
            for &k in p.keys() {
                assert_eq!(radix_of(k, bits), i);
            }
        }
    }

    #[test]
    fn multi_pass_equals_single_pass() {
        let rel = GenSpec::uniform(8_000, 3).generate();
        let single = RadixPartitioned::new(
            &rel,
            6,
            &CacheParams {
                max_bits_per_pass: 6,
                ..CacheParams::default()
            },
        );
        let multi = RadixPartitioned::new(
            &rel,
            6,
            &CacheParams {
                max_bits_per_pass: 2,
                ..CacheParams::default()
            },
        );
        assert_eq!(single.partitions().len(), multi.partitions().len());
        for (a, b) in single.partitions().iter().zip(multi.partitions()) {
            // Same multiset per partition (order may differ between passes).
            let mut ka = a.keys().to_vec();
            let mut kb = b.keys().to_vec();
            ka.sort_unstable();
            kb.sort_unstable();
            assert_eq!(ka, kb);
        }
    }

    #[test]
    fn zero_bits_is_identity() {
        let rel = GenSpec::uniform(100, 4).generate();
        let part = RadixPartitioned::new(&rel, 0, &CacheParams::default());
        assert_eq!(part.partitions().len(), 1);
        assert_eq!(part.partition(0), &rel);
    }

    #[test]
    fn equal_keys_colocate() {
        let rel = Relation::from_pairs([(7, 1), (3, 2), (7, 3), (7, 4)]);
        let part = RadixPartitioned::new(&rel, 4, &CacheParams::default());
        let idx = radix_of(7, 4);
        assert_eq!(
            part.partition(idx)
                .keys()
                .iter()
                .filter(|&&k| k == 7)
                .count(),
            3
        );
    }

    #[test]
    fn uniform_keys_spread_evenly() {
        let rel = GenSpec::uniform(64_000, 5).generate();
        let part = RadixPartitioned::new(&rel, 4, &CacheParams::default());
        let expected = rel.len() as f64 / 16.0;
        for p in part.partitions() {
            let dev = (p.len() as f64 - expected).abs() / expected;
            assert!(
                dev < 0.15,
                "partition skew {dev:.2} too high for uniform keys"
            );
        }
    }

    #[test]
    fn parallel_partitioning_equals_sequential_multisets() {
        let rel = GenSpec::uniform(20_000, 7).generate();
        let params = CacheParams::default();
        let sequential = RadixPartitioned::new(&rel, 5, &params);
        for threads in [1usize, 2, 3, 8] {
            let parallel = RadixPartitioned::new_parallel(&rel, 5, &params, threads);
            assert_eq!(parallel.partitions().len(), sequential.partitions().len());
            for (a, b) in parallel.partitions().iter().zip(sequential.partitions()) {
                let mut ka: Vec<_> = a.iter().collect();
                let mut kb: Vec<_> = b.iter().collect();
                ka.sort_unstable();
                kb.sort_unstable();
                assert_eq!(ka, kb, "threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_partitioning_tiny_inputs_fall_back() {
        let rel = GenSpec::uniform(5, 8).generate();
        let p = RadixPartitioned::new_parallel(&rel, 3, &CacheParams::default(), 4);
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn bits_for_small_relation_is_zero() {
        // A relation that fits L2 outright needs no partitioning.
        assert_eq!(radix_bits_for(1_000, &CacheParams::paper_xeon()), 0);
    }

    #[test]
    fn bits_grow_with_relation_size() {
        let params = CacheParams::paper_xeon();
        let small = radix_bits_for(1 << 20, &params);
        let large = radix_bits_for(1 << 24, &params);
        assert!(large > small);
        // Partitions should actually fit the budget afterwards.
        let tuples_per_part = (1usize << 24) >> large;
        assert!(tuples_per_part * 20 <= params.l2_bytes / 2);
    }

    #[test]
    fn bits_are_capped() {
        assert!(radix_bits_for(usize::MAX / 32, &CacheParams::tiny_for_tests()) <= 18);
    }

    #[test]
    fn empty_relation_partitions_cleanly() {
        let part = RadixPartitioned::new(&Relation::new(), 3, &CacheParams::default());
        assert!(part.is_empty());
        assert_eq!(part.partitions().len(), 8);
    }

    #[test]
    fn flatten_reassembles_the_multiset() {
        let rel = GenSpec::uniform(1_000, 6).generate();
        let part = RadixPartitioned::new(&rel, 4, &CacheParams::default());
        let mut orig: Vec<_> = rel.iter().collect();
        let mut flat: Vec<_> = part.flatten().iter().collect();
        orig.sort_unstable();
        flat.sort_unstable();
        assert_eq!(orig, flat);
    }
}
