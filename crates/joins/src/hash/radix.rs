//! One-pass radix partitioning.
//!
//! Partitioning scatters tuples into `2^bits` partitions according to the
//! low bits of `hash_key(key)`, in one pass at any fan-out: a histogram
//! lays the partitions out, and one scatter writes every tuple at its
//! final offset — in a fragment's wire bytes (`partition_into_wire`, the
//! layout of [`crate::wire`], which is the one layout a radix-partitioned
//! fragment has) or in a stationary state's columns
//! (`scatter_into_columns`).
//!
//! The paper's radix cluster (§IV-C, after Manegold, Boncz and Kersten
//! \[22\]) bounds the bits one pass resolves, so that the open scatter
//! targets fit the TLB, and refines each pass's partitions in the next.
//! Here that scheme lost to the one pass at every fan-out where the two
//! differ. `prepare_fragment` on one thread, one pass against passes of
//! at most 8 bits (which wrote owned partitions, then encoded them), the
//! median ratio of alternated rounds on a 2-vCPU Xeon VM:
//!
//! ```text
//! tuples       9 bits  10 bits  12 bits  14 bits
//! 32 768        0.47     0.38     0.56     0.29
//! 1 048 576     0.40     0.47     0.58     0.69
//! 4 194 304     0.52     0.59     0.64     0.79
//! ```
//!
//! At 5 and 8 bits the two run the same code and read 0.96–1.09, the
//! machine's noise. Eleven rounds a cell; the upper quartile of every
//! cell at 9–14 bits lay below 0.82.

use relation::wire as rw;
use relation::{ColumnValue, Columns, Key, Payload, RelationView};

use super::{hash_key, CacheParams};
use crate::operator::Algorithm;
use crate::parallel::{fork_join_each, shard_range};
use crate::wire::{self, PreparedFragment, TableParts};

/// A relation radix-partitioned on `bits` bits of its key hash, in the
/// bytes [`Algorithm::prepare_fragment`] writes: the partition table of a
/// prepared fragment ([`crate::wire`]). A visit reads it through a
/// [`PartitionsView`].
#[derive(Debug, Clone)]
pub struct RadixPartitioned {
    bits: u32,
    fragment: PreparedFragment,
}

impl RadixPartitioned {
    /// Partitions `rel` — a relation, a range of one, or bytes it arrived
    /// in — on `bits` radix bits of the key hash, on one thread.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 24`.
    pub fn new<'r>(rel: impl Into<RelationView<'r>>, bits: u32, params: &CacheParams) -> Self {
        RadixPartitioned {
            bits,
            fragment: Algorithm::PartitionedHash(*params).prepare_fragment(rel, bits, 1),
        }
    }

    /// Number of radix bits (`2^bits` partitions).
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Total number of tuples across all partitions.
    pub fn len(&self) -> usize {
        self.fragment.len()
    }

    /// True if no partition holds any tuple.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical byte volume (12 bytes per tuple), for transport accounting.
    pub fn byte_volume(&self) -> u64 {
        self.fragment.byte_volume()
    }
}

/// A radix-partitioned fragment as a visit reads it: the partition table
/// of the bytes it was prepared or arrived in ([`crate::wire`]), read in
/// place and in order.
#[derive(Debug, Clone, Copy)]
pub struct PartitionsView<'a> {
    bits: u32,
    /// `2^bits` length-prefixed relation encodings, already accepted.
    table: &'a [u8],
}

impl<'a> From<&'a RadixPartitioned> for PartitionsView<'a> {
    fn from(part: &'a RadixPartitioned) -> Self {
        PartitionsView::wire(part.bits, &part.fragment.as_bytes()[wire::HASH_HEADER..])
    }
}

impl<'a> PartitionsView<'a> {
    /// The `2^bits` partitions of an accepted wire table.
    pub(crate) fn wire(bits: u32, table: &'a [u8]) -> Self {
        PartitionsView { bits, table }
    }

    /// Number of radix bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The partitions in index order (`2^bits` of them).
    pub fn partitions(&self) -> Partitions<'a> {
        Partitions(TableParts::new(self.table, 1 << self.bits))
    }

    /// Total number of tuples across all partitions.
    pub fn len(&self) -> usize {
        self.partitions().map(|p| p.len()).sum()
    }

    /// True if no partition holds any tuple.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Iterator over a [`PartitionsView`]'s partitions.
#[derive(Debug, Clone)]
pub struct Partitions<'a>(TableParts<'a>);

impl<'a> Iterator for Partitions<'a> {
    type Item = RelationView<'a>;

    fn next(&mut self) -> Option<RelationView<'a>> {
        self.0.next()
    }
}

/// Radix-partitions `rel` on `bits` radix bits straight into the wire
/// form of a hash-partitioned fragment ([`crate::wire`]), in one pass at
/// any fan-out and on any number of threads: each tuple is scattered into
/// its place in the bytes, with no owned partition before them.
///
/// # Panics
///
/// Panics if `bits > 24`.
pub(crate) fn partition_into_wire(rel: RelationView<'_>, bits: u32, threads: usize) -> Vec<u8> {
    assert!(bits <= 24, "more than 2^24 partitions is never useful here");
    if bits == 0 {
        // One partition: the tuples as they are.
        let len = rw::encoded_len(rel.len());
        let mut out = Vec::with_capacity(wire::HASH_HEADER + 4 + len);
        out.extend_from_slice(&wire::hash_header(0));
        out.extend_from_slice(&(len as u32).to_le_bytes());
        rw::encode_into(rel, &mut out);
        return out;
    }
    let shards = shards_for(rel.len(), threads);
    match rel.columns() {
        Columns::Native(keys, payloads) => scatter_into_wire(keys, payloads, bits, shards),
        Columns::Wire(keys, payloads) => scatter_into_wire(keys, payloads, bits, shards),
    }
}

/// One shard's range of one partition: first how many of the shard's
/// tuples go there, then where they go and how many are in. A wire
/// scatter writes little-endian columns and folds checksums; a stationary
/// state's scatter writes native columns.
struct Slot<'o, K, P> {
    next: usize,
    /// The partition's relation header (a wire scatter's, in the first
    /// shard's slot only).
    head: &'o mut [u8],
    keys: &'o mut [K],
    payloads: &'o mut [P],
    sum: rw::WireChecksum,
}

/// The histogram of a one-pass scatter of `keys` on all `bits` radix bits
/// by `shards` threads that each take a contiguous chunk: shard `s`'s
/// count of partition `j` is `slots[s * fanout + j].next`.
fn histogram<'o, K: ColumnValue<Key>, DK, DP>(
    keys: &[K],
    bits: u32,
    shards: usize,
) -> Vec<Slot<'o, DK, DP>> {
    let fanout = 1usize << bits;
    let mut slots: Vec<Slot<'o, DK, DP>> = (0..shards * fanout)
        .map(|_| Slot {
            next: 0,
            head: &mut [],
            keys: &mut [],
            payloads: &mut [],
            sum: rw::WireChecksum::default(),
        })
        .collect();
    for (s, shard) in slots.chunks_mut(fanout).enumerate() {
        for k in &keys[shard_range(keys.len(), shards, s)] {
            shard[radix_of(k.value(), bits)].next += 1;
        }
    }
    slots
}

/// Tuples of partition `j`, over every shard.
fn partition_len<K, P>(slots: &[Slot<'_, K, P>], fanout: usize, j: usize) -> usize {
    slots.iter().skip(j).step_by(fanout).map(|s| s.next).sum()
}

/// Hands partition `j`'s columns to its shards' slots, each behind the
/// ranges of the shards before it, so tuples keep their input order
/// within a partition whatever the number of shards.
fn lay_out<'o, K, P>(
    slots: &mut [Slot<'o, K, P>],
    fanout: usize,
    j: usize,
    mut keys: &'o mut [K],
    mut payloads: &'o mut [P],
) {
    for slot in slots.iter_mut().skip(j).step_by(fanout) {
        (slot.keys, keys) = std::mem::take(&mut keys).split_at_mut(slot.next);
        (slot.payloads, payloads) = std::mem::take(&mut payloads).split_at_mut(slot.next);
        slot.next = 0;
    }
}

/// Writes every tuple where [`lay_out`] put its shard's range of its
/// partition, one thread per shard; with `fold`, each slot folds the
/// checksum of the tuples it takes as it writes them.
fn scatter<K, P, DK, DP>(
    keys: &[K],
    payloads: &[P],
    bits: u32,
    slots: &mut [Slot<'_, DK, DP>],
    fold: bool,
) where
    K: ColumnValue<Key> + Sync,
    P: ColumnValue<Payload> + Sync,
    DK: ColumnValue<Key> + Send,
    DP: ColumnValue<Payload> + Send,
{
    let fanout = 1usize << bits;
    let shards = slots.len() / fanout;
    let scatter = |s: usize, shard: &mut [Slot<'_, DK, DP>]| {
        let chunk = shard_range(keys.len(), shards, s);
        for (k, p) in keys[chunk.clone()].iter().zip(&payloads[chunk]) {
            let (k, p) = (k.value(), p.value());
            let slot = &mut shard[radix_of(k, bits)];
            slot.keys[slot.next] = DK::of(k);
            slot.payloads[slot.next] = DP::of(p);
            slot.next += 1;
            if fold {
                slot.sum.push(k, p);
            }
        }
    };
    if shards == 1 {
        scatter(0, slots);
    } else {
        fork_join_each(slots.chunks_mut(fanout).collect(), scatter);
    }
}

/// The shards a scatter of `len` tuples runs on: a thread per chunk,
/// unless the chunks are tiny.
fn shards_for(len: usize, threads: usize) -> usize {
    if threads > 1 && len >= 4 * threads {
        threads
    } else {
        1
    }
}

/// The scatter over a pair of column slices on all `bits` radix bits,
/// into a fragment's wire bytes, by `shards` threads. The histogram lays
/// the partition table out exactly, and each relation's header goes in
/// front last. A lone shard folds each partition's checksum as it writes
/// the tuples; a checksum runs through its partition in order, across the
/// shards' ranges (whatever their lengths, its lanes continue from one
/// range to the next), so after several shards it is folded over the
/// written columns.
fn scatter_into_wire<K, P>(keys: &[K], payloads: &[P], bits: u32, shards: usize) -> Vec<u8>
where
    K: ColumnValue<Key> + Sync,
    P: ColumnValue<Payload> + Sync,
{
    let fanout = 1usize << bits;
    let mut out = vec![0u8; wire::HASH_HEADER + fanout * (4 + rw::HEADER_BYTES) + 12 * keys.len()];
    let mut slots = histogram::<_, rw::LeKey, rw::LePayload>(keys, bits, shards);
    let (table_head, mut rest) = out.split_at_mut(wire::HASH_HEADER);
    table_head.copy_from_slice(&wire::hash_header(bits));
    for j in 0..fanout {
        let n = partition_len(&slots, fanout, j);
        let (len, tail) = std::mem::take(&mut rest).split_at_mut(4);
        len.copy_from_slice(&(rw::encoded_len(n) as u32).to_le_bytes());
        let (head, tail) = tail.split_at_mut(rw::HEADER_BYTES);
        let (part_keys, tail) = tail.split_at_mut(4 * n);
        let (part_payloads, tail) = tail.split_at_mut(8 * n);
        rest = tail;
        slots[j].head = head;
        let (part_keys, part_payloads) =
            (part_keys.as_chunks_mut().0, part_payloads.as_chunks_mut().0);
        lay_out(&mut slots, fanout, j, part_keys, part_payloads);
    }
    let fold = shards == 1;
    scatter(keys, payloads, bits, &mut slots, fold);
    // Every column is in: each relation's header goes in front of it.
    let (first, later) = slots.split_at_mut(fanout);
    for (j, slot) in first.iter_mut().enumerate() {
        let (mut n, mut sum) = (slot.keys.len(), slot.sum);
        if !fold {
            sum = rw::WireChecksum::default();
            sum.fold(slot.keys, slot.payloads);
        }
        for piece in later.iter().skip(j).step_by(fanout) {
            n += piece.keys.len();
            if !fold {
                sum.fold(piece.keys, piece.payloads);
            }
        }
        slot.head.copy_from_slice(&rw::header(n, sum));
    }
    out
}

/// Scatters `rel` in one pass on all `bits` radix bits into `keys` and
/// `payloads` (each `rel.len()` long), partition after partition, with
/// `threads` threads as [`partition_into_wire`] uses them.
/// Returns where each partition starts, and the end: `2^bits + 1`
/// positions. The layout [`scatter_into_wire`] gives a fragment's bytes,
/// with no headers between the partitions: a stationary state's columns.
pub(crate) fn scatter_into_columns(
    rel: RelationView<'_>,
    bits: u32,
    threads: usize,
    keys: &mut [Key],
    payloads: &mut [Payload],
) -> Vec<usize> {
    match rel.columns() {
        Columns::Native(k, p) => scatter_columns(k, p, bits, threads, keys, payloads),
        Columns::Wire(k, p) => scatter_columns(k, p, bits, threads, keys, payloads),
    }
}

fn scatter_columns<K, P>(
    keys: &[K],
    payloads: &[P],
    bits: u32,
    threads: usize,
    mut out_keys: &mut [Key],
    mut out_payloads: &mut [Payload],
) -> Vec<usize>
where
    K: ColumnValue<Key> + Sync,
    P: ColumnValue<Payload> + Sync,
{
    let fanout = 1usize << bits;
    let mut slots = histogram(keys, bits, shards_for(keys.len(), threads));
    let mut starts = Vec::with_capacity(fanout + 1);
    starts.push(0);
    for j in 0..fanout {
        let n = partition_len(&slots, fanout, j);
        starts.push(starts[j] + n);
        let (part_keys, part_payloads);
        (part_keys, out_keys) = std::mem::take(&mut out_keys).split_at_mut(n);
        (part_payloads, out_payloads) = std::mem::take(&mut out_payloads).split_at_mut(n);
        lay_out(&mut slots, fanout, j, part_keys, part_payloads);
    }
    scatter(keys, payloads, bits, &mut slots, false);
    starts
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

/// The share of `CacheParams::l2_bytes` one stationary partition and its
/// table may take: 1/48, about 85 KiB (4 369 tuples at 20 B) of the
/// default 4 MiB. The paper gave a partition half its blades' L2. On a
/// machine where several ring hosts share each core's caches, that rule
/// leaves tables far larger than the cache a host really gets:
/// `ablate_radix_bits`' ring-order column (4 hosts' states of 131 072
/// tuples, 16 fragments in wire bytes visiting in ring order) read a
/// revolution of visits in 27.5 and 28.6 ms at 5 bits (4 096 tuples,
/// 80 KiB a partition) against 37.2 and 38.8 ms at the half-L2 rule's
/// 1 bit, −26 %, on a 2-vCPU Xeon VM (medians of 15, two runs). 4 and
/// 6–7 bits read 26.2–28.0 ms, within those runs' quartiles: smaller,
/// L1-sized partitions buy nothing more, and past 8 bits the small
/// partitions cost more than they save. A host with no more than 4 096
/// tuples keeps 0 bits: splitting a small fragment's visit into
/// partitions of a few tuples costs more than it saves. Re-measured once
/// the probe prefetched (three runs, the box in a slower phase): 5 bits
/// read 39.5–43.4 ms against 73.8–82.8 at 0 bits and 67.3–73.7 at 1 bit,
/// so prefetching hides only part of what partitioning saves; 6–8 bits
/// read 36.7–40.1 ms, their quartiles overlapping 5 bits' in every run.
const PARTITION_SHARE_OF_L2: usize = 48;

/// Chooses the number of radix bits so that each partition of a stationary
/// relation with `s_tuples` rows — *plus its hash table* — fits in
/// 1/48 of the L2 cache `params` describe (`PARTITION_SHARE_OF_L2`, where
/// the measurement behind the share is).
pub fn radix_bits_for(s_tuples: usize, params: &CacheParams) -> u32 {
    // Per tuple: 12 B of data + 8 B of table (4 B head amortized + 4 B next).
    const BYTES_PER_TUPLE: usize = 20;
    let budget = (params.l2_bytes / PARTITION_SHARE_OF_L2).max(BYTES_PER_TUPLE);
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
    use relation::{GenSpec, Relation};

    /// `rel` radix-partitioned on `bits` bits by definition, in the bytes
    /// of a prepared fragment: partition `j` holds the input's tuples with
    /// `radix_of(key, bits) == j`, in input order, each encoded by the
    /// relation layer.
    fn oracle(rel: &Relation, bits: u32) -> Vec<u8> {
        let mut parts = vec![Relation::new(); 1 << bits];
        for t in rel.iter() {
            parts[radix_of(t.key, bits)].push(t);
        }
        let mut out = vec![wire::TAG_HASH];
        out.extend_from_slice(&bits.to_le_bytes());
        out.extend_from_slice(&(1u32 << bits).to_le_bytes());
        for p in &parts {
            out.extend_from_slice(&(rw::encoded_len(p.len()) as u32).to_le_bytes());
            rw::encode_into(p, &mut out);
        }
        out
    }

    fn parts(part: &RadixPartitioned) -> Vec<Relation> {
        PartitionsView::from(part)
            .partitions()
            .map(|p| p.to_relation())
            .collect()
    }

    #[test]
    fn partitions_preserve_all_tuples() {
        let rel = GenSpec::uniform(10_000, 1).generate();
        let part = RadixPartitioned::new(&rel, 6, &CacheParams::default());
        assert_eq!(PartitionsView::from(&part).partitions().count(), 64);
        assert_eq!(part.len(), rel.len());
        assert_eq!(part.byte_volume(), rel.byte_volume());
    }

    #[test]
    fn tuples_land_in_their_radix_partition() {
        let rel = GenSpec::uniform(5_000, 2).generate();
        let bits = 5;
        let part = RadixPartitioned::new(&rel, bits, &CacheParams::default());
        for (i, p) in parts(&part).iter().enumerate() {
            for &k in p.keys() {
                assert_eq!(radix_of(k, bits), i);
            }
        }
    }

    #[test]
    fn zero_bits_is_identity() {
        let rel = GenSpec::uniform(100, 4).generate();
        let part = RadixPartitioned::new(&rel, 0, &CacheParams::default());
        assert_eq!(parts(&part), vec![rel]);
    }

    #[test]
    fn equal_keys_colocate() {
        let rel = Relation::from_pairs([(7, 1), (3, 2), (7, 3), (7, 4)]);
        let part = RadixPartitioned::new(&rel, 4, &CacheParams::default());
        let sevens = parts(&part)[radix_of(7, 4)]
            .keys()
            .iter()
            .filter(|&&k| k == 7)
            .count();
        assert_eq!(sevens, 3);
    }

    #[test]
    fn uniform_keys_spread_evenly() {
        let rel = GenSpec::uniform(64_000, 5).generate();
        let part = RadixPartitioned::new(&rel, 4, &CacheParams::default());
        let expected = rel.len() as f64 / 16.0;
        for p in PartitionsView::from(&part).partitions() {
            let dev = (p.len() as f64 - expected).abs() / expected;
            assert!(
                dev < 0.15,
                "partition skew {dev:.2} too high for uniform keys"
            );
        }
    }

    /// Threads scatter into the wire bytes side by side, each into its own
    /// ranges, and write what one thread writes: the partitioning by
    /// definition, encoded. At 20 001 tuples on 3 threads the shards'
    /// pieces of a partition have lengths that are not multiples of 4, and
    /// each partition's checksum lanes still run on from piece to piece; 5
    /// tuples on 4 threads are too few to split, and one thread takes them.
    #[test]
    fn threads_scatter_into_the_bytes_one_thread_writes() {
        for (tuples, threads) in [
            (20_000, &[1usize, 2, 3, 8][..]),
            (20_001, &[1, 2, 3, 8]),
            (5, &[4]),
        ] {
            let rel = GenSpec::uniform(tuples, 9).generate();
            let want = oracle(&rel, 5);
            for &threads in threads {
                let got = partition_into_wire((&rel).into(), 5, threads);
                assert!(got == want, "tuples={tuples} threads={threads}");
            }
        }
    }

    #[test]
    fn bits_for_small_relation_is_zero() {
        // A relation that fits its share of the cache needs no partitioning.
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

    /// Under the default parameters a partition holds about 4 096 tuples:
    /// the 131 072-tuple hosts of a 4-host ring of 2^19 tuples take 5
    /// bits, and hosts of at most 4 096 tuples take none.
    #[test]
    fn default_partitions_hold_about_4096_tuples() {
        let params = CacheParams::default();
        assert_eq!(radix_bits_for(131_072, &params), 5);
        for small in [1, 3_334, 4_096] {
            assert_eq!(radix_bits_for(small, &params), 0, "{small} tuples");
        }
        assert_eq!(radix_bits_for(4_370, &params), 1);
        // A tiny cache still forces many partitions on small inputs.
        assert!(radix_bits_for(3_000, &CacheParams::tiny_for_tests()) >= 8);
    }

    #[test]
    fn bits_are_capped() {
        assert!(radix_bits_for(usize::MAX / 32, &CacheParams::tiny_for_tests()) <= 18);
    }

    #[test]
    fn empty_relation_partitions_cleanly() {
        let part = RadixPartitioned::new(&Relation::new(), 3, &CacheParams::default());
        assert!(part.is_empty());
        assert_eq!(PartitionsView::from(&part).partitions().count(), 8);
    }
}
