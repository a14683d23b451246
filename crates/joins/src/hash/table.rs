//! Bucket-chained hash tables over one partition of the stationary relation.
//!
//! The table stores the partition's tuples densely (columnar) plus two
//! index arrays: `heads[bucket]` points at the first tuple of the bucket's
//! chain, `next[i]` at the next tuple in tuple `i`'s chain (both offset by
//! one; `0` terminates). With the partition sized to the cache its host
//! really gets (`radix_bits_for`: about 80 KiB of table under the default
//! parameters), probes walk chains inside the cache. The kernel reads a
//! borrowed `TableView`: a [`ChainedTable`]'s own arrays, or one
//! partition's ranges of the arrays a [`super::HashJoinState`] holds all
//! of its partitions in.
//!
//! In ring order the cache is not the partition's alone: every visit
//! probes a table that the visits of other hosts evicted in between, so
//! the probe's loads of a bucket head, a key, a chain link and a payload
//! go to memory. The batched probe issues a batch's loads as prefetches
//! before it waits on any of them (group prefetching, Chen, Ailamaki,
//! Gibbons and Mowry, ICDE 2004), through one helper, the crate's only
//! `unsafe`.
//!
//! Skew sensitivity is *by design*: when a partition is dominated by one
//! key, its chain degenerates to a list and the probe cost per tuple grows
//! with the number of duplicates — this is the "hash join slowly degrades
//! toward a nested-loops-style evaluation" effect behind Figure 9.

use relation::{ColumnValue, Columns, Key, MatchPair, Payload, Relation, RelationView, Tuple};

use super::hash_key;
use crate::collector::JoinCollector;

/// Probe tuples a batched probe takes through the table together: the
/// group whose bucket heads, then whose keys, chain links and payloads,
/// are all prefetched before the first of them is read. Long enough that
/// the loads overlap instead of waiting on one another, short enough that
/// the selection vectors (8 KiB, zeroed once per visit, or per
/// [`ChainedTable::probe_all`] call) cost a 128-tuple fragment nothing
/// measurable. Re-measured on the prefetching probe (2-vCPU Xeon VM,
/// in-process alternated rounds against 512): the ring-order shape (four
/// 131 072-tuple states at 5 radix bits, 16 fragments in wire bytes)
/// read 0.87–0.92× at 1 024, better in 68 of 76 rounds, but with the
/// quartiles of the two overlapping in three of four runs; 0.99–1.10×
/// at 256. A 128-tuple visit read 1.00–1.05× at 1 024 and 1.03× at 256,
/// and the L2-warm 3 333-tuple tables of the multi-tenant shape 0.97–1.06×
/// either way. No size separated from 512, which stays.
pub const PROBE_BATCH: usize = 512;

/// The selection vectors a batched probe compacts into: the bucket of
/// every probe tuple in the batch, the position in the batch and chain
/// cursor of every live probe tuple, then the (probe position, table slot)
/// pairs that matched at the current chain level. 8 KiB on the stack: a
/// visit zeroes one set and passes it to the probe of each of its
/// partitions.
pub(crate) struct Selection {
    bucket: [u32; PROBE_BATCH],
    live_at: [u16; PROBE_BATCH],
    live_cursor: [u32; PROBE_BATCH],
    hit_at: [u16; PROBE_BATCH],
    hit_slot: [u32; PROBE_BATCH],
}

impl Selection {
    pub(crate) fn new() -> Self {
        Selection {
            bucket: [0; PROBE_BATCH],
            live_at: [0; PROBE_BATCH],
            live_cursor: [0; PROBE_BATCH],
            hit_at: [0; PROBE_BATCH],
            hit_slot: [0; PROBE_BATCH],
        }
    }
}

/// Asks the CPU to start loading the cache line `value` lies in, and
/// returns at once: the load overlaps whatever runs next, and nothing
/// waits on it. A hint with no effect on the program's result, and a
/// no-op on targets other than x86-64.
#[inline(always)]
fn prefetch<T>(value: Option<&T>) {
    #[cfg(target_arch = "x86_64")]
    if let Some(value) = value {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `_mm_prefetch` only hints the cache: it moves no data
        // into the program, writes no memory and cannot fault, whatever
        // the address. The address here is, besides, that of a live
        // reference that `slice::get` returned.
        unsafe { _mm_prefetch::<_MM_HINT_T0>((value as *const T).cast::<i8>()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

/// A bucket-chained hash table over one relation partition: the owner of
/// the arrays the probe kernel reads, borrowed.
#[derive(Debug, Clone, Default)]
pub struct ChainedTable {
    shift: u32,
    heads: Vec<u32>,
    next: Vec<u32>,
    keys: Vec<Key>,
    payloads: Vec<Payload>,
}

/// Buckets of a table over `n` tuples: one per tuple, rounded up to a
/// power of two.
pub(crate) fn buckets_for(n: usize) -> usize {
    n.next_power_of_two().max(1)
}

/// Threads every key into its bucket's chain: `heads` (a power of two
/// long) and `next` (as long as `keys`) are zeroed on entry, and each
/// holds slots offset by one, `0` terminating a chain. Buckets take the
/// hash bits above the `shift` radix bits.
pub(crate) fn chain(keys: &[Key], shift: u32, heads: &mut [u32], next: &mut [u32]) {
    let mask = (heads.len() - 1) as u32;
    for (i, (&k, next)) in keys.iter().zip(next.iter_mut()).enumerate() {
        let head = &mut heads[((hash_key(k) >> shift) & mask) as usize];
        *next = *head;
        *head = i as u32 + 1;
    }
}

impl ChainedTable {
    /// Builds a table over an unpartitioned relation (no radix bits spent).
    pub fn build(partition: &Relation) -> Self {
        ChainedTable::build_with_shift(partition, 0)
    }

    /// Builds a table over a partition produced with `radix_bits` of radix
    /// partitioning, with one bucket per tuple (rounded up to a power of
    /// two), bucketing on the hash bits above the radix. Copies both
    /// columns out of the borrowed partition.
    pub fn build_with_shift(partition: &Relation, radix_bits: u32) -> Self {
        let (keys, payloads) = (partition.keys().to_vec(), partition.payloads().to_vec());
        let mut heads = vec![0u32; buckets_for(keys.len())];
        let mut next = vec![0u32; keys.len()];
        chain(&keys, radix_bits, &mut heads, &mut next);
        ChainedTable {
            shift: radix_bits,
            heads,
            next,
            keys,
            payloads,
        }
    }

    fn view(&self) -> TableView<'_> {
        TableView::new(
            self.shift,
            &self.heads,
            &self.next,
            &self.keys,
            &self.payloads,
        )
    }

    /// Number of tuples in the table.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if the table holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Approximate memory footprint in bytes (tuples + index arrays), the
    /// quantity that must fit in cache together with the probe stream.
    pub fn footprint_bytes(&self) -> usize {
        self.keys.len() * (4 + 8 + 4) + self.heads.len() * 4
    }

    /// Iterates over the stored tuples whose key equals `key`.
    #[inline]
    pub fn probe(&self, key: Key) -> Probe<'_> {
        self.view().probe(key)
    }

    /// Probes every tuple of `probe` and feeds the matches to `collector`
    /// (`TableView::probe_all`), with selection vectors of its own.
    pub fn probe_all<'p>(&self, probe: impl Into<RelationView<'p>>, collector: &mut JoinCollector) {
        self.view()
            .probe_all(probe.into(), &mut Selection::new(), collector);
    }

    /// Length of the longest bucket chain (a direct skew indicator).
    pub fn longest_chain(&self) -> usize {
        self.view().longest_chain()
    }
}

/// A bucket-chained table over one partition, borrowed: the table's
/// tuples stored densely (columnar) plus two index arrays, `heads[bucket]`
/// pointing at the first tuple of the bucket's chain and `next[i]` at the
/// next tuple in tuple `i`'s chain (both offset by one; `0` terminates).
/// A [`ChainedTable`]'s own arrays, or one partition's ranges of a
/// [`super::HashJoinState`]'s: the probe kernel is this one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TableView<'a> {
    /// Hash bits to discard before indexing buckets. A partition produced
    /// by `radix_bits` of radix partitioning holds keys that all agree on
    /// the low `radix_bits` bits of their hash — indexing buckets with
    /// those same bits would use only a fraction of the table and grow
    /// chains by `2^radix_bits`. The table therefore buckets on the hash
    /// bits *above* the radix, the standard radix-join layout.
    shift: u32,
    heads: &'a [u32],
    next: &'a [u32],
    keys: &'a [Key],
    payloads: &'a [Payload],
}

impl<'a> TableView<'a> {
    /// The table whose chains [`chain`] threaded through `heads` and
    /// `next` over `keys`.
    pub(crate) fn new(
        shift: u32,
        heads: &'a [u32],
        next: &'a [u32],
        keys: &'a [Key],
        payloads: &'a [Payload],
    ) -> Self {
        debug_assert!(heads.is_empty() || heads.len().is_power_of_two());
        debug_assert!(next.len() == keys.len() && keys.len() == payloads.len());
        TableView {
            shift,
            heads,
            next,
            keys,
            payloads,
        }
    }

    /// Iterates over the stored tuples whose key equals `key`.
    #[inline]
    fn probe(&self, key: Key) -> Probe<'a> {
        // A default `ChainedTable` has no buckets: every probe finds no head.
        let mask = self.heads.len().saturating_sub(1);
        let bucket = (hash_key(key) >> self.shift) as usize & mask;
        Probe {
            table: *self,
            key,
            cursor: *self.heads.get(bucket).unwrap_or(&0),
        }
    }

    /// Probes every tuple of `probe` and feeds the matches to `collector`:
    /// the multiset [`TableView::probe`] yields key by key, found a batch
    /// of [`PROBE_BATCH`] tuples at a time in `selection`'s vectors.
    ///
    /// A tuple-at-a-time probe spends its time on the chain walk's two
    /// data-dependent branches ("chain ended?", "key equal?"), which the
    /// predictor cannot learn on fresh keys — the table being L1-resident
    /// does not help. Here each batch runs branch-free passes over
    /// selection vectors instead:
    /// 1. hash every key into the bucket vector and prefetch its bucket
    ///    head;
    /// 2. read every head into a cursor, compacting the live ones by
    ///    `n += usize::from(cond)`, and prefetch the key, chain link and
    ///    payload the cursor points at (a dead cursor prefetches slot 0,
    ///    so that no branch asks which is which);
    /// 3. one chain level per pass, compare every live cursor's key and
    ///    step it to `next`, compacting survivors and hits the same way;
    /// 4. fold that level's hits into the collector.
    ///
    /// Matches therefore leave in (batch, chain level) order, not probe
    /// order. In ring order a visit's table is cold, and the loads of
    /// passes 2–4 are what the probe waited on: four loads (bucket head,
    /// key, chain link, payload) held 58–60 % of the user-time samples of the
    /// `hash_uniform_reactor` shape before the prefetches. The prefetch
    /// instruction is what buys the overlap: plain loads of the same
    /// addresses, summed into `black_box`, read no better than none. The
    /// hit fold takes no prefetch of its own: a branch on "hit?" in the
    /// level loop cost that shape 8–11 %.
    ///
    /// The probe side is an owned relation or a view of wire bytes: the
    /// kernel is generic over how a column value lies ([`ColumnValue`]),
    /// so it reads received bytes in place, with no copy, as it reads
    /// owned columns.
    pub(crate) fn probe_all(
        &self,
        probe: RelationView<'_>,
        selection: &mut Selection,
        collector: &mut JoinCollector,
    ) {
        match probe.columns() {
            Columns::Native(keys, payloads) => {
                self.probe_columns(keys, payloads, selection, collector)
            }
            Columns::Wire(keys, payloads) => {
                self.probe_columns(keys, payloads, selection, collector)
            }
        }
    }

    fn probe_columns<K, P>(
        &self,
        keys: &[K],
        payloads: &[P],
        selection: &mut Selection,
        collector: &mut JoinCollector,
    ) where
        K: ColumnValue<Key>,
        P: ColumnValue<Payload>,
    {
        if keys.is_empty() || self.keys.is_empty() || self.heads.is_empty() {
            return;
        }
        // Indices the compiler can see are in bounds: a bucket masked by
        // `heads.len() - 1` (a power of two), a slot clamped to the last
        // tuple, and the table's three columns cut to one length. Neither
        // pass below then branches on a bounds check.
        let mask = self.heads.len() - 1;
        let last = self.keys.len() - 1;
        let (table_next, table_payloads) = (&self.next[..=last], &self.payloads[..=last]);
        let Selection {
            bucket,
            live_at,
            live_cursor,
            hit_at,
            hit_slot,
        } = selection;
        let batches = keys.chunks(PROBE_BATCH).zip(payloads.chunks(PROBE_BATCH));
        for (keys, payloads) in batches {
            let bucket = &mut bucket[..keys.len()];
            for (bucket, key) in bucket.iter_mut().zip(keys) {
                let index = (hash_key(key.value()) >> self.shift) as usize & mask;
                *bucket = index as u32;
                prefetch(self.heads.get(index));
            }
            let mut live = 0usize;
            for (at, &bucket) in bucket.iter().enumerate() {
                let head = self.heads[bucket as usize & mask];
                // A dead cursor prefetches slot 0: no branch on `head`.
                let slot = (head.saturating_sub(1) as usize).min(last);
                prefetch(self.keys.get(slot));
                prefetch(table_next.get(slot));
                prefetch(table_payloads.get(slot));
                live_at[live] = at as u16;
                live_cursor[live] = head;
                live += usize::from(head != 0);
            }
            while live > 0 {
                let (mut survivors, mut hits) = (0usize, 0usize);
                for i in 0..live {
                    let at = live_at[i];
                    let slot = (live_cursor[i] - 1) as usize;
                    hit_at[hits] = at;
                    hit_slot[hits] = slot as u32;
                    hits += usize::from(self.keys[slot] == keys[at as usize].value());
                    let next = self.next[slot];
                    live_at[survivors] = at;
                    live_cursor[survivors] = next;
                    survivors += usize::from(next != 0);
                }
                for (&at, &slot) in hit_at[..hits].iter().zip(&hit_slot[..hits]) {
                    let (at, slot) = (at as usize, slot as usize);
                    collector.push(MatchPair {
                        key: keys[at].value(),
                        s_key: self.keys[slot],
                        r_payload: payloads[at].value(),
                        s_payload: self.payloads[slot],
                    });
                }
                live = survivors;
            }
        }
    }

    /// Length of the longest bucket chain (a direct skew indicator).
    fn longest_chain(&self) -> usize {
        let mut longest = 0;
        for &head in self.heads {
            let mut len = 0;
            let mut cur = head;
            while cur != 0 {
                len += 1;
                cur = self.next[(cur - 1) as usize];
            }
            longest = longest.max(len);
        }
        longest
    }
}

/// Iterator over the matches [`ChainedTable::probe`] found.
#[derive(Debug)]
pub struct Probe<'a> {
    table: TableView<'a>,
    key: Key,
    cursor: u32,
}

impl Iterator for Probe<'_> {
    type Item = Tuple;

    #[inline]
    fn next(&mut self) -> Option<Tuple> {
        while self.cursor != 0 {
            let i = (self.cursor - 1) as usize;
            self.cursor = self.table.next[i];
            if self.table.keys[i] == self.key {
                return Some(Tuple::new(self.table.keys[i], self.table.payloads[i]));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_finds_all_duplicates() {
        let rel = Relation::from_pairs([(1, 10), (2, 20), (1, 11), (3, 30), (1, 12)]);
        let table = ChainedTable::build(&rel);
        let mut payloads: Vec<u64> = table.probe(1).map(|t| t.payload).collect();
        payloads.sort_unstable();
        assert_eq!(payloads, vec![10, 11, 12]);
        assert_eq!(table.probe(2).count(), 1);
        assert_eq!(table.probe(99).count(), 0);
    }

    #[test]
    fn empty_table_probes_cleanly() {
        for table in [
            ChainedTable::build(&Relation::new()),
            ChainedTable::default(),
        ] {
            assert!(table.is_empty());
            assert_eq!(table.probe(5).count(), 0);
            assert_eq!(table.longest_chain(), 0);
            let mut c = JoinCollector::aggregating();
            table.probe_all(&Relation::from_pairs([(5, 1)]), &mut c);
            assert_eq!(c.count(), 0);
        }
    }

    #[test]
    fn every_key_is_findable() {
        let rel = relation::GenSpec::uniform(5_000, 9).generate();
        let table = ChainedTable::build(&rel);
        for t in rel.iter().take(500) {
            assert!(
                table.probe(t.key).any(|m| m.payload == t.payload),
                "tuple {t} lost in the table"
            );
        }
    }

    #[test]
    fn probe_never_returns_wrong_keys() {
        let rel = relation::GenSpec::uniform(2_000, 10).generate();
        let table = ChainedTable::build(&rel);
        for key in 0..100u32 {
            for m in table.probe(key) {
                assert_eq!(m.key, key);
            }
        }
    }

    #[test]
    fn skew_creates_long_chains() {
        let uniform = relation::GenSpec::uniform(4_000, 11).generate();
        let skewed = relation::GenSpec::zipf(4_000, 0.9, 11).generate();
        let tu = ChainedTable::build(&uniform);
        let ts = ChainedTable::build(&skewed);
        assert!(
            ts.longest_chain() > 4 * tu.longest_chain(),
            "skewed chain {} vs uniform {}",
            ts.longest_chain(),
            tu.longest_chain()
        );
    }

    #[test]
    fn radix_shift_keeps_chains_short() {
        // Regression: a partition whose keys all share their low hash bits
        // must still spread over the whole table — bucket on the bits
        // above the radix, not the radix bits themselves.
        use super::super::{hash_key, radix::radix_of};
        let bits = 6u32;
        let target = 3usize; // an arbitrary partition id
        let rel: Relation = relation::GenSpec::uniform(200_000, 13)
            .generate()
            .iter()
            .filter(|t| radix_of(t.key, bits) == target)
            .collect();
        assert!(rel.len() > 1_000, "need a meaningful partition");
        let table = ChainedTable::build_with_shift(&rel, bits);
        // With one bucket per tuple and a good hash, chains stay tiny.
        assert!(
            table.longest_chain() <= 16,
            "longest chain {} — the low radix bits leaked into bucketing",
            table.longest_chain()
        );
        // Sanity: the keys really do collide in their low hash bits.
        let first = hash_key(rel.get(0).unwrap().key) & ((1 << bits) - 1);
        assert!(rel
            .keys()
            .iter()
            .all(|&k| hash_key(k) & ((1 << bits) - 1) == first));
    }

    #[test]
    fn footprint_is_roughly_20_bytes_per_tuple() {
        let rel = relation::GenSpec::uniform(1_024, 12).generate();
        let table = ChainedTable::build(&rel);
        let per_tuple = table.footprint_bytes() as f64 / 1_024.0;
        assert!((16.0..=24.0).contains(&per_tuple), "got {per_tuple}");
    }
}
