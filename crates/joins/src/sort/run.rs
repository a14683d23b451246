//! Sorted runs: relations with a sortedness guarantee, and the radix sort
//! that makes them.
//!
//! [`SortedRun`] is a newtype over [`Relation`] whose constructor sorts
//! and whose invariant — keys non-decreasing — every merge join relies
//! on. Getting a `SortedRun` is the setup phase of sort-merge join; in
//! cyclo-join the sorted form of a rotating fragment is produced once at
//! its origin host and shipped around the ring in sorted order (§IV-D),
//! written straight into its wire bytes (`sort_into_wire`).
//!
//! The sort is a stable least-significant-digit radix sort on the `u32`
//! key — the counting passes of the radix join's partitioning (Manegold,
//! Boncz & Kersten; see [`crate::hash::radix`]), with no comparisons. One
//! read of the keys finds the digits some key uses, one more fills their
//! histograms; a digit all keys share is skipped. The first pass scatters
//! from the source columns as they lie (owned, or a buffer's
//! little-endian bytes), later passes ping-pong between one scratch
//! buffer and the output, and the number of passes picks where the first
//! one writes so that the last lands in the output: a run's two columns,
//! or the key and payload columns of its wire encoding.

use relation::wire as rw;
use relation::{ColumnValue, Columns, Key, Payload, Relation, RelationView, Tuple};
use serde::{Deserialize, Serialize};

use crate::parallel::{fork_join, shard_range};

/// Bits per radix digit: 2^11 buckets, so keys below 2^22 sort in two
/// passes and any `u32` key in three. Measured sorting 65 536 tuples on
/// one thread of a 2-vCPU Intel Xeon VM, best of 7 × 20 sorts, alternated:
/// keys below 2^18 (the band workload's) 84 M tuples/s with 8-bit digits,
/// 100 M with 11-bit; full-range keys 33 M and 61 M; the comparison sort
/// this replaced ran 34 M on both. The three counting tables, 48 KiB,
/// live on the stack.
const DIGIT_BITS: u32 = 11;
/// Buckets per digit.
const BUCKETS: usize = 1 << DIGIT_BITS;
/// Digits in a key.
const DIGITS: usize = Key::BITS.div_ceil(DIGIT_BITS) as usize;

/// A relation sorted by join key (non-decreasing).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SortedRun(Relation);

impl SortedRun {
    /// Sorts `rel` (a relation, or a view of one's columns, owned or in
    /// wire bytes) into a run with `threads` worker threads. The sort is
    /// stable: equal keys keep their input order.
    ///
    /// One thread radix-sorts straight from `rel`'s columns into the run's
    /// two columns, through one scratch buffer when more than one digit
    /// varies: three allocations. Several threads each sort a contiguous
    /// chunk the same way and merge the chunks pairwise.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn sort<'r>(rel: impl Into<RelationView<'r>>, threads: usize) -> Self {
        let rel = rel.into();
        let (mut keys, mut payloads) = (vec![0; rel.len()], vec![0; rel.len()]);
        sort_into(
            rel,
            threads,
            &mut ColumnsMut {
                keys: &mut keys,
                payloads: &mut payloads,
            },
        );
        SortedRun(Relation::from_columns(keys.into(), payloads.into()))
    }

    /// Wraps a relation that is already sorted.
    ///
    /// # Panics
    ///
    /// Panics if `rel` is not sorted by key.
    pub fn from_sorted(rel: Relation) -> Self {
        assert!(
            rel.is_sorted_by_key(),
            "from_sorted: relation is not sorted by key"
        );
        SortedRun(rel)
    }

    /// The underlying sorted relation.
    pub fn as_relation(&self) -> &Relation {
        &self.0
    }

    /// Consumes the run, returning the sorted relation.
    pub fn into_relation(self) -> Relation {
        self.0
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the run holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The sorted key column.
    pub fn keys(&self) -> &[relation::Key] {
        self.0.keys()
    }

    /// Index of the first tuple with `key ≥ bound` (binary search).
    pub fn lower_bound(&self, bound: relation::Key) -> usize {
        self.0.keys().partition_point(|&k| k < bound)
    }
}

/// Writes `rel`, sorted as [`SortedRun::sort`] sorts it, into `bytes` as
/// its relation encoding ([`relation::wire`]): the sort lands in the
/// encoding's key and payload columns, and the header goes in front last,
/// its checksum folded in one sequential read of the written columns,
/// four tuples a step.
/// With one thread nothing is allocated but the scratch buffer.
///
/// # Panics
///
/// Panics if `threads` is zero, or if `bytes` is not exactly
/// `encoded_len(rel.len())` long.
pub(crate) fn sort_into_wire(rel: RelationView<'_>, threads: usize, bytes: &mut [u8]) {
    let n = rel.len();
    assert_eq!(bytes.len(), rw::encoded_len(n), "a run's encoding, exactly");
    let (head, columns) = bytes.split_at_mut(rw::HEADER_BYTES);
    let (keys, payloads) = columns.split_at_mut(4 * n);
    let mut run = ColumnsMut {
        keys: keys.as_chunks_mut::<4>().0,
        payloads: payloads.as_chunks_mut::<8>().0,
    };
    sort_into(rel, threads, &mut run);
    let mut sum = rw::WireChecksum::default();
    sum.fold(run.keys, run.payloads);
    head.copy_from_slice(&rw::header(n, sum));
}

/// Sorts `rel` into `out`, which holds `rel.len()` positions.
fn sort_into(rel: RelationView<'_>, threads: usize, out: &mut (impl Run + ?Sized)) {
    assert!(threads > 0, "sorting needs at least one thread");
    if threads == 1 {
        radix_sort(rel, out);
        return;
    }
    let mut chunks: Vec<Vec<Tuple>> = fork_join(threads, |i| {
        let chunk = rel
            .range(shard_range(rel.len(), threads, i))
            .expect("shard range in bounds");
        let mut sorted = vec![Tuple::default(); chunk.len()];
        radix_sort(chunk, sorted.as_mut_slice());
        sorted
    });
    // Pairwise merge rounds: log2(threads) rounds of linear merges.
    while chunks.len() > 1 {
        let mut merged = Vec::with_capacity(chunks.len().div_ceil(2));
        let mut iter = chunks.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => merged.push(merge_two(a, b)),
                None => merged.push(a),
            }
        }
        chunks = merged;
    }
    for (at, t) in chunks.into_iter().flatten().enumerate() {
        out.put(at, t);
    }
}

/// The radix sort of `rel` into `out`, on `rel`'s columns as they lie.
fn radix_sort(rel: RelationView<'_>, out: &mut (impl Run + ?Sized)) {
    match rel.columns() {
        Columns::Native(keys, payloads) => radix_sort_columns(keys, payloads, out),
        Columns::Wire(keys, payloads) => radix_sort_columns(keys, payloads, out),
    }
}

/// The LSD radix sort of two equally long columns into `out`: one read of
/// the keys for the digits they use and one for those digits' histograms,
/// then one stable scatter pass per digit that not all keys share, least
/// significant first. The first pass reads the columns; the passes
/// alternate between `out` and one scratch buffer (none for a single
/// pass), starting in scratch when their number is even, so that the last
/// one writes `out`.
fn radix_sort_columns<K, P>(keys: &[K], payloads: &[P], out: &mut (impl Run + ?Sized))
where
    K: ColumnValue<Key>,
    P: ColumnValue<Payload>,
{
    let n = keys.len();
    let source = || {
        keys.iter()
            .zip(payloads)
            .map(|(k, p)| Tuple::new(k.value(), p.value()))
    };
    // Digits above every key's highest set bit put every key in bucket 0:
    // they are not counted, which would chain increments on one counter.
    // The lowest digit always is.
    let reached = keys.iter().fold(0, |or, k| or | k.value());
    let used = ((Key::BITS - reached.leading_zeros()).div_ceil(DIGIT_BITS) as usize).max(1);
    let mut counts = [[0usize; BUCKETS]; DIGITS];
    for count in &mut counts[used..] {
        count[0] = n;
    }
    match used {
        1 => histograms::<1, K>(keys, &mut counts),
        2 => histograms::<2, K>(keys, &mut counts),
        _ => histograms::<DIGITS, K>(keys, &mut counts),
    }
    // A digit every key shares would move no tuple: its pass is skipped.
    // When every digit is shared (no tuple, one, or all keys equal), the
    // lowest digit's pass copies the tuples into `out` as they are.
    let first = keys.first().map_or(0, |k| k.value());
    let mut varies: [bool; DIGITS] = std::array::from_fn(|d| counts[d][digit(first, d)] != n);
    varies[0] |= !varies.contains(&true);
    let passes = varies.iter().filter(|&&v| v).count();
    let mut scratch = vec![Tuple::default(); if passes > 1 { n } else { 0 }];
    let mut into_out = passes % 2 == 1;
    let mut from_source = true;
    for (d, next) in counts.iter_mut().enumerate() {
        if !varies[d] {
            continue;
        }
        starts(next);
        match (from_source, into_out) {
            (true, true) => scatter(source(), d, next, out),
            (true, false) => scatter(source(), d, next, scratch.as_mut_slice()),
            (false, true) => scatter(scratch.iter().copied(), d, next, out),
            (false, false) => scatter(out.tuples(), d, next, scratch.as_mut_slice()),
        }
        (from_source, into_out) = (false, !into_out);
    }
}

/// Fills the histograms of the lowest `USED` digits of `keys`, in one
/// read. The digit count is a constant: looping over a run-time count
/// made a 65 536-key sort of keys below 2^18 slower than counting all
/// three digits (815–858 against 695–805 µs, alternated).
fn histograms<const USED: usize, K: ColumnValue<Key>>(
    keys: &[K],
    counts: &mut [[usize; BUCKETS]; DIGITS],
) {
    for k in keys {
        let k = k.value();
        for (d, count) in counts[..USED].iter_mut().enumerate() {
            count[digit(k, d)] += 1;
        }
    }
}

/// Digit `d` of `key`, least significant first.
#[inline(always)]
fn digit(key: Key, d: usize) -> usize {
    (key >> (d as u32 * DIGIT_BITS)) as usize & (BUCKETS - 1)
}

/// Turns a digit's histogram into each bucket's first position.
fn starts(counts: &mut [usize; BUCKETS]) {
    let mut at = 0;
    for count in counts {
        (*count, at) = (at, at + *count);
    }
}

/// One stable pass on digit `d`: every tuple of `src`, in order, to the
/// next position of its bucket in `dst`. `next` holds each bucket's first
/// position on entry.
#[inline(always)]
fn scatter(
    src: impl Iterator<Item = Tuple>,
    d: usize,
    next: &mut [usize; BUCKETS],
    dst: &mut (impl Run + ?Sized),
) {
    for t in src {
        let at = &mut next[digit(t.key, d)];
        dst.put(*at, t);
        *at += 1;
    }
}

/// Where a sort writes a run: any position in any order, and the run read
/// back in order for the next pass.
trait Run {
    /// Writes `t` at position `at`.
    fn put(&mut self, at: usize, t: Tuple);
    /// The tuples, in position order.
    fn tuples(&self) -> impl Iterator<Item = Tuple> + '_;
}

impl Run for [Tuple] {
    #[inline(always)]
    fn put(&mut self, at: usize, t: Tuple) {
        self[at] = t;
    }

    fn tuples(&self) -> impl Iterator<Item = Tuple> + '_ {
        self.iter().copied()
    }
}

/// A run's two columns, native (a [`SortedRun`]'s) or little-endian (a
/// wire encoding's).
struct ColumnsMut<'a, K, P> {
    keys: &'a mut [K],
    payloads: &'a mut [P],
}

impl<K: ColumnValue<Key>, P: ColumnValue<Payload>> Run for ColumnsMut<'_, K, P> {
    #[inline(always)]
    fn put(&mut self, at: usize, t: Tuple) {
        self.keys[at] = K::of(t.key);
        self.payloads[at] = P::of(t.payload);
    }

    fn tuples(&self) -> impl Iterator<Item = Tuple> + '_ {
        (self.keys.iter().zip(self.payloads.iter())).map(|(k, p)| Tuple::new(k.value(), p.value()))
    }
}

/// Merges two sorted tuple vectors into one, `a`'s first among equal
/// keys.
fn merge_two(a: Vec<Tuple>, b: Vec<Tuple>) -> Vec<Tuple> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].key <= b[j].key {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::GenSpec;

    #[test]
    fn sorting_is_correct_for_any_thread_count() {
        let rel = GenSpec::uniform(10_000, 50).generate();
        let reference = {
            let mut r = rel.clone();
            r.sort_by_key();
            r
        };
        for threads in [1, 2, 3, 4, 7] {
            let run = SortedRun::sort(&rel, threads);
            assert!(run.as_relation().is_sorted_by_key());
            assert_eq!(run.len(), rel.len());
            // Same key sequence as the reference sort.
            assert_eq!(run.as_relation().keys(), reference.keys());
        }
    }

    #[test]
    fn sorting_preserves_the_multiset() {
        let rel = GenSpec::zipf(5_000, 0.8, 51).generate();
        let run = SortedRun::sort(&rel, 4);
        let mut orig: Vec<Tuple> = rel.iter().collect();
        let mut sorted: Vec<Tuple> = run.as_relation().iter().collect();
        orig.sort_unstable();
        sorted.sort_unstable();
        assert_eq!(orig, sorted);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(SortedRun::sort(&Relation::new(), 4).is_empty());
        let one = SortedRun::sort(&Relation::from_pairs([(5, 50)]), 4);
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn all_zero_keys_keep_their_order() {
        // No digit is reached by any key: the lowest is still counted.
        let rel = Relation::from_pairs((0..100).map(|i| (0, i)));
        let run = SortedRun::sort(&rel, 1);
        assert_eq!(run.as_relation(), &rel);
    }

    #[test]
    fn from_sorted_accepts_sorted() {
        let rel = GenSpec::sequential(100, 0).generate();
        let run = SortedRun::from_sorted(rel.clone());
        assert_eq!(run.as_relation(), &rel);
    }

    #[test]
    #[should_panic(expected = "not sorted")]
    fn from_sorted_rejects_unsorted() {
        let _ = SortedRun::from_sorted(Relation::from_pairs([(2, 0), (1, 0)]));
    }

    #[test]
    fn lower_bound_finds_first_occurrence() {
        let run = SortedRun::from_sorted(Relation::from_pairs([(1, 0), (3, 0), (3, 1), (5, 0)]));
        assert_eq!(run.lower_bound(0), 0);
        assert_eq!(run.lower_bound(3), 1);
        assert_eq!(run.lower_bound(4), 3);
        assert_eq!(run.lower_bound(9), 4);
    }
}
