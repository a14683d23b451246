//! The merge phase of sort-merge join, with band-join support.
//!
//! Both inputs arrive sorted. A band predicate `|r.key − s.key| ≤ delta`
//! generalizes the equi case (`delta = 0`): for each probe tuple the
//! matching window of `S` is `[r.key − delta, r.key + delta]`.
//!
//! A visit ([`SortMergeState::merge`]) does not walk `S` to find a
//! window. A two-pointer merge spends its time on two loops per probe key
//! — advance the window start, then emit until past `key + delta` — whose
//! exits depend on the data and the predictor cannot learn. Instead, the
//! stationary state carries a directory built once at setup: `starts[j]`
//! is the first position whose key is at least `min + (j << shift)`,
//! about one slot per four keys. A window bound is its slot's start plus
//! a count of the keys below it in one 8-key block (a binary search
//! inside a crowded slot); the window end is first counted inside the 4
//! keys after the start; and a window of up to 4 keys goes into a (probe
//! position, stationary position) hit vector with no branch on its width.
//! Each probe key's window is found independently of the previous key's,
//! so consecutive keys overlap in the pipeline; a batch's hits are folded
//! into the collector together, as
//! [`ChainedTable::probe_all`](crate::hash::ChainedTable::probe_all)
//! does. The vectors live on the stack: a visit allocates nothing.
//!
//! Multi-threading follows the paper (§IV-C2): the probe side is split
//! into as many contiguous sub-ranges as there are cores, and each thread
//! runs the same kernel over its own.
//!
//! [`merge_join`] is the plain two-pointer merge, scanning both runs
//! forward. It is the kernel of the reference join and of the
//! `joins.sort.merge_tuples_per_s` layer metric, so that the oracle never
//! shares the kernel it checks.
//!
//! The probe side is a [`RelationView`] — a [`SortedRun`]'s relation, or a
//! sorted run read in place in the bytes it arrived in — and both kernels
//! are generic over how its column values lie.

use relation::{ColumnValue, Columns, Key, MatchPair, Payload, RelationView, Tuple};

use super::run::SortedRun;
use crate::collector::JoinCollector;
use crate::parallel::{fork_join, shard_range};

// The constants below were measured on one visit — a 16 384-tuple sorted
// fragment in wire bytes against a 65 536-tuple run, keys below 2^18 (the
// band workload's), delta 2 — median of 400 visits alternated with the
// plain merge in one process, one thread of a 2-vCPU Intel Xeon VM; each
// figure is the speed-up over the plain merge.

/// Stationary keys per directory slot, on average: 64 KiB of directory
/// for a 65 536-tuple host. 2 keys a slot 1.52×, 4 keys 1.51×, 8 keys
/// 1.28× (1.40× with 16-key blocks): 4 is as fast as 2 with half the
/// directory.
const KEYS_PER_SLOT: usize = 4;

/// Keys a window bound is counted in when its slot is not crowded (a
/// crowded slot is binary-searched). 4 keys 1.26×, 8 keys 1.47×, 16 keys
/// 1.37×.
const BLOCK: usize = 8;

/// Hit-vector lanes per probe key: a window of up to this many keys is
/// written without a branch on its width, a wider one by a plain loop;
/// the window end is first counted in as many keys. 2 lanes 1.10×, 4
/// lanes 1.50×, 8 lanes 1.41× (the band workload's windows hold 1.25 keys
/// on average).
const LANES: usize = 4;

/// Probe keys whose hits are gathered before they are folded into the
/// collector. 64 to 1 024 all 1.44–1.46×; 256 keeps the two hit vectors
/// at 6 KiB of stack.
const MERGE_BATCH: usize = 256;

impl<'a> From<&'a SortedRun> for RelationView<'a> {
    fn from(run: &'a SortedRun) -> Self {
        run.as_relation().into()
    }
}

/// The setup-phase output of sort-merge join: the stationary relation in
/// sorted order, and the directory over its keys that a visit finds its
/// windows with.
///
/// (The probe side must be sorted too; in cyclo-join that happens once per
/// fragment at its origin host, and the sorted fragment is what rotates.
/// The state is built once per host and serves every fragment that
/// rotates past, §IV-D.)
#[derive(Debug, Clone, Default)]
pub struct SortMergeState {
    s: SortedRun,
    directory: Directory,
}

impl SortMergeState {
    /// Sorts stationary relation `s` (a relation, or a view of one's
    /// columns) with `threads` workers, and builds its directory.
    pub fn build<'s>(s: impl Into<RelationView<'s>>, threads: usize) -> Self {
        SortMergeState::from_sorted(SortedRun::sort(s, threads))
    }

    /// Wraps an already sorted stationary side, building its directory.
    pub fn from_sorted(s: SortedRun) -> Self {
        SortMergeState {
            directory: Directory::build(s.keys()),
            s,
        }
    }

    /// The sorted stationary run.
    pub fn sorted(&self) -> &SortedRun {
        &self.s
    }

    /// Number of stationary tuples.
    pub fn len(&self) -> usize {
        self.s.len()
    }

    /// True if the stationary side is empty.
    pub fn is_empty(&self) -> bool {
        self.s.is_empty()
    }

    /// Join phase: joins sorted probe fragment `r` (owned, or viewed in
    /// its wire bytes) against the stationary run with band half-width
    /// `delta` (`0` = equi-join), on `threads` worker threads. Finds the
    /// same multiset of matches as [`merge_join`].
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn merge<'r>(
        &self,
        r: impl Into<RelationView<'r>>,
        delta: u32,
        threads: usize,
        collector: &mut JoinCollector,
    ) {
        let r = r.into();
        assert!(threads > 0, "a visit needs at least one thread");
        if threads == 1 {
            // Straight into the caller's collector: no shard vector, no
            // child collector, no merge — a visit allocates nothing.
            self.visit(r, delta, collector);
            return;
        }
        let shards = fork_join(threads, |i| {
            let mut local = collector.child();
            let shard = r
                .range(shard_range(r.len(), threads, i))
                .expect("shard range in bounds");
            self.visit(shard, delta, &mut local);
            local
        });
        for shard in shards {
            collector.merge(shard);
        }
    }

    /// The visit kernel over all of `r`, on its columns as they lie.
    fn visit(&self, r: RelationView<'_>, delta: u32, collector: &mut JoinCollector) {
        match r.columns() {
            Columns::Native(keys, payloads) => self.visit_columns(keys, payloads, delta, collector),
            Columns::Wire(keys, payloads) => self.visit_columns(keys, payloads, delta, collector),
        }
    }

    /// [`SortMergeState::visit`] over two equally long probe columns.
    fn visit_columns<K: ColumnValue<Key>, P: ColumnValue<Payload>>(
        &self,
        keys: &[K],
        payloads: &[P],
        delta: u32,
        collector: &mut JoinCollector,
    ) {
        let s = self.s.as_relation();
        let (s_keys, s_payloads) = (s.keys(), s.payloads());
        if s_keys.is_empty() || keys.is_empty() {
            return;
        }
        let dir = &self.directory;
        // The batch position and stationary position of every match found
        // through a hit vector, folded into the collector once per batch.
        // Before probe key `at` at most `LANES * at` are taken, so its
        // `LANES`-wide write stays inside.
        let mut hit_at = [0u16; MERGE_BATCH * LANES];
        let mut hit_pos = [0u32; MERGE_BATCH * LANES];
        let batches = keys.chunks(MERGE_BATCH).zip(payloads.chunks(MERGE_BATCH));
        for (keys, payloads) in batches {
            let mut hits = 0usize;
            for (at, (key, payload)) in keys.iter().zip(payloads).enumerate() {
                let key = key.value();
                let (low, high) = (key.saturating_sub(delta), key.saturating_add(delta));
                let start = dir.bound(s_keys, low, |k| k < low);
                // The window ends inside the `LANES` keys after its start
                // unless they all lie in it. (Near the run's end the block
                // starts earlier, at keys below `low`, which count too.)
                let near = start.min(s_keys.len().saturating_sub(LANES));
                let inside = s_keys[near..]
                    .first_chunk::<LANES>()
                    .map_or(LANES, |block| count(block, |k| k <= high));
                let end = if inside < LANES {
                    near + inside
                } else {
                    dir.bound(s_keys, high, |k| k <= high)
                };
                let width = end - start;
                if width <= LANES {
                    hit_at[hits..hits + LANES].fill(at as u16);
                    for (lane, pos) in hit_pos[hits..hits + LANES].iter_mut().enumerate() {
                        *pos = (start + lane) as u32;
                    }
                    hits += width;
                } else {
                    let r_tuple = Tuple::new(key, payload.value());
                    for (&s_key, &s_payload) in
                        s_keys[start..end].iter().zip(&s_payloads[start..end])
                    {
                        collector.push(MatchPair::new(r_tuple, Tuple::new(s_key, s_payload)));
                    }
                }
            }
            for (&at, &pos) in hit_at[..hits].iter().zip(&hit_pos[..hits]) {
                let (at, pos) = (at as usize, pos as usize);
                collector.push(MatchPair {
                    key: keys[at].value(),
                    s_key: s_keys[pos],
                    r_payload: payloads[at].value(),
                    s_payload: s_payloads[pos],
                });
            }
        }
    }
}

/// Keys of `block` that satisfy `below`, counted without a branch.
#[inline(always)]
fn count<const N: usize>(block: &[Key; N], below: impl Fn(Key) -> bool) -> usize {
    block.iter().map(|&k| usize::from(below(k))).sum()
}

/// Where each key range of a sorted run starts: `starts[j]` is the first
/// position whose key is at least `min + (j << shift)`, and the last
/// entry is the run's length. Empty for an empty run.
#[derive(Debug, Clone, Default)]
struct Directory {
    min: Key,
    shift: u32,
    starts: Vec<u32>,
}

impl Directory {
    /// The directory over sorted `keys`: the narrowest slots that leave
    /// about `KEYS_PER_SLOT` keys in each, counted in one pass, then a
    /// prefix sum.
    fn build(keys: &[Key]) -> Directory {
        let (Some(&min), Some(&max)) = (keys.first(), keys.last()) else {
            return Directory::default();
        };
        assert!(
            u32::try_from(keys.len()).is_ok(),
            "a stationary run's positions fit in u32"
        );
        let most = (keys.len() / KEYS_PER_SLOT).max(1) as u64;
        let span = u64::from(max - min);
        let shift = (0..Key::BITS)
            .find(|&s| span >> s < most)
            .unwrap_or(Key::BITS - 1);
        let slots = (span >> shift) as usize + 1;
        let mut starts = vec![0u32; slots + 1];
        for &k in keys {
            starts[((k - min) >> shift) as usize + 1] += 1;
        }
        let mut at = 0;
        for start in &mut starts {
            at += *start;
            *start = at;
        }
        Directory { min, shift, starts }
    }

    /// The first position of `keys` — the sorted run this directory was
    /// built over — whose key fails `below`, which is `k < bound` or
    /// `k <= bound`: it holds for every key of a slot before `bound`'s,
    /// and for none after it.
    #[inline(always)]
    fn bound(&self, keys: &[Key], bound: Key, below: impl Fn(Key) -> bool) -> usize {
        let slot =
            ((bound.saturating_sub(self.min) >> self.shift) as usize).min(self.starts.len() - 2);
        let (lo, hi) = (self.starts[slot] as usize, self.starts[slot + 1] as usize);
        // The answer lies in `lo..=hi`. A block that ends past the run is
        // moved back to end at it: the keys it then starts with lie before
        // `lo`, where `below` holds.
        let base = lo.min(keys.len().saturating_sub(BLOCK));
        match keys[base..].first_chunk::<BLOCK>() {
            Some(block) if hi - lo <= BLOCK => base + count(block, &below),
            _ => lo + keys[lo..hi].partition_point(|&k| below(k)),
        }
    }
}

/// Merges sorted probe side `r` (a [`SortedRun`] or a view of sorted
/// keys) with sorted run `s`, band half-width `delta` (`0` = equi-join):
/// the plain two-pointer merge, scanning both runs forward.
///
/// This is the reference join's kernel and the layer metric's, not the
/// visit's ([`SortMergeState::merge`]): the oracle must not share the
/// kernel it checks. Multi-threaded, each thread binary-searches its own
/// start position in `s`.
///
/// Matches are emitted as `(r tuple, s tuple)` pairs into `collector`.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn merge_join<'r>(
    r: impl Into<RelationView<'r>>,
    s: &SortedRun,
    delta: u32,
    threads: usize,
    collector: &mut JoinCollector,
) {
    let r = r.into();
    if threads == 1 {
        // Straight into the caller's collector: no shard vector, no child
        // collector, no merge — a visit allocates nothing.
        merge_range(r, s, delta, 0..r.len(), collector);
        return;
    }
    let shards = fork_join(threads, |i| {
        let mut local = collector.child();
        let range = shard_range(r.len(), threads, i);
        if !range.is_empty() {
            merge_range(r, s, delta, range, &mut local);
        }
        local
    });
    for shard in shards {
        collector.merge(shard);
    }
}

/// Merges `r[range]` against all of `s`.
fn merge_range(
    r: RelationView<'_>,
    s: &SortedRun,
    delta: u32,
    range: std::ops::Range<usize>,
    collector: &mut JoinCollector,
) {
    match r.columns() {
        Columns::Native(keys, payloads) => {
            merge_columns(keys, payloads, s, delta, range, collector)
        }
        Columns::Wire(keys, payloads) => merge_columns(keys, payloads, s, delta, range, collector),
    }
}

/// [`merge_range`] over the probe side's columns as they lie.
fn merge_columns<K: ColumnValue<Key>, P: ColumnValue<Payload>>(
    keys: &[K],
    payloads: &[P],
    s: &SortedRun,
    delta: u32,
    range: std::ops::Range<usize>,
    collector: &mut JoinCollector,
) {
    let s_rel = s.as_relation();
    let s_keys = s_rel.keys();
    let (Some(keys), Some(payloads)) = (keys.get(range.clone()), payloads.get(range)) else {
        return;
    };
    let (false, Some(first_key)) = (s_keys.is_empty(), keys.first()) else {
        return;
    };
    // Start of the S window for the first probe key of this shard.
    let mut window_start = s.lower_bound(first_key.value().saturating_sub(delta));

    for (key, payload) in keys.iter().zip(payloads) {
        let r_tuple = Tuple::new(key.value(), payload.value());
        let low = r_tuple.key.saturating_sub(delta);
        let high = r_tuple.key.saturating_add(delta);
        // R is sorted, so the window start only moves forward.
        while window_start < s_keys.len() && s_keys[window_start] < low {
            window_start += 1;
        }
        let mut si = window_start;
        while si < s_keys.len() && s_keys[si] <= high {
            let s_tuple = s_rel.get(si).expect("si in bounds");
            collector.push(MatchPair::new(r_tuple, s_tuple));
            si += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::join::reference_equi_join;
    use crate::predicate::JoinPredicate;
    use relation::{Checksum, GenSpec, Relation};

    fn reference_band_join(r: &Relation, s: &Relation, delta: u32) -> Vec<MatchPair> {
        let pred = JoinPredicate::band(delta);
        let mut out = Vec::new();
        for rt in r.iter() {
            for st in s.iter() {
                if pred.matches(rt.key, st.key) {
                    out.push(MatchPair::new(rt, st));
                }
            }
        }
        out
    }

    #[test]
    fn equi_merge_matches_reference() {
        let r = GenSpec::uniform(2_000, 60).generate();
        let s = GenSpec::uniform(2_000, 61).generate();
        let state = SortMergeState::build(&s, 2);
        let sorted_r = SortedRun::sort(&r, 2);
        let mut c = JoinCollector::aggregating();
        state.merge(&sorted_r, 0, 2, &mut c);
        let reference = reference_equi_join(&r, &s);
        assert_eq!(c.count(), reference.len() as u64);
        assert_eq!(
            c.checksum(),
            reference.iter().copied().collect::<Checksum>()
        );
    }

    #[test]
    fn equi_merge_handles_duplicates_on_both_sides() {
        let r = Relation::from_pairs([(5, 1), (5, 2), (7, 3)]);
        let s = Relation::from_pairs([(5, 10), (5, 11), (5, 12), (7, 13)]);
        let mut c = JoinCollector::aggregating();
        merge_join(
            &SortedRun::sort(&r, 1),
            &SortedRun::sort(&s, 1),
            0,
            1,
            &mut c,
        );
        // 2 × 3 for key 5, 1 × 1 for key 7.
        assert_eq!(c.count(), 7);
    }

    #[test]
    fn band_merge_matches_reference() {
        let r = GenSpec::uniform(1_000, 62).generate();
        let s = GenSpec::uniform(1_000, 63).generate();
        for delta in [0u32, 1, 3, 10] {
            let mut c = JoinCollector::aggregating();
            merge_join(
                &SortedRun::sort(&r, 2),
                &SortedRun::sort(&s, 2),
                delta,
                3,
                &mut c,
            );
            let reference = reference_band_join(&r, &s, delta);
            assert_eq!(c.count(), reference.len() as u64, "delta={delta}");
            assert_eq!(
                c.checksum(),
                reference.iter().copied().collect::<Checksum>(),
                "delta={delta}"
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let r = GenSpec::zipf(3_000, 0.7, 64).generate();
        let s = GenSpec::zipf(3_000, 0.7, 65).generate();
        let sr = SortedRun::sort(&r, 4);
        let ss = SortedRun::sort(&s, 4);
        let mut results = Vec::new();
        for threads in [1, 2, 4, 8] {
            let mut c = JoinCollector::aggregating();
            merge_join(&sr, &ss, 1, threads, &mut c);
            results.push((c.count(), c.checksum()));
        }
        assert!(results.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn skew_does_not_break_correctness() {
        let r = GenSpec::zipf(1_500, 0.95, 66).generate();
        let s = GenSpec::zipf(1_500, 0.95, 67).generate();
        let mut c = JoinCollector::aggregating();
        merge_join(
            &SortedRun::sort(&r, 2),
            &SortedRun::sort(&s, 2),
            0,
            4,
            &mut c,
        );
        assert_eq!(c.count(), reference_equi_join(&r, &s).len() as u64);
    }

    #[test]
    fn empty_sides_yield_no_matches() {
        let some = SortedRun::sort(&GenSpec::uniform(100, 0).generate(), 1);
        let empty = SortedRun::default();
        for (a, b) in [(&some, &empty), (&empty, &some), (&empty, &empty)] {
            let mut c = JoinCollector::aggregating();
            merge_join(a, b, 0, 2, &mut c);
            assert_eq!(c.count(), 0);
        }
    }

    #[test]
    fn band_near_key_domain_edges() {
        // Saturating arithmetic at 0 and u32::MAX must not wrap.
        let r = Relation::from_pairs([(0, 1), (u32::MAX, 2)]);
        let s = Relation::from_pairs([(1, 10), (u32::MAX - 1, 20)]);
        let mut c = JoinCollector::materializing();
        merge_join(
            &SortedRun::sort(&r, 1),
            &SortedRun::sort(&s, 1),
            2,
            1,
            &mut c,
        );
        assert_eq!(c.count(), 2);
    }

    #[test]
    fn state_reuse_across_fragments() {
        let s = GenSpec::uniform(2_000, 68).generate();
        let state = SortMergeState::build(&s, 2);
        let r = GenSpec::uniform(2_000, 69).generate();
        let mut total = JoinCollector::aggregating();
        for frag in r.split_even(3) {
            let sorted = SortedRun::sort(&frag, 2);
            state.merge(&sorted, 0, 2, &mut total);
        }
        assert_eq!(total.count(), reference_equi_join(&r, &s).len() as u64);
    }
}
