//! The merge phase of sort-merge join, with band-join support.
//!
//! Both inputs arrive as [`SortedRun`]s. The merge aligns matches by
//! scanning both runs forward — a strictly sequential access pattern that
//! the paper credits for the join phase being about twice as fast as hash
//! probing (§V-E). A band predicate `|r.key − s.key| ≤ delta` generalizes
//! the equi case (`delta = 0`): for each probe tuple the matching window
//! of `S` is `[r.key − delta, r.key + delta]`, and since `R` is scanned in
//! key order the window's start only ever moves forward.
//!
//! Multi-threading follows the paper (§IV-C2): the probe side is split
//! into as many contiguous sub-ranges as there are cores; each thread
//! binary-searches its own start position in `S` and merges independently.
//!
//! The probe side is a [`RelationView`] — a [`SortedRun`]'s relation, or a
//! sorted run read in place in the bytes it arrived in — and the kernel is
//! generic over how its column values lie, so both go through one merge.

use relation::{ColumnValue, Columns, Key, MatchPair, Payload, RelationView, Tuple};

use super::run::SortedRun;
use crate::collector::JoinCollector;
use crate::parallel::{fork_join, shard_range};

impl<'a> From<&'a SortedRun> for RelationView<'a> {
    fn from(run: &'a SortedRun) -> Self {
        run.as_relation().into()
    }
}

/// The setup-phase output of sort-merge join: the stationary relation in
/// sorted order.
///
/// (The probe side must be sorted too; in cyclo-join that happens once per
/// fragment at its origin host, and the sorted fragment is what rotates.)
#[derive(Debug, Clone, Default)]
pub struct SortMergeState {
    s: SortedRun,
}

impl SortMergeState {
    /// Sorts stationary relation `s` (a relation, or a view of one's
    /// columns) with `threads` workers.
    pub fn build<'s>(s: impl Into<RelationView<'s>>, threads: usize) -> Self {
        SortMergeState {
            s: SortedRun::sort(s, threads),
        }
    }

    /// Wraps an already sorted stationary side.
    pub fn from_sorted(s: SortedRun) -> Self {
        SortMergeState { s }
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

    /// Join phase: merges sorted probe fragment `r` (owned, or viewed in
    /// its wire bytes) against the stationary run with band half-width
    /// `delta` (`0` = equi-join), on `threads` worker threads.
    pub fn merge<'r>(
        &self,
        r: impl Into<RelationView<'r>>,
        delta: u32,
        threads: usize,
        collector: &mut JoinCollector,
    ) {
        merge_join(r, &self.s, delta, threads, collector);
    }
}

/// Merges sorted probe side `r` (a [`SortedRun`] or a view of sorted
/// keys) with sorted run `s`, band half-width `delta` (`0` = equi-join).
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
