//! Sorted runs: relations with a sortedness guarantee.
//!
//! [`SortedRun`] is a newtype over [`Relation`] whose constructor sorts
//! (in parallel) and whose invariant — keys non-decreasing — every merge
//! join relies on. Getting a `SortedRun` is the setup phase of sort-merge
//! join; in cyclo-join the sorted form of a rotating fragment is produced
//! once at its origin host and shipped around the ring in sorted order
//! (§IV-D).

use relation::{ColumnValue, Columns, Key, Payload, Relation, RelationView, Tuple};
use serde::{Deserialize, Serialize};

use crate::parallel::{fork_join, shard_ranges};

/// A relation sorted by join key (non-decreasing).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SortedRun(Relation);

impl SortedRun {
    /// Sorts `rel` (a relation, or a view of one's columns) into a run
    /// using `threads` worker threads: each thread copies a contiguous
    /// chunk out of the columns and sorts it, then chunks are merged
    /// pairwise.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn sort<'r>(rel: impl Into<RelationView<'r>>, threads: usize) -> Self {
        assert!(threads > 0, "sorting needs at least one thread");
        let rel = rel.into();
        let ranges = shard_ranges(rel.len(), threads);
        let mut chunks: Vec<Vec<Tuple>> = fork_join(threads, |i| {
            let chunk = rel.range(ranges[i].clone()).expect("shard range in bounds");
            let mut chunk = match chunk.columns() {
                Columns::Native(keys, payloads) => tuples(keys, payloads),
                Columns::Wire(keys, payloads) => tuples(keys, payloads),
            };
            chunk.sort_unstable_by_key(|t| t.key);
            chunk
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
        let sorted = chunks.pop().unwrap_or_default();
        SortedRun(sorted.into_iter().collect())
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

/// The tuples of two equally long columns, as they lie.
fn tuples<K: ColumnValue<Key>, P: ColumnValue<Payload>>(keys: &[K], payloads: &[P]) -> Vec<Tuple> {
    (keys.iter().zip(payloads))
        .map(|(k, p)| Tuple::new(k.value(), p.value()))
        .collect()
}

/// Merges two sorted tuple vectors into one.
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
