//! Blocked nested-loops join — the universal fallback.
//!
//! For join predicates with no exploitable structure (no equality to hash
//! on, no band to merge through) the system "falls back to the universal
//! but slower nested loops join" (§IV-C). The implementation is blocked
//! for cache locality — the inner relation is re-scanned once per probe
//! *block* rather than once per probe tuple — and the probe side is
//! sharded across threads.

use std::ops::Range;

use relation::{ColumnValue, Columns, Key, MatchPair, Payload, Relation, RelationView, Tuple};

use crate::collector::JoinCollector;
use crate::parallel::{fork_join, shard_ranges};
use crate::predicate::JoinPredicate;

/// Probe tuples per block; one block of keys stays cache-resident while
/// the inner relation streams past it.
const BLOCK: usize = 4096;

/// Joins `r` (owned, or viewed in its wire bytes) and `s` under an
/// arbitrary `predicate` with `threads` workers.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn nested_loops_join<'r>(
    r: impl Into<RelationView<'r>>,
    s: &Relation,
    predicate: &JoinPredicate,
    threads: usize,
    collector: &mut JoinCollector,
) {
    let r = r.into();
    let ranges = shard_ranges(r.len(), threads);
    let shards = fork_join(threads, |i| {
        let mut local = collector.child();
        let range = ranges[i].clone();
        match r.columns() {
            Columns::Native(keys, payloads) => {
                join_range(keys, payloads, range, s, predicate, &mut local);
            }
            Columns::Wire(keys, payloads) => {
                join_range(keys, payloads, range, s, predicate, &mut local);
            }
        }
        local
    });
    for shard in shards {
        collector.merge(shard);
    }
}

/// Joins `r[range]`, its columns as they lie, against all of `s`.
fn join_range<K: ColumnValue<Key>, P: ColumnValue<Payload>>(
    keys: &[K],
    payloads: &[P],
    range: Range<usize>,
    s: &Relation,
    predicate: &JoinPredicate,
    collector: &mut JoinCollector,
) {
    let (Some(keys), Some(payloads)) = (keys.get(range.clone()), payloads.get(range)) else {
        return;
    };
    for (keys, payloads) in keys.chunks(BLOCK).zip(payloads.chunks(BLOCK)) {
        for s_tuple in s.iter() {
            for (key, payload) in keys.iter().zip(payloads) {
                if predicate.matches(key.value(), s_tuple.key) {
                    let r_tuple = Tuple::new(key.value(), payload.value());
                    collector.push(MatchPair::new(r_tuple, s_tuple));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::join::reference_equi_join;
    use relation::{Checksum, GenSpec};

    #[test]
    fn equi_predicate_matches_reference() {
        let r = GenSpec::uniform(800, 70).generate();
        let s = GenSpec::uniform(800, 71).generate();
        let mut c = JoinCollector::aggregating();
        nested_loops_join(&r, &s, &JoinPredicate::Equi, 2, &mut c);
        let reference = reference_equi_join(&r, &s);
        assert_eq!(c.count(), reference.len() as u64);
        assert_eq!(
            c.checksum(),
            reference.iter().copied().collect::<Checksum>()
        );
    }

    #[test]
    fn theta_predicate_is_honoured() {
        let r = Relation::from_pairs([(1, 0), (5, 0), (10, 0)]);
        let s = Relation::from_pairs([(2, 0), (6, 0), (20, 0)]);
        // r.key < s.key
        let pred = JoinPredicate::theta(|rk, sk| rk < sk);
        let mut c = JoinCollector::aggregating();
        nested_loops_join(&r, &s, &pred, 1, &mut c);
        // (1,2),(1,6),(1,20),(5,6),(5,20),(10,20)
        assert_eq!(c.count(), 6);
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let r = GenSpec::uniform(1_000, 72).generate();
        let s = GenSpec::uniform(1_000, 73).generate();
        let pred = JoinPredicate::band(2);
        let mut results = Vec::new();
        for threads in [1, 2, 5] {
            let mut c = JoinCollector::aggregating();
            nested_loops_join(&r, &s, &pred, threads, &mut c);
            results.push((c.count(), c.checksum()));
        }
        assert!(results.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn blocks_larger_than_input_work() {
        let r = GenSpec::uniform(10, 74).generate();
        let s = GenSpec::uniform(10, 75).generate();
        let mut c = JoinCollector::aggregating();
        nested_loops_join(&r, &s, &JoinPredicate::Equi, 4, &mut c);
        assert_eq!(c.count(), reference_equi_join(&r, &s).len() as u64);
    }

    #[test]
    fn empty_inputs() {
        let mut c = JoinCollector::aggregating();
        nested_loops_join(
            &Relation::new(),
            &Relation::new(),
            &JoinPredicate::Equi,
            2,
            &mut c,
        );
        assert_eq!(c.count(), 0);
    }
}
