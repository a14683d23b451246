//! The unified join-operator API that cyclo-join drives.
//!
//! Cyclo-join "can play together with arbitrary implementations of ⋈"
//! (§IV-C): the local algorithm never needs to know the setup is
//! distributed. The contract it must expose, though, is the **setup/join
//! phase split**, because cyclo-join invokes setup *once* and then reuses
//! its output for every fragment of a full revolution (§IV-D):
//!
//! * [`Algorithm::setup_stationary`] — the one-time investment over the
//!   host's stationary partition `S_i` (partition + hash tables, or sort);
//! * [`Algorithm::prepare_fragment`] — the one-time reorganization of a
//!   rotating fragment `R_j` at its origin host (radix-partition or sort),
//!   written straight into the bytes that travel around the ring
//!   ([`PreparedFragment`], [`crate::wire`]);
//! * [`Algorithm::join`] — the per-encounter join phase `R_j ⋈ S_i`,
//!   over a [`FragmentView`]: the rotating fragment read in place, in the
//!   bytes it was prepared in at its origin or arrived in everywhere else.
//!
//! One ring-wide subtlety: the partitioned hash join requires probe
//! fragments and build tables to agree on the radix fan-out, so the ring
//! agrees on a single [`Algorithm::ring_radix_bits`] value up front.

use std::fmt;

use relation::{Relation, RelationView};
use serde::{Deserialize, Serialize};

use crate::collector::JoinCollector;
use crate::hash::{radix_bits_for, CacheParams, HashJoinState, PartitionsView};
use crate::nested::nested_loops_join;
use crate::predicate::JoinPredicate;
use crate::sort::SortMergeState;
use crate::wire::PreparedFragment;

/// Which local join algorithm runs on every host.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Algorithm {
    /// MonetDB-style radix-partitioned hash join (equi-joins only).
    PartitionedHash(CacheParams),
    /// Sort-merge join (equi- and band joins).
    SortMerge,
    /// Blocked nested loops (any predicate; the slow universal fallback).
    NestedLoops,
}

impl Algorithm {
    /// The partitioned hash join with the paper's cache parameters.
    pub fn partitioned_hash() -> Self {
        Algorithm::PartitionedHash(CacheParams::default())
    }

    /// Picks the fastest algorithm that supports `predicate`, mirroring
    /// the paper's fallback chain: hash for equi, sort-merge for band,
    /// nested loops otherwise.
    pub fn for_predicate(predicate: &JoinPredicate) -> Self {
        match predicate {
            JoinPredicate::Equi => Algorithm::partitioned_hash(),
            JoinPredicate::Band { .. } => Algorithm::SortMerge,
            JoinPredicate::Theta(_) => Algorithm::NestedLoops,
        }
    }

    /// True if this algorithm can evaluate `predicate`.
    pub fn supports(&self, predicate: &JoinPredicate) -> bool {
        match self {
            Algorithm::PartitionedHash(_) => predicate.is_equi(),
            Algorithm::SortMerge => predicate.band_delta().is_some(),
            Algorithm::NestedLoops => true,
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::PartitionedHash(_) => "partitioned-hash",
            Algorithm::SortMerge => "sort-merge",
            Algorithm::NestedLoops => "nested-loops",
        }
    }

    /// The radix fan-out every ring member must use, derived from the
    /// per-host stationary tuple count. Zero for non-hash algorithms.
    pub fn ring_radix_bits(&self, s_tuples_per_host: usize) -> u32 {
        match self {
            Algorithm::PartitionedHash(params) => radix_bits_for(s_tuples_per_host, params),
            _ => 0,
        }
    }

    /// Setup phase over the host's stationary partition: a relation, or a
    /// view of the columns it lies in (a placement's share of `S`, read in
    /// place).
    pub fn setup_stationary<'s>(
        &self,
        s: impl Into<RelationView<'s>>,
        radix_bits: u32,
        threads: usize,
    ) -> StationaryState {
        let s = s.into();
        match self {
            Algorithm::PartitionedHash(_) => {
                StationaryState::Hash(HashJoinState::build_parallel(s, radix_bits, threads))
            }
            Algorithm::SortMerge => StationaryState::Sorted(SortMergeState::build(s, threads)),
            // Nested loops has no setup, but its state outlives the view:
            // the one copy of the stationary side.
            Algorithm::NestedLoops => StationaryState::Plain(s.to_relation()),
        }
    }

    /// Setup-phase reorganization of a rotating fragment at its origin
    /// host — a relation, or a view of the columns it lies in — written
    /// straight into the bytes that circulate in the ring: a plain
    /// fragment is copied as it is.
    pub fn prepare_fragment<'r>(
        &self,
        r: impl Into<RelationView<'r>>,
        radix_bits: u32,
        threads: usize,
    ) -> PreparedFragment {
        PreparedFragment::prepare(self, r.into(), radix_bits, threads)
    }

    /// Join phase: one fragment — prepared, or any view of one — against
    /// one stationary state.
    ///
    /// # Panics
    ///
    /// Panics if the state/fragment kinds do not belong to this algorithm
    /// (they were prepared by a different one) or if `predicate` is not
    /// supported — callers validate with [`Algorithm::supports`] first.
    pub fn join<'f>(
        &self,
        state: &StationaryState,
        fragment: impl Into<FragmentView<'f>>,
        predicate: &JoinPredicate,
        threads: usize,
        collector: &mut JoinCollector,
    ) {
        assert!(
            self.supports(predicate),
            "{} cannot evaluate predicate {predicate}",
            self.name()
        );
        match (self, state, fragment.into()) {
            (
                Algorithm::PartitionedHash(_),
                StationaryState::Hash(hash),
                FragmentView::HashPartitioned(part),
            ) => hash.probe_partitioned(part, threads, collector),
            (Algorithm::SortMerge, StationaryState::Sorted(sorted), FragmentView::Sorted(run)) => {
                let delta = predicate
                    .band_delta()
                    .expect("supports() guaranteed a band-style predicate");
                sorted.merge(run, delta, threads, collector);
            }
            (Algorithm::NestedLoops, StationaryState::Plain(s), FragmentView::Plain(r)) => {
                nested_loops_join(r, s, predicate, threads, collector);
            }
            _ => panic!(
                "mismatched setup state / fragment kind for algorithm {}",
                self.name()
            ),
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Setup-phase output over a stationary partition.
#[derive(Debug, Clone)]
pub enum StationaryState {
    /// Radix-partitioned hash tables.
    Hash(HashJoinState),
    /// The partition in sorted order.
    Sorted(SortMergeState),
    /// The partition as-is (nested loops needs no setup).
    Plain(Relation),
}

impl StationaryState {
    /// Number of stationary tuples covered.
    pub fn len(&self) -> usize {
        match self {
            StationaryState::Hash(h) => h.len(),
            StationaryState::Sorted(s) => s.len(),
            StationaryState::Plain(r) => r.len(),
        }
    }

    /// True if no tuples are covered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A rotating fragment as a visit reads it: laid over the bytes of a
/// [`PreparedFragment`] or the bytes it arrived in ([`crate::wire::view`]),
/// or borrowed from an owned sorted run or relation. Every kernel reads
/// each through the same code, a batch of keys at a time.
#[derive(Debug, Clone, Copy)]
pub enum FragmentView<'a> {
    /// Radix-partitioned for hash probing.
    HashPartitioned(PartitionsView<'a>),
    /// Sorted for merging: keys non-decreasing (checked on receipt).
    Sorted(RelationView<'a>),
    /// Unmodified tuples.
    Plain(RelationView<'a>),
}

impl FragmentView<'_> {
    /// Number of tuples in the fragment.
    pub fn len(&self) -> usize {
        match self {
            FragmentView::HashPartitioned(p) => p.len(),
            FragmentView::Sorted(r) | FragmentView::Plain(r) => r.len(),
        }
    }

    /// True if the fragment holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical bytes that travel over a ring link when this fragment is
    /// forwarded (12 bytes per tuple).
    pub fn byte_volume(&self) -> u64 {
        self.len() as u64 * relation::TUPLE_BYTES
    }

    /// The fragment written into its wire form
    /// ([`PreparedFragment::from_view`]).
    pub fn to_prepared(&self) -> PreparedFragment {
        PreparedFragment::from_view(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::join::reference_equi_join;
    use relation::{Checksum, GenSpec};

    fn run_algorithm(
        alg: Algorithm,
        pred: &JoinPredicate,
        r: &Relation,
        s: &Relation,
        threads: usize,
    ) -> (u64, Checksum) {
        let bits = alg.ring_radix_bits(s.len());
        let state = alg.setup_stationary(s, bits, threads);
        let frag = alg.prepare_fragment(r, bits, threads);
        let mut c = JoinCollector::aggregating();
        alg.join(&state, &frag, pred, threads, &mut c);
        (c.count(), c.checksum())
    }

    #[test]
    fn all_algorithms_agree_on_equi_joins() {
        let r = GenSpec::uniform(1_500, 80).generate();
        let s = GenSpec::uniform(1_500, 81).generate();
        let reference = reference_equi_join(&r, &s);
        let expected = (
            reference.len() as u64,
            reference.iter().copied().collect::<Checksum>(),
        );
        for alg in [
            Algorithm::partitioned_hash(),
            Algorithm::SortMerge,
            Algorithm::NestedLoops,
        ] {
            let got = run_algorithm(alg, &JoinPredicate::Equi, &r, &s, 2);
            assert_eq!(got, expected, "algorithm {alg} disagrees");
        }
    }

    #[test]
    fn sort_merge_and_nested_agree_on_band_joins() {
        let r = GenSpec::uniform(800, 82).generate();
        let s = GenSpec::uniform(800, 83).generate();
        let pred = JoinPredicate::band(3);
        let smj = run_algorithm(Algorithm::SortMerge, &pred, &r, &s, 2);
        let nl = run_algorithm(Algorithm::NestedLoops, &pred, &r, &s, 2);
        assert_eq!(smj, nl);
        assert!(smj.0 > 0, "band join should find matches on this workload");
    }

    #[test]
    fn support_matrix_matches_the_paper() {
        let hash = Algorithm::partitioned_hash();
        let smj = Algorithm::SortMerge;
        let nl = Algorithm::NestedLoops;
        let theta = JoinPredicate::theta(|a, b| a % 7 == b % 7);
        assert!(hash.supports(&JoinPredicate::Equi));
        assert!(!hash.supports(&JoinPredicate::band(1)));
        assert!(!hash.supports(&theta));
        assert!(smj.supports(&JoinPredicate::Equi));
        assert!(smj.supports(&JoinPredicate::band(1)));
        assert!(!smj.supports(&theta));
        assert!(nl.supports(&JoinPredicate::Equi));
        assert!(nl.supports(&JoinPredicate::band(1)));
        assert!(nl.supports(&theta));
    }

    #[test]
    fn for_predicate_picks_the_fallback_chain() {
        assert_eq!(
            Algorithm::for_predicate(&JoinPredicate::Equi).name(),
            "partitioned-hash"
        );
        assert_eq!(
            Algorithm::for_predicate(&JoinPredicate::band(5)).name(),
            "sort-merge"
        );
        assert_eq!(
            Algorithm::for_predicate(&JoinPredicate::theta(|_, _| true)).name(),
            "nested-loops"
        );
    }

    #[test]
    #[should_panic(expected = "cannot evaluate")]
    fn hash_join_rejects_band_predicates() {
        let r = GenSpec::uniform(10, 0).generate();
        let s = GenSpec::uniform(10, 1).generate();
        let _ = run_algorithm(
            Algorithm::partitioned_hash(),
            &JoinPredicate::band(1),
            &r,
            &s,
            1,
        );
    }

    #[test]
    #[should_panic(expected = "mismatched")]
    fn mismatched_state_and_fragment_rejected() {
        let s = GenSpec::uniform(10, 2).generate();
        let r = GenSpec::uniform(10, 3).generate();
        let smj_state = Algorithm::SortMerge.setup_stationary(&s, 0, 1);
        let hash_frag = Algorithm::partitioned_hash().prepare_fragment(&r, 2, 1);
        let mut c = JoinCollector::aggregating();
        Algorithm::SortMerge.join(&smj_state, &hash_frag, &JoinPredicate::Equi, 1, &mut c);
    }

    #[test]
    fn fragment_byte_volume_is_preserved_by_preparation() {
        let r = GenSpec::uniform(1_000, 84).generate();
        for alg in [
            Algorithm::partitioned_hash(),
            Algorithm::SortMerge,
            Algorithm::NestedLoops,
        ] {
            let frag = alg.prepare_fragment(&r, alg.ring_radix_bits(1_000), 2);
            assert_eq!(frag.byte_volume(), r.byte_volume(), "algorithm {alg}");
            assert_eq!(frag.len(), r.len());
        }
    }
}
