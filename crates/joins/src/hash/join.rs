//! The two-phase partitioned hash join operator.
//!
//! **Setup phase** — [`HashJoinState::build`]: radix-partition the
//! stationary relation `S_i` and build a [`ChainedTable`] per partition,
//! each sized to fit the L2 cache.
//!
//! **Join phase** — [`HashJoinState::probe_partitioned`]: scan the
//! partitions of a probe fragment `R_j` (partitioned with the *same* radix
//! bits; owned, or read in the bytes it arrived in) and probe the matching
//! tables. Disjoint partitions are handed to separate threads, exactly how
//! the paper exploits its quad cores.
//!
//! In cyclo-join the setup output is built **once** and reused for every
//! `R_j` that rotates past (§IV-D) — the reuse is what makes the setup
//! phase's cost scale with `|S|/n` while the join phase cost stays
//! proportional to `|R|` (Equation ⋆).

use relation::{MatchPair, Relation, RelationView, Tuple};

use super::radix::{radix_bits_for, PartitionsView, RadixPartitioned};
use super::table::ChainedTable;
use super::CacheParams;
use crate::collector::JoinCollector;
use crate::parallel::fork_join;

/// The setup-phase output of the partitioned hash join: cache-sized hash
/// tables over every partition of the stationary relation.
#[derive(Debug, Clone)]
pub struct HashJoinState {
    bits: u32,
    tables: Vec<ChainedTable>,
    tuples: usize,
}

impl HashJoinState {
    /// Builds the state over stationary relation `s` (a relation, or a
    /// view of one's columns), choosing the radix fan-out from `params` so
    /// each table fits in L2.
    pub fn build<'s>(s: impl Into<RelationView<'s>>, params: &CacheParams) -> Self {
        let s = s.into();
        let bits = radix_bits_for(s.len(), params);
        Self::build_with_bits(s, bits, params)
    }

    /// Builds the state with an explicit number of radix bits (used by
    /// ablation benchmarks; prefer [`HashJoinState::build`]).
    pub fn build_with_bits<'s>(
        s: impl Into<RelationView<'s>>,
        bits: u32,
        params: &CacheParams,
    ) -> Self {
        HashJoinState::build_parallel(s, bits, params, 1)
    }

    /// Builds the state with `threads` worker threads doing the radix
    /// partitioning (table building per partition remains sequential —
    /// insertions are cheap relative to the scatter).
    pub fn build_parallel<'s>(
        s: impl Into<RelationView<'s>>,
        bits: u32,
        params: &CacheParams,
        threads: usize,
    ) -> Self {
        let s = s.into();
        let tuples = s.len();
        let partitioned = RadixPartitioned::new_parallel(s, bits, params, threads);
        // The scatter output is discarded after the build, so each table
        // takes its partition's columns over instead of copying them.
        let tables = partitioned
            .into_partitions()
            .into_iter()
            .map(|p| ChainedTable::build_owned(p, bits))
            .collect();
        HashJoinState {
            bits,
            tables,
            tuples,
        }
    }

    /// Radix bits the stationary side was partitioned with; probe fragments
    /// must be partitioned with the same value.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of stationary tuples indexed.
    pub fn len(&self) -> usize {
        self.tuples
    }

    /// True if no stationary tuples are indexed.
    pub fn is_empty(&self) -> bool {
        self.tuples == 0
    }

    /// Approximate bytes of access structures built during setup — this is
    /// what cyclo-join would ship over the ring to re-use setup output
    /// (§IV-D).
    pub fn footprint_bytes(&self) -> usize {
        self.tables.iter().map(ChainedTable::footprint_bytes).sum()
    }

    /// Partitions a probe-side fragment with the matching radix fan-out.
    /// In cyclo-join this runs once per fragment during setup, at the
    /// fragment's origin host; the partitioned form is what rotates.
    pub fn partition_probe(&self, r: &Relation, params: &CacheParams) -> RadixPartitioned {
        RadixPartitioned::new(r, self.bits, params)
    }

    /// Join phase against a pre-partitioned probe fragment — owned, or a
    /// view of the bytes it arrived in — using `threads` worker threads
    /// over disjoint partition ranges.
    ///
    /// # Panics
    ///
    /// Panics if `r` was partitioned with a different number of radix bits
    /// or `threads` is zero.
    pub fn probe_partitioned<'r>(
        &self,
        r: impl Into<PartitionsView<'r>>,
        threads: usize,
        collector: &mut JoinCollector,
    ) {
        self.probe_view(r.into(), threads, collector);
    }

    fn probe_view(&self, r: PartitionsView<'_>, threads: usize, collector: &mut JoinCollector) {
        assert_eq!(
            r.bits(),
            self.bits,
            "probe fragment partitioned with {} bits but tables use {}",
            r.bits(),
            self.bits
        );
        if threads == 1 {
            // Straight into the caller's collector: no shard vector, no
            // child collector, no merge — a visit allocates nothing.
            for (table, part) in self.tables.iter().zip(r.partitions()) {
                table.probe_all(part, collector);
            }
            return;
        }
        let shards = fork_join(threads, |shard| {
            let mut local = collector.child();
            let pairs = self.tables.iter().zip(r.partitions());
            for (table, part) in pairs.skip(shard).step_by(threads) {
                table.probe_all(part, &mut local);
            }
            local
        });
        for shard in shards {
            collector.merge(shard);
        }
    }

    /// Convenience single-shot probe for an unpartitioned fragment:
    /// partitions it, then joins. Equivalent to `partition_probe` +
    /// `probe_partitioned`.
    pub fn probe(
        &self,
        r: &Relation,
        params: &CacheParams,
        threads: usize,
        collector: &mut JoinCollector,
    ) {
        let partitioned = self.partition_probe(r, params);
        self.probe_partitioned(&partitioned, threads, collector);
    }
}

/// Reference equi-join by brute force, for correctness tests.
pub fn reference_equi_join(r: &Relation, s: &Relation) -> Vec<MatchPair> {
    let mut out = Vec::new();
    for rt in r.iter() {
        for st in s.iter() {
            if rt.key == st.key {
                out.push(MatchPair::new(rt, st));
            }
        }
    }
    out
}

/// Handy constructor for tests: a match from raw parts.
pub fn match_of(r: (u32, u64), s: (u32, u64)) -> MatchPair {
    MatchPair::new(Tuple::new(r.0, r.1), Tuple::new(s.0, s.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{Checksum, GenSpec};

    fn checksum_of(matches: &[MatchPair]) -> Checksum {
        matches.iter().copied().collect()
    }

    #[test]
    fn matches_reference_join_on_uniform_data() {
        let r = GenSpec::uniform(3_000, 20).generate();
        let s = GenSpec::uniform(3_000, 21).generate();
        let state = HashJoinState::build(&s, &CacheParams::tiny_for_tests());
        let mut collector = JoinCollector::aggregating();
        state.probe(&r, &CacheParams::tiny_for_tests(), 2, &mut collector);
        let reference = reference_equi_join(&r, &s);
        assert_eq!(collector.count(), reference.len() as u64);
        assert_eq!(collector.checksum(), checksum_of(&reference));
    }

    #[test]
    fn matches_reference_join_on_skewed_data() {
        let r = GenSpec::zipf(2_000, 0.9, 22).generate();
        let s = GenSpec::zipf(2_000, 0.9, 23).generate();
        let state = HashJoinState::build(&s, &CacheParams::tiny_for_tests());
        let mut collector = JoinCollector::aggregating();
        state.probe(&r, &CacheParams::tiny_for_tests(), 4, &mut collector);
        let reference = reference_equi_join(&r, &s);
        assert_eq!(collector.count(), reference.len() as u64);
        assert_eq!(collector.checksum(), checksum_of(&reference));
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let r = GenSpec::uniform(5_000, 24).generate();
        let s = GenSpec::uniform(5_000, 25).generate();
        let params = CacheParams::tiny_for_tests();
        let state = HashJoinState::build(&s, &params);
        let mut results = Vec::new();
        for threads in [1, 2, 4, 8] {
            let mut c = JoinCollector::aggregating();
            state.probe(&r, &params, threads, &mut c);
            results.push((c.count(), c.checksum()));
        }
        assert!(results.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn materialized_matches_are_correct() {
        let r = Relation::from_pairs([(1, 100), (2, 200), (3, 300)]);
        let s = Relation::from_pairs([(2, 900), (2, 901), (4, 400)]);
        let state = HashJoinState::build(&s, &CacheParams::default());
        let mut c = JoinCollector::materializing();
        state.probe(&r, &CacheParams::default(), 1, &mut c);
        let mut matches = c.into_matches();
        matches.sort_unstable();
        assert_eq!(
            matches,
            vec![match_of((2, 200), (2, 900)), match_of((2, 200), (2, 901))]
        );
    }

    #[test]
    fn empty_inputs_produce_empty_output() {
        let params = CacheParams::default();
        let empty_state = HashJoinState::build(&Relation::new(), &params);
        let mut c = JoinCollector::aggregating();
        empty_state.probe(&GenSpec::uniform(100, 0).generate(), &params, 2, &mut c);
        assert_eq!(c.count(), 0);
        assert!(empty_state.is_empty());

        let state = HashJoinState::build(&GenSpec::uniform(100, 0).generate(), &params);
        let mut c = JoinCollector::aggregating();
        state.probe(&Relation::new(), &params, 2, &mut c);
        assert_eq!(c.count(), 0);
    }

    #[test]
    #[should_panic(expected = "partitioned with")]
    fn mismatched_partitioning_rejected() {
        let params = CacheParams::tiny_for_tests();
        let s = GenSpec::uniform(10_000, 1).generate();
        let state = HashJoinState::build_with_bits(&s, 4, &params);
        let wrong = RadixPartitioned::new(&s, 2, &params);
        let mut c = JoinCollector::aggregating();
        state.probe_partitioned(&wrong, 1, &mut c);
    }

    #[test]
    fn setup_probe_split_reuses_state() {
        // The cyclo-join pattern: one build, many probes.
        let params = CacheParams::tiny_for_tests();
        let s = GenSpec::uniform(2_000, 30).generate();
        let state = HashJoinState::build(&s, &params);
        let fragments: Vec<Relation> = GenSpec::uniform(4_000, 31).generate().split_even(4);
        let mut total = JoinCollector::aggregating();
        for frag in &fragments {
            state.probe(frag, &params, 2, &mut total);
        }
        let whole = {
            let r = {
                let mut r = Relation::new();
                for f in &fragments {
                    r.extend_from(f);
                }
                r
            };
            reference_equi_join(&r, &s)
        };
        assert_eq!(total.count(), whole.len() as u64);
        assert_eq!(total.checksum(), checksum_of(&whole));
    }

    #[test]
    fn footprint_reported() {
        let s = GenSpec::uniform(1_000, 40).generate();
        let state = HashJoinState::build(&s, &CacheParams::default());
        assert!(state.footprint_bytes() >= 1_000 * 16);
        assert_eq!(state.len(), 1_000);
    }
}
