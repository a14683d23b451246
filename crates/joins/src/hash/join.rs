//! The two-phase partitioned hash join operator.
//!
//! **Setup phase** — [`HashJoinState::build`]: radix-partition the
//! stationary relation `S_i` and build a bucket-chained table per
//! partition, each sized to the cache its host gets ([`radix_bits_for`]).
//! One histogram pass and one scatter write every stationary tuple where
//! its table holds it: all partitions' tables live in one set of arrays,
//! so a build makes the same few allocations whatever the fan-out.
//!
//! **Join phase** — [`HashJoinState::probe_partitioned`]: scan the
//! partitions of a probe fragment `R_j` (partitioned with the *same* radix
//! bits, read in the bytes it was prepared or arrived in) and probe the
//! matching tables, through one set of selection vectors per visit.
//! Disjoint partitions are handed to separate threads, exactly how the
//! paper exploits its quad cores.
//!
//! In cyclo-join the setup output is built **once** and reused for every
//! `R_j` that rotates past (§IV-D) — the reuse is what makes the setup
//! phase's cost scale with `|S|/n` while the join phase cost stays
//! proportional to `|R|` (Equation ⋆).

use relation::{Key, MatchPair, Payload, Relation, RelationView, Tuple};

use super::radix::{radix_bits_for, scatter_into_columns, PartitionsView};
use super::table::{buckets_for, chain, Selection, TableView};
use super::CacheParams;
use crate::collector::JoinCollector;
use crate::parallel::fork_join;

/// The setup-phase output of the partitioned hash join: cache-sized hash
/// tables over every partition of the stationary relation, in one set of
/// arrays. `links` holds every tuple's chain link (`next`, one per tuple)
/// and then every bucket head. Partition `j`'s tuples are `keys`,
/// `payloads` and `next` at `starts[j]..starts[j + 1]`, and its buckets
/// are the heads at `head_starts[j]..head_starts[j + 1]` (a power of two
/// of them).
#[derive(Debug, Clone)]
pub struct HashJoinState {
    bits: u32,
    keys: Vec<Key>,
    payloads: Vec<Payload>,
    links: Vec<u32>,
    starts: Vec<usize>,
    head_starts: Vec<usize>,
}

impl HashJoinState {
    /// Builds the state over stationary relation `s` (a relation, or a
    /// view of one's columns), choosing the radix fan-out from `params` so
    /// each table fits the cache [`radix_bits_for`] sizes it to.
    pub fn build<'s>(s: impl Into<RelationView<'s>>, params: &CacheParams) -> Self {
        let s = s.into();
        let bits = radix_bits_for(s.len(), params);
        Self::build_with_bits(s, bits, params)
    }

    /// Builds the state with an explicit number of radix bits, on one
    /// thread (used by ablation benchmarks; prefer
    /// [`HashJoinState::build`]). `params` is not read: the bits are given.
    pub fn build_with_bits<'s>(
        s: impl Into<RelationView<'s>>,
        bits: u32,
        _params: &CacheParams,
    ) -> Self {
        HashJoinState::build_parallel(s, bits, 1)
    }

    /// Builds the state with `threads` worker threads doing the radix
    /// scatter (the chains are threaded per partition, sequentially —
    /// insertions are cheap relative to the scatter).
    ///
    /// The scatter is one pass on all `bits` bits, into the state's own
    /// columns. The build allocates its three arrays, two offset tables
    /// and the scatter's histogram, at any fan-out.
    pub fn build_parallel<'s>(s: impl Into<RelationView<'s>>, bits: u32, threads: usize) -> Self {
        assert!(bits <= 24, "more than 2^24 partitions is never useful here");
        let s = s.into();
        let n = s.len();
        let (mut keys, mut payloads) = (vec![0; n], vec![0; n]);
        let starts = scatter_into_columns(s, bits, threads, &mut keys, &mut payloads);
        let mut head_starts = Vec::with_capacity(starts.len());
        head_starts.push(0);
        for (j, range) in starts.windows(2).enumerate() {
            head_starts.push(head_starts[j] + buckets_for(range[1] - range[0]));
        }
        let mut links = vec![0u32; n + head_starts.last().copied().unwrap_or(0)];
        let (next, heads) = links.split_at_mut(n);
        for (tuples, buckets) in starts.windows(2).zip(head_starts.windows(2)) {
            let (tuples, buckets) = (tuples[0]..tuples[1], buckets[0]..buckets[1]);
            chain(
                &keys[tuples.clone()],
                bits,
                &mut heads[buckets],
                &mut next[tuples],
            );
        }
        HashJoinState {
            bits,
            keys,
            payloads,
            links,
            starts,
            head_starts,
        }
    }

    /// Partition `j`'s table, borrowed.
    fn table(&self, j: usize) -> TableView<'_> {
        let tuples = self.starts[j]..self.starts[j + 1];
        let (next, heads) = self.links.split_at(self.keys.len());
        TableView::new(
            self.bits,
            &heads[self.head_starts[j]..self.head_starts[j + 1]],
            &next[tuples.clone()],
            &self.keys[tuples.clone()],
            &self.payloads[tuples],
        )
    }

    /// Radix bits the stationary side was partitioned with; probe fragments
    /// must be partitioned with the same value.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of stationary tuples indexed.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if no stationary tuples are indexed.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Approximate bytes of access structures built during setup — this is
    /// what cyclo-join would ship over the ring to re-use setup output
    /// (§IV-D).
    pub fn footprint_bytes(&self) -> usize {
        self.keys.len() * (4 + 8) + self.links.len() * 4
    }

    /// Join phase against a pre-partitioned probe fragment — the bytes it
    /// was prepared or arrived in — using `threads` worker threads over
    /// disjoint partition ranges.
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
            // child collector, no merge — a visit allocates nothing, and
            // zeroes one set of selection vectors for all its partitions.
            let mut selection = Selection::new();
            for (j, part) in r.partitions().enumerate() {
                self.table(j).probe_all(part, &mut selection, collector);
            }
            return;
        }
        let shards = fork_join(threads, |shard| {
            let mut local = collector.child();
            let mut selection = Selection::new();
            let parts = r.partitions().enumerate().skip(shard).step_by(threads);
            for (j, part) in parts {
                self.table(j).probe_all(part, &mut selection, &mut local);
            }
            local
        });
        for shard in shards {
            collector.merge(shard);
        }
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
    use crate::hash::RadixPartitioned;
    use relation::{Checksum, GenSpec};

    /// Partitions `r` on the state's radix bits and probes it.
    fn probe(state: &HashJoinState, r: &Relation, threads: usize, collector: &mut JoinCollector) {
        let fragment = RadixPartitioned::new(r, state.bits(), &CacheParams::default());
        state.probe_partitioned(&fragment, threads, collector);
    }

    fn checksum_of(matches: &[MatchPair]) -> Checksum {
        matches.iter().copied().collect()
    }

    #[test]
    fn matches_reference_join_on_uniform_data() {
        let r = GenSpec::uniform(3_000, 20).generate();
        let s = GenSpec::uniform(3_000, 21).generate();
        let state = HashJoinState::build(&s, &CacheParams::tiny_for_tests());
        let mut collector = JoinCollector::aggregating();
        probe(&state, &r, 2, &mut collector);
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
        probe(&state, &r, 4, &mut collector);
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
            probe(&state, &r, threads, &mut c);
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
        probe(&state, &r, 1, &mut c);
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
        probe(
            &empty_state,
            &GenSpec::uniform(100, 0).generate(),
            2,
            &mut c,
        );
        assert_eq!(c.count(), 0);
        assert!(empty_state.is_empty());

        let state = HashJoinState::build(&GenSpec::uniform(100, 0).generate(), &params);
        let mut c = JoinCollector::aggregating();
        probe(&state, &Relation::new(), 2, &mut c);
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
            probe(&state, frag, 2, &mut total);
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
