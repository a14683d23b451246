//! Property-based tests of the join algorithms: every algorithm, on any
//! input, produces exactly the reference multiset of matches.

use mem_joins::hash::radix::radix_of;
use mem_joins::hash::{CacheParams, PartitionsView, RadixPartitioned};
use mem_joins::{
    merge_join, nested_loops_join, Algorithm, FragmentView, JoinCollector, JoinPredicate,
    PreparedFragment, SortedRun,
};
use proptest::prelude::*;
use relation::{relation_checksum, Checksum, GenSpec, Relation, Tuple};

fn relation_strategy() -> impl Strategy<Value = Relation> {
    // Mix of shapes: empty, small domains (heavy duplicates), wide domains.
    (0usize..300, 1u32..50_000, any::<u64>()).prop_map(|(tuples, domain, seed)| {
        GenSpec {
            tuples,
            distribution: relation::KeyDistribution::Uniform { domain },
            seed,
        }
        .generate()
    })
}

/// `rel` radix-partitioned on `bits` bits by definition, in a prepared
/// fragment's bytes: partition `j` holds the input's tuples with
/// `radix_of(key, bits) == j`, in input order, each encoded by the relation
/// layer. Nothing of the scatter under test is used.
fn oracle(rel: &Relation, bits: u32) -> Vec<u8> {
    let mut parts = vec![Relation::new(); 1 << bits];
    for t in rel.iter() {
        parts[radix_of(t.key, bits)].push(t);
    }
    let mut out = vec![mem_joins::wire::TAG_HASH];
    out.extend_from_slice(&bits.to_le_bytes());
    out.extend_from_slice(&(1u32 << bits).to_le_bytes());
    for p in &parts {
        out.extend_from_slice(&(relation::wire::encoded_len(p.len()) as u32).to_le_bytes());
        relation::wire::encode_into(p, &mut out);
    }
    out
}

fn reference(r: &Relation, s: &Relation, pred: &JoinPredicate) -> (u64, Checksum) {
    let mut c = JoinCollector::aggregating();
    nested_loops_join(r, s, pred, 1, &mut c);
    (c.count(), c.checksum())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The radix hash join equals brute force on arbitrary inputs.
    #[test]
    fn hash_join_equals_reference(
        r in relation_strategy(),
        s in relation_strategy(),
        threads in 1usize..5,
    ) {
        let alg = Algorithm::PartitionedHash(CacheParams::tiny_for_tests());
        let bits = alg.ring_radix_bits(s.len());
        let state = alg.setup_stationary(&s, bits, threads);
        let frag = alg.prepare_fragment(&r, bits, threads);
        let mut c = JoinCollector::aggregating();
        alg.join(&state, &frag, &JoinPredicate::Equi, threads, &mut c);
        let (count, checksum) = reference(&r, &s, &JoinPredicate::Equi);
        prop_assert_eq!(c.count(), count);
        prop_assert_eq!(c.checksum(), checksum);
    }

    /// The sort-merge join equals brute force for any band half-width.
    #[test]
    fn merge_join_equals_reference(
        r in relation_strategy(),
        s in relation_strategy(),
        delta in 0u32..10,
        threads in 1usize..5,
    ) {
        let pred = JoinPredicate::band(delta);
        let mut c = JoinCollector::aggregating();
        merge_join(&SortedRun::sort(&r, 2), &SortedRun::sort(&s, 2), delta, threads, &mut c);
        let (count, checksum) = reference(&r, &s, &pred);
        prop_assert_eq!(c.count(), count);
        prop_assert_eq!(c.checksum(), checksum);
    }

    /// Radix partitioning conserves the multiset at any fan-out.
    #[test]
    fn radix_partitioning_conserves(rel in relation_strategy(), bits in 0u32..10) {
        let part = RadixPartitioned::new(&rel, bits, &CacheParams::default());
        let view = PartitionsView::from(&part);
        prop_assert_eq!(view.partitions().count(), 1 << bits);
        prop_assert_eq!(part.len(), rel.len());
        let mut got: Vec<Tuple> = view.partitions().flat_map(|p| p.iter()).collect();
        let mut want: Vec<Tuple> = rel.iter().collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// The batched probe finds exactly the multiset that the single-key
    /// [`ChainedTable::probe`] defines, tuple by tuple: on uniform, Zipf
    /// and all-duplicate keys (chains of up to 800 slots, longer than a
    /// batch), an empty table, an empty probe, probe lengths on both
    /// sides of a batch boundary, any radix fan-out, both output modes
    /// and both side orientations — with the probe side in its prepared
    /// buffer, aligned, and in wire bytes viewed at an unaligned offset.
    /// The merge kernel over the same keys, its prepared sorted run viewed
    /// the same way, finds the same multiset.
    #[test]
    fn batched_probe_equals_single_key_probes(
        s_shape in 0usize..4,
        s_tuples in 1usize..800,
        r_shape in 0usize..3,
        r_len in 0usize..7,
        bits in 0u32..7,
        materialize in any::<bool>(),
        swapped in any::<bool>(),
        seed in any::<u64>(),
    ) {
        use mem_joins::hash::{ChainedTable, HashJoinState, PROBE_BATCH};
        use relation::{KeyDistribution, MatchPair};
        let domain = s_tuples as u32;
        let keys = |shape: usize, tuples: usize, seed: u64| -> Relation {
            let distribution = match shape {
                0 => KeyDistribution::Uniform { domain },
                1 => KeyDistribution::Zipf { domain, z: 0.9 },
                // One key everywhere: a single chain, a single partition.
                _ => KeyDistribution::Uniform { domain: 1 },
            };
            GenSpec { tuples, distribution, seed }.generate()
        };
        let s = keys(s_shape, if s_shape == 3 { 0 } else { s_tuples }, seed);
        let r_tuples = [
            0,
            1,
            PROBE_BATCH - 1,
            PROBE_BATCH,
            PROBE_BATCH + 1,
            2 * PROBE_BATCH + 3,
            (seed % 200) as usize,
        ][r_len];
        let r = keys(r_shape, r_tuples, seed ^ 0x5bd1_e995);

        let params = CacheParams::default();
        let collector = || {
            let c = if materialize {
                JoinCollector::materializing()
            } else {
                JoinCollector::aggregating()
            };
            if swapped { c.with_swapped_sides() } else { c }
        };
        let probe = RadixPartitioned::new(&r, bits, &params);
        let stationary = RadixPartitioned::new(&s, bits, &params);
        let tables: Vec<ChainedTable> = PartitionsView::from(&stationary)
            .partitions()
            .map(|p| ChainedTable::build_with_shift(&p.to_relation(), bits))
            .collect();
        let (mut expect, mut batched) = (collector(), collector());
        for (table, part) in tables.iter().zip(PartitionsView::from(&probe).partitions()) {
            for rt in part.iter() {
                for st in table.probe(rt.key) {
                    expect.push(MatchPair::new(rt, st));
                }
            }
            table.probe_all(part, &mut batched);
        }
        // The same kernel behind the operator, on either side of its
        // single-threaded shortcut.
        let state = HashJoinState::build_with_bits(&s, bits, &params);
        let (mut inline, mut forked) = (collector(), collector());
        state.probe_partitioned(&probe, 1, &mut inline);
        state.probe_partitioned(&probe, 3, &mut forked);

        // The probe side as a receiver reads it: prepared into its wire
        // bytes, which arrived at an offset that leaves every column
        // unaligned.
        let offset = 1 + (seed % 7) as usize;
        let wire = |fragment: PreparedFragment| {
            let mut bytes = vec![0xEE; offset];
            bytes.extend_from_slice(fragment.as_bytes());
            bytes
        };
        let hashed = wire(Algorithm::PartitionedHash(params).prepare_fragment(&r, bits, 1));
        let FragmentView::HashPartitioned(viewed) =
            mem_joins::wire::view(&hashed[offset..]).expect("intact bytes")
        else {
            panic!("a hash fragment views as one");
        };
        let (mut view_batched, mut view_inline, mut view_forked) =
            (collector(), collector(), collector());
        for (table, part) in tables.iter().zip(viewed.partitions()) {
            table.probe_all(part, &mut view_batched);
        }
        state.probe_partitioned(viewed, 1, &mut view_inline);
        state.probe_partitioned(viewed, 3, &mut view_forked);

        // The merge kernel, its probe run viewed the same way.
        let sorted = wire(Algorithm::SortMerge.prepare_fragment(&r, 0, 1));
        let FragmentView::Sorted(run) =
            mem_joins::wire::view(&sorted[offset..]).expect("intact bytes")
        else {
            panic!("a sorted fragment views as one");
        };
        let mut merged = collector();
        merge_join(run, &SortedRun::sort(&s, 1), 0, 1, &mut merged);

        let expect_sum = (expect.count(), expect.checksum());
        let mut expect = expect.into_matches();
        expect.sort_unstable();
        for got in [batched, inline, forked, view_batched, view_inline, view_forked, merged] {
            prop_assert_eq!((got.count(), got.checksum()), expect_sum);
            // Emission order is the kernel's business; the multiset is not.
            let mut got = got.into_matches();
            got.sort_unstable();
            prop_assert_eq!(&got, &expect);
        }
    }

    /// A fragment prepared straight into its wire bytes is byte for byte
    /// what its reorganisation by definition, encoded, writes: every
    /// algorithm, radix bits 0–14 (partition `j` the input's tuples with
    /// `radix_of(key, bits) == j`, in input order), one or several threads,
    /// lengths 0, 1 and odd, and an input in native columns or in wire
    /// columns at an unaligned offset. Every prepared buffer is sized
    /// exactly and passes every content check.
    #[test]
    fn prepared_bytes_equal_prepare_then_encode(
        n in 0usize..400,
        form in 0u8..3,
        bits in 0u32..15,
        threads in 1usize..4,
        offset in 1usize..8,
        seed in any::<u64>(),
    ) {
        let len = if n < 2 { n } else { 2 * n + 1 };
        let rel = GenSpec::uniform(len, seed).generate();
        // The oracle, written by hand in the documented layout.
        let mut want = Vec::new();
        let (alg, bits) = match form {
            0 => {
                want.push(mem_joins::wire::TAG_PLAIN);
                relation::wire::encode_into(&rel, &mut want);
                (Algorithm::NestedLoops, 0)
            }
            1 => {
                want.push(mem_joins::wire::TAG_SORTED);
                relation::wire::encode_into(SortedRun::sort(&rel, threads).as_relation(), &mut want);
                (Algorithm::SortMerge, 0)
            }
            _ => {
                want = oracle(&rel, bits);
                (Algorithm::PartitionedHash(CacheParams::tiny_for_tests()), bits)
            }
        };
        let mut columns = vec![0xEE; offset];
        relation::wire::encode_into(&rel, &mut columns);
        let in_bytes = relation::wire::view(&columns[offset..]).expect("intact bytes");
        for input in [(&rel).into(), in_bytes] {
            let prepared = alg.prepare_fragment(input, bits, threads);
            prop_assert!(prepared.as_bytes() == want.as_slice(), "{:?} differs", prepared);
            prop_assert!(mem_joins::wire::view(prepared.as_bytes()).is_ok());
            prop_assert_eq!(prepared.len(), rel.len());
            let bytes = prepared.into_bytes();
            prop_assert_eq!(bytes.capacity(), bytes.len(), "sized exactly");
        }
    }

    /// Sorting is stable with respect to the multiset for any thread count.
    #[test]
    fn parallel_sort_conserves(rel in relation_strategy(), threads in 1usize..6) {
        let run = SortedRun::sort(&rel, threads);
        prop_assert!(run.as_relation().is_sorted_by_key());
        prop_assert_eq!(
            relation_checksum(run.as_relation()),
            relation_checksum(&rel)
        );
    }

    /// Probe results never depend on the thread count.
    #[test]
    fn thread_invariance(
        r in relation_strategy(),
        s in relation_strategy(),
    ) {
        let alg = Algorithm::PartitionedHash(CacheParams::tiny_for_tests());
        let bits = alg.ring_radix_bits(s.len());
        let state = alg.setup_stationary(&s, bits, 1);
        let frag = alg.prepare_fragment(&r, bits, 1);
        let mut results = Vec::new();
        for threads in [1usize, 3, 7] {
            let mut c = JoinCollector::aggregating();
            alg.join(&state, &frag, &JoinPredicate::Equi, threads, &mut c);
            results.push((c.count(), c.checksum()));
        }
        prop_assert!(results.windows(2).all(|w| w[0] == w[1]));
    }

    /// Collector merging is associative on counts and checksums.
    #[test]
    fn collector_merge_associates(
        keys in prop::collection::vec(any::<u32>(), 0..120),
        cut1 in 0usize..120,
        cut2 in 0usize..120,
    ) {
        use relation::{MatchPair, Tuple};
        let matches: Vec<MatchPair> = keys
            .iter()
            .map(|&k| MatchPair::new(Tuple::new(k, 1), Tuple::new(k, 2)))
            .collect();
        let (a, b) = (cut1.min(matches.len()), cut2.min(matches.len()));
        let (lo, hi) = (a.min(b), a.max(b));
        let fill = |range: &[MatchPair]| {
            let mut c = JoinCollector::aggregating();
            for &m in range {
                c.push(m);
            }
            c
        };
        let mut left_assoc = fill(&matches[..lo]);
        left_assoc.merge(fill(&matches[lo..hi]));
        left_assoc.merge(fill(&matches[hi..]));
        let mut right_assoc = fill(&matches[..lo]);
        let mut tail = fill(&matches[lo..hi]);
        tail.merge(fill(&matches[hi..]));
        right_assoc.merge(tail);
        prop_assert_eq!(left_assoc.count(), right_assoc.count());
        prop_assert_eq!(left_assoc.checksum(), right_assoc.checksum());
    }
}

/// The next value of a splitmix64 sequence.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    // Each case walks the whole grid of domains, lengths, sources and
    // thread counts below; the cases vary the keys, the long length and
    // the buffer offset.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A sorted run is the standard library's stable sort of its input,
    /// tuple for tuple, payloads included (every payload is distinct, so
    /// an unstable order among equal keys shows), and a prepared run is
    /// exactly that run's encoding. The key domains leave 0, 1, 2 and 3
    /// radix digits to sort — all keys equal, below 2^11, below 2^22, any
    /// `u32` with `u32::MAX` among them; the lengths sit on a digit's
    /// bucket count; the input lies in owned columns or in wire bytes at
    /// an unaligned offset; and 1–4 threads sort it.
    #[test]
    fn radix_sorted_runs_equal_the_stable_sort(
        seed in any::<u64>(),
        long in 2050usize..6000,
        offset in 1usize..8,
    ) {
        let domains: [fn(u64) -> u32; 4] = [
            |_| 0x2A5_5A5A,
            |x| x as u32 & 0x7FF,
            |x| x as u32 & 0x3F_FFFF,
            |x| x as u32,
        ];
        let mut state = seed;
        for (d, key_of) in domains.into_iter().enumerate() {
            for n in [0, 1, 2, 2047, 2048, 2049, long] {
                let rel = Relation::from_pairs((0..n).map(|i| {
                    let x = splitmix(&mut state);
                    let key = if d == 3 && i == n / 2 { u32::MAX } else { key_of(x) };
                    (key, x << 32 | i as u64)
                }));
                let mut want: Vec<Tuple> = rel.iter().collect();
                want.sort_by_key(|t| t.key);
                let mut want_bytes = vec![mem_joins::wire::TAG_SORTED];
                relation::wire::encode_tuples_into(&want, &mut want_bytes);
                let mut columns = vec![0xEE; offset];
                relation::wire::encode_into(&rel, &mut columns);
                let in_bytes = relation::wire::view(&columns[offset..]).expect("intact bytes");
                for input in [(&rel).into(), in_bytes] {
                    for threads in 1..=4 {
                        let run = SortedRun::sort(input, threads);
                        let got: Vec<Tuple> = run.as_relation().iter().collect();
                        prop_assert!(got == want, "domain {} n {} threads {}", d, n, threads);
                        let prepared = Algorithm::SortMerge.prepare_fragment(input, 0, threads);
                        prop_assert!(
                            prepared.as_bytes() == want_bytes.as_slice(),
                            "domain {} n {} threads {}: {:?}", d, n, threads, prepared
                        );
                        prop_assert!(mem_joins::wire::view(prepared.as_bytes()).is_ok());
                    }
                }
            }
        }
    }
}

proptest! {
    // Each case walks the whole grid below; the cases vary the keys, the
    // long length and the buffer offset.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A visit (`SortMergeState::merge`, the directory kernel) finds the
    /// multiset the plain two-pointer merge finds. The key domains are all
    /// keys equal (one crowded slot), keys below 2^4 (heavy duplicates),
    /// below 2^18, and any `u32` with 0 and `u32::MAX` on both sides; the
    /// half-widths run from the equi case to past the key domain, so that
    /// `key − delta` saturates at 0 and `key + delta` at `u32::MAX`; either
    /// side is 0, 1, 7, 8, 9 or a few thousand tuples long (both long only
    /// where the output stays small); the probe run lies in owned columns
    /// or in wire bytes at an unaligned offset; 1–4 threads visit, an odd
    /// number into an aggregating collector (count and checksum), an even
    /// one into a materializing one (the multiset too).
    #[test]
    fn indexed_merge_equals_plain_merge(
        seed in any::<u64>(),
        long in 2000usize..3000,
        offset in 1usize..8,
    ) {
        use mem_joins::SortMergeState;
        let domains: [fn(u64) -> u32; 4] = [
            |_| 0x2A5_5A5A,
            |x| x as u32 & 0xF,
            |x| x as u32 & 0x3_FFFF,
            |x| x as u32,
        ];
        let mut state = seed;
        let mut run = |d: usize, n: usize| {
            SortedRun::sort(&Relation::from_pairs((0..n).map(|i| {
                let x = splitmix(&mut state);
                let key = match (d, i) {
                    (3, 0) => 0,
                    (3, 1) => u32::MAX,
                    _ => domains[d](x),
                };
                (key, x)
            })), 1)
        };
        for d in 0..domains.len() {
            for delta in [0, 1, 2, 7, 1 << 31, u32::MAX] {
                for r_len in [0, 1, 7, 8, 9, long] {
                    for s_len in [0, 1, 7, 8, 9, long] {
                        if r_len == long && s_len == long && (d < 2 || delta > 7) {
                            continue;
                        }
                        let (r, s) = (run(d, r_len), run(d, s_len));
                        let stationary = SortMergeState::from_sorted(s.clone());
                        let mut expect = JoinCollector::materializing();
                        merge_join(&r, &s, delta, 1, &mut expect);
                        let expect_sum = (expect.count(), expect.checksum());
                        let mut expect = expect.into_matches();
                        expect.sort_unstable();

                        let mut bytes = vec![0xEE; offset];
                        bytes.extend_from_slice(
                            Algorithm::SortMerge.prepare_fragment(&r, 0, 1).as_bytes(),
                        );
                        let FragmentView::Sorted(viewed) =
                            mem_joins::wire::view(&bytes[offset..]).expect("intact bytes")
                        else {
                            panic!("a sorted fragment views as one");
                        };
                        for probe in [(&r).into(), viewed] {
                            for threads in 1..=4 {
                                let at = (d, delta, r_len, s_len, threads);
                                let mut got = if threads % 2 == 0 {
                                    JoinCollector::materializing()
                                } else {
                                    JoinCollector::aggregating()
                                };
                                stationary.merge(probe, delta, threads, &mut got);
                                prop_assert!((got.count(), got.checksum()) == expect_sum, "{:?}", at);
                                if threads % 2 == 0 {
                                    let mut got = got.into_matches();
                                    got.sort_unstable();
                                    prop_assert!(got == expect, "{:?}", at);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A stationary hash state (every partition's table in one set of
    /// arrays, written by one histogram pass and one scatter) finds exactly
    /// the reference equi-join: radix bits 0–9, so that most partitions
    /// are empty at the higher fan-outs (and all of them when a side is
    /// empty); the probe side in its prepared buffer, aligned, and in wire
    /// bytes viewed at an unaligned offset; and 1–3 threads building,
    /// preparing and visiting.
    #[test]
    fn contiguous_state_equals_reference_join(
        r in relation_strategy(),
        s in relation_strategy(),
        bits in 0u32..10,
        threads in 1usize..4,
        offset in 1usize..8,
    ) {
        use mem_joins::hash::join::reference_equi_join;
        use mem_joins::hash::HashJoinState;
        let reference = reference_equi_join(&r, &s);
        let want = (
            reference.len() as u64,
            reference.iter().copied().collect::<Checksum>(),
        );
        let state = HashJoinState::build_parallel(&s, bits, threads);
        prop_assert_eq!(state.len(), s.len());
        let prepared = Algorithm::partitioned_hash().prepare_fragment(&r, bits, threads);
        let FragmentView::HashPartitioned(aligned) = prepared.view() else {
            panic!("a hash fragment views as one");
        };
        let mut bytes = vec![0xEE; offset];
        bytes.extend_from_slice(prepared.as_bytes());
        let FragmentView::HashPartitioned(viewed) =
            mem_joins::wire::view(&bytes[offset..]).expect("intact bytes")
        else {
            panic!("a hash fragment views as one");
        };
        for probe in [aligned, viewed] {
            let mut c = JoinCollector::aggregating();
            state.probe_partitioned(probe, threads, &mut c);
            prop_assert_eq!((c.count(), c.checksum()), want);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A stationary hash state visited by a random sequence of fragments
    /// on one thread finds, at every visit, exactly the multiset that the
    /// single-key [`ChainedTable::probe`] over the whole stationary side
    /// defines, key by key. The probe's selection vectors (each batch's
    /// buckets, cursors and hits) live on through every batch and
    /// partition of a visit, and a visit starts from fresh ones; a pass
    /// that reads a bucket another tuple wrote, or one left over from an
    /// earlier batch, partition or visit, pairs a probe tuple with the
    /// wrong chain. Fragment lengths sit on the batch boundaries (0, 1,
    /// one batch ± 1, two batches and three); keys are uniform, Zipf 0.9
    /// or a single key on either side; radix bits 0–6; each fragment is
    /// probed in its prepared buffer, aligned, or in wire bytes viewed at
    /// an unaligned offset.
    #[test]
    fn selection_state_is_carried_across_batches_partitions_and_visits(
        s_shape in 0usize..3,
        s_tuples in 1usize..800,
        bits in 0u32..7,
        visits in prop::collection::vec(
            (0usize..5, 0usize..3, any::<bool>(), 1usize..8, any::<u64>()),
            1..6,
        ),
        seed in any::<u64>(),
    ) {
        use mem_joins::hash::{ChainedTable, HashJoinState, PROBE_BATCH};
        use relation::{KeyDistribution, MatchPair};
        let domain = s_tuples as u32;
        let keys = |shape: usize, tuples: usize, seed: u64| -> Relation {
            let distribution = match shape {
                0 => KeyDistribution::Uniform { domain },
                1 => KeyDistribution::Zipf { domain, z: 0.9 },
                _ => KeyDistribution::Uniform { domain: 1 },
            };
            GenSpec { tuples, distribution, seed }.generate()
        };
        let s = keys(s_shape, s_tuples, seed);
        let params = CacheParams::default();
        let state = HashJoinState::build_with_bits(&s, bits, &params);
        let definition = ChainedTable::build(&s);
        for (len, r_shape, wire, offset, r_seed) in visits {
            let r_tuples = [0, 1, PROBE_BATCH - 1, PROBE_BATCH + 1, 2 * PROBE_BATCH + 3][len];
            let r = keys(r_shape, r_tuples, r_seed);
            let mut expect: Vec<MatchPair> = r
                .iter()
                .flat_map(|rt| definition.probe(rt.key).map(move |st| MatchPair::new(rt, st)))
                .collect();
            expect.sort_unstable();

            let aligned = RadixPartitioned::new(&r, bits, &params);
            let prepared = Algorithm::PartitionedHash(params).prepare_fragment(&r, bits, 1);
            let mut bytes = vec![0xEE; offset];
            bytes.extend_from_slice(prepared.as_bytes());
            let probe = if wire {
                let FragmentView::HashPartitioned(viewed) =
                    mem_joins::wire::view(&bytes[offset..]).expect("intact bytes")
                else {
                    panic!("a hash fragment views as one");
                };
                viewed
            } else {
                PartitionsView::from(&aligned)
            };
            let mut visit = JoinCollector::materializing();
            state.probe_partitioned(probe, 1, &mut visit);
            let mut got = visit.into_matches();
            got.sort_unstable();
            prop_assert!(
                got == expect,
                "a {}-tuple visit (wire bytes: {}) found {} matches, the definition {}",
                r_tuples,
                wire,
                got.len(),
                expect.len()
            );
        }
    }
}
