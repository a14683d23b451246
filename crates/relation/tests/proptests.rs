//! Property-based tests of the storage and generation substrate.

use proptest::prelude::*;
use relation::{
    hash_partition, partition_of, relation_checksum, Checksum, GenSpec, MatchPair, Relation, Tuple,
    Zipf,
};

fn relation_strategy() -> impl Strategy<Value = Relation> {
    prop::collection::vec((any::<u32>(), any::<u64>()), 0..400).prop_map(Relation::from_pairs)
}

proptest! {
    /// split_even conserves the relation: concatenation reproduces it
    /// exactly (order included), sizes differ by at most one.
    #[test]
    fn split_even_conserves(rel in relation_strategy(), parts in 1usize..12) {
        let pieces = rel.split_even(parts);
        prop_assert_eq!(pieces.len(), parts);
        let mut merged = Relation::new();
        for p in &pieces {
            merged.extend_from(p);
        }
        prop_assert_eq!(&merged, &rel);
        let max = pieces.iter().map(Relation::len).max().unwrap_or(0);
        let min = pieces.iter().map(Relation::len).min().unwrap_or(0);
        prop_assert!(max - min <= 1);
    }

    /// Hash partitioning conserves the multiset and keeps equal keys
    /// together.
    #[test]
    fn hash_partition_conserves(rel in relation_strategy(), parts in 1usize..8) {
        let pieces = hash_partition(&rel, parts);
        let total: usize = pieces.iter().map(Relation::len).sum();
        prop_assert_eq!(total, rel.len());
        let mut merged = Relation::new();
        for p in &pieces {
            merged.extend_from(p);
        }
        prop_assert_eq!(relation_checksum(&merged), relation_checksum(&rel));
        for (i, p) in pieces.iter().enumerate() {
            for &k in p.keys() {
                prop_assert_eq!(partition_of(k, parts), i);
            }
        }
    }

    /// Sorting preserves the multiset and orders keys.
    #[test]
    fn sort_preserves_multiset(rel in relation_strategy()) {
        let mut sorted = rel.clone();
        sorted.sort_by_key();
        prop_assert!(sorted.is_sorted_by_key());
        prop_assert_eq!(relation_checksum(&sorted), relation_checksum(&rel));
        prop_assert_eq!(sorted.len(), rel.len());
    }

    /// The wire checksum keeps tuple order and every bit: swapping two
    /// different tuples, in the same checksum lane (positions four apart,
    /// or a multiple of that) or across lanes, or flipping any bit of a
    /// tuple's key or payload, is a `ChecksumMismatch`.
    #[test]
    fn wire_checksum_catches_swaps_and_flips(
        pairs in prop::collection::vec((any::<u32>(), any::<u64>()), 2..300),
        first in any::<u64>(),
        second in any::<u64>(),
        same_lane in any::<bool>(),
        bit in 0usize..96,
    ) {
        use relation::wire::{self, DecodeError, HEADER_BYTES};
        let rel = Relation::from_pairs(pairs);
        let n = rel.len();
        let bytes = wire::encode(&rel);
        let i = (first % n as u64) as usize;
        let partners: Vec<usize> =
            (0..n).filter(|&j| j != i && (j % 4 == i % 4) == same_lane).collect();
        prop_assume!(!partners.is_empty());
        let j = partners[(second % partners.len() as u64) as usize];
        let (a, b) = (rel.get(i).unwrap(), rel.get(j).unwrap());
        prop_assume!(a != b);
        let mut swapped: Vec<(u32, u64)> = rel.iter().map(|t| (t.key, t.payload)).collect();
        swapped.swap(i, j);
        let mut corrupt = wire::encode(&Relation::from_pairs(swapped));
        // The swapped columns under the original header.
        corrupt[..HEADER_BYTES].copy_from_slice(&bytes[..HEADER_BYTES]);
        prop_assert_eq!(wire::view(&corrupt).unwrap_err(), DecodeError::ChecksumMismatch);

        let mut flipped = bytes.clone();
        let at = if bit < 32 {
            HEADER_BYTES + 4 * i + bit / 8
        } else {
            HEADER_BYTES + 4 * n + 8 * i + (bit - 32) / 8
        };
        flipped[at] ^= 1 << (bit % 8);
        prop_assert_eq!(wire::view(&flipped).unwrap_err(), DecodeError::ChecksumMismatch);
        prop_assert_eq!(wire::view(&bytes).map(|v| v.len()), Ok(n));
    }

    /// The checksum is order-independent and partition-independent.
    #[test]
    fn checksum_is_commutative(
        pairs in prop::collection::vec((any::<u32>(), any::<u64>(), any::<u64>()), 0..100),
        split in 0usize..100,
    ) {
        let matches: Vec<MatchPair> = pairs
            .iter()
            .map(|&(k, rp, sp)| MatchPair::new(Tuple::new(k, rp), Tuple::new(k, sp)))
            .collect();
        let whole: Checksum = matches.iter().copied().collect();
        let cut = split.min(matches.len());
        let left: Checksum = matches[..cut].iter().copied().collect();
        let right: Checksum = matches[cut..].iter().copied().collect();
        prop_assert_eq!(left.combine(&right), whole);
        let mut reversed = matches.clone();
        reversed.reverse();
        let rev: Checksum = reversed.into_iter().collect();
        prop_assert_eq!(rev, whole);
    }

    /// Generators are deterministic and produce the requested cardinality.
    #[test]
    fn generators_are_deterministic(tuples in 0usize..2_000, seed in any::<u64>(), z in 0.0f64..1.2) {
        let a = GenSpec::zipf(tuples, z, seed).generate();
        let b = GenSpec::zipf(tuples, z, seed).generate();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), tuples);
        prop_assert_eq!(a.byte_volume(), tuples as u64 * 12);
    }

    /// Zipf samples always land in the domain.
    #[test]
    fn zipf_stays_in_domain(n in 1u64..100_000, z in 0.0f64..2.0, seed in any::<u64>()) {
        use rand::SeedableRng;
        let zipf = Zipf::new(n, z);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let k = zipf.sample(&mut rng);
            prop_assert!((1..=n).contains(&k));
        }
    }

    /// Wire decoding is total: arbitrary byte mutations of a valid encoded
    /// envelope (corruption, truncation, extension) either decode or
    /// return a `DecodeError` — they never panic. Runs under Miri in
    /// `scripts/analyze.sh` to also rule out UB in the byte handling.
    #[test]
    fn decode_survives_arbitrary_mutations(
        rel in relation_strategy(),
        flips in prop::collection::vec((any::<u32>(), any::<u8>()), 1..16),
        cut in any::<u32>(),
        extend in 0usize..64,
    ) {
        let mut bytes = relation::encode(&rel);
        for &(pos, xor) in &flips {
            if bytes.is_empty() {
                break;
            }
            let idx = pos as usize % bytes.len();
            bytes[idx] ^= xor;
        }
        match cut as usize % 3 {
            0 => {
                let keep = cut as usize % (bytes.len() + 1);
                bytes.truncate(keep);
            }
            1 => bytes.extend(std::iter::repeat_n(0x5A, extend)),
            _ => {}
        }
        // Any outcome is fine; panicking (or UB under Miri) is not.
        if let Ok(decoded) = relation::decode(&bytes) {
            // If it decoded, the checksum held: re-encoding must agree.
            prop_assert_eq!(relation::encode(&decoded), bytes);
        }
    }

    /// Slicing then merging reproduces any contiguous segmentation.
    #[test]
    fn slice_round_trip(rel in relation_strategy(), at in 0usize..400) {
        let cut = at.min(rel.len());
        let left = rel.slice(0, cut);
        let right = rel.slice(cut, rel.len());
        let mut merged = left.clone();
        merged.extend_from(&right);
        prop_assert_eq!(merged, rel);
    }
}
