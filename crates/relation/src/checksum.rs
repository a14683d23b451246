//! Order-independent checksums for join-result verification.
//!
//! A cyclo-join result is distributed: every host holds the matches it
//! produced, and no global order is defined. To check that a distributed
//! run produced *exactly* the same multiset of matches as a single-host
//! reference join, we fold every match into a commutative checksum — the
//! sum (wrapping) of a strong per-match hash, plus a count. Equal multisets
//! give equal checksums regardless of partitioning or order, and any lost,
//! duplicated or corrupted match changes the sum with overwhelming
//! probability.

use serde::{Deserialize, Serialize};

use crate::tuple::MatchPair;
use crate::wire::RelationView;

/// A commutative multiset checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Checksum {
    /// Number of items folded in.
    pub count: u64,
    /// Wrapping sum of per-item hashes.
    pub sum: u64,
}

impl Checksum {
    /// The checksum of the empty multiset.
    pub fn new() -> Self {
        Checksum::default()
    }

    /// Folds one pre-hashed item into the checksum. The count saturates:
    /// `u64::MAX` items is unreachable in practice, but a debug-mode
    /// overflow panic in verification code would mask the very result it
    /// is checking.
    pub fn fold_hash(&mut self, hash: u64) {
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.wrapping_add(hash);
    }

    /// Folds a join match into the checksum.
    pub fn fold_match(&mut self, m: &MatchPair) {
        self.fold_hash(hash_match(m));
    }

    /// Combines two checksums (multiset union). Saturating for the same
    /// reason as [`Checksum::fold_hash`].
    pub fn combine(&self, other: &Checksum) -> Checksum {
        Checksum {
            count: self.count.saturating_add(other.count),
            sum: self.sum.wrapping_add(other.sum),
        }
    }

    /// True if nothing was folded in.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

impl FromIterator<MatchPair> for Checksum {
    fn from_iter<I: IntoIterator<Item = MatchPair>>(iter: I) -> Self {
        let mut c = Checksum::new();
        for m in iter {
            c.fold_match(&m);
        }
        c
    }
}

/// Hashes one match with a splitmix64-style finalizer over all four fields.
pub fn hash_match(m: &MatchPair) -> u64 {
    let mut x = (m.key as u64) << 32 | m.s_key as u64;
    x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31);
    x ^= m.r_payload.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = x.rotate_left(29);
    x ^= m.s_payload.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x
}

/// Checksum over a relation's tuples (for verifying data distribution
/// rather than join results), owned or viewed in place.
pub fn relation_checksum<'a>(rel: impl Into<RelationView<'a>>) -> Checksum {
    let mut c = Checksum::new();
    for t in rel.into().iter() {
        let m = MatchPair {
            key: t.key,
            s_key: 0,
            r_payload: t.payload,
            s_payload: 0,
        };
        c.fold_match(&m);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;

    fn m(key: u32, rp: u64, sp: u64) -> MatchPair {
        MatchPair::new(Tuple::new(key, rp), Tuple::new(key, sp))
    }

    #[test]
    fn order_does_not_matter() {
        let a: Checksum = [m(1, 10, 20), m(2, 30, 40), m(3, 50, 60)]
            .into_iter()
            .collect();
        let b: Checksum = [m(3, 50, 60), m(1, 10, 20), m(2, 30, 40)]
            .into_iter()
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn partitioning_does_not_matter() {
        let all: Checksum = (0..100).map(|i| m(i, i as u64, 2 * i as u64)).collect();
        let first: Checksum = (0..40).map(|i| m(i, i as u64, 2 * i as u64)).collect();
        let second: Checksum = (40..100).map(|i| m(i, i as u64, 2 * i as u64)).collect();
        assert_eq!(first.combine(&second), all);
    }

    #[test]
    fn different_multisets_differ() {
        let a: Checksum = [m(1, 10, 20)].into_iter().collect();
        let b: Checksum = [m(1, 10, 21)].into_iter().collect();
        assert_ne!(a, b);
        // A duplicated match also changes the checksum.
        let doubled: Checksum = [m(1, 10, 20), m(1, 10, 20)].into_iter().collect();
        assert_ne!(a, doubled);
        assert_eq!(doubled.count, 2);
    }

    #[test]
    fn duplicate_matches_both_count() {
        let c: Checksum = [m(5, 1, 1), m(5, 1, 1)].into_iter().collect();
        assert_eq!(c.count, 2);
        assert_eq!(c.sum, hash_match(&m(5, 1, 1)).wrapping_mul(2));
    }

    #[test]
    fn count_saturates_instead_of_overflowing() {
        let mut near = Checksum {
            count: u64::MAX,
            sum: 0,
        };
        near.fold_hash(7);
        assert_eq!(near.count, u64::MAX);
        let combined = near.combine(&Checksum { count: 5, sum: 1 });
        assert_eq!(combined.count, u64::MAX);
    }

    #[test]
    fn empty_checksum() {
        let c = Checksum::new();
        assert!(c.is_empty());
        assert_eq!(c.combine(&c), c);
    }

    #[test]
    fn hash_is_sensitive_to_every_field() {
        let base = m(1, 2, 3);
        let variants = [
            MatchPair { key: 9, ..base },
            MatchPair { s_key: 9, ..base },
            MatchPair {
                r_payload: 9,
                ..base
            },
            MatchPair {
                s_payload: 9,
                ..base
            },
        ];
        for v in variants {
            assert_ne!(
                hash_match(&base),
                hash_match(&v),
                "field change unnoticed: {v:?}"
            );
        }
    }

    #[test]
    fn relation_checksum_detects_changes() {
        use crate::relation::Relation;
        let a = Relation::from_pairs([(1, 10), (2, 20)]);
        let b = Relation::from_pairs([(2, 20), (1, 10)]);
        let c = Relation::from_pairs([(1, 10), (2, 21)]);
        assert_eq!(relation_checksum(&a), relation_checksum(&b));
        assert_ne!(relation_checksum(&a), relation_checksum(&c));
    }
}
