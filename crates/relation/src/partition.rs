//! Distributing relations across hosts.
//!
//! Cyclo-join assumes both input relations are spread over all hosts before
//! the join starts (§IV-A): it does not care *how* R is distributed, but S
//! should be reasonably even. Contiguous, even-sized chunks are
//! [`Relation::split_even`]; [`hash_partition`] partitions by a hash of
//! the join key instead, giving each host a disjoint key subset (what an
//! upstream system like HadoopDB would deliver, and the natural placement
//! for the stationary relation).

use crate::relation::Relation;
use crate::tuple::Key;

/// Splits `rel` into `parts` relations by hashing the join key, so equal
/// keys land in the same part.
///
/// # Panics
///
/// Panics if `parts` is zero.
pub fn hash_partition(rel: &Relation, parts: usize) -> Vec<Relation> {
    assert!(parts > 0, "cannot partition into zero parts");
    let mut out = vec![Relation::with_capacity(rel.len() / parts + 1); parts];
    for t in rel.iter() {
        out[partition_of(t.key, parts)].push(t);
    }
    out
}

/// The part index `hash_partition` assigns to `key` for `parts` parts.
pub fn partition_of(key: Key, parts: usize) -> usize {
    (mix(key) % parts as u64) as usize
}

/// A cheap 32→64-bit finalizer (xorshift-multiply, as used in splitmix64's
/// output stage) to decorrelate key values from their partition.
fn mix(key: Key) -> u64 {
    let mut x = key as u64;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::GenSpec;

    #[test]
    fn hash_partition_preserves_all_tuples() {
        let rel = GenSpec::uniform(10_000, 1).generate();
        let parts = hash_partition(&rel, 6);
        let total: usize = parts.iter().map(Relation::len).sum();
        assert_eq!(total, rel.len());
    }

    #[test]
    fn hash_partition_is_disjoint_on_keys() {
        let rel = GenSpec::uniform(10_000, 2).generate();
        let parts = hash_partition(&rel, 4);
        for (i, p) in parts.iter().enumerate() {
            for &k in p.keys() {
                assert_eq!(partition_of(k, 4), i, "key {k} in wrong part");
            }
        }
    }

    #[test]
    fn hash_partition_is_reasonably_even_on_uniform_keys() {
        let rel = GenSpec::uniform(60_000, 3).generate();
        let parts = hash_partition(&rel, 6);
        let expected = rel.len() as f64 / 6.0;
        for p in &parts {
            let dev = (p.len() as f64 - expected).abs() / expected;
            assert!(dev < 0.1, "partition deviates {dev:.2} from even");
        }
    }

    #[test]
    fn equal_keys_colocate() {
        let rel = Relation::from_pairs([(7, 1), (7, 2), (7, 3), (9, 4)]);
        let parts = hash_partition(&rel, 3);
        let with_sevens: Vec<usize> = parts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.keys().contains(&7))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(with_sevens.len(), 1, "all key-7 tuples in one part");
        assert_eq!(
            parts[with_sevens[0]]
                .keys()
                .iter()
                .filter(|&&k| k == 7)
                .count(),
            3
        );
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn zero_parts_rejected() {
        let rel = Relation::new();
        let _ = hash_partition(&rel, 0);
    }

    #[test]
    fn partition_of_is_stable() {
        for key in 0..1000u32 {
            assert_eq!(partition_of(key, 5), partition_of(key, 5));
            assert!(partition_of(key, 5) < 5);
        }
    }
}
