//! Relations: named pairs of key/payload columns.

use serde::{Deserialize, Serialize};

use crate::column::Column;
use crate::tuple::{Key, Payload, Tuple, TUPLE_BYTES};

/// An in-memory relation: a key column and a payload column of equal length.
///
/// ```
/// use relation::Relation;
///
/// let r = Relation::from_pairs([(1, 10), (2, 20), (1, 30)]);
/// assert_eq!(r.len(), 3);
/// assert_eq!(r.byte_volume(), 36); // 12 bytes per tuple
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Relation {
    keys: Column<Key>,
    payloads: Column<Payload>,
}

impl Relation {
    /// An empty relation.
    pub fn new() -> Self {
        Relation::default()
    }

    /// An empty relation with capacity for `capacity` tuples.
    pub fn with_capacity(capacity: usize) -> Self {
        Relation {
            keys: Column::with_capacity(capacity),
            payloads: Column::with_capacity(capacity),
        }
    }

    /// Builds a relation from `(key, payload)` pairs.
    pub fn from_pairs<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (Key, Payload)>,
    {
        let mut rel = Relation::new();
        for (k, p) in pairs {
            rel.push(Tuple::new(k, p));
        }
        rel
    }

    /// Builds a relation from its two columns.
    ///
    /// # Panics
    ///
    /// Panics if the columns differ in length.
    pub fn from_columns(keys: Column<Key>, payloads: Column<Payload>) -> Self {
        assert_eq!(
            keys.len(),
            payloads.len(),
            "key and payload columns must have equal length"
        );
        Relation { keys, payloads }
    }

    /// Consumes the relation, returning its two columns without copying —
    /// the inverse of [`Relation::from_columns`]. This is what lets a
    /// consumer (a hash-table build, a scatter pass) take over the backing
    /// storage instead of `to_vec()`-copying both columns.
    pub fn into_columns(self) -> (Column<Key>, Column<Payload>) {
        (self.keys, self.payloads)
    }

    /// Reserves room for at least `additional` more tuples in both
    /// columns.
    pub fn reserve(&mut self, additional: usize) {
        self.keys.reserve(additional);
        self.payloads.reserve(additional);
    }

    /// Appends a tuple.
    pub fn push(&mut self, tuple: Tuple) {
        self.keys.push(tuple.key);
        self.payloads.push(tuple.payload);
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Logical data volume in bytes (12 bytes per tuple, as in the paper).
    pub fn byte_volume(&self) -> u64 {
        self.len() as u64 * TUPLE_BYTES
    }

    /// The tuple at `index`, if in bounds.
    pub fn get(&self, index: usize) -> Option<Tuple> {
        Some(Tuple {
            key: self.keys.get(index)?,
            payload: self.payloads.get(index)?,
        })
    }

    /// The key column.
    pub fn keys(&self) -> &[Key] {
        self.keys.as_slice()
    }

    /// The payload column.
    pub fn payloads(&self) -> &[Payload] {
        self.payloads.as_slice()
    }

    /// Iterator over the tuples.
    pub fn iter(&self) -> impl Iterator<Item = Tuple> + '_ {
        self.keys
            .iter()
            .zip(self.payloads.iter())
            .map(|(key, payload)| Tuple { key, payload })
    }

    /// Copies the tuple range `start..end` into a new relation.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, start: usize, end: usize) -> Relation {
        Relation {
            keys: self.keys.slice(start, end),
            payloads: self.payloads.slice(start, end),
        }
    }

    /// Appends all tuples of `other`.
    pub fn extend_from(&mut self, other: &Relation) {
        self.keys.extend_from(&other.keys);
        self.payloads.extend_from(&other.payloads);
    }

    /// Splits the relation into `parts` contiguous pieces of near-equal
    /// size (sizes differ by at most one tuple). Some pieces may be empty
    /// when `parts > len`.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is zero.
    pub fn split_even(&self, parts: usize) -> Vec<Relation> {
        assert!(parts > 0, "cannot split into zero parts");
        let n = self.len();
        let base = n / parts;
        let extra = n % parts;
        let mut out = Vec::with_capacity(parts);
        let mut start = 0;
        for i in 0..parts {
            let size = base + usize::from(i < extra);
            out.push(self.slice(start, start + size));
            start += size;
        }
        out
    }

    /// Sorts the relation by key, equal keys by payload: the tuples are
    /// copied out, sorted, and written back as two new columns.
    pub fn sort_by_key(&mut self) {
        let mut pairs: Vec<Tuple> = self.iter().collect();
        pairs.sort_unstable();
        *self = Relation::from_pairs(pairs.into_iter().map(|t| (t.key, t.payload)));
    }

    /// True if keys are in non-decreasing order.
    pub fn is_sorted_by_key(&self) -> bool {
        self.keys().windows(2).all(|w| w[0] <= w[1])
    }
}

impl FromIterator<Tuple> for Relation {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        let mut rel = Relation::new();
        rel.extend(iter);
        rel
    }
}

/// Reserves the iterator's lower size bound up front, so collecting a
/// sized iterator (a sorted run's tuples) writes each column once instead
/// of growing it by doubling.
impl Extend<Tuple> for Relation {
    fn extend<I: IntoIterator<Item = Tuple>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        self.reserve(iter.size_hint().0);
        for t in iter {
            self.push(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Relation {
        Relation::from_pairs((0..10).map(|i| (i as Key, (i * 100) as Payload)))
    }

    #[test]
    fn push_get_iter_round_trip() {
        let rel = sample();
        assert_eq!(rel.len(), 10);
        assert_eq!(rel.get(3), Some(Tuple::new(3, 300)));
        assert_eq!(rel.get(10), None);
        let collected: Vec<Tuple> = rel.iter().collect();
        assert_eq!(collected.len(), 10);
        assert_eq!(collected[7], Tuple::new(7, 700));
    }

    #[test]
    fn byte_volume_uses_12_byte_tuples() {
        assert_eq!(sample().byte_volume(), 120);
        assert_eq!(Relation::new().byte_volume(), 0);
    }

    #[test]
    fn split_even_covers_everything_in_order() {
        let rel = sample();
        let parts = rel.split_even(3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].len(), 4); // 10 = 4 + 3 + 3
        assert_eq!(parts[1].len(), 3);
        assert_eq!(parts[2].len(), 3);
        let mut merged = Relation::new();
        for p in &parts {
            merged.extend_from(p);
        }
        assert_eq!(merged, rel);
    }

    #[test]
    fn split_with_more_parts_than_tuples() {
        let rel = Relation::from_pairs([(1, 1), (2, 2)]);
        let parts = rel.split_even(5);
        assert_eq!(parts.len(), 5);
        let total: usize = parts.iter().map(Relation::len).sum();
        assert_eq!(total, 2);
        assert!(parts[4].is_empty());
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn split_zero_parts_panics() {
        sample().split_even(0);
    }

    #[test]
    fn sort_by_key_orders_and_preserves_payloads() {
        let mut rel = Relation::from_pairs([(3, 30), (1, 10), (2, 20), (1, 11)]);
        rel.sort_by_key();
        assert!(rel.is_sorted_by_key());
        assert_eq!(rel.len(), 4);
        assert_eq!(rel.keys(), &[1, 1, 2, 3]);
        // Both payloads for key 1 survive.
        let p: Vec<u64> = rel
            .iter()
            .filter(|t| t.key == 1)
            .map(|t| t.payload)
            .collect();
        assert_eq!(p.len(), 2);
        assert!(p.contains(&10) && p.contains(&11));
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_columns_rejected() {
        let keys = Column::from_vec(vec![1u32, 2]);
        let payloads = Column::from_vec(vec![1u64]);
        let _ = Relation::from_columns(keys, payloads);
    }

    #[test]
    fn from_iterator_of_tuples() {
        let rel: Relation = (0..5).map(|i| Tuple::new(i, i as u64)).collect();
        assert_eq!(rel.len(), 5);
    }

    #[test]
    fn collecting_a_sized_iterator_sizes_both_columns_once() {
        let rel: Relation = (0..1000).map(|i| Tuple::new(i, i as u64)).collect();
        let (keys, payloads) = rel.into_columns();
        assert_eq!(keys.into_vec().capacity(), 1000);
        assert_eq!(payloads.into_vec().capacity(), 1000);
    }

    #[test]
    fn into_columns_round_trips() {
        let rel = sample();
        let (keys, payloads) = rel.clone().into_columns();
        assert_eq!(Relation::from_columns(keys, payloads), rel);
    }

    #[test]
    fn slice_is_a_copy() {
        let rel = sample();
        let s = rel.slice(2, 5);
        assert_eq!(s.keys(), &[2, 3, 4]);
        assert_eq!(rel.len(), 10, "slicing must not consume the source");
    }
}
