//! Typed columns — the storage unit of a relation.
//!
//! Storage is columnar in the MonetDB BAT spirit: a relation is a pair of
//! dense, equally long columns (join key and payload) rather than an array
//! of row structs. This keeps the join key sequential in memory, which is
//! what makes radix partitioning and merging cache-friendly.

use serde::{Deserialize, Serialize};

/// A dense, typed column of `Copy` values.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Column<T> {
    values: Vec<T>,
}

impl<T: Copy> Column<T> {
    /// An empty column.
    pub fn new() -> Self {
        Column { values: Vec::new() }
    }

    /// An empty column with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Column {
            values: Vec::with_capacity(capacity),
        }
    }

    /// Wraps an existing vector.
    pub fn from_vec(values: Vec<T>) -> Self {
        Column { values }
    }

    /// Reserves room for at least `additional` more values.
    pub fn reserve(&mut self, additional: usize) {
        self.values.reserve(additional);
    }

    /// Appends a value.
    pub fn push(&mut self, value: T) {
        self.values.push(value);
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value at `index`, if in bounds.
    pub fn get(&self, index: usize) -> Option<T> {
        self.values.get(index).copied()
    }

    /// Dense slice view of the column.
    pub fn as_slice(&self) -> &[T] {
        &self.values
    }

    /// Iterator over the values.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.values.iter().copied()
    }

    /// Consumes the column, returning the underlying vector.
    pub fn into_vec(self) -> Vec<T> {
        self.values
    }

    /// Copies the sub-range `start..end` into a new column.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, start: usize, end: usize) -> Column<T> {
        Column {
            values: self.values[start..end].to_vec(),
        }
    }

    /// Appends all values of `other`.
    pub fn extend_from(&mut self, other: &Column<T>) {
        self.values.extend_from_slice(&other.values);
    }
}

impl<T: Copy> FromIterator<T> for Column<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Column {
            values: iter.into_iter().collect(),
        }
    }
}

impl<T: Copy> Extend<T> for Column<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        self.values.extend(iter);
    }
}

impl<T: Copy> From<Vec<T>> for Column<T> {
    fn from(values: Vec<T>) -> Self {
        Column::from_vec(values)
    }
}

impl<T: Copy> AsRef<[T]> for Column<T> {
    fn as_ref(&self) -> &[T] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut c = Column::new();
        c.push(10u32);
        c.push(20);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(0), Some(10));
        assert_eq!(c.get(1), Some(20));
        assert_eq!(c.get(2), None);
    }

    #[test]
    fn from_iterator_and_slice() {
        let c: Column<u32> = (0..5).collect();
        assert_eq!(c.as_slice(), &[0, 1, 2, 3, 4]);
        assert_eq!(c.slice(1, 3).as_slice(), &[1, 2]);
    }

    #[test]
    fn extend_concatenates() {
        let mut a: Column<u32> = (0..3).collect();
        let b: Column<u32> = (3..5).collect();
        a.extend_from(&b);
        assert_eq!(a.as_slice(), &[0, 1, 2, 3, 4]);
        a.extend(5..7);
        assert_eq!(a.len(), 7);
    }

    #[test]
    fn empty_behaviour() {
        let c: Column<u64> = Column::new();
        assert!(c.is_empty());
        assert_eq!(c.iter().count(), 0);
    }

    #[test]
    fn into_vec_round_trips() {
        let v = vec![1u64, 2, 3];
        let c = Column::from_vec(v.clone());
        assert_eq!(c.into_vec(), v);
    }
}
