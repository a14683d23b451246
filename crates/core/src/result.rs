//! The distributed join result.
//!
//! After one full revolution, host `H_i` holds the partial result
//! `R ⋈ S_i`; the union over hosts is the complete `R ⋈ S`, "available as
//! a distributed table spread across all hosts, ready for further
//! processing" (§IV-B). [`DistributedResult`] is that table: per-host
//! collectors plus global count/checksum views.

use mem_joins::JoinCollector;
use relation::{Checksum, MatchPair, Relation, Tuple};

/// The distributed output of one cyclo-join run.
#[derive(Debug, Clone, Default)]
pub struct DistributedResult {
    partials: Vec<JoinCollector>,
}

impl DistributedResult {
    /// Wraps the per-host partial results.
    pub fn new(partials: Vec<JoinCollector>) -> Self {
        DistributedResult { partials }
    }

    /// Unwraps the per-host partial results.
    pub(crate) fn into_partials(self) -> Vec<JoinCollector> {
        self.partials
    }

    /// Number of hosts holding a partial result.
    pub fn hosts(&self) -> usize {
        self.partials.len()
    }

    /// The partial result held at host `h`.
    pub fn partial(&self, h: usize) -> &JoinCollector {
        &self.partials[h]
    }

    /// Total number of matches across all hosts.
    pub fn count(&self) -> u64 {
        self.partials.iter().map(JoinCollector::count).sum()
    }

    /// Order-independent checksum over the full distributed result.
    pub fn checksum(&self) -> Checksum {
        self.partials
            .iter()
            .map(JoinCollector::checksum)
            .fold(Checksum::new(), |acc, c| acc.combine(&c))
    }

    /// Iterator over all materialized matches (empty if the run aggregated).
    pub fn matches(&self) -> impl Iterator<Item = &MatchPair> {
        self.partials.iter().flat_map(|c| c.matches().iter())
    }

    /// Projects the materialized matches into a new relation using `f` —
    /// the hand-off that feeds a subsequent join in a larger plan, e.g. the
    /// ternary `(R ⋈ S) ⋈ T` (§IV-A).
    pub fn project(&self, f: impl Fn(&MatchPair) -> Tuple) -> Relation {
        self.matches().map(f).collect()
    }

    /// Per-host match counts — how evenly the result is spread.
    pub fn counts_per_host(&self) -> Vec<u64> {
        self.partials.iter().map(JoinCollector::count).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::Tuple;

    fn collector_with(keys: &[u32]) -> JoinCollector {
        let mut c = JoinCollector::materializing();
        for &k in keys {
            c.push(MatchPair::new(Tuple::new(k, 1), Tuple::new(k, 2)));
        }
        c
    }

    #[test]
    fn global_views_aggregate_partials() {
        let result = DistributedResult::new(vec![
            collector_with(&[1, 2]),
            collector_with(&[3]),
            collector_with(&[]),
        ]);
        assert_eq!(result.hosts(), 3);
        assert_eq!(result.count(), 3);
        assert_eq!(result.counts_per_host(), vec![2, 1, 0]);
        assert_eq!(result.matches().count(), 3);
    }

    #[test]
    fn checksum_equals_single_collector_checksum() {
        let whole = collector_with(&[1, 2, 3, 4]);
        let split = DistributedResult::new(vec![collector_with(&[1, 2]), collector_with(&[3, 4])]);
        assert_eq!(split.checksum(), whole.checksum());
    }

    #[test]
    fn project_builds_a_relation() {
        let result = DistributedResult::new(vec![collector_with(&[5, 6])]);
        let rel = result.project(|m| Tuple::new(m.key, m.s_payload));
        assert_eq!(rel.len(), 2);
        assert!(rel.keys().contains(&5));
    }

    #[test]
    fn empty_result() {
        let result = DistributedResult::default();
        assert_eq!(result.count(), 0);
        assert!(result.checksum().is_empty());
    }
}
