//! Single-host reference joins for verifying distributed results.
//!
//! Every cyclo-join run can be checked against a trusted local evaluation:
//! equal match counts and equal order-independent checksums mean the
//! distributed execution produced exactly the same multiset of matches.

use mem_joins::{merge_join, nested_loops_join, JoinCollector, JoinPredicate, SortedRun};
use relation::{Checksum, Relation, Tuple};

/// The reference verdict: how many matches, and their multiset checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// Number of matches the join produces.
    pub count: u64,
    /// Order-independent checksum over the matches.
    pub checksum: Checksum,
}

/// Evaluates `r ⋈ s` locally with a trusted algorithm: a sorted merge for
/// equi- and band predicates (fast), blocked nested loops for theta.
///
/// The merge's inputs are sorted by the standard library's comparison
/// sort, not by [`SortedRun::sort`]: a band run sorts with that radix
/// kernel, and a reference that shared it would repeat any bug in it, so
/// a wrong sort could not make the run and its reference differ.
pub fn reference_join(r: &Relation, s: &Relation, predicate: &JoinPredicate) -> Reference {
    let mut collector = JoinCollector::aggregating();
    match predicate.band_delta() {
        Some(delta) => merge_join(&std_sorted(r), &std_sorted(s), delta, 1, &mut collector),
        None => nested_loops_join(r, s, predicate, 1, &mut collector),
    }
    Reference {
        count: collector.count(),
        checksum: collector.checksum(),
    }
}

/// `rel` in key order, sorted by `sort_unstable_by_key` on its tuples.
fn std_sorted(rel: &Relation) -> SortedRun {
    let mut tuples: Vec<Tuple> = rel.iter().collect();
    tuples.sort_unstable_by_key(|t| t.key);
    SortedRun::from_sorted(tuples.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::GenSpec;

    #[test]
    fn equi_reference_agrees_with_brute_force() {
        let r = GenSpec::uniform(500, 1).generate();
        let s = GenSpec::uniform(500, 2).generate();
        let fast = reference_join(&r, &s, &JoinPredicate::Equi);
        let mut brute = JoinCollector::aggregating();
        nested_loops_join(&r, &s, &JoinPredicate::Equi, 1, &mut brute);
        assert_eq!(fast.count, brute.count());
        assert_eq!(fast.checksum, brute.checksum());
    }

    #[test]
    fn band_reference_agrees_with_brute_force() {
        let r = GenSpec::uniform(400, 3).generate();
        let s = GenSpec::uniform(400, 4).generate();
        let pred = JoinPredicate::band(2);
        let fast = reference_join(&r, &s, &pred);
        let mut brute = JoinCollector::aggregating();
        nested_loops_join(&r, &s, &pred, 1, &mut brute);
        assert_eq!(fast.count, brute.count());
        assert_eq!(fast.checksum, brute.checksum());
    }

    #[test]
    fn theta_reference_uses_nested_loops() {
        let r = GenSpec::uniform(100, 5).generate();
        let s = GenSpec::uniform(100, 6).generate();
        let pred = JoinPredicate::theta(|a, b| a % 3 == 0 && b % 5 == 0);
        let reference = reference_join(&r, &s, &pred);
        assert!(reference.count > 0);
    }

    #[test]
    fn empty_inputs_give_empty_reference() {
        let e = Relation::new();
        let r = reference_join(&e, &e, &JoinPredicate::Equi);
        assert_eq!(r.count, 0);
        assert!(r.checksum.is_empty());
    }
}
