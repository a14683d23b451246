//! Multi-way joins via repeated revolutions (§IV-A).
//!
//! "The ternary join `(R ⋈ S) ⋈ T` could, for example, be evaluated by
//! using two runs of cyclo-join": the first run materializes its result as
//! a distributed table, a projection of that table becomes the rotating
//! input of the second run, and no data ever leaves the ring's distributed
//! memory in between.

use mem_joins::JoinPredicate;
use relation::{MatchPair, Relation, Tuple};

use crate::distribute::RotateSide;
use crate::pipeline::{run_stages, Stage};
use crate::plan::PlanError;
use crate::report::CycloJoinReport;

/// The outcome of a two-revolution ternary join.
#[derive(Debug)]
pub struct TernaryReport {
    /// Report of the first revolution (`R ⋈ S`).
    pub first: CycloJoinReport,
    /// Report of the second revolution (`(R ⋈ S) ⋈ T`).
    pub second: CycloJoinReport,
}

impl TernaryReport {
    /// Total matches of the ternary join.
    pub fn match_count(&self) -> u64 {
        self.second.match_count()
    }

    /// Combined wall-clock seconds over both revolutions.
    pub fn total_seconds(&self) -> f64 {
        self.first.total_seconds() + self.second.total_seconds()
    }
}

/// Plans a ternary join `(r ⋈ s) ⋈ t`.
///
/// The intermediate result is re-keyed by `rekey` — it decides which
/// attribute of each `(R, S)` match becomes the join key against `T`
/// (e.g. `|m| Tuple::new(m.s_key, m.r_payload)` to join `T` on `S`'s key).
#[derive(Debug)]
pub struct TernaryJoin {
    r: Relation,
    s: Relation,
    t: Relation,
    first_predicate: JoinPredicate,
    second_predicate: JoinPredicate,
    hosts: usize,
}

impl TernaryJoin {
    /// Starts planning `(r ⋈ s) ⋈ t` with equi predicates on both hops.
    pub fn new(r: Relation, s: Relation, t: Relation) -> Self {
        TernaryJoin {
            r,
            s,
            t,
            first_predicate: JoinPredicate::Equi,
            second_predicate: JoinPredicate::Equi,
            hosts: 6,
        }
    }

    /// Predicate of the first hop `r ⋈ s`.
    pub fn first_predicate(mut self, p: JoinPredicate) -> Self {
        self.first_predicate = p;
        self
    }

    /// Predicate of the second hop `(r ⋈ s) ⋈ t`.
    pub fn second_predicate(mut self, p: JoinPredicate) -> Self {
        self.second_predicate = p;
        self
    }

    /// Ring size used for both revolutions.
    pub fn hosts(mut self, hosts: usize) -> Self {
        self.hosts = hosts;
        self
    }

    /// Runs both revolutions on the simulated backend.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from either revolution.
    pub fn run(self, rekey: impl Fn(&MatchPair) -> Tuple) -> Result<TernaryReport, PlanError> {
        // The two-stage pipeline; the last stage never re-keys.
        let stage = |relation, predicate| Stage {
            relation,
            predicate,
            rotate: RotateSide::Auto,
            rekey: &rekey,
        };
        let stages = vec![
            stage(self.s, self.first_predicate),
            stage(self.t, self.second_predicate),
        ];
        let mut stages = run_stages(self.r, self.hosts, stages)?.stages.into_iter();
        let (Some(first), Some(second)) = (stages.next(), stages.next()) else {
            unreachable!("a two-stage pipeline reports two stages");
        };
        Ok(TernaryReport { first, second })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::reference_join;
    use relation::GenSpec;

    #[test]
    fn ternary_equals_sequential_reference() {
        let r = GenSpec::uniform(800, 40).generate();
        let s = GenSpec::uniform(800, 41).generate();
        let t = GenSpec::uniform(800, 42).generate();

        // Reference: materialize R ⋈ S locally, re-key on S's key, join T.
        let mut first_ref = mem_joins::JoinCollector::materializing();
        mem_joins::nested_loops_join(&r, &s, &JoinPredicate::Equi, 1, &mut first_ref);
        let intermediate: Relation = first_ref
            .matches()
            .iter()
            .map(|m| Tuple::new(m.s_key, m.r_payload))
            .collect();
        let expected = reference_join(&intermediate, &t, &JoinPredicate::Equi);

        let report = TernaryJoin::new(r, s, t)
            .hosts(3)
            .run(|m| Tuple::new(m.s_key, m.r_payload))
            .expect("ternary plan should run");
        assert_eq!(report.match_count(), expected.count);
        assert_eq!(report.second.checksum(), expected.checksum);
        assert!(report.total_seconds() > 0.0);
    }

    #[test]
    fn distinct_predicates_per_hop() {
        let r = GenSpec::uniform(300, 43).generate();
        let s = GenSpec::uniform(300, 44).generate();
        let t = GenSpec::uniform(300, 45).generate();
        let report = TernaryJoin::new(r, s, t)
            .first_predicate(JoinPredicate::Equi)
            .second_predicate(JoinPredicate::band(2))
            .hosts(2)
            .run(|m| Tuple::new(m.key, m.s_payload))
            .expect("ternary plan should run");
        assert_eq!(report.second.algorithm, "sort-merge");
    }
}
