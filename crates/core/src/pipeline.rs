//! N-way join pipelines: cyclo-join as a building block in larger plans.
//!
//! §IV-A: "the join output could naturally be used as input to subsequent
//! processing in a larger query plan" — each revolution leaves its result
//! distributed across the ring, ready to rotate again against the next
//! relation. [`JoinPipeline`] chains any number of joins this way; the
//! two-revolution ternary join of [`crate::ternary`] is its two-stage
//! instance.
//!
//! ```
//! use cyclo_join::pipeline::JoinPipeline;
//! use cyclo_join::JoinPredicate;
//! use relation::{GenSpec, Tuple};
//!
//! # fn main() -> Result<(), cyclo_join::PlanError> {
//! let base = GenSpec::uniform(5_000, 1).generate();
//! let report = JoinPipeline::new(base)
//!     .join(GenSpec::uniform(5_000, 2).generate(), JoinPredicate::Equi,
//!           |m| Tuple::new(m.key, m.s_payload))
//!     .join(GenSpec::uniform(5_000, 3).generate(), JoinPredicate::Equi,
//!           |m| Tuple::new(m.key, m.r_payload))
//!     .hosts(3)
//!     .run()?;
//! assert_eq!(report.stages.len(), 2);
//! # Ok(())
//! # }
//! ```

use mem_joins::{JoinPredicate, OutputMode};
use relation::{MatchPair, Relation, Tuple};

use crate::distribute::RotateSide;
use crate::plan::{CycloJoin, PlanError};
use crate::report::CycloJoinReport;

/// Projects one stage's matches into the next stage's rotating tuples.
type Rekey = Box<dyn Fn(&MatchPair) -> Tuple + Send + Sync>;

/// One stage of a multi-revolution plan: join the running result against
/// `relation`, then project each match through `rekey` to feed the next.
pub(crate) struct Stage<F> {
    pub(crate) relation: Relation,
    pub(crate) predicate: JoinPredicate,
    /// Which side of the stage rotates: a pipeline keeps its running
    /// result rotating (`R`), the ternary join lets the sizes decide.
    pub(crate) rotate: RotateSide,
    pub(crate) rekey: F,
}

/// Runs `stages` over `base`, one revolution per stage on a ring of
/// `hosts`. Intermediate stages materialize to feed the next revolution;
/// the final stage aggregates (and never calls its `rekey`).
pub(crate) fn run_stages<F: Fn(&MatchPair) -> Tuple>(
    base: Relation,
    hosts: usize,
    stages: Vec<Stage<F>>,
) -> Result<PipelineReport, PlanError> {
    let total = stages.len();
    let mut rotating = base;
    let mut reports = Vec::with_capacity(total);
    for (i, stage) in stages.into_iter().enumerate() {
        let is_last = i + 1 == total;
        let report = CycloJoin::new(rotating, stage.relation)
            .predicate(stage.predicate)
            .hosts(hosts)
            .output(if is_last {
                OutputMode::Aggregate
            } else {
                OutputMode::Materialize
            })
            .rotate(stage.rotate)
            .run()?;
        rotating = if is_last {
            Relation::new()
        } else {
            report.result.project(&stage.rekey)
        };
        reports.push(report);
    }
    Ok(PipelineReport { stages: reports })
}

/// A chain of cyclo-joins, each revolution feeding the next.
pub struct JoinPipeline {
    base: Relation,
    stages: Vec<Stage<Rekey>>,
    hosts: usize,
}

impl JoinPipeline {
    /// Starts a pipeline with the relation that rotates first.
    pub fn new(base: Relation) -> Self {
        JoinPipeline {
            base,
            stages: Vec::new(),
            hosts: 6,
        }
    }

    /// Appends a stage: join the running result against `relation` under
    /// `predicate`, then project each match through `rekey` to form the
    /// tuples that feed the next stage.
    pub fn join(
        mut self,
        relation: Relation,
        predicate: JoinPredicate,
        rekey: impl Fn(&MatchPair) -> Tuple + Send + Sync + 'static,
    ) -> Self {
        self.stages.push(Stage {
            relation,
            predicate,
            rotate: RotateSide::R,
            rekey: Box::new(rekey),
        });
        self
    }

    /// Ring size for every revolution.
    pub fn hosts(mut self, hosts: usize) -> Self {
        self.hosts = hosts;
        self
    }

    /// Runs the pipeline, one revolution per stage.
    ///
    /// # Errors
    ///
    /// Returns the first [`PlanError`] any stage produces, or an error if
    /// the pipeline has no stages.
    pub fn run(self) -> Result<PipelineReport, PlanError> {
        if self.stages.is_empty() {
            return Err(PlanError::BadQuery(
                "pipeline contains no stages".to_string(),
            ));
        }
        run_stages(self.base, self.hosts, self.stages)
    }
}

impl std::fmt::Debug for JoinPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinPipeline")
            .field("base_tuples", &self.base.len())
            .field("stages", &self.stages.len())
            .field("hosts", &self.hosts)
            .finish()
    }
}

/// Per-stage reports of a pipeline run.
#[derive(Debug)]
pub struct PipelineReport {
    /// One cyclo-join report per stage, in execution order.
    pub stages: Vec<CycloJoinReport>,
}

impl PipelineReport {
    /// Matches produced by the final stage.
    pub fn match_count(&self) -> u64 {
        self.stages.last().map_or(0, CycloJoinReport::match_count)
    }

    /// Total wall-clock seconds across all revolutions.
    pub fn total_seconds(&self) -> f64 {
        self.stages.iter().map(CycloJoinReport::total_seconds).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::reference_join;
    use mem_joins::{nested_loops_join, JoinCollector};
    use relation::GenSpec;

    /// Local reference for a two-stage pipeline with a given rekey.
    fn reference_two_stage(
        base: &Relation,
        s1: &Relation,
        s2: &Relation,
        rekey: impl Fn(&MatchPair) -> Tuple,
    ) -> (u64, relation::Checksum) {
        let mut first = JoinCollector::materializing();
        nested_loops_join(base, s1, &JoinPredicate::Equi, 1, &mut first);
        let mid: Relation = first.matches().iter().map(rekey).collect();
        let reference = reference_join(&mid, s2, &JoinPredicate::Equi);
        (reference.count, reference.checksum)
    }

    #[test]
    fn two_stage_pipeline_matches_reference() {
        let base = GenSpec::uniform(700, 800).generate();
        let s1 = GenSpec::uniform(700, 801).generate();
        let s2 = GenSpec::uniform(700, 802).generate();
        let rekey = |m: &MatchPair| Tuple::new(m.s_key, m.r_payload);
        let (count, checksum) = reference_two_stage(&base, &s1, &s2, rekey);
        let report = JoinPipeline::new(base)
            .join(s1, JoinPredicate::Equi, rekey)
            .join(s2, JoinPredicate::Equi, |m| Tuple::new(m.key, m.s_payload))
            .hosts(3)
            .run()
            .expect("pipeline should run");
        assert_eq!(report.match_count(), count);
        assert_eq!(report.stages[1].checksum(), checksum);
        assert_eq!(report.stages.len(), 2);
        assert!(report.total_seconds() > 0.0);
    }

    #[test]
    fn four_way_pipeline_runs() {
        let base = GenSpec::uniform(400, 810).generate();
        let mut pipeline = JoinPipeline::new(base).hosts(2);
        for i in 0..3 {
            let s = GenSpec::uniform(400, 820 + i).generate();
            pipeline = pipeline.join(s, JoinPredicate::Equi, |m| Tuple::new(m.key, m.r_payload));
        }
        let report = pipeline.run().expect("pipeline should run");
        assert_eq!(report.stages.len(), 3);
    }

    #[test]
    fn empty_pipeline_is_an_error() {
        let base = GenSpec::uniform(10, 830).generate();
        let err = JoinPipeline::new(base).run().unwrap_err();
        assert!(matches!(err, PlanError::BadQuery(_)), "{err:?}");
    }

    #[test]
    fn mixed_predicates_across_stages() {
        let base = GenSpec::uniform(500, 840).generate();
        let s1 = GenSpec::uniform(500, 841).generate();
        let s2 = GenSpec::uniform(500, 842).generate();
        let report = JoinPipeline::new(base)
            .join(s1, JoinPredicate::band(1), |m| {
                Tuple::new(m.s_key, m.r_payload)
            })
            .join(s2, JoinPredicate::Equi, |m| Tuple::new(m.key, m.s_payload))
            .hosts(2)
            .run()
            .expect("pipeline should run");
        assert_eq!(report.stages[0].algorithm, "sort-merge");
        assert_eq!(report.stages[1].algorithm, "partitioned-hash");
    }
}
