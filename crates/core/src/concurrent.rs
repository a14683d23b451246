//! Concurrent queries on a shared rotation — the Data Cyclotron direction.
//!
//! The broader project behind the paper (§I, §VII) is the **Data
//! Cyclotron**: keep the hot set of the database continuously circulating
//! and let *queries* — plural — remain local to nodes and "pick necessary
//! pieces of data as they flow by". This module implements that
//! generalization of cyclo-join: one relation rotates **once**, and any
//! number of independent join queries (each with its own stationary
//! relation, predicate and algorithm) consume the same stream of
//! fragments as it passes their hosts.
//!
//! Sharing the rotation changes the §IV-D trade-off: fragments travel in
//! *raw* form (different queries need different reorganizations), and
//! each visit prepares the fragment at most once per required format —
//! the preparation is amortized across the queries of the visit instead
//! of across the revolution. The payoff is network volume: `k` queries
//! cost one revolution instead of `k`.
//!
//! ```
//! use cyclo_join::concurrent::ConcurrentJoins;
//! use cyclo_join::JoinPredicate;
//! use relation::GenSpec;
//!
//! # fn main() -> Result<(), cyclo_join::PlanError> {
//! let hot = GenSpec::uniform(30_000, 1).generate();
//! let report = ConcurrentJoins::new(hot)
//!     .query(GenSpec::uniform(10_000, 2).generate(), JoinPredicate::Equi)
//!     .query(GenSpec::uniform(10_000, 3).generate(), JoinPredicate::band(1))
//!     .hosts(4)
//!     .run()?;
//! assert_eq!(report.queries.len(), 2);
//! # Ok(())
//! # }
//! ```

use data_roundabout::{RingConfig, RingMetrics};
use mem_joins::{Algorithm, JoinCollector, JoinPredicate, OutputMode};
use relation::{Checksum, Relation, RelationView};

use crate::compute::ComputeMode;
use crate::distribute::{Placement, RotateSide};
use crate::exec::{Backend, Plans};
use crate::plan::{backend_error, PlanError};
use crate::session::Session;

/// One query of a concurrent batch.
#[derive(Debug, Clone)]
struct QuerySpec {
    stationary: Relation,
    predicate: JoinPredicate,
    algorithm: Algorithm,
}

/// A batch of joins sharing one rotating relation.
#[derive(Debug, Clone)]
pub struct ConcurrentJoins {
    rotating: Relation,
    queries: Vec<QuerySpec>,
    config: RingConfig,
    fragments_per_host: usize,
    compute: ComputeMode,
    output: OutputMode,
}

impl ConcurrentJoins {
    /// Starts a batch over the rotating (hot-set) relation.
    pub fn new(rotating: Relation) -> Self {
        ConcurrentJoins {
            rotating,
            queries: Vec::new(),
            config: RingConfig::paper(6),
            fragments_per_host: 4,
            compute: ComputeMode::modeled(),
            output: OutputMode::Aggregate,
        }
    }

    /// Adds a query `rotating ⋈ stationary` with the fastest algorithm
    /// supporting `predicate`.
    pub fn query(self, stationary: Relation, predicate: JoinPredicate) -> Self {
        let algorithm = Algorithm::for_predicate(&predicate);
        self.query_with(stationary, predicate, algorithm)
    }

    /// Adds a query with an explicit algorithm.
    pub fn query_with(
        mut self,
        stationary: Relation,
        predicate: JoinPredicate,
        algorithm: Algorithm,
    ) -> Self {
        self.queries.push(QuerySpec {
            stationary,
            predicate,
            algorithm,
        });
        self
    }

    /// Replaces the ring configuration.
    pub fn ring(mut self, config: RingConfig) -> Self {
        self.config = config;
        self
    }

    /// Shortcut: the paper ring with `n` hosts.
    pub fn hosts(mut self, n: usize) -> Self {
        self.config.hosts = n;
        self
    }

    /// Rotation units per host (default 4).
    pub fn fragments_per_host(mut self, fragments: usize) -> Self {
        self.fragments_per_host = fragments;
        self
    }

    /// Compute pricing mode (default: deterministic model).
    pub fn compute(mut self, compute: ComputeMode) -> Self {
        self.compute = compute;
        self
    }

    /// Output mode for every query's collector.
    pub fn output(mut self, output: OutputMode) -> Self {
        self.output = output;
        self
    }

    /// Runs the whole batch in a single revolution on the simulated backend.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] if the ring configuration is invalid, no
    /// query was added, or a query's algorithm cannot evaluate its
    /// predicate.
    pub fn run(&self) -> Result<ConcurrentReport, PlanError> {
        self.config.validate().map_err(PlanError::InvalidConfig)?;
        if self.fragments_per_host == 0 {
            return Err(PlanError::NoFragments);
        }
        if self.queries.is_empty() {
            return Err(PlanError::BadQuery("batch contains no queries".to_string()));
        }
        for q in &self.queries {
            if !q.algorithm.supports(&q.predicate) {
                return Err(PlanError::UnsupportedPredicate {
                    algorithm: q.algorithm.name(),
                    predicate: q.predicate.to_string(),
                });
            }
        }
        // One rotation feeds every query: the hot set travels raw, as the
        // first query's rotating side (copied once into its transport
        // form); the others bring only their stationary side.
        let mut session = Session::new(self.config, self.compute).shared_rotation();
        let mut hot = Some(RelationView::from(&self.rotating));
        let mut rotation: Vec<_> = (self.queries.iter())
            .map(|q| {
                let placement = Placement::with_standbys(
                    hot.take().unwrap_or_default(),
                    &q.stationary,
                    self.config.hosts,
                    self.fragments_per_host,
                    RotateSide::R,
                    0,
                );
                session.admit(q.algorithm, &q.predicate, placement, self.output, false)
            })
            .collect();
        rotation.truncate(1);
        let outcome = crate::exec::run(
            session,
            rotation,
            None,
            Backend::Simulated,
            Plans::default(),
            false,
            None,
        )
        .map_err(backend_error)?;
        let queries = self
            .queries
            .iter()
            .zip(outcome.results)
            .map(|(q, result)| QueryOutcome {
                algorithm: q.algorithm.name(),
                count: result.count(),
                checksum: result.checksum(),
                collectors: result.into_partials(),
            })
            .collect();
        Ok(ConcurrentReport {
            ring: outcome.metrics,
            queries,
        })
    }
}

/// Result of one query in a concurrent batch.
#[derive(Debug)]
pub struct QueryOutcome {
    /// Name of the algorithm that ran.
    pub algorithm: &'static str,
    /// Total matches across hosts.
    pub count: u64,
    /// Order-independent checksum over all matches.
    pub checksum: Checksum,
    /// Per-host collectors (materialized matches if requested).
    pub collectors: Vec<JoinCollector>,
}

/// The outcome of a shared-rotation batch.
#[derive(Debug)]
pub struct ConcurrentReport {
    /// Ring-level metrics of the single shared revolution.
    pub ring: RingMetrics,
    /// Per-query results, in the order queries were added.
    pub queries: Vec<QueryOutcome>,
}

impl ConcurrentReport {
    /// End-to-end seconds for the whole batch.
    pub fn total_seconds(&self) -> f64 {
        self.ring.wall_clock.as_secs_f64()
    }

    /// Bytes that crossed ring links for the whole batch.
    pub fn bytes_forwarded(&self) -> u64 {
        self.ring.total_bytes_forwarded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::reference_join;
    use relation::GenSpec;

    #[test]
    fn every_query_matches_its_reference() {
        let hot = GenSpec::uniform(3_000, 600).generate();
        let s1 = GenSpec::uniform(1_500, 601).generate();
        let s2 = GenSpec::uniform(1_500, 602).generate();
        let s3 = GenSpec::uniform(800, 603).generate();
        let band = JoinPredicate::band(2);
        let report = ConcurrentJoins::new(hot.clone())
            .query(s1.clone(), JoinPredicate::Equi)
            .query(s2.clone(), band.clone())
            .query_with(s3.clone(), JoinPredicate::Equi, Algorithm::SortMerge)
            .hosts(4)
            .run()
            .expect("batch should run");
        assert_eq!(report.queries.len(), 3);
        for (outcome, (s, pred)) in report.queries.iter().zip([
            (&s1, JoinPredicate::Equi),
            (&s2, band),
            (&s3, JoinPredicate::Equi),
        ]) {
            let reference = reference_join(&hot, s, &pred);
            assert_eq!(outcome.count, reference.count, "{}", outcome.algorithm);
            assert_eq!(
                outcome.checksum, reference.checksum,
                "{}",
                outcome.algorithm
            );
        }
    }

    #[test]
    fn shared_rotation_moves_data_once() {
        let hot = GenSpec::uniform(6_000, 610).generate();
        let s = GenSpec::uniform(2_000, 611).generate();
        let batch_of_three = ConcurrentJoins::new(hot.clone())
            .query(s.clone(), JoinPredicate::Equi)
            .query(s.clone(), JoinPredicate::Equi)
            .query(s.clone(), JoinPredicate::Equi)
            .hosts(4)
            .run()
            .expect("batch should run");
        let single = ConcurrentJoins::new(hot)
            .query(s, JoinPredicate::Equi)
            .hosts(4)
            .run()
            .expect("batch should run");
        assert_eq!(
            batch_of_three.bytes_forwarded(),
            single.bytes_forwarded(),
            "three queries on one rotation must move exactly as many bytes as one"
        );
        assert!(batch_of_three.total_seconds() > single.total_seconds());
    }

    #[test]
    fn batch_beats_sequential_runs_on_network_volume() {
        // k sequential cyclo-joins rotate R k times; the batch rotates once.
        let hot = GenSpec::uniform(4_000, 620).generate();
        let stationaries: Vec<Relation> = (0..3)
            .map(|i| GenSpec::uniform(1_000, 630 + i).generate())
            .collect();
        let batch = {
            let mut b = ConcurrentJoins::new(hot.clone()).hosts(4);
            for s in &stationaries {
                b = b.query(s.clone(), JoinPredicate::Equi);
            }
            b.run().expect("batch should run")
        };
        // Apples to apples: the sequential runs rotate the same hot
        // relation the batch rotates (not the smaller stationary side).
        let sequential_bytes: u64 = stationaries
            .iter()
            .map(|s| {
                crate::plan::CycloJoin::new(hot.clone(), s.clone())
                    .hosts(4)
                    .rotate(crate::distribute::RotateSide::R)
                    .run()
                    .expect("plan should run")
                    .ring
                    .total_bytes_forwarded()
            })
            .sum();
        assert!(
            batch.bytes_forwarded() * 2 < sequential_bytes,
            "shared rotation must cut network volume ≈ k×: batch {} vs sequential {}",
            batch.bytes_forwarded(),
            sequential_bytes
        );
    }

    #[test]
    fn empty_batch_is_an_error() {
        let hot = GenSpec::uniform(100, 640).generate();
        let err = ConcurrentJoins::new(hot).hosts(2).run().unwrap_err();
        assert!(matches!(err, PlanError::BadQuery(_)), "{err:?}");
    }

    #[test]
    fn unsupported_predicate_is_an_error() {
        let hot = GenSpec::uniform(100, 650).generate();
        let s = GenSpec::uniform(100, 651).generate();
        let err = ConcurrentJoins::new(hot)
            .query_with(s, JoinPredicate::band(1), Algorithm::partitioned_hash())
            .hosts(2)
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("partitioned-hash"));
    }

    #[test]
    fn hash_preparation_is_shared_between_same_bits_queries() {
        // Two hash queries with equal-sized stationaries share radix bits,
        // so the fragment is partitioned once per visit. We can't observe
        // the sharing directly, but the batch must still verify.
        let hot = GenSpec::uniform(2_000, 660).generate();
        let s1 = GenSpec::uniform(1_000, 661).generate();
        let s2 = GenSpec::uniform(1_000, 662).generate();
        let report = ConcurrentJoins::new(hot.clone())
            .query(s1.clone(), JoinPredicate::Equi)
            .query(s2.clone(), JoinPredicate::Equi)
            .hosts(3)
            .run()
            .expect("batch should run");
        assert_eq!(
            report.queries[0].count,
            reference_join(&hot, &s1, &JoinPredicate::Equi).count
        );
        assert_eq!(
            report.queries[1].count,
            reference_join(&hot, &s2, &JoinPredicate::Equi).count
        );
    }

    /// A batch of one is a `CycloJoin` that rotates the hot set raw: the
    /// same session on the same ring, so time, volume and result agree —
    /// ring-buffer registration included.
    #[test]
    fn a_batch_of_one_is_a_raw_shipping_cyclo_join() {
        let hot = GenSpec::uniform(4_000, 670).generate();
        let s = GenSpec::uniform(2_000, 671).generate();
        let batch = ConcurrentJoins::new(hot.clone())
            .query(s.clone(), JoinPredicate::Equi)
            .hosts(4)
            .run()
            .expect("batch should run");
        let single = crate::plan::CycloJoin::new(hot, s)
            .hosts(4)
            .rotate(RotateSide::R)
            .ship_prepared(false)
            .run()
            .expect("plan should run");
        assert_eq!(batch.total_seconds(), single.total_seconds());
        assert_eq!(batch.bytes_forwarded(), single.ring.total_bytes_forwarded());
        assert_eq!(batch.queries[0].count, single.match_count());
        assert_eq!(batch.queries[0].checksum, single.checksum());
    }
}
