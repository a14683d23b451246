//! The Data Cyclotron: a continuously spinning hot set with ad-hoc query
//! arrivals.
//!
//! Cyclo-join is one revolution; the surrounding project (§I, §VII, and
//! Goncalves & Kersten's Data Cyclotron \[13\]) keeps the hot set
//! "(continuously) circulating in the ring" while "queries remain local
//! to one or more nodes and pick necessary pieces of data as they flow
//! by". This module implements that operational mode on the continuous
//! variant of the simulated ring:
//!
//! * the hot relation's fragments never retire — after each full
//!   revolution they just keep going;
//! * queries *arrive over (virtual) time*, each at a home host, build
//!   their stationary state on arrival, and join every fragment that
//!   flows past their host until they have seen the whole hot set —
//!   one full revolution from wherever they boarded;
//! * the rotation stops once every query has completed.
//!
//! The headline metric is **query latency**: arrival → completion. An
//! unloaded ring answers in ≈ one revolution; contention from concurrent
//! queries stretches the revolution itself, which the benchmark harness
//! sweeps.

use data_roundabout::{HostId, PayloadBytes, RingApp, RingConfig, RingMetrics, SimRing};
use mem_joins::{Algorithm, JoinCollector, JoinPredicate, OutputMode, StationaryState};
use relation::{Checksum, Relation};
use simnet::time::{SimDuration, SimTime};

use crate::compute::ComputeMode;
use crate::plan::PlanError;

/// A fragment of the hot set, tagged so queries can track coverage.
#[derive(Debug, Clone)]
pub struct TaggedFragment {
    /// Stable identity within the rotation (`0 .. fragment count`).
    pub id: usize,
    /// The tuples.
    pub data: Relation,
}

impl PayloadBytes for TaggedFragment {
    fn payload_bytes(&self) -> u64 {
        self.data.byte_volume()
    }
}

/// A query submitted to the cyclotron.
#[derive(Debug, Clone)]
pub struct QueryArrival {
    /// Virtual time (after rotation start) the query arrives.
    pub at: SimDuration,
    /// The host the query lives on ("queries remain local to one node").
    pub home: HostId,
    /// The query's local (stationary) relation.
    pub stationary: Relation,
    /// Join predicate against the hot set.
    pub predicate: JoinPredicate,
    /// Local join algorithm.
    pub algorithm: Algorithm,
}

impl QueryArrival {
    /// An equi-join query with the default hash algorithm.
    pub fn equi(at: SimDuration, home: HostId, stationary: Relation) -> Self {
        QueryArrival {
            at,
            home,
            stationary,
            predicate: JoinPredicate::Equi,
            algorithm: Algorithm::partitioned_hash(),
        }
    }
}

/// A continuously rotating hot set accepting query arrivals.
#[derive(Debug, Clone)]
pub struct DataCyclotron {
    hot: Relation,
    config: RingConfig,
    fragments_per_host: usize,
    compute: ComputeMode,
    arrivals: Vec<QueryArrival>,
}

impl DataCyclotron {
    /// Starts a cyclotron over the hot relation.
    pub fn new(hot: Relation) -> Self {
        DataCyclotron {
            hot,
            config: RingConfig::paper(6),
            fragments_per_host: 4,
            compute: ComputeMode::modeled(),
            arrivals: Vec::new(),
        }
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

    /// Submits a query arrival.
    pub fn submit(mut self, arrival: QueryArrival) -> Self {
        self.arrivals.push(arrival);
        self
    }

    /// Spins the rotation until every submitted query has completed.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] if the configuration is invalid, a query's
    /// algorithm cannot evaluate its predicate, a home host is out of
    /// range, or the hot set is empty while queries are pending.
    pub fn run(&self) -> Result<CyclotronReport, PlanError> {
        self.config.validate().map_err(PlanError::InvalidConfig)?;
        if self.fragments_per_host == 0 {
            return Err(PlanError::NoFragments);
        }
        for q in &self.arrivals {
            if !q.algorithm.supports(&q.predicate) {
                return Err(PlanError::UnsupportedPredicate {
                    algorithm: q.algorithm.name(),
                    predicate: q.predicate.to_string(),
                });
            }
            if q.home.0 >= self.config.hosts {
                return Err(PlanError::BadQuery(format!(
                    "home host {} out of range for a {}-host ring",
                    q.home, self.config.hosts
                )));
            }
        }
        if self.hot.is_empty() && !self.arrivals.is_empty() {
            return Err(PlanError::BadQuery(
                "cannot serve queries from an empty hot set".to_string(),
            ));
        }

        let hosts = self.config.hosts;
        let mut next_id = 0usize;
        let fragments: Vec<Vec<TaggedFragment>> = self
            .hot
            .split_even(hosts)
            .into_iter()
            .map(|share| {
                share
                    .split_even(self.fragments_per_host)
                    .into_iter()
                    .map(|data| {
                        let f = TaggedFragment { id: next_id, data };
                        next_id += 1;
                        f
                    })
                    .collect()
            })
            .collect();
        let fragment_count = next_id;

        let queries = self
            .arrivals
            .iter()
            .map(|a| ActiveQuery {
                arrival: a.clone(),
                state: None,
                activated_at: None,
                completed_at: None,
                seen: vec![false; fragment_count],
                seen_count: 0,
                collector: JoinCollector::new(OutputMode::Aggregate),
            })
            .collect();
        let app = CyclotronApp {
            queries,
            threads: self.config.join_threads,
            compute: self.compute,
            fragment_count,
        };
        let outcome = SimRing::new(self.config, fragments, app).continuous().run();
        let queries = outcome
            .app
            .queries
            .into_iter()
            .map(|q| {
                let completed = q
                    .completed_at
                    .expect("continuous run only stops when all queries completed");
                QueryReport {
                    arrived: SimTime::ZERO + q.arrival.at,
                    completed,
                    latency: completed.saturating_duration_since(SimTime::ZERO + q.arrival.at),
                    count: q.collector.count(),
                    checksum: q.collector.checksum(),
                }
            })
            .collect();
        Ok(CyclotronReport {
            ring: outcome.metrics,
            queries,
            fragment_count,
        })
    }
}

struct ActiveQuery {
    arrival: QueryArrival,
    state: Option<StationaryState>,
    activated_at: Option<SimTime>,
    completed_at: Option<SimTime>,
    seen: Vec<bool>,
    seen_count: usize,
    collector: JoinCollector,
}

struct CyclotronApp {
    queries: Vec<ActiveQuery>,
    threads: usize,
    compute: ComputeMode,
    fragment_count: usize,
}

impl RingApp<TaggedFragment> for CyclotronApp {
    fn setup(&mut self, _host: HostId) -> SimDuration {
        // The hot set rotates raw; queries pay their own setup on arrival.
        SimDuration::ZERO
    }

    fn process(
        &mut self,
        host: HostId,
        _query: u32,
        _roles: &[usize],
        now: SimTime,
        fragment: &TaggedFragment,
    ) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for q in &mut self.queries {
            if q.arrival.home != host || q.completed_at.is_some() {
                continue;
            }
            if SimTime::ZERO + q.arrival.at > now {
                continue; // not arrived yet
            }
            // Activation: build the stationary state on first contact.
            if q.state.is_none() {
                let bits = q
                    .arrival
                    .algorithm
                    .ring_radix_bits(q.arrival.stationary.len());
                let (state, d) = self.compute.setup_stationary(
                    &q.arrival.algorithm,
                    &q.arrival.stationary,
                    bits,
                    self.threads,
                );
                q.state = Some(state);
                q.activated_at = Some(now);
                total += d;
            }
            if q.seen[fragment.id] {
                continue; // coverage complete for this fragment already
            }
            let bits = q
                .arrival
                .algorithm
                .ring_radix_bits(q.arrival.stationary.len());
            let (prepared, d_prep) = self.compute.prepare_fragment(
                &q.arrival.algorithm,
                &fragment.data,
                bits,
                self.threads,
            );
            total += d_prep;
            total += self.compute.join(
                &q.arrival.algorithm,
                q.state.as_ref().expect("state built above"),
                &prepared,
                &q.arrival.predicate,
                self.threads,
                &mut q.collector,
            );
            q.seen[fragment.id] = true;
            q.seen_count += 1;
            if q.seen_count == self.fragment_count {
                q.completed_at = Some(now + total);
            }
        }
        total
    }

    /// Every query completed, and its last visit has ended by `now`: a
    /// completion is booked when that visit starts, at the instant it
    /// will end.
    fn finished(&self, now: SimTime) -> bool {
        self.queries
            .iter()
            .all(|q| q.completed_at.is_some_and(|at| at <= now))
    }
}

/// Outcome of one query in the cyclotron.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryReport {
    /// Virtual arrival time.
    pub arrived: SimTime,
    /// Virtual completion time (full hot-set coverage reached).
    pub completed: SimTime,
    /// Completion − arrival.
    pub latency: SimDuration,
    /// Matches produced.
    pub count: u64,
    /// Checksum over the matches.
    pub checksum: Checksum,
}

/// Outcome of a cyclotron run.
#[derive(Debug)]
pub struct CyclotronReport {
    /// Ring metrics over the whole rotation.
    pub ring: RingMetrics,
    /// Per-query reports, in submission order.
    pub queries: Vec<QueryReport>,
    /// Number of fragments the hot set was cut into.
    pub fragment_count: usize,
}

impl CyclotronReport {
    /// Mean query latency in seconds.
    pub fn mean_latency(&self) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        self.queries
            .iter()
            .map(|q| q.latency.as_secs_f64())
            .sum::<f64>()
            / self.queries.len() as f64
    }

    /// The slowest query's latency in seconds.
    pub fn max_latency(&self) -> f64 {
        self.queries
            .iter()
            .map(|q| q.latency.as_secs_f64())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::reference_join;
    use relation::GenSpec;

    fn hot() -> Relation {
        GenSpec::uniform(3_000, 1000).generate()
    }

    #[test]
    fn single_query_sees_the_whole_hot_set() {
        let hot = hot();
        let s = GenSpec::uniform(1_000, 1001).generate();
        let reference = reference_join(&hot, &s, &JoinPredicate::Equi);
        let report = DataCyclotron::new(hot)
            .hosts(4)
            .submit(QueryArrival::equi(SimDuration::ZERO, HostId(2), s))
            .run()
            .expect("cyclotron should run");
        assert_eq!(report.queries.len(), 1);
        assert_eq!(report.queries[0].count, reference.count);
        assert_eq!(report.queries[0].checksum, reference.checksum);
        assert!(report.queries[0].latency > SimDuration::ZERO);
    }

    #[test]
    fn staggered_arrivals_all_verify() {
        let hot = hot();
        let mut cyclotron = DataCyclotron::new(hot.clone()).hosts(3);
        let mut references = Vec::new();
        for i in 0..4u64 {
            let s = GenSpec::uniform(600, 1010 + i).generate();
            references.push(reference_join(&hot, &s, &JoinPredicate::Equi));
            cyclotron = cyclotron.submit(QueryArrival::equi(
                SimDuration::from_millis(i * 5),
                HostId((i as usize) % 3),
                s,
            ));
        }
        let report = cyclotron.run().expect("cyclotron should run");
        for (q, reference) in report.queries.iter().zip(&references) {
            assert_eq!(q.count, reference.count);
            assert_eq!(q.checksum, reference.checksum);
            assert!(q.completed > q.arrived);
        }
    }

    #[test]
    fn late_arrivals_keep_the_ring_spinning() {
        let hot = hot();
        let s = GenSpec::uniform(500, 1020).generate();
        // The query arrives long after an unloaded rotation would finish.
        let late = SimDuration::from_millis(200);
        let report = DataCyclotron::new(hot)
            .hosts(3)
            .submit(QueryArrival::equi(late, HostId(0), s))
            .run()
            .expect("cyclotron should run");
        assert!(report.queries[0].arrived >= SimTime::ZERO + late);
        assert!(report.queries[0].count > 0);
    }

    #[test]
    fn unloaded_latency_is_about_one_revolution() {
        let hot = GenSpec::uniform(6_000, 1030).generate();
        let s = GenSpec::uniform(500, 1031).generate();
        let report = DataCyclotron::new(hot.clone())
            .hosts(6)
            .submit(QueryArrival::equi(SimDuration::ZERO, HostId(0), s.clone()))
            .run()
            .expect("cyclotron should run");
        // Compare against a dedicated cyclo-join of the same shape.
        let dedicated = crate::plan::CycloJoin::new(hot, s)
            .hosts(6)
            .rotate(crate::distribute::RotateSide::R)
            .ship_prepared(false)
            .run()
            .expect("plan should run");
        let ratio = report.queries[0].latency.as_secs_f64()
            / (dedicated.setup_seconds() + dedicated.join_window_seconds()).max(1e-9);
        assert!(
            (0.3..4.0).contains(&ratio),
            "unloaded cyclotron latency should be within a small factor of a \
             dedicated revolution, got {ratio:.2}"
        );
    }

    /// The rotation stops only once every query's last visit has ended:
    /// the ring's wall clock reaches the last completion. (It used to
    /// stop when the last visit *started*, because a query's completion
    /// is booked as its last visit begins and the stop flag was read at
    /// any host's next finished join.)
    #[test]
    fn the_rotation_outlasts_the_last_completion() {
        let hot = GenSpec::uniform(6_000, 1060).generate();
        let mut cyclotron = DataCyclotron::new(hot).hosts(4).fragments_per_host(3);
        for i in 0..6u64 {
            let s = GenSpec::uniform(500, 1061 + i).generate();
            cyclotron = cyclotron.submit(QueryArrival::equi(
                SimDuration::from_micros(300 * i),
                HostId(i as usize % 4),
                s,
            ));
        }
        let report = cyclotron.run().expect("cyclotron should run");
        let last = report.queries.iter().map(|q| q.completed).max().unwrap();
        assert!(
            SimTime::ZERO + report.ring.wall_clock >= last,
            "the rotation stopped at {:?}, before the last completion at {last:?}",
            report.ring.wall_clock
        );
    }

    #[test]
    fn empty_hot_set_with_queries_is_an_error() {
        let s = GenSpec::uniform(10, 1040).generate();
        let err = DataCyclotron::new(Relation::new())
            .hosts(2)
            .submit(QueryArrival::equi(SimDuration::ZERO, HostId(0), s))
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("empty hot set"));
    }

    #[test]
    fn no_queries_stops_immediately() {
        let report = DataCyclotron::new(hot())
            .hosts(3)
            .run()
            .expect("should run");
        assert!(report.queries.is_empty());
        assert_eq!(report.mean_latency(), 0.0);
    }

    #[test]
    fn out_of_range_home_is_an_error() {
        let s = GenSpec::uniform(10, 1050).generate();
        assert!(DataCyclotron::new(hot())
            .hosts(2)
            .submit(QueryArrival::equi(SimDuration::ZERO, HostId(7), s))
            .run()
            .is_err());
    }
}
