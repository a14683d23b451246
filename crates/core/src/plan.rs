//! The cyclo-join planner/builder — the crate's main entry point.
//!
//! ```
//! use cyclo_join::CycloJoin;
//! use relation::GenSpec;
//!
//! # fn main() -> Result<(), cyclo_join::PlanError> {
//! let r = GenSpec::uniform(20_000, 1).generate();
//! let s = GenSpec::uniform(20_000, 2).generate();
//! let report = CycloJoin::new(r, s).hosts(4).run()?;
//! assert!(report.match_count() > 0);
//! # Ok(())
//! # }
//! ```

use data_roundabout::{validate_plans, FaultPlan, RescalePlan, RingConfig, RingError};
use mem_joins::{Algorithm, JoinPredicate, OutputMode};
use relation::Relation;

use crate::compute::ComputeMode;
use crate::distribute::{Placement, RotateSide};
use crate::exec::{Backend, Plans};
use crate::report::CycloJoinReport;
use crate::session::Session;

/// A configured cyclo-join, built with the builder pattern and executed on
/// either backend.
#[derive(Debug, Clone)]
pub struct CycloJoin {
    r: Relation,
    s: Relation,
    predicate: JoinPredicate,
    algorithm: Option<Algorithm>,
    config: RingConfig,
    fragments_per_host: usize,
    rotate: RotateSide,
    compute: ComputeMode,
    output: OutputMode,
    ship_prepared: bool,
    host_speeds: Option<Vec<f64>>,
    fault_plan: Option<FaultPlan>,
    rescale_plan: Option<RescalePlan>,
    trace: bool,
}

impl CycloJoin {
    /// Starts planning the join `r ⋈ s` with the paper's default
    /// configuration: equi-join, auto-selected algorithm, six RDMA hosts,
    /// deterministic modeled compute.
    pub fn new(r: Relation, s: Relation) -> Self {
        CycloJoin {
            r,
            s,
            predicate: JoinPredicate::Equi,
            algorithm: None,
            config: RingConfig::paper(6),
            fragments_per_host: 4,
            rotate: RotateSide::Auto,
            compute: ComputeMode::modeled(),
            output: OutputMode::Aggregate,
            ship_prepared: true,
            host_speeds: None,
            fault_plan: None,
            rescale_plan: None,
            trace: false,
        }
    }

    /// Sets the join predicate (default: equi).
    pub fn predicate(mut self, predicate: JoinPredicate) -> Self {
        self.predicate = predicate;
        self
    }

    /// Forces a local join algorithm (default: the fastest one supporting
    /// the predicate).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = Some(algorithm);
        self
    }

    /// Replaces the whole ring configuration.
    pub fn ring(mut self, config: RingConfig) -> Self {
        self.config = config;
        self
    }

    /// Shortcut: the paper ring with `n` hosts, keeping other settings.
    pub fn hosts(mut self, n: usize) -> Self {
        self.config.hosts = n;
        self
    }

    /// Number of rotation units each host's share of the rotating relation
    /// is cut into (default 4).
    pub fn fragments_per_host(mut self, fragments: usize) -> Self {
        self.fragments_per_host = fragments;
        self
    }

    /// Which side rotates (default: the smaller one).
    pub fn rotate(mut self, rotate: RotateSide) -> Self {
        self.rotate = rotate;
        self
    }

    /// How compute durations are priced (default: deterministic model).
    pub fn compute(mut self, compute: ComputeMode) -> Self {
        self.compute = compute;
        self
    }

    /// Output mode: aggregate (default) or materialize every match.
    pub fn output(mut self, output: OutputMode) -> Self {
        self.output = output;
        self
    }

    /// Controls fragment shipping (§IV-D). By default (`true`) fragments
    /// are reorganized once at their origin host and the reorganized form
    /// rotates, amortizing the setup investment over the whole revolution.
    /// `false` rotates raw fragments instead, forcing every host to
    /// re-partition/re-sort each fragment at encounter time — the
    /// counterfactual the setup-amortization ablation measures.
    pub fn ship_prepared(mut self, ship_prepared: bool) -> Self {
        self.ship_prepared = ship_prepared;
        self
    }

    /// Makes hosts heterogeneous: host `h` joins at `speeds[h]` × nominal
    /// speed (§V-D studies how the ring absorbs such differences).
    pub fn host_speeds(mut self, speeds: Vec<f64>) -> Self {
        self.host_speeds = Some(speeds);
        self
    }

    /// Attaches a deterministic fault schedule (crashes, lossy links,
    /// pauses, stragglers). Attaching a plan — even a quiet one — switches
    /// the transport into its acknowledged, retransmitting mode; scheduled
    /// crashes are healed mid-revolution by the ring survivors without
    /// losing or duplicating a single fragment visit.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Attaches a planned membership schedule (elastic rescale): hosts
    /// named in a scheduled join start as provisioned standbys outside
    /// the ring — they own no stationary partition and ship no fragments
    /// until activated — and scheduled drains hand a departing host's
    /// partitions to their rendezvous-hashed new owners before the host
    /// leaves. Like a fault plan, attaching one switches the transport
    /// into its acknowledged, retransmitting mode. Supported on all four
    /// backends.
    pub fn rescale_plan(mut self, plan: RescalePlan) -> Self {
        self.rescale_plan = Some(plan);
        self
    }

    /// Enables tracing: on every backend, the structured span/event
    /// tracer in [`CycloJoinReport::spans`], exported by
    /// [`CycloJoinReport::chrome_trace`].
    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// The algorithm that will actually run.
    pub fn resolved_algorithm(&self) -> Algorithm {
        self.algorithm
            .unwrap_or_else(|| Algorithm::for_predicate(&self.predicate))
    }

    fn validate(&self) -> Result<Algorithm, PlanError> {
        check_plans(
            &self.config,
            Plans::of(&self.fault_plan, &self.rescale_plan),
        )?;
        if self.fragments_per_host == 0 {
            return Err(PlanError::NoFragments);
        }
        if let Some(speeds) = &self.host_speeds {
            if speeds.len() != self.config.hosts {
                return Err(PlanError::BadQuery(format!(
                    "host_speeds has {} entries for a {}-host ring",
                    speeds.len(),
                    self.config.hosts
                )));
            }
            if !speeds.iter().all(|s| s.is_finite() && *s > 0.0) {
                return Err(PlanError::BadQuery(
                    "host_speeds must all be finite and positive".into(),
                ));
            }
        }
        let algorithm = self.resolved_algorithm();
        if !algorithm.supports(&self.predicate) {
            return Err(PlanError::UnsupportedPredicate {
                algorithm: algorithm.name(),
                predicate: self.predicate.to_string(),
            });
        }
        Ok(algorithm)
    }

    /// Validates, places and admits the join as a one-query session, and
    /// runs it on `backend`.
    fn execute(&self, backend: Backend) -> Result<CycloJoinReport, PlanError> {
        let algorithm = self.validate()?;
        let plans = Plans::of(&self.fault_plan, &self.rescale_plan);
        let placement = Placement::with_standbys(
            &self.r,
            &self.s,
            self.config.hosts,
            self.fragments_per_host,
            self.rotate,
            plans.standby_mask(),
        );
        let swapped = placement.swapped;
        let mut session = Session::new(self.config, backend.compute(self.compute));
        let rotation = session.admit(
            algorithm,
            &self.predicate,
            placement,
            self.output,
            self.ship_prepared,
        );
        let mut outcome = crate::exec::run(
            session,
            vec![rotation],
            None,
            backend,
            plans,
            self.trace,
            self.host_speeds.as_deref(),
        )
        .map_err(backend_error)?;
        Ok(CycloJoinReport {
            algorithm: algorithm.name(),
            transport: self.config.transport.name(),
            hosts: self.config.hosts,
            join_threads: self.config.join_threads,
            swapped,
            data_volume: self.r.byte_volume() + self.s.byte_volume(),
            cpu: self.config.cpu,
            ring: outcome.metrics,
            result: outcome.results.pop().unwrap_or_default(),
            spans: outcome.spans,
        })
    }

    /// Runs on the simulated (virtual-time) backend.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] if the configuration is inconsistent or the
    /// chosen algorithm cannot evaluate the predicate.
    pub fn run(&self) -> Result<CycloJoinReport, PlanError> {
        self.execute(Backend::Simulated)
    }

    /// Runs on the real-thread backend (wall-clock times, actual
    /// concurrency). Link faults and planned rescales are supported; plans
    /// scheduling host crashes or pauses are refused with a typed error
    /// (a channel has nothing to sever).
    ///
    /// # Errors
    ///
    /// Same as [`CycloJoin::run`].
    pub fn run_threaded(&self) -> Result<CycloJoinReport, PlanError> {
        self.execute(Backend::Threads)
    }

    /// Runs over real loopback TCP sockets (wall-clock times, kernel
    /// network stack). Unlike [`CycloJoin::run_threaded`], this backend
    /// supports crash plans: a scheduled crash severs real connections and
    /// the ring heals mid-revolution. Note `config.ack_timeout` is
    /// interpreted in wall-clock time on this backend.
    ///
    /// # Errors
    ///
    /// Same as [`CycloJoin::run`].
    pub fn run_tcp(&self) -> Result<CycloJoinReport, PlanError> {
        self.execute(Backend::Blocking)
    }

    /// Runs over the same loopback TCP wire protocol as
    /// [`CycloJoin::run_tcp`], but driven by the single-threaded reactor
    /// event loop instead of four OS threads per host — the backend that
    /// scales to 64–256-host rings. Fault and rescale semantics are
    /// identical; `config.ack_timeout` is wall-clock time here too.
    ///
    /// # Errors
    ///
    /// Same as [`CycloJoin::run`].
    pub fn run_reactor(&self) -> Result<CycloJoinReport, PlanError> {
        self.execute(Backend::Reactor)
    }
}

/// Checks `config` and what a fault or rescale schedule may ask of its
/// ring against the one rule table (`data_roundabout::validate_plans`),
/// before anything is placed — so a plan naming a host outside the ring is
/// a typed error on every backend instead of an out-of-bounds index while
/// placing standbys.
pub(crate) fn check_plans(config: &RingConfig, plans: Plans<'_>) -> Result<(), PlanError> {
    validate_plans(config, plans.fault, plans.rescale).map_err(backend_error)
}

/// Why a cyclo-join plan could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The ring configuration is inconsistent.
    InvalidConfig(data_roundabout::ConfigError),
    /// The chosen algorithm cannot evaluate the predicate.
    UnsupportedPredicate {
        /// The algorithm that was (explicitly) chosen.
        algorithm: &'static str,
        /// Display form of the offending predicate.
        predicate: String,
    },
    /// `fragments_per_host` was zero.
    NoFragments,
    /// A submitted query is malformed (cyclotron / batch extensions).
    BadQuery(String),
    /// The ring refused the run — a fault or rescale plan the rule table
    /// shared by all backends rejects (a host outside the ring, every host
    /// a standby, …) or one this backend cannot realize (crashes on the
    /// thread backend) — or failed mid-run.
    Backend(RingError),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::InvalidConfig(e) => write!(f, "{e}"),
            PlanError::UnsupportedPredicate {
                algorithm,
                predicate,
            } => {
                write!(
                    f,
                    "algorithm {algorithm} cannot evaluate predicate {predicate}"
                )
            }
            PlanError::NoFragments => write!(f, "fragments_per_host must be at least 1"),
            PlanError::BadQuery(reason) => write!(f, "bad query: {reason}"),
            PlanError::Backend(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// How a backend's refusal or mid-run failure surfaces from a plan.
pub(crate) fn backend_error(e: RingError) -> PlanError {
    match e {
        RingError::Config(c) => PlanError::InvalidConfig(c),
        other => PlanError::Backend(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::reference_join;
    use relation::GenSpec;

    fn inputs() -> (Relation, Relation) {
        (
            GenSpec::uniform(4_000, 100).generate(),
            GenSpec::uniform(4_000, 101).generate(),
        )
    }

    #[test]
    fn default_plan_runs_and_verifies() {
        let (r, s) = inputs();
        let reference = reference_join(&r, &s, &JoinPredicate::Equi);
        let report = CycloJoin::new(r, s).run().expect("plan should run");
        assert_eq!(report.match_count(), reference.count);
        assert_eq!(report.checksum(), reference.checksum);
        assert_eq!(report.hosts, 6);
        assert_eq!(report.algorithm, "partitioned-hash");
    }

    #[test]
    fn band_predicate_picks_sort_merge() {
        let (r, s) = inputs();
        let reference = reference_join(&r, &s, &JoinPredicate::band(1));
        let report = CycloJoin::new(r, s)
            .predicate(JoinPredicate::band(1))
            .hosts(3)
            .run()
            .expect("band plan should run");
        assert_eq!(report.algorithm, "sort-merge");
        assert_eq!(report.match_count(), reference.count);
        assert_eq!(report.checksum(), reference.checksum);
    }

    #[test]
    fn explicit_unsupported_algorithm_is_an_error() {
        let (r, s) = inputs();
        let err = CycloJoin::new(r, s)
            .predicate(JoinPredicate::band(1))
            .algorithm(Algorithm::partitioned_hash())
            .run()
            .unwrap_err();
        assert!(matches!(err, PlanError::UnsupportedPredicate { .. }));
        assert!(err.to_string().contains("partitioned-hash"));
    }

    #[test]
    fn invalid_ring_is_an_error() {
        let (r, s) = inputs();
        let err = CycloJoin::new(r, s).hosts(0).run().unwrap_err();
        assert!(matches!(err, PlanError::InvalidConfig(_)));
    }

    #[test]
    fn bad_host_speeds_are_an_error() {
        let (r, s) = inputs();
        let err = CycloJoin::new(r.clone(), s.clone())
            .hosts(3)
            .host_speeds(vec![1.0, 1.0])
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("host_speeds"));
        let err = CycloJoin::new(r, s)
            .hosts(2)
            .host_speeds(vec![1.0, 0.0])
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("positive"));
    }

    #[test]
    fn zero_fragments_is_an_error() {
        let (r, s) = inputs();
        let err = CycloJoin::new(r, s)
            .fragments_per_host(0)
            .run()
            .unwrap_err();
        assert_eq!(err, PlanError::NoFragments);
    }

    #[test]
    fn ring_sizes_agree_on_the_result() {
        let (r, s) = inputs();
        let reference = reference_join(&r, &s, &JoinPredicate::Equi);
        for hosts in [1, 2, 3, 5, 6] {
            let report = CycloJoin::new(r.clone(), s.clone())
                .hosts(hosts)
                .run()
                .expect("plan should run");
            assert_eq!(report.match_count(), reference.count, "hosts={hosts}");
            assert_eq!(report.checksum(), reference.checksum, "hosts={hosts}");
        }
    }

    #[test]
    fn setup_time_shrinks_with_ring_size() {
        // Figure 7's headline: distributing the setup cuts its cost ∝ 1/n.
        let r = GenSpec::uniform(60_000, 7).generate();
        let s = GenSpec::uniform(60_000, 8).generate();
        let run = |hosts| {
            CycloJoin::new(r.clone(), s.clone())
                .hosts(hosts)
                .rotate(RotateSide::R)
                .run()
                .expect("plan should run")
                .setup_seconds()
        };
        let one = run(1);
        let six = run(6);
        let speedup = one / six;
        assert!(
            (4.0..8.0).contains(&speedup),
            "6-host setup speedup should be ≈6×, got {speedup:.2}"
        );
    }

    #[test]
    fn traced_run_exposes_the_protocol() {
        use simnet::span::SpanKind;
        let (r, s) = inputs();
        let report = CycloJoin::new(r, s)
            .hosts(2)
            .trace(true)
            .run()
            .expect("plan should run");
        let setups = report.spans.spans().iter();
        assert_eq!(setups.filter(|s| s.kind == SpanKind::Setup).count(), 2);
        assert_eq!(report.spans.count_events("retired"), 8);
    }

    #[test]
    fn a_mid_revolution_crash_heals_and_verifies() {
        use data_roundabout::HostId;
        use simnet::time::{SimDuration, SimTime};
        let (r, s) = inputs();
        let reference = reference_join(&r, &s, &JoinPredicate::Equi);
        // Baseline run: establishes the timeline so the crash can be
        // placed squarely inside the join phase.
        let baseline = CycloJoin::new(r.clone(), s.clone())
            .hosts(6)
            .run()
            .expect("baseline should run");
        assert!(baseline.fault_free(), "no plan, no fault counters");
        let mid =
            baseline.setup_seconds() + 0.5 * (baseline.total_seconds() - baseline.setup_seconds());
        let plan = FaultPlan::seeded(1234)
            .crash_host(HostId(2), SimTime::ZERO + SimDuration::from_secs_f64(mid));
        let config = RingConfig::paper(6).with_ack_timeout(SimDuration::from_millis(2));
        let report = CycloJoin::new(r, s)
            .ring(config)
            .fault_plan(plan)
            .run()
            .expect("the healed ring should finish the join");
        assert_eq!(report.match_count(), reference.count);
        assert_eq!(report.checksum(), reference.checksum);
        assert_eq!(report.heal_events(), 1);
        assert!(
            report.retransmits() > 0,
            "death detection retransmits first"
        );
        assert!(report.detection_latency_seconds() > 0.0);
        assert!(!report.fault_free());
    }

    #[test]
    fn fault_plans_must_target_the_ring() {
        use data_roundabout::HostId;
        use simnet::time::{SimDuration, SimTime};
        let (r, s) = inputs();
        let plan =
            FaultPlan::seeded(1).crash_host(HostId(7), SimTime::ZERO + SimDuration::from_millis(1));
        let err = CycloJoin::new(r, s)
            .hosts(3)
            .fault_plan(plan)
            .run()
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("fault plan names a host outside the ring"),
            "got: {err}"
        );
    }

    #[test]
    fn single_host_rings_cannot_heal() {
        use data_roundabout::HostId;
        use simnet::time::{SimDuration, SimTime};
        let (r, s) = inputs();
        let plan =
            FaultPlan::seeded(1).crash_host(HostId(0), SimTime::ZERO + SimDuration::from_millis(1));
        let err = CycloJoin::new(r, s)
            .hosts(1)
            .fault_plan(plan)
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("single-host"), "got: {err}");
    }

    #[test]
    fn threaded_backend_repairs_a_lossy_link() {
        use data_roundabout::HostId;
        use simnet::time::SimDuration;
        let (r, s) = inputs();
        let reference = reference_join(&r, &s, &JoinPredicate::Equi);
        let plan = FaultPlan::seeded(77).lossy_link(HostId(0), 0.3);
        let config = RingConfig::paper(3).with_ack_timeout(SimDuration::from_millis(15));
        let report = CycloJoin::new(r, s)
            .ring(config)
            .fault_plan(plan)
            .run_threaded()
            .expect("retransmissions should repair the link");
        assert_eq!(report.match_count(), reference.count);
        assert_eq!(report.checksum(), reference.checksum);
        assert!(report.retransmits() > 0, "a 30% lossy link must retransmit");
    }

    #[test]
    fn tcp_backend_matches_the_reference_result() {
        let (r, s) = inputs();
        let reference = reference_join(&r, &s, &JoinPredicate::Equi);
        let report = CycloJoin::new(r, s)
            .hosts(3)
            .run_tcp()
            .expect("tcp plan should run");
        assert_eq!(report.match_count(), reference.count);
        assert_eq!(report.checksum(), reference.checksum);
    }

    #[test]
    fn tcp_backend_heals_a_crash_over_real_sockets() {
        use data_roundabout::HostId;
        use simnet::time::{SimDuration, SimTime};
        let (r, s) = inputs();
        let reference = reference_join(&r, &s, &JoinPredicate::Equi);
        let plan = FaultPlan::seeded(99)
            .crash_host(HostId(1), SimTime::ZERO + SimDuration::from_millis(1));
        let config = RingConfig::paper(3)
            .with_ack_timeout(SimDuration::from_millis(8))
            .with_max_retransmits(3);
        let report = CycloJoin::new(r, s)
            .ring(config)
            .fault_plan(plan)
            .run_tcp()
            .expect("the healed ring should finish the join");
        assert_eq!(report.match_count(), reference.count);
        assert_eq!(report.checksum(), reference.checksum);
        assert_eq!(report.heal_events(), 1);
        assert!(report.detection_latency_seconds() > 0.0);
    }

    #[test]
    fn threaded_backend_rejects_crash_plans() {
        use data_roundabout::HostId;
        use simnet::time::{SimDuration, SimTime};
        let (r, s) = inputs();
        let plan =
            FaultPlan::seeded(1).crash_host(HostId(1), SimTime::ZERO + SimDuration::from_millis(1));
        let err = CycloJoin::new(r, s)
            .hosts(3)
            .fault_plan(plan)
            .run_threaded()
            .unwrap_err();
        assert!(matches!(err, PlanError::Backend(_)), "got: {err:?}");
        assert!(err.to_string().contains("simulated backend"), "got: {err}");
    }

    /// A drain mid-revolution hands the departing host's partition to its
    /// rendezvous owner; the join must still produce the exact reference
    /// result, with the epoch advanced and zero heal events.
    #[test]
    fn a_planned_drain_preserves_the_join_result() {
        use data_roundabout::{HostId, RescalePlan};
        use simnet::time::{SimDuration, SimTime};
        let (r, s) = inputs();
        let reference = reference_join(&r, &s, &JoinPredicate::Equi);
        let baseline = CycloJoin::new(r.clone(), s.clone())
            .hosts(3)
            .run()
            .expect("baseline should run");
        let mid =
            baseline.setup_seconds() + 0.5 * (baseline.total_seconds() - baseline.setup_seconds());
        let plan = RescalePlan::seeded(21)
            .drain_host(HostId(1), SimTime::ZERO + SimDuration::from_secs_f64(mid));
        let config = RingConfig::paper(3).with_ack_timeout(SimDuration::from_millis(2));
        let report = CycloJoin::new(r, s)
            .ring(config)
            .rescale_plan(plan)
            .run()
            .expect("the rescaled ring should finish the join");
        assert_eq!(report.match_count(), reference.count);
        assert_eq!(report.checksum(), reference.checksum);
        assert_eq!(report.membership_epoch(), 1);
        assert_eq!(report.rescale_drains(), 1);
        assert_eq!(report.rescale_handoffs(), 1, "host 1 owned one role");
        assert_eq!(report.rescale_escalations(), 0);
        assert_eq!(report.heal_events(), 0, "a clean drain never heals");
        assert!(report.render().contains("rescale: epoch 1"));
    }

    /// A standby host joins mid-revolution and takes over its rendezvous
    /// share of the stationary roles; the result stays exact.
    #[test]
    fn a_planned_join_preserves_the_join_result() {
        use data_roundabout::{HostId, RescalePlan};
        use simnet::time::{SimDuration, SimTime};
        let (r, s) = inputs();
        let reference = reference_join(&r, &s, &JoinPredicate::Equi);
        let plan = RescalePlan::seeded(22)
            .join_host(HostId(2), SimTime::ZERO + SimDuration::from_millis(5));
        let report = CycloJoin::new(r, s)
            .hosts(3)
            .rescale_plan(plan)
            .run()
            .expect("the grown ring should finish the join");
        assert_eq!(report.match_count(), reference.count);
        assert_eq!(report.checksum(), reference.checksum);
        assert_eq!(report.membership_epoch(), 1);
        assert_eq!(report.rescale_joins(), 1);
    }

    /// The same drain schedule over real loopback TCP sockets.
    #[test]
    fn tcp_backend_drains_a_host_over_real_sockets() {
        use data_roundabout::{HostId, RescalePlan};
        use simnet::time::{SimDuration, SimTime};
        // Large enough that the rotation outlives the drain instant on a
        // wall clock (the tcp backend schedules rescale in real time).
        let r = GenSpec::uniform(60_000, 102).generate();
        let s = GenSpec::uniform(60_000, 103).generate();
        let reference = reference_join(&r, &s, &JoinPredicate::Equi);
        let plan = RescalePlan::seeded(23)
            .drain_host(HostId(1), SimTime::ZERO + SimDuration::from_millis(2));
        let config = RingConfig::paper(3)
            .with_ack_timeout(SimDuration::from_millis(20))
            .with_max_retransmits(6);
        let report = CycloJoin::new(r, s)
            .ring(config)
            .rescale_plan(plan)
            .run_tcp()
            .expect("the rescaled tcp ring should finish the join");
        assert_eq!(report.match_count(), reference.count);
        assert_eq!(report.checksum(), reference.checksum);
        assert_eq!(report.membership_epoch(), 1);
        assert_eq!(report.rescale_drains(), 1);
        assert_eq!(report.heal_events(), 0);
    }

    /// The same drain schedule on the real-thread backend: the role-aware
    /// executor follows the handoff, so the result stays exact.
    #[test]
    fn threaded_backend_drains_a_host() {
        use data_roundabout::{HostId, RescalePlan};
        use simnet::time::{SimDuration, SimTime};
        let r = GenSpec::uniform(60_000, 102).generate();
        let s = GenSpec::uniform(60_000, 103).generate();
        let reference = reference_join(&r, &s, &JoinPredicate::Equi);
        let plan = RescalePlan::seeded(23)
            .drain_host(HostId(1), SimTime::ZERO + SimDuration::from_millis(2));
        let config = RingConfig::paper(3)
            .with_ack_timeout(SimDuration::from_millis(20))
            .with_max_retransmits(6);
        let report = CycloJoin::new(r, s)
            .ring(config)
            .rescale_plan(plan)
            .run_threaded()
            .expect("the rescaled threaded ring should finish the join");
        assert_eq!(report.match_count(), reference.count);
        assert_eq!(report.checksum(), reference.checksum);
        assert_eq!(report.membership_epoch(), 1);
        assert_eq!(report.rescale_drains(), 1);
        assert_eq!(report.heal_events(), 0);
    }

    #[test]
    fn rescale_plans_must_target_the_ring() {
        use data_roundabout::{HostId, RescalePlan};
        use simnet::time::{SimDuration, SimTime};
        let (r, s) = inputs();
        let plan = RescalePlan::seeded(1)
            .drain_host(HostId(7), SimTime::ZERO + SimDuration::from_millis(1));
        let err = CycloJoin::new(r.clone(), s.clone())
            .hosts(3)
            .rescale_plan(plan)
            .run()
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("rescale plan names a host outside the ring"),
            "got: {err}"
        );
        let all_standby = RescalePlan::seeded(1)
            .join_host(HostId(0), SimTime::ZERO + SimDuration::from_millis(1))
            .join_host(HostId(1), SimTime::ZERO + SimDuration::from_millis(1));
        let err = CycloJoin::new(r, s)
            .hosts(2)
            .rescale_plan(all_standby)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, PlanError::Backend(RingError::UnsupportedFault(_))),
            "got: {err:?}"
        );
        assert!(err.to_string().contains("every host"), "got: {err}");
    }

    #[test]
    fn materialized_output_round_trips() {
        let r = GenSpec::uniform(500, 9).generate();
        let s = GenSpec::uniform(500, 10).generate();
        let report = CycloJoin::new(r.clone(), s.clone())
            .hosts(2)
            .output(OutputMode::Materialize)
            .run()
            .expect("plan should run");
        assert_eq!(report.result.matches().count() as u64, report.match_count());
    }

    /// Raw shipping (§IV-D) on the wall-clock backends: `Plain` fragments
    /// cross the channel and the socket wire, and every visit reorganises
    /// them.
    #[test]
    fn wall_clock_backends_ship_raw_fragments() {
        let (r, s) = inputs();
        let reference = reference_join(&r, &s, &JoinPredicate::Equi);
        let plan = CycloJoin::new(r, s).hosts(3).ship_prepared(false);
        for report in [plan.run_threaded(), plan.run_tcp()] {
            let report = report.expect("raw-shipping plan should run");
            assert_eq!(report.match_count(), reference.count);
            assert_eq!(report.checksum(), reference.checksum);
        }
    }
}
