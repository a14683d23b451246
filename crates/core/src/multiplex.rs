//! Multi-tenant query multiplexing on a shared ring.
//!
//! Where [`crate::concurrent`] batches queries onto *one* rotation of a
//! shared hot set, this module multiplexes **independent** cyclo-joins —
//! each tenant brings its own rotating relation, stationary relation and
//! predicate — over one ring at the protocol level: every in-flight
//! fragment carries a query id, per-query credits partition the ring
//! buffers, and an admission queue bounds how many queries circulate
//! concurrently (deficit round-robin keeps the grant gap between tenants
//! bounded). Healing, membership epochs and fault dice stay ring-global,
//! so a mid-revolution crash is healed once for all tenants.
//!
//! ```
//! use cyclo_join::multiplex::MultiTenantJoin;
//! use cyclo_join::JoinPredicate;
//! use relation::GenSpec;
//!
//! # fn main() -> Result<(), cyclo_join::PlanError> {
//! let report = MultiTenantJoin::new()
//!     .tenant(
//!         GenSpec::uniform(8_000, 1).generate(),
//!         GenSpec::uniform(6_000, 2).generate(),
//!         JoinPredicate::Equi,
//!     )
//!     .tenant(
//!         GenSpec::uniform(5_000, 3).generate(),
//!         GenSpec::uniform(4_000, 4).generate(),
//!         JoinPredicate::band(1),
//!     )
//!     .hosts(4)
//!     .max_active(2)
//!     .run()?;
//! assert_eq!(report.tenants.len(), 2);
//! assert!(report.tenants.iter().all(|t| t.metrics.completed));
//! # Ok(())
//! # }
//! ```

use data_roundabout::{FaultPlan, QueryMetrics, RescalePlan, RingConfig, RingMetrics};
use mem_joins::{Algorithm, JoinCollector, JoinPredicate, OutputMode};
use relation::{Checksum, Relation};
use simnet::span::SpanTracer;

use crate::compute::ComputeMode;
use crate::distribute::{Placement, RotateSide};
use crate::exec::{Backend, Plans};
use crate::plan::{backend_error, check_plans, PlanError};
use crate::session::Session;

/// One tenant's join: `rotating ⋈ stationary` under `predicate`.
#[derive(Debug, Clone)]
struct TenantSpec {
    rotating: Relation,
    stationary: Relation,
    predicate: JoinPredicate,
    algorithm: Algorithm,
}

/// Builder for a multi-tenant multiplexed run.
///
/// Each tenant's rotating relation is fragmented over the ring and
/// revolves independently; the admission bound (`max_active`) caps how
/// many tenants circulate at once, the rest queue. All four backends
/// run the same protocol core, so per-query counters agree across them.
#[derive(Debug, Clone)]
pub struct MultiTenantJoin {
    tenants: Vec<TenantSpec>,
    config: RingConfig,
    fragments_per_host: usize,
    max_active: usize,
    compute: ComputeMode,
    output: OutputMode,
    fault_plan: Option<FaultPlan>,
    rescale_plan: Option<RescalePlan>,
    trace: bool,
}

impl Default for MultiTenantJoin {
    fn default() -> Self {
        Self::new()
    }
}

impl MultiTenantJoin {
    /// Starts an empty multi-tenant batch on the paper's six-host ring.
    pub fn new() -> Self {
        MultiTenantJoin {
            tenants: Vec::new(),
            config: RingConfig::paper(6),
            fragments_per_host: 4,
            max_active: 2,
            compute: ComputeMode::modeled(),
            output: OutputMode::Aggregate,
            fault_plan: None,
            rescale_plan: None,
            trace: false,
        }
    }

    /// Adds a tenant joining `rotating ⋈ stationary` with the fastest
    /// algorithm supporting `predicate`.
    pub fn tenant(
        self,
        rotating: Relation,
        stationary: Relation,
        predicate: JoinPredicate,
    ) -> Self {
        let algorithm = Algorithm::for_predicate(&predicate);
        self.tenant_with(rotating, stationary, predicate, algorithm)
    }

    /// Adds a tenant with an explicit algorithm.
    pub fn tenant_with(
        mut self,
        rotating: Relation,
        stationary: Relation,
        predicate: JoinPredicate,
        algorithm: Algorithm,
    ) -> Self {
        self.tenants.push(TenantSpec {
            rotating,
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

    /// Admission bound: at most this many tenants circulate concurrently
    /// (default 2); the rest wait in the ring's admission queue.
    pub fn max_active(mut self, n: usize) -> Self {
        self.max_active = n;
        self
    }

    /// Rotation units per host per tenant (default 4).
    pub fn fragments_per_host(mut self, fragments: usize) -> Self {
        self.fragments_per_host = fragments;
        self
    }

    /// Compute pricing mode for the simulated backend (default: model).
    pub fn compute(mut self, compute: ComputeMode) -> Self {
        self.compute = compute;
        self
    }

    /// Output mode for every tenant's collectors.
    pub fn output(mut self, output: OutputMode) -> Self {
        self.output = output;
        self
    }

    /// Injects transport faults (loss, corruption, crashes — backend
    /// permitting) into the shared ring. All tenants share the dice.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Schedules planned membership changes (joins/drains) on the shared
    /// ring. Membership stays ring-global: one drain repartitions every
    /// tenant's stationary state and bumps one epoch for all queries.
    pub fn rescale_plan(mut self, plan: RescalePlan) -> Self {
        self.rescale_plan = Some(plan);
        self
    }

    /// Enables span tracing.
    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    fn validate(&self) -> Result<(), PlanError> {
        self.config.validate().map_err(PlanError::InvalidConfig)?;
        if self.config.hosts < 2 {
            return Err(PlanError::BadQuery(
                "multiplexing needs a ring of at least two hosts".to_string(),
            ));
        }
        if self.fragments_per_host == 0 {
            return Err(PlanError::NoFragments);
        }
        if self.tenants.is_empty() {
            return Err(PlanError::BadQuery(
                "a multi-tenant run needs at least one tenant".to_string(),
            ));
        }
        if self.max_active == 0 {
            return Err(PlanError::BadQuery(
                "the admission bound must admit at least one query".to_string(),
            ));
        }
        check_plans(
            &self.config,
            Plans::of(&self.fault_plan, &self.rescale_plan),
        )?;
        for t in &self.tenants {
            if !t.algorithm.supports(&t.predicate) {
                return Err(PlanError::UnsupportedPredicate {
                    algorithm: t.algorithm.name(),
                    predicate: t.predicate.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Runs the batch on the simulated (virtual-time) backend.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] for an invalid configuration, an empty
    /// tenant list, a zero admission bound, a fault or rescale plan that
    /// names a host outside the ring, or a predicate the chosen algorithm
    /// cannot evaluate.
    pub fn run(&self) -> Result<MultiTenantReport, PlanError> {
        self.execute(Backend::Simulated)
    }

    /// Runs the batch on the real-thread backend (measured compute).
    ///
    /// # Errors
    ///
    /// As [`MultiTenantJoin::run`]; additionally the threaded backend
    /// rejects fault plans with crashes or pauses (no ring healing).
    pub fn run_threaded(&self) -> Result<MultiTenantReport, PlanError> {
        self.execute(Backend::Threads)
    }

    /// Runs the batch over real loopback TCP sockets (blocking driver).
    ///
    /// # Errors
    ///
    /// As [`MultiTenantJoin::run`], plus socket-level errors.
    pub fn run_tcp(&self) -> Result<MultiTenantReport, PlanError> {
        self.execute(Backend::Blocking)
    }

    /// Runs the batch over real loopback TCP sockets on the epoll-style
    /// reactor driver.
    ///
    /// # Errors
    ///
    /// As [`MultiTenantJoin::run_tcp`].
    pub fn run_reactor(&self) -> Result<MultiTenantReport, PlanError> {
        self.execute(Backend::Reactor)
    }

    /// Validates the batch, admits every tenant to one session — each
    /// placed like a `CycloJoin` that rotates its `R`, standbys included —
    /// and runs the rotations multiplexed on `backend`.
    fn execute(&self, backend: Backend) -> Result<MultiTenantReport, PlanError> {
        self.validate()?;
        let plans = Plans::of(&self.fault_plan, &self.rescale_plan);
        let mut session = Session::new(self.config, backend.compute(self.compute));
        let rotation = self
            .tenants
            .iter()
            .map(|t| {
                let placement = Placement::with_standbys(
                    &t.rotating,
                    &t.stationary,
                    self.config.hosts,
                    self.fragments_per_host,
                    RotateSide::R,
                    plans.standby_mask(),
                );
                session.admit(t.algorithm, &t.predicate, placement, self.output, true)
            })
            .collect();
        let outcome = crate::exec::run(
            session,
            rotation,
            Some(self.max_active),
            backend,
            plans,
            self.trace,
            None,
        )
        .map_err(backend_error)?;
        let ring = outcome.metrics;
        let tenants = self
            .tenants
            .iter()
            .zip(outcome.results)
            .enumerate()
            .map(|(q, (t, result))| {
                let metrics = ring.queries.get(q).copied().unwrap_or_default();
                TenantReport {
                    tenant: metrics.tenant,
                    algorithm: t.algorithm.name(),
                    count: result.count(),
                    checksum: result.checksum(),
                    metrics,
                    collectors: result.into_partials(),
                }
            })
            .collect();
        Ok(MultiTenantReport {
            ring,
            spans: outcome.spans,
            tenants,
        })
    }
}

/// One tenant's outcome in a multiplexed run.
#[derive(Debug)]
pub struct TenantReport {
    /// The tenant id the query carried on the wire.
    pub tenant: u32,
    /// Name of the local join algorithm that ran.
    pub algorithm: &'static str,
    /// Total matches across hosts.
    pub count: u64,
    /// Order-independent checksum over all matches.
    pub checksum: Checksum,
    /// The ring's per-query counters (retransmits, checksum mismatches,
    /// fragments completed, completion flag).
    pub metrics: QueryMetrics,
    /// Per-host collectors (materialized matches if requested).
    pub collectors: Vec<JoinCollector>,
}

/// The outcome of a multi-tenant multiplexed run.
#[derive(Debug)]
pub struct MultiTenantReport {
    /// Ring-level metrics of the shared multiplexed rotation.
    pub ring: RingMetrics,
    /// Span tracer (enabled when tracing was requested).
    pub spans: SpanTracer,
    /// Per-tenant results, in the order tenants were added.
    pub tenants: Vec<TenantReport>,
}

impl MultiTenantReport {
    /// End-to-end seconds for the whole batch.
    pub fn total_seconds(&self) -> f64 {
        self.ring.wall_clock.as_secs_f64()
    }

    /// Completed queries per second of ring time.
    pub fn queries_per_second(&self) -> f64 {
        let done = self.tenants.iter().filter(|t| t.metrics.completed).count() as f64;
        let secs = self.total_seconds();
        if secs > 0.0 {
            done / secs
        } else {
            0.0
        }
    }

    /// True when every tenant's query ran to completion.
    pub fn all_completed(&self) -> bool {
        !self.tenants.is_empty() && self.tenants.iter().all(|t| t.metrics.completed)
    }
}

impl std::fmt::Display for MultiTenantReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "multi-tenant run: {} tenants in {:.3}s ({:.2} queries/s)",
            self.tenants.len(),
            self.total_seconds(),
            self.queries_per_second(),
        )?;
        f.write_str(&crate::report::rescale_line(&self.ring))?;
        f.write_str(&crate::report::inline_line(&self.ring))?;
        f.write_str(&crate::report::frames_line(&self.spans))?;
        for t in &self.tenants {
            writeln!(
                f,
                "  tenant {}: {} matches ({}), {} fragments, {} retransmits{}",
                t.tenant,
                t.count,
                t.algorithm,
                t.metrics.fragments_completed,
                t.metrics.retransmits,
                if t.metrics.completed {
                    ""
                } else {
                    " [INCOMPLETE]"
                },
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::reference_join;
    use data_roundabout::HostId;
    use relation::GenSpec;
    use simnet::span::SpanKind;
    use simnet::time::{SimDuration, SimTime};

    fn batch(tenants: usize) -> (MultiTenantJoin, Vec<(Relation, Relation, JoinPredicate)>) {
        let mut b = MultiTenantJoin::new().hosts(4).fragments_per_host(2);
        let mut specs = Vec::new();
        for q in 0..tenants {
            let r = GenSpec::uniform(2_000 + 500 * q, 700 + 2 * q as u64).generate();
            let s = GenSpec::uniform(1_500, 701 + 2 * q as u64).generate();
            let pred = if q % 2 == 0 {
                JoinPredicate::Equi
            } else {
                JoinPredicate::band(1)
            };
            b = b.tenant(r.clone(), s.clone(), pred.clone());
            specs.push((r, s, pred));
        }
        (b, specs)
    }

    fn assert_verified(report: &MultiTenantReport, specs: &[(Relation, Relation, JoinPredicate)]) {
        assert_eq!(report.tenants.len(), specs.len());
        for (t, (r, s, pred)) in report.tenants.iter().zip(specs) {
            let reference = reference_join(r, s, pred);
            assert_eq!(t.count, reference.count, "tenant {}", t.tenant);
            assert_eq!(t.checksum, reference.checksum, "tenant {}", t.tenant);
            assert!(t.metrics.completed, "tenant {}", t.tenant);
        }
    }

    #[test]
    fn simulated_tenants_match_their_references() {
        let (b, specs) = batch(3);
        let report = b.max_active(2).run().expect("sim multi run");
        assert_verified(&report, &specs);
        assert!(report.all_completed());
        assert!(report.queries_per_second() > 0.0);
    }

    #[test]
    fn simulated_tenants_survive_faults() {
        let (b, specs) = batch(4);
        let mut plan = FaultPlan::seeded(31);
        for h in 0..4 {
            plan = plan.lossy_link(HostId(h), 0.05);
        }
        let report = b.max_active(4).fault_plan(plan).run().expect("faulty run");
        assert_verified(&report, &specs);
        assert!(report.ring.total_retransmits() > 0);
    }

    #[test]
    fn simulated_crash_heals_for_every_tenant() {
        let (b, specs) = batch(2);
        // Pick a crash instant inside the run: probe a quiet run first.
        let quiet = b
            .clone()
            .max_active(2)
            .fault_plan(FaultPlan::seeded(5))
            .run()
            .expect("probe run");
        let mid = SimTime::from_nanos(quiet.ring.wall_clock.as_nanos() / 2);
        let plan = FaultPlan::seeded(5).crash_host(HostId(2), mid);
        let report = b.max_active(2).fault_plan(plan).run().expect("healing run");
        assert_eq!(report.ring.heal_events, 1);
        assert_verified(&report, &specs);
    }

    #[test]
    fn threaded_tenants_match_their_references() {
        let (b, specs) = batch(2);
        let report = b
            .ring(RingConfig::paper(4).with_join_threads(1))
            .fragments_per_host(2)
            .max_active(2)
            .run_threaded()
            .expect("threaded multi run");
        assert_verified(&report, &specs);
    }

    /// A planned drain moves the drained host's role to a live host; the
    /// threaded path follows the handoff like the socket paths do, so no
    /// tenant loses the drained role's share of its matches.
    #[test]
    fn threaded_tenants_survive_a_planned_drain() {
        let (b, specs) = batch(3);
        let report = b
            .ring(RingConfig::paper(4).with_join_threads(1))
            .max_active(2)
            .rescale_plan(RescalePlan::seeded(5).drain_host(HostId(1), SimTime::ZERO))
            .run_threaded()
            .expect("threaded multi run with a drain");
        assert_verified(&report, &specs);
        assert_eq!(report.ring.rescale_drains, 1);
    }

    #[test]
    fn socket_tenants_match_their_references() {
        let (b, specs) = batch(2);
        let b = b
            .ring(RingConfig::paper(3).with_join_threads(1))
            .fragments_per_host(2)
            .max_active(2);
        for report in [
            b.run_tcp().expect("tcp multi run"),
            b.run_reactor().expect("reactor multi run"),
        ] {
            assert_verified(&report, &specs);
        }
    }

    #[test]
    fn empty_and_zero_bounds_are_rejected() {
        let empty = MultiTenantJoin::new().hosts(3);
        assert!(empty.run().is_err());
        let (b, _) = batch(1);
        assert!(b.clone().max_active(0).run().is_err());
        assert!(b.clone().hosts(1).run().is_err());
        assert!(b.fragments_per_host(0).run().is_err());
    }

    /// A planned join: the standby owns no stationary partition and ships
    /// no fragments until activated, for every tenant — the placement a
    /// `CycloJoin` gets — so the batch verifies on the simulator and the
    /// wall-clock drivers accept the plan.
    #[test]
    fn tenants_survive_a_planned_join_on_sim_and_threads() {
        let mut b = MultiTenantJoin::new()
            .ring(RingConfig::paper(3).with_join_threads(1))
            .max_active(2)
            .rescale_plan(RescalePlan::seeded(1).join_host(HostId(2), SimTime::ZERO));
        let mut specs = Vec::new();
        for q in 0..2u64 {
            let r = GenSpec::uniform(500, 900 + 2 * q).generate();
            let s = GenSpec::uniform(500, 901 + 2 * q).generate();
            b = b.tenant(r.clone(), s.clone(), JoinPredicate::Equi);
            specs.push((r, s, JoinPredicate::Equi));
        }
        for report in [
            b.run().expect("simulated batch with a planned join"),
            b.run_threaded()
                .expect("threaded batch with a planned join"),
        ] {
            assert_verified(&report, &specs);
            assert_eq!(report.ring.rescale_joins, 1);
        }
    }

    /// The plan rules are `CycloJoin`'s: a schedule naming a host outside
    /// the ring is a typed error, not an index out of bounds in a driver.
    #[test]
    fn plans_must_target_the_ring() {
        let (b, _) = batch(1);
        let b = b.hosts(3);
        let at = SimTime::ZERO + SimDuration::from_millis(1);
        let crash = FaultPlan::seeded(1).crash_host(HostId(7), at);
        let drain = RescalePlan::seeded(1).drain_host(HostId(7), at);
        for err in [
            b.clone().fault_plan(crash).run().unwrap_err(),
            b.rescale_plan(drain).run().unwrap_err(),
        ] {
            assert!(matches!(err, PlanError::Backend(_)), "got: {err:?}");
            assert!(
                err.to_string().contains("names a host outside the ring"),
                "got: {err}"
            );
        }
    }

    /// Setup is timed and stitched for tenants exactly as for a single
    /// query: every host reports its setup, and the `Setup` spans agree.
    #[test]
    fn traced_threaded_tenants_report_their_setup() {
        let (b, specs) = batch(2);
        let report = b
            .ring(RingConfig::paper(4).with_join_threads(1))
            .max_active(2)
            .trace(true)
            .run_threaded()
            .expect("traced threaded multi run");
        assert_verified(&report, &specs);
        for (h, m) in report.ring.hosts.iter().enumerate() {
            assert!(m.setup > SimDuration::ZERO, "host {h} setup");
            assert_eq!(
                report.spans.total(h, SpanKind::Setup),
                m.setup,
                "host {h} setup span"
            );
        }
    }

    /// One tenant is a `CycloJoin` that rotates its `R`: same session,
    /// same placement, same result on the simulator and on threads.
    #[test]
    fn one_tenant_is_a_cyclo_join() {
        let r = GenSpec::uniform(2_000, 910).generate();
        let s = GenSpec::uniform(1_500, 911).generate();
        let config = RingConfig::paper(3).with_join_threads(1);
        let tenant = MultiTenantJoin::new()
            .tenant(r.clone(), s.clone(), JoinPredicate::Equi)
            .ring(config)
            .max_active(1);
        let single = crate::plan::CycloJoin::new(r, s)
            .ring(config)
            .rotate(RotateSide::R);
        for (multi, cyclo) in [
            (tenant.run(), single.run()),
            (tenant.run_threaded(), single.run_threaded()),
        ] {
            let (multi, cyclo) = (multi.expect("tenant run"), cyclo.expect("cyclo run"));
            assert_eq!(multi.tenants[0].count, cyclo.match_count());
            assert_eq!(multi.tenants[0].checksum, cyclo.checksum());
        }
    }
}
