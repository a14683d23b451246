//! Execution: wiring a [`Session`] onto the Data Roundabout backends.
//!
//! One [`run`] serves every front-end (`CycloJoin`, `MultiTenantJoin`,
//! `ConcurrentJoins`) on all four backends. The simulated backend drives
//! the session through the [`RingApp`] adapter in virtual time; the three
//! wall-clock engines (threads, blocking tcp, reactor) call the same
//! session methods from the threads of their join pool.

use data_roundabout::{
    BlockingEngine, ChannelEngine, FaultPlan, HostId, ReactorEngine, RescalePlan, RingApp,
    RingConfig, RingError, RingMetrics, SimRing, WallClockDriver, WallClockEngine,
};
use mem_joins::PreparedFragment;
use simnet::span::{SpanKind, SpanTracer};
use simnet::time::{SimDuration, SimTime};
use simnet::transport::TransportModel;

use crate::compute::ComputeMode;
use crate::result::DistributedResult;
use crate::session::Session;

/// Where a session runs: the virtual-time simulator, or one of the three
/// engines of the wall-clock driver (in-process, the blocking
/// thread-per-endpoint socket engine, the single-threaded reactor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Backend {
    Simulated,
    Threads,
    Blocking,
    Reactor,
}

impl Backend {
    /// How compute is priced here: the builder's choice in virtual time,
    /// the measured wall clock everywhere else.
    pub(crate) fn compute(self, configured: ComputeMode) -> ComputeMode {
        match self {
            Backend::Simulated => configured,
            _ => ComputeMode::Measured,
        }
    }
}

/// The optional fault and rescale schedules of a run.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Plans<'a> {
    pub fault: Option<&'a FaultPlan>,
    pub rescale: Option<&'a RescalePlan>,
}

impl<'a> Plans<'a> {
    /// The schedules a builder holds.
    pub(crate) fn of(fault: &'a Option<FaultPlan>, rescale: &'a Option<RescalePlan>) -> Self {
        Plans {
            fault: fault.as_ref(),
            rescale: rescale.as_ref(),
        }
    }

    /// Hosts a rescale plan will activate later start as standbys: no
    /// stationary partition, no locally originating fragments.
    pub(crate) fn standby_mask(&self) -> u64 {
        self.rescale.map_or(0, RescalePlan::standby_mask)
    }
}

/// One query's rotating fragments, per origin host, in the wire form the
/// ring carries.
pub(crate) type Rotating = Vec<Vec<PreparedFragment>>;

/// Everything a backend run produces.
#[derive(Debug)]
pub(crate) struct Outcome {
    pub metrics: RingMetrics,
    /// The distributed result of every session query, in admission order.
    pub results: Vec<DistributedResult>,
    pub spans: SpanTracer,
}

/// One-time registration cost of each host's ring-buffer pool (RDMA only:
/// kernel TCP needs no pinned memory, §III-C), sized for the largest
/// rotation unit.
fn registration_cost(config: &RingConfig, rotation: &[Rotating]) -> SimDuration {
    let element_bytes = rotation
        .iter()
        .flatten()
        .flatten()
        .map(PreparedFragment::byte_volume)
        .max()
        .unwrap_or(0);
    match config.transport {
        TransportModel::Rdma(rnic) => {
            rnic.registration_cost(element_bytes.max(1)) * config.buffers_per_host as u64
        }
        _ => SimDuration::ZERO,
    }
}

/// Numbers the rotations as wire queries (each its own tenant).
fn numbered(rotation: Vec<Rotating>) -> Vec<(u32, Rotating)> {
    rotation
        .into_iter()
        .enumerate()
        .map(|(q, fragments)| (q as u32, fragments))
        .collect()
}

/// Runs `session` on `backend`, circulating `rotation` (one entry per wire
/// query). `admission == None` is one revolution of the one rotation — a
/// single query, or a shared rotation feeding several — and, unplanned,
/// keeps the classic unacknowledged transport; `Some(max_active)`
/// multiplexes the rotations as independent queries, at most `max_active`
/// circulating at once. The path is role-aware on every backend, so a
/// seeded crash heals mid-revolution and a planned drain hands its role
/// off. `host_speeds` applies in virtual time only.
///
/// # Errors
///
/// The wall-clock driver's [`RingError`]; the simulated backend has none.
pub(crate) fn run(
    session: Session<'_>,
    rotation: Vec<Rotating>,
    admission: Option<usize>,
    backend: Backend,
    plans: Plans<'_>,
    trace: bool,
    host_speeds: Option<&[f64]>,
) -> Result<Outcome, RingError> {
    match backend {
        Backend::Simulated => Ok(simulated(
            session,
            rotation,
            admission,
            plans,
            trace,
            host_speeds,
        )),
        Backend::Threads => wall_clock::<ChannelEngine>(session, rotation, admission, plans, trace),
        Backend::Blocking => {
            wall_clock::<BlockingEngine>(session, rotation, admission, plans, trace)
        }
        Backend::Reactor => wall_clock::<ReactorEngine>(session, rotation, admission, plans, trace),
    }
}

/// The [`RingApp`] that turns Data Roundabout into cyclo-join: the session
/// plus the one setup charge only the simulated transport has.
struct SessionApp<'a> {
    session: Session<'a>,
    registration: SimDuration,
}

impl RingApp<PreparedFragment> for SessionApp<'_> {
    fn setup(&mut self, host: HostId) -> SimDuration {
        self.session.setup(host) + self.registration
    }

    fn process(
        &mut self,
        host: HostId,
        query: u32,
        roles: &[usize],
        _now: SimTime,
        fragment: &PreparedFragment,
    ) -> SimDuration {
        self.session.visit(host, query, roles, fragment.into())
    }

    fn absorb(&mut self, _host: HostId, role: usize) -> SimDuration {
        self.session.absorb(role)
    }
}

fn simulated(
    session: Session<'_>,
    mut rotation: Vec<Rotating>,
    admission: Option<usize>,
    plans: Plans<'_>,
    trace: bool,
    host_speeds: Option<&[f64]>,
) -> Outcome {
    let config = session.config;
    let app = SessionApp {
        registration: registration_cost(&config, &rotation),
        session,
    };
    let mut ring = match admission {
        None => SimRing::new(config, rotation.pop().unwrap_or_default(), app),
        Some(max_active) => SimRing::new_queries(config, numbered(rotation), max_active, app),
    }
    .with_trace(trace);
    if let Some(speeds) = host_speeds {
        ring = ring.with_host_speeds(speeds.to_vec());
    }
    if let Some(plan) = plans.fault {
        ring = ring.with_fault_plan(plan.clone());
    }
    if let Some(plan) = plans.rescale {
        ring = ring.with_rescale_plan(plan.clone());
    }
    let outcome = ring.run();
    Outcome {
        metrics: outcome.metrics,
        results: outcome.app.session.finish(),
        spans: outcome.spans,
    }
}

/// The wall-clock run on engine `E`. Setup runs (and is timed) before the
/// rotation; the per-host setup time is stitched into the returned
/// metrics, and — when `trace` is set — per-host `Setup` spans are
/// stitched ahead of the ring's spans on one common timeline.
fn wall_clock<E: WallClockEngine>(
    session: Session<'_>,
    mut rotation: Vec<Rotating>,
    admission: Option<usize>,
    plans: Plans<'_>,
    trace: bool,
) -> Result<Outcome, RingError> {
    let config = session.config;
    let setup_times: Vec<SimDuration> = (0..config.hosts)
        .map(|h| session.setup(HostId(h)))
        .collect();
    let mut driver = WallClockDriver::<E>::new(&config).with_tracer(trace);
    if let Some(plan) = plans.fault {
        driver = driver.with_fault_plan(plan);
    }
    if let Some(plan) = plans.rescale {
        driver = driver.with_rescale_plan(plan);
    }
    let absorb = |_survivor: HostId, role: usize| {
        session.absorb(role);
    };
    let (mut metrics, mut ring_spans) = match admission {
        None => driver.run_with_roles(
            rotation.pop().unwrap_or_default(),
            |host, roles, fragment| {
                session.visit(host, 0, roles, fragment);
            },
            absorb,
        ),
        Some(max_active) => driver.run_queries(
            numbered(rotation),
            max_active,
            |host, query, roles, fragment| {
                session.visit(host, query, roles, fragment);
            },
            absorb,
        ),
    }?;
    let mut spans = if trace {
        SpanTracer::enabled()
    } else {
        SpanTracer::disabled()
    };
    // The ring measured its spans from the rotation start; the setup phase
    // ran before it. Stitch one timeline: setup spans at the origin, ring
    // spans shifted past the longest setup (the rotation barrier).
    let max_setup = setup_times
        .iter()
        .copied()
        .fold(SimDuration::ZERO, SimDuration::max);
    ring_spans.shift(max_setup);
    for (h, d) in setup_times.into_iter().enumerate() {
        if let Some(host_metrics) = metrics.hosts.get_mut(h) {
            host_metrics.setup = d;
        }
        spans.span(h, SpanKind::Setup, "setup", SimTime::ZERO, d);
    }
    spans.merge(ring_spans);
    Ok(Outcome {
        metrics,
        results: session.finish(),
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribute::{Placement, RotateSide};
    use mem_joins::{Algorithm, JoinPredicate, OutputMode};
    use relation::{GenSpec, Relation};

    /// One query on `config`'s ring, two fragments per host, prepared at
    /// the origin, no plans.
    #[allow(clippy::too_many_arguments)]
    fn exec(
        config: &RingConfig,
        r: &Relation,
        s: &Relation,
        algorithm: Algorithm,
        predicate: &JoinPredicate,
        swap: RotateSide,
        backend: Backend,
        trace: bool,
    ) -> Result<(Outcome, DistributedResult), RingError> {
        let mut session = Session::new(*config, backend.compute(ComputeMode::modeled()));
        let rotation = session.admit(
            algorithm,
            predicate,
            Placement::new(r, s, config.hosts, 2, swap),
            OutputMode::Aggregate,
            true,
        );
        let mut out = run(
            session,
            vec![rotation],
            None,
            backend,
            Plans::default(),
            trace,
            None,
        )?;
        let result = out.results.pop().expect("one query");
        Ok((out, result))
    }

    fn exec_hash(
        config: &RingConfig,
        r: &Relation,
        s: &Relation,
        backend: Backend,
        trace: bool,
    ) -> (Outcome, DistributedResult) {
        exec(
            config,
            r,
            s,
            Algorithm::partitioned_hash(),
            &JoinPredicate::Equi,
            RotateSide::R,
            backend,
            trace,
        )
        .expect("run")
    }

    fn exec_sim(hosts: usize, swap: RotateSide) -> DistributedResult {
        let r = GenSpec::uniform(3_000, 10).generate();
        let s = GenSpec::uniform(2_000, 11).generate();
        exec(
            &RingConfig::paper(hosts),
            &r,
            &s,
            Algorithm::partitioned_hash(),
            &JoinPredicate::Equi,
            swap,
            Backend::Simulated,
            false,
        )
        .expect("simulated run")
        .1
    }

    #[test]
    fn simulated_execution_produces_the_reference_result() {
        let r = GenSpec::uniform(3_000, 10).generate();
        let s = GenSpec::uniform(2_000, 11).generate();
        let reference = crate::verify::reference_join(&r, &s, &JoinPredicate::Equi);
        for hosts in [1, 2, 4] {
            let result = exec_sim(hosts, RotateSide::R);
            assert_eq!(result.count(), reference.count, "hosts={hosts}");
            assert_eq!(result.checksum(), reference.checksum, "hosts={hosts}");
        }
    }

    #[test]
    fn swapped_rotation_matches_unswapped() {
        let a = exec_sim(3, RotateSide::R);
        let b = exec_sim(3, RotateSide::S);
        assert_eq!(a.count(), b.count());
        assert_eq!(a.checksum(), b.checksum());
    }

    #[test]
    fn threaded_execution_matches_simulated() {
        let r = GenSpec::uniform(2_000, 20).generate();
        let s = GenSpec::uniform(2_000, 21).generate();
        let reference = crate::verify::reference_join(&r, &s, &JoinPredicate::Equi);
        let config = RingConfig::paper(3).with_join_threads(1);
        let (out, result) = exec_hash(&config, &r, &s, Backend::Threads, false);
        assert_eq!(result.count(), reference.count);
        assert_eq!(result.checksum(), reference.checksum);
        assert!(out
            .metrics
            .hosts
            .iter()
            .all(|h| h.setup > SimDuration::ZERO));
        assert!(!out.spans.is_enabled());
    }

    /// Regression: a panicking join predicate used to take the whole
    /// process down — the worker's panic poisoned the shared collector
    /// lock and every other thread then panicked in `.lock().expect(...)`
    /// or in channel teardown. It must surface as one typed
    /// [`RingError::Teardown`] instead.
    #[test]
    fn panicking_predicate_is_a_typed_teardown_error() {
        let r = GenSpec::uniform(2_000, 40).generate();
        let s = GenSpec::uniform(2_000, 41).generate();
        let config = RingConfig::paper(3).with_join_threads(1);
        let panicky = JoinPredicate::theta(|_, _| panic!("injected predicate failure"));
        let err = exec(
            &config,
            &r,
            &s,
            Algorithm::NestedLoops,
            &panicky,
            RotateSide::R,
            Backend::Threads,
            false,
        )
        .expect_err("a panicking predicate must fail the run");
        assert!(
            matches!(err, RingError::Teardown(_)),
            "expected a teardown error, got {err:?}"
        );
    }

    /// A traced wall-clock run of six fragments over three hosts: the
    /// setup, busy and sync spans reconcile with the metrics host by host.
    fn traced_run_stitches_setup_and_reconciles(backend: Backend, tuples: usize) -> Outcome {
        use simnet::span::counter;
        let r = GenSpec::uniform(tuples, 50).generate();
        let s = GenSpec::uniform(tuples, 51).generate();
        let config = RingConfig::paper(3).with_join_threads(1);
        let (out, _) = exec_hash(&config, &r, &s, backend, true);
        assert!(out.spans.is_enabled());
        for (h, m) in out.metrics.hosts.iter().enumerate() {
            assert_eq!(
                out.spans.total(h, SpanKind::Setup),
                m.setup,
                "host {h} setup"
            );
            assert_eq!(out.spans.busy_total(h), m.join_busy, "host {h} join_busy");
            assert_eq!(out.spans.total(h, SpanKind::Sync), m.sync, "host {h} sync");
        }
        // The stitched timeline puts every ring span after every setup span.
        let max_setup = out
            .metrics
            .hosts
            .iter()
            .map(|h| h.setup)
            .fold(SimDuration::ZERO, SimDuration::max);
        for s in out.spans.spans() {
            if s.kind != SpanKind::Setup {
                assert!(
                    s.start >= SimTime::ZERO + max_setup,
                    "ring span {s:?} starts before the rotation barrier"
                );
            }
        }
        let c = out.spans.counters();
        assert_eq!(
            c.get(counter::FRAGMENTS_RETIRED) as usize,
            out.metrics.fragments_completed
        );
        let inline: usize = out.metrics.hosts.iter().map(|h| h.visits_inline).sum();
        assert_eq!(c.get(counter::VISITS_INLINE) as usize, inline);
        out
    }

    #[test]
    fn traced_threaded_run_stitches_setup_and_reconciles() {
        let out = traced_run_stitches_setup_and_reconciles(Backend::Threads, 2_000);
        // Only the reactor runs a visit on its own thread.
        for m in &out.metrics.hosts {
            assert_eq!(m.visits_inline, 0);
        }
    }

    /// The reactor twin, on 4-tuple fragments, which the reactor may run
    /// inline or on its pool as each visit's cost decides; either way the
    /// spans reconcile. That an inline visit leaves the same `Join` span
    /// and `join_busy` as a pooled one is `reactor_backend`'s
    /// `traced_inline_visits_reconcile_with_the_metrics`.
    #[test]
    fn traced_reactor_run_stitches_setup_and_reconciles() {
        let out = traced_run_stitches_setup_and_reconciles(Backend::Reactor, 24);
        let visits: usize = out
            .metrics
            .hosts
            .iter()
            .map(|h| h.fragments_processed)
            .sum();
        let joins = out
            .spans
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Join);
        assert_eq!(joins.count(), visits, "one Join span per visit");
    }

    #[test]
    fn tcp_execution_matches_simulated() {
        let r = GenSpec::uniform(2_000, 60).generate();
        let s = GenSpec::uniform(2_000, 61).generate();
        let config = RingConfig::paper(3).with_join_threads(1);
        let (sim, sim_result) = exec_hash(&config, &r, &s, Backend::Simulated, false);
        for flavor in [Backend::Blocking, Backend::Reactor] {
            let (tcp, result) = exec_hash(&config, &r, &s, flavor, false);
            assert_eq!(result.count(), sim_result.count(), "{flavor:?}");
            assert_eq!(result.checksum(), sim_result.checksum(), "{flavor:?}");
            assert_eq!(
                tcp.metrics.fragments_completed, sim.metrics.fragments_completed,
                "{flavor:?}"
            );
            assert!(tcp
                .metrics
                .hosts
                .iter()
                .all(|h| h.setup > SimDuration::ZERO));
        }
    }

    #[test]
    fn rdma_charges_registration_into_setup() {
        let r = GenSpec::uniform(1_000, 30).generate();
        let s = GenSpec::uniform(1_000, 31).generate();
        let setup = |config: RingConfig| {
            let (out, _) = exec_hash(&config, &r, &s, Backend::Simulated, false);
            out.metrics.setup_time()
        };
        let rdma = setup(RingConfig::paper(2));
        assert!(
            rdma > setup(RingConfig::paper_tcp(2)),
            "RDMA setup must include memory registration"
        );
        assert!(
            setup(RingConfig::paper(2).with_buffers(4)) > rdma,
            "every buffer of the pool is registered"
        );
    }
}
