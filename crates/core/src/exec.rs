//! Execution: wiring cyclo-join onto the Data Roundabout backends.
//!
//! The simulated path implements [`RingApp`] so the DES backend drives
//! setup and per-fragment joins in virtual time; the wall-clock path runs
//! the same joins, keyed by stationary role, on the three live drivers
//! (threads, blocking tcp, reactor).

use data_roundabout::{
    BlockingEngine, ChannelEngine, FaultPlan, HostId, ReactorEngine, RegisteredPool, RescalePlan,
    RingApp, RingConfig, RingError, RingMetrics, SimRing, WallClockDriver, WallClockEngine,
};
use mem_joins::{
    Algorithm, JoinCollector, JoinPredicate, OutputMode, PreparedFragment, StationaryState,
};
use relation::Relation;
use simnet::span::{SpanKind, SpanTracer};
use simnet::time::{SimDuration, SimTime};
use simnet::trace::Tracer;
use simnet::transport::TransportModel;

// The shim resolves to `std::sync::Mutex` in normal builds and to the
// model checker's instrumented mutex under `--cfg loom`, so the threaded
// execution path stays model-checkable end to end.
use data_roundabout::sync::Mutex;

use crate::compute::ComputeMode;
use crate::distribute::Placement;
use crate::result::DistributedResult;

/// Everything a backend run produces.
#[derive(Debug)]
pub(crate) struct ExecOutcome {
    pub metrics: RingMetrics,
    pub result: DistributedResult,
    pub trace: Tracer,
    pub spans: SpanTracer,
}

/// Mirrors a predicate for swapped-side execution: `p'(a, b) = p(b, a)`.
/// Equi and band predicates are symmetric; theta predicates flip their
/// arguments.
pub(crate) fn mirror_predicate(p: &JoinPredicate) -> JoinPredicate {
    match p {
        JoinPredicate::Equi => JoinPredicate::Equi,
        JoinPredicate::Band { delta } => JoinPredicate::Band { delta: *delta },
        JoinPredicate::Theta(f) => {
            let f = f.clone();
            JoinPredicate::theta(move |a, b| f(b, a))
        }
    }
}

/// The [`RingApp`] that turns Data Roundabout into cyclo-join.
struct CycloApp {
    algorithm: Algorithm,
    predicate: JoinPredicate,
    threads: usize,
    compute: ComputeMode,
    radix_bits: u32,
    /// False in the §IV-D ablation mode: fragments rotate in raw form and
    /// every host re-prepares (re-partitions / re-sorts) each one at
    /// encounter time instead of reusing the origin host's preparation.
    ship_prepared: bool,
    /// Stationary input per host, consumed by `setup`.
    stationary_inputs: Vec<Option<Relation>>,
    /// Raw stationary partitions, retained only under fault injection so a
    /// ring survivor can rebuild a dead host's state ([`RingApp::absorb`]).
    stationary_raw: Vec<Relation>,
    /// Extra setup-phase cost per host: local fragment preparation plus
    /// ring-buffer registration.
    setup_extra: Vec<SimDuration>,
    /// Stationary state per *logical role* (role `i` = the partition `S_i`
    /// originally placed on host `i`). Under ring healing a role's state
    /// may be rebuilt on a surviving host; the index keeps meaning the
    /// role, not the machine.
    states: Vec<Option<StationaryState>>,
    collectors: Vec<JoinCollector>,
}

impl RingApp<PreparedFragment> for CycloApp {
    fn setup(&mut self, host: HostId) -> SimDuration {
        // `RingApp` methods have no error channel: contract violations are
        // surfaced by debug_asserts and absorbed as no-ops in release.
        let Some(s) = self
            .stationary_inputs
            .get_mut(host.0)
            .and_then(Option::take)
        else {
            debug_assert!(false, "setup called twice for host {}", host.0);
            return SimDuration::ZERO;
        };
        let (state, build) =
            self.compute
                .setup_stationary(&self.algorithm, &s, self.radix_bits, self.threads);
        if let Some(slot) = self.states.get_mut(host.0) {
            *slot = Some(state);
        }
        build
            + self
                .setup_extra
                .get(host.0)
                .copied()
                .unwrap_or(SimDuration::ZERO)
    }

    fn process(
        &mut self,
        host: HostId,
        _now: simnet::time::SimTime,
        fragment: &PreparedFragment,
    ) -> SimDuration {
        let Some(state) = self.states.get(host.0).and_then(Option::as_ref) else {
            debug_assert!(false, "process before setup completed on host {}", host.0);
            return SimDuration::ZERO;
        };
        let Some(collector) = self.collectors.get_mut(host.0) else {
            debug_assert!(false, "no collector for host {}", host.0);
            return SimDuration::ZERO;
        };
        if !self.ship_prepared {
            // Raw shipping: the paper's §IV-D counterfactual. The fragment
            // arrives unorganized and must be partitioned/sorted here,
            // once per encounter, before the join phase proper.
            if let PreparedFragment::Plain(rel) = fragment {
                let (prepared, d_prep) = self.compute.prepare_fragment(
                    &self.algorithm,
                    rel,
                    self.radix_bits,
                    self.threads,
                );
                let d_join = self.compute.join(
                    &self.algorithm,
                    state,
                    &prepared,
                    &self.predicate,
                    self.threads,
                    collector,
                );
                return d_prep + d_join;
            }
        }
        self.compute.join(
            &self.algorithm,
            state,
            fragment,
            &self.predicate,
            self.threads,
            collector,
        )
    }

    fn process_roles(
        &mut self,
        host: HostId,
        roles: &[usize],
        _now: simnet::time::SimTime,
        fragment: &PreparedFragment,
    ) -> SimDuration {
        let mut total = SimDuration::ZERO;
        // Raw shipping (§IV-D ablation): reorganize once per encounter,
        // shared by however many roles this host serves.
        let mut reprepared = None;
        if !self.ship_prepared {
            if let PreparedFragment::Plain(rel) = fragment {
                let (prepared, d_prep) = self.compute.prepare_fragment(
                    &self.algorithm,
                    rel,
                    self.radix_bits,
                    self.threads,
                );
                total += d_prep;
                reprepared = Some(prepared);
            }
        }
        let frag = reprepared.as_ref().unwrap_or(fragment);
        let Some(collector) = self.collectors.get_mut(host.0) else {
            debug_assert!(false, "no collector for host {}", host.0);
            return total;
        };
        for &role in roles {
            let Some(state) = self.states.get(role).and_then(Option::as_ref) else {
                debug_assert!(
                    false,
                    "join against role {role} whose stationary state is absent"
                );
                continue;
            };
            total += self.compute.join(
                &self.algorithm,
                state,
                frag,
                &self.predicate,
                self.threads,
                collector,
            );
        }
        total
    }

    fn absorb(&mut self, _survivor: HostId, failed: HostId) -> SimDuration {
        // Ring healing: rebuild the orphaned role's stationary state on the
        // survivor, priced like the original setup of that share. A missing
        // share means the raw partitions were not retained (a driver bug —
        // they are kept whenever a fault plan exists); the role's state then
        // stays absent and the result checksum verification downstream
        // reports the loss.
        let Ok(share) = crate::recovery::takeover(&self.stationary_raw, failed.0) else {
            debug_assert!(
                false,
                "ring healing needs the raw stationary partitions of a multi-host ring"
            );
            return SimDuration::ZERO;
        };
        let (state, d) =
            self.compute
                .setup_stationary(&self.algorithm, &share, self.radix_bits, self.threads);
        if let Some(slot) = self.states.get_mut(failed.0) {
            *slot = Some(state);
        }
        d
    }
}

/// Prepares all rotating fragments, returning them with per-host prep
/// time. With `ship_prepared == false` (the §IV-D ablation) fragments are
/// left raw — preparation then happens per encounter during the join
/// phase instead of once at the origin.
fn prepare_all(
    algorithm: &Algorithm,
    compute: &ComputeMode,
    placement: &Placement,
    radix_bits: u32,
    threads: usize,
    ship_prepared: bool,
) -> (Vec<Vec<PreparedFragment>>, Vec<SimDuration>) {
    let mut fragments = Vec::with_capacity(placement.rotating.len());
    let mut prep = Vec::with_capacity(placement.rotating.len());
    for host_frags in &placement.rotating {
        let mut prepared = Vec::with_capacity(host_frags.len());
        let mut host_prep = SimDuration::ZERO;
        for frag in host_frags {
            if ship_prepared {
                let (pf, d) = compute.prepare_fragment(algorithm, frag, radix_bits, threads);
                host_prep += d;
                prepared.push(pf);
            } else {
                prepared.push(PreparedFragment::Plain(frag.clone()));
            }
        }
        fragments.push(prepared);
        prep.push(host_prep);
    }
    (fragments, prep)
}

/// One-time registration cost of each host's ring-buffer pool (RDMA only:
/// kernel TCP needs no pinned memory, §III-C).
pub(crate) fn registration_cost(config: &RingConfig, element_bytes: u64) -> SimDuration {
    match config.transport {
        TransportModel::Rdma(rnic) => {
            RegisteredPool::new(config.buffers_per_host, element_bytes.max(1))
                .registration_cost(&rnic)
        }
        _ => SimDuration::ZERO,
    }
}

/// Runs cyclo-join on the simulated (virtual-time) backend.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_simulated(
    config: &RingConfig,
    algorithm: Algorithm,
    predicate: &JoinPredicate,
    compute: &ComputeMode,
    output: OutputMode,
    placement: Placement,
    ship_prepared: bool,
    host_speeds: Option<Vec<f64>>,
    fault_plan: Option<FaultPlan>,
    rescale_plan: Option<RescalePlan>,
    trace: bool,
) -> ExecOutcome {
    let hosts = config.hosts;
    let predicate = if placement.swapped {
        mirror_predicate(predicate)
    } else {
        predicate.clone()
    };
    let radix_bits = algorithm.ring_radix_bits(placement.max_stationary_tuples().max(1));
    let (fragments, mut setup_extra) = prepare_all(
        &algorithm,
        compute,
        &placement,
        radix_bits,
        config.join_threads,
        ship_prepared,
    );
    let reg = registration_cost(config, placement.max_fragment_bytes());
    for extra in &mut setup_extra {
        *extra += reg;
    }
    let collector_template = {
        let c = JoinCollector::new(output);
        if placement.swapped {
            c.with_swapped_sides()
        } else {
            c
        }
    };
    // Keep raw partitions when faults can kill hosts or a rescale can
    // hand roles off: they are the source a takeover rebuilds an orphaned
    // or handed-off role's state from.
    let stationary_raw = if fault_plan.is_some() || rescale_plan.is_some() {
        placement.stationary.clone()
    } else {
        Vec::new()
    };
    let app = CycloApp {
        algorithm,
        predicate,
        threads: config.join_threads,
        compute: *compute,
        radix_bits,
        ship_prepared,
        stationary_inputs: placement.stationary.into_iter().map(Some).collect(),
        stationary_raw,
        setup_extra,
        states: (0..hosts).map(|_| None).collect(),
        collectors: (0..hosts).map(|_| collector_template.child()).collect(),
    };
    let mut ring = SimRing::new(*config, fragments, app).with_trace(trace);
    if let Some(speeds) = host_speeds {
        ring = ring.with_host_speeds(speeds);
    }
    if let Some(plan) = fault_plan {
        ring = ring.with_fault_plan(plan);
    }
    if let Some(plan) = rescale_plan {
        ring = ring.with_rescale_plan(plan);
    }
    let outcome = ring.run();
    ExecOutcome {
        metrics: outcome.metrics,
        result: DistributedResult::new(outcome.app.collectors),
        trace: outcome.trace,
        spans: outcome.spans,
    }
}

/// Which engine drives a wall-clock run: in-process channels, the blocking
/// thread-per-endpoint socket engine, or the single-threaded event-loop
/// reactor. All three are the same [`WallClockDriver`] rolling identical
/// dice, so everything around the run call is shared by
/// [`execute_wall_clock`] and the multi-tenant path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WallClockBackend {
    Threads,
    Blocking,
    Reactor,
}

/// The wall-clock driver on engine `E` with the optional plans attached —
/// all a [`WallClockBackend`] arm has to spell out besides the run call.
pub(crate) fn wall_clock_driver<'a, E: WallClockEngine>(
    config: &'a RingConfig,
    fault_plan: Option<&'a FaultPlan>,
    rescale_plan: Option<&'a RescalePlan>,
    trace: bool,
) -> WallClockDriver<'a, E> {
    let mut driver = WallClockDriver::new(config).with_tracer(trace);
    if let Some(plan) = fault_plan {
        driver = driver.with_fault_plan(plan);
    }
    if let Some(plan) = rescale_plan {
        driver = driver.with_rescale_plan(plan);
    }
    driver
}

/// Runs cyclo-join on a wall-clock driver. Setup runs (and is timed)
/// before the rotation; the reported per-host setup time is stitched into
/// the returned metrics, and — when `trace` is set — per-host `Setup`
/// spans are stitched ahead of the ring's spans on one common timeline.
/// The path is role-aware, so a seeded crash heals mid-revolution and a
/// planned drain hands its role off (the new owner rebuilds the stationary
/// state from the retained raw partitions, exactly as the simulated path
/// prices it). `backend` picks the engine; nothing else differs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_wall_clock(
    config: &RingConfig,
    algorithm: Algorithm,
    predicate: &JoinPredicate,
    output: OutputMode,
    placement: Placement,
    fault_plan: Option<&FaultPlan>,
    rescale_plan: Option<&RescalePlan>,
    trace: bool,
    backend: WallClockBackend,
) -> Result<ExecOutcome, RingError> {
    let predicate = if placement.swapped {
        mirror_predicate(predicate)
    } else {
        predicate.clone()
    };
    let radix_bits = algorithm.ring_radix_bits(placement.max_stationary_tuples().max(1));
    let threads = config.join_threads;
    let compute = ComputeMode::Measured;
    let (fragments, prep) =
        prepare_all(&algorithm, &compute, &placement, radix_bits, threads, true);

    // One slot per *logical role*; ring healing replaces a dead role's
    // state with the survivor's rebuild, so the slots need a lock. Lock
    // order: a role's slot before the host's collector.
    let mut states: Vec<Mutex<Option<StationaryState>>> = Vec::with_capacity(config.hosts);
    let mut setup_times = Vec::with_capacity(config.hosts);
    for (s, p) in placement.stationary.iter().zip(&prep) {
        let (state, d) = compute.setup_stationary(&algorithm, s, radix_bits, threads);
        states.push(Mutex::new(Some(state)));
        setup_times.push(d + *p);
    }
    // Raw partitions are the source a takeover rebuilds an orphaned or
    // handed-off role's state from; faults and rescales both reach it.
    let stationary_raw = if fault_plan.is_some() || rescale_plan.is_some() {
        placement.stationary.clone()
    } else {
        Vec::new()
    };
    let collectors: Vec<Mutex<JoinCollector>> = (0..config.hosts)
        .map(|_| {
            let c = JoinCollector::new(output);
            Mutex::new(if placement.swapped {
                c.with_swapped_sides()
            } else {
                c
            })
        })
        .collect();

    let join_visit = |host: HostId, roles: &[usize], frag: &PreparedFragment| {
        let Some(shared_collector) = collectors.get(host.0) else {
            debug_assert!(false, "join visit for unknown host {}", host.0);
            return;
        };
        for &role in roles {
            let Some(slot) = states.get(role) else {
                debug_assert!(false, "join against unknown role {role}");
                continue;
            };
            let guard = slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            let Some(state) = guard.as_ref() else {
                debug_assert!(false, "join against role {role} whose state is absent");
                continue;
            };
            // A join that panicked on this host poisons the collector;
            // recover the inner value so concurrent joins keep collecting
            // while the ring tears down with a typed error instead of a
            // panic storm.
            let mut collector = shared_collector
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            algorithm.join(state, frag, &predicate, threads, &mut collector);
        }
    };
    let absorb = |_survivor: HostId, role: usize| {
        let Ok(share) = crate::recovery::takeover(&stationary_raw, role) else {
            debug_assert!(
                false,
                "ring healing needs the raw stationary partitions of a multi-host ring"
            );
            return;
        };
        let (state, _) = compute.setup_stationary(&algorithm, &share, radix_bits, threads);
        if let Some(slot) = states.get(role) {
            *slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(state);
        }
    };

    let (mut metrics, mut ring_spans) = match backend {
        WallClockBackend::Threads => {
            wall_clock_driver::<ChannelEngine>(config, fault_plan, rescale_plan, trace)
                .run_with_roles(fragments, join_visit, absorb)?
        }
        WallClockBackend::Blocking => {
            wall_clock_driver::<BlockingEngine>(config, fault_plan, rescale_plan, trace)
                .run_with_roles(fragments, join_visit, absorb)?
        }
        WallClockBackend::Reactor => {
            wall_clock_driver::<ReactorEngine>(config, fault_plan, rescale_plan, trace)
                .run_with_roles(fragments, join_visit, absorb)?
        }
    };
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
    let partials = collectors
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
        })
        .collect();
    Ok(ExecOutcome {
        metrics,
        result: DistributedResult::new(partials),
        trace: Tracer::disabled(),
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribute::RotateSide;
    use relation::GenSpec;

    fn exec_sim(hosts: usize, swap: RotateSide) -> ExecOutcome {
        let r = GenSpec::uniform(3_000, 10).generate();
        let s = GenSpec::uniform(2_000, 11).generate();
        let config = RingConfig::paper(hosts);
        let placement = Placement::new(&r, &s, hosts, 2, swap);
        execute_simulated(
            &config,
            Algorithm::partitioned_hash(),
            &JoinPredicate::Equi,
            &ComputeMode::modeled(),
            OutputMode::Aggregate,
            placement,
            true,
            None,
            None,
            None,
            false,
        )
    }

    #[test]
    fn simulated_execution_produces_the_reference_result() {
        let r = GenSpec::uniform(3_000, 10).generate();
        let s = GenSpec::uniform(2_000, 11).generate();
        let reference = crate::verify::reference_join(&r, &s, &JoinPredicate::Equi);
        for hosts in [1, 2, 4] {
            let out = exec_sim(hosts, RotateSide::R);
            assert_eq!(out.result.count(), reference.count, "hosts={hosts}");
            assert_eq!(out.result.checksum(), reference.checksum, "hosts={hosts}");
        }
    }

    #[test]
    fn swapped_rotation_matches_unswapped() {
        let a = exec_sim(3, RotateSide::R);
        let b = exec_sim(3, RotateSide::S);
        assert_eq!(a.result.count(), b.result.count());
        assert_eq!(a.result.checksum(), b.result.checksum());
    }

    #[test]
    fn mirror_predicate_flips_theta() {
        let p = JoinPredicate::theta(|a, b| a < b);
        let m = mirror_predicate(&p);
        assert!(p.matches(1, 2));
        assert!(!m.matches(1, 2));
        assert!(m.matches(2, 1));
        // Symmetric predicates mirror to themselves.
        assert!(mirror_predicate(&JoinPredicate::Equi).is_equi());
        assert_eq!(
            mirror_predicate(&JoinPredicate::band(3)).band_delta(),
            Some(3)
        );
    }

    #[test]
    fn threaded_execution_matches_simulated() {
        let r = GenSpec::uniform(2_000, 20).generate();
        let s = GenSpec::uniform(2_000, 21).generate();
        let reference = crate::verify::reference_join(&r, &s, &JoinPredicate::Equi);
        let config = RingConfig::paper(3).with_join_threads(1);
        let placement = Placement::new(&r, &s, 3, 2, RotateSide::R);
        let out = execute_wall_clock(
            &config,
            Algorithm::partitioned_hash(),
            &JoinPredicate::Equi,
            OutputMode::Aggregate,
            placement,
            None,
            None,
            false,
            WallClockBackend::Threads,
        )
        .expect("threaded run");
        assert_eq!(out.result.count(), reference.count);
        assert_eq!(out.result.checksum(), reference.checksum);
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
        let placement = Placement::new(&r, &s, 3, 2, RotateSide::R);
        let panicky = JoinPredicate::theta(|_, _| panic!("injected predicate failure"));
        let err = execute_wall_clock(
            &config,
            Algorithm::NestedLoops,
            &panicky,
            OutputMode::Aggregate,
            placement,
            None,
            None,
            false,
            WallClockBackend::Threads,
        )
        .expect_err("a panicking predicate must fail the run");
        assert!(
            matches!(err, RingError::Teardown(_)),
            "expected a teardown error, got {err:?}"
        );
    }

    #[test]
    fn traced_threaded_run_stitches_setup_and_reconciles() {
        use simnet::span::counter;
        let r = GenSpec::uniform(2_000, 50).generate();
        let s = GenSpec::uniform(2_000, 51).generate();
        let config = RingConfig::paper(3).with_join_threads(1);
        let placement = Placement::new(&r, &s, 3, 2, RotateSide::R);
        let out = execute_wall_clock(
            &config,
            Algorithm::partitioned_hash(),
            &JoinPredicate::Equi,
            OutputMode::Aggregate,
            placement,
            None,
            None,
            true,
            WallClockBackend::Threads,
        )
        .expect("threaded run");
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
    }

    #[test]
    fn tcp_execution_matches_simulated() {
        let r = GenSpec::uniform(2_000, 60).generate();
        let s = GenSpec::uniform(2_000, 61).generate();
        let hosts = 3;
        let config = RingConfig::paper(hosts).with_join_threads(1);
        let sim = execute_simulated(
            &config,
            Algorithm::partitioned_hash(),
            &JoinPredicate::Equi,
            &ComputeMode::modeled(),
            OutputMode::Aggregate,
            Placement::new(&r, &s, hosts, 2, RotateSide::R),
            true,
            None,
            None,
            None,
            false,
        );
        for flavor in [WallClockBackend::Blocking, WallClockBackend::Reactor] {
            let tcp = execute_wall_clock(
                &config,
                Algorithm::partitioned_hash(),
                &JoinPredicate::Equi,
                OutputMode::Aggregate,
                Placement::new(&r, &s, hosts, 2, RotateSide::R),
                None,
                None,
                false,
                flavor,
            )
            .expect("socket run");
            assert_eq!(tcp.result.count(), sim.result.count(), "{flavor:?}");
            assert_eq!(tcp.result.checksum(), sim.result.checksum(), "{flavor:?}");
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
        let placement = |cfg: &RingConfig| Placement::new(&r, &s, cfg.hosts, 2, RotateSide::R);
        let rdma_cfg = RingConfig::paper(2);
        let tcp_cfg = RingConfig::paper_tcp(2);
        let rdma = execute_simulated(
            &rdma_cfg,
            Algorithm::partitioned_hash(),
            &JoinPredicate::Equi,
            &ComputeMode::modeled(),
            OutputMode::Aggregate,
            placement(&rdma_cfg),
            true,
            None,
            None,
            None,
            false,
        );
        let tcp = execute_simulated(
            &tcp_cfg,
            Algorithm::partitioned_hash(),
            &JoinPredicate::Equi,
            &ComputeMode::modeled(),
            OutputMode::Aggregate,
            placement(&tcp_cfg),
            true,
            None,
            None,
            None,
            false,
        );
        assert!(
            rdma.metrics.setup_time() > tcp.metrics.setup_time(),
            "RDMA setup must include memory registration"
        );
    }
}
