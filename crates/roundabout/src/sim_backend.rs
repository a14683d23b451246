//! The simulated ring backend: Data Roundabout inside a discrete-event
//! simulation.
//!
//! Every protocol decision — credit flow control, ack/retransmit ledger,
//! healing — lives in the sans-IO [`crate::protocol`] core. This file is
//! only the *driver*: it maps [`Output`]s onto `simnet` events, link and
//! RNIC reservations, CPU cost charges and trace spans, and feeds the
//! resulting observations back as [`Input`]s.
//!
//! Time and CPU model:
//!
//! * transfers occupy the hop link for their serialization time (chunk-size
//!   curve of Figure 5); software TCP is additionally capped by what one
//!   transmitter thread can push through the kernel (§V-G);
//! * per transferred envelope, the transport's CPU cost model charges both
//!   endpoints (Figure 3 categories);
//! * join durations come from the application; under TCP they are inflated
//!   by cache pollution and — when the join threads plus communication
//!   demand exceed the cores — by CPU contention:
//!   `d_eff = pollution × max(d, (threads·d + comm_cpu) / cores)`.
//!   Under RDMA, `d_eff = d`: the join "is never interrupted by the
//!   network".
//!
//! Output order is the protocol's contract: outputs are applied strictly
//! in emission order, which reproduces the event-scheduling sequence of
//! the pre-extraction backend — determinism tests pin this.

use simnet::cpu::{CostCategory, CpuAccount};
use simnet::engine::Simulation;
use simnet::fault::{FaultPlan, RescalePlan};
use simnet::link::Link;
use simnet::rnic::{Completion, MemoryRegion, QueuePair, Rnic, WorkRequest};
use simnet::span::{counter, SpanKind, SpanTracer, Track};
use simnet::throughput::{Bandwidth, ChunkThroughput};
use simnet::time::{SimDuration, SimTime};
use simnet::topology::{HostId, RingNetwork};
use simnet::trace::Tracer;
use simnet::transport::TransportModel;

use crate::app::RingApp;
use crate::config::RingConfig;
use crate::envelope::{Envelope, PayloadBytes};
use crate::metrics::{HostMetrics, RingMetrics};
use crate::protocol::{
    envelope_batches, query_batches, Input, Output, ProtocolConfig, RingProtocol, Timer,
};

/// Safety valve: no legitimate run needs more events than this per fragment
/// and host.
const EVENT_BUDGET_PER_UNIT: u64 = 64;

/// Event budget for continuous (Data Cyclotron) rotations, which end when
/// the application says so rather than when fragments retire.
const CONTINUOUS_EVENT_BUDGET: u64 = 50_000_000;

/// The reliable transport's fault path needs room for acks, timeouts,
/// retransmissions and probes on top of the classic event stream.
const FAULT_BUDGET_FACTOR: u64 = 8;
const FAULT_BUDGET_SLACK: u64 = 100_000;

/// Wire size of a per-hop acknowledgement (a control message riding the
/// backward direction of the full-duplex hop link).
const ACK_BYTES: u64 = 64;

/// The outcome of a simulated ring run.
#[derive(Debug)]
pub struct SimOutcome<A> {
    /// Timing and CPU metrics.
    pub metrics: RingMetrics,
    /// The application, with whatever state it accumulated.
    pub app: A,
    /// The event trace (empty unless tracing was enabled).
    pub trace: Tracer,
    /// Structured spans, instant events and counters (disabled unless
    /// tracing was enabled); exportable as Chrome trace-event JSON.
    pub spans: SpanTracer,
}

/// Per-host *driver* state: the timing/cost bookkeeping the metrics are
/// built from. Queues, credit and ledgers live in the protocol core.
#[derive(Debug)]
struct DriverHost {
    setup_done: Option<SimTime>,
    last_join_done: SimTime,
    join_busy: SimDuration,
    join_cpu: CpuAccount,
    bytes_forwarded: u64,
}

impl DriverHost {
    fn new() -> Self {
        DriverHost {
            setup_done: None,
            last_join_done: SimTime::ZERO,
            join_busy: SimDuration::ZERO,
            join_cpu: CpuAccount::new(),
            bytes_forwarded: 0,
        }
    }
}

enum RingEvent<P> {
    SetupDone {
        host: HostId,
    },
    JoinDone {
        host: HostId,
    },
    Arrived {
        to: HostId,
        env: Envelope<P>,
        /// Transfer id from the matching [`Output::Send`] (0 on the
        /// classic path, which has no ack ledger).
        tid: u64,
    },
    SendDone {
        from: HostId,
        completion: Option<Completion>,
    },
    /// The receiver's NIC acknowledged transfer `tid` (fault mode only).
    AckArrived {
        tid: u64,
    },
    /// The sender's retransmission timer for attempt `attempt` of transfer
    /// `tid` fired (stale if the transfer was acked or re-attempted since).
    AckTimeout {
        tid: u64,
        attempt: u32,
    },
    /// A sender blocked on its successor's full receive pool probes it.
    ProbeTimeout {
        from: HostId,
        to: HostId,
        attempt: u32,
    },
    /// Scheduled adversity from the fault plan.
    Crash {
        host: HostId,
    },
    Pause {
        host: HostId,
    },
    Resume {
        host: HostId,
    },
    /// The ring-healing successor finished rebuilding the absorbed
    /// stationary partitions and may join again. Also marks the end of a
    /// planned-handoff rebuild (the recipient side of [`Output::Handoff`]).
    AbsorbDone {
        host: HostId,
    },
    /// Scheduled membership change from the rescale plan.
    JoinRequest {
        host: HostId,
    },
    DrainRequest {
        host: HostId,
    },
    /// The drain deadline of attempt `attempt` fired (stale if the drain
    /// completed or was aborted since).
    DrainTimeout {
        host: HostId,
        attempt: u32,
    },
}

/// Multi-tenant submission list: `(tenant, per-host fragment lists)`
/// per query, in query-id order.
pub type QuerySpecs<P> = Vec<(u32, Vec<Vec<P>>)>;

/// A configured, ready-to-run simulated ring.
pub struct SimRing<P, A> {
    config: RingConfig,
    fragments: Vec<Vec<P>>,
    /// Multi-tenant mode: the submitted queries plus the admission
    /// bound. `fragments` stays empty in this mode.
    queries: Option<(QuerySpecs<P>, usize)>,
    app: A,
    trace: bool,
    continuous: bool,
    host_speed: Option<Vec<f64>>,
    fault_plan: Option<FaultPlan>,
    rescale_plan: Option<RescalePlan>,
}

impl<P: PayloadBytes + Clone, A: RingApp<P>> SimRing<P, A> {
    /// Prepares a run: `fragments[h]` are the local fragments host `h`
    /// contributes to the rotation.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `fragments.len()` differs
    /// from the configured host count.
    // analyze: allow(panic, reason = "protocol invariant: per-host tables are sized to the ring at construction and HostId never exceeds it")
    pub fn new(config: RingConfig, fragments: Vec<Vec<P>>, app: A) -> Self {
        config.validate().expect("invalid ring configuration");
        assert_eq!(
            fragments.len(),
            config.hosts,
            "need one fragment list per host ({} hosts, {} lists)",
            config.hosts,
            fragments.len()
        );
        SimRing {
            config,
            fragments,
            queries: None,
            app,
            trace: false,
            continuous: false,
            host_speed: None,
            fault_plan: None,
            rescale_plan: None,
        }
    }

    /// Prepares a *multi-tenant* run: several queries multiplexed over one
    /// ring. `queries[q]` is `(tenant, fragments)` where `fragments[h]`
    /// are the local fragments host `h` contributes to query `q`; at most
    /// `max_active` queries circulate concurrently, the rest wait in the
    /// admission queue. Multi-tenant rotation always runs the reliable
    /// transport (a quiet fault plan is synthesized when none is
    /// attached), so per-query exactly-once delivery holds even when no
    /// adversity is scheduled.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, any query's fragment list
    /// count differs from the host count, `queries` is empty or
    /// `max_active` is zero (checks shared with [`RingProtocol::new_multi`]).
    // analyze: allow(panic, reason = "construction-time shape checks, mirroring SimRing::new")
    pub fn new_queries(
        config: RingConfig,
        queries: QuerySpecs<P>,
        max_active: usize,
        app: A,
    ) -> Self {
        config.validate().expect("invalid ring configuration");
        assert!(!queries.is_empty(), "a multi-tenant ring needs queries");
        for (q, (_, fragments)) in queries.iter().enumerate() {
            assert_eq!(
                fragments.len(),
                config.hosts,
                "query {q} needs one fragment list per host ({} hosts, {} lists)",
                config.hosts,
                fragments.len()
            );
        }
        SimRing {
            config,
            fragments: Vec::new(),
            queries: Some((queries, max_active)),
            app,
            trace: false,
            continuous: false,
            host_speed: None,
            fault_plan: None,
            rescale_plan: None,
        }
    }

    /// Attaches a deterministic [`FaultPlan`] and switches the transport
    /// into its reliable mode: sequence-numbered, checksummed envelopes
    /// with per-hop acknowledgement, timeout-driven retransmission with
    /// bounded exponential backoff, and mid-revolution ring healing when a
    /// host's death is confirmed. Attaching even a quiet plan changes the
    /// protocol (acks flow); omitting the plan keeps the classic path
    /// byte-identical to the unreliable backend.
    ///
    /// # Panics
    ///
    /// `run` panics if the plan is combined with continuous rotation, if a
    /// crash is scheduled on a single-host ring (there is nobody left to
    /// heal), or if the ring has more than 64 hosts (the exactly-once
    /// ledger is a 64-bit role bitmask).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Attaches a planned [`RescalePlan`]: standby hosts joining the ring
    /// and members draining out mid-workload, with the stationary roles
    /// repartitioned by rendezvous hashing at each transition. Hosts with
    /// a scheduled join start as provisioned standbys *outside* the ring
    /// and must contribute no fragments. Attaching a rescale plan switches
    /// the transport into its reliable mode (handoff completions ride the
    /// acked hop protocol) even without a fault plan.
    ///
    /// # Panics
    ///
    /// `run` panics if the plan is combined with continuous rotation, if
    /// the ring has more than 64 hosts, or if a scheduled join host
    /// contributes fragments.
    pub fn with_rescale_plan(mut self, plan: RescalePlan) -> Self {
        self.rescale_plan = Some(plan);
        self
    }

    /// Makes hosts heterogeneous: host `h`'s join durations are divided by
    /// `speed[h]` (1.0 = nominal, 0.5 = half speed). The paper's §V-D
    /// observes that "the ring buffer mechanism of Data Roundabout
    /// balances differences in the execution speeds of the participating
    /// hosts" — this knob lets benchmarks inject exactly such differences.
    ///
    /// # Panics
    ///
    /// `run` panics if the vector length differs from the host count or
    /// any factor is not finite and positive.
    pub fn with_host_speeds(mut self, speed: Vec<f64>) -> Self {
        self.host_speed = Some(speed);
        self
    }

    /// Enables event tracing for this run.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Switches to *continuous* rotation — the Data Cyclotron mode:
    /// envelopes never retire (they keep circulating after a full
    /// revolution) and the run ends when the application's
    /// [`RingApp::finished`] hook returns `true`.
    ///
    /// # Panics
    ///
    /// `run` panics if the app never finishes within the event budget —
    /// a safety valve against rotations that spin forever.
    pub fn continuous(mut self) -> Self {
        self.continuous = true;
        self
    }

    /// Runs the ring to quiescence and returns metrics, app and trace.
    ///
    /// # Panics
    ///
    /// Panics if the run ends with unfinished fragments (which would mean
    /// a flow-control deadlock — a bug, not a configuration problem).
    pub fn run(self) -> SimOutcome<A> {
        Runner::new(self).run()
    }
}

/// The effective hop link: RDMA runs at the RNIC-saturated goodput curve;
/// software TCP is capped by its transmitter thread's per-core rate.
fn effective_link(config: &RingConfig) -> Link {
    let peak = match config.transport {
        TransportModel::Rdma(_) => config.link_bandwidth,
        TransportModel::KernelTcp(m) | TransportModel::Toe(m) => {
            let cpu_cap = m.per_core_rate(config.cpu);
            if cpu_cap.bytes_per_sec() < config.link_bandwidth.bytes_per_sec() {
                cpu_cap
            } else {
                config.link_bandwidth
            }
        }
    };
    Link::new(
        ChunkThroughput::new(peak, config.per_message_overhead),
        config.link_latency,
    )
}

struct Runner<P, A> {
    config: RingConfig,
    app: A,
    continuous: bool,
    stopped: bool,
    network: RingNetwork,
    /// The shared sans-IO protocol core — every queue, credit and ledger
    /// decision is its.
    proto: RingProtocol<P>,
    hosts: Vec<DriverHost>,
    /// Per-host RNIC state (RDMA transport only): the NIC, its send queue
    /// pair, and the registered region backing the ring-buffer pool.
    /// Transfers are posted as work requests against the registered
    /// region, exactly as on real hardware; the registration *cost* is
    /// charged by the application layer during setup (it owns the
    /// setup-phase accounting).
    rnics: Vec<Option<(Rnic, QueuePair, MemoryRegion)>>,
    host_speed: Option<Vec<f64>>,
    next_wr_id: u64,
    wall_clock: SimTime,
    tracer: Tracer,
    spans: SpanTracer,
    /// Per-host end of the last busy interval (join or absorb), used only
    /// for emitting `Sync` spans: the gap from here to the next join start
    /// is exactly the idle time `RingMetrics` reports as `sync`.
    busy_until: Vec<SimTime>,
    /// The medium's dice (loss, corruption, spikes, crash schedule). The
    /// protocol core never sees these; it learns each attempt's fate via
    /// [`RingProtocol::attempt_fate`]. A rescale plan without a fault plan
    /// synthesizes a quiet plan here, because rescale rides the reliable
    /// transport.
    fault_plan: Option<FaultPlan>,
    /// The planned membership schedule (joins and drains pinned to
    /// virtual instants).
    rescale_plan: Option<RescalePlan>,
    detection_latency: SimDuration,
    /// Last instant of real progress (setup, join, retirement, absorb) —
    /// the fault-mode wall clock, so trailing ack chatter does not pad the
    /// reported runtime.
    last_progress: SimTime,
}

impl<P: PayloadBytes + Clone, A: RingApp<P>> Runner<P, A> {
    fn new(ring: SimRing<P, A>) -> Self {
        let n = ring.config.hosts;
        if let Some(speed) = &ring.host_speed {
            assert_eq!(speed.len(), n, "need one speed factor per host");
            assert!(
                speed.iter().all(|s| s.is_finite() && *s > 0.0),
                "host speed factors must be finite and positive"
            );
        }
        if let Some(plan) = &ring.fault_plan {
            assert!(
                !ring.continuous,
                "fault injection requires run-to-retirement mode, not continuous rotation"
            );
            assert!(
                n <= 64,
                "the exactly-once role bitmask supports at most 64 hosts"
            );
            assert!(
                n > 1 || plan.crashes().is_empty(),
                "cannot heal a single-host ring around a crash"
            );
        }
        let standby = match &ring.rescale_plan {
            Some(plan) => {
                assert!(
                    !ring.continuous,
                    "rescale requires run-to-retirement mode, not continuous rotation"
                );
                assert!(
                    n <= 64,
                    "the exactly-once role bitmask supports at most 64 hosts"
                );
                for j in plan.joins() {
                    assert!(j.host.0 < n, "join host {} outside the ring", j.host.0);
                    assert!(
                        ring.fragments.get(j.host.0).is_none_or(Vec::is_empty),
                        "standby host {} must not contribute fragments before joining",
                        j.host.0
                    );
                }
                for d in plan.drains() {
                    assert!(d.host.0 < n, "drain host {} outside the ring", d.host.0);
                }
                plan.standby_mask()
            }
            None => 0,
        };
        // Rescale rides the reliable transport: without explicit adversity
        // the medium still needs (quiet) dice and the acked hop protocol.
        let fault_plan = ring
            .fault_plan
            .or_else(|| {
                ring.rescale_plan
                    .as_ref()
                    .map(|p| FaultPlan::seeded(p.seed()))
            })
            // Multi-tenant rotation rides the reliable transport even
            // without scheduled adversity: the per-query exactly-once
            // ledger needs the acked hop protocol.
            .or_else(|| ring.queries.as_ref().map(|_| FaultPlan::seeded(0)));
        let network = RingNetwork::new(n, effective_link(&ring.config));
        let max_fragment_bytes = ring
            .fragments
            .iter()
            .chain(
                ring.queries
                    .iter()
                    .flat_map(|(qs, _)| qs.iter().flat_map(|(_, fragments)| fragments.iter())),
            )
            .flat_map(|f| f.iter())
            .map(PayloadBytes::payload_bytes)
            .max()
            .unwrap_or(0)
            .max(1);
        let rnics: Vec<Option<(Rnic, QueuePair, MemoryRegion)>> = (0..n)
            .map(|_| match ring.config.transport {
                TransportModel::Rdma(cfg) => {
                    let mut rnic = Rnic::new(cfg);
                    let (region, _cost) = rnic.register(
                        SimTime::ZERO,
                        max_fragment_bytes * ring.config.buffers_per_host as u64,
                    );
                    Some((rnic, QueuePair::new(), region))
                }
                _ => None,
            })
            .collect();
        let proto_cfg = ProtocolConfig {
            hosts: n,
            buffers_per_host: ring.config.buffers_per_host,
            max_retransmits: ring.config.max_retransmits,
            continuous: ring.continuous,
            reliable: fault_plan.is_some(),
            standby,
        };
        let proto = match ring.queries {
            Some((queries, max_active)) => {
                RingProtocol::new_multi(proto_cfg, query_batches(queries, n), max_active)
            }
            None => RingProtocol::new(proto_cfg, envelope_batches(ring.fragments, n)),
        };
        Runner {
            config: ring.config,
            app: ring.app,
            continuous: ring.continuous,
            stopped: false,
            network,
            proto,
            hosts: (0..n).map(|_| DriverHost::new()).collect(),
            rnics,
            host_speed: ring.host_speed,
            next_wr_id: 0,
            wall_clock: SimTime::ZERO,
            tracer: if ring.trace {
                Tracer::enabled()
            } else {
                Tracer::disabled()
            },
            spans: if ring.trace {
                SpanTracer::enabled()
            } else {
                SpanTracer::disabled()
            },
            busy_until: vec![SimTime::ZERO; n],
            fault_plan,
            rescale_plan: ring.rescale_plan,
            detection_latency: SimDuration::ZERO,
            last_progress: SimTime::ZERO,
        }
    }

    fn run(mut self) -> SimOutcome<A> {
        let mut budget = if self.continuous {
            // Continuous rotations are open-ended; give them a generous
            // but finite budget so a never-finishing app fails loudly.
            CONTINUOUS_EVENT_BUDGET
        } else {
            EVENT_BUDGET_PER_UNIT
                * (self.proto.fragments_total() as u64 + 1)
                * (self.config.hosts as u64 + 1)
        };
        if self.fault_plan.is_some() {
            budget = budget * FAULT_BUDGET_FACTOR + FAULT_BUDGET_SLACK;
        }
        let mut sim: Simulation<RingEvent<P>> = Simulation::new().with_event_limit(budget);
        for h in 0..self.config.hosts {
            let d = self.app.setup(HostId(h));
            sim.schedule_in(d, RingEvent::SetupDone { host: HostId(h) });
        }
        if let Some(plan) = &self.fault_plan {
            for c in plan.crashes() {
                sim.schedule_at(c.at, RingEvent::Crash { host: c.host });
            }
            for p in plan.pauses() {
                sim.schedule_at(p.at, RingEvent::Pause { host: p.host });
                sim.schedule_at(p.at + p.duration, RingEvent::Resume { host: p.host });
            }
        }
        if let Some(plan) = &self.rescale_plan {
            for j in plan.joins() {
                sim.schedule_at(j.at, RingEvent::JoinRequest { host: j.host });
            }
            for d in plan.drains() {
                sim.schedule_at(d.at, RingEvent::DrainRequest { host: d.host });
            }
        }
        while let Some(ev) = sim.step() {
            self.handle(&mut sim, ev);
            if self.stopped {
                break;
            }
        }
        self.wall_clock = if self.fault_plan.is_some() {
            // Trailing ack/timeout chatter after the last retirement must
            // not pad the reported runtime.
            self.last_progress
        } else {
            sim.now()
        };
        if self.continuous {
            assert!(
                self.stopped || self.proto.fragments_total() == 0,
                "continuous rotation drained its event queue without the app                  declaring itself finished — the ring stalled"
            );
        } else {
            assert_eq!(
                self.proto.fragments_completed(),
                self.proto.fragments_total(),
                "ring run quiesced with unfinished fragments — flow-control deadlock"
            );
        }
        self.finish()
    }

    /// Translates one simulation event into a protocol [`Input`], doing
    /// the driver-side bookkeeping (timing, traces) the protocol cannot.
    // analyze: allow(panic, reason = "protocol invariant: per-host tables are sized to the ring at construction and HostId never exceeds it")
    fn handle(&mut self, sim: &mut Simulation<RingEvent<P>>, ev: RingEvent<P>) {
        match ev {
            RingEvent::SetupDone { host } => {
                if self.proto.is_crashed(host) {
                    return;
                }
                self.hosts[host.0].setup_done = Some(sim.now());
                self.hosts[host.0].last_join_done = sim.now();
                self.busy_until[host.0] = sim.now();
                self.last_progress = self.last_progress.max(sim.now());
                self.tracer.record(sim.now(), host, "setup done");
                self.spans.span(
                    host.0,
                    SpanKind::Setup,
                    "setup",
                    SimTime::ZERO,
                    sim.now().saturating_duration_since(SimTime::ZERO),
                );
                let out = self.proto.input(Input::SetupDone { host });
                self.apply(sim, out);
            }
            RingEvent::JoinDone { host } => {
                if self.proto.is_crashed(host) {
                    // The join died with the host; healing salvages its
                    // envelope.
                    return;
                }
                self.hosts[host.0].last_join_done = sim.now();
                self.last_progress = self.last_progress.max(sim.now());
                // The protocol cannot call the application: sample the
                // continuous-mode finish flag here and pass it in.
                let app_finished = self.continuous && self.app.finished();
                let out = self.proto.input(Input::JoinDone { host, app_finished });
                self.apply(sim, out);
            }
            RingEvent::Arrived { to, env, tid } => {
                let out = self.proto.input(Input::Delivered { to, env, tid });
                self.apply(sim, out);
            }
            RingEvent::SendDone { from, completion } => {
                if let (Some(c), Some((_, qp, _))) = (completion, self.rnics[from.0].as_mut()) {
                    // Reap the send completion from the CQ — the signal
                    // that the buffer element may be reused.
                    qp.complete(c);
                    let reaped = qp.poll_cq();
                    if self.fault_plan.is_none() {
                        // Classic path: completions pair strictly with
                        // posts. Retransmissions can leave several queued,
                        // so the reliable path reaps leniently instead.
                        debug_assert_eq!(reaped.map(|r| r.wr_id), Some(c.wr_id));
                    }
                }
                let out = self.proto.input(Input::SendDone { from });
                self.apply(sim, out);
            }
            RingEvent::AckArrived { tid } => {
                let out = self.proto.input(Input::Ack { tid });
                self.apply(sim, out);
            }
            RingEvent::AckTimeout { tid, attempt } => {
                let out = self.proto.input(Input::Tick {
                    timer: Timer::Retransmit { tid, attempt },
                });
                self.apply(sim, out);
            }
            RingEvent::ProbeTimeout { from, to, attempt } => {
                let out = self.proto.input(Input::Tick {
                    timer: Timer::Probe { from, to, attempt },
                });
                self.apply(sim, out);
            }
            RingEvent::Crash { host } => {
                if self.proto.is_crashed(host) {
                    return;
                }
                let out = self.proto.input(Input::PeerDead { host });
                self.tracer.record(sim.now(), host, "crashed");
                self.spans
                    .event(Some(host.0), Track::Control, "crashed", sim.now());
                self.apply(sim, out);
            }
            RingEvent::Pause { host } => {
                if self.proto.is_crashed(host) {
                    return;
                }
                let out = self.proto.input(Input::Paused { host });
                self.tracer.record(sim.now(), host, "paused");
                self.spans
                    .event(Some(host.0), Track::Control, "paused", sim.now());
                self.apply(sim, out);
            }
            RingEvent::Resume { host } => {
                if self.proto.is_crashed(host) {
                    return;
                }
                self.tracer.record(sim.now(), host, "resumed");
                self.spans
                    .event(Some(host.0), Track::Control, "resumed", sim.now());
                let out = self.proto.input(Input::Resumed { host });
                self.apply(sim, out);
            }
            RingEvent::AbsorbDone { host } => {
                if self.proto.is_crashed(host) {
                    return;
                }
                self.last_progress = self.last_progress.max(sim.now());
                self.tracer.record(sim.now(), host, "absorb complete");
                let out = self.proto.input(Input::AbsorbDone { host });
                self.apply(sim, out);
            }
            RingEvent::JoinRequest { host } => {
                if self.proto.is_crashed(host) {
                    return;
                }
                self.tracer.record(sim.now(), host, "join requested");
                self.spans
                    .event(Some(host.0), Track::Control, "join requested", sim.now());
                let out = self.proto.input(Input::JoinRequest { host });
                self.apply(sim, out);
            }
            RingEvent::DrainRequest { host } => {
                if self.proto.is_crashed(host) {
                    return;
                }
                self.tracer.record(sim.now(), host, "drain requested");
                self.spans
                    .event(Some(host.0), Track::Control, "drain requested", sim.now());
                let out = self.proto.input(Input::DrainRequest { host });
                self.apply(sim, out);
            }
            RingEvent::DrainTimeout { host, attempt } => {
                let out = self.proto.input(Input::Tick {
                    timer: Timer::DrainDeadline { host, attempt },
                });
                self.apply(sim, out);
            }
        }
    }

    /// Applies protocol outputs strictly in emission order. Each output
    /// maps onto simulation events, link/RNIC reservations, cost charges
    /// and traces — all the IO the protocol core abstained from.
    // analyze: allow(panic, reason = "protocol invariant: per-host tables are sized to the ring at construction and HostId never exceeds it; Teardown reasons surface as panics by the driver contract")
    fn apply(&mut self, sim: &mut Simulation<RingEvent<P>>, outputs: Vec<Output<P>>) {
        for output in outputs {
            match output {
                Output::StartJoin {
                    host,
                    id,
                    hop,
                    roles,
                    bytes,
                } => {
                    let d_base = {
                        let query = self.proto.processing_query(host);
                        let payload = self
                            .proto
                            .processing_payload(host)
                            .expect("StartJoin with an empty processing slot");
                        self.app.process(
                            host,
                            query,
                            roles.as_deref().unwrap_or(&[host.0]),
                            sim.now(),
                            payload,
                        )
                    };
                    let d_base = match &self.host_speed {
                        Some(speed) => d_base * (1.0 / speed[host.0]),
                        None => d_base,
                    };
                    let d_base = match &self.fault_plan {
                        Some(plan) => {
                            let slowdown = plan.slowdown(host);
                            if slowdown == 1.0 {
                                d_base
                            } else {
                                d_base * (1.0 / slowdown)
                            }
                        }
                        None => d_base,
                    };
                    let d_eff = self.effective_join_duration(d_base, bytes);
                    let state = &mut self.hosts[host.0];
                    state.join_cpu.charge(
                        CostCategory::Compute,
                        d_base * self.config.join_threads as u64,
                    );
                    state.join_busy += d_eff;
                    self.tracer
                        .record(sim.now(), host, format!("join start {id} for {d_eff}"));
                    if self.spans.is_enabled() {
                        self.record_sync_gap(host, sim.now());
                        self.spans.span_with_hop(
                            host.0,
                            SpanKind::Join,
                            format!("join {id}"),
                            sim.now(),
                            d_eff,
                            Some(hop),
                        );
                        self.busy_until[host.0] = sim.now() + d_eff;
                    }
                    sim.schedule_in(d_eff, RingEvent::JoinDone { host });
                }
                Output::PassThrough { host, id } => {
                    self.tracer
                        .record(sim.now(), host, format!("pass-through {id}"));
                    if self.spans.is_enabled() {
                        self.spans.event(
                            Some(host.0),
                            Track::Join,
                            format!("pass-through {id}"),
                            sim.now(),
                        );
                    }
                }
                Output::Processed { host, id } => {
                    let msg = if self.fault_plan.is_some() {
                        format!("processed {id}, routing onward")
                    } else {
                        format!("processed {id}, queueing forward")
                    };
                    self.tracer.record(sim.now(), host, msg);
                }
                Output::Send {
                    from,
                    to,
                    tid,
                    attempt,
                    env,
                } => self.apply_send(sim, from, to, tid, attempt, env),
                Output::Ack { to, tid } => {
                    // Ack at NIC level on the backward channel of the
                    // sender's link, so acks never contend with payload.
                    let ack = self.network.reserve_hop_back(sim.now(), to, ACK_BYTES);
                    sim.schedule_at(ack.arrival, RingEvent::AckArrived { tid });
                }
                Output::ArmTimer { timer, backoff_exp } => {
                    let delay = self.config.ack_timeout * (1u64 << backoff_exp);
                    let ev = match timer {
                        Timer::Retransmit { tid, attempt } => {
                            RingEvent::AckTimeout { tid, attempt }
                        }
                        Timer::Probe { from, to, attempt } => {
                            RingEvent::ProbeTimeout { from, to, attempt }
                        }
                        Timer::DrainDeadline { host, attempt } => {
                            RingEvent::DrainTimeout { host, attempt }
                        }
                    };
                    sim.schedule_in(delay, ev);
                }
                Output::Delivered { host, id, bytes } => {
                    // Receiver-side CPU cost of the transfer. For RDMA this
                    // is only reaping the completion of the pre-posted
                    // receive; for TCP it is the full copy/stack/interrupt
                    // bill.
                    let cost = match self.config.transport {
                        TransportModel::Rdma(cfg) => {
                            let mut acc = CpuAccount::new();
                            acc.charge(CostCategory::Driver, cfg.completion_overhead);
                            acc
                        }
                        _ => self.config.transport.comm_cpu(self.config.cpu, bytes, 1),
                    };
                    self.hosts[host.0].join_cpu.merge(&cost);
                    self.tracer
                        .record(sim.now(), host, format!("received {id} ({bytes} B)"));
                    if self.spans.is_enabled() {
                        self.spans.event(
                            Some(host.0),
                            Track::Receiver,
                            format!("recv {id}"),
                            sim.now(),
                        );
                        self.spans.count(counter::ENVELOPES_RECEIVED, 1);
                    }
                }
                Output::DuplicateDropped { host, id } => {
                    self.tracer
                        .record(sim.now(), host, format!("duplicate {id} dropped"));
                }
                Output::ChecksumMismatch { host, id } => {
                    self.tracer
                        .record(sim.now(), host, format!("checksum mismatch on {id}"));
                    if self.spans.is_enabled() {
                        self.spans.event(
                            Some(host.0),
                            Track::Receiver,
                            format!("checksum mismatch {id}"),
                            sim.now(),
                        );
                        self.spans.count(counter::CHECKSUM_MISMATCHES, 1);
                    }
                }
                Output::Retire { host, id, salvaged } => {
                    let msg = if salvaged {
                        format!("retired {id} (salvaged)")
                    } else {
                        format!("retired {id}")
                    };
                    self.tracer.record(sim.now(), host, msg.clone());
                    if self.spans.is_enabled() {
                        self.spans.event(Some(host.0), Track::Join, msg, sim.now());
                        self.spans.count(counter::FRAGMENTS_RETIRED, 1);
                    }
                    self.last_progress = self.last_progress.max(sim.now());
                }
                Output::Heal { dead } => {
                    // An escalated drain heals a host with no scheduled
                    // crash: the drain deadline, not a detection timeout,
                    // triggered this heal, so no latency is attributable.
                    let latency = match self.fault_plan.as_ref().and_then(|p| p.crash_time(dead)) {
                        Some(crash_at) => sim.now().saturating_duration_since(crash_at),
                        None => SimDuration::ZERO,
                    };
                    self.detection_latency = self.detection_latency.max(latency);
                    self.tracer.record(
                        sim.now(),
                        dead,
                        format!("confirmed dead ({latency} after crash); healing ring"),
                    );
                    if self.spans.is_enabled() {
                        self.spans.event(
                            None,
                            Track::Control,
                            format!("heal: host {} confirmed dead", dead.0),
                            sim.now(),
                        );
                        self.spans.count(counter::HEAL_EVENTS, 1);
                    }
                }
                Output::Absorb {
                    survivor,
                    dead,
                    roles,
                } => {
                    let mut absorb_cost = SimDuration::ZERO;
                    for &r in &roles {
                        absorb_cost += self.app.absorb(survivor, HostId(r));
                        self.tracer
                            .record(sim.now(), survivor, format!("absorbed role S{r}"));
                    }
                    let state = &mut self.hosts[survivor.0];
                    state.join_cpu.charge(CostCategory::Compute, absorb_cost);
                    state.join_busy += absorb_cost;
                    if self.spans.is_enabled() {
                        self.record_sync_gap(survivor, sim.now());
                        self.spans.span(
                            survivor.0,
                            SpanKind::Absorb,
                            format!("absorb {} role(s) of host {}", roles.len(), dead.0),
                            sim.now(),
                            absorb_cost,
                        );
                        self.busy_until[survivor.0] = sim.now() + absorb_cost;
                    }
                    sim.schedule_in(absorb_cost, RingEvent::AbsorbDone { host: survivor });
                }
                Output::Activate { host, epoch } => {
                    self.last_progress = self.last_progress.max(sim.now());
                    self.tracer
                        .record(sim.now(), host, format!("activated (epoch {epoch})"));
                    if self.spans.is_enabled() {
                        self.spans.event(
                            Some(host.0),
                            Track::Control,
                            format!("activated (epoch {epoch})"),
                            sim.now(),
                        );
                        self.spans.count(counter::RESCALE_JOINS, 1);
                    }
                }
                Output::Handoff { from, to, roles } => {
                    let cost = self.app.handoff(to, from, &roles);
                    for &r in &roles {
                        self.tracer.record(
                            sim.now(),
                            to,
                            format!("handoff: took over role S{r} from host {}", from.0),
                        );
                    }
                    let state = &mut self.hosts[to.0];
                    state.join_cpu.charge(CostCategory::Compute, cost);
                    state.join_busy += cost;
                    if self.spans.is_enabled() {
                        self.record_sync_gap(to, sim.now());
                        self.spans.span(
                            to.0,
                            SpanKind::Absorb,
                            format!("handoff {} role(s) from host {}", roles.len(), from.0),
                            sim.now(),
                            cost,
                        );
                        self.busy_until[to.0] = sim.now() + cost;
                        self.spans
                            .count(counter::RESCALE_HANDOFFS, roles.len() as u64);
                    }
                    sim.schedule_in(cost, RingEvent::AbsorbDone { host: to });
                }
                Output::Departed { host, epoch } => {
                    self.last_progress = self.last_progress.max(sim.now());
                    self.tracer
                        .record(sim.now(), host, format!("departed (epoch {epoch})"));
                    if self.spans.is_enabled() {
                        self.spans.event(
                            Some(host.0),
                            Track::Control,
                            format!("departed (epoch {epoch})"),
                            sim.now(),
                        );
                        self.spans.count(counter::RESCALE_DRAINS, 1);
                    }
                }
                Output::Resent { target, id } => {
                    self.tracer
                        .record(sim.now(), target, format!("re-sent {id} from origin"));
                    if self.spans.is_enabled() {
                        self.spans.event(
                            Some(target.0),
                            Track::Control,
                            format!("re-sent {id} from origin"),
                            sim.now(),
                        );
                        self.spans.count(counter::FRAGMENTS_RESENT, 1);
                    }
                }
                Output::Finished { host } => {
                    self.tracer
                        .record(sim.now(), host, "application finished — stopping rotation");
                    self.stopped = true;
                }
                Output::QueryAdmitted { query, tenant } => {
                    self.last_progress = self.last_progress.max(sim.now());
                    self.tracer.record(
                        sim.now(),
                        HostId(0),
                        format!("query {query} (tenant {tenant}) admitted"),
                    );
                    if self.spans.is_enabled() {
                        self.spans.event(
                            None,
                            Track::Control,
                            format!("query {query} (tenant {tenant}) admitted"),
                            sim.now(),
                        );
                        self.spans.count(counter::QUERIES_ADMITTED, 1);
                    }
                }
                Output::QueryDone { query, tenant } => {
                    self.last_progress = self.last_progress.max(sim.now());
                    self.tracer.record(
                        sim.now(),
                        HostId(0),
                        format!("query {query} (tenant {tenant}) complete"),
                    );
                    if self.spans.is_enabled() {
                        self.spans.event(
                            None,
                            Track::Control,
                            format!("query {query} (tenant {tenant}) complete"),
                            sim.now(),
                        );
                        self.spans.count(counter::QUERIES_COMPLETED, 1);
                    }
                }
                Output::Teardown { reason } => panic!("{reason}"),
            }
        }
    }

    /// Puts one attempt of a transfer on the wire: rolls the fault dice
    /// (the medium's business, not the protocol's), reports the attempt's
    /// fate back, charges the transport cost model, and schedules the
    /// wire-free/arrival events.
    // analyze: allow(panic, reason = "protocol invariant: per-host tables are sized to the ring at construction and HostId never exceeds it")
    fn apply_send(
        &mut self,
        sim: &mut Simulation<RingEvent<P>>,
        from: HostId,
        to: HostId,
        tid: u64,
        attempt: u32,
        env: Envelope<P>,
    ) {
        let bytes = env.bytes();
        let mut sent = env;
        let mut dropped = false;
        let mut spike = SimDuration::ZERO;
        if let Some(plan) = &self.fault_plan {
            // Dice keyed on the per-sender wire sequence (`env.seq`) the
            // protocol stamps for every backend — the cross-backend parity
            // test depends on this.
            let seq = sent.seq;
            dropped = plan.should_drop(from, seq, attempt);
            let corrupt = !dropped && plan.should_corrupt(from, seq, attempt);
            spike = plan.delay_spike(from, seq, attempt);
            self.proto.attempt_fate(tid, dropped, corrupt);
            if corrupt {
                // In-flight bit flips: the receiver's checksum verification
                // rejects the copy and withholds the ack.
                sent.checksum = !sent.checksum;
            }
            if attempt == 1 {
                // Counted once per transfer; each wire attempt (including
                // retransmissions) gets its own `Send` span below.
                self.spans.count(counter::ENVELOPES_SENT, 1);
            } else {
                self.tracer.record(
                    sim.now(),
                    from,
                    format!("retransmit {} (attempt {attempt})", sent.id),
                );
                if self.spans.is_enabled() {
                    self.spans.event(
                        Some(from.0),
                        Track::Transmitter,
                        format!("retransmit {} attempt {attempt}", sent.id),
                        sim.now(),
                    );
                    self.spans.count(counter::RETRANSMITS, 1);
                }
            }
        }
        let mut pending_completion = None;
        let reservation = if let Some((rnic, qp, region)) = self.rnics[from.0].as_mut() {
            // RDMA: post a work request against the registered region; the
            // RNIC moves the data autonomously. Host CPU pays only the
            // posting cost.
            let wr = WorkRequest {
                wr_id: self.next_wr_id,
                region: region.id,
                bytes,
            };
            self.next_wr_id += 1;
            let link = self
                .network
                .outgoing_link_mut(from)
                .expect("multi-host ring has links");
            let outcome = qp.post_send(rnic, link, sim.now(), simnet::link::Direction::Forward, wr);
            self.hosts[from.0]
                .join_cpu
                .charge(CostCategory::Driver, outcome.post_cpu);
            pending_completion = Some(outcome.completion);
            outcome.reservation
        } else {
            // Software TCP: the kernel does the moving; charge the full
            // per-byte CPU bill to the sender.
            let cost = self.config.transport.comm_cpu(self.config.cpu, bytes, 1);
            self.hosts[from.0].join_cpu.merge(&cost);
            self.network.reserve_hop(sim.now(), from, bytes)
        };
        self.hosts[from.0].bytes_forwarded += bytes;
        self.tracer.record(
            sim.now(),
            from,
            format!("send {} ({} B) → {}", sent.id, bytes, to),
        );
        if self.spans.is_enabled() {
            self.spans.span(
                from.0,
                SpanKind::Send,
                format!("send {}", sent.id),
                sim.now(),
                reservation.wire_free.saturating_duration_since(sim.now()),
            );
            if self.fault_plan.is_none() {
                self.spans.count(counter::ENVELOPES_SENT, 1);
            }
        }
        sim.schedule_at(
            reservation.wire_free,
            RingEvent::SendDone {
                from,
                completion: pending_completion,
            },
        );
        if !dropped {
            sim.schedule_at(
                reservation.arrival + spike,
                RingEvent::Arrived { to, env: sent, tid },
            );
        }
    }

    /// Emits a `Sync` span covering the idle gap (if any) between the end
    /// of this host's previous busy interval and `now`. The gaps between
    /// consecutive joins partition the join window's non-busy time, so
    /// their sum reconciles with the `sync` phase of `RingMetrics`.
    // analyze: allow(panic, reason = "protocol invariant: per-host tables are sized to the ring at construction and HostId never exceeds it")
    fn record_sync_gap(&mut self, host: HostId, now: SimTime) {
        let gap = now.saturating_duration_since(self.busy_until[host.0]);
        if gap > SimDuration::ZERO {
            self.spans
                .span(host.0, SpanKind::Sync, "sync", self.busy_until[host.0], gap);
        }
    }

    /// Applies the transport's interference model to a base join duration.
    fn effective_join_duration(&self, d_base: SimDuration, bytes: u64) -> SimDuration {
        let pollution = self.config.transport.pollution_factor();
        if self.config.transport.is_rdma() || self.config.hosts == 1 {
            return d_base;
        }
        // Per processed envelope the host both receives and sends one
        // envelope of comparable size.
        let comm_cpu = self
            .config
            .transport
            .comm_cpu(self.config.cpu, bytes, 1)
            .total_busy()
            * 2;
        let threads = self.config.join_threads as u64;
        let cores = self.config.cpu.cores as u64;
        let contended = (d_base * threads + comm_cpu) / cores;
        d_base.max(contended) * pollution
    }

    fn finish(mut self) -> SimOutcome<A> {
        // Materialise the well-known counters so "observed zero" shows up
        // in exports even on runs that never exercised a protocol path.
        for name in [
            counter::ENVELOPES_SENT,
            counter::ENVELOPES_RECEIVED,
            counter::FRAGMENTS_RETIRED,
            counter::RETRANSMITS,
            counter::CHECKSUM_MISMATCHES,
            counter::HEAL_EVENTS,
            counter::FRAGMENTS_RESENT,
            counter::RESCALE_JOINS,
            counter::RESCALE_DRAINS,
            counter::RESCALE_HANDOFFS,
            counter::VISITS_INLINE,
        ] {
            self.spans.count(name, 0);
        }
        let hosts: Vec<HostMetrics> = self
            .hosts
            .iter()
            .enumerate()
            .map(|(i, h)| {
                let setup_done = h.setup_done.unwrap_or(SimTime::ZERO);
                let window = h.last_join_done.saturating_duration_since(setup_done);
                HostMetrics {
                    setup: setup_done.saturating_duration_since(SimTime::ZERO),
                    join_busy: h.join_busy,
                    sync: window.saturating_sub(h.join_busy),
                    join_window: window,
                    cpu: h.join_cpu,
                    fragments_processed: self.proto.host(HostId(i)).fragments_processed(),
                    visits_inline: 0,
                    bytes_forwarded: h.bytes_forwarded,
                    retransmits: self.proto.retransmits(HostId(i)),
                    checksum_mismatches: self.proto.checksum_mismatches(HostId(i)),
                }
            })
            .collect();
        let metrics = RingMetrics {
            hosts,
            wall_clock: self.wall_clock.saturating_duration_since(SimTime::ZERO),
            fragments_completed: self.proto.fragments_completed(),
            heal_events: self.proto.heal_events(),
            detection_latency: self.detection_latency,
            fragments_resent: self.proto.fragments_resent(),
            membership_epoch: self.proto.membership_epoch(),
            rescale_joins: self.proto.rescale_joins(),
            rescale_drains: self.proto.rescale_drains(),
            rescale_handoffs: self.proto.rescale_handoffs(),
            rescale_escalations: self.proto.rescale_escalations(),
            queries: self.proto.query_metrics(),
        };
        SimOutcome {
            metrics,
            app: self.app,
            trace: self.tracer,
            spans: self.spans,
        }
    }
}

/// Bandwidth helper re-exported for harness code that wants to express the
/// configured TCP cap.
pub fn tcp_wire_cap(config: &RingConfig) -> Bandwidth {
    effective_link(config).throughput().peak()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::FixedCostApp;

    fn payloads(hosts: usize, per_host: usize, bytes: usize) -> Vec<Vec<Vec<u8>>> {
        (0..hosts)
            .map(|_| (0..per_host).map(|_| vec![0u8; bytes]).collect())
            .collect()
    }

    fn small_config(hosts: usize) -> RingConfig {
        RingConfig::paper(hosts)
    }

    #[test]
    fn every_host_processes_every_fragment() {
        let hosts = 4;
        let app = FixedCostApp::new(
            hosts,
            SimDuration::from_millis(1),
            SimDuration::from_millis(2),
        );
        let out = SimRing::new(small_config(hosts), payloads(hosts, 3, 1 << 20), app).run();
        assert_eq!(out.metrics.fragments_completed, 12);
        for h in &out.metrics.hosts {
            assert_eq!(h.fragments_processed, 12, "each host sees all fragments");
        }
        assert_eq!(out.app.processed, vec![12; hosts]);
    }

    #[test]
    fn single_host_ring_needs_no_network() {
        let app = FixedCostApp::new(1, SimDuration::from_millis(5), SimDuration::from_millis(10));
        let out = SimRing::new(small_config(1), payloads(1, 4, 1 << 20), app).run();
        assert_eq!(out.metrics.fragments_completed, 4);
        assert_eq!(out.metrics.hosts[0].bytes_forwarded, 0);
        // 5 ms setup + 4 × 10 ms joins.
        assert_eq!(out.metrics.wall_clock, SimDuration::from_millis(45));
        assert_eq!(out.metrics.sync_time(), SimDuration::ZERO);
    }

    #[test]
    fn communication_overlaps_computation_with_rdma() {
        // Joins slow enough to hide transfers: no sync time expected.
        let hosts = 3;
        let app = FixedCostApp::new(
            hosts,
            SimDuration::from_millis(1),
            SimDuration::from_millis(50),
        );
        let out = SimRing::new(small_config(hosts), payloads(hosts, 2, 1 << 20), app).run();
        // A 1 MB transfer takes ~0.85 ms — far below the 50 ms join.
        let sync = out.metrics.sync_time();
        assert!(
            sync < SimDuration::from_millis(5),
            "sync should be hidden, got {sync}"
        );
    }

    #[test]
    fn fast_joins_expose_sync_time() {
        // Joins much faster than transfers: the join entity must wait.
        let hosts = 3;
        let app = FixedCostApp::new(
            hosts,
            SimDuration::from_millis(1),
            SimDuration::from_micros(100),
        );
        let out = SimRing::new(small_config(hosts), payloads(hosts, 4, 16 << 20), app).run();
        // A 16 MB transfer takes ~13 ms; joins take 0.1 ms.
        let sync = out.metrics.sync_time();
        assert!(
            sync > SimDuration::from_millis(20),
            "transfers must dominate, got sync {sync}"
        );
    }

    #[test]
    fn tcp_runs_slower_than_rdma() {
        let hosts = 4;
        let mk_app = || {
            FixedCostApp::new(
                hosts,
                SimDuration::from_millis(1),
                SimDuration::from_millis(5),
            )
        };
        let rdma = SimRing::new(small_config(hosts), payloads(hosts, 3, 4 << 20), mk_app()).run();
        let tcp = SimRing::new(
            RingConfig::paper_tcp(hosts),
            payloads(hosts, 3, 4 << 20),
            mk_app(),
        )
        .run();
        assert!(
            tcp.metrics.join_time() > rdma.metrics.join_time(),
            "TCP join phase ({}) must exceed RDMA ({})",
            tcp.metrics.join_time(),
            rdma.metrics.join_time()
        );
    }

    #[test]
    fn tcp_charges_communication_cpu() {
        let hosts = 2;
        let app = FixedCostApp::new(
            hosts,
            SimDuration::from_millis(1),
            SimDuration::from_millis(5),
        );
        let out = SimRing::new(
            RingConfig::paper_tcp(hosts),
            payloads(hosts, 2, 4 << 20),
            app,
        )
        .run();
        let copy = out.metrics.hosts[0].cpu.busy(CostCategory::DataCopy);
        assert!(copy > SimDuration::ZERO, "TCP must charge data-copy CPU");
        let rdma_out = SimRing::new(
            small_config(hosts),
            payloads(hosts, 2, 4 << 20),
            FixedCostApp::new(
                hosts,
                SimDuration::from_millis(1),
                SimDuration::from_millis(5),
            ),
        )
        .run();
        assert_eq!(
            rdma_out.metrics.hosts[0].cpu.busy(CostCategory::DataCopy),
            SimDuration::ZERO,
            "RDMA must not copy payload on the CPU"
        );
    }

    #[test]
    fn buffer_depth_one_still_completes() {
        let hosts = 3;
        let app = FixedCostApp::new(
            hosts,
            SimDuration::from_millis(1),
            SimDuration::from_millis(2),
        );
        let cfg = small_config(hosts).with_buffers(1);
        let out = SimRing::new(cfg, payloads(hosts, 4, 1 << 20), app).run();
        assert_eq!(out.metrics.fragments_completed, 12);
    }

    #[test]
    fn deeper_buffers_reduce_sync() {
        let hosts = 4;
        let run = |buffers: usize| {
            let app = FixedCostApp::new(
                hosts,
                SimDuration::from_millis(1),
                SimDuration::from_millis(8),
            );
            let cfg = small_config(hosts).with_buffers(buffers);
            SimRing::new(cfg, payloads(hosts, 4, 8 << 20), app)
                .run()
                .metrics
        };
        let shallow = run(1);
        let deep = run(3);
        assert!(
            deep.join_time() <= shallow.join_time(),
            "deep buffers {} vs shallow {}",
            deep.join_time(),
            shallow.join_time()
        );
    }

    #[test]
    fn uneven_fragment_distribution_completes() {
        let hosts = 3;
        let app = FixedCostApp::new(
            hosts,
            SimDuration::from_millis(1),
            SimDuration::from_millis(2),
        );
        let mut frags = payloads(hosts, 0, 0);
        frags[0] = (0..5).map(|_| vec![0u8; 1 << 20]).collect();
        let out = SimRing::new(small_config(hosts), frags, app).run();
        assert_eq!(out.metrics.fragments_completed, 5);
        for h in &out.metrics.hosts {
            assert_eq!(h.fragments_processed, 5);
        }
    }

    #[test]
    fn empty_run_finishes_after_setup() {
        let hosts = 2;
        let app = FixedCostApp::new(hosts, SimDuration::from_millis(3), SimDuration::ZERO);
        let out = SimRing::new(small_config(hosts), payloads(hosts, 0, 0), app).run();
        assert_eq!(out.metrics.fragments_completed, 0);
        assert_eq!(out.metrics.wall_clock, SimDuration::from_millis(3));
    }

    #[test]
    fn trace_records_the_protocol() {
        let hosts = 2;
        let app = FixedCostApp::new(
            hosts,
            SimDuration::from_millis(1),
            SimDuration::from_millis(2),
        );
        let out = SimRing::new(small_config(hosts), payloads(hosts, 1, 1 << 20), app)
            .with_trace(true)
            .run();
        assert!(out.trace.matching("setup done").count() == 2);
        assert!(out.trace.matching("send").count() >= 1);
        assert!(out.trace.matching("retired").count() == 2);
    }

    #[test]
    fn determinism_same_inputs_same_schedule() {
        let hosts = 3;
        let run = || {
            let app = FixedCostApp::new(
                hosts,
                SimDuration::from_millis(1),
                SimDuration::from_millis(2),
            );
            SimRing::new(small_config(hosts), payloads(hosts, 3, 2 << 20), app)
                .run()
                .metrics
        };
        assert_eq!(run(), run());
    }

    /// App for continuous-mode tests: finishes after a target number of
    /// processed buffers.
    struct CountingApp {
        processed: usize,
        target: usize,
    }

    impl RingApp<Vec<u8>> for CountingApp {
        fn setup(&mut self, _host: HostId) -> SimDuration {
            SimDuration::from_micros(10)
        }

        fn process(
            &mut self,
            _host: HostId,
            _query: u32,
            _roles: &[usize],
            _now: simnet::time::SimTime,
            _payload: &Vec<u8>,
        ) -> SimDuration {
            self.processed += 1;
            SimDuration::from_micros(50)
        }

        fn finished(&self) -> bool {
            self.processed >= self.target
        }
    }

    #[test]
    fn continuous_mode_circulates_past_one_revolution() {
        let hosts = 3;
        let per_host = 2;
        // One revolution = hosts × total fragments = 18 processings; ask
        // for several revolutions' worth.
        let target = hosts * hosts * per_host * 4;
        let app = CountingApp {
            processed: 0,
            target,
        };
        let out = SimRing::new(small_config(hosts), payloads(hosts, per_host, 4096), app)
            .continuous()
            .run();
        assert!(out.app.processed >= target);
        // Every host kept processing well beyond a single revolution.
        for h in &out.metrics.hosts {
            assert!(h.fragments_processed > hosts * per_host);
        }
    }

    #[test]
    fn continuous_mode_stops_promptly_when_finished() {
        let hosts = 2;
        let app = CountingApp {
            processed: 0,
            target: 1,
        };
        let out = SimRing::new(small_config(hosts), payloads(hosts, 3, 1024), app)
            .continuous()
            .run();
        // Stopped at (or just past) the first processed buffer.
        assert!(out.app.processed <= 2, "got {}", out.app.processed);
    }

    #[test]
    fn continuous_single_host_requeues_locally() {
        let app = CountingApp {
            processed: 0,
            target: 10,
        };
        let out = SimRing::new(small_config(1), payloads(1, 2, 1024), app)
            .continuous()
            .run();
        assert!(out.app.processed >= 10);
        assert_eq!(out.metrics.hosts[0].bytes_forwarded, 0);
    }

    #[test]
    #[should_panic(expected = "one fragment list per host")]
    fn fragment_list_shape_is_validated() {
        let app = FixedCostApp::new(2, SimDuration::ZERO, SimDuration::ZERO);
        let _ = SimRing::new(small_config(2), payloads(3, 1, 10), app);
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    use simnet::fault::FaultPlan;
    use simnet::time::SimTime;

    fn fixed_app(hosts: usize) -> FixedCostApp {
        FixedCostApp::new(
            hosts,
            SimDuration::from_millis(1),
            SimDuration::from_millis(2),
        )
    }

    #[test]
    fn quiet_plan_reports_zero_fault_counters() {
        let hosts = 4;
        let classic = SimRing::new(
            small_config(hosts),
            payloads(hosts, 3, 1 << 20),
            fixed_app(hosts),
        )
        .run();
        let reliable = SimRing::new(
            small_config(hosts),
            payloads(hosts, 3, 1 << 20),
            fixed_app(hosts),
        )
        .with_fault_plan(FaultPlan::seeded(9))
        .run();
        assert!(reliable.metrics.fault_free(), "{:?}", reliable.metrics);
        assert_eq!(reliable.metrics.fragments_completed, 12);
        assert_eq!(reliable.app.processed, classic.app.processed);
        // The acknowledged transport is stop-and-wait per hop; acks are tiny
        // backward-direction messages, so the slowdown stays marginal.
        let base = classic.metrics.wall_clock.as_secs_f64();
        let rel = reliable.metrics.wall_clock.as_secs_f64();
        assert!(
            rel <= base * 1.10,
            "quiet reliable transport must stay within 10% of classic: {rel} vs {base}"
        );
    }

    #[test]
    fn crash_mid_revolution_heals_and_completes() {
        let hosts = 4;
        let plan = FaultPlan::seeded(5).crash_host(HostId(2), SimTime::from_nanos(5_000_000));
        let cfg = small_config(hosts)
            .with_ack_timeout(SimDuration::from_millis(5))
            .with_max_retransmits(3);
        let out = SimRing::new(cfg, payloads(hosts, 2, 1 << 20), fixed_app(hosts))
            .with_fault_plan(plan)
            .with_trace(true)
            .run();
        // Every fragment still completes a logical full revolution: the
        // successor absorbed the dead host's role, and origin re-sends
        // replaced whatever died in H2's buffers.
        assert_eq!(
            out.metrics.fragments_completed, 8,
            "trace:\n{:?}",
            out.trace
        );
        assert_eq!(out.metrics.heal_events, 1);
        assert!(out.metrics.detection_latency > SimDuration::ZERO);
        assert!(
            out.metrics.total_retransmits() > 0,
            "death is detected via timeouts"
        );
        assert!(out.trace.matching("confirmed dead").count() >= 1);
        assert!(out.trace.matching("absorbed role").count() >= 1);
        assert!(out.metrics.hosts[2].fragments_processed < 8);
    }

    #[test]
    fn crash_is_deterministic() {
        let run = || {
            let hosts = 4;
            let plan = FaultPlan::seeded(5).crash_host(HostId(1), SimTime::from_nanos(4_000_000));
            let cfg = small_config(hosts)
                .with_ack_timeout(SimDuration::from_millis(5))
                .with_max_retransmits(3);
            SimRing::new(cfg, payloads(hosts, 2, 1 << 20), fixed_app(hosts))
                .with_fault_plan(plan)
                .run()
                .metrics
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn lossy_link_retransmits_until_delivery() {
        let hosts = 3;
        let plan = FaultPlan::seeded(7).lossy_link(HostId(0), 0.3);
        let cfg = small_config(hosts).with_ack_timeout(SimDuration::from_millis(5));
        let out = SimRing::new(cfg, payloads(hosts, 4, 1 << 20), fixed_app(hosts))
            .with_fault_plan(plan)
            .run();
        assert_eq!(out.metrics.fragments_completed, 12);
        assert_eq!(out.app.processed, vec![12; hosts]);
        assert!(out.metrics.hosts[0].retransmits > 0);
        assert_eq!(
            out.metrics.heal_events, 0,
            "losses alone must not kill hosts"
        );
    }

    #[test]
    fn corrupt_link_counts_mismatches_at_the_receiver() {
        let hosts = 3;
        let plan = FaultPlan::seeded(7).corrupt_link(HostId(1), 0.5);
        let cfg = small_config(hosts).with_ack_timeout(SimDuration::from_millis(5));
        let out = SimRing::new(cfg, payloads(hosts, 4, 1 << 20), fixed_app(hosts))
            .with_fault_plan(plan)
            .run();
        assert_eq!(out.metrics.fragments_completed, 12);
        assert!(
            out.metrics.hosts[2].checksum_mismatches > 0,
            "{:?}",
            out.metrics
        );
        assert!(out.metrics.hosts[1].retransmits > 0);
    }

    #[test]
    fn paused_host_backpressures_without_dying() {
        let hosts = 3;
        let plan = FaultPlan::seeded(0).pause_host(
            HostId(1),
            SimTime::from_nanos(2_000_000),
            SimDuration::from_millis(40),
        );
        let quiet = SimRing::new(
            small_config(hosts),
            payloads(hosts, 2, 1 << 20),
            fixed_app(hosts),
        )
        .with_fault_plan(FaultPlan::seeded(0))
        .run();
        let out = SimRing::new(
            small_config(hosts),
            payloads(hosts, 2, 1 << 20),
            fixed_app(hosts),
        )
        .with_fault_plan(plan)
        .with_trace(true)
        .run();
        assert_eq!(out.metrics.fragments_completed, 6);
        assert_eq!(out.app.processed, vec![6; hosts]);
        // The NIC keeps acknowledging while the software is frozen, so the
        // failure detector must not fire.
        assert_eq!(out.metrics.heal_events, 0);
        assert!(out.trace.matching("paused").count() >= 1);
        assert!(out.trace.matching("resumed").count() >= 1);
        assert!(
            out.metrics.wall_clock > quiet.metrics.wall_clock,
            "a 40 ms freeze must stretch the run: {} vs {}",
            out.metrics.wall_clock,
            quiet.metrics.wall_clock
        );
    }

    #[test]
    fn straggler_slowdown_stretches_the_join_phase() {
        let hosts = 3;
        let run = |plan: FaultPlan| {
            SimRing::new(
                small_config(hosts),
                payloads(hosts, 3, 1 << 20),
                fixed_app(hosts),
            )
            .with_fault_plan(plan)
            .run()
            .metrics
        };
        let quiet = run(FaultPlan::seeded(0));
        let slow = run(FaultPlan::seeded(0).slow_host(HostId(1), 0.25));
        assert_eq!(slow.fragments_completed, 9);
        assert!(
            slow.hosts[1].join_busy > quiet.hosts[1].join_busy,
            "a 4× straggler must be busy longer"
        );
        assert!(slow.wall_clock > quiet.wall_clock);
    }

    #[test]
    fn delay_spikes_are_absorbed() {
        let hosts = 3;
        let plan = FaultPlan::seeded(3).delay_spikes(HostId(0), 0.5, SimDuration::from_millis(1));
        let out = SimRing::new(
            small_config(hosts),
            payloads(hosts, 3, 1 << 20),
            fixed_app(hosts),
        )
        .with_fault_plan(plan)
        .run();
        assert_eq!(out.metrics.fragments_completed, 9);
        assert_eq!(out.app.processed, vec![9; hosts]);
    }

    #[test]
    #[should_panic(expected = "run-to-retirement")]
    fn continuous_mode_rejects_fault_plans() {
        let app = CountingApp {
            processed: 0,
            target: 5,
        };
        let _ = SimRing::new(small_config(2), payloads(2, 1, 1024), app)
            .continuous()
            .with_fault_plan(FaultPlan::seeded(0))
            .run();
    }

    #[test]
    #[should_panic(expected = "single-host ring")]
    fn single_host_crash_is_rejected() {
        let plan = FaultPlan::seeded(0).crash_host(HostId(0), SimTime::from_nanos(1));
        let _ = SimRing::new(small_config(1), payloads(1, 1, 1024), fixed_app(1))
            .with_fault_plan(plan)
            .run();
    }

    // ------------------------------------------------------------------
    // Structured span tracing
    // ------------------------------------------------------------------

    use simnet::span::{counter, SpanKind};

    #[test]
    fn traced_run_reconciles_spans_with_metrics() {
        let hosts = 3;
        let per_host = 2;
        let out = SimRing::new(
            small_config(hosts),
            payloads(hosts, per_host, 1 << 20),
            fixed_app(hosts),
        )
        .with_trace(true)
        .run();
        assert!(out.spans.is_enabled());
        // Span totals must reconcile *exactly*: both sides are bookkept in
        // virtual time from the same event sites.
        for (h, m) in out.metrics.hosts.iter().enumerate() {
            assert_eq!(
                out.spans.total(h, SpanKind::Setup),
                m.setup,
                "host {h} setup"
            );
            assert_eq!(out.spans.busy_total(h), m.join_busy, "host {h} join_busy");
            assert_eq!(out.spans.total(h, SpanKind::Sync), m.sync, "host {h} sync");
        }
        let c = out.spans.counters();
        assert_eq!(
            c.get(counter::FRAGMENTS_RETIRED) as usize,
            out.metrics.fragments_completed
        );
        // Every fragment crosses hosts-1 wires, each crossing received once.
        assert_eq!(
            c.get(counter::ENVELOPES_SENT) as usize,
            out.metrics.fragments_completed * (hosts - 1)
        );
        assert_eq!(
            c.get(counter::ENVELOPES_SENT),
            c.get(counter::ENVELOPES_RECEIVED)
        );
        assert_eq!(c.get(counter::RETRANSMITS), 0);
        assert_eq!(c.get(counter::HEAL_EVENTS), 0);
        // Every join span carries a hop annotation within the ring size.
        for s in out
            .spans
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Join)
        {
            assert!(
                matches!(s.hop, Some(h) if h < hosts),
                "join span without hop: {s:?}"
            );
        }
        let json = out.spans.to_chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn untraced_run_keeps_spans_disabled() {
        let hosts = 2;
        let out = SimRing::new(
            small_config(hosts),
            payloads(hosts, 1, 1 << 20),
            fixed_app(hosts),
        )
        .run();
        assert!(!out.spans.is_enabled());
        assert!(out.spans.spans().is_empty());
        assert!(out.spans.events().is_empty());
    }

    #[test]
    fn traced_lossy_run_reconciles_protocol_counters() {
        let hosts = 3;
        let plan = FaultPlan::seeded(7).lossy_link(HostId(0), 0.3);
        let cfg = small_config(hosts).with_ack_timeout(SimDuration::from_millis(5));
        let out = SimRing::new(cfg, payloads(hosts, 4, 1 << 20), fixed_app(hosts))
            .with_fault_plan(plan)
            .with_trace(true)
            .run();
        let c = out.spans.counters();
        assert_eq!(c.get(counter::RETRANSMITS), out.metrics.total_retransmits());
        assert!(c.get(counter::RETRANSMITS) > 0);
        assert!(out.spans.count_events("retransmit") > 0);
        assert_eq!(
            c.get(counter::FRAGMENTS_RETIRED) as usize,
            out.metrics.fragments_completed
        );
        // join_busy is incremented at the same sites that emit Join/Absorb
        // spans, so busy totals stay exact even under faults.
        for (h, m) in out.metrics.hosts.iter().enumerate() {
            assert_eq!(out.spans.busy_total(h), m.join_busy, "host {h} join_busy");
        }
    }

    #[test]
    fn traced_heal_run_records_absorb_and_heal_events() {
        let hosts = 4;
        let plan = FaultPlan::seeded(5).crash_host(HostId(2), SimTime::from_nanos(5_000_000));
        let cfg = small_config(hosts)
            .with_ack_timeout(SimDuration::from_millis(5))
            .with_max_retransmits(3);
        let out = SimRing::new(cfg, payloads(hosts, 2, 1 << 20), fixed_app(hosts))
            .with_fault_plan(plan)
            .with_trace(true)
            .run();
        let c = out.spans.counters();
        assert_eq!(
            c.get(counter::HEAL_EVENTS) as usize,
            out.metrics.heal_events
        );
        assert_eq!(
            c.get(counter::FRAGMENTS_RESENT) as usize,
            out.metrics.fragments_resent
        );
        assert!(out.spans.count_events("heal:") >= 1);
        // The successor's absorb shows up as an Absorb span (zero-duration
        // here: FixedCostApp absorbs for free), and its join_busy — which
        // includes the absorb cost — still reconciles.
        assert!(out
            .spans
            .spans()
            .iter()
            .any(|s| s.kind == SpanKind::Absorb && s.host == 3));
        for (h, m) in out.metrics.hosts.iter().enumerate() {
            assert_eq!(out.spans.busy_total(h), m.join_busy, "host {h} join_busy");
        }
    }

    #[test]
    fn planned_drain_departs_and_completes() {
        let hosts = 3;
        let plan = RescalePlan::seeded(11).drain_host(HostId(1), SimTime::from_nanos(5_000_000));
        let cfg = small_config(hosts).with_ack_timeout(SimDuration::from_millis(5));
        let out = SimRing::new(cfg, payloads(hosts, 2, 1 << 20), fixed_app(hosts))
            .with_rescale_plan(plan)
            .with_trace(true)
            .run();
        assert_eq!(
            out.metrics.fragments_completed, 6,
            "trace:\n{:?}",
            out.trace
        );
        assert_eq!(out.metrics.membership_epoch, 1);
        assert_eq!(out.metrics.rescale_drains, 1);
        assert_eq!(out.metrics.rescale_joins, 0);
        assert_eq!(out.metrics.rescale_handoffs, 1, "host 1's one role moved");
        assert_eq!(out.metrics.rescale_escalations, 0);
        assert_eq!(out.metrics.heal_events, 0, "a drain is not a fault");
        let c = out.spans.counters();
        assert_eq!(c.get(counter::RESCALE_DRAINS), 1);
        assert_eq!(c.get(counter::RESCALE_HANDOFFS), 1);
        assert!(out.spans.count_events("drain requested") == 1);
        assert!(out.spans.count_events("departed") == 1);
        assert!(out
            .spans
            .spans()
            .iter()
            .any(|s| s.kind == SpanKind::Absorb && s.name.starts_with("handoff")));
        for (h, m) in out.metrics.hosts.iter().enumerate() {
            assert_eq!(out.spans.busy_total(h), m.join_busy, "host {h} join_busy");
        }
    }

    #[test]
    fn standby_join_rescales_the_sim_ring() {
        // A 3-host ring where host 2 starts as a standby: rendezvous
        // hashing over the grown member set moves role 0 to the newcomer
        // (a pure function of ids, independent of any seed), so the
        // joined host must both relay and process.
        let hosts = 3;
        let plan = RescalePlan::seeded(21).join_host(HostId(2), SimTime::from_nanos(2_000_000));
        let cfg = small_config(hosts).with_ack_timeout(SimDuration::from_millis(5));
        let mut frags = payloads(hosts, 2, 1 << 20);
        frags[2].clear(); // the standby provisions no fragments
        let out = SimRing::new(cfg, frags, fixed_app(hosts))
            .with_rescale_plan(plan)
            .with_trace(true)
            .run();
        assert_eq!(
            out.metrics.fragments_completed, 4,
            "trace:\n{:?}",
            out.trace
        );
        assert_eq!(out.metrics.membership_epoch, 1);
        assert_eq!(out.metrics.rescale_joins, 1);
        assert_eq!(out.metrics.rescale_drains, 0);
        // Which of the two initial roles move to the newcomer is a pure
        // function of rendezvous hashing over the grown member set.
        let grown: Vec<HostId> = (0..hosts).map(HostId).collect();
        let expected = (0..hosts - 1)
            .filter(|&r| crate::protocol::rendezvous_owner(r, &grown) == Some(HostId(2)))
            .count() as u64;
        assert!(expected > 0, "this ring shape must move at least one role");
        assert_eq!(out.metrics.rescale_handoffs, expected);
        assert_eq!(out.spans.counters().get(counter::RESCALE_JOINS), 1);
        assert!(out.spans.count_events("activated") == 1);
        // The newcomer did real work after joining.
        assert!(out.app.processed[2] > 0, "joined host must process buffers");
    }

    #[test]
    fn drain_then_join_bumps_two_epochs() {
        let hosts = 4;
        let plan = RescalePlan::seeded(31)
            .join_host(HostId(3), SimTime::from_nanos(2_000_000))
            .drain_host(HostId(0), SimTime::from_nanos(6_000_000));
        let cfg = small_config(hosts).with_ack_timeout(SimDuration::from_millis(5));
        let mut frags = payloads(hosts, 2, 1 << 20);
        frags[3].clear();
        let out = SimRing::new(cfg, frags, fixed_app(hosts))
            .with_rescale_plan(plan)
            .run();
        assert_eq!(out.metrics.fragments_completed, 6);
        assert_eq!(out.metrics.membership_epoch, 2, "one join + one drain");
        assert_eq!(out.metrics.rescale_joins, 1);
        assert_eq!(out.metrics.rescale_drains, 1);
        assert_eq!(out.metrics.rescale_escalations, 0);
        assert!(out.metrics.fault_free(), "{:?}", out.metrics);
    }

    #[test]
    #[should_panic(expected = "must not contribute fragments")]
    fn standby_with_fragments_is_rejected() {
        let hosts = 3;
        let plan = RescalePlan::seeded(1).join_host(HostId(2), SimTime::from_nanos(1_000));
        SimRing::new(
            small_config(hosts),
            payloads(hosts, 1, 1 << 10),
            fixed_app(hosts),
        )
        .with_rescale_plan(plan)
        .run();
    }

    // ------------------------------------------------------------------
    // Multi-tenant multiplexing
    // ------------------------------------------------------------------

    fn tenant_queries(
        hosts: usize,
        queries: usize,
        per_host: usize,
        bytes: usize,
    ) -> Vec<(u32, Vec<Vec<Vec<u8>>>)> {
        (0..queries)
            .map(|q| (q as u32, payloads(hosts, per_host, bytes)))
            .collect()
    }

    #[test]
    fn multiplexed_queries_all_complete() {
        let hosts = 4;
        let queries = 3;
        let cfg = small_config(hosts).with_ack_timeout(SimDuration::from_millis(5));
        let out = SimRing::new_queries(
            cfg,
            tenant_queries(hosts, queries, 2, 1 << 20),
            2,
            fixed_app(hosts),
        )
        .run();
        assert_eq!(out.metrics.fragments_completed, queries * hosts * 2);
        assert_eq!(out.metrics.queries.len(), queries);
        for (q, m) in out.metrics.queries.iter().enumerate() {
            assert_eq!(m.tenant, q as u32);
            assert!(m.completed, "query {q} must finish: {m:?}");
            assert_eq!(m.fragments_completed, hosts * 2);
        }
        // Every host processed every fragment of every query.
        assert_eq!(out.app.processed, vec![queries * hosts * 2; hosts]);
    }

    #[test]
    fn four_concurrent_queries_survive_faults() {
        // The acceptance bar: one ring sustains >= 4 concurrently active
        // queries with the fault dice hot (loss + corruption on every
        // link) and still completes every query exactly once.
        let hosts = 4;
        let queries = 4;
        let mut plan = FaultPlan::seeded(77);
        for h in 0..hosts {
            plan = plan
                .lossy_link(HostId(h), 0.08)
                .corrupt_link(HostId(h), 0.05);
        }
        let cfg = small_config(hosts)
            .with_ack_timeout(SimDuration::from_millis(5))
            .with_max_retransmits(6);
        let out = SimRing::new_queries(
            cfg,
            tenant_queries(hosts, queries, 2, 1 << 20),
            queries,
            fixed_app(hosts),
        )
        .with_fault_plan(plan)
        .run();
        assert_eq!(out.metrics.fragments_completed, queries * hosts * 2);
        assert!(out.metrics.queries.iter().all(|m| m.completed));
        assert!(
            out.metrics.total_retransmits() > 0,
            "the dice must actually bite: {:?}",
            out.metrics
        );
        assert_eq!(out.app.processed, vec![queries * hosts * 2; hosts]);
    }

    #[test]
    fn admission_bound_serializes_queries() {
        // max_active = 1: queries run strictly one at a time, yet all
        // complete — the admission queue drains on each completion.
        let hosts = 3;
        let queries = 4;
        let cfg = small_config(hosts).with_ack_timeout(SimDuration::from_millis(5));
        let out = SimRing::new_queries(
            cfg,
            tenant_queries(hosts, queries, 1, 1 << 18),
            1,
            fixed_app(hosts),
        )
        .with_trace(true)
        .run();
        assert!(out.metrics.queries.iter().all(|m| m.completed));
        let c = out.spans.counters();
        assert_eq!(c.get(counter::QUERIES_ADMITTED), queries as u64);
        assert_eq!(c.get(counter::QUERIES_COMPLETED), queries as u64);
    }

    #[test]
    fn multiplexed_crash_heals_once_and_completes_all() {
        let hosts = 4;
        let queries = 2;
        let plan = FaultPlan::seeded(11).crash_host(HostId(2), SimTime::from_nanos(5_000_000));
        let cfg = small_config(hosts)
            .with_ack_timeout(SimDuration::from_millis(5))
            .with_max_retransmits(3);
        let out = SimRing::new_queries(
            cfg,
            tenant_queries(hosts, queries, 2, 1 << 20),
            queries,
            fixed_app(hosts),
        )
        .with_fault_plan(plan)
        .run();
        assert_eq!(out.metrics.heal_events, 1);
        assert!(out.metrics.queries.iter().all(|m| m.completed));
        assert_eq!(out.metrics.fragments_completed, queries * hosts * 2);
    }
}
