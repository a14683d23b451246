//! The simulated ring backend: Data Roundabout inside a discrete-event
//! simulation.
//!
//! Every protocol decision — credit flow control, ack/retransmit ledger,
//! healing — lives in the sans-IO [`crate::protocol`] core, and every
//! decision an applier makes that is *not* about cost — what an output
//! looks like in a trace, which plans are legal, which dice are rolled per
//! attempt, what a fired timer means — is shared with the wall-clock
//! drivers in `coordinator.rs`. This file keeps the cost model: it
//! maps [`Output`]s onto `simnet` events, link and RNIC reservations and
//! CPU charges, emits the spans whose durations only the model knows, and
//! feeds the resulting observations back as [`Input`]s.
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
use simnet::span::{SpanKind, SpanTracer, Track};
use simnet::throughput::{Bandwidth, ChunkThroughput};
use simnet::time::{SimDuration, SimTime};
use simnet::topology::{HostId, RingNetwork};
use simnet::transport::TransportModel;

use crate::app::RingApp;
use crate::config::RingConfig;
use crate::coordinator::{
    dice, materialize_counters, observe, ring_metrics, roll, scheduled, takeover_name, validate,
    TimerKind,
};
use crate::envelope::{Envelope, PayloadBytes};
use crate::error::RingError;
use crate::inflight::{launch_owned, InFlight};
use crate::metrics::{HostMetrics, RingMetrics};
use crate::protocol::{
    envelope_batches, query_batches, Input, Output, ProtocolConfig, RingProtocol,
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
    /// A takeover rebuild — healing absorb or planned handoff — finished
    /// and the host may join again.
    AbsorbDone {
        host: HostId,
    },
    Arrived {
        to: HostId,
        env: Envelope<InFlight<P>>,
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
    /// A protocol backoff expired, or an event a plan scheduled is due.
    Timer(TimerKind),
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

/// The simulator's contract for a refused run: the typed refusal of the
/// shared rule table, as a panic.
// analyze: allow(panic, reason = "driver contract: the simulated backend reports refused configurations, shapes and plans by panicking with the typed error's message")
fn accept(checked: Result<(), RingError>) {
    if let Err(refused) = checked {
        panic!("{refused}");
    }
}

impl<P: PayloadBytes + Clone, A: RingApp<P>> SimRing<P, A> {
    /// Prepares a run: `fragments[h]` are the local fragments host `h`
    /// contributes to the rotation.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `fragments.len()` differs
    /// from the configured host count.
    pub fn new(config: RingConfig, fragments: Vec<Vec<P>>, app: A) -> Self {
        accept(validate(&config, None, None, &[&fragments], None, true));
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
    /// Panics if the configuration is invalid, the ring has fewer than two
    /// hosts, any query's fragment list count differs from the host count,
    /// `queries` is empty or `max_active` is zero.
    pub fn new_queries(
        config: RingConfig,
        queries: QuerySpecs<P>,
        max_active: usize,
        app: A,
    ) -> Self {
        let shapes: Vec<&[Vec<P>]> = queries.iter().map(|(_, f)| f.as_slice()).collect();
        accept(validate(
            &config,
            None,
            None,
            &shapes,
            Some(max_active),
            true,
        ));
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
    /// `run` panics if the plan is combined with continuous rotation, or
    /// with the message of the [`RingError::UnsupportedFault`] the
    /// wall-clock drivers return for the same plan: a crash scheduled on a
    /// single-host ring (there is nobody left to heal), a host outside the
    /// ring, more than 64 hosts (the exactly-once ledger is a 64-bit role
    /// bitmask).
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
    /// `run` panics if the plan is combined with continuous rotation, or
    /// with the message of the [`RingError::UnsupportedFault`] the
    /// wall-clock drivers return for the same plan: more than 64 hosts, a
    /// host outside the ring, every host a standby, or a scheduled join
    /// host that contributes fragments.
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

    /// Enables structured span recording for this run.
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

    /// Runs the ring to quiescence and returns metrics, app and spans.
    ///
    /// # Panics
    ///
    /// Panics if the run ends with unfinished fragments (which would mean
    /// a flow-control deadlock — a bug, not a configuration problem), or
    /// if the protocol tears the run down (for example an exhausted
    /// retransmission budget on a live ring).
    pub fn run(self) -> SimOutcome<A> {
        let (runner, schedule) = Runner::new(self);
        runner.run(schedule)
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
    /// decision is its — over the same in-flight payloads as the
    /// wall-clock coordinator, so a retransmission attempt holds its
    /// payload by reference count.
    proto: RingProtocol<InFlight<P>>,
    /// The protocol's output sink, drained by every `apply` and kept for
    /// the whole run.
    outputs: Vec<Output<InFlight<P>>>,
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
    spans: SpanTracer,
    /// Per-host end of the last busy interval (join or absorb), used only
    /// for emitting `Sync` spans: the gap from here to the next join start
    /// is exactly the idle time `RingMetrics` reports as `sync`.
    busy_until: Vec<SimTime>,
    /// The medium's dice (loss, corruption, spikes, crash schedule) as
    /// [`dice`] resolved them: quiet ones when only a rescale plan or
    /// multiplexing asks for the reliable transport, `None` on the classic
    /// path. The protocol core never sees them; [`roll`] reports each
    /// attempt's fate.
    fault_plan: Option<FaultPlan>,
    detection_latency: SimDuration,
    /// Last instant of real progress (setup, join, retirement, absorb) —
    /// the fault-mode wall clock, so trailing ack chatter does not pad the
    /// reported runtime.
    last_progress: SimTime,
}

impl<P: PayloadBytes + Clone, A: RingApp<P>> Runner<P, A> {
    /// Validates `ring` against the shared rule table and builds its
    /// runner, plus the plans' schedule: crashes, pauses, joins and drains
    /// pinned to virtual instants.
    fn new(ring: SimRing<P, A>) -> (Self, Vec<(SimTime, TimerKind)>) {
        let n = ring.config.hosts;
        if let Some(speed) = &ring.host_speed {
            assert_eq!(speed.len(), n, "need one speed factor per host");
            assert!(
                speed.iter().all(|s| s.is_finite() && *s > 0.0),
                "host speed factors must be finite and positive"
            );
        }
        let (fault, rescale) = (ring.fault_plan.as_ref(), ring.rescale_plan.as_ref());
        assert!(
            !ring.continuous || (fault.is_none() && rescale.is_none()),
            "fault injection and rescale require run-to-retirement mode, not continuous rotation"
        );
        let shapes: Vec<&[Vec<P>]> = match &ring.queries {
            Some((queries, _)) => queries.iter().map(|(_, f)| f.as_slice()).collect(),
            None => vec![&ring.fragments],
        };
        let admission = ring.queries.as_ref().map(|(_, max_active)| *max_active);
        accept(validate(
            &ring.config,
            fault,
            rescale,
            &shapes,
            admission,
            true,
        ));
        let schedule = scheduled(fault, rescale);
        let standby = rescale.map_or(0, RescalePlan::standby_mask);
        let fault_plan = dice(fault, rescale, admission.is_some()).map(|plan| plan.into_owned());
        let network = RingNetwork::new(n, effective_link(&ring.config));
        let max_fragment_bytes = shapes
            .iter()
            .flat_map(|fragments| fragments.iter().flatten())
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
                let queries = query_batches(queries, n)
                    .into_iter()
                    .map(|(tenant, envelopes)| (tenant, launch_owned(envelopes)))
                    .collect();
                RingProtocol::new_multi(proto_cfg, queries, max_active)
            }
            None => RingProtocol::new(proto_cfg, launch_owned(envelope_batches(ring.fragments, n))),
        };
        let runner = Runner {
            config: ring.config,
            app: ring.app,
            continuous: ring.continuous,
            stopped: false,
            network,
            proto,
            outputs: Vec::new(),
            hosts: (0..n).map(|_| DriverHost::new()).collect(),
            rnics,
            host_speed: ring.host_speed,
            next_wr_id: 0,
            spans: if ring.trace {
                SpanTracer::enabled()
            } else {
                SpanTracer::disabled()
            },
            busy_until: vec![SimTime::ZERO; n],
            fault_plan,
            detection_latency: SimDuration::ZERO,
            last_progress: SimTime::ZERO,
        };
        (runner, schedule)
    }

    fn run(mut self, schedule: Vec<(SimTime, TimerKind)>) -> SimOutcome<A> {
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
        for (at, kind) in schedule {
            sim.schedule_at(at, RingEvent::Timer(kind));
        }
        while let Some(ev) = sim.step() {
            self.handle(&mut sim, ev);
            if self.stopped {
                break;
            }
        }
        if self.continuous {
            assert!(
                self.stopped || self.proto.fragments_total() == 0,
                "continuous rotation drained its event queue without the app \
                 declaring itself finished — the ring stalled"
            );
        } else {
            assert_eq!(
                self.proto.fragments_completed(),
                self.proto.fragments_total(),
                "ring run quiesced with unfinished fragments — flow-control deadlock"
            );
        }
        let wall_clock = if self.fault_plan.is_some() {
            // Trailing ack/timeout chatter after the last retirement must
            // not pad the reported runtime.
            self.last_progress
        } else {
            sim.now()
        };
        self.finish(wall_clock)
    }

    /// Feeds one input to the protocol and applies what it answers.
    fn input(&mut self, sim: &mut Simulation<RingEvent<P>>, input: Input<InFlight<P>>) {
        let mut outputs = std::mem::take(&mut self.outputs);
        self.proto.input_into(input, &mut outputs);
        self.apply(sim, &mut outputs);
        self.outputs = outputs;
    }

    fn progressed(&mut self, now: SimTime) {
        self.last_progress = self.last_progress.max(now);
    }

    /// Translates one simulation event into a protocol [`Input`], doing
    /// the driver-side bookkeeping (timing, spans) the protocol cannot.
    // analyze: allow(panic, reason = "protocol invariant: per-host tables are sized to the ring at construction and HostId never exceeds it")
    fn handle(&mut self, sim: &mut Simulation<RingEvent<P>>, ev: RingEvent<P>) {
        let now = sim.now();
        let input = match ev {
            RingEvent::SetupDone { host } => {
                if self.proto.is_crashed(host) {
                    return;
                }
                self.hosts[host.0].setup_done = Some(now);
                self.hosts[host.0].last_join_done = now;
                self.busy_until[host.0] = now;
                self.progressed(now);
                self.spans.span(
                    host.0,
                    SpanKind::Setup,
                    "setup",
                    SimTime::ZERO,
                    now.saturating_duration_since(SimTime::ZERO),
                );
                Input::SetupDone { host }
            }
            RingEvent::JoinDone { host } => {
                if self.proto.is_crashed(host) {
                    // The join died with the host; healing salvages its
                    // envelope.
                    return;
                }
                self.hosts[host.0].last_join_done = now;
                self.progressed(now);
                // The protocol cannot call the application: sample the
                // continuous-mode finish flag here and pass it in.
                let app_finished = self.continuous && self.app.finished();
                Input::JoinDone { host, app_finished }
            }
            RingEvent::AbsorbDone { host } => {
                if self.proto.is_crashed(host) {
                    return;
                }
                self.progressed(now);
                Input::AbsorbDone { host }
            }
            RingEvent::Arrived { to, env, tid } => Input::Delivered { to, env, tid },
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
                Input::SendDone { from }
            }
            RingEvent::AckArrived { tid } => Input::Ack { tid },
            RingEvent::Timer(kind) => {
                let (input, planned) = kind.fired();
                if let Some((host, name)) = planned {
                    if self.proto.is_crashed(host) {
                        return;
                    }
                    self.spans.event(Some(host.0), Track::Control, name, now);
                }
                input
            }
        };
        self.input(sim, input);
    }

    /// Applies protocol outputs strictly in emission order: each is shown
    /// to the shared trace vocabulary, then mapped onto simulation events,
    /// link/RNIC reservations and cost charges — all the IO the protocol
    /// core abstained from.
    // analyze: allow(panic, reason = "protocol invariant: per-host tables are sized to the ring at construction and HostId never exceeds it; Teardown reasons surface as panics by the driver contract")
    fn apply(
        &mut self,
        sim: &mut Simulation<RingEvent<P>>,
        outputs: &mut Vec<Output<InFlight<P>>>,
    ) {
        let now = sim.now();
        for output in outputs.drain(..) {
            observe(&mut self.spans, || now, &output);
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
                        let app = &mut self.app;
                        self.proto
                            .processing_payload(host)
                            .and_then(InFlight::payload)
                            .map(|p| {
                                let own = [host.0];
                                let roles = roles.as_deref().unwrap_or(&own);
                                app.process(host, query, roles, now, p)
                            })
                            .expect("StartJoin with an empty processing slot")
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
                    let threads = self.config.join_threads as u64;
                    let span = self
                        .spans
                        .is_enabled()
                        .then(|| (SpanKind::Join, format!("join {id}"), Some(hop)));
                    self.busy(now, host, d_base * threads, d_eff, span);
                    sim.schedule_in(d_eff, RingEvent::JoinDone { host });
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
                    let ack = self.network.reserve_hop_back(now, to, ACK_BYTES);
                    sim.schedule_at(ack.arrival, RingEvent::AckArrived { tid });
                }
                Output::ArmTimer { timer, backoff_exp } => {
                    let delay = self.config.ack_timeout * (1u64 << backoff_exp);
                    sim.schedule_in(delay, RingEvent::Timer(TimerKind::Protocol(timer)));
                }
                Output::Delivered { host, bytes, .. } => {
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
                }
                Output::Heal { dead } => {
                    // An escalated drain heals a host with no scheduled
                    // crash: the drain deadline, not a detection timeout,
                    // triggered this heal, so no latency is attributable.
                    let latency = match self.fault_plan.as_ref().and_then(|p| p.crash_time(dead)) {
                        Some(crash_at) => now.saturating_duration_since(crash_at),
                        None => SimDuration::ZERO,
                    };
                    self.detection_latency = self.detection_latency.max(latency);
                }
                Output::Absorb {
                    from,
                    to,
                    roles,
                    planned,
                } => {
                    let mut cost = SimDuration::ZERO;
                    for &role in &roles {
                        cost += self.app.absorb(to, role);
                    }
                    self.takeover(sim, to, planned, roles.len(), from, cost);
                }
                Output::Retire { .. }
                | Output::Activate { .. }
                | Output::Departed { .. }
                | Output::QueryAdmitted { .. }
                | Output::QueryDone { .. } => self.progressed(now),
                Output::Finished { .. } => self.stopped = true,
                Output::Teardown { reason } => panic!("{reason}"),
                // Free in the cost model; the trace has already seen them.
                Output::PassThrough { .. }
                | Output::Processed { .. }
                | Output::DuplicateDropped { .. }
                | Output::ChecksumMismatch { .. }
                | Output::Resent { .. } => {}
            }
        }
    }

    /// Starts a busy interval of the join entity at `host`: charges `cpu`
    /// of compute, extends `join_busy` by the modeled `duration`, and —
    /// when traced (`span` is the interval's kind, name and hop) — closes
    /// the idle gap before it as a `Sync` span and emits the interval's
    /// own span now, at its start, because the model already knows how
    /// long it will take.
    // analyze: allow(panic, reason = "protocol invariant: per-host tables are sized to the ring at construction and HostId never exceeds it")
    fn busy(
        &mut self,
        now: SimTime,
        host: HostId,
        cpu: SimDuration,
        duration: SimDuration,
        span: Option<(SpanKind, String, Option<usize>)>,
    ) {
        let state = &mut self.hosts[host.0];
        state.join_cpu.charge(CostCategory::Compute, cpu);
        state.join_busy += duration;
        if let Some((kind, name, hop)) = span {
            // The gaps between consecutive busy intervals partition the
            // join window's non-busy time, so their sum reconciles with
            // the `sync` phase of `RingMetrics`.
            let idle_since = self.busy_until[host.0];
            let gap = now.saturating_duration_since(idle_since);
            if gap > SimDuration::ZERO {
                self.spans
                    .span(host.0, SpanKind::Sync, "sync", idle_since, gap);
            }
            self.spans
                .span_with_hop(host.0, kind, name, now, duration, hop);
            self.busy_until[host.0] = now + duration;
        }
    }

    /// A takeover rebuild at `host` — a healing absorb of dead `donor`'s
    /// roles or a planned handoff from a live one — priced by the app.
    fn takeover(
        &mut self,
        sim: &mut Simulation<RingEvent<P>>,
        host: HostId,
        planned: bool,
        roles: usize,
        donor: HostId,
        cost: SimDuration,
    ) {
        let span = self
            .spans
            .is_enabled()
            .then(|| (SpanKind::Absorb, takeover_name(planned, roles, donor), None));
        self.busy(sim.now(), host, cost, cost, span);
        sim.schedule_in(cost, RingEvent::AbsorbDone { host });
    }

    /// Puts one attempt of a transfer on the wire: rolls the shared dice,
    /// charges the transport cost model, and schedules the wire-free and
    /// arrival events. A dropped attempt still occupies the link and
    /// charges its sender; it just never arrives.
    // analyze: allow(panic, reason = "protocol invariant: per-host tables are sized to the ring at construction and HostId never exceeds it")
    fn apply_send(
        &mut self,
        sim: &mut Simulation<RingEvent<P>>,
        from: HostId,
        to: HostId,
        tid: u64,
        attempt: u32,
        env: Envelope<InFlight<P>>,
    ) {
        let now = sim.now();
        let bytes = env.bytes();
        let mut sent = env;
        let (dropped, spike) = roll(
            self.fault_plan.as_ref(),
            &mut self.proto,
            from,
            tid,
            attempt,
            &mut sent,
        );
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
            let outcome = qp.post_send(rnic, link, now, simnet::link::Direction::Forward, wr);
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
            self.network.reserve_hop(now, from, bytes)
        };
        self.hosts[from.0].bytes_forwarded += bytes;
        if self.spans.is_enabled() {
            // Every wire attempt, retransmissions included, is a span.
            self.spans.span(
                from.0,
                SpanKind::Send,
                format!("send {}", sent.id),
                now,
                reservation.wire_free.saturating_duration_since(now),
            );
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

    fn finish(mut self, wall_clock: SimTime) -> SimOutcome<A> {
        materialize_counters(&mut self.spans);
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
        let metrics = ring_metrics(
            &self.proto,
            hosts,
            wall_clock.saturating_duration_since(SimTime::ZERO),
            self.detection_latency,
        );
        SimOutcome {
            metrics,
            app: self.app,
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
        let spans = |kind| out.spans.spans().iter().filter(|s| s.kind == kind).count();
        assert_eq!(spans(SpanKind::Setup), 2);
        assert!(spans(SpanKind::Send) >= 1);
        assert_eq!(out.spans.count_events("retired"), 2);
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
            out.metrics.fragments_completed,
            8,
            "events:\n{:?}",
            out.spans.events()
        );
        assert_eq!(out.metrics.heal_events, 1);
        assert!(out.metrics.detection_latency > SimDuration::ZERO);
        assert!(
            out.metrics.total_retransmits() > 0,
            "death is detected via timeouts"
        );
        assert!(out.spans.count_events("heal: host 2 confirmed dead") >= 1);
        assert!(out.spans.spans().iter().any(
            |s| s.kind == SpanKind::Absorb && s.name.starts_with("absorb 1 role(s) of host 2")
        ));
        assert!(out.metrics.hosts[2].fragments_processed < 8);
    }

    /// The wall-clock engine suite's crash body, at the instants where
    /// the crash lands after every transfer into host 2 was acked and
    /// its last fragments wait there on their final hop. Nobody sends to
    /// the corpse any more, so no ack timeout implicates it: only its
    /// predecessor's watch does.
    #[test]
    fn a_corpse_holding_final_hop_work_is_still_confirmed_dead() {
        let hosts = 4;
        for crash_us in (3_100..=4_100).step_by(50) {
            let plan = FaultPlan::seeded(4242)
                .crash_host(HostId(2), SimTime::from_nanos(crash_us * 1_000));
            let cfg = RingConfig::paper(hosts)
                .with_ack_timeout(SimDuration::from_millis(8))
                .with_max_retransmits(3);
            let app = FixedCostApp::new(
                hosts,
                SimDuration::from_micros(100),
                SimDuration::from_micros(500),
            );
            let out = SimRing::new(cfg, payloads(hosts, 2, 128), app)
                .with_fault_plan(plan)
                .run();
            assert_eq!(out.metrics.fragments_completed, 8, "crash at {crash_us} µs");
            assert_eq!(out.metrics.heal_events, 1, "crash at {crash_us} µs");
            assert!(out.metrics.detection_latency > SimDuration::ZERO);
        }
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
        assert!(out.spans.count_events("paused") >= 1);
        assert!(out.spans.count_events("resumed") >= 1);
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
            out.metrics.fragments_completed,
            6,
            "events:\n{:?}",
            out.spans.events()
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
            out.metrics.fragments_completed,
            4,
            "events:\n{:?}",
            out.spans.events()
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

    /// The rule the wall-clock drivers return as a typed error
    /// (`engine_suite::all_standby_rescale_is_rejected`) is the simulator's
    /// panic message: one table, two ways to refuse.
    #[test]
    #[should_panic(expected = "unsupported fault: a rescale plan cannot make every host a standby")]
    fn all_standby_rescale_is_rejected() {
        let plan = RescalePlan::seeded(1)
            .join_host(HostId(0), SimTime::from_nanos(1_000))
            .join_host(HostId(1), SimTime::from_nanos(1_000));
        SimRing::new(small_config(2), payloads(2, 0, 0), fixed_app(2))
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
