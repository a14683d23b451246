//! The simulated ring backend: Data Roundabout on a virtual clock.
//!
//! A simulated run is the one `Coordinator` every driver runs — the
//! same applier of the protocol's outputs, the same crash guards, books
//! and trace vocabulary — over `SimWire`, a medium that keeps only the
//! cost model: who pays for a byte and what overlaps what. Its calls
//! price what the protocol asks for and arm each completion on the
//! coordinator's event queue; a short loop here pops that queue in
//! `(time, arm order)` and advances virtual time to each event.
//!
//! Time and CPU model:
//!
//! * transfers occupy the hop link for their serialization time (chunk-size
//!   curve of Figure 5); software TCP is additionally capped by what one
//!   transmitter thread can push through the kernel (§V-G). An attempt the
//!   fault dice eat still occupies the link and bills its sender;
//! * per transferred envelope, the transport's CPU cost model charges both
//!   endpoints (Figure 3 categories): the sender per attempt, the receiver
//!   per accepted delivery;
//! * set-up, join and absorb durations come from the application; under
//!   TCP joins are inflated by cache pollution and — when the join threads
//!   plus communication demand exceed the cores — by CPU contention:
//!   `d_eff = pollution × max(d, (threads·d + comm_cpu) / cores)`.
//!   Under RDMA, `d_eff = d`: the join "is never interrupted by the
//!   network".
//!
//! Output order is the protocol's contract: outputs are applied strictly
//! in emission order and every event is armed in that order, which
//! reproduces the event-scheduling sequence of the pre-extraction
//! backend — the pinned fingerprints in `tests/sim_golden.rs` hold it.

use simnet::cpu::{CostCategory, CpuAccount};
use simnet::fault::{FaultPlan, RescalePlan};
use simnet::link::{Direction, Link, Reservation};
use simnet::rnic::{MemoryRegion, QueuePair, Rnic, WorkRequest};
use simnet::span::SpanTracer;
use simnet::throughput::ChunkThroughput;
use simnet::time::{SimDuration, SimTime};
use simnet::topology::{HostId, RingNetwork};
use simnet::transport::TransportModel;

use crate::app::RingApp;
use crate::config::RingConfig;
use crate::coordinator::{
    dice, validate, Coordinator, Done, Event, Job, JobDone, Medium, Pending, Sent, Workload,
    EMPTY_SLOT,
};
use crate::envelope::{Envelope, PayloadBytes};
use crate::error::RingError;
use crate::frame::Frame;
use crate::inflight::InFlight;
use crate::metrics::RingMetrics;
use crate::protocol::{envelope_batches, query_batches};

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

/// A continuous rotation's queue ran dry before its app finished.
const STALLED: &str = "continuous rotation drained its event queue without the app declaring \
                       itself finished — the ring stalled";

/// A run's queue ran dry before every fragment retired.
const DEADLOCKED: &str = "ring run quiesced with unfinished fragments — flow-control deadlock";

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

/// Multi-tenant submission list: `(tenant, per-host fragment lists)`
/// per query, in query-id order.
pub type QuerySpecs<P> = Vec<(u32, Vec<Vec<P>>)>;

/// A configured, ready-to-run simulated ring.
pub struct SimRing<P, A> {
    config: RingConfig,
    /// The submitted queries: exactly one, as tenant 0, on a single-query
    /// run.
    queries: QuerySpecs<P>,
    /// The admission bound of a multi-tenant run; `None` on a
    /// single-query one.
    max_active: Option<usize>,
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
    pub fn new(config: RingConfig, fragments: Vec<Vec<P>>, app: A) -> Self {
        SimRing::checked(config, vec![(0, fragments)], None, app)
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
        SimRing::checked(config, queries, Some(max_active), app)
    }

    /// A run of `queries` once the shared rule table accepts their shapes
    /// and the admission bound.
    // analyze: allow(panic, reason = "driver contract: the simulated backend reports refused configurations, shapes and plans by panicking with the typed error's message")
    fn checked(
        config: RingConfig,
        queries: QuerySpecs<P>,
        max_active: Option<usize>,
        app: A,
    ) -> Self {
        let shapes: Vec<&[Vec<P>]> = queries.iter().map(|(_, f)| f.as_slice()).collect();
        validate(&config, None, None, &shapes, max_active, true)
            .unwrap_or_else(|refused| panic!("{refused}"));
        SimRing {
            config,
            queries,
            max_active,
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
    // analyze: allow(panic, reason = "driver contract: the simulated backend reports a refused run, and one the protocol tore down, by panicking with the typed error's message")
    pub fn run(mut self) -> SimOutcome<A> {
        let (config, continuous, max_active) = (&self.config, self.continuous, self.max_active);
        let n = config.hosts;
        if let Some(speed) = &self.host_speed {
            assert_eq!(speed.len(), n, "need one speed factor per host");
            assert!(
                speed.iter().all(|s| s.is_finite() && *s > 0.0),
                "host speed factors must be finite and positive"
            );
        }
        let (fault, rescale) = (self.fault_plan.as_ref(), self.rescale_plan.as_ref());
        assert!(
            !continuous || (fault.is_none() && rescale.is_none()),
            "fault injection and rescale require run-to-retirement mode, not continuous rotation"
        );
        let shapes: Vec<&[Vec<P>]> = self.queries.iter().map(|(_, f)| f.as_slice()).collect();
        validate(config, fault, rescale, &shapes, max_active, true)
            .unwrap_or_else(|refused| panic!("{refused}"));
        let max_fragment_bytes = shapes
            .iter()
            .flat_map(|fragments| fragments.iter().flatten())
            .map(PayloadBytes::payload_bytes)
            .max()
            .unwrap_or(0)
            .max(1);
        let dice = dice(fault, rescale, max_active.is_some());
        let plan = dice.as_deref();
        let workload = match max_active {
            Some(max_active) => Workload::Multi {
                queries: query_batches(self.queries, n),
                max_active,
            },
            None => {
                let (_, fragments) = self.queries.pop().unwrap_or_default();
                let envelopes = envelope_batches(fragments, n);
                if continuous {
                    Workload::Continuous(envelopes)
                } else {
                    Workload::Single(envelopes)
                }
            }
        };
        let mut charged = vec![CpuAccount::new(); n];
        let speed = self.host_speed.take();
        let wire = SimWire::new(
            config,
            &mut self.app,
            plan,
            speed,
            max_fragment_bytes,
            &mut charged,
        );
        let mut co = Coordinator::new(config, plan, rescale, workload, self.trace, wire);
        let mut budget = if continuous {
            // Continuous rotations are open-ended; give them a generous
            // but finite budget so a never-finishing app fails loudly.
            CONTINUOUS_EVENT_BUDGET
        } else {
            EVENT_BUDGET_PER_UNIT * (co.proto.fragments_total() as u64 + 1) * (n as u64 + 1)
        };
        if plan.is_some() {
            budget = budget * FAULT_BUDGET_FACTOR + FAULT_BUDGET_SLACK;
        }
        drive(&mut co, budget);
        let (completed, total) = (co.proto.fragments_completed(), co.proto.fragments_total());
        let stopped = co.halted();
        let (mut metrics, spans) = co.finish().unwrap_or_else(|torn| panic!("{torn}"));
        assert!(!continuous || stopped || total == 0, "{STALLED}");
        assert!(continuous || completed == total, "{DEADLOCKED}");
        for (host, cost) in metrics.hosts.iter_mut().zip(&charged) {
            host.cpu.merge(cost);
        }
        SimOutcome {
            metrics,
            app: self.app,
            spans,
        }
    }
}

/// Pops the coordinator's queue in `(time, arm order)`, advancing virtual
/// time to each event, until nothing is left or the run halts (the
/// application stopped a continuous rotation, or the protocol tore the run
/// down). A run ends at its last progress instant, so trailing ack and
/// timer chatter does not pad it; a stopped rotation books the jobs it
/// had already started, as the model priced them.
///
/// Returns the number of events handled, the count the budget bounds.
///
/// # Panics
///
/// Panics past `budget` events: a rotation that never ends.
fn drive<P: PayloadBytes, A: RingApp<P>>(
    co: &mut Coordinator<'_, P, SimWire<'_, A>>,
    budget: u64,
) -> u64 {
    let mut events = 0u64;
    while let Some((at, event)) = co.pending.timers.pop() {
        events += 1;
        assert!(
            events <= budget,
            "simulation exceeded its event limit of {budget} events — \
             likely a non-terminating event cascade"
        );
        co.medium.now = at;
        co.handle(event);
        if co.halted() {
            break;
        }
    }
    while let Some((at, event)) = co.pending.timers.pop() {
        if let Event::Job(done) = event {
            co.book(at, &done);
        }
    }
    events
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

/// The simulator's medium: the cost model and nothing else. Every call
/// prices what it is asked for at the current virtual instant and arms
/// its completion on the coordinator's queue.
struct SimWire<'r, A> {
    /// The virtual clock: the due time of the event being handled.
    now: SimTime,
    config: &'r RingConfig,
    app: &'r mut A,
    /// The dice, for a straggler's slowdown.
    plan: Option<&'r FaultPlan>,
    host_speed: Option<Vec<f64>>,
    network: RingNetwork,
    /// Per-host RNIC state (RDMA transport only): the NIC, its send queue
    /// pair, and the registered region backing the ring-buffer pool.
    /// Transfers are posted as work requests against the registered
    /// region, exactly as on real hardware; the registration *cost* is
    /// charged by the application layer during setup (it owns the
    /// setup-phase accounting).
    rnics: Vec<Option<(Rnic, QueuePair, MemoryRegion)>>,
    next_wr_id: u64,
    /// What moving bytes cost each host's CPU; the coordinator books the
    /// compute.
    charged: &'r mut [CpuAccount],
}

impl<'r, A> SimWire<'r, A> {
    /// The model of `config`'s ring at the epoch, pricing with `app` and
    /// billing moved bytes to `charged`. On RDMA every host gets its NIC,
    /// with a region registered for its ring buffers of
    /// `max_fragment_bytes` each.
    fn new(
        config: &'r RingConfig,
        app: &'r mut A,
        plan: Option<&'r FaultPlan>,
        host_speed: Option<Vec<f64>>,
        max_fragment_bytes: u64,
        charged: &'r mut [CpuAccount],
    ) -> Self {
        let bytes = max_fragment_bytes * config.buffers_per_host as u64;
        let rnics = (0..config.hosts)
            .map(|_| match config.transport {
                TransportModel::Rdma(cfg) => {
                    let mut rnic = Rnic::new(cfg);
                    let (region, _cost) = rnic.register(SimTime::ZERO, bytes);
                    Some((rnic, QueuePair::new(), region))
                }
                _ => None,
            })
            .collect();
        SimWire {
            now: SimTime::ZERO,
            config,
            app,
            plan,
            host_speed,
            network: RingNetwork::new(config.hosts, effective_link(config)),
            rnics,
            next_wr_id: 0,
            charged,
        }
    }

    /// Puts `bytes` from `from` on its outgoing hop link now, and bills the
    /// sender: on RDMA, the work request's post (the RNIC moves the data
    /// autonomously); on software TCP, the full per-byte bill (the kernel
    /// does the moving).
    // analyze: allow(panic, reason = "protocol invariant: per-host tables are sized to the ring at construction and HostId never exceeds it")
    fn occupy(&mut self, from: HostId, bytes: u64) -> Reservation {
        let account = &mut self.charged[from.0];
        if let Some((rnic, qp, region)) = self.rnics.get_mut(from.0).and_then(Option::as_mut) {
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
            let outcome = qp.post_send(rnic, link, self.now, Direction::Forward, wr);
            account.charge(CostCategory::Driver, outcome.post_cpu);
            outcome.reservation
        } else {
            let cost = self.config.transport.comm_cpu(self.config.cpu, bytes, 1);
            account.merge(&cost);
            self.network.reserve_hop(self.now, from, bytes)
        }
    }

    /// Applies the transport's interference model to a base join duration.
    fn effective_join_duration(&self, d_base: SimDuration, bytes: u64) -> SimDuration {
        let (transport, cpu) = (self.config.transport, self.config.cpu);
        if transport.is_rdma() || self.config.hosts == 1 {
            return d_base;
        }
        // Per processed envelope the host both receives and sends one
        // envelope of comparable size.
        let comm_cpu = transport.comm_cpu(cpu, bytes, 1).total_busy() * 2;
        let threads = self.config.join_threads as u64;
        let cores = cpu.cores as u64;
        let contended = (d_base * threads + comm_cpu) / cores;
        d_base.max(contended) * transport.pollution_factor()
    }
}

impl<P: PayloadBytes, A: RingApp<P>> Medium<P> for SimWire<'_, A> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn ready(&mut self, host: HostId) -> SimTime {
        SimTime::ZERO + self.app.setup(host)
    }

    /// The attempt holds the link until it is serialized (then the
    /// sender's wire is free) and arrives a link latency — plus any delay
    /// spike — later.
    fn transmit(
        &mut self,
        from: HostId,
        to: HostId,
        tid: u64,
        env: Envelope<InFlight<P>>,
        delay: SimDuration,
        next: &mut Pending<P>,
    ) -> Result<Sent, RingError> {
        let wire = self.occupy(from, env.bytes());
        next.timers.push(wire.wire_free, Event::SendDone { from });
        let frame = Frame::Envelope { tid, env };
        next.timers
            .push(wire.arrival + delay, Event::Frame { at: to, frame });
        Ok(Sent::Held(wire.wire_free))
    }

    fn lose(&mut self, from: HostId, bytes: u64, next: &mut Pending<P>) -> Sent {
        let wire = self.occupy(from, bytes);
        next.timers.push(wire.wire_free, Event::SendDone { from });
        Sent::Held(wire.wire_free)
    }

    /// Acks ride the NIC on the backward channel of the sender's link, so
    /// they never contend with payload.
    fn ack(
        &mut self,
        _at: HostId,
        to: HostId,
        tid: u64,
        next: &mut Pending<P>,
    ) -> Result<(), RingError> {
        let ack = self.network.reserve_hop_back(self.now, to, ACK_BYTES);
        let frame = Frame::Ack { tid };
        next.timers
            .push(ack.arrival, Event::Frame { at: to, frame });
        Ok(())
    }

    /// Prices the job — a join by the application, the host's speed, a
    /// straggler's slowdown and the transport's interference; a takeover
    /// by the application, role by role — and arms its completion.
    // analyze: allow(panic, reason = "protocol invariant: per-host tables are sized to the ring at construction and HostId never exceeds it")
    fn start(&mut self, host: HostId, job: Job<P>, next: &mut Pending<P>) -> Result<(), RingError> {
        let (spent, cpu, what) = match job {
            Job::Join {
                payload,
                query,
                roles,
                id,
                hop,
            } => {
                let own = [host.0];
                let roles = roles.as_deref().unwrap_or(&own);
                let Some(owned) = payload.payload() else {
                    return Err(RingError::Teardown(EMPTY_SLOT));
                };
                let d_base = self.app.process(host, query, roles, self.now, owned);
                let d_base = match &self.host_speed {
                    Some(speed) => d_base * (1.0 / speed[host.0]),
                    None => d_base,
                };
                let d_base = match self.plan.map(|plan| plan.slowdown(host)) {
                    Some(slowdown) if slowdown != 1.0 => d_base * (1.0 / slowdown),
                    _ => d_base,
                };
                let d_eff = self.effective_join_duration(d_base, payload.payload_bytes());
                let threads = self.config.join_threads as u64;
                (d_eff, d_base * threads, Done::Join { id, hop })
            }
            Job::Absorb {
                from,
                roles,
                planned,
            } => {
                let cost = roles.iter().fold(SimDuration::ZERO, |cost, &role| {
                    cost + self.app.absorb(host, role)
                });
                let roles = roles.len();
                (
                    cost,
                    cost,
                    Done::Absorb {
                        from,
                        roles,
                        planned,
                    },
                )
            }
        };
        let done = JobDone::new(host, spent, cpu, what);
        next.timers.push(self.now + spent, Event::Job(done));
        Ok(())
    }

    /// Receiving costs the receiver: on RDMA only reaping the completion
    /// of the pre-posted receive, on TCP the full copy/stack/interrupt
    /// bill.
    // analyze: allow(panic, reason = "protocol invariant: per-host tables are sized to the ring at construction and HostId never exceeds it")
    fn delivered(&mut self, host: HostId, bytes: u64) {
        let account = &mut self.charged[host.0];
        match self.config.transport {
            TransportModel::Rdma(cfg) => {
                account.charge(CostCategory::Driver, cfg.completion_overhead)
            }
            tcp => account.merge(&tcp.comm_cpu(self.config.cpu, bytes, 1)),
        }
    }

    fn finished(&self) -> bool {
        self.app.finished()
    }

    /// A crashed host's wires stay as they are: what it committed still
    /// arrives, and nothing new leaves a dead host.
    fn sever(&mut self, _host: HostId, _next: &mut Pending<P>) {}
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

    /// A rotation whose app never finishes ends at the event budget, with
    /// a panic, not in an endless loop.
    #[test]
    #[should_panic(expected = "event limit of 1000 events")]
    fn a_rotation_that_never_finishes_exhausts_its_event_budget() {
        let config = small_config(2);
        let mut app = CountingApp {
            processed: 0,
            target: usize::MAX,
        };
        let mut charged = vec![CpuAccount::new(); 2];
        let wire = SimWire::new(&config, &mut app, None, None, 1024, &mut charged);
        let workload = Workload::Continuous(envelope_batches(payloads(2, 1, 1024), 2));
        let mut co = Coordinator::new(&config, None, None, workload, false, wire);
        drive(&mut co, 1_000);
    }

    /// The budget counts every handled event, no more: a rotation given
    /// exactly the events it handled runs to the same end, and the same
    /// rotation with that many events, less one, fails.
    #[test]
    fn the_event_budget_counts_every_handled_event() {
        let config = small_config(2);
        let handled = |budget: u64| {
            let mut app = CountingApp {
                processed: 0,
                target: 10,
            };
            let mut charged = vec![CpuAccount::new(); 2];
            let wire = SimWire::new(&config, &mut app, None, None, 1024, &mut charged);
            let workload = Workload::Continuous(envelope_batches(payloads(2, 1, 1024), 2));
            let mut co = Coordinator::new(&config, None, None, workload, false, wire);
            let events = drive(&mut co, budget);
            assert!(co.halted(), "the app stops the rotation");
            events
        };
        let events = handled(u64::MAX);
        assert!(events > 10, "ten buffers take more than ten events");
        assert_eq!(handled(events), events);
        let short = std::panic::catch_unwind(|| handled(events - 1));
        assert!(short.is_err(), "one event short of the count must panic");
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
