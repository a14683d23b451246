//! The one coordinator behind every ring run: the applier of the
//! protocol's outputs, on a virtual clock or on the wall clock.
//!
//! The sans-IO [`crate::protocol`] core emits an ordered stream of
//! [`Output`]s; something has to turn each of them into IO. For every
//! driver — the simulator ([`crate::sim_backend`]), blocking TCP
//! ([`crate::tcp_backend`]), the reactor ([`crate::reactor_backend`]) and
//! the channel engine ([`crate::thread_backend`]) — that something is
//! `Coordinator`, and it exists exactly once:
//!
//! * it owns the [`RingProtocol`] — run over shared in-flight payloads
//!   (`InFlight`), so a visit's job and every retransmission attempt hold
//!   the payload by reference count, never by copy — the optional
//!   [`FaultPlan`] dice, the [`SpanTracer`], the accumulators behind
//!   [`RingMetrics`], the first-error latch and the queue of synchronous
//!   follow-up `Event`s;
//! * it applies outputs strictly in emission order (`Coordinator::apply`)
//!   and translates events back into protocol [`Input`]s with one
//!   crash-guard policy (`Coordinator::handle`): set-ups, job completions
//!   and fault-plan events die with a crashed host (a job that finished
//!   is booked first: its time was spent); wire deliveries, send
//!   completions and protocol ticks always reach the protocol;
//! * it keeps time as [`SimTime`] since the run's epoch, read through
//!   `Medium::now`, and owns the run's one event queue
//!   ([`EventQueue`], ordered by `(time, arm order)`): set-ups, protocol
//!   backoffs, the plans' scheduled events and delay-spike arrivals are
//!   data there — and, on the simulator, every completion the cost model
//!   prices. A wall-clock loop fires what is due and waits no longer than
//!   the next due time (`Coordinator::fire_or_wait`); the simulator's loop
//!   pops the queue and advances virtual time to each event;
//! * everything that differs between the drivers sits behind the calls
//!   of the crate-private `Medium` trait, dispatched statically: what
//!   time it is, when a host is set up, how an attempt, a lost attempt,
//!   an ack and a job move, what a delivery costs its receiver and
//!   whether the application stops a continuous rotation. A socket medium
//!   frames each live attempt as a fresh header ahead of the payload's
//!   wire bytes — at the origin the bytes a fragment was prepared in, or
//!   an owned payload's encoded on its first attempt, and the bytes it
//!   arrived in everywhere after (see [`crate::frame`]) — and says whether
//!   it was the payload's first send out of its origin, so the coordinator
//!   can count `frames_encoded` against `frames_forwarded`. A socket
//!   medium also launches each payload at its origin (`Medium::launch`): a
//!   payload that is its wire bytes goes in a pool cell, as an arrival
//!   does. The simulator's medium is the cost model: it prices set-ups,
//!   joins and absorbs, reserves links and RNICs and bills CPU, and arms
//!   each completion on the coordinator's queue.
//!
//! Alongside live the decisions that are not about IO at all: the trace
//! vocabulary (`observe`, the only place a protocol output becomes an
//! event name or a counter), the plan and shape rule table (`validate`,
//! public as [`validate_plans`]), the quiet-dice rule (`dice`), the
//! per-attempt roll (`roll`), the plans' schedule and what a fired timer
//! means (`scheduled`, `TimerKind::fired`), and the protocol-derived part
//! of [`RingMetrics`] (`ring_metrics`). The machine clock is read only in
//! [`crate::wall_clock`], never here (xtask L2).

use std::borrow::Cow;
use std::collections::VecDeque;
use std::time::Duration;

use simnet::cpu::{CostCategory, CpuAccount};
use simnet::event::EventQueue;
use simnet::fault::{FaultPlan, RescalePlan};
use simnet::span::{counter, SpanKind, SpanTracer, Track};
use simnet::time::{SimDuration, SimTime};
use simnet::topology::HostId;

use crate::config::RingConfig;
use crate::envelope::{Envelope, FragmentId, PayloadBytes};
use crate::error::RingError;
use crate::frame::Frame;
use crate::inflight::{launch_owned, Batches, InFlight};
use crate::metrics::{HostMetrics, RingMetrics};
use crate::protocol::{teardown, Input, Output, ProtocolConfig, RingProtocol, Timer};

/// Watchdog teardown reason (driver-side; not part of the protocol's
/// teardown cascade).
pub(crate) const STALLED: &str = "ring stalled: no event arrived within the watchdog window";
/// Invariant: [`Output::StartJoin`] always has a payload in the slot.
pub(crate) const EMPTY_SLOT: &str = "StartJoin with an empty processing slot";
/// Invariant: [`Output::Ack`] is only emitted while a delivery is being
/// processed, which names the acking host.
const ACK_OUT_OF_CONTEXT: &str = "ack emitted outside a delivery context";
/// The one capability difference between the engines
/// ([`WallClockEngine::HOST_FAULTS`](crate::WallClockEngine::HOST_FAULTS)):
/// the channel wire of the thread backend has no socket to sever and no
/// salvage path.
const NO_HOST_FAULTS: &str =
    "the threaded backend supports link loss, corruption and delay spikes (plus planned rescale \
     and multiplexing); host crashes and pauses need ring healing — use the simulated backend \
     or a socket backend (tcp, reactor)";

// ---------------------------------------------------------------------------
// What circulates, and what the plans may ask for
// ---------------------------------------------------------------------------

/// What circulates on the ring: one query's envelopes (the classic path),
/// the same circulating until the application stops them, or several
/// pre-numbered queries plus an admission bound.
pub enum Workload<P> {
    /// `envelopes[h]` are host `h`'s local envelopes.
    Single(Vec<Vec<Envelope<P>>>),
    /// One query's envelopes that never retire: after each revolution they
    /// go round again until the application says it is finished (the
    /// Data Cyclotron; the simulator's continuous rotation).
    Continuous(Vec<Vec<Envelope<P>>>),
    /// Several multiplexed queries.
    Multi {
        /// `(tenant, envelopes)` per query, numbered by
        /// [`query_batches`](crate::protocol::query_batches).
        queries: Vec<(u32, Vec<Vec<Envelope<P>>>)>,
        /// How many queries may circulate concurrently.
        max_active: usize,
    },
}

/// Checks a run's configuration, fragment shapes and plans before any
/// thread or socket exists. `queries` holds each query's per-host
/// fragment lists (one entry on a single-query run); `admission` is
/// `Some(max_active)` on a multiplexed run; `host_faults` says whether
/// the engine can realize crashes and pauses.
///
/// # Errors
///
/// [`RingError::Config`] for an invalid configuration,
/// [`RingError::Shape`] when a fragment list disagrees with the host
/// count, and [`RingError::UnsupportedFault`] for plans the engine cannot
/// realize: more than 64 hosts with a plan or multiplexing, host faults on
/// an engine without them, a crash or rescale on a single-host ring,
/// plans naming hosts outside the ring, a rescale plan that leaves no
/// initial member, a standby host that contributes fragments, or a
/// multiplexed run without queries, admission slots or a second host.
pub(crate) fn validate<P>(
    config: &RingConfig,
    fault: Option<&FaultPlan>,
    rescale: Option<&RescalePlan>,
    queries: &[&[Vec<P>]],
    admission: Option<usize>,
    host_faults: bool,
) -> Result<(), RingError> {
    config.validate()?;
    let n = config.hosts;
    if let Some(fragments) = queries.iter().find(|f| f.len() != n) {
        return Err(RingError::Shape {
            expected: n,
            got: fragments.len(),
        });
    }
    let crashes = fault.map(FaultPlan::crashes).unwrap_or_default();
    let pauses = fault.map(FaultPlan::pauses).unwrap_or_default();
    let joins = rescale.map(RescalePlan::joins).unwrap_or_default();
    let drains = rescale.map(RescalePlan::drains).unwrap_or_default();
    let in_ring = |h: HostId| h.0 < n;
    let contributes = |h: HostId| {
        queries
            .iter()
            .any(|f| f.get(h.0).is_some_and(|local| !local.is_empty()))
    };
    let rules = [
        (
            admission.is_some() && n < 2,
            "multiplexing needs a ring of at least two hosts",
        ),
        (
            admission.is_some_and(|max_active| queries.is_empty() || max_active == 0),
            "a multi-tenant run needs at least one query and a positive admission bound",
        ),
        (
            n > 64 && (fault.is_some() || rescale.is_some() || admission.is_some()),
            "the exactly-once role bitmask supports at most 64 hosts",
        ),
        (
            !(host_faults || crashes.is_empty() && pauses.is_empty()),
            NO_HOST_FAULTS,
        ),
        (
            n == 1 && !crashes.is_empty(),
            "a single-host ring cannot heal around its own crash",
        ),
        (
            !crashes.iter().all(|c| in_ring(c.host)) || !pauses.iter().all(|p| in_ring(p.host)),
            "fault plan names a host outside the ring",
        ),
        (
            n == 1 && !(joins.is_empty() && drains.is_empty()),
            "a single-host ring has no membership to rescale",
        ),
        (
            !joins.iter().all(|j| in_ring(j.host)) || !drains.iter().all(|d| in_ring(d.host)),
            "rescale plan names a host outside the ring",
        ),
        (
            rescale.is_some_and(|r| r.standby_mask().count_ones() as usize >= n),
            "a rescale plan cannot make every host a standby",
        ),
        (
            joins.iter().any(|j| contributes(j.host)),
            "a standby host must not contribute fragments before joining",
        ),
    ];
    match rules.iter().find(|(broken, _)| *broken) {
        Some(&(_, why)) => Err(RingError::UnsupportedFault(why)),
        None => Ok(()),
    }
}

/// The plan rules of the drivers' one rule table, for callers that have no
/// fragments yet: what a fault or rescale schedule may ask of `config`'s
/// ring on any backend. Front-ends run it before they place data, so a
/// plan naming a host outside the ring is a typed error instead of an
/// index out of bounds.
///
/// # Errors
///
/// [`RingError::Config`] for an invalid configuration and
/// [`RingError::UnsupportedFault`] for a plan no backend can realize.
pub fn validate_plans(
    config: &RingConfig,
    fault: Option<&FaultPlan>,
    rescale: Option<&RescalePlan>,
) -> Result<(), RingError> {
    validate::<()>(config, fault, rescale, &[], None, true)
}

/// The dice a run rolls per attempt. Rescale and multi-tenant rotation
/// ride the reliable transport: without explicit adversity the medium
/// still needs (quiet) dice and the acked hop protocol. `None` means the
/// classic unguarded transport.
pub(crate) fn dice<'a>(
    fault: Option<&'a FaultPlan>,
    rescale: Option<&RescalePlan>,
    multi: bool,
) -> Option<Cow<'a, FaultPlan>> {
    match (fault, rescale) {
        (Some(plan), _) => Some(Cow::Borrowed(plan)),
        (None, Some(r)) => Some(Cow::Owned(FaultPlan::seeded(r.seed()))),
        (None, None) => multi.then(|| Cow::Owned(FaultPlan::seeded(0))),
    }
}

/// Rolls the medium's dice for one attempt of transfer `tid` (the
/// medium's business, not the protocol's) and reports the fate back to the
/// protocol. Keyed on the per-sender wire sequence (`wire.seq`), the
/// numbering all four backends share — the parity suite depends on every
/// backend rolling exactly this. A corrupt attempt gets its checksum
/// flipped in flight, so the receiver's verification rejects the copy and
/// withholds the ack. Returns whether the medium ate the attempt and the
/// delay spike it rides. Without dice (`None`, the classic transport)
/// every attempt is intact and on time.
pub(crate) fn roll<P: PayloadBytes + Clone>(
    plan: Option<&FaultPlan>,
    proto: &mut RingProtocol<P>,
    from: HostId,
    tid: u64,
    attempt: u32,
    wire: &mut Envelope<P>,
) -> (bool, SimDuration) {
    let Some(plan) = plan else {
        return (false, SimDuration::ZERO);
    };
    let seq = wire.seq;
    let dropped = plan.should_drop(from, seq, attempt);
    let corrupt = !dropped && plan.should_corrupt(from, seq, attempt);
    proto.attempt_fate(tid, dropped, corrupt);
    if corrupt {
        wire.checksum = !wire.checksum;
    }
    (dropped, plan.delay_spike(from, seq, attempt))
}

/// The one trace vocabulary: what a protocol [`Output`] looks like to a
/// [`SpanTracer`] on every backend — an instant event `(host, track,
/// name)` stamped `at()`, a bump of a registry counter, both, or nothing.
/// The applier hands every output here before acting on it, so the four
/// backends cannot spell an event differently, and this is the only place
/// an event name is formatted.
///
/// The `match` has no wildcard (xtask L6): a new output fails the build
/// until its trace form is decided. With the tracer off nothing is
/// stamped, formatted or allocated. Spans are not vocabulary: a join,
/// absorb or send span needs a duration only the medium knows.
pub(crate) fn observe<P>(
    tracer: &mut SpanTracer,
    at: impl FnOnce() -> SimTime,
    output: &Output<P>,
) {
    if !tracer.is_enabled() {
        return;
    }
    /// An instant event: host (`None` = ring-global), track, name.
    type Event = (Option<usize>, Track, String);
    /// A counter bump: registry name, delta.
    type Bump = (&'static str, u64);
    let on = |host: &HostId, track, name| Some((Some(host.0), track, name));
    let ring = |name| Some((None, Track::Control, name));
    let (event, bump): (Option<Event>, Option<Bump>) = match output {
        Output::PassThrough { host, id } => {
            (on(host, Track::Join, format!("pass-through {id}")), None)
        }
        // Counted once per transfer; every further attempt is a retransmit.
        Output::Send { attempt: 1, .. } => (None, Some((counter::ENVELOPES_SENT, 1))),
        Output::Send {
            from, attempt, env, ..
        } => (
            on(
                from,
                Track::Transmitter,
                format!("retransmit {} attempt {attempt}", env.id),
            ),
            Some((counter::RETRANSMITS, 1)),
        ),
        Output::Delivered { host, id, .. } => (
            on(host, Track::Receiver, format!("recv {id}")),
            Some((counter::ENVELOPES_RECEIVED, 1)),
        ),
        Output::DuplicateDropped { host, id } => (
            on(host, Track::Receiver, format!("duplicate {id} dropped")),
            None,
        ),
        Output::ChecksumMismatch { host, id } => (
            on(host, Track::Receiver, format!("checksum mismatch {id}")),
            Some((counter::CHECKSUM_MISMATCHES, 1)),
        ),
        Output::Retire { host, id, salvaged } => {
            let name = if *salvaged {
                format!("retired {id} (salvaged)")
            } else {
                format!("retired {id}")
            };
            (
                on(host, Track::Join, name),
                Some((counter::FRAGMENTS_RETIRED, 1)),
            )
        }
        Output::Heal { dead } => (
            ring(format!("heal: host {} confirmed dead", dead.0)),
            Some((counter::HEAL_EVENTS, 1)),
        ),
        Output::Activate { host, epoch } => (
            on(host, Track::Control, format!("activated (epoch {epoch})")),
            Some((counter::RESCALE_JOINS, 1)),
        ),
        Output::Absorb { roles, planned, .. } => (
            None,
            planned.then_some((counter::RESCALE_HANDOFFS, roles.len() as u64)),
        ),
        Output::Departed { host, epoch } => (
            on(host, Track::Control, format!("departed (epoch {epoch})")),
            Some((counter::RESCALE_DRAINS, 1)),
        ),
        Output::Resent { target, id } => (
            on(target, Track::Control, format!("re-sent {id} from origin")),
            Some((counter::FRAGMENTS_RESENT, 1)),
        ),
        Output::QueryAdmitted { query, tenant } => (
            ring(format!("query {query} (tenant {tenant}) admitted")),
            Some((counter::QUERIES_ADMITTED, 1)),
        ),
        Output::QueryDone { query, tenant } => (
            ring(format!("query {query} (tenant {tenant}) complete")),
            Some((counter::QUERIES_COMPLETED, 1)),
        ),
        // Silent: the applier's own spans (join, absorb) or pure IO.
        Output::StartJoin { .. }
        | Output::Processed { .. }
        | Output::Ack { .. }
        | Output::ArmTimer { .. }
        | Output::Finished { .. }
        | Output::Teardown { .. } => return,
    };
    if let Some((host, track, name)) = event {
        tracer.event(host, track, name, at());
    }
    if let Some((name, delta)) = bump {
        tracer.count(name, delta);
    }
}

/// The name of an `Absorb` span: a crash-healing takeover of `roles` roles
/// of dead host `donor`, or a planned handoff of them from a live one.
pub(crate) fn takeover_name(planned: bool, roles: usize, donor: HostId) -> String {
    if planned {
        format!("handoff {roles} role(s) from host {}", donor.0)
    } else {
        format!("absorb {roles} role(s) of host {}", donor.0)
    }
}

/// The protocol-derived part of a finished run's [`RingMetrics`]; the
/// coordinator's books supply the rest.
pub(crate) fn ring_metrics<P: PayloadBytes + Clone>(
    proto: &RingProtocol<P>,
    hosts: Vec<HostMetrics>,
    wall_clock: SimDuration,
    detection_latency: SimDuration,
) -> RingMetrics {
    RingMetrics {
        hosts,
        wall_clock,
        fragments_completed: proto.fragments_completed(),
        heal_events: proto.heal_events(),
        detection_latency,
        fragments_resent: proto.fragments_resent(),
        membership_epoch: proto.membership_epoch(),
        rescale_joins: proto.rescale_joins(),
        rescale_drains: proto.rescale_drains(),
        rescale_handoffs: proto.rescale_handoffs(),
        rescale_escalations: proto.rescale_escalations(),
        queries: proto.query_metrics(),
    }
}

// ---------------------------------------------------------------------------
// Jobs, timers and events: the vocabulary between coordinator and engines
// ---------------------------------------------------------------------------

/// Work for a host's join worker.
pub(crate) enum Job<P> {
    /// Join one fragment against the host's stationary state.
    Join {
        /// The payload the protocol's processing slot holds, shared.
        payload: InFlight<P>,
        /// Which multiplexed query the fragment belongs to (0 on
        /// single-query runs).
        query: u32,
        roles: Option<Vec<usize>>,
        id: FragmentId,
        hop: usize,
    },
    /// Rebuild the stationary state of `roles` at this host.
    Absorb {
        from: HostId,
        roles: Vec<usize>,
        /// True for a planned rescale handoff (the donor is alive) rather
        /// than a crash-healing absorb; labels only — the protocol input
        /// is the same.
        planned: bool,
    },
}

/// A finished [`Job`], with what it cost.
pub(crate) struct JobDone {
    pub(crate) host: HostId,
    /// How long the job kept its host busy: measured on the wall clock,
    /// priced by the cost model on the simulator.
    pub(crate) spent: SimDuration,
    /// The compute it cost ([`CostCategory::Compute`]): the measured time
    /// on every join thread, or the model's price.
    pub(crate) cpu: SimDuration,
    pub(crate) panicked: bool,
    /// The medium ran the job on the coordinator's own thread instead of
    /// handing it to a worker (only the reactor ever does).
    pub(crate) inline: bool,
    pub(crate) what: Done,
}

impl JobDone {
    /// A job at `host` that ran to its end, on a worker.
    pub(crate) fn new(host: HostId, spent: SimDuration, cpu: SimDuration, what: Done) -> Self {
        JobDone {
            host,
            spent,
            cpu,
            panicked: false,
            inline: false,
            what,
        }
    }
}

/// Which job finished.
pub(crate) enum Done {
    Join {
        id: FragmentId,
        hop: usize,
    },
    Absorb {
        from: HostId,
        roles: usize,
        planned: bool,
    },
}

/// Timers are protocol backoffs plus the fault and rescale plans'
/// scheduled events, all armed on the coordinator's one timer queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimerKind {
    Protocol(Timer),
    Crash(HostId),
    Pause(HostId),
    Resume(HostId),
    JoinRequest(HostId),
    DrainRequest(HostId),
}

impl TimerKind {
    /// What a fired timer means to the protocol: the [`Input`] it stands
    /// for and — for the plans' scheduled events — the host it dies with
    /// (a crashed host has no software left to pause, resume, join or
    /// drain, and cannot crash twice) plus its control-track event name.
    /// Protocol backoffs always reach the protocol.
    pub(crate) fn fired<P>(self) -> (Input<P>, Option<(HostId, &'static str)>) {
        match self {
            TimerKind::Protocol(timer) => (Input::Tick { timer }, None),
            TimerKind::Crash(host) => (Input::PeerDead { host }, Some((host, "crashed"))),
            TimerKind::Pause(host) => (Input::Paused { host }, Some((host, "paused"))),
            TimerKind::Resume(host) => (Input::Resumed { host }, Some((host, "resumed"))),
            TimerKind::JoinRequest(host) => {
                (Input::JoinRequest { host }, Some((host, "join requested")))
            }
            TimerKind::DrainRequest(host) => (
                Input::DrainRequest { host },
                Some((host, "drain requested")),
            ),
        }
    }
}

/// Every event the plans schedule, as `(instant since ring start, timer)`
/// in arming order: crashes, each pause with its resume, joins, drains.
pub(crate) fn scheduled(
    fault: Option<&FaultPlan>,
    rescale: Option<&RescalePlan>,
) -> Vec<(SimTime, TimerKind)> {
    let mut events = Vec::new();
    if let Some(plan) = fault {
        events.extend(
            plan.crashes()
                .iter()
                .map(|c| (c.at, TimerKind::Crash(c.host))),
        );
        for p in plan.pauses() {
            events.push((p.at, TimerKind::Pause(p.host)));
            events.push((p.at + p.duration, TimerKind::Resume(p.host)));
        }
    }
    if let Some(plan) = rescale {
        events.extend(
            plan.joins()
                .iter()
                .map(|j| (j.at, TimerKind::JoinRequest(j.host))),
        );
        events.extend(
            plan.drains()
                .iter()
                .map(|d| (d.at, TimerKind::DrainRequest(d.host))),
        );
    }
    events
}

/// What the coordinator hears from a medium (and from itself: media
/// queue synchronous follow-ups in the same shape).
pub(crate) enum Event<P> {
    /// Host `host` finished its set-up at `at` and may join.
    Setup { host: HostId, at: SimTime },
    /// A frame came off the wire at host `at`.
    Frame {
        at: HostId,
        frame: Frame<InFlight<P>>,
    },
    /// The wire that carried `from`'s last send is free again.
    SendDone { from: HostId },
    /// A worker finished a job.
    Job(JobDone),
    /// A timer on the coordinator's queue fired.
    Timer(TimerKind),
    /// The engine hit an unrecoverable error.
    Fatal(RingError),
}

/// What the coordinator hears from itself and from the medium's calls,
/// as opposed to what an engine delivers.
pub(crate) struct Pending<P> {
    /// Synchronous follow-ups, handled in order before the engine blocks
    /// for the next external event.
    pub(crate) now: VecDeque<Event<P>>,
    /// Events due at an instant since the run's epoch — set-ups, protocol
    /// backoffs, the plans' scheduled events, a delay spike's arrival, and
    /// on the simulator every completion the model prices — handled once
    /// due, in `(time, arm order)`.
    pub(crate) timers: EventQueue<Event<P>>,
}

/// The outcome of one timed receive, whatever channel it came from.
pub(crate) enum Recv<T> {
    Item(T),
    Timeout,
    Closed,
}

/// How an attempt went onto the wire.
pub(crate) enum Sent {
    /// By value: the medium carries payloads, not bytes (the channel
    /// engine).
    Moved,
    /// As the payload's first attempt out of its origin: a frame around
    /// the bytes it was prepared in, or an owned payload's, encoded by
    /// this attempt.
    Encoded,
    /// As a fresh header ahead of the payload bytes it already carried
    /// out: a forward, or a retransmission.
    Forwarded,
    /// Onto a modeled wire, which it holds until the instant given (the
    /// simulator, a lost attempt included): the coordinator spans it.
    Held(SimTime),
    /// Nowhere: the dice ate it before the wire, which is free at once.
    Lost,
}

/// What a driver provides: what time it is and how bytes and jobs
/// actually move. Calls arrive in [`Output`] order; anything a call
/// completes on the spot is queued on `next` instead of re-entering the
/// coordinator, and anything it completes later at a known instant is
/// armed on `next`'s timers. The calls with a default are the ones the
/// wall clock answers trivially and the cost model does not.
pub(crate) trait Medium<P> {
    /// The time since the run's epoch: virtual on the simulator, the
    /// machine's on the wall clock.
    fn now(&self) -> SimTime;

    /// When `host` is set up and may join: the model prices each host's
    /// set-up; the wall clock's hosts were set up before the run, at its
    /// epoch.
    fn ready(&mut self, host: HostId) -> SimTime {
        let _ = host;
        SimTime::ZERO
    }

    /// Puts one live attempt on the `from → to` wire, no earlier than
    /// `delay` from now (a fault-plan delay spike). The medium owes one
    /// [`Event::SendDone`] for `from` once the wire is free again.
    fn transmit(
        &mut self,
        from: HostId,
        to: HostId,
        tid: u64,
        env: Envelope<InFlight<P>>,
        delay: SimDuration,
        next: &mut Pending<P>,
    ) -> Result<Sent, RingError>;

    /// An attempt of `bytes` from `from` that the dice ate. It owes the
    /// same [`Event::SendDone`] a live one does: on the wall clock at
    /// once, since nothing went out; the model still occupies the link and
    /// bills the sender, and only withholds the arrival.
    fn lose(&mut self, from: HostId, bytes: u64, next: &mut Pending<P>) -> Sent {
        let _ = bytes;
        next.now.push_back(Event::SendDone { from });
        Sent::Lost
    }

    /// Sends the acknowledgement for `tid` from `at` back to its sender.
    fn ack(
        &mut self,
        at: HostId,
        to: HostId,
        tid: u64,
        next: &mut Pending<P>,
    ) -> Result<(), RingError>;

    /// Hands `job` to `host`'s worker; the medium owes one [`Event::Job`].
    fn start(&mut self, host: HostId, job: Job<P>, next: &mut Pending<P>) -> Result<(), RingError>;

    /// `host` accepted a delivery of `bytes`. The model bills the
    /// receiver's CPU for it; on the wall clock that cost is in the time
    /// the machine took.
    fn delivered(&mut self, host: HostId, bytes: u64) {
        let _ = (host, bytes);
    }

    /// Whether the application asks a continuous rotation to stop,
    /// sampled at `now` as each join of one completes. Only the simulator
    /// rotates continuously.
    fn finished(&self, now: SimTime) -> bool {
        let _ = now;
        false
    }

    /// Cuts `host`'s outgoing wires, behind whatever it already committed
    /// to them (an attempt reported live must still arrive).
    fn sever(&mut self, host: HostId, next: &mut Pending<P>);

    /// Puts one query's payloads in flight at their origins: owned, all in
    /// one slab ([`launch_owned`]), unless the medium carries bytes and
    /// launches each payload that is bytes already as its bytes
    /// ([`InFlight::launch`]).
    fn launch(&self, batches: Batches<P>) -> Batches<InFlight<P>>
    where
        P: PayloadBytes,
    {
        launch_owned(batches)
    }
}

// ---------------------------------------------------------------------------
// The coordinator
// ---------------------------------------------------------------------------

/// Collects a run's errors, preferring a root cause (a panicking
/// callback) over the teardown cascade it provokes.
#[derive(Default)]
struct ErrorCollector {
    root: Option<RingError>,
    any: Option<RingError>,
}

impl ErrorCollector {
    fn record(&mut self, err: RingError) {
        let is_root = matches!(
            &err,
            RingError::Teardown(m) if teardown::is_root_cause(m)
        );
        if is_root && self.root.is_none() {
            self.root = Some(err.clone());
        }
        if self.any.is_none() {
            self.any = Some(err);
        }
    }

    fn first(self) -> Option<RingError> {
        self.root.or(self.any)
    }
}

/// Materialises every well-known counter at zero, so trace consumers see
/// them observed rather than missing on runs that never bumped them.
pub(crate) fn materialize_counters(tracer: &mut SpanTracer) {
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
        counter::FRAMES_ENCODED,
        counter::FRAMES_FORWARDED,
    ] {
        tracer.count(name, 0);
    }
}
/// One host's books: the timing and cost behind its [`HostMetrics`].
#[derive(Clone, Copy)]
struct Books {
    /// When its set-up finished (the epoch until then).
    setup: SimTime,
    /// When its last join finished: the end of its join window.
    last_done: SimTime,
    /// When its last booked job finished: where its next `Sync` span
    /// starts.
    busy_until: SimTime,
    busy: SimDuration,
    cpu: CpuAccount,
    visits_inline: usize,
    bytes_forwarded: u64,
    /// When a scheduled crash struck it.
    crash_at: Option<SimTime>,
}

/// The single place where a protocol [`Output`] turns into IO.
pub(crate) struct Coordinator<'a, P, M> {
    pub(crate) proto: RingProtocol<InFlight<P>>,
    pub(crate) medium: M,
    pub(crate) pending: Pending<P>,
    /// The protocol's output sink, drained by every `apply` and kept for
    /// the whole run.
    outputs: Vec<Output<InFlight<P>>>,
    plan: Option<&'a FaultPlan>,
    errors: ErrorCollector,
    fatal: bool,
    /// The application stopped a continuous rotation.
    stopped: bool,
    tracer: SpanTracer,
    /// Where the current silence began: the first wait since the last
    /// handled event (`None` until the loop waits again).
    silent_since: Option<SimTime>,
    config: &'a RingConfig,
    books: Vec<Books>,
    last_progress: SimTime,
    detection_latency: SimDuration,
}

impl<'a, P: PayloadBytes, M: Medium<P>> Coordinator<'a, P, M> {
    /// Builds the protocol for `workload` (reliable iff `plan` is set) with
    /// every payload put in flight, and arms each host's set-up at the
    /// instant the medium says it is ready, then the plans' scheduled
    /// events — crashes, pauses, joins, drains, at their instants since the
    /// epoch. At equal times a host is set up before a plan event meets it.
    pub(crate) fn new(
        config: &'a RingConfig,
        plan: Option<&'a FaultPlan>,
        rescale: Option<&RescalePlan>,
        workload: Workload<P>,
        trace: bool,
        mut medium: M,
    ) -> Self {
        let n = config.hosts;
        let proto_cfg = ProtocolConfig {
            hosts: n,
            buffers_per_host: config.buffers_per_host,
            max_retransmits: config.max_retransmits,
            continuous: matches!(workload, Workload::Continuous(_)),
            reliable: plan.is_some(),
            standby: rescale.map_or(0, RescalePlan::standby_mask),
        };
        let proto = match workload {
            Workload::Single(envelopes) | Workload::Continuous(envelopes) => {
                RingProtocol::new(proto_cfg, medium.launch(envelopes))
            }
            Workload::Multi {
                queries,
                max_active,
            } => {
                let queries = queries
                    .into_iter()
                    .map(|(tenant, envelopes)| (tenant, medium.launch(envelopes)))
                    .collect();
                RingProtocol::new_multi(proto_cfg, queries, max_active)
            }
        };
        let mut timers = EventQueue::new();
        for h in 0..n {
            let host = HostId(h);
            let at = medium.ready(host);
            timers.push(at, Event::Setup { host, at });
        }
        for (at, kind) in scheduled(plan, rescale) {
            timers.push(at, Event::Timer(kind));
        }
        let books = Books {
            setup: SimTime::ZERO,
            last_done: SimTime::ZERO,
            busy_until: SimTime::ZERO,
            busy: SimDuration::ZERO,
            cpu: CpuAccount::new(),
            visits_inline: 0,
            bytes_forwarded: 0,
            crash_at: None,
        };
        Coordinator {
            proto,
            medium,
            pending: Pending {
                now: VecDeque::new(),
                timers,
            },
            outputs: Vec::new(),
            plan,
            errors: ErrorCollector::default(),
            fatal: false,
            stopped: false,
            tracer: if trace {
                SpanTracer::enabled()
            } else {
                SpanTracer::disabled()
            },
            silent_since: None,
            config,
            books: vec![books; n],
            last_progress: SimTime::ZERO,
            detection_latency: SimDuration::ZERO,
        }
    }

    /// True once the run failed or its application stopped it.
    pub(crate) fn halted(&self) -> bool {
        self.fatal || self.stopped
    }

    /// True once every fragment retired, or the run [`halted`](Self::halted).
    pub(crate) fn done(&self) -> bool {
        self.halted() || self.proto.fragments_completed() >= self.proto.fragments_total()
    }

    pub(crate) fn fail(&mut self, error: RingError) {
        self.errors.record(error);
        self.fatal = true;
    }

    /// The event loop of the channel-fed engines: follow-ups first, then
    /// due timers, then whatever `recv` (a timed receive on the engine's
    /// event channel) yields within [`fire_or_wait`](Self::fire_or_wait)'s
    /// bound, until the run is [`done`](Self::done).
    pub(crate) fn run(&mut self, mut recv: impl FnMut(Duration) -> Recv<Event<P>>) {
        while !self.done() {
            if let Some(event) = self.pending.now.pop_front() {
                self.handle(event);
                continue;
            }
            let Some(wait) = self.fire_or_wait(self.medium.now()) else {
                continue;
            };
            match recv(wait) {
                Recv::Item(event) => self.handle(event),
                Recv::Timeout => {}
                Recv::Closed => return self.fail(RingError::Teardown(teardown::RING_CLOSED)),
            }
        }
    }

    /// Fires the first timer due at `now`, or says how long the event loop
    /// may block for its next event: until the next due time, and no
    /// longer than what is left of the watchdog window. The window is the
    /// silence since the loop first waited after the last handled event (a
    /// fired timer is one); when it runs out the run is torn down as
    /// stalled. `None` means the loop goes round again: a timer fired, or
    /// the run stalled.
    pub(crate) fn fire_or_wait(&mut self, now: SimTime) -> Option<Duration> {
        if let Some((_, event)) = self.pending.timers.pop_due(now) {
            self.handle(event);
            return None;
        }
        let silent = now.saturating_duration_since(*self.silent_since.get_or_insert(now));
        let left = self.config.watchdog.saturating_sub(silent);
        if left == SimDuration::ZERO {
            self.fail(RingError::Teardown(STALLED));
            return None;
        }
        let wait = match self.pending.timers.peek_time() {
            Some(due) => left.min(due.saturating_duration_since(now)),
            None => left,
        };
        Some(wait.into())
    }

    /// Translates one event into a protocol [`Input`] and applies what
    /// the protocol answers.
    pub(crate) fn handle(&mut self, event: Event<P>) {
        self.silent_since = None;
        match event {
            Event::Setup { host, at } => self.on_setup(host, at),
            Event::Frame { at, frame } => self.on_frame(at, frame),
            Event::SendDone { from } => self.input(Input::SendDone { from }, None),
            Event::Job(done) => self.on_job_done(done),
            Event::Timer(kind) => self.on_timer(kind),
            Event::Fatal(error) => self.fail(error),
        }
    }

    /// The first error, or the finished run in the common metrics shape
    /// with the tracer closed out (every well-known counter materialized,
    /// so trace consumers see zeros observed rather than missing).
    pub(crate) fn finish(self) -> Result<(RingMetrics, SpanTracer), RingError> {
        if let Some(error) = self.errors.first() {
            return Err(error);
        }
        let since = |at: SimTime| at.saturating_duration_since(SimTime::ZERO);
        let hosts = self
            .books
            .iter()
            .enumerate()
            .map(|(h, books)| {
                let host = HostId(h);
                let window = books.last_done.saturating_duration_since(books.setup);
                HostMetrics {
                    setup: since(books.setup),
                    join_busy: books.busy,
                    sync: window.saturating_sub(books.busy),
                    join_window: window,
                    cpu: books.cpu,
                    fragments_processed: self.proto.host(host).fragments_processed(),
                    visits_inline: books.visits_inline,
                    bytes_forwarded: books.bytes_forwarded,
                    retransmits: self.proto.retransmits(host),
                    checksum_mismatches: self.proto.checksum_mismatches(host),
                }
            })
            .collect();
        let metrics = ring_metrics(
            &self.proto,
            hosts,
            since(self.last_progress),
            self.detection_latency,
        );
        let mut tracer = self.tracer;
        materialize_counters(&mut tracer);
        Ok((metrics, tracer))
    }

    /// Books a job `done` that finished at `at`: its time to the host's
    /// busy total, its compute to the host's account, and — traced — the
    /// idle gap before it as a `Sync` span and the job itself as a `Join`
    /// or `Absorb` span, so span totals reconcile with the metrics. A
    /// finished job is booked whatever became of its host; only the
    /// protocol and the host's join window care whether it still lives.
    pub(crate) fn book(&mut self, at: SimTime, done: &JobDone) {
        let Some(books) = self.books.get_mut(done.host.0) else {
            return;
        };
        books.busy += done.spent;
        books.cpu.charge(CostCategory::Compute, done.cpu);
        let idle_since = std::mem::replace(&mut books.busy_until, at);
        if !self.tracer.is_enabled() {
            return;
        }
        let (host, spent) = (done.host.0, done.spent);
        let start = at.saturating_sub(spent);
        let gap = start.saturating_duration_since(idle_since);
        if gap > SimDuration::ZERO {
            self.tracer
                .span(host, SpanKind::Sync, "sync", idle_since, gap);
        }
        match done.what {
            Done::Join { id, hop } => self.tracer.span_with_hop(
                host,
                SpanKind::Join,
                format!("join {id}"),
                start,
                spent,
                Some(hop),
            ),
            Done::Absorb {
                from,
                roles,
                planned,
            } => {
                let name = takeover_name(planned, roles, from);
                self.tracer.span(host, SpanKind::Absorb, name, start, spent);
            }
        }
    }

    fn progressed(&mut self) {
        self.last_progress = self.last_progress.max(self.medium.now());
    }

    fn input(&mut self, input: Input<InFlight<P>>, ctx: Option<HostId>) {
        let mut outputs = std::mem::take(&mut self.outputs);
        self.proto.input_into(input, &mut outputs);
        self.apply(&mut outputs, ctx);
        self.outputs = outputs;
    }

    /// A host's set-up finished at `at` (unless it crashed first): its
    /// join window opens there, and a set-up that took time is a span.
    // analyze: allow(panic, reason = "protocol invariant: per-host tables are sized to the ring at construction and HostId never exceeds it")
    fn on_setup(&mut self, host: HostId, at: SimTime) {
        if self.proto.is_crashed(host) {
            return;
        }
        let books = &mut self.books[host.0];
        (books.setup, books.last_done, books.busy_until) = (at, at, at);
        self.progressed();
        if at > SimTime::ZERO {
            let took = at.saturating_duration_since(SimTime::ZERO);
            self.tracer
                .span(host.0, SpanKind::Setup, "setup", SimTime::ZERO, took);
        }
        self.input(Input::SetupDone { host }, None);
    }

    fn on_frame(&mut self, at: HostId, frame: Frame<InFlight<P>>) {
        match frame {
            Frame::Envelope { tid, env } => {
                self.input(Input::Delivered { to: at, env, tid }, Some(at));
            }
            Frame::Ack { tid } => self.input(Input::Ack { tid }, None),
            Frame::Hello { .. } => self.fail(RingError::Socket("mid-run hello frame")),
        }
    }

    /// A finished job: booked first, then — unless its host crashed, in
    /// which case healing salvages its envelope — reported to the
    /// protocol.
    // analyze: allow(panic, reason = "protocol invariant: per-host tables are sized to the ring at construction and HostId never exceeds it")
    fn on_job_done(&mut self, done: JobDone) {
        let now = self.medium.now();
        self.book(now, &done);
        let host = done.host;
        if self.proto.is_crashed(host) {
            return;
        }
        if done.panicked {
            return self.fail(RingError::Teardown(teardown::CALLBACK_PANICKED));
        }
        if done.inline {
            self.books[host.0].visits_inline += 1;
            self.tracer.count(counter::VISITS_INLINE, 1);
        }
        self.progressed();
        match done.what {
            Done::Join { .. } => {
                self.books[host.0].last_done = now;
                // The protocol cannot call the application: sample the
                // continuous-mode finish flag here and pass it in.
                let app_finished = self.proto.config().continuous && self.medium.finished(now);
                self.input(Input::JoinDone { host, app_finished }, None);
            }
            Done::Absorb { .. } => self.input(Input::AbsorbDone { host }, None),
        }
    }

    /// A fired timer: the plans' scheduled events die with a crashed
    /// host; a scheduled crash severs the host's outgoing wires before the
    /// protocol hears the ground truth (what still reaches the dead host
    /// feeds the protocol's salvage path).
    // analyze: allow(panic, reason = "protocol invariant: per-host tables are sized to the ring at construction and HostId never exceeds it")
    fn on_timer(&mut self, kind: TimerKind) {
        let (input, planned) = kind.fired();
        if let Some((host, name)) = planned {
            if self.proto.is_crashed(host) {
                return;
            }
            let now = self.medium.now();
            self.tracer.event(Some(host.0), Track::Control, name, now);
            if kind == TimerKind::Crash(host) {
                self.books[host.0].crash_at = Some(now);
                self.medium.sever(host, &mut self.pending);
            }
        }
        self.input(input, None);
    }

    fn start(&mut self, host: HostId, job: Job<P>) {
        if let Err(error) = self.medium.start(host, job, &mut self.pending) {
            self.fail(error);
        }
    }

    /// Applies protocol outputs strictly in emission order, draining
    /// `outputs`: each is shown to the trace vocabulary, then acted on if
    /// it asks for IO. `ctx` names the host whose delivery is being
    /// processed — the only context in which the protocol emits
    /// [`Output::Ack`].
    // analyze: allow(panic, reason = "protocol invariant: per-host tables are sized to the ring at construction and HostId never exceeds it")
    fn apply(&mut self, outputs: &mut Vec<Output<InFlight<P>>>, ctx: Option<HostId>) {
        for output in outputs.drain(..) {
            if self.fatal {
                return;
            }
            observe(&mut self.tracer, || self.medium.now(), &output);
            match output {
                Output::StartJoin {
                    host,
                    id,
                    hop,
                    roles,
                    bytes: _,
                } => {
                    // The job shares the slot's payload: a count bump.
                    let Some(payload) = self.proto.processing_payload(host).cloned() else {
                        return self.fail(RingError::Teardown(EMPTY_SLOT));
                    };
                    let query = self.proto.processing_query(host);
                    self.start(
                        host,
                        Job::Join {
                            payload,
                            query,
                            roles,
                            id,
                            hop,
                        },
                    );
                }
                Output::Send {
                    from,
                    to,
                    tid,
                    attempt,
                    env,
                } => self.apply_send(from, to, tid, attempt, env),
                Output::Ack { to, tid } => {
                    let sent = match ctx {
                        Some(at) => self.medium.ack(at, to, tid, &mut self.pending),
                        None => Err(RingError::Teardown(ACK_OUT_OF_CONTEXT)),
                    };
                    if let Err(error) = sent {
                        self.fail(error);
                    }
                }
                Output::ArmTimer { timer, backoff_exp } => {
                    let backoff = 1u64.checked_shl(backoff_exp).unwrap_or(u64::MAX);
                    let delay = self.config.ack_timeout.as_nanos().saturating_mul(backoff);
                    let due = self
                        .medium
                        .now()
                        .saturating_add(SimDuration::from_nanos(delay));
                    let timer = Event::Timer(TimerKind::Protocol(timer));
                    self.pending.timers.push(due, timer);
                }
                Output::Delivered { host, bytes, .. } => self.medium.delivered(host, bytes),
                Output::Heal { dead } => {
                    // A heal without a scheduled crash is an escalated
                    // drain: nothing to measure detection against.
                    let now = self.medium.now();
                    let latency = self.books[dead.0]
                        .crash_at
                        .map_or(SimDuration::ZERO, |at| now.saturating_duration_since(at));
                    self.detection_latency = self.detection_latency.max(latency);
                }
                Output::Absorb {
                    from,
                    to,
                    roles,
                    planned,
                } => self.start(
                    to,
                    Job::Absorb {
                        from,
                        roles,
                        planned,
                    },
                ),
                Output::Departed { host, .. } => {
                    self.progressed();
                    // The drainee left the ring for good: retire its
                    // outgoing wires (behind anything it still owed).
                    // Nobody routes to it any more.
                    self.medium.sever(host, &mut self.pending);
                }
                Output::Retire { .. }
                | Output::Activate { .. }
                | Output::QueryAdmitted { .. }
                | Output::QueryDone { .. } => self.progressed(),
                Output::Finished { .. } => self.stopped = true,
                Output::Teardown { reason } => self.fail(RingError::Teardown(reason)),
                // Nothing to do beyond the trace.
                Output::PassThrough { .. }
                | Output::Processed { .. }
                | Output::DuplicateDropped { .. }
                | Output::ChecksumMismatch { .. }
                | Output::Resent { .. } => {}
            }
        }
    }

    /// Puts one attempt of a transfer toward the wire: rolls the dice and
    /// hands the attempt to the medium, live or lost.
    // analyze: allow(panic, reason = "protocol invariant: per-host tables are sized to the ring at construction and HostId never exceeds it")
    fn apply_send(
        &mut self,
        from: HostId,
        to: HostId,
        tid: u64,
        attempt: u32,
        env: Envelope<InFlight<P>>,
    ) {
        let bytes = env.bytes();
        self.books[from.0].bytes_forwarded += bytes;
        let mut wire = env;
        let (dropped, spike) = roll(self.plan, &mut self.proto, from, tid, attempt, &mut wire);
        let id = wire.id;
        let sent = if dropped {
            Ok(self.medium.lose(from, bytes, &mut self.pending))
        } else {
            self.medium
                .transmit(from, to, tid, wire, spike, &mut self.pending)
        };
        match sent {
            Ok(Sent::Moved | Sent::Lost) => {}
            Ok(Sent::Encoded) => self.tracer.count(counter::FRAMES_ENCODED, 1),
            Ok(Sent::Forwarded) => self.tracer.count(counter::FRAMES_FORWARDED, 1),
            Ok(Sent::Held(free)) => {
                if self.tracer.is_enabled() {
                    // Every wire attempt, retransmissions included.
                    let now = self.medium.now();
                    let held = free.saturating_duration_since(now);
                    let name = format!("send {id}");
                    self.tracer.span(from.0, SpanKind::Send, name, now, held);
                }
            }
            Err(error) => self.fail(error),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::FixedCostApp;
    use crate::protocol::envelope_batches;
    use crate::sim_backend::SimRing;
    use crate::wall_clock::engine_suite::payloads;
    use crate::wall_clock::run_job;
    use proptest::prelude::*;
    use std::cell::RefCell;

    type P = Vec<u8>;

    #[derive(Debug, Clone, PartialEq)]
    enum Call {
        Transmit(HostId, HostId, u64),
        Ack(HostId, HostId, u64),
        Join(HostId),
        Absorb(HostId),
        Sever(HostId),
    }

    /// An in-memory medium that records every call. Frames cross a FIFO
    /// wire with latency (they are *not* follow-ups) and jobs finish on
    /// the spot; the test fires the coordinator's timers only when the
    /// wire is idle, and its clock moves only when one fires.
    struct Fake {
        now: SimTime,
        calls: Vec<Call>,
        wire: VecDeque<Event<P>>,
        /// The host whose delivery is being handled, as the test sees it.
        delivering: Option<HostId>,
        /// Every `absorb(survivor, role)` call the jobs made.
        absorbed: Vec<(HostId, usize)>,
        /// The payload of every join job started, by host, until the test
        /// takes them.
        joined: Vec<(HostId, InFlight<P>)>,
    }

    impl Fake {
        fn new() -> Self {
            Fake {
                now: SimTime::ZERO,
                calls: Vec::new(),
                wire: VecDeque::new(),
                delivering: None,
                absorbed: Vec::new(),
                joined: Vec::new(),
            }
        }
    }

    impl Medium<P> for Fake {
        fn now(&self) -> SimTime {
            self.now
        }

        fn transmit(
            &mut self,
            from: HostId,
            to: HostId,
            tid: u64,
            env: Envelope<InFlight<P>>,
            _delay: SimDuration,
            _next: &mut Pending<P>,
        ) -> Result<Sent, RingError> {
            self.calls.push(Call::Transmit(from, to, tid));
            let frame = Frame::Envelope { tid, env };
            self.wire.push_back(Event::Frame { at: to, frame });
            self.wire.push_back(Event::SendDone { from });
            Ok(Sent::Moved)
        }

        fn ack(
            &mut self,
            at: HostId,
            to: HostId,
            tid: u64,
            _next: &mut Pending<P>,
        ) -> Result<(), RingError> {
            assert_eq!(self.delivering, Some(at), "ack outside its delivery");
            self.calls.push(Call::Ack(at, to, tid));
            let frame = Frame::Ack { tid };
            self.wire.push_back(Event::Frame { at: to, frame });
            Ok(())
        }

        fn start(
            &mut self,
            host: HostId,
            job: Job<P>,
            next: &mut Pending<P>,
        ) -> Result<(), RingError> {
            self.calls.push(match &job {
                Job::Join { payload, .. } => {
                    self.joined.push((host, payload.clone()));
                    Call::Join(host)
                }
                Job::Absorb { .. } => Call::Absorb(host),
            });
            let absorbed = RefCell::new(Vec::new());
            next.now.push_back(Event::Job(run_job(
                host,
                job,
                1,
                &|_, _, _: &[usize], _| {},
                &|survivor, role| absorbed.borrow_mut().push((survivor, role)),
            )));
            self.absorbed.extend(absorbed.into_inner());
            Ok(())
        }

        fn sever(&mut self, host: HostId, _next: &mut Pending<P>) {
            self.calls.push(Call::Sever(host));
        }
    }

    fn ring<'a>(
        config: &'a RingConfig,
        plan: &'a FaultPlan,
        rescale: Option<&RescalePlan>,
        fragments: Vec<Vec<P>>,
    ) -> Coordinator<'a, P, Fake> {
        let workload = Workload::Single(envelope_batches(fragments, config.hosts));
        let mut co = Coordinator::new(config, Some(plan), rescale, workload, true, Fake::new());
        // Every host is set up at the epoch: its set-up is due at once.
        while let Some((_, setup)) = co.pending.timers.pop_due(SimTime::ZERO) {
            co.handle(setup);
        }
        co
    }

    /// Handles one event and returns the medium calls it caused.
    fn step(co: &mut Coordinator<'_, P, Fake>, event: Event<P>) -> Vec<Call> {
        co.medium.delivering = match &event {
            Event::Frame {
                at,
                frame: Frame::Envelope { .. },
            } => Some(*at),
            _ => None,
        };
        co.medium.calls.clear();
        co.handle(event);
        co.medium.calls.clone()
    }

    /// Follow-ups first, then the wire, then the earliest timer, however
    /// far ahead its deadline lies (the clock jumps to it).
    fn next_event(co: &mut Coordinator<'_, P, Fake>) -> Event<P> {
        if let Some(event) = co
            .pending
            .now
            .pop_front()
            .or_else(|| co.medium.wire.pop_front())
        {
            return event;
        }
        let (at, timer) = co
            .pending
            .timers
            .pop()
            .expect("ring wedged: nothing pending, in flight or armed");
        co.medium.now = at;
        timer
    }

    fn send_dones(pending: &Pending<P>) -> usize {
        pending
            .now
            .iter()
            .filter(|e| matches!(e, Event::SendDone { .. }))
            .count()
    }

    /// Every join job started since the last call ran on the very payload
    /// the protocol's processing slot holds — shared, not copied.
    fn assert_jobs_share_the_slot_payload(co: &mut Coordinator<'_, P, Fake>) {
        for (host, payload) in std::mem::take(&mut co.medium.joined) {
            let slot = co.proto.processing_payload(host).expect("a job runs");
            assert!(
                InFlight::ptr_eq(&payload, slot),
                "host {}: the job got a copy of its payload",
                host.0
            );
        }
    }

    /// What `outputs` must cause: the medium calls, in order, how many
    /// attempts the dice drop — rolled here exactly as the coordinator
    /// must roll them, and reported to the shadow protocol — and how many
    /// timers they arm.
    fn expected(
        plan: &FaultPlan,
        shadow: &mut RingProtocol<InFlight<P>>,
        outputs: Vec<Output<InFlight<P>>>,
        ctx: Option<HostId>,
    ) -> (Vec<Call>, usize, usize) {
        let mut calls = Vec::new();
        let mut dropped = 0;
        let mut armed = 0;
        for output in &outputs {
            let call = if let Output::StartJoin { host, .. } = output {
                Call::Join(*host)
            } else if let Output::Send {
                from,
                to,
                tid,
                attempt,
                env,
            } = output
            {
                let lost = plan.should_drop(*from, env.seq, *attempt);
                let corrupt = !lost && plan.should_corrupt(*from, env.seq, *attempt);
                shadow.attempt_fate(*tid, lost, corrupt);
                if lost {
                    dropped += 1;
                    continue;
                }
                Call::Transmit(*from, *to, *tid)
            } else if let Output::Ack { to, tid } = output {
                Call::Ack(ctx.expect("ack needs a delivery"), *to, *tid)
            } else if let Output::ArmTimer { .. } = output {
                armed += 1;
                continue;
            } else if let Output::Absorb { to, .. } = output {
                Call::Absorb(*to)
            } else if let Output::Departed { host, .. } = output {
                Call::Sever(*host)
            } else {
                continue;
            };
            calls.push(call);
        }
        (calls, dropped, armed)
    }

    #[test]
    fn lossy_ring_calls_the_medium_in_output_order_and_matches_the_simulator() {
        let config = RingConfig::paper(2).with_max_retransmits(10);
        let plan = FaultPlan::seeded(7)
            .lossy_link(HostId(0), 0.3)
            .corrupt_link(HostId(1), 0.3);
        let mut co = ring(&config, &plan, None, payloads(2, 4, 32));

        // A shadow protocol fed the same inputs predicts every call.
        let cfg = *co.proto.config();
        let mut shadow =
            RingProtocol::new(cfg, launch_owned(envelope_batches(payloads(2, 4, 32), 2)));
        let mut want = Vec::new();
        let (mut lost, mut armed) = (0, 0);
        for h in 0..2 {
            let outputs = shadow.input(Input::SetupDone { host: HostId(h) });
            let (calls, dropped, arms) = expected(&plan, &mut shadow, outputs, None);
            want.extend(calls);
            lost += dropped;
            armed += arms;
        }
        assert_eq!(co.medium.calls, want);
        assert_eq!(send_dones(&co.pending), lost);
        assert_eq!(co.pending.timers.len(), armed);
        assert_jobs_share_the_slot_payload(&mut co);

        let mut total_lost = lost;
        while !co.done() {
            let event = next_event(&mut co);
            let (input, ctx) = match &event {
                Event::Frame {
                    at,
                    frame: Frame::Envelope { tid, env },
                } => {
                    let (to, env, tid) = (*at, env.clone(), *tid);
                    (Input::Delivered { to, env, tid }, Some(*at))
                }
                Event::Frame {
                    frame: Frame::Ack { tid },
                    ..
                } => (Input::Ack { tid: *tid }, None),
                Event::SendDone { from } => (Input::SendDone { from: *from }, None),
                Event::Job(done) => {
                    let (host, app_finished) = (done.host, false);
                    (Input::JoinDone { host, app_finished }, None)
                }
                Event::Timer(TimerKind::Protocol(timer)) => (Input::Tick { timer: *timer }, None),
                _ => panic!("a link-fault run has no other events"),
            };
            let before = send_dones(&co.pending);
            let armed_before = co.pending.timers.len();
            let got = step(&mut co, event);
            assert_jobs_share_the_slot_payload(&mut co);
            let outputs = shadow.input(input);
            let (want, dropped, armed) = expected(&plan, &mut shadow, outputs, ctx);
            assert_eq!(got, want, "medium calls must follow Output order");
            // A dropped attempt: a follow-up SendDone, and no transmit.
            assert_eq!(send_dones(&co.pending) - before, dropped);
            // Each `ArmTimer` adds exactly one entry to the queue.
            assert_eq!(co.pending.timers.len() - armed_before, armed);
            total_lost += dropped;
        }
        assert!(total_lost > 0, "the seed must exercise the drop path");

        let (metrics, tracer) = co.finish().unwrap();
        assert_eq!(metrics.fragments_completed, 8);
        let app = FixedCostApp::new(2, SimDuration::ZERO, SimDuration::from_micros(50));
        let sim = SimRing::new(config, payloads(2, 4, 32), app)
            .with_fault_plan(plan.clone())
            .with_trace(true)
            .run();
        for (ours, theirs) in metrics.hosts.iter().zip(&sim.metrics.hosts) {
            assert_eq!(ours.retransmits, theirs.retransmits);
            assert_eq!(ours.checksum_mismatches, theirs.checksum_mismatches);
        }
        // Same dice, same vocabulary: the fake medium and the model leave
        // the same multiset of (host, track, event name).
        let names = |tracer: &SpanTracer| {
            let mut names: Vec<_> = tracer
                .events()
                .iter()
                .map(|e| (e.host, e.track, e.name.clone()))
                .collect();
            names.sort();
            names
        };
        assert_eq!(names(&tracer), names(&sim.spans));
        assert!(tracer.count_events("retransmit") > 0 && tracer.count_events("checksum") > 0);
        assert!(metrics.total_retransmits() > 0 && metrics.total_checksum_mismatches() > 0);
        assert_eq!(
            tracer.counters().get(counter::RETRANSMITS),
            metrics.total_retransmits()
        );
    }

    /// The pinned strings live here: one row per [`Output`] variant, and
    /// what `observe` must leave in the tracer for it — `(host, track,
    /// name)` of the instant event, `(counter, delta)` of the bump.
    #[test]
    fn observe_maps_every_output_to_its_trace_form() {
        type Row = (
            Output<P>,
            Option<(Option<usize>, Track, &'static str)>,
            Option<(&'static str, u64)>,
        );
        let (h, id) = (HostId(1), FragmentId(7));
        // The first fragment of a one-host batch: `F0`.
        let env = || {
            envelope_batches(vec![vec![vec![0u8; 4]]], 1)
                .remove(0)
                .remove(0)
        };
        let send = |attempt| Output::Send {
            from: h,
            to: HostId(2),
            tid: 3,
            attempt,
            env: env(),
        };
        let on = |track, name| Some((Some(1), track, name));
        let ring = |name| Some((None, Track::Control, name));
        let rows: Vec<Row> = vec![
            (
                Output::StartJoin {
                    host: h,
                    id,
                    hop: 0,
                    roles: None,
                    bytes: 4,
                },
                None,
                None,
            ),
            (
                Output::PassThrough { host: h, id },
                on(Track::Join, "pass-through F7"),
                None,
            ),
            (Output::Processed { host: h, id }, None, None),
            (send(1), None, Some((counter::ENVELOPES_SENT, 1))),
            (
                send(2),
                on(Track::Transmitter, "retransmit F0 attempt 2"),
                Some((counter::RETRANSMITS, 1)),
            ),
            (Output::Ack { to: h, tid: 3 }, None, None),
            (
                Output::ArmTimer {
                    timer: Timer::Retransmit { tid: 3, attempt: 1 },
                    backoff_exp: 0,
                },
                None,
                None,
            ),
            (
                Output::Delivered {
                    host: h,
                    id,
                    bytes: 4,
                },
                on(Track::Receiver, "recv F7"),
                Some((counter::ENVELOPES_RECEIVED, 1)),
            ),
            (
                Output::DuplicateDropped { host: h, id },
                on(Track::Receiver, "duplicate F7 dropped"),
                None,
            ),
            (
                Output::ChecksumMismatch { host: h, id },
                on(Track::Receiver, "checksum mismatch F7"),
                Some((counter::CHECKSUM_MISMATCHES, 1)),
            ),
            (
                Output::Retire {
                    host: h,
                    id,
                    salvaged: false,
                },
                on(Track::Join, "retired F7"),
                Some((counter::FRAGMENTS_RETIRED, 1)),
            ),
            (
                Output::Retire {
                    host: h,
                    id,
                    salvaged: true,
                },
                on(Track::Join, "retired F7 (salvaged)"),
                Some((counter::FRAGMENTS_RETIRED, 1)),
            ),
            (
                Output::Heal { dead: h },
                ring("heal: host 1 confirmed dead"),
                Some((counter::HEAL_EVENTS, 1)),
            ),
            (
                Output::Absorb {
                    from: h,
                    to: HostId(2),
                    roles: vec![1],
                    planned: false,
                },
                None,
                None,
            ),
            (
                Output::Activate { host: h, epoch: 4 },
                on(Track::Control, "activated (epoch 4)"),
                Some((counter::RESCALE_JOINS, 1)),
            ),
            (
                Output::Absorb {
                    from: h,
                    to: HostId(2),
                    roles: vec![1, 3],
                    planned: true,
                },
                None,
                Some((counter::RESCALE_HANDOFFS, 2)),
            ),
            (
                Output::Departed { host: h, epoch: 5 },
                on(Track::Control, "departed (epoch 5)"),
                Some((counter::RESCALE_DRAINS, 1)),
            ),
            (
                Output::Resent { target: h, id },
                on(Track::Control, "re-sent F7 from origin"),
                Some((counter::FRAGMENTS_RESENT, 1)),
            ),
            (Output::Finished { host: h }, None, None),
            (
                Output::QueryAdmitted {
                    query: 2,
                    tenant: 9,
                },
                ring("query 2 (tenant 9) admitted"),
                Some((counter::QUERIES_ADMITTED, 1)),
            ),
            (
                Output::QueryDone {
                    query: 2,
                    tenant: 9,
                },
                ring("query 2 (tenant 9) complete"),
                Some((counter::QUERIES_COMPLETED, 1)),
            ),
            (
                Output::Teardown {
                    reason: teardown::RING_CLOSED,
                },
                None,
                None,
            ),
        ];
        let at = SimTime::from_nanos(42);
        for (output, event, bump) in rows {
            let mut tracer = SpanTracer::enabled();
            observe(&mut tracer, || at, &output);
            let got: Vec<_> = tracer
                .events()
                .iter()
                .map(|e| (e.host, e.track, e.name.as_str(), e.at))
                .collect();
            let want: Vec<_> = event.iter().map(|&(h, t, n)| (h, t, n, at)).collect();
            assert_eq!(got, want, "event of {output:?}");
            let got: Vec<_> = tracer.counters().iter().collect();
            assert_eq!(got, Vec::from_iter(bump), "counter of {output:?}");
            assert!(
                tracer.spans().is_empty(),
                "spans are the appliers' business"
            );
        }
    }

    /// The untraced path: nothing is stamped (the clock closure would
    /// panic), formatted or recorded, whatever the output.
    #[test]
    fn observe_is_inert_when_the_tracer_is_off() {
        let mut tracer = SpanTracer::disabled();
        let (host, id) = (HostId(0), FragmentId(1));
        let outputs: [Output<P>; 3] = [
            Output::Delivered { host, id, bytes: 8 },
            Output::DuplicateDropped { host, id },
            Output::QueryDone {
                query: 0,
                tenant: 0,
            },
        ];
        for output in &outputs {
            observe(&mut tracer, || panic!("stamped an untraced output"), output);
        }
        assert_eq!(tracer, SpanTracer::disabled());
    }

    #[test]
    fn an_ack_outside_a_delivery_tears_the_run_down() {
        let config = RingConfig::paper(2);
        let plan = FaultPlan::seeded(1);
        let mut co = ring(&config, &plan, None, payloads(2, 1, 32));
        let ack = Output::Ack {
            to: HostId(0),
            tid: 1,
        };
        co.apply(&mut vec![ack], None);
        assert!(!co.medium.calls.iter().any(|c| matches!(c, Call::Ack(..))));
        assert_eq!(
            co.finish().unwrap_err(),
            RingError::Teardown(ACK_OUT_OF_CONTEXT)
        );
    }

    #[test]
    fn a_crash_severs_before_the_protocol_hears_of_it() {
        let config = RingConfig::paper(3).with_max_retransmits(2);
        let plan = FaultPlan::seeded(3).crash_host(HostId(1), SimTime::from_nanos(1_000));
        let mut co = ring(&config, &plan, None, payloads(3, 2, 32));
        let (at, crash) = co.pending.timers.pop().expect("the crash is armed");
        assert_eq!(at, SimTime::from_nanos(1_000));
        assert!(matches!(crash, Event::Timer(TimerKind::Crash(HostId(1)))));
        let calls = step(&mut co, crash);
        assert_eq!(calls.first(), Some(&Call::Sever(HostId(1))));
        assert!(co.proto.is_crashed(HostId(1)));
        // A second report of the same crash is ignored outright.
        assert!(step(&mut co, Event::Timer(TimerKind::Crash(HostId(1)))).is_empty());
        while !co.done() {
            let event = next_event(&mut co);
            step(&mut co, event);
        }
        // One dead host with one role: its absorb job takes over role 1,
        // once, at the host the job was started on.
        let jobs = co.medium.absorbed.clone();
        assert!(
            matches!(jobs[..], [(survivor, 1)] if survivor != HostId(1)),
            "role 1 must be absorbed exactly once, got {jobs:?}"
        );
        let (metrics, _) = co.finish().unwrap();
        assert_eq!(metrics.fragments_completed, 6);
        assert_eq!(metrics.heal_events, 1);
    }

    #[test]
    fn a_departed_host_is_severed_in_the_step_that_retires_it() {
        let config = RingConfig::paper(3);
        let plan = FaultPlan::seeded(5);
        let rescale = RescalePlan::seeded(5).drain_host(HostId(0), SimTime::from_nanos(1_000));
        let mut co = ring(&config, &plan, Some(&rescale), payloads(3, 2, 32));
        // Virtual time only advances on an idle wire; request the drain
        // while the ring is still busy, as the wall clock would.
        step(&mut co, Event::Timer(TimerKind::DrainRequest(HostId(0))));
        let mut severed_at_epoch = None;
        while !co.done() {
            let event = next_event(&mut co);
            let before = co.proto.membership_epoch();
            if step(&mut co, event).contains(&Call::Sever(HostId(0))) {
                assert!(severed_at_epoch.is_none(), "one departure, one sever");
                assert_eq!(co.proto.membership_epoch(), before + 1);
                severed_at_epoch = Some(before + 1);
            }
        }
        assert_eq!(severed_at_epoch, Some(1));
        let (metrics, tracer) = co.finish().unwrap();
        assert_eq!(metrics.rescale_drains, 1);
        assert_eq!(tracer.count_events("departed"), 1);
    }

    /// Every item due at `now`, in the order the queue fires them.
    fn fire_all<T>(timers: &mut EventQueue<T>, now: SimTime) -> Vec<T> {
        std::iter::from_fn(|| timers.pop_due(now).map(|(_, item)| item)).collect()
    }

    fn at_ns(nanos: u64) -> SimTime {
        SimTime::from_nanos(nanos)
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        let ms = |n: u64| at_ns(n * 1_000_000);
        let mut timers = EventQueue::new();
        timers.push(ms(5), "c");
        timers.push(ms(1), "a");
        timers.push(ms(3), "b");
        assert_eq!(timers.peek_time(), Some(ms(1)));
        assert_eq!(fire_all(&mut timers, ms(10)), ["a", "b", "c"]);
        assert_eq!(timers.peek_time(), None);
    }

    #[test]
    fn a_timer_never_fires_before_its_deadline() {
        let (start, due) = (at_ns(1_000), at_ns(2_001_000));
        let mut timers = EventQueue::new();
        timers.push(due, "t");
        assert!(timers.pop_due(start).is_none());
        assert!(timers.pop_due(at_ns(2_000_999)).is_none());
        assert_eq!(timers.peek_time(), Some(due));
        assert_eq!(timers.pop_due(due), Some((due, "t")));
    }

    #[test]
    fn equal_deadlines_fire_in_arming_order() {
        let due = at_ns(1_000_000);
        let mut timers = EventQueue::new();
        for item in ["first", "second", "third"] {
            timers.push(due, item);
        }
        assert_eq!(fire_all(&mut timers, due), ["first", "second", "third"]);
    }

    /// Deadlines microseconds and hours apart each fire at their own
    /// instant, and not one poll before.
    #[test]
    fn far_apart_deadlines_fire_each_at_its_own() {
        let start = at_ns(1_000);
        let after = |d: SimDuration| start + d;
        let (near, mid, far) = (
            SimDuration::from_micros(3),
            SimDuration::from_millis(50),
            SimDuration::from_secs(7_200),
        );
        let before = |d: SimDuration| after(d) - SimDuration::from_nanos(1);
        let mut timers = EventQueue::new();
        timers.push(after(far), "far");
        timers.push(after(near), "near");
        timers.push(after(mid), "mid");
        assert_eq!(fire_all(&mut timers, after(near)), ["near"]);
        assert!(fire_all(&mut timers, before(mid)).is_empty());
        assert_eq!(fire_all(&mut timers, after(mid)), ["mid"]);
        assert!(fire_all(&mut timers, before(far)).is_empty());
        assert_eq!(timers.peek_time(), Some(after(far)));
        assert_eq!(fire_all(&mut timers, after(far)), ["far"]);
    }

    /// A deadline armed far ahead stays behind every nearer one armed
    /// after it, and fires at its own instant, not one poll before.
    #[test]
    fn a_far_deadline_waits_behind_every_nearer_one() {
        let far = at_ns(20_000_000);
        let mut timers = EventQueue::new();
        timers.push(far, u64::MAX);
        for us in 0..1_000 {
            timers.push(at_ns(us * 1_000), us);
        }
        let near = fire_all(&mut timers, at_ns(19_999_999));
        assert_eq!(near, (0..1_000).collect::<Vec<_>>());
        assert_eq!(timers.peek_time(), Some(far));
        assert_eq!(fire_all(&mut timers, far), [u64::MAX]);
    }

    /// A timer armed for an instant the clock has already passed is due
    /// at once: the next poll fires it, at the instant the loop already
    /// saw.
    #[test]
    fn a_timer_armed_behind_the_clock_fires_on_the_next_poll() {
        let now = at_ns(10_000_000);
        let mut timers = EventQueue::new();
        assert!(timers.pop_due(now).is_none());
        let due = at_ns(1_000_000);
        timers.push(due, "late");
        assert_eq!(timers.peek_time(), Some(due));
        assert_eq!(timers.pop_due(now), Some((due, "late")));
    }

    #[test]
    fn overdue_timers_fire_in_deadline_order_not_arming_order() {
        // Plans arm joins before drains; a drain due first must still fire
        // first when the loop oversleeps both deadlines, and equal
        // deadlines keep their arming order. The instants are the test's
        // own, so nothing here depends on how the box schedules a thread.
        let mut timers = EventQueue::new();
        timers.push(at_ns(4_000_000), "join");
        timers.push(at_ns(2_000_000), "drain");
        timers.push(at_ns(2_000_000), "second drain");
        let overslept = at_ns(10_000_000);
        assert_eq!(
            fire_all(&mut timers, overslept),
            ["drain", "second drain", "join"]
        );
    }

    /// The coordinator's wait ends at the next deadline, never past what
    /// is left of the watchdog window; a due timer fires instead of
    /// waiting, and a window that ran out tears the run down as stalled.
    #[test]
    fn the_wait_ends_at_the_next_deadline_or_the_watchdog() {
        let config = RingConfig::paper(2).with_watchdog(SimDuration::from_millis(100));
        let plan = FaultPlan::seeded(1);
        let mut co = ring(&config, &plan, None, payloads(2, 1, 32));
        let ms = |n: u64| SimDuration::from_millis(n);
        let now = at_ns(5_000);
        // Nothing armed (quiet dice, no plan instants): the whole window.
        assert!(co.pending.timers.is_empty());
        assert_eq!(co.fire_or_wait(now), Some(Duration::from_millis(100)));
        // The window keeps running while the loop waits.
        let later = now + ms(30);
        assert_eq!(co.fire_or_wait(later), Some(Duration::from_millis(70)));
        let due = later + ms(5);
        let tick = TimerKind::Protocol(Timer::Retransmit { tid: 0, attempt: 1 });
        co.pending.timers.push(due, Event::Timer(tick));
        assert_eq!(co.fire_or_wait(later), Some(Duration::from_millis(5)));
        // Due: it fires (an event, so the window reopens) instead.
        assert_eq!(co.fire_or_wait(due), None);
        assert!(co.pending.timers.is_empty() && !co.done());
        let reopened = due + ms(60);
        assert_eq!(co.fire_or_wait(reopened), Some(Duration::from_millis(100)));
        assert_eq!(co.fire_or_wait(reopened + ms(100)), None);
        assert_eq!(co.finish().unwrap_err(), RingError::Teardown(STALLED));
    }

    /// The booking rule every clock shares: a job that finishes after its
    /// host crashed is booked — its time to `busy`, its compute to the
    /// host's account — but it never reaches the protocol, and neither the
    /// host's join window nor the run's progress moves for it.
    #[test]
    fn a_job_finishing_after_its_host_crashed_is_booked_not_reported() {
        let config = RingConfig::paper(3).with_max_retransmits(2);
        let plan = FaultPlan::seeded(3).crash_host(HostId(1), SimTime::from_nanos(1_000));
        let mut co = ring(&config, &plan, None, payloads(3, 2, 32));
        let (_, crash) = co.pending.timers.pop().expect("the crash is armed");
        step(&mut co, crash);
        assert!(co.proto.is_crashed(HostId(1)));
        let before = co.books[1];
        let (progress, processed) = (
            co.last_progress,
            co.proto.host(HostId(1)).fragments_processed(),
        );
        co.medium.now = SimTime::from_nanos(9_000_000);
        let late = JobDone {
            host: HostId(1),
            spent: SimDuration::from_millis(7),
            cpu: SimDuration::from_millis(28),
            panicked: false,
            inline: false,
            what: Done::Join {
                id: FragmentId(1),
                hop: 0,
            },
        };
        assert!(
            step(&mut co, Event::Job(late)).is_empty(),
            "the protocol never hears of it"
        );
        let after = co.books[1];
        let compute = |books: Books| books.cpu.busy(CostCategory::Compute);
        assert_eq!(after.busy, before.busy + SimDuration::from_millis(7));
        assert_eq!(
            compute(after),
            compute(before) + SimDuration::from_millis(28)
        );
        assert_eq!(after.last_done, before.last_done, "the window stays shut");
        assert_eq!(co.last_progress, progress, "a corpse makes no progress");
        assert_eq!(co.proto.host(HostId(1)).fragments_processed(), processed);
        while !co.done() {
            let event = next_event(&mut co);
            step(&mut co, event);
        }
        let (metrics, _) = co.finish().unwrap();
        assert_eq!(metrics.fragments_completed, 6);
        assert!(metrics.hosts[1].join_busy >= SimDuration::from_millis(7));
        assert!(metrics.hosts[1].cpu.busy(CostCategory::Compute) >= SimDuration::from_millis(28));
    }

    proptest! {
        /// Against a sorted model, under any interleaving of arming
        /// (overdue, near and far deadlines, with many ties) and polls
        /// at monotone instants: a timer never fires before its deadline,
        /// every due one fires, in `(deadline, arm order)`, and every
        /// armed item fires exactly once — thousands of them live at
        /// once included, as a lossy run's stale retransmit timers are.
        #[test]
        fn every_armed_timer_fires_once_in_deadline_then_arming_order(
            ops in prop::collection::vec((0u8..4, any::<u64>()), 1..300),
            backlog in 0usize..2_000,
        ) {
            let at = |us: u64| SimTime::from_nanos(us * 1_000);
            let mut timers = EventQueue::new();
            // Model: armed (deadline µs, arm sequence), unsorted.
            let mut live: Vec<(u64, u64)> = Vec::new();
            let mut fired: Vec<u64> = Vec::new();
            let (mut now, mut seq) = (0u64, 0u64);
            let mut arm = |timers: &mut EventQueue<u64>, live: &mut Vec<(u64, u64)>, due: u64| {
                timers.push(at(due), seq);
                live.push((due, seq));
                seq += 1;
            };
            // A lossy run's backlog: retransmit timers armed one backoff
            // ahead as the clock moves, so mostly in order, with ties.
            for i in 0..backlog as u64 {
                arm(&mut timers, &mut live, 1_000 + i / 3);
            }
            for (op, x) in ops {
                if op < 3 {
                    let due = match x % 4 {
                        0 => now.saturating_sub(x % 500),
                        1 => now + x % 8,
                        _ => now + x % 20_000,
                    };
                    arm(&mut timers, &mut live, due);
                } else {
                    now += x % 5_000;
                    let mut due: Vec<(u64, u64)> =
                        live.iter().copied().filter(|&(d, _)| d <= now).collect();
                    due.sort_unstable();
                    live.retain(|&(d, _)| d > now);
                    let got = fire_all(&mut timers, at(now));
                    prop_assert_eq!(got.clone(), due.iter().map(|&(_, s)| s).collect::<Vec<_>>());
                    fired.extend(got);
                }
                let next = live.iter().map(|&(d, _)| d).min().map(at);
                prop_assert_eq!(timers.peek_time(), next);
            }
            fired.extend(fire_all(&mut timers, SimTime::MAX));
            fired.sort_unstable();
            prop_assert_eq!(fired, (0..seq).collect::<Vec<_>>());
        }
    }
}
