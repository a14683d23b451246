//! The one coordinator behind the three wall-clock drivers, and the
//! decisions it shares with the simulator.
//!
//! The sans-IO [`crate::protocol`] core emits an ordered stream of
//! [`Output`]s; something has to turn each of them into IO. For the
//! wall-clock drivers — blocking TCP ([`crate::tcp_backend`]), the
//! reactor ([`crate::reactor_backend`]) and the channel engine
//! ([`crate::thread_backend`]) — that something is `Coordinator`, and it
//! exists exactly once:
//!
//! * it owns the [`RingProtocol`] — run over shared in-flight payloads
//!   (`InFlight`), so a visit's job and every retransmission attempt hold
//!   the payload by reference count, never by copy — the optional
//!   [`FaultPlan`] dice, the [`SpanTracer`], the wall-clock accumulators
//!   behind [`RingMetrics`], the first-error latch and the queue of
//!   synchronous follow-up `Event`s;
//! * it applies outputs strictly in emission order (`Coordinator::apply`)
//!   and translates driver events back into protocol [`Input`]s with one
//!   crash-guard policy (`Coordinator::handle`): joins and fault-plan
//!   events die with a crashed host; wire deliveries, send completions and
//!   protocol ticks always reach the protocol;
//! * it owns the run's one timer queue (`TimerQueue`): protocol
//!   backoffs, the plans' scheduled events and delay-spike arrivals are
//!   data there, and both wall-clock event loops fire what is due and
//!   wait no longer than the next deadline (`Coordinator::fire_or_wait`);
//! * everything that differs between the engines sits behind the four
//!   calls of the crate-private `Medium` trait, dispatched statically. A
//!   socket medium frames each live attempt as a fresh header ahead of
//!   the payload's wire bytes — at the origin the bytes a fragment was
//!   prepared in, or an owned payload's encoded on its first attempt, and
//!   the bytes it arrived in everywhere after (see [`crate::frame`]) —
//!   and says whether it was the payload's first send out of its origin,
//!   so the coordinator can count `frames_encoded` against
//!   `frames_forwarded`. A socket medium also launches each payload at its
//!   origin (`Medium::launch`): a payload that is its wire bytes goes in a
//!   pool cell, as an arrival does.
//!
//! The simulator ([`crate::sim_backend`]) is the second applier and is
//! deliberately *not* a `Medium`. What the two appliers decide alike lives
//! here once and both call it: the trace vocabulary (`observe`, the only
//! place a protocol output becomes an event name or a counter), the plan
//! and shape rule table (`validate`, public as [`validate_plans`]), the
//! quiet-dice rule (`dice`), the per-attempt roll (`roll`), the plans'
//! schedule and what a fired timer means (`scheduled`,
//! `TimerKind::fired`), and the protocol-derived part of [`RingMetrics`]
//! (`ring_metrics`). What is left in `sim_backend` is the cost model, and
//! that is the reason it stays a separate applier: set-up is a modeled
//! phase there, a dropped attempt still occupies the link and charges its
//! sender, deliveries charge receive CPU, a join's span is known when it
//! starts, and a rotation may be continuous — each would be a hook only
//! the simulator fills (DESIGN §8 has the list). Both appliers run the
//! protocol over the same in-flight payload type.
//!
//! Alongside live the pieces every wall-clock engine used to carry a copy
//! of: the guarded job runner (`run_job` / `worker_loop`) and the generic
//! driver ([`WallClockDriver`]) that `RingDriver`, `TcpRingDriver` and
//! `ReactorRingDriver` are names for.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use simnet::fault::{FaultPlan, RescalePlan};
use simnet::span::{counter, SpanKind, SpanTracer, Track};
use simnet::time::{SimDuration, SimTime};
use simnet::topology::HostId;

use crate::config::RingConfig;
use crate::envelope::{Envelope, FragmentId, PayloadBytes};
use crate::error::RingError;
use crate::frame::{Frame, WirePayload};
use crate::inflight::{launch_owned, Batches, InFlight, Visit};
use crate::metrics::{HostMetrics, RingMetrics};
use crate::protocol::{
    envelope_batches, query_batches, teardown, Input, Output, ProtocolConfig, RingProtocol, Timer,
};
use crate::reactor_backend::ReactorEngine;
use crate::tcp_backend::BlockingEngine;
use crate::thread_backend::ChannelEngine;

/// Watchdog teardown reason (driver-side; not part of the protocol's
/// teardown cascade).
pub(crate) const STALLED: &str = "ring stalled: no event arrived within the watchdog window";
/// Invariant: [`Output::StartJoin`] always has a payload in the slot.
const EMPTY_SLOT: &str = "StartJoin with an empty processing slot";
/// Invariant: [`Output::Ack`] is only emitted while a delivery is being
/// processed, which names the acking host.
const ACK_OUT_OF_CONTEXT: &str = "ack emitted outside a delivery context";
/// The one capability difference between the engines
/// ([`WallClockEngine::HOST_FAULTS`]): the channel wire of the thread
/// backend has no socket to sever and no salvage path.
const NO_HOST_FAULTS: &str =
    "the threaded backend supports link loss, corruption and delay spikes (plus planned rescale \
     and multiplexing); host crashes and pauses need ring healing — use the simulated backend \
     or a socket backend (tcp, reactor)";

// ---------------------------------------------------------------------------
// What circulates, and what the plans may ask for
// ---------------------------------------------------------------------------

/// What circulates on the ring: one query's envelopes (the classic path)
/// or several pre-numbered queries plus an admission bound.
pub enum Workload<P> {
    /// `envelopes[h]` are host `h`'s local envelopes.
    Single(Vec<Vec<Envelope<P>>>),
    /// Several multiplexed queries.
    Multi {
        /// `(tenant, envelopes)` per query, numbered by
        /// [`query_batches`].
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
/// numbering all four backends share — the parity suite depends on both
/// appliers rolling exactly this. A corrupt attempt gets its checksum
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
/// Both appliers hand every output here before acting on it, so the four
/// backends cannot spell an event differently, and this is the only place
/// an event name is formatted.
///
/// The `match` has no wildcard (xtask L6): a new output fails the build
/// until its trace form is decided. With the tracer off nothing is
/// stamped, formatted or allocated. Spans are not vocabulary: a join,
/// absorb or send span needs a duration only the applier's clock knows.
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
        // Silent: the appliers' own spans (join, absorb) or pure IO.
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
/// applier supplies what only its clock and cost model know.
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

/// A finished [`Job`].
pub(crate) struct JobDone {
    pub(crate) host: HostId,
    pub(crate) spent: Duration,
    pub(crate) panicked: bool,
    /// The medium ran the job on the coordinator's own thread instead of
    /// handing it to a worker (only the reactor ever does).
    pub(crate) inline: bool,
    pub(crate) what: Done,
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

/// Runs one job at `host`, guarding the user callbacks: a panic inside
/// one must become a typed teardown error, not a dead worker. A join
/// visits the owned payload, or the bytes it arrived in read in place.
pub(crate) fn run_job<P, F, A>(host: HostId, job: Job<P>, visit: &F, absorb: &A) -> JobDone
where
    P: WirePayload,
    F: Fn(HostId, u32, &[usize], Visit<'_, P>),
    A: Fn(HostId, usize),
{
    let started = Instant::now();
    let (completed, what) = match job {
        Job::Join {
            payload,
            query,
            roles,
            id,
            hop,
        } => {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let own = [host.0];
                let roles = roles.as_deref().unwrap_or(&own);
                payload
                    .visit()
                    .map(|payload| visit(host, query, roles, payload))
            }));
            (matches!(outcome, Ok(Some(()))), Done::Join { id, hop })
        }
        Job::Absorb {
            from,
            roles,
            planned,
        } => (
            catch_unwind(AssertUnwindSafe(|| {
                roles.iter().for_each(|&role| absorb(host, role))
            }))
            .is_ok(),
            Done::Absorb {
                from,
                roles: roles.len(),
                planned,
            },
        ),
    };
    JobDone {
        host,
        spent: started.elapsed(),
        panicked: !completed,
        inline: false,
        what,
    }
}

/// One host's join worker: runs jobs off its queue until the queue closes
/// or `report` says the coordinator is gone.
pub(crate) fn worker_loop<P, F, A>(
    host: HostId,
    jobs: impl Iterator<Item = Job<P>>,
    mut report: impl FnMut(Event<P>) -> bool,
    visit: &F,
    absorb: &A,
) where
    P: WirePayload,
    F: Fn(HostId, u32, &[usize], Visit<'_, P>),
    A: Fn(HostId, usize),
{
    for job in jobs {
        if !report(Event::Job(run_job(host, job, visit, absorb))) {
            return;
        }
    }
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

/// What the coordinator hears from an engine (and from itself: media
/// queue synchronous follow-ups in the same shape).
pub(crate) enum Event<P> {
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
/// as opposed to what the engine delivers.
pub(crate) struct Pending<P> {
    /// Synchronous follow-ups, handled in order before the engine blocks
    /// for the next external event.
    pub(crate) now: VecDeque<Event<P>>,
    /// Events due at an instant — protocol backoffs, the plans' scheduled
    /// events, a delay spike's arrival — handled once due.
    pub(crate) timers: TimerQueue<Event<P>>,
}

/// The outcome of one timed receive, whatever channel it came from.
pub(crate) enum Recv<T> {
    Item(T),
    Timeout,
    Closed,
}

/// How a live attempt went onto the wire.
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
}

/// What an engine provides: how bytes and jobs actually move. Calls
/// arrive in [`Output`] order; anything a call completes on the spot is
/// queued on `next` instead of re-entering the coordinator, and anything
/// it completes later at a known instant is armed on `next`'s timers.
pub(crate) trait Medium<P> {
    /// Puts one live attempt on the `from → to` wire, no earlier than
    /// `delay` from now (a fault-plan delay spike). The medium owes one
    /// [`Event::SendDone`] for `from` once the wire is free again.
    fn transmit(
        &mut self,
        from: HostId,
        to: HostId,
        tid: u64,
        env: Envelope<InFlight<P>>,
        delay: Duration,
        next: &mut Pending<P>,
    ) -> Result<Sent, RingError>;

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
// Timers: one queue, ordered by (deadline, arm sequence)
// ---------------------------------------------------------------------------

/// Armed timers in `(deadline, arm sequence)` order — the simulator's
/// order — so a loop that oversleeps several deadlines still fires them
/// by deadline, and equal deadlines in the order they were armed.
///
/// Nothing is cancelled: a stale retransmit timer fires like any other
/// and the protocol ignores it. Arming is a binary search and a shift;
/// the next deadline and the next due item are the front.
pub(crate) struct TimerQueue<T> {
    armed: VecDeque<(Instant, T)>,
}

impl<T> TimerQueue<T> {
    pub(crate) fn new() -> Self {
        TimerQueue {
            armed: VecDeque::new(),
        }
    }

    /// Arms `item` for `deadline`, behind every item due no later.
    pub(crate) fn insert(&mut self, deadline: Instant, item: T) {
        let behind = self.armed.partition_point(|(due, _)| *due <= deadline);
        self.armed.insert(behind, (deadline, item));
    }

    /// The earliest armed deadline.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        self.armed.front().map(|(due, _)| *due)
    }

    /// Takes the first item whose deadline is no later than `now`.
    pub(crate) fn pop_due(&mut self, now: Instant) -> Option<T> {
        if self.next_deadline()? > now {
            return None;
        }
        self.armed.pop_front().map(|(_, item)| item)
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
    tracer: SpanTracer,
    epoch: Instant,
    /// Where the current silence began: the first wait since the last
    /// handled event (`None` until the loop waits again).
    silent_since: Option<Instant>,
    wall_ack_timeout: Duration,
    config: &'a RingConfig,
    busy: Vec<Duration>,
    visits_inline: Vec<usize>,
    last_done: Vec<Instant>,
    bytes_forwarded: Vec<u64>,
    last_progress: Instant,
    crash_at: Vec<Option<Instant>>,
    detection_latency: SimDuration,
}

impl<'a, P: PayloadBytes, M: Medium<P>> Coordinator<'a, P, M> {
    /// Builds the protocol for `workload` (reliable iff `plan` is set) with
    /// every payload put in flight, arms the plans' scheduled events —
    /// crashes, pauses, joins, drains, as offsets from this instant — and
    /// reports every host set up, so the first joins and sends are already
    /// applied when this returns.
    pub(crate) fn new(
        config: &'a RingConfig,
        plan: Option<&'a FaultPlan>,
        rescale: Option<&RescalePlan>,
        workload: Workload<P>,
        trace: bool,
        medium: M,
    ) -> Self {
        let n = config.hosts;
        let proto_cfg = ProtocolConfig {
            hosts: n,
            buffers_per_host: config.buffers_per_host,
            max_retransmits: config.max_retransmits,
            continuous: false,
            reliable: plan.is_some(),
            standby: rescale.map_or(0, RescalePlan::standby_mask),
        };
        let proto = match workload {
            Workload::Single(envelopes) => RingProtocol::new(proto_cfg, medium.launch(envelopes)),
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
        let epoch = Instant::now();
        let mut co = Coordinator {
            proto,
            medium,
            pending: Pending {
                now: VecDeque::new(),
                timers: TimerQueue::new(),
            },
            outputs: Vec::new(),
            plan,
            errors: ErrorCollector::default(),
            fatal: false,
            tracer: if trace {
                SpanTracer::enabled()
            } else {
                SpanTracer::disabled()
            },
            epoch,
            silent_since: None,
            wall_ack_timeout: Duration::from_secs_f64(config.ack_timeout.as_secs_f64()),
            config,
            busy: vec![Duration::ZERO; n],
            visits_inline: vec![0; n],
            last_done: vec![epoch; n],
            bytes_forwarded: vec![0; n],
            last_progress: epoch,
            crash_at: vec![None; n],
            detection_latency: SimDuration::ZERO,
        };
        // A plan instant is wall-clock time since the run's epoch.
        for (at, kind) in scheduled(plan, rescale) {
            let deadline = epoch + Duration::from(at.saturating_duration_since(SimTime::ZERO));
            co.pending.timers.insert(deadline, Event::Timer(kind));
        }
        for h in 0..n {
            co.input(Input::SetupDone { host: HostId(h) }, None);
        }
        co
    }

    /// True once every fragment retired or the run failed.
    pub(crate) fn done(&self) -> bool {
        self.fatal || self.proto.fragments_completed() >= self.proto.fragments_total()
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
            let Some(wait) = self.fire_or_wait(Instant::now()) else {
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
    /// may block for its next event: until the next deadline, and no
    /// longer than what is left of the watchdog window. The window is the
    /// silence since the loop first waited after the last handled event (a
    /// fired timer is one); when it runs out the run is torn down as
    /// stalled. `None` means the loop goes round again: a timer fired, or
    /// the run stalled.
    pub(crate) fn fire_or_wait(&mut self, now: Instant) -> Option<Duration> {
        if let Some(event) = self.pending.timers.pop_due(now) {
            self.handle(event);
            return None;
        }
        let silent = now.saturating_duration_since(*self.silent_since.get_or_insert(now));
        let left = Duration::from(self.config.watchdog).saturating_sub(silent);
        if left.is_zero() {
            self.fail(RingError::Teardown(STALLED));
            return None;
        }
        Some(match self.pending.timers.next_deadline() {
            Some(due) => left.min(due.saturating_duration_since(now)),
            None => left,
        })
    }

    /// Translates one event into a protocol [`Input`] and applies what
    /// the protocol answers.
    pub(crate) fn handle(&mut self, event: Event<P>) {
        self.silent_since = None;
        match event {
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
    // analyze: allow(panic, reason = "protocol invariant: per-host tables are sized to the ring at construction and HostId never exceeds it")
    pub(crate) fn finish(self) -> Result<(RingMetrics, SpanTracer), RingError> {
        if let Some(error) = self.errors.first() {
            return Err(error);
        }
        let n = self.proto.config().hosts;
        let mut hosts = Vec::with_capacity(n);
        for h in 0..n {
            let host = HostId(h);
            let busy = self.busy[h];
            let window = self.last_done[h].saturating_duration_since(self.epoch);
            let mut cpu = simnet::cpu::CpuAccount::new();
            cpu.charge(
                simnet::cpu::CostCategory::Compute,
                SimDuration::from(busy) * self.config.join_threads as u64,
            );
            hosts.push(HostMetrics {
                setup: SimDuration::ZERO,
                join_busy: busy.into(),
                sync: window.saturating_sub(busy).into(),
                join_window: window.into(),
                cpu,
                fragments_processed: self.proto.host(host).fragments_processed(),
                visits_inline: self.visits_inline[h],
                bytes_forwarded: self.bytes_forwarded[h],
                retransmits: self.proto.retransmits(host),
                checksum_mismatches: self.proto.checksum_mismatches(host),
            });
        }
        let wall_clock = self.last_progress.saturating_duration_since(self.epoch);
        let metrics = ring_metrics(
            &self.proto,
            hosts,
            wall_clock.into(),
            self.detection_latency,
        );
        let mut tracer = self.tracer;
        materialize_counters(&mut tracer);
        Ok((metrics, tracer))
    }

    fn progressed(&mut self) {
        self.last_progress = self.last_progress.max(Instant::now());
    }

    fn input(&mut self, input: Input<InFlight<P>>, ctx: Option<HostId>) {
        let mut outputs = std::mem::take(&mut self.outputs);
        self.proto.input_into(input, &mut outputs);
        self.apply(&mut outputs, ctx);
        self.outputs = outputs;
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

    // analyze: allow(panic, reason = "protocol invariant: per-host tables are sized to the ring at construction and HostId never exceeds it")
    fn on_job_done(&mut self, done: JobDone) {
        let JobDone {
            host,
            spent,
            panicked,
            inline,
            what,
        } = done;
        if self.proto.is_crashed(host) {
            // The work died with the host; healing salvages its envelope.
            return;
        }
        if panicked {
            return self.fail(RingError::Teardown(teardown::CALLBACK_PANICKED));
        }
        self.busy[host.0] += spent;
        if inline {
            self.visits_inline[host.0] += 1;
            self.tracer.count(counter::VISITS_INLINE, 1);
        }
        let now = Instant::now();
        let since = std::mem::replace(&mut self.last_done[host.0], now);
        self.last_progress = self.last_progress.max(now);
        let stamp = |offset: Duration| SimTime::from_nanos(SimDuration::from(offset).as_nanos());
        let start = stamp(
            now.saturating_duration_since(self.epoch)
                .saturating_sub(spent),
        );
        // The host waited for whatever of the time since its previous
        // job this one did not take, so the sync spans sum to the metric,
        // `window - busy` (exactly, unless a takeover queued behind a
        // join started before this coordinator heard the join finish).
        let waited = now.saturating_duration_since(since).saturating_sub(spent);
        if self.tracer.is_enabled() && !waited.is_zero() {
            let from = stamp(since.saturating_duration_since(self.epoch));
            self.tracer
                .span(host.0, SpanKind::Sync, "sync", from, waited.into());
        }
        match what {
            Done::Join { id, hop } => {
                if self.tracer.is_enabled() {
                    self.tracer.span_with_hop(
                        host.0,
                        SpanKind::Join,
                        format!("join {id}"),
                        start,
                        spent.into(),
                        Some(hop),
                    );
                }
                self.input(
                    Input::JoinDone {
                        host,
                        app_finished: false,
                    },
                    None,
                );
            }
            Done::Absorb {
                from,
                roles,
                planned,
            } => {
                if self.tracer.is_enabled() {
                    let name = takeover_name(planned, roles, from);
                    self.tracer
                        .span(host.0, SpanKind::Absorb, name, start, spent.into());
                }
                self.input(Input::AbsorbDone { host }, None);
            }
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
            if self.tracer.is_enabled() {
                let at = wall_stamp(self.epoch);
                self.tracer.event(Some(host.0), Track::Control, name, at);
            }
            if kind == TimerKind::Crash(host) {
                self.crash_at[host.0] = Some(Instant::now());
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
        let epoch = self.epoch;
        for output in outputs.drain(..) {
            if self.fatal {
                return;
            }
            observe(&mut self.tracer, || wall_stamp(epoch), &output);
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
                    let delay = self
                        .wall_ack_timeout
                        .saturating_mul(1u32 << backoff_exp.min(31));
                    // A deadline past what an `Instant` holds never comes.
                    if let Some(due) = Instant::now().checked_add(delay) {
                        let timer = Event::Timer(TimerKind::Protocol(timer));
                        self.pending.timers.insert(due, timer);
                    }
                }
                Output::Heal { dead } => {
                    // A heal without a scheduled crash is an escalated
                    // drain: nothing to measure detection against.
                    let latency = self.crash_at[dead.0]
                        .map_or(SimDuration::ZERO, |at| SimDuration::from(at.elapsed()));
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
                Output::Teardown { reason } => self.fail(RingError::Teardown(reason)),
                // Nothing to do beyond the trace (continuous rotation,
                // which alone emits `Finished`, is simulator-only).
                Output::PassThrough { .. }
                | Output::Processed { .. }
                | Output::Delivered { .. }
                | Output::DuplicateDropped { .. }
                | Output::ChecksumMismatch { .. }
                | Output::Resent { .. }
                | Output::Finished { .. } => {}
            }
        }
    }

    /// Puts one attempt of a transfer toward the wire: rolls the dice and
    /// hands a live attempt to the medium.
    // analyze: allow(panic, reason = "protocol invariant: per-host tables are sized to the ring at construction and HostId never exceeds it")
    fn apply_send(
        &mut self,
        from: HostId,
        to: HostId,
        tid: u64,
        attempt: u32,
        env: Envelope<InFlight<P>>,
    ) {
        self.bytes_forwarded[from.0] += env.bytes();
        let mut wire = env;
        let (dropped, spike) = roll(self.plan, &mut self.proto, from, tid, attempt, &mut wire);
        if dropped {
            // The medium ate this attempt before it reached the wire; the
            // sender's NIC still reports its wire free.
            self.pending.now.push_back(Event::SendDone { from });
            return;
        }
        match self
            .medium
            .transmit(from, to, tid, wire, spike.into(), &mut self.pending)
        {
            Ok(Sent::Moved) => {}
            Ok(Sent::Encoded) => self.tracer.count(counter::FRAMES_ENCODED, 1),
            Ok(Sent::Forwarded) => self.tracer.count(counter::FRAMES_FORWARDED, 1),
            Err(error) => self.fail(error),
        }
    }
}

/// Wall-clock time since `epoch` on the tracer's timeline.
fn wall_stamp(epoch: Instant) -> SimTime {
    SimTime::from_nanos(SimDuration::from(epoch.elapsed()).as_nanos())
}

// ---------------------------------------------------------------------------
// The wall-clock driver: one builder, three engines
// ---------------------------------------------------------------------------

/// The seal on [`WallClockEngine`]: nameable inside this crate only.
pub trait Sealed {}
impl Sealed for ChannelEngine {}
impl Sealed for BlockingEngine {}
impl Sealed for ReactorEngine {}

/// How a wall-clock driver runs a validated ring: over in-process
/// channels, on the blocking thread-per-endpoint socket engine, or on the
/// single-threaded reactor. A one-host ring has no wire, and every driver
/// runs it on the channel engine. All three roll the same dice and the
/// socket engines speak the frames of [`crate::frame`], so everything in
/// [`WallClockDriver`] above this call is shared.
///
/// Sealed: [`ChannelEngine`], [`BlockingEngine`] and [`ReactorEngine`] are
/// the engines there are; the trait is public only so the driver's three
/// names can be.
pub trait WallClockEngine: Sealed {
    /// Whether the engine's medium can realize host crashes and pauses;
    /// plans scheduling them are [`RingError::UnsupportedFault`] otherwise.
    const HOST_FAULTS: bool;

    /// Runs `workload` to completion (on the socket engines, a ring of at
    /// least two hosts).
    /// `plan` is the effective dice (`None` means the classic unguarded
    /// transport).
    ///
    /// # Errors
    ///
    /// [`RingError::Socket`] when the loopback mesh cannot be built, and
    /// [`RingError::Frame`] / [`RingError::Teardown`] when the run dies
    /// mid-revolution.
    fn run_mesh<P, F, A>(
        config: &RingConfig,
        plan: Option<&FaultPlan>,
        rescale: Option<&RescalePlan>,
        trace: bool,
        workload: Workload<P>,
        visit: &F,
        absorb: &A,
    ) -> Result<(RingMetrics, SpanTracer), RingError>
    where
        P: WirePayload + Send + Clone,
        F: Fn(HostId, u32, &[usize], Visit<'_, P>) + Sync,
        A: Fn(HostId, usize) + Sync;
}

/// Builder for a wall-clock ring run, generic over the engine that drives
/// it. Use it through its three names, [`RingDriver`](crate::RingDriver),
/// [`TcpRingDriver`](crate::TcpRingDriver) and
/// [`ReactorRingDriver`](crate::ReactorRingDriver).
pub struct WallClockDriver<'a, E> {
    config: &'a RingConfig,
    fault_plan: Option<&'a FaultPlan>,
    rescale_plan: Option<&'a RescalePlan>,
    trace: bool,
    engine: PhantomData<E>,
}

impl<E> Clone for WallClockDriver<'_, E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E> Copy for WallClockDriver<'_, E> {}

impl<'a, E: WallClockEngine> WallClockDriver<'a, E> {
    /// A driver for `config` with the classic transport and no tracing.
    pub fn new(config: &'a RingConfig) -> Self {
        WallClockDriver {
            config,
            fault_plan: None,
            rescale_plan: None,
            trace: false,
            engine: PhantomData,
        }
    }

    /// Runs the ring over the unreliable medium described by `plan`, with
    /// every hop protected by the protocol core's acknowledged transport:
    /// the plan's dice may drop, corrupt or delay each attempt, and the
    /// protocol repairs it by checksum verification and timeout-driven
    /// retransmission. On the socket engines scheduled crashes become real
    /// socket severs and mid-revolution ring healing; the channel engine
    /// rejects plans scheduling crashes or pauses. `config.ack_timeout` is
    /// interpreted in wall-clock time (choose it to comfortably exceed a
    /// hop's round trip plus coordinator latency, or losses masquerade as
    /// timeouts).
    pub fn with_fault_plan(mut self, plan: &'a FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Attaches a planned [`RescalePlan`]: standby hosts joining and
    /// members draining out mid-workload, with their stationary roles
    /// repartitioned by rendezvous hashing. Hosts with a scheduled join
    /// start as provisioned standbys outside the ring and must contribute
    /// no fragments (on the socket engines their mesh connections are
    /// built up front and spliced into the rotation at activation, and a
    /// completed drain retires the drainee's connections with a real FIN).
    /// Attaching a rescale plan switches the transport into its reliable
    /// mode even without a fault plan. Schedule instants are interpreted
    /// in wall-clock time from ring start.
    pub fn with_rescale_plan(mut self, plan: &'a RescalePlan) -> Self {
        self.rescale_plan = Some(plan);
        self
    }

    /// Enables structured span recording for this run.
    pub fn with_tracer(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Runs the ring to completion. `fragments[h]` are host `h`'s local
    /// fragments; `process` is invoked once per (host, envelope) visit and
    /// may itself be internally multi-threaded.
    ///
    /// `process` sees an owned `&P`, so this is the one path that still
    /// materialises a payload: a copy in bytes on a socket engine is copied
    /// out of them for each visit ([`WirePayload::from_accepted`]: one
    /// copy of the bytes, for a payload that is its bytes); an owned copy
    /// is lent as it is. [`WallClockDriver::run_with_roles`]
    /// hands the visit a view and copies nothing.
    ///
    /// Returns wall-clock metrics in the common [`RingMetrics`] shape
    /// (setup is zero here — run any setup before calling and time it
    /// yourself; CPU accounts contain compute time only), plus the
    /// [`SpanTracer`] (empty and disabled unless
    /// [`WallClockDriver::with_tracer`] was set).
    ///
    /// # Errors
    ///
    /// As [`WallClockDriver::run_with_roles`].
    pub fn run<P, F>(
        self,
        fragments: Vec<Vec<P>>,
        process: F,
    ) -> Result<(RingMetrics, SpanTracer), RingError>
    where
        P: WirePayload + Send + Clone,
        F: Fn(HostId, &P) + Sync,
    {
        self.run_visits(
            fragments,
            |host, _roles, payload: Visit<'_, P>| match payload {
                Visit::Owned(payload) => process(host, payload),
                Visit::Viewed(view, bytes) => process(host, &P::from_accepted(view, bytes)),
            },
            |_, _| {},
        )
    }

    /// Like [`WallClockDriver::run`], but role-aware for healing and
    /// rescaled runs: `visit(host, roles, view)` applies the named
    /// logical stationary roles (the host's own, plus any absorbed from
    /// dead or drained hosts), and `absorb(survivor, role)` performs the
    /// state takeover — on `survivor`'s worker — when the ring heals
    /// around a confirmed death or a drain hands a role off.
    ///
    /// The visit reads the payload through its [`WirePayload::View`]: the
    /// origin's owned payload borrowed, and on the socket engines every
    /// other copy read in the bytes it arrived in. No payload is decoded.
    ///
    /// # Errors
    ///
    /// Returns [`RingError::Config`] for an invalid configuration,
    /// [`RingError::Shape`] when `fragments.len() != config.hosts`,
    /// [`RingError::UnsupportedFault`] for plans this engine cannot
    /// realize (more than 64 hosts with a plan, crashes or pauses on the
    /// channel engine, a crash or rescale on a single-host ring, plans
    /// naming hosts outside the ring, a standby that contributes
    /// fragments), [`RingError::Socket`] when the loopback mesh cannot be
    /// built, and [`RingError::Frame`] / [`RingError::Teardown`] when the
    /// run dies mid-revolution (undecodable bytes, a panicking callback,
    /// an exhausted retransmission budget on a live ring, or a stall). The
    /// error names the first failure, not the teardown cascade it
    /// provokes.
    pub fn run_with_roles<P, F, A>(
        self,
        fragments: Vec<Vec<P>>,
        visit: F,
        absorb: A,
    ) -> Result<(RingMetrics, SpanTracer), RingError>
    where
        P: WirePayload + Send + Clone,
        F: Fn(HostId, &[usize], P::View<'_>) + Sync,
        A: Fn(HostId, usize) + Sync,
    {
        self.run_visits(
            fragments,
            |host, roles, payload: Visit<'_, P>| visit(host, roles, payload.view()),
            absorb,
        )
    }

    /// [`WallClockDriver::run_with_roles`] with the visit taking the
    /// payload as the engines hand it over.
    fn run_visits<P, F, A>(
        self,
        fragments: Vec<Vec<P>>,
        visit: F,
        absorb: A,
    ) -> Result<(RingMetrics, SpanTracer), RingError>
    where
        P: WirePayload + Send + Clone,
        F: Fn(HostId, &[usize], Visit<'_, P>) + Sync,
        A: Fn(HostId, usize) + Sync,
    {
        validate(
            self.config,
            self.fault_plan,
            self.rescale_plan,
            &[&fragments],
            None,
            E::HOST_FAULTS,
        )?;
        let plan = dice(self.fault_plan, self.rescale_plan, false);
        let workload = Workload::Single(envelope_batches(fragments, self.config.hosts));
        let visit = |host, _query: u32, roles: &[usize], payload: Visit<'_, P>| {
            visit(host, roles, payload);
        };
        // A single-host "ring" has no wire: every engine runs it on the
        // channel engine's coordinator.
        let run_mesh = if self.config.hosts == 1 {
            ChannelEngine::run_mesh
        } else {
            E::run_mesh
        };
        run_mesh(
            self.config,
            plan.as_deref(),
            self.rescale_plan,
            self.trace,
            workload,
            &visit,
            &absorb,
        )
    }

    /// Runs several queries multiplexed over one ring.
    /// `queries[q]` is `(tenant, fragments)` with `fragments[h]` host
    /// `h`'s local fragments for query `q`; at most `max_active` queries
    /// circulate concurrently, the rest wait in the admission queue.
    /// `visit(host, query, roles, view)` joins one fragment of `query`
    /// against the named stationary roles; `absorb(survivor, role)`
    /// rebuilds a dead host's state (for every query) when the ring
    /// heals. Always uses the reliable acked transport (quiet dice are
    /// synthesized without a fault plan).
    ///
    /// # Errors
    ///
    /// As [`WallClockDriver::run_with_roles`], plus
    /// [`RingError::UnsupportedFault`] on a single-host ring, an empty
    /// query list or a zero `max_active`.
    pub fn run_queries<P, F, A>(
        self,
        queries: Vec<(u32, Vec<Vec<P>>)>,
        max_active: usize,
        visit: F,
        absorb: A,
    ) -> Result<(RingMetrics, SpanTracer), RingError>
    where
        P: WirePayload + Send + Clone,
        F: Fn(HostId, u32, &[usize], P::View<'_>) + Sync,
        A: Fn(HostId, usize) + Sync,
    {
        let shapes: Vec<&[Vec<P>]> = queries.iter().map(|(_, f)| f.as_slice()).collect();
        validate(
            self.config,
            self.fault_plan,
            self.rescale_plan,
            &shapes,
            Some(max_active),
            E::HOST_FAULTS,
        )?;
        let plan = dice(self.fault_plan, self.rescale_plan, true);
        E::run_mesh(
            self.config,
            plan.as_deref(),
            self.rescale_plan,
            self.trace,
            Workload::Multi {
                queries: query_batches(queries, self.config.hosts),
                max_active,
            },
            &|host, query, roles: &[usize], payload: Visit<'_, P>| {
                visit(host, query, roles, payload.view());
            },
            &absorb,
        )
    }
}

/// What every [`WallClockEngine`] owes its users, as generic test bodies:
/// each engine's test module instantiates them, so the channel, the
/// blocking and the reactor engine are held to the same assertions.
#[cfg(test)]
pub(crate) mod engine_suite {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    pub(crate) fn payloads(hosts: usize, per_host: usize, bytes: usize) -> Vec<Vec<Vec<u8>>> {
        (0..hosts)
            .map(|h| {
                (0..per_host)
                    .map(|i| vec![(h * 31 + i) as u8; bytes])
                    .collect()
            })
            .collect()
    }

    pub(crate) fn every_host_sees_every_fragment<E: WallClockEngine>() {
        let hosts = 3;
        let counts: Vec<AtomicUsize> = (0..hosts).map(|_| AtomicUsize::new(0)).collect();
        let (metrics, _) = WallClockDriver::<E>::new(&RingConfig::paper(hosts))
            .run(payloads(hosts, 2, 64), |h, _| {
                counts[h.0].fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        assert_eq!(metrics.fragments_completed, 6);
        for c in &counts {
            assert_eq!(c.load(Ordering::SeqCst), 6);
        }
        for h in &metrics.hosts {
            assert_eq!(h.fragments_processed, 6);
        }
        assert_eq!(
            metrics.total_bytes_forwarded() as usize,
            6 * 64 * (hosts - 1)
        );
        assert!(metrics.fault_free());
    }

    pub(crate) fn single_host_ring_needs_no_sockets<E: WallClockEngine>() {
        let n = AtomicUsize::new(0);
        let (metrics, _) = WallClockDriver::<E>::new(&RingConfig::paper(1))
            .run(payloads(1, 4, 32), |_, _| {
                n.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        assert_eq!(metrics.fragments_completed, 4);
        assert_eq!(n.load(Ordering::SeqCst), 4);
    }

    pub(crate) fn shape_and_config_errors_are_typed<E: WallClockEngine>() {
        let err = WallClockDriver::<E>::new(&RingConfig::paper(3))
            .run(payloads(2, 1, 8), |_, _| {})
            .unwrap_err();
        assert!(matches!(
            err,
            RingError::Shape {
                expected: 3,
                got: 2
            }
        ));
        let bad = RingConfig::paper(0);
        let err = WallClockDriver::<E>::new(&bad)
            .run(vec![], |_: HostId, _: &Vec<u8>| {})
            .unwrap_err();
        assert!(matches!(err, RingError::Config(_)));
    }

    pub(crate) fn out_of_ring_faults_are_rejected<E: WallClockEngine>() {
        let plan = FaultPlan::seeded(1).crash_host(HostId(9), SimTime::from_nanos(1));
        let err = WallClockDriver::<E>::new(&RingConfig::paper(2))
            .with_fault_plan(&plan)
            .run(payloads(2, 1, 8), |_, _| {})
            .unwrap_err();
        assert!(matches!(err, RingError::UnsupportedFault(_)));
    }

    /// A plan that leaves the ring no initial member is refused by the
    /// rule table, before any thread or socket exists (it used to panic
    /// inside `RingProtocol::new`, and hang the blocking engine).
    pub(crate) fn all_standby_rescale_is_rejected<E: WallClockEngine>() {
        let plan = RescalePlan::seeded(1)
            .join_host(HostId(0), SimTime::from_nanos(1_000))
            .join_host(HostId(1), SimTime::from_nanos(1_000));
        let err = WallClockDriver::<E>::new(&RingConfig::paper(2))
            .with_rescale_plan(&plan)
            .run(payloads(2, 0, 8), |_, _| {})
            .unwrap_err();
        assert_eq!(
            err,
            RingError::UnsupportedFault("a rescale plan cannot make every host a standby")
        );
    }

    pub(crate) fn lossy_and_corrupt_links_are_repaired<E: WallClockEngine>() {
        let hosts = 3;
        let plan = FaultPlan::seeded(7)
            .lossy_link(HostId(0), 0.3)
            .corrupt_link(HostId(1), 0.3);
        let config = RingConfig::paper(hosts)
            .with_ack_timeout(SimDuration::from_millis(40))
            .with_max_retransmits(10);
        let counts: Vec<AtomicUsize> = (0..hosts).map(|_| AtomicUsize::new(0)).collect();
        let (metrics, _) = WallClockDriver::<E>::new(&config)
            .with_fault_plan(&plan)
            .run(payloads(hosts, 3, 256), |h, _| {
                counts[h.0].fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        assert_eq!(metrics.fragments_completed, 9);
        for c in &counts {
            assert_eq!(c.load(Ordering::SeqCst), 9);
        }
        let retransmits: u64 = metrics.hosts.iter().map(|h| h.retransmits).sum();
        assert!(retransmits > 0, "a 30% loss rate must provoke retransmits");
    }

    /// One exactly-once cell per (fragment, logical role) of a
    /// `payloads(hosts, per_host, _)` ring.
    fn role_cells(hosts: usize, per_host: usize) -> Vec<Vec<AtomicUsize>> {
        (0..hosts * per_host)
            .map(|_| (0..hosts).map(|_| AtomicUsize::new(0)).collect())
            .collect()
    }

    /// Marks `roles` applied to the fragment `payload` carries (identified
    /// by its fill byte).
    fn apply_roles(cells: &[Vec<AtomicUsize>], hosts: usize, roles: &[usize], payload: &[u8]) {
        let fill = payload.first().copied().unwrap_or(0) as usize;
        let per_host = cells.len() / hosts;
        let frag = (0..hosts)
            .flat_map(|h| (0..per_host).map(move |i| (h, i)))
            .position(|(h, i)| h * 31 + i == fill)
            .unwrap();
        for &r in roles {
            cells[frag][r].fetch_add(1, Ordering::SeqCst);
        }
    }

    fn assert_applied_exactly_once(cells: &[Vec<AtomicUsize>]) {
        for (f, roles) in cells.iter().enumerate() {
            for (r, cell) in roles.iter().enumerate() {
                assert_eq!(
                    cell.load(Ordering::SeqCst),
                    1,
                    "fragment {f} role {r} must be applied exactly once"
                );
            }
        }
    }

    pub(crate) fn crash_heals_mid_revolution<E: WallClockEngine>() {
        let hosts = 4;
        let per_host = 2;
        let plan = FaultPlan::seeded(4242).crash_host(HostId(2), SimTime::from_nanos(4_000_000));
        let config = RingConfig::paper(hosts)
            .with_ack_timeout(SimDuration::from_millis(8))
            .with_max_retransmits(3);
        let applied = role_cells(hosts, per_host);
        // Every state takeover the ring asks for: (survivor, role).
        let absorbed = Mutex::new(Vec::new());
        let (metrics, _) = WallClockDriver::<E>::new(&config)
            .with_fault_plan(&plan)
            .run_with_roles(
                payloads(hosts, per_host, 128),
                |_, roles, payload| {
                    apply_roles(&applied, hosts, roles, payload);
                    std::thread::sleep(Duration::from_micros(500));
                },
                |survivor, role| absorbed.lock().unwrap().push((survivor, role)),
            )
            .unwrap();
        assert_eq!(metrics.fragments_completed, hosts * per_host);
        assert_eq!(metrics.heal_events, 1, "one confirmed death");
        // One dead host with one role: one takeover, by a live host.
        let absorbed = absorbed.into_inner().unwrap();
        assert!(
            matches!(absorbed[..], [(survivor, 2)] if survivor != HostId(2)),
            "role 2 must be absorbed exactly once, got {absorbed:?}"
        );
        assert!(metrics.detection_latency > SimDuration::ZERO);
        assert_applied_exactly_once(&applied);
    }

    pub(crate) fn drain_hands_its_role_off_exactly_once<E: WallClockEngine>() {
        // Host 1 is asked to drain as the ring starts: its one role moves
        // to a live host, whose worker runs the takeover, and no
        // (fragment, role) visit is lost or repeated across the handoff.
        let hosts = 3;
        let per_host = 2;
        let rescale = RescalePlan::seeded(5).drain_host(HostId(1), SimTime::ZERO);
        let config = RingConfig::paper(hosts)
            .with_ack_timeout(SimDuration::from_millis(20))
            .with_max_retransmits(6);
        let applied = role_cells(hosts, per_host);
        let absorbed = Mutex::new(Vec::new());
        let (metrics, _) = WallClockDriver::<E>::new(&config)
            .with_rescale_plan(&rescale)
            .run_with_roles(
                payloads(hosts, per_host, 64),
                |_, roles, payload| {
                    apply_roles(&applied, hosts, roles, payload);
                    std::thread::sleep(Duration::from_millis(1));
                },
                |survivor, role| absorbed.lock().unwrap().push((survivor, role)),
            )
            .unwrap();
        assert_eq!(metrics.fragments_completed, hosts * per_host);
        assert_eq!(metrics.rescale_drains, 1);
        assert_eq!(metrics.rescale_handoffs, 1);
        assert_eq!(metrics.heal_events, 0, "a clean drain never heals");
        let absorbed = absorbed.into_inner().unwrap();
        assert!(
            matches!(absorbed[..], [(survivor, 1)] if survivor != HostId(1)),
            "role 1 must be handed off exactly once, got {absorbed:?}"
        );
        assert_applied_exactly_once(&applied);
    }

    pub(crate) fn planned_join_and_drain<E: WallClockEngine>() {
        // Host 2 starts as a standby and joins at 1 ms (rendezvous moves
        // role 0 to it — a pure function of ids); host 0, now role-less,
        // drains at 8 ms while per-buffer sleeps keep the ring busy well
        // past that instant. On sockets the departed host sees a real FIN.
        let hosts = 3;
        let per_host = 3;
        let rescale = RescalePlan::seeded(77)
            .join_host(HostId(2), SimTime::from_nanos(1_000_000))
            .drain_host(HostId(0), SimTime::from_nanos(8_000_000));
        let config = RingConfig::paper(hosts)
            .with_ack_timeout(SimDuration::from_millis(20))
            .with_max_retransmits(6);
        let mut envelopes = payloads(hosts, per_host, 64);
        envelopes[2].clear(); // the standby provisions no fragments
        let counts: Vec<AtomicUsize> = (0..hosts).map(|_| AtomicUsize::new(0)).collect();
        let (metrics, tracer) = WallClockDriver::<E>::new(&config)
            .with_rescale_plan(&rescale)
            .with_tracer(true)
            .run(envelopes, |h, _: &Vec<u8>| {
                counts[h.0].fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
            })
            .unwrap();
        assert_eq!(metrics.fragments_completed, 2 * per_host);
        assert_eq!(metrics.membership_epoch, 2, "one join + one drain");
        assert_eq!(metrics.rescale_joins, 1);
        assert_eq!(metrics.rescale_drains, 1);
        assert_eq!(metrics.rescale_handoffs, 1, "role 0 moved to the newcomer");
        assert_eq!(metrics.rescale_escalations, 0);
        assert_eq!(metrics.heal_events, 0, "a planned rescale is not a fault");
        assert!(
            counts[2].load(Ordering::SeqCst) > 0,
            "newcomer must process"
        );
        assert_eq!(tracer.count_events("activated"), 1);
        assert_eq!(tracer.count_events("departed"), 1);
        let c = tracer.counters();
        assert_eq!(c.get(counter::RESCALE_JOINS), 1);
        assert_eq!(c.get(counter::RESCALE_DRAINS), 1);
        assert_eq!(c.get(counter::RESCALE_HANDOFFS), 1);
    }

    pub(crate) fn multiplexed_queries_complete<E: WallClockEngine>() {
        let hosts = 3;
        let queries = 3;
        let cfg = RingConfig::paper(hosts)
            .with_ack_timeout(SimDuration::from_millis(50))
            .with_max_retransmits(6);
        let tenants: Vec<(u32, Vec<Vec<Vec<u8>>>)> = (0..queries)
            .map(|q| (q as u32, payloads(hosts, 2, 64)))
            .collect();
        let counts: Vec<AtomicUsize> = (0..hosts).map(|_| AtomicUsize::new(0)).collect();
        let (metrics, spans) = WallClockDriver::<E>::new(&cfg)
            .with_tracer(true)
            .run_queries(
                tenants,
                2,
                |h, _query, _roles: &[usize], _| {
                    counts[h.0].fetch_add(1, Ordering::SeqCst);
                },
                |_, _| {},
            )
            .unwrap();
        assert_eq!(metrics.fragments_completed, queries * hosts * 2);
        assert_eq!(metrics.queries.len(), queries);
        for (q, m) in metrics.queries.iter().enumerate() {
            assert_eq!(m.tenant, q as u32);
            assert!(m.completed, "query {q}: {m:?}");
            assert_eq!(m.fragments_completed, hosts * 2);
        }
        for c in &counts {
            assert_eq!(c.load(Ordering::SeqCst), queries * hosts * 2);
        }
        let counters = spans.counters();
        assert_eq!(counters.get(counter::QUERIES_ADMITTED), queries as u64);
        assert_eq!(counters.get(counter::QUERIES_COMPLETED), queries as u64);
    }

    /// Encodes and decodes of [`Counted`] payloads, by the slot their
    /// first byte names, and encodes of [`Prepared`] ones, by the slot
    /// they carry: one slot per (test, engine), so tests running side by
    /// side never share a count.
    static ENCODES: [AtomicUsize; 6] = [const { AtomicUsize::new(0) }; 6];
    static DECODES: [AtomicUsize; 4] = [const { AtomicUsize::new(0) }; 4];

    /// Raw bytes that count their encodes in `ENCODES[bytes[0]]` and their
    /// decodes in `DECODES[bytes[0]]`.
    #[derive(Debug, Clone)]
    pub(crate) struct Counted(Vec<u8>);

    impl PayloadBytes for Counted {
        fn payload_bytes(&self) -> u64 {
            self.0.payload_bytes()
        }

        fn payload_checksum(&self) -> u64 {
            self.0.payload_checksum()
        }
    }

    impl WirePayload for Counted {
        type View<'a> = &'a [u8];

        fn payload_wire_len(&self) -> usize {
            self.0.len()
        }

        fn encode_payload(&self, out: &mut Vec<u8>) {
            ENCODES[self.0[0] as usize].fetch_add(1, Ordering::SeqCst);
            out.extend_from_slice(&self.0);
        }

        fn view(bytes: &[u8]) -> Result<&[u8], crate::error::FrameError> {
            Ok(bytes)
        }

        fn as_view(&self) -> &[u8] {
            &self.0
        }

        fn from_view(view: &[u8]) -> Self {
            Counted(view.to_vec())
        }

        fn decode_payload(bytes: &[u8]) -> Result<Self, crate::error::FrameError> {
            DECODES[bytes[0] as usize].fetch_add(1, Ordering::SeqCst);
            Ok(Counted(bytes.to_vec()))
        }
    }

    /// `hosts × per_host` distinct 300-byte [`Counted`] payloads of
    /// `slot`.
    fn counted(slot: u8, hosts: usize, per_host: usize) -> Vec<Vec<Counted>> {
        (0..hosts)
            .map(|h| {
                (0..per_host)
                    .map(|i| {
                        let mut bytes = vec![slot, h as u8, i as u8];
                        bytes.resize(300, (h * 7 + i) as u8);
                        Counted(bytes)
                    })
                    .collect()
            })
            .collect()
    }

    /// The lossy, corrupting plan the frame-path tests run under.
    fn lossy_corrupting_plan() -> FaultPlan {
        FaultPlan::seeded(23)
            .lossy_link(HostId(0), 0.25)
            .corrupt_link(HostId(1), 0.3)
            .corrupt_link(HostId(2), 0.2)
    }

    /// A socket engine encodes each fragment once — at its origin, on its
    /// first attempt — and frames every other send from those bytes: on a
    /// quiet ring, and under a lossy and corrupting plan whatever the
    /// retransmissions, where every corrupted attempt is still rejected
    /// by the receiver's checksum and repaired. `slot` is the engine's own
    /// encode counter.
    pub(crate) fn each_fragment_is_encoded_once<E: WallClockEngine>(slot: u8) {
        let (hosts, per_host) = (3usize, 4usize);
        let total = hosts * per_host;
        let fragments = counted(slot, hosts, per_host);
        let plan = lossy_corrupting_plan();
        let config = RingConfig::paper(hosts)
            .with_ack_timeout(SimDuration::from_millis(40))
            .with_max_retransmits(12);
        for faulty in [false, true] {
            ENCODES[slot as usize].store(0, Ordering::SeqCst);
            let seen: Vec<Mutex<Vec<Vec<u8>>>> = (0..hosts).map(|_| Mutex::default()).collect();
            let mut driver = WallClockDriver::<E>::new(&config).with_tracer(true);
            if faulty {
                driver = driver.with_fault_plan(&plan);
            }
            let (metrics, tracer) = driver
                .run(fragments.clone(), |h, payload: &Counted| {
                    seen[h.0].lock().unwrap().push(payload.0.clone());
                })
                .unwrap();
            assert_eq!(metrics.fragments_completed, total);
            assert_eq!(
                ENCODES[slot as usize].load(Ordering::SeqCst),
                total,
                "one encode per fragment (faulty plan: {faulty})"
            );
            assert_frame_counts(&metrics, &tracer, hosts, total, faulty);
            // Every host visited every fragment exactly once, intact.
            let want = fragments.iter().flatten().map(|c| c.0.clone()).collect();
            assert_every_host_saw(seen, want);
        }
    }

    /// A run's frame counts: one first send out of its origin per
    /// fragment, the rest forwards, one frame per hop on a quiet ring and
    /// at least that under `faulty` dice, which must have lost and
    /// corrupted attempts.
    fn assert_frame_counts(
        metrics: &RingMetrics,
        tracer: &SpanTracer,
        hosts: usize,
        total: usize,
        faulty: bool,
    ) {
        let c = tracer.counters();
        let (encoded, forwarded) = (
            c.get(counter::FRAMES_ENCODED),
            c.get(counter::FRAMES_FORWARDED),
        );
        assert_eq!(encoded, total as u64);
        // Every hop's last attempt reached the wire; retransmissions may
        // add more (or be eaten by the dice before it).
        let hops = (total * (hosts - 1)) as u64;
        assert!(
            (hops..=hops + metrics.total_retransmits()).contains(&(encoded + forwarded)),
            "{encoded} + {forwarded} framed for {hops} hops"
        );
        if faulty {
            assert!(
                metrics.total_retransmits() > 0,
                "the plan must lose attempts"
            );
            assert!(
                metrics.total_checksum_mismatches() > 0,
                "the plan must corrupt attempts"
            );
        } else {
            assert_eq!(encoded + forwarded, hops);
        }
    }

    /// Every host saw exactly the payload bytes `want`, in any order.
    fn assert_every_host_saw(seen: Vec<Mutex<Vec<Vec<u8>>>>, mut want: Vec<Vec<u8>>) {
        want.sort();
        for host in seen {
            let mut got = host.into_inner().unwrap();
            got.sort();
            assert_eq!(got, want);
        }
    }

    /// A prepared fragment that counts its encodes in `ENCODES[slot]`, as
    /// `(fragment, slot)`; everything else is the fragment's own.
    #[derive(Debug, Clone)]
    pub(crate) struct Prepared(mem_joins::PreparedFragment, u8);

    impl PayloadBytes for Prepared {
        fn payload_bytes(&self) -> u64 {
            self.0.payload_bytes()
        }
    }

    impl WirePayload for Prepared {
        type View<'a> = mem_joins::FragmentView<'a>;

        fn payload_wire_len(&self) -> usize {
            self.0.payload_wire_len()
        }

        fn encode_payload(&self, out: &mut Vec<u8>) {
            ENCODES[self.1 as usize].fetch_add(1, Ordering::SeqCst);
            self.0.encode_payload(out);
        }

        fn view(bytes: &[u8]) -> Result<Self::View<'_>, crate::error::FrameError> {
            <mem_joins::PreparedFragment as WirePayload>::view(bytes)
        }

        fn view_accepted(bytes: &[u8]) -> Result<Self::View<'_>, crate::error::FrameError> {
            <mem_joins::PreparedFragment as WirePayload>::view_accepted(bytes)
        }

        fn as_view(&self) -> Self::View<'_> {
            self.0.as_view()
        }

        fn from_view(view: Self::View<'_>) -> Self {
            Prepared(mem_joins::PreparedFragment::from_view(view), 0)
        }

        fn into_wire(self) -> Result<Vec<u8>, Self> {
            let slot = self.1;
            self.0
                .into_wire()
                .map_err(|fragment| Prepared(fragment, slot))
        }
    }

    /// A socket engine sends a prepared fragment from the bytes it was
    /// prepared in, and never encodes it: no encode runs, each origin's
    /// visit of its own fragment reads the very buffer `prepare_fragment`
    /// wrote, every host visits every fragment intact, and the frames
    /// count one first send out of its origin per fragment against the
    /// forwards — on a quiet ring and under a lossy and corrupting plan.
    /// `slot` is the engine's own encode counter.
    pub(crate) fn an_origin_sends_the_bytes_it_was_prepared_in<E: WallClockEngine>(slot: u8) {
        use mem_joins::{Algorithm, FragmentView, PreparedFragment};
        let (hosts, per_host) = (3usize, 4usize);
        let total = hosts * per_host;
        let plan = lossy_corrupting_plan();
        let config = RingConfig::paper(hosts)
            .with_ack_timeout(SimDuration::from_millis(40))
            .with_max_retransmits(12);
        for faulty in [false, true] {
            ENCODES[slot as usize].store(0, Ordering::SeqCst);
            let fragments: Vec<Vec<Prepared>> = (0..hosts)
                .map(|h| {
                    (0..per_host)
                        .map(|i| {
                            let rel = relation::GenSpec::uniform(100 + 10 * i, (h * 8 + i) as u64)
                                .generate();
                            let fragment =
                                Algorithm::partitioned_hash().prepare_fragment(&rel, 2, 1);
                            Prepared(fragment, slot)
                        })
                        .collect()
                })
                .collect();
            // Each origin's fragments: their bytes, and where they lie.
            let own: Vec<Vec<(Vec<u8>, std::ops::Range<usize>)>> = fragments
                .iter()
                .map(|local| {
                    local
                        .iter()
                        .map(|Prepared(f, _)| {
                            let at = f.as_bytes().as_ptr() as usize;
                            (f.as_bytes().to_vec(), at..at + f.as_bytes().len())
                        })
                        .collect()
                })
                .collect();
            let in_place = AtomicUsize::new(0);
            let seen: Vec<Mutex<Vec<Vec<u8>>>> = (0..hosts).map(|_| Mutex::default()).collect();
            let mut driver = WallClockDriver::<E>::new(&config).with_tracer(true);
            if faulty {
                driver = driver.with_fault_plan(&plan);
            }
            let (metrics, tracer) = driver
                .run_with_roles(
                    fragments,
                    |h, _, view: FragmentView<'_>| {
                        let bytes = PreparedFragment::from_view(view).into_bytes();
                        let FragmentView::HashPartitioned(parts) = view else {
                            panic!("a hash fragment views as one");
                        };
                        let keys_at = parts.partitions().next().map(|p| match p.columns() {
                            relation::Columns::Wire(keys, _) => keys.as_ptr() as usize,
                            relation::Columns::Native(keys, _) => keys.as_ptr() as usize,
                        });
                        if let Some((_, range)) = own[h.0].iter().find(|(b, _)| *b == bytes) {
                            assert!(
                                keys_at.is_some_and(|at| range.contains(&at)),
                                "host {} visited its own fragment elsewhere",
                                h.0
                            );
                            in_place.fetch_add(1, Ordering::SeqCst);
                        }
                        seen[h.0].lock().unwrap().push(bytes);
                    },
                    |_, _| {},
                )
                .unwrap();
            assert_eq!(metrics.fragments_completed, total);
            assert_eq!(
                ENCODES[slot as usize].load(Ordering::SeqCst),
                0,
                "nothing encodes"
            );
            assert_eq!(in_place.load(Ordering::SeqCst), total);
            assert_frame_counts(&metrics, &tracer, hosts, total, faulty);
            let want = own.into_iter().flatten().map(|(bytes, _)| bytes).collect();
            assert_every_host_saw(seen, want);
        }
    }

    /// A socket engine never decodes a received payload: it checks the
    /// bytes once on receipt and every visit reads them in place. On a
    /// quiet ring and under a lossy and corrupting plan, `decode_payload`
    /// runs 0 times while every host visits every fragment exactly once,
    /// intact. `slot` is the engine's own decode counter.
    pub(crate) fn a_received_payload_is_never_decoded<E: WallClockEngine>(slot: u8) {
        let (hosts, per_host) = (3usize, 4usize);
        let fragments = counted(slot, hosts, per_host);
        let plan = lossy_corrupting_plan();
        let config = RingConfig::paper(hosts)
            .with_ack_timeout(SimDuration::from_millis(40))
            .with_max_retransmits(12);
        for faulty in [false, true] {
            DECODES[slot as usize].store(0, Ordering::SeqCst);
            let seen: Vec<Mutex<Vec<Vec<u8>>>> = (0..hosts).map(|_| Mutex::default()).collect();
            let mut driver = WallClockDriver::<E>::new(&config);
            if faulty {
                driver = driver.with_fault_plan(&plan);
            }
            let (metrics, _) = driver
                .run_with_roles(
                    fragments.clone(),
                    |h, roles, view: &[u8]| {
                        assert_eq!(roles, [h.0], "no healing on this ring");
                        seen[h.0].lock().unwrap().push(view.to_vec());
                    },
                    |_, _| {},
                )
                .unwrap();
            assert_eq!(metrics.fragments_completed, hosts * per_host);
            assert_eq!(
                DECODES[slot as usize].load(Ordering::SeqCst),
                0,
                "a received payload was decoded (faulty plan: {faulty})"
            );
            if faulty {
                assert!(metrics.total_retransmits() > 0 && metrics.total_checksum_mismatches() > 0);
            }
            let want = fragments.iter().flatten().map(|c| c.0.clone()).collect();
            assert_every_host_saw(seen, want);
        }
    }

    /// A prepared fragment whose every encoding has one bit of its payload
    /// column flipped: what a hostile (or broken) peer would send.
    #[derive(Debug, Clone)]
    pub(crate) struct Flipped(mem_joins::PreparedFragment);

    impl PayloadBytes for Flipped {
        fn payload_bytes(&self) -> u64 {
            self.0.payload_bytes()
        }
    }

    impl WirePayload for Flipped {
        type View<'a> = mem_joins::FragmentView<'a>;

        fn payload_wire_len(&self) -> usize {
            self.0.payload_wire_len()
        }

        fn encode_payload(&self, out: &mut Vec<u8>) {
            self.0.encode_payload(out);
            // A plain fragment ends in its payload column.
            if let Some(last) = out.last_mut() {
                *last ^= 0x01;
            }
        }

        fn view(bytes: &[u8]) -> Result<Self::View<'_>, crate::error::FrameError> {
            <mem_joins::PreparedFragment as WirePayload>::view(bytes)
        }

        fn as_view(&self) -> Self::View<'_> {
            self.0.as_view()
        }

        fn from_view(view: Self::View<'_>) -> Self {
            Flipped(mem_joins::PreparedFragment::from_view(view))
        }
    }

    /// The protocol's checksum of a prepared fragment depends on its size
    /// only, so the relation header's checksum is the one content check a
    /// received body gets: a body with one flipped payload-column bit must
    /// end the run in the typed frame error, before any visit reads it.
    pub(crate) fn a_flipped_column_bit_is_a_frame_error<E: WallClockEngine>() {
        let hosts = 3;
        let fragments: Vec<Vec<Flipped>> = (0..hosts)
            .map(|h| {
                let rel = relation::GenSpec::uniform(200, h as u64).generate();
                vec![Flipped(
                    mem_joins::Algorithm::NestedLoops.prepare_fragment(&rel, 0, 1),
                )]
            })
            .collect();
        let visits = AtomicUsize::new(0);
        let err = WallClockDriver::<E>::new(&RingConfig::paper(hosts))
            .run_with_roles(
                fragments,
                |_, _, _| {
                    visits.fetch_add(1, Ordering::SeqCst);
                },
                |_, _| {},
            )
            .unwrap_err();
        assert_eq!(
            err,
            RingError::Frame(crate::error::FrameError::BadPayload(
                mem_joins::wire::BAD_RELATION
            ))
        );
        assert!(
            visits.load(Ordering::SeqCst) <= hosts,
            "only origins may have visited their own, intact, fragments"
        );
    }

    pub(crate) fn multiplexed_queries_survive_faults<E: WallClockEngine>() {
        let hosts = 3;
        let queries = 4;
        let mut plan = FaultPlan::seeded(19);
        for h in 0..hosts {
            plan = plan.lossy_link(HostId(h), 0.08);
        }
        let cfg = RingConfig::paper(hosts)
            .with_ack_timeout(SimDuration::from_millis(40))
            .with_max_retransmits(8);
        let tenants: Vec<(u32, Vec<Vec<Vec<u8>>>)> = (0..queries)
            .map(|q| (q as u32, payloads(hosts, 2, 48)))
            .collect();
        let (metrics, _) = WallClockDriver::<E>::new(&cfg)
            .with_fault_plan(&plan)
            .run_queries(tenants, queries, |_, _, _: &[usize], _| {}, |_, _| {})
            .unwrap();
        assert_eq!(metrics.fragments_completed, queries * hosts * 2);
        assert!(metrics.queries.iter().all(|m| m.completed));
    }
}

#[cfg(test)]
mod tests {
    use super::engine_suite::payloads;
    use super::*;
    use crate::app::FixedCostApp;
    use crate::sim_backend::SimRing;
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
    /// wire is idle.
    struct Fake {
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
                calls: Vec::new(),
                wire: VecDeque::new(),
                delivering: None,
                absorbed: Vec::new(),
                joined: Vec::new(),
            }
        }
    }

    impl Medium<P> for Fake {
        fn transmit(
            &mut self,
            from: HostId,
            to: HostId,
            tid: u64,
            env: Envelope<InFlight<P>>,
            _delay: Duration,
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
        Coordinator::new(config, Some(plan), rescale, workload, true, Fake::new())
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
    /// far ahead its deadline lies.
    fn next_event(co: &mut Coordinator<'_, P, Fake>) -> Event<P> {
        let timers = &mut co.pending.timers;
        co.pending
            .now
            .pop_front()
            .or_else(|| co.medium.wire.pop_front())
            .or_else(|| timers.pop_due(timers.next_deadline()?))
            .expect("ring wedged: nothing pending, in flight or armed")
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
        assert_eq!(co.pending.timers.armed.len(), armed);
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
            let armed_before = co.pending.timers.armed.len();
            let got = step(&mut co, event);
            assert_jobs_share_the_slot_payload(&mut co);
            let outputs = shadow.input(input);
            let (want, dropped, armed) = expected(&plan, &mut shadow, outputs, ctx);
            assert_eq!(got, want, "medium calls must follow Output order");
            // A dropped attempt: a follow-up SendDone, and no transmit.
            assert_eq!(send_dones(&co.pending) - before, dropped);
            // Each `ArmTimer` adds exactly one entry to the queue.
            assert_eq!(co.pending.timers.armed.len() - armed_before, armed);
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
        // Same dice, same vocabulary: the two appliers leave the same
        // multiset of (host, track, event name).
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
        assert!(co
            .pending
            .timers
            .armed
            .iter()
            .any(|(_, event)| matches!(event, Event::Timer(TimerKind::Crash(HostId(1))))));
        let calls = step(&mut co, Event::Timer(TimerKind::Crash(HostId(1))));
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
    fn fire_all<T>(timers: &mut TimerQueue<T>, now: Instant) -> Vec<T> {
        std::iter::from_fn(|| timers.pop_due(now)).collect()
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        let start = Instant::now();
        let ms = |n| start + Duration::from_millis(n);
        let mut timers = TimerQueue::new();
        timers.insert(ms(5), "c");
        timers.insert(ms(1), "a");
        timers.insert(ms(3), "b");
        assert_eq!(timers.next_deadline(), Some(ms(1)));
        assert_eq!(fire_all(&mut timers, ms(10)), ["a", "b", "c"]);
        assert_eq!(timers.next_deadline(), None);
    }

    #[test]
    fn a_timer_never_fires_before_its_deadline() {
        let start = Instant::now();
        let due = start + Duration::from_millis(2);
        let mut timers = TimerQueue::new();
        timers.insert(due, "t");
        assert!(timers.pop_due(start).is_none());
        assert!(timers.pop_due(due - Duration::from_nanos(1)).is_none());
        assert_eq!(timers.next_deadline(), Some(due));
        assert_eq!(timers.pop_due(due), Some("t"));
    }

    #[test]
    fn equal_deadlines_fire_in_arming_order() {
        let due = Instant::now() + Duration::from_millis(1);
        let mut timers = TimerQueue::new();
        for item in ["first", "second", "third"] {
            timers.insert(due, item);
        }
        assert_eq!(fire_all(&mut timers, due), ["first", "second", "third"]);
    }

    /// Deadlines microseconds and hours apart each fire at their own
    /// instant, and not one poll before.
    #[test]
    fn far_apart_deadlines_fire_each_at_its_own() {
        let start = Instant::now();
        let after = |d: Duration| start + d;
        let (near, mid, far) = (
            Duration::from_micros(3),
            Duration::from_millis(50),
            Duration::from_secs(7_200),
        );
        let mut timers = TimerQueue::new();
        timers.insert(after(far), "far");
        timers.insert(after(near), "near");
        timers.insert(after(mid), "mid");
        assert_eq!(fire_all(&mut timers, after(near)), ["near"]);
        assert!(fire_all(&mut timers, after(mid) - Duration::from_nanos(1)).is_empty());
        assert_eq!(fire_all(&mut timers, after(mid)), ["mid"]);
        assert!(fire_all(&mut timers, after(far) - Duration::from_nanos(1)).is_empty());
        assert_eq!(timers.next_deadline(), Some(after(far)));
        assert_eq!(fire_all(&mut timers, after(far)), ["far"]);
    }

    /// A deadline armed far ahead stays behind every nearer one armed
    /// after it, and fires at its own instant, not one poll before.
    #[test]
    fn a_far_deadline_waits_behind_every_nearer_one() {
        let start = Instant::now();
        let far = start + Duration::from_millis(20);
        let mut timers = TimerQueue::new();
        timers.insert(far, u64::MAX);
        for us in 0..1_000 {
            timers.insert(start + Duration::from_micros(us), us);
        }
        let near = fire_all(&mut timers, far - Duration::from_nanos(1));
        assert_eq!(near, (0..1_000).collect::<Vec<_>>());
        assert_eq!(timers.next_deadline(), Some(far));
        assert_eq!(fire_all(&mut timers, far), [u64::MAX]);
    }

    /// A timer armed for an instant the clock has already passed is due
    /// at once: the next poll fires it, at the instant the loop already
    /// saw.
    #[test]
    fn a_timer_armed_behind_the_clock_fires_on_the_next_poll() {
        let start = Instant::now();
        let now = start + Duration::from_millis(10);
        let mut timers = TimerQueue::new();
        assert!(timers.pop_due(now).is_none());
        let due = start + Duration::from_millis(1);
        timers.insert(due, "late");
        assert_eq!(timers.next_deadline(), Some(due));
        assert_eq!(timers.pop_due(now), Some("late"));
    }

    #[test]
    fn overdue_timers_fire_in_deadline_order_not_arming_order() {
        // Plans arm joins before drains; a drain due first must still fire
        // first when the loop oversleeps both deadlines, and equal
        // deadlines keep their arming order. The instants are the test's
        // own, so nothing here depends on how the box schedules a thread.
        let start = Instant::now();
        let mut timers = TimerQueue::new();
        timers.insert(start + Duration::from_millis(4), "join");
        timers.insert(start + Duration::from_millis(2), "drain");
        timers.insert(start + Duration::from_millis(2), "second drain");
        let overslept = start + Duration::from_millis(10);
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
        let now = Instant::now();
        // Nothing armed (quiet dice, no plan instants): the whole window.
        assert!(co.pending.timers.armed.is_empty());
        assert_eq!(co.fire_or_wait(now), Some(Duration::from_millis(100)));
        // The window keeps running while the loop waits.
        let later = now + Duration::from_millis(30);
        assert_eq!(co.fire_or_wait(later), Some(Duration::from_millis(70)));
        let due = later + Duration::from_millis(5);
        let tick = TimerKind::Protocol(Timer::Retransmit { tid: 0, attempt: 1 });
        co.pending.timers.insert(due, Event::Timer(tick));
        assert_eq!(co.fire_or_wait(later), Some(Duration::from_millis(5)));
        // Due: it fires (an event, so the window reopens) instead.
        assert_eq!(co.fire_or_wait(due), None);
        assert!(co.pending.timers.armed.is_empty() && !co.done());
        let reopened = due + Duration::from_millis(60);
        assert_eq!(co.fire_or_wait(reopened), Some(Duration::from_millis(100)));
        assert_eq!(co.fire_or_wait(reopened + Duration::from_millis(100)), None);
        assert_eq!(co.finish().unwrap_err(), RingError::Teardown(STALLED));
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
            let start = Instant::now();
            let at = |us: u64| start + Duration::from_micros(us);
            let mut timers = TimerQueue::new();
            // Model: armed (deadline µs, arm sequence), unsorted.
            let mut live: Vec<(u64, u64)> = Vec::new();
            let mut fired: Vec<u64> = Vec::new();
            let (mut now, mut seq) = (0u64, 0u64);
            let mut arm = |timers: &mut TimerQueue<u64>, live: &mut Vec<(u64, u64)>, due: u64| {
                timers.insert(at(due), seq);
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
                prop_assert_eq!(timers.next_deadline(), next);
            }
            fired.extend(fire_all(&mut timers, at(u64::MAX / 4)));
            fired.sort_unstable();
            prop_assert_eq!(fired, (0..seq).collect::<Vec<_>>());
        }
    }
}
