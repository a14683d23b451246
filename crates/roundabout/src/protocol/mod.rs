//! The sans-IO ring-protocol core shared by every Data Roundabout backend.
//!
//! The paper's protocol — receiver/join/transmitter entities, credit-based
//! flow control over bounded buffer pools, acked stop-and-wait hops, and
//! mid-revolution ring healing — is *one* state machine. This module is
//! that state machine, expressed without any IO: no channels, no threads,
//! no sockets, no clocks. A backend ("driver") feeds typed [`Input`]s and
//! maps the returned [`Output`]s onto whatever transport and timer
//! mechanism it owns. Every driver — the simulated one ([`crate::sim_backend::SimRing`]) and
//! the wall-clock ones ([`crate::thread_backend::RingDriver`],
//! [`crate::tcp_backend::TcpRingDriver`] and
//! [`crate::reactor_backend::ReactorRingDriver`]) — shares one applier,
//! [`crate::coordinator`], and differs only in the medium under it:
//! `simnet`'s cost model on a virtual clock, `sync::mpmc` channels, or
//! length-prefixed frames over real loopback sockets.
//!
//! The driver contract is one call: [`RingProtocol::input_into`] takes an
//! input and appends the outputs it causes to a vector the driver owns.
//! The driver applies them strictly in order, draining the vector, and
//! passes the same vector to the next call — so once the vector and the
//! protocol's own queues have grown to their high-water marks, a hop
//! allocates nothing in the core. Both appliers keep one such sink for the
//! whole run. [`RingProtocol::input`] returns a fresh vector instead, for
//! callers that feed a handful of inputs (tests, the model checker).
//!
//! Time never appears here directly. Where the protocol needs a timer it
//! emits [`Output::ArmTimer`] carrying a backoff *exponent*; the driver
//! multiplies its own `ack_timeout` by `2^exp` in whatever clock it has.
//! Randomness never appears either: fault dice are rolled by the driver
//! (they belong to the medium, not the protocol), and the attempt's fate
//! is reported back via [`RingProtocol::attempt_fate`].
//!
//! Layering:
//!
//! * [`HostProtocol`] — one host's entities: incoming/processing/outgoing
//!   queues, buffer-pool credit, the hop ledger that decides forward vs
//!   retire;
//! * [`backoff_exponent`] / [`TimeoutVerdict`] — one hop's
//!   retransmission policy: budget and backoff;
//! * [`RingProtocol`] — the ring-level coordinator: routes envelopes
//!   between hosts, owns the ack/retransmit ledger, the exactly-once
//!   role-takeover ledger, and the healing transitions.
//!
//! This file layout is enforced by the repo's own `xtask` lint **L5**:
//! nothing under `protocol/` may import `std::net`, `std::thread`,
//! `crate::sync`, or `simnet::time`, or spawn anything.

use simnet::topology::HostId;

use crate::envelope::{Envelope, FragmentId, PayloadBytes};

pub mod admission;
mod host;
mod link;
mod membership;
mod ring;
pub mod snapshot;

pub use admission::{QueryEntry, QueryLedger, QueryStatus};
pub use host::{Held, HostProtocol, JoinTicket, Route};
pub use link::{backoff_exponent, TimeoutVerdict, BACKOFF_CAP};
pub use membership::{rendezvous_owner, MembershipLedger};
pub use ring::RingProtocol;
pub use snapshot::StateSnapshot;

/// The protocol-visible slice of the ring configuration: everything the
/// state machine needs to make decisions, and nothing a driver owns
/// (durations, rates and cost models stay outside).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolConfig {
    /// Number of hosts on the ring.
    pub hosts: usize,
    /// Buffer-pool elements per host — the credit budget of each hop.
    pub buffers_per_host: usize,
    /// Retransmission budget per transfer before the peer is declared
    /// dead (reliable mode only).
    pub max_retransmits: u32,
    /// Continuous rotation: envelopes re-enter the ring after a full
    /// revolution until the application reports itself finished.
    pub continuous: bool,
    /// Acked stop-and-wait transport on every hop (fault-plan runs).
    pub reliable: bool,
    /// Bitmask of hosts provisioned as *standbys*: present in every
    /// per-host table but outside the ring (no stationary partition, no
    /// local fragments, not routed to) until an [`Input::JoinRequest`]
    /// activates them. Requires `reliable` when non-zero.
    pub standby: u64,
}

/// An observation a driver feeds into the protocol core.
///
/// Every input is an *event that already happened* in the driver's world:
/// a wire delivery, a completed join, an expired timer. The protocol
/// never asks the driver for anything; it reacts to inputs with
/// [`Output`]s.
#[derive(Debug)]
pub enum Input<P> {
    /// Host finished its application setup and may start joining.
    SetupDone {
        /// The host that became ready.
        host: HostId,
    },
    /// An envelope arrived intact-or-not at a host (the driver does not
    /// pre-filter: corruption and duplicates are classified here).
    Delivered {
        /// Receiving host.
        to: HostId,
        /// The envelope as it came off the wire.
        env: Envelope<P>,
        /// The transfer id from the matching [`Output::Send`] (0 on the
        /// classic, non-reliable path).
        tid: u64,
    },
    /// The join computation started by [`Output::StartJoin`] completed.
    JoinDone {
        /// Host whose join finished.
        host: HostId,
        /// Continuous mode: did the application just report itself
        /// finished? (The driver samples `RingApp::finished`; the
        /// protocol cannot call the app.)
        app_finished: bool,
    },
    /// The wire (or NIC send queue) that carried the last
    /// [`Output::Send`] from this host is free again.
    SendDone {
        /// Sending host whose wire freed up.
        from: HostId,
    },
    /// An acknowledgement for transfer `tid` reached its sender.
    Ack {
        /// Acknowledged transfer.
        tid: u64,
    },
    /// A timer armed by [`Output::ArmTimer`] fired.
    Tick {
        /// Which timer.
        timer: Timer,
    },
    /// The driver observed a host die (fault-plan crash). Ground truth
    /// only: routing keeps using the host until the failure detector
    /// confirms the death through an exhausted retransmission budget.
    PeerDead {
        /// The crashed host.
        host: HostId,
    },
    /// A host was paused by the fault plan (stops joining and sending;
    /// its pool still accepts deliveries).
    Paused {
        /// The paused host.
        host: HostId,
    },
    /// A paused host resumed.
    Resumed {
        /// The resumed host.
        host: HostId,
    },
    /// The role-absorption work scheduled by an [`Output::Absorb`]
    /// finished.
    AbsorbDone {
        /// The survivor that finished absorbing.
        host: HostId,
    },
    /// Planned rescale: a provisioned standby host asks to enter the
    /// ring. The membership ledger activates it, re-splices the hop links
    /// around it and hands it the stationary partitions rendezvous
    /// hashing assigns it (see [`Output::Activate`] /
    /// [`Output::Absorb`]). Invalid requests (not a standby, crashed)
    /// are ignored.
    JoinRequest {
        /// The standby host entering the ring.
        host: HostId,
    },
    /// Planned rescale: an active host asks to leave the ring. Its
    /// stationary partitions hand off immediately; the host keeps
    /// relaying until it is quiescent, then departs
    /// ([`Output::Departed`]). A drain that stalls past its deadline
    /// degrades into the crash-healing path. Invalid requests (standby,
    /// already draining, sole ring member, crashed) are ignored.
    DrainRequest {
        /// The host leaving the ring.
        host: HostId,
    },
}

/// A timer the protocol asked a driver to arm via [`Output::ArmTimer`].
///
/// The protocol has no clock; it only names the timer and the driver
/// echoes it back in [`Input::Tick`] when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timer {
    /// Retransmission timeout for an in-flight transfer.
    Retransmit {
        /// Transfer the timeout guards.
        tid: u64,
        /// The attempt number the timeout was armed for (stale ticks —
        /// where the ledger has moved past this attempt — are ignored).
        attempt: u32,
    },
    /// Liveness probe of the sender's successor: either flow control
    /// (the sender found the successor's pool full and polls until a
    /// slot frees) or a watch (the sender has nothing to send and the
    /// successor still holds work). Either ends when its reason does or
    /// when the successor is declared dead.
    Probe {
        /// The blocked sender.
        from: HostId,
        /// The successor being probed.
        to: HostId,
        /// Probe attempt number (drives the backoff once the target is
        /// suspected dead).
        attempt: u32,
    },
    /// Deadline for a draining host to reach quiescence. Re-armed with
    /// backoff while the drain makes progress; once the attempt budget
    /// (the retransmission budget) is exhausted the drain *escalates*
    /// into the crash-healing path so a sick drainee can never wedge the
    /// ring.
    DrainDeadline {
        /// The draining host.
        host: HostId,
        /// Deadline attempt number (drives the backoff and the
        /// escalation decision).
        attempt: u32,
    },
}

/// An action the protocol instructs its driver to perform.
///
/// Outputs are emitted in the exact order the driver must apply them;
/// drivers map each onto their own transport/timer/cost mechanism and
/// report the resulting observations back as [`Input`]s.
#[derive(Debug, Clone)]
pub enum Output<P> {
    /// Begin the join computation for the envelope now at the head of
    /// `host`'s processing slot. The driver runs the application (via
    /// [`RingProtocol::processing_payload`]), charges its cost model,
    /// and feeds [`Input::JoinDone`] when the work completes.
    StartJoin {
        /// Host that starts joining.
        host: HostId,
        /// Fragment being joined.
        id: FragmentId,
        /// How many hosts have already visited this envelope (0 = its
        /// origin visit).
        hop: usize,
        /// The logical roles this host applies (its own plus any
        /// absorbed or handed off to it, minus those already applied).
        /// `None` when that is just the host's own role, as it always is
        /// on the classic hop-counting path; only healing and rescales
        /// give a host other roles to name.
        roles: Option<Vec<usize>>,
        /// Payload size, for the driver's cost model.
        bytes: u64,
    },
    /// Healing mode: every role this host covers was already applied to
    /// the envelope (it was processed here before a takeover) — the
    /// envelope skips the join and is routed onward without cost.
    PassThrough {
        /// Host the envelope passed through.
        host: HostId,
        /// The envelope's fragment.
        id: FragmentId,
    },
    /// A join completed and the envelope is being routed onward (emitted
    /// before the [`Output::Send`] / [`Output::Retire`] it leads to).
    Processed {
        /// Host that finished the join.
        host: HostId,
        /// The processed fragment.
        id: FragmentId,
    },
    /// Put an envelope on the wire from `from` to `to`. In reliable mode
    /// the driver rolls its fault dice for this attempt, reports the fate
    /// via [`RingProtocol::attempt_fate`], and arms the retransmission
    /// timer the following [`Output::ArmTimer`] requests.
    Send {
        /// Sending host.
        from: HostId,
        /// Receiving host (the ring successor, post-healing).
        to: HostId,
        /// Transfer id: key into the ack/retransmit ledger. Unlike the
        /// per-sender wire sequence stamped in `env.seq`, the tid is
        /// unique per transfer across the whole ring.
        tid: u64,
        /// Attempt number (1 = first transmission, >1 = retransmission).
        attempt: u32,
        /// The envelope to put on the wire. Reliable mode: a pristine
        /// copy (the master stays in the ledger for retransmission) —
        /// the driver may corrupt this copy's checksum per its dice.
        env: Envelope<P>,
    },
    /// Deliver an acknowledgement for `tid` back to the transfer's
    /// sender `to` (reliable mode; ack-before-deposit).
    Ack {
        /// The original sender awaiting the ack.
        to: HostId,
        /// The acknowledged transfer.
        tid: u64,
    },
    /// Arm (or re-arm) a timer: fire [`Input::Tick`] after the driver's
    /// base ack timeout scaled by `2^backoff_exp`.
    ArmTimer {
        /// Timer identity to echo back on expiry.
        timer: Timer,
        /// Exponential-backoff exponent (capped at [`BACKOFF_CAP`]).
        backoff_exp: u32,
    },
    /// An envelope was accepted into `host`'s buffer pool (intact,
    /// not a duplicate). The driver charges its receive cost here.
    Delivered {
        /// Receiving host.
        host: HostId,
        /// Delivered fragment.
        id: FragmentId,
        /// Payload size, for the driver's cost model.
        bytes: u64,
    },
    /// A duplicate of an already-accepted transfer arrived and was
    /// dropped (its ack raced the sender's timeout); the ack was re-sent.
    DuplicateDropped {
        /// Receiving host.
        host: HostId,
        /// The duplicated fragment.
        id: FragmentId,
    },
    /// An envelope failed checksum verification on receive and was
    /// discarded silently — the sender's timeout repairs the loss.
    ChecksumMismatch {
        /// Receiving host.
        host: HostId,
        /// The corrupted fragment.
        id: FragmentId,
    },
    /// An envelope completed its revolution and leaves the ring.
    Retire {
        /// Host where the revolution completed.
        host: HostId,
        /// Retired fragment.
        id: FragmentId,
        /// True when the retirement was discovered while salvaging a
        /// dead host's queues (the revolution was already complete).
        salvaged: bool,
    },
    /// The failure detector confirmed `dead` crashed: the ring is being
    /// healed around it.
    Heal {
        /// The confirmed-dead host.
        dead: HostId,
    },
    /// Logical roles move from `from` to `to`: after a crash, the ring
    /// successor takes over the dead host's roles; on a planned rescale,
    /// stationary partitions move from a drainee, or from a donor to a
    /// freshly activated host (rendezvous-hashed). Exactly-once either
    /// way: the ledger moves each role atomically, so no role is ever
    /// served by two hosts. The driver runs the application's rebuild of
    /// `roles` at `to` and feeds [`Input::AbsorbDone`] when it completes;
    /// until then `to` relays without joining.
    Absorb {
        /// The host giving up the roles: the dead host, or a live donor.
        from: HostId,
        /// The host receiving them.
        to: HostId,
        /// The roles that move.
        roles: Vec<usize>,
        /// True for a planned rescale handoff (the donor is alive) rather
        /// than a crash-healing takeover.
        planned: bool,
    },
    /// Planned rescale: a standby host entered the ring. The membership
    /// epoch advanced; hop links re-splice around the new member. The
    /// planned [`Output::Absorb`]s that follow move its stationary
    /// partitions.
    Activate {
        /// The activated host.
        host: HostId,
        /// The new membership epoch.
        epoch: u64,
    },
    /// Planned rescale: a drained host reached quiescence and left the
    /// ring. The membership epoch advanced; hop links re-splice past it
    /// (the TCP driver severs its sockets here).
    Departed {
        /// The departed host.
        host: HostId,
        /// The new membership epoch.
        epoch: u64,
    },
    /// A fragment lost with a dead host was re-injected from its origin.
    Resent {
        /// Host the fragment was re-injected at.
        target: HostId,
        /// The re-sent fragment.
        id: FragmentId,
    },
    /// Continuous mode: the application reported itself finished — the
    /// driver stops the rotation.
    Finished {
        /// The host whose join observed the finish.
        host: HostId,
    },
    /// Multi-tenant mode: a pending query was admitted onto the ring —
    /// its envelopes now circulate. Emitted at construction for the
    /// initially admitted queries and whenever a completion frees an
    /// active slot.
    QueryAdmitted {
        /// The admitted query.
        query: u32,
        /// The tenant that submitted it.
        tenant: u32,
    },
    /// Multi-tenant mode: every fragment of `query` completed its
    /// revolution.
    QueryDone {
        /// The completed query.
        query: u32,
        /// The tenant that submitted it.
        tenant: u32,
    },
    /// A fatal protocol invariant was violated; the driver must abort
    /// the run, surfacing `reason` (see [`teardown`]).
    Teardown {
        /// The invariant that failed.
        reason: &'static str,
    },
}

/// Teardown reasons and root-cause classification, shared by both
/// backends so the cascade constants cannot diverge again.
///
/// A worker dying mid-run provokes a wave of secondary failures (closed
/// channels, vanished writers). [`is_root_cause`] tells error collectors
/// which reasons are primary so the run reports the first *cause*, not
/// the loudest symptom.
pub mod teardown {
    /// Root cause: the user-supplied `process` callback panicked.
    pub const CALLBACK_PANICKED: &str = "join callback panicked";
    /// Cascade: the ring's channels closed with fragments outstanding.
    pub const RING_CLOSED: &str = "ring closed while fragments were still outstanding";
    /// Cascade: a host's writer exited before the run ended.
    pub const TX_GONE: &str = "transmitter exited early";
    /// A worker panicked outside the guarded callback (should not
    /// happen).
    pub const WORKER_PANICKED: &str = "ring worker panicked";
    /// Fatal: the failure detector exhausted a retransmission budget
    /// against a host that never crashed.
    pub const LIVE_HOST_KILLED: &str =
        "retransmission budget exhausted against a live host — raise max_retransmits or lower \
         the corruption rate; the failure detector must not kill live hosts";
    /// Fatal: every host on the ring crashed; healing has no survivor.
    pub const ALL_HOSTS_DEAD: &str = "every host died — nothing left to heal the ring";
    /// Fatal: a lost fragment cannot be re-sent because no host
    /// survives.
    pub const NO_RESEND_SURVIVOR: &str =
        "every host crashed — no survivor left to re-send lost fragments";

    /// Is `reason` a primary failure (as opposed to the channel-teardown
    /// cascade a primary failure provokes in neighboring workers)?
    pub fn is_root_cause(reason: &str) -> bool {
        reason == CALLBACK_PANICKED
    }
}

/// Numbers `fragments[h]` (host `h`'s local payloads) into ring
/// envelopes with globally sequential [`FragmentId`]s — the one
/// numbering scheme both backends share.
pub fn envelope_batches<P: PayloadBytes>(
    fragments: Vec<Vec<P>>,
    ring_size: usize,
) -> Vec<Vec<Envelope<P>>> {
    let mut next_id = 0usize;
    fragments
        .into_iter()
        .enumerate()
        .map(|(h, locals)| {
            locals
                .into_iter()
                .map(|payload| {
                    let id = FragmentId(next_id);
                    next_id += 1;
                    Envelope::new(id, HostId(h), ring_size, payload)
                })
                .collect()
        })
        .collect()
}

/// Numbers the fragments of many concurrent queries into ring envelopes:
/// [`FragmentId`]s stay *globally* sequential across queries (so the
/// exactly-once ledgers and the verify invariants keep one id space) and
/// each envelope is stamped with its query id. `queries[q]` is
/// `(tenant, fragments)` with `fragments[h]` host `h`'s local payloads.
pub fn query_batches<P: PayloadBytes>(
    queries: Vec<(u32, Vec<Vec<P>>)>,
    ring_size: usize,
) -> Vec<(u32, Vec<Vec<Envelope<P>>>)> {
    let mut next_id = 0usize;
    queries
        .into_iter()
        .enumerate()
        .map(|(q, (tenant, fragments))| {
            let batches = fragments
                .into_iter()
                .enumerate()
                .map(|(h, locals)| {
                    locals
                        .into_iter()
                        .map(|payload| {
                            let id = FragmentId(next_id);
                            next_id += 1;
                            let mut env = Envelope::new(id, HostId(h), ring_size, payload);
                            env.query = q as u32;
                            env
                        })
                        .collect()
                })
                .collect();
            (tenant, batches)
        })
        .collect()
}
