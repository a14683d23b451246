//! The ring-level coordinator: one deterministic state machine for the
//! whole Data Roundabout, fed [`Input`]s and emitting [`Output`]s.
//!
//! [`RingProtocol`] owns every decision both backends used to duplicate:
//! credit-gated transmission, the stop-and-wait ack/retransmit ledger,
//! duplicate suppression, the failure detector, the exactly-once
//! role-takeover ledger and mid-revolution healing, and the
//! retire-vs-forward routing (hop counting on the classic path, the
//! `visited` role bitmask once healing can reroute envelopes).
//!
//! Output order is part of the contract: a driver applies outputs in
//! emission order, which reproduces the exact scheduling sequence of the
//! original backends — determinism of the simulated backend depends on
//! it.

use std::collections::{BTreeMap, HashSet};

use simnet::topology::HostId;

use crate::envelope::{Envelope, PayloadBytes};

use super::admission::{QueryLedger, QueryStatus};
use super::host::{HostProtocol, Route};
use super::link::{backoff_exponent, on_timeout, TimeoutVerdict, BACKOFF_CAP};
use super::membership::{rendezvous_owner, MembershipLedger};
use super::snapshot::{
    EnvSnap, FaultSnap, HeldSnap, HostSnap, InFlightSnap, MembershipSnap, QueriesSnap,
    StateSnapshot,
};
use super::{teardown, Input, Output, ProtocolConfig, Timer};

/// One unacknowledged transfer of the reliable transport.
#[derive(Debug, Clone)]
struct InFlight<P> {
    from: HostId,
    to: HostId,
    /// Pristine master for retransmission (corruption is injected by the
    /// driver on the transmitted clone, never on this copy).
    env: Envelope<P>,
    /// Send attempts made so far (1 = the initial transmission).
    attempts: u32,
    /// Whether the most recent attempt put an intact copy on the wire
    /// toward a then-live receiver; consulted during healing to decide
    /// between "the receiver has it" and "lost — re-send from origin".
    /// Reported by the driver via [`RingProtocol::attempt_fate`].
    maybe_live: bool,
}

/// The reliable transport's ledger, present only in reliable mode. The
/// classic path never touches it, so runs without a fault plan behave
/// byte-identically to the pre-fault protocol.
#[derive(Debug, Clone)]
struct FaultLedger<P> {
    /// Ground truth: the host stopped acting (buffers retained until
    /// healing salvages them).
    crashed: Vec<bool>,
    /// Routing truth: a peer exhausted its retransmission budget and the
    /// ring now bypasses this host.
    confirmed_dead: Vec<bool>,
    paused: Vec<bool>,
    /// Outstanding partition rebuilds per host (joins gated while
    /// non-zero): one per [`Output::Absorb`] received, decremented by
    /// [`Input::AbsorbDone`].
    absorbing: Vec<u32>,
    /// Logical stationary partitions (`S_i` roles) each host serves;
    /// starts as `roles[h] == [h]` for ring members (standbys start
    /// empty) and moves through healing and planned handoffs.
    roles: Vec<Vec<usize>>,
    /// Planned membership: epochs, standby activation, drains.
    membership: MembershipLedger,
    /// Ring-unique transfer ids — the ledger key.
    next_tid: u64,
    /// Per-sender wire sequence stamped into `env.seq`; both backends
    /// count link transfers identically, so the fault plans' dice (which
    /// key on `(sender, seq, attempt)`) roll the same on both.
    wire_seq: Vec<u64>,
    in_flight: BTreeMap<u64, InFlight<P>>,
    /// Transfers accepted by some receiver — dedupes the copies that
    /// spurious retransmissions deliver twice.
    accepted: HashSet<u64>,
    /// Transfers whose fragment was revived elsewhere — rerouted at their
    /// sender or re-sent from the fragment's origin — after a death was
    /// confirmed. The tid is dead forever: any late wire copy (of any
    /// attempt) arriving at a corpse must not be salvaged a second time,
    /// or the fragment would fork into two live copies.
    requeued: HashSet<u64>,
    /// Stop-and-wait: the transfer each host is awaiting an ack for.
    awaiting: Vec<Option<u64>>,
    /// Outstanding pool-blocked probe per sender: `(target, attempt)`.
    probing: Vec<Option<(HostId, u32)>>,
    retransmits: Vec<u64>,
    checksum_mismatches: Vec<u64>,
    heal_events: usize,
    fragments_resent: usize,
    /// `visited` mask covering every logical role.
    full_mask: u64,
}

impl<P> FaultLedger<P> {
    fn new(hosts: usize, standby: u64) -> Self {
        let all_mask = if hosts >= 64 {
            u64::MAX
        } else {
            (1u64 << hosts) - 1
        };
        FaultLedger {
            crashed: vec![false; hosts],
            confirmed_dead: vec![false; hosts],
            paused: vec![false; hosts],
            absorbing: vec![0; hosts],
            roles: (0..hosts)
                .map(|h| {
                    if standby & (1u64 << h) != 0 {
                        Vec::new()
                    } else {
                        vec![h]
                    }
                })
                .collect(),
            membership: MembershipLedger::new(hosts, standby),
            next_tid: 1,
            wire_seq: vec![0; hosts],
            in_flight: BTreeMap::new(),
            accepted: HashSet::new(),
            requeued: HashSet::new(),
            awaiting: vec![None; hosts],
            probing: vec![None; hosts],
            retransmits: vec![0; hosts],
            checksum_mismatches: vec![0; hosts],
            heal_events: 0,
            fragments_resent: 0,
            // Standbys own no stationary partition, so a revolution is
            // complete once every *initial member's* role is visited.
            full_mask: all_mask & !standby,
        }
    }

    /// Bitmask of the roles `host` currently serves.
    // analyze: allow(panic, reason = "protocol invariant: host ids index per-ring tables sized at construction; the healing path is exercised exhaustively by the chaos and proptest suites")
    fn role_mask(&self, host: HostId) -> u64 {
        self.roles[host.0].iter().fold(0u64, |m, r| m | (1u64 << r))
    }

    /// Is `h` a hop the ring routes to? Confirmed-dead hosts are healed
    /// around; standbys and departed hosts are outside the ring.
    // analyze: allow(panic, reason = "protocol invariant: host ids index per-ring tables sized at construction; the healing path is exercised exhaustively by the chaos and proptest suites")
    fn routes(&self, h: usize) -> bool {
        !self.confirmed_dead[h] && self.membership.in_ring(HostId(h))
    }

    /// The nearest clockwise successor the ring still routes to (`host`
    /// itself when it is the sole survivor).
    fn next_alive(&self, host: HostId) -> HostId {
        let n = self.confirmed_dead.len();
        for step in 1..=n {
            let h = (host.0 + step) % n;
            if self.routes(h) {
                return HostId(h);
            }
        }
        host
    }

    /// The nearest counterclockwise predecessor still routed to.
    fn prev_alive(&self, host: HostId) -> HostId {
        let n = self.confirmed_dead.len();
        for step in 1..=n {
            let h = (host.0 + n - (step % n)) % n;
            if self.routes(h) {
                return HostId(h);
            }
        }
        host
    }

    /// Where a salvaged fragment re-enters the ring: its origin, or (when
    /// the origin crashed or left the ring) the nearest routable
    /// not-crashed host after it. `None` when nobody is left to re-send.
    // analyze: allow(panic, reason = "protocol invariant: host ids index per-ring tables sized at construction; the healing path is exercised exhaustively by the chaos and proptest suites")
    fn inject_target(&self, origin: HostId) -> Option<HostId> {
        let n = self.crashed.len();
        (0..n)
            .map(|step| (origin.0 + step) % n)
            .find(|&h| !self.crashed[h] && self.membership.in_ring(HostId(h)))
            .map(HostId)
    }

    /// Hosts eligible to receive stationary partitions in a planned
    /// handoff: inside the ring, not draining, not (suspected) dead,
    /// excluding `except`.
    // analyze: allow(panic, reason = "protocol invariant: host ids index per-ring tables sized at construction; the healing path is exercised exhaustively by the chaos and proptest suites")
    fn role_recipients(&self, except: Option<HostId>) -> Vec<HostId> {
        (0..self.crashed.len())
            .filter(|&h| {
                self.routes(h)
                    && !self.crashed[h]
                    && !self.membership.is_draining(HostId(h))
                    && Some(HostId(h)) != except
            })
            .map(HostId)
            .collect()
    }
}

/// The whole-ring protocol state machine. See the [module
/// docs](super) for the driver contract. `Clone` exists for the
/// `ring-verify` model checker, which forks the state at every
/// nondeterministic branch point.
#[derive(Debug, Clone)]
pub struct RingProtocol<P> {
    cfg: ProtocolConfig,
    hosts: Vec<HostProtocol<P>>,
    fragments_total: usize,
    fragments_completed: usize,
    stopped: bool,
    fault: Option<FaultLedger<P>>,
    /// Multi-tenant mode: the per-query admission/credit/counter ledger.
    /// `None` on single-query rings, which stay byte-identical to the
    /// pre-multiplexing protocol.
    queries: Option<QueryLedger<P>>,
    /// Outputs produced before the first input (construction-time query
    /// admissions); drained into the next `input` call's result.
    startup: Vec<Output<P>>,
    /// Scratch for the multi-tenant send pick: the queries a host has
    /// queued, and their fairness order. Kept so a pick allocates nothing
    /// once they reach their high-water mark; never part of the state.
    queued: Vec<u32>,
    order: Vec<u32>,
}

impl<P: PayloadBytes + Clone> RingProtocol<P> {
    /// Builds the ring from pre-numbered local envelopes (`envelopes[h]`
    /// belongs to host `h`, see [`super::envelope_batches`]).
    ///
    /// # Panics
    ///
    /// Panics when `envelopes.len()` differs from the configured host
    /// count, a reliable ring exceeds the 64-host role-bitmask limit, or
    /// the standby mask is malformed (set bits beyond the host count, a
    /// non-reliable ring, a standby with local fragments, or no initial
    /// ring member at all).
    // analyze: allow(panic, reason = "construction-time shape checks; every later host id indexes tables sized here")
    pub fn new(cfg: ProtocolConfig, envelopes: Vec<Vec<Envelope<P>>>) -> Self {
        assert_eq!(
            envelopes.len(),
            cfg.hosts,
            "need one envelope list per host"
        );
        assert!(
            !cfg.reliable || cfg.hosts <= 64,
            "the exactly-once role bitmask supports at most 64 hosts"
        );
        if cfg.standby != 0 {
            assert!(
                cfg.reliable,
                "standby hosts ride on the reliable transport (attach a fault or rescale plan)"
            );
            assert!(
                cfg.hosts >= 64 || cfg.standby >> cfg.hosts == 0,
                "standby mask names hosts beyond the ring size"
            );
            assert!(
                cfg.hosts >= 64 || cfg.standby != (1u64 << cfg.hosts) - 1,
                "a ring needs at least one initial member"
            );
            for (h, locals) in envelopes.iter().enumerate() {
                assert!(
                    cfg.standby & (1u64 << h) == 0 || locals.is_empty(),
                    "standby host {h} must start without local fragments"
                );
            }
        }
        let fragments_total = envelopes.iter().map(Vec::len).sum();
        let mut hosts: Vec<HostProtocol<P>> = (0..cfg.hosts)
            .map(|h| HostProtocol::new(HostId(h), cfg.hosts, cfg.buffers_per_host))
            .collect();
        for (h, locals) in envelopes.into_iter().enumerate() {
            for env in locals {
                hosts[h].inject_local(env);
            }
        }
        RingProtocol {
            cfg,
            hosts,
            fragments_total,
            fragments_completed: 0,
            stopped: false,
            fault: cfg
                .reliable
                .then(|| FaultLedger::new(cfg.hosts, cfg.standby)),
            queries: None,
            startup: Vec::new(),
            queued: Vec::new(),
            order: Vec::new(),
        }
    }

    /// Builds a *multiplexed* ring serving several concurrent queries.
    /// `queries[q]` is `(tenant, batches)` with the envelopes pre-numbered
    /// and query-stamped by [`super::query_batches`]. At most `max_active`
    /// queries circulate at once; the rest wait in the tenant-fair
    /// admission queue and enter as active queries complete. Each active
    /// query is confined to a credit partition of the per-host buffer
    /// pools; healing, membership and the fault dice stay ring-global.
    ///
    /// The initial [`Output::QueryAdmitted`]s are emitted with the result
    /// of the first [`RingProtocol::input`] call.
    ///
    /// # Panics
    ///
    /// Panics unless the configuration is reliable and non-continuous,
    /// or when a query's batch list does not name every host.
    // analyze: allow(panic, reason = "construction-time shape checks; every later host id indexes tables sized here")
    pub fn new_multi(
        cfg: ProtocolConfig,
        queries: Vec<(u32, Vec<Vec<Envelope<P>>>)>,
        max_active: usize,
    ) -> Self {
        assert!(
            cfg.reliable,
            "multi-tenant rings ride on the reliable transport"
        );
        assert!(
            !cfg.continuous,
            "continuous rotation and query multiplexing are exclusive"
        );
        assert!(cfg.hosts <= 64, "role bitmask supports at most 64 hosts");
        for (_, batches) in &queries {
            assert_eq!(
                batches.len(),
                cfg.hosts,
                "need one envelope list per host per query"
            );
        }
        let fragments_total = queries
            .iter()
            .map(|(_, b)| b.iter().map(Vec::len).sum::<usize>())
            .sum();
        let n_queries = queries.len();
        let mut hosts: Vec<HostProtocol<P>> = (0..cfg.hosts)
            .map(|h| {
                let mut host = HostProtocol::new(HostId(h), cfg.hosts, cfg.buffers_per_host);
                host.enable_query_tracking(n_queries);
                host
            })
            .collect();
        let mut ledger = QueryLedger::new(queries, cfg.hosts, cfg.buffers_per_host, max_active);
        let mut startup = Vec::new();
        while let Some((query, tenant, batches)) = ledger.admit_next() {
            startup.push(Output::QueryAdmitted { query, tenant });
            for (h, envs) in batches.into_iter().enumerate() {
                for env in envs {
                    hosts[h].inject_local(env);
                }
            }
        }
        RingProtocol {
            cfg,
            hosts,
            fragments_total,
            fragments_completed: 0,
            stopped: false,
            fault: Some(FaultLedger::new(cfg.hosts, cfg.standby)),
            queries: Some(ledger),
            startup,
            queued: Vec::new(),
            order: Vec::new(),
        }
    }

    /// Feeds one observation and appends the actions the driver must
    /// apply, in order, to `out` — a sink the driver owns and drains, so
    /// that a warm sink makes the call allocate nothing.
    pub fn input_into(&mut self, input: Input<P>, out: &mut Vec<Output<P>>) {
        out.append(&mut self.startup);
        match self.fault.take() {
            Some(mut f) => {
                self.input_fault(&mut f, input, out);
                // Every input can be the one that empties a drainee:
                // sweep for drains that reached quiescence.
                self.check_drains(&mut f, out);
                self.fault = Some(f);
            }
            None => self.input_classic(input, out),
        }
    }

    /// [`RingProtocol::input_into`] into a fresh vector.
    pub fn input(&mut self, input: Input<P>) -> Vec<Output<P>> {
        let mut out = Vec::new();
        self.input_into(input, &mut out);
        out
    }

    // --- accessors (drivers and tests) ---------------------------------

    /// The protocol-visible configuration.
    pub fn config(&self) -> &ProtocolConfig {
        &self.cfg
    }

    /// One host's protocol state (read-only).
    // analyze: allow(panic, reason = "host ids index the per-ring table sized at construction")
    pub fn host(&self, host: HostId) -> &HostProtocol<P> {
        &self.hosts[host.0]
    }

    /// Payload of the envelope `host` is currently joining (drivers hand
    /// this to the application callback after [`Output::StartJoin`]).
    // analyze: allow(panic, reason = "host ids index the per-ring table sized at construction")
    pub fn processing_payload(&self, host: HostId) -> Option<&P> {
        self.hosts[host.0].processing_payload()
    }

    /// Total fragments injected at construction.
    pub fn fragments_total(&self) -> usize {
        self.fragments_total
    }

    /// Fragments that completed their revolution so far.
    pub fn fragments_completed(&self) -> usize {
        self.fragments_completed
    }

    /// Continuous mode: has the application declared itself finished?
    pub fn is_stopped(&self) -> bool {
        self.stopped
    }

    /// Multi-tenant mode: the per-query ledger (admission state, credit
    /// quota, per-query counters). `None` on single-query rings.
    pub fn query_ledger(&self) -> Option<&QueryLedger<P>> {
        self.queries.as_ref()
    }

    /// Per-query metrics of a multiplexed run, in query-id order (empty
    /// on single-query rings). Every backend's `into_result` calls this so
    /// the per-tenant breakdown is assembled exactly one way.
    pub fn query_metrics(&self) -> Vec<crate::metrics::QueryMetrics> {
        let Some(q) = self.queries.as_ref() else {
            return Vec::new();
        };
        (0..q.len() as u32)
            .filter_map(|id| q.entry(id))
            .map(|e| crate::metrics::QueryMetrics {
                tenant: e.tenant,
                fragments_completed: e.completed,
                retransmits: e.retransmits,
                checksum_mismatches: e.checksum_mismatches,
                completed: e.status == super::admission::QueryStatus::Done,
            })
            .collect()
    }

    /// The query whose envelope `host` is currently joining (0 on
    /// single-query rings).
    // analyze: allow(panic, reason = "host ids index the per-ring table sized at construction")
    pub fn processing_query(&self, host: HostId) -> u32 {
        self.hosts[host.0]
            .processing_env()
            .map_or(0, |env| env.query)
    }

    /// Ground truth: has the driver reported `host` dead?
    // analyze: allow(panic, reason = "host ids index the per-ring table sized at construction")
    pub fn is_crashed(&self, host: HostId) -> bool {
        self.fault.as_ref().is_some_and(|f| f.crashed[host.0])
    }

    /// Retransmissions initiated by `host` (reliable mode).
    // analyze: allow(panic, reason = "host ids index the per-ring table sized at construction")
    pub fn retransmits(&self, host: HostId) -> u64 {
        self.fault.as_ref().map_or(0, |f| f.retransmits[host.0])
    }

    /// Corrupted deliveries detected at `host` (reliable mode).
    // analyze: allow(panic, reason = "host ids index the per-ring table sized at construction")
    pub fn checksum_mismatches(&self, host: HostId) -> u64 {
        self.fault
            .as_ref()
            .map_or(0, |f| f.checksum_mismatches[host.0])
    }

    /// Confirmed host deaths healed around.
    pub fn heal_events(&self) -> usize {
        self.fault.as_ref().map_or(0, |f| f.heal_events)
    }

    /// Fragments re-injected from their origin after being lost with a
    /// dead host.
    pub fn fragments_resent(&self) -> usize {
        self.fault.as_ref().map_or(0, |f| f.fragments_resent)
    }

    /// The current membership epoch: completed planned joins + drains
    /// (crash healing never advances it).
    pub fn membership_epoch(&self) -> u64 {
        self.fault.as_ref().map_or(0, |f| f.membership.epoch())
    }

    /// Completed planned host joins (standby activations).
    pub fn rescale_joins(&self) -> u64 {
        self.fault.as_ref().map_or(0, |f| f.membership.joins())
    }

    /// Completed graceful host drains.
    pub fn rescale_drains(&self) -> u64 {
        self.fault.as_ref().map_or(0, |f| f.membership.drains())
    }

    /// Stationary partitions moved by planned handoffs.
    pub fn rescale_handoffs(&self) -> u64 {
        self.fault
            .as_ref()
            .map_or(0, |f| f.membership.roles_handed_off())
    }

    /// Drains that stalled past their deadline and degraded into the
    /// crash-healing path.
    pub fn rescale_escalations(&self) -> u64 {
        self.fault
            .as_ref()
            .map_or(0, |f| f.membership.escalations())
    }

    /// Is `host` inside the ring (active member or mid-drain relay)?
    pub fn is_member(&self, host: HostId) -> bool {
        match self.fault.as_ref() {
            Some(f) => f.membership.in_ring(host),
            None => host.0 < self.cfg.hosts,
        }
    }

    /// Reports the fate the driver's fault dice dealt to the attempt just
    /// emitted as [`Output::Send`] — the healing ledger uses it to decide
    /// whether the receiver may hold a live copy.
    // analyze: allow(panic, reason = "host ids index the per-ring table sized at construction")
    pub fn attempt_fate(&mut self, tid: u64, dropped: bool, corrupt: bool) {
        if let Some(f) = self.fault.as_mut() {
            if let Some(e) = f.in_flight.get_mut(&tid) {
                e.maybe_live = !dropped && !corrupt && !f.crashed[e.to.0];
            }
        }
    }

    // --- model-checker introspection ------------------------------------

    /// The canonical, payload-free fingerprint of the current state — see
    /// [`super::snapshot`] for what is included and why. Pure metrics
    /// (retransmit/mismatch counters, wire sequences, the tid allocator)
    /// are deliberately excluded so behaviorally identical states
    /// fingerprint identically.
    pub fn snapshot(&self) -> StateSnapshot {
        let env_snap = |e: &Envelope<P>| EnvSnap {
            id: e.id.0,
            origin: e.origin.0,
            hops_remaining: e.hops_remaining,
            visited: e.visited,
        };
        let held_snap = |h: &super::host::Held<P>| HeldSnap {
            env: env_snap(&h.env),
            pooled: h.pooled,
        };
        let mask = |bits: &[bool]| {
            bits.iter()
                .enumerate()
                .fold(0u64, |m, (h, &b)| if b { m | (1u64 << h) } else { m })
        };
        StateSnapshot {
            hosts: self
                .hosts
                .iter()
                .map(|h| HostSnap {
                    ready: h.is_ready(),
                    sending: h.is_sending(),
                    pool_used: h.pool_used(),
                    used_by_query: h.used_by_query().to_vec(),
                    incoming: h.incoming_held().map(held_snap).collect(),
                    processing: h.processing_held().map(held_snap),
                    outgoing: h.outgoing_queue().map(env_snap).collect(),
                })
                .collect(),
            fragments_completed: self.fragments_completed,
            stopped: self.stopped,
            queries: self.queries.as_ref().map(|q| QueriesSnap {
                status: (0..q.len())
                    .map(|i| match q.entry(i as u32).map(|e| e.status) {
                        Some(QueryStatus::Pending) | None => 0,
                        Some(QueryStatus::Active) => 1,
                        Some(QueryStatus::Done) => 2,
                    })
                    .collect(),
                completed: (0..q.len())
                    .map(|i| q.entry(i as u32).map_or(0, |e| e.completed))
                    .collect(),
                quota: q.quota(),
                admit_cursor: q.admit_cursor(),
                send_cursor: q.send_cursors().to_vec(),
            }),
            fault: self.fault.as_ref().map(|f| {
                let mut accepted: Vec<u64> = f.accepted.iter().copied().collect();
                accepted.sort_unstable();
                let mut requeued: Vec<u64> = f.requeued.iter().copied().collect();
                requeued.sort_unstable();
                FaultSnap {
                    crashed: mask(&f.crashed),
                    confirmed_dead: mask(&f.confirmed_dead),
                    paused: mask(&f.paused),
                    absorbing: f.absorbing.clone(),
                    roles: f
                        .roles
                        .iter()
                        .map(|rs| {
                            let mut rs = rs.clone();
                            rs.sort_unstable();
                            rs
                        })
                        .collect(),
                    membership: MembershipSnap {
                        active: f.membership.active_mask(),
                        draining: f.membership.draining_mask(),
                        departed: f.membership.departed_mask(),
                        epoch: f.membership.epoch(),
                        joins: f.membership.joins(),
                        drains: f.membership.drains(),
                        handoffs: f.membership.roles_handed_off(),
                        escalations: f.membership.escalations(),
                    },
                    in_flight: f
                        .in_flight
                        .iter()
                        .map(|(&tid, e)| InFlightSnap {
                            tid,
                            from: e.from.0,
                            to: e.to.0,
                            attempts: e.attempts,
                            maybe_live: e.maybe_live,
                            env: env_snap(&e.env),
                        })
                        .collect(),
                    accepted,
                    requeued,
                    awaiting: f.awaiting.clone(),
                    probing: f
                        .probing
                        .iter()
                        .map(|p| p.map(|(to, a)| (to.0, a)))
                        .collect(),
                }
            }),
        }
    }

    /// The environment inputs a reliable-mode driver could legitimately
    /// inject *now*: crash reports for hosts that still act, and the
    /// rescale requests [`Input::JoinRequest`] / [`Input::DrainRequest`]
    /// that would not be ignored in the current membership view. The
    /// model checker branches over this set (under its fault budgets);
    /// protocol-driven inputs (deliveries, acks, ticks, completions) are
    /// derived from earlier outputs, not enumerated here.
    pub fn enabled_inputs(&self) -> Vec<Input<P>> {
        let mut inputs = Vec::new();
        let Some(f) = self.fault.as_ref() else {
            return inputs;
        };
        for h in 0..self.cfg.hosts {
            let host = HostId(h);
            let crashed = f.crashed.get(h).copied().unwrap_or(true);
            if !crashed && (f.membership.in_ring(host) || f.membership.is_standby(host)) {
                inputs.push(Input::PeerDead { host });
            }
            if !crashed && f.membership.is_standby(host) {
                inputs.push(Input::JoinRequest { host });
            }
            if !crashed
                && !f.confirmed_dead.get(h).copied().unwrap_or(true)
                && f.membership.in_ring(host)
                && !f.membership.is_draining(host)
                && !f.role_recipients(Some(host)).is_empty()
            {
                inputs.push(Input::DrainRequest { host });
            }
        }
        inputs
    }

    /// Test-only sabotage hook for the model checker's self-check: frees
    /// one pool element at `host` that was never released by a finished
    /// join — a double-credit grant that must break the credit-conservation
    /// invariant. Never called by drivers.
    #[doc(hidden)]
    pub fn test_only_release_slot(&mut self, host: HostId) {
        if let Some(h) = self.hosts.get_mut(host.0) {
            h.release_slot();
        }
    }

    // --- classic (unacknowledged) path ----------------------------------

    // analyze: allow(panic, reason = "host ids index per-ring tables sized at construction")
    fn input_classic(&mut self, input: Input<P>, out: &mut Vec<Output<P>>) {
        match input {
            Input::SetupDone { host } => {
                self.hosts[host.0].set_ready();
                self.try_start_join(host, out);
            }
            Input::JoinDone { host, app_finished } => {
                self.on_join_done(host, app_finished, out);
            }
            Input::Delivered { to, env, .. } => {
                out.push(Output::Delivered {
                    host: to,
                    id: env.id,
                    bytes: env.bytes(),
                });
                self.hosts[to.0].deliver(env, true);
                self.try_start_join(to, out);
            }
            Input::SendDone { from } => {
                self.hosts[from.0].set_sending(false);
                self.try_send(from, out);
            }
            Input::Ack { .. }
            | Input::Tick { .. }
            | Input::PeerDead { .. }
            | Input::Paused { .. }
            | Input::Resumed { .. }
            | Input::AbsorbDone { .. }
            | Input::JoinRequest { .. }
            | Input::DrainRequest { .. } => {
                out.push(Output::Teardown {
                    reason: "reliable-transport input on the classic path",
                });
            }
        }
    }

    // analyze: allow(panic, reason = "host ids index per-ring tables sized at construction")
    fn try_start_join(&mut self, host: HostId, out: &mut Vec<Output<P>>) {
        let Some(ticket) = self.hosts[host.0].begin_join() else {
            return;
        };
        let bytes = self.hosts[host.0]
            .processing_env()
            .map_or(0, Envelope::bytes);
        out.push(Output::StartJoin {
            host,
            id: ticket.id,
            hop: ticket.hop,
            roles: None,
            bytes,
        });
    }

    // analyze: allow(panic, reason = "host ids index per-ring tables sized at construction; JoinDone without a running join is a driver contract violation surfaced as Teardown")
    fn on_join_done(&mut self, host: HostId, app_finished: bool, out: &mut Vec<Output<P>>) {
        let Some((mut env, released)) = self.hosts[host.0].finish_join() else {
            out.push(Output::Teardown {
                reason: "JoinDone without an envelope in processing",
            });
            return;
        };
        if released {
            // The join entity is done reading the buffer element in
            // place; its receive credit returns and may unblock our
            // predecessor.
            let prev = HostId((host.0 + self.cfg.hosts - 1) % self.cfg.hosts);
            self.try_send(prev, out);
        }
        if self.cfg.continuous {
            if app_finished {
                self.stopped = true;
                out.push(Output::Finished { host });
                return;
            }
            // The hot set never retires: reset the hop budget and keep it
            // circulating (single-host "rings" just requeue locally).
            env.hops_remaining = self.cfg.hosts.max(2);
            if self.cfg.hosts == 1 {
                self.hosts[host.0].inject_local(env);
            } else {
                self.hosts[host.0].queue_outgoing(env);
                self.try_send(host, out);
            }
        } else {
            match self.hosts[host.0].route(&mut env) {
                Route::Forward => {
                    out.push(Output::Processed { host, id: env.id });
                    self.hosts[host.0].queue_outgoing(env);
                    self.try_send(host, out);
                }
                Route::Retire => {
                    out.push(Output::Retire {
                        host,
                        id: env.id,
                        salvaged: false,
                    });
                    self.fragments_completed += 1;
                }
            }
        }
        self.try_start_join(host, out);
    }

    // analyze: allow(panic, reason = "host ids index per-ring tables sized at construction")
    fn try_send(&mut self, host: HostId, out: &mut Vec<Output<P>>) {
        if self.cfg.hosts == 1 {
            return;
        }
        let next = HostId((host.0 + 1) % self.cfg.hosts);
        if self.hosts[host.0].is_sending()
            || !self.hosts[host.0].has_outgoing()
            || !self.hosts[next.0].has_free_slot()
        {
            return;
        }
        let env = match self.hosts[host.0].pop_outgoing() {
            Some(env) => env,
            None => return,
        };
        // Pre-post the receive buffer at the successor (an RDMA receive
        // needs the slot reserved at the sender's send time).
        self.hosts[next.0].reserve_slot();
        self.hosts[host.0].set_sending(true);
        out.push(Output::Send {
            from: host,
            to: next,
            tid: 0,
            attempt: 1,
            env,
        });
    }

    // --- reliable (acked, healing) path ---------------------------------

    // analyze: allow(panic, reason = "host ids index per-ring tables sized at construction")
    fn input_fault(&mut self, f: &mut FaultLedger<P>, input: Input<P>, out: &mut Vec<Output<P>>) {
        match input {
            Input::SetupDone { host } => {
                if f.crashed[host.0] {
                    return;
                }
                self.hosts[host.0].set_ready();
                self.try_start_join_fault(f, host, out);
            }
            Input::JoinDone { host, .. } => self.on_join_done_fault(f, host, out),
            Input::Delivered { to, env, tid } => self.on_delivered_fault(f, to, env, tid, out),
            Input::SendDone { from } => {
                self.hosts[from.0].set_sending(false);
                if !f.crashed[from.0] {
                    self.try_send_fault(f, from, out);
                }
            }
            Input::Ack { tid } => self.on_ack(f, tid, out),
            Input::Tick {
                timer: Timer::Retransmit { tid, attempt },
            } => self.on_ack_timeout(f, tid, attempt, out),
            Input::Tick {
                timer: Timer::Probe { from, to, attempt },
            } => self.on_probe_timeout(f, from, to, attempt, out),
            Input::Tick {
                timer: Timer::DrainDeadline { host, attempt },
            } => self.on_drain_deadline(f, host, attempt, out),
            Input::JoinRequest { host } => self.on_join_request(f, host, out),
            Input::DrainRequest { host } => self.on_drain_request(f, host, out),
            Input::PeerDead { host } => {
                f.crashed[host.0] = true;
            }
            Input::Paused { host } => {
                if !f.crashed[host.0] {
                    f.paused[host.0] = true;
                }
            }
            Input::Resumed { host } => {
                if f.crashed[host.0] {
                    return;
                }
                f.paused[host.0] = false;
                self.try_start_join_fault(f, host, out);
                self.try_send_fault(f, host, out);
            }
            Input::AbsorbDone { host } => {
                if f.crashed[host.0] {
                    return;
                }
                f.absorbing[host.0] = f.absorbing[host.0].saturating_sub(1);
                if f.absorbing[host.0] == 0 {
                    self.try_start_join_fault(f, host, out);
                    self.try_send_fault(f, host, out);
                }
            }
        }
    }

    /// Reliable receive: NIC-level checksum verification, duplicate
    /// suppression and acknowledgement, all active even while the host's
    /// software is paused. A crashed host's NIC is a black hole.
    // analyze: allow(panic, reason = "host ids index per-ring tables sized at construction; the healing path is exercised exhaustively by the chaos and proptest suites")
    fn on_delivered_fault(
        &mut self,
        f: &mut FaultLedger<P>,
        to: HostId,
        env: Envelope<P>,
        tid: u64,
        out: &mut Vec<Output<P>>,
    ) {
        if f.crashed[to.0] {
            if let Some(entry) = f.in_flight.get_mut(&tid) {
                // The sender still tracks this transfer; its timeout path
                // will retransmit or reroute. The copy itself dies here.
                entry.maybe_live = false;
            } else if !f.requeued.contains(&tid) && !f.accepted.contains(&tid) {
                // The sender healed past this transfer and no earlier
                // attempt was ever accepted into the ring — the copy on
                // the wire is the last one; salvage it. (An accepted tid
                // means an earlier attempt already delivered: this late
                // duplicate must die with the corpse, not fork.) The
                // tombstone makes the salvage exactly-once: a second late
                // copy of the same transfer must not revive it again.
                f.requeued.insert(tid);
                self.resend_from_origin(f, env, out);
            }
            return;
        }
        if !env.checksum_ok() {
            f.checksum_mismatches[to.0] += 1;
            if let Some(q) = self.queries.as_mut() {
                q.count_checksum_mismatch(env.query);
            }
            out.push(Output::ChecksumMismatch {
                host: to,
                id: env.id,
            });
            // No ack: the sender's timeout drives the retransmission.
            return;
        }
        if f.requeued.contains(&tid) {
            // A late copy of a transfer healing already rerouted: the
            // fragment lives on its revived path — accepting this copy
            // would fork the revolution into two live copies.
            out.push(Output::DuplicateDropped {
                host: to,
                id: env.id,
            });
            return;
        }
        // Ack at NIC level on the backward channel of the sender's link,
        // so acks never contend with payload and paused hosts still
        // answer.
        if let Some(entry) = f.in_flight.get(&tid) {
            out.push(Output::Ack {
                to: entry.from,
                tid,
            });
        }
        if !f.accepted.insert(tid) {
            // A spurious retransmission delivered a second copy.
            out.push(Output::DuplicateDropped {
                host: to,
                id: env.id,
            });
            return;
        }
        out.push(Output::Delivered {
            host: to,
            id: env.id,
            bytes: env.bytes(),
        });
        self.hosts[to.0].deliver(env, true);
        self.try_start_join_fault(f, to, out);
    }

    // analyze: allow(panic, reason = "host ids index per-ring tables sized at construction")
    fn on_ack(&mut self, f: &mut FaultLedger<P>, tid: u64, out: &mut Vec<Output<P>>) {
        let Some(entry) = f.in_flight.remove(&tid) else {
            return; // transfer already settled (healed or superseded)
        };
        if f.awaiting[entry.from.0] == Some(tid) {
            f.awaiting[entry.from.0] = None;
        }
        if !f.crashed[entry.from.0] {
            self.try_send_fault(f, entry.from, out);
        }
    }

    // analyze: allow(panic, reason = "host ids index per-ring tables sized at construction; ledger lookups after presence checks")
    fn on_ack_timeout(
        &mut self,
        f: &mut FaultLedger<P>,
        tid: u64,
        attempt: u32,
        out: &mut Vec<Output<P>>,
    ) {
        let (from, to, attempts) = match f.in_flight.get(&tid) {
            Some(e) => (e.from, e.to, e.attempts),
            None => return, // acked or rerouted in the meantime
        };
        if attempts != attempt {
            return; // stale timer of an earlier attempt
        }
        if f.crashed[from.0] {
            return; // dead senders do not retransmit; healing recovers this
        }
        if f.confirmed_dead[to.0] {
            // Someone else confirmed the death first: reroute this
            // transfer to the head of the queue so it takes the healed
            // path next.
            let entry = f.in_flight.remove(&tid).expect("looked up above");
            f.requeued.insert(tid);
            if f.awaiting[from.0] == Some(tid) {
                f.awaiting[from.0] = None;
            }
            self.hosts[from.0].requeue_outgoing_front(entry.env);
            self.try_send_fault(f, from, out);
            return;
        }
        match on_timeout(attempt, self.cfg.max_retransmits) {
            TimeoutVerdict::Exhausted => {
                // Budget exhausted: the successor is dead. (A live
                // receiver always acks eventually — corruption rerolls
                // per attempt.)
                self.confirm_death(f, to, out);
            }
            TimeoutVerdict::Retry { .. } => {
                let entry = f.in_flight.get_mut(&tid).expect("looked up above");
                entry.attempts += 1;
                let query = entry.env.query;
                f.retransmits[from.0] += 1;
                if let Some(q) = self.queries.as_mut() {
                    q.count_retransmit(query);
                }
                self.transmit_attempt(f, tid, out);
            }
        }
    }

    // analyze: allow(panic, reason = "host ids index per-ring tables sized at construction; the healing path is exercised exhaustively by the chaos and proptest suites")
    fn on_probe_timeout(
        &mut self,
        f: &mut FaultLedger<P>,
        from: HostId,
        to: HostId,
        attempt: u32,
        out: &mut Vec<Output<P>>,
    ) {
        if f.probing[from.0] != Some((to, attempt)) {
            return; // stale probe
        }
        if f.crashed[from.0] {
            f.probing[from.0] = None;
            return;
        }
        // Multi-tenant: "the pool is full" widens to "no queued query can
        // reserve a slot" — a partition-exhausted sender must keep probing
        // so a corpse behind an exhausted quota is still detected.
        let pool_blocked = match self.queries.as_ref() {
            Some(q) => {
                self.hosts[from.0].outgoing_query_set(&mut self.queued);
                !self
                    .queued
                    .iter()
                    .any(|&qid| self.hosts[to.0].can_accept(qid, q.quota()))
            }
            None => !self.hosts[to.0].has_free_slot(),
        };
        let idle = !self.hosts[from.0].is_sending()
            && f.awaiting[from.0].is_none()
            && !f.confirmed_dead[to.0]
            && f.next_alive(from) == to;
        let blocked = idle && self.hosts[from.0].has_outgoing() && pool_blocked;
        // The watch of an idle sender (see `watch_successor`).
        let watching = idle && !self.hosts[from.0].has_outgoing() && self.holds_work(to);
        if !blocked && !watching {
            f.probing[from.0] = None;
            self.try_send_fault(f, from, out);
            return;
        }
        if f.crashed[to.0] {
            // The probe went unanswered: a crashed NIC. Count attempts
            // with the same budget and backoff as data retransmissions.
            if attempt > self.cfg.max_retransmits {
                f.probing[from.0] = None;
                self.confirm_death(f, to, out);
            } else {
                f.probing[from.0] = Some((to, attempt + 1));
                out.push(Output::ArmTimer {
                    timer: Timer::Probe {
                        from,
                        to,
                        attempt: attempt + 1,
                    },
                    backoff_exp: attempt.min(BACKOFF_CAP),
                });
            }
        } else {
            // The successor's NIC answered: alive, just slow or paused.
            // Keep watching at the base interval.
            f.probing[from.0] = Some((to, 1));
            out.push(Output::ArmTimer {
                timer: Timer::Probe {
                    from,
                    to,
                    attempt: 1,
                },
                backoff_exp: 0,
            });
        }
    }

    // --- planned membership (rescale) ------------------------------------

    /// A provisioned standby enters the ring: the epoch advances, hop
    /// links re-splice around the new member, and rendezvous hashing
    /// moves exactly the stationary partitions it now owns from their
    /// donors (minimal movement — every other role stays put).
    // analyze: allow(panic, reason = "host ids index per-ring tables sized at construction; the rescale path is exercised exhaustively by the membership proptest suite")
    fn on_join_request(&mut self, f: &mut FaultLedger<P>, host: HostId, out: &mut Vec<Output<P>>) {
        if host.0 >= self.cfg.hosts
            || !f.membership.is_standby(host)
            || f.crashed[host.0]
            || f.confirmed_dead[host.0]
        {
            return; // invalid or duplicate request: ignore
        }
        let epoch = f.membership.activate(host);
        out.push(Output::Activate { host, epoch });
        let candidates = f.role_recipients(None);
        let mut moved: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for donor in 0..self.cfg.hosts {
            if donor == host.0 || f.crashed[donor] || f.confirmed_dead[donor] {
                continue; // a suspected-dead donor's roles travel via healing
            }
            let take: Vec<usize> = f.roles[donor]
                .iter()
                .copied()
                .filter(|r| rendezvous_owner(*r, &candidates) == Some(host))
                .collect();
            if !take.is_empty() {
                f.roles[donor].retain(|r| !take.contains(r));
                moved.insert(donor, take);
            }
        }
        for (donor, roles) in moved {
            f.roles[host.0].extend(roles.iter().copied());
            f.membership.count_handoffs(roles.len() as u64);
            f.absorbing[host.0] += 1;
            out.push(Output::Absorb {
                from: HostId(donor),
                to: host,
                roles,
                planned: true,
            });
        }
        self.kick_ring(f, out);
    }

    /// An active member asks to leave: its stationary partitions hand
    /// off immediately (it keeps relaying — the role-less pass-through
    /// path), a drain deadline is armed, and the departure itself waits
    /// for quiescence (see `check_drains`).
    // analyze: allow(panic, reason = "host ids index per-ring tables sized at construction; the rescale path is exercised exhaustively by the membership proptest suite")
    fn on_drain_request(&mut self, f: &mut FaultLedger<P>, host: HostId, out: &mut Vec<Output<P>>) {
        if host.0 >= self.cfg.hosts
            || !f.membership.in_ring(host)
            || f.membership.is_draining(host)
            || f.crashed[host.0]
            || f.confirmed_dead[host.0]
        {
            return; // invalid or duplicate request: ignore
        }
        if f.role_recipients(Some(host)).is_empty() {
            return; // draining the last healthy member would kill the ring
        }
        f.membership.begin_drain(host);
        self.redistribute_roles(f, host, out);
        out.push(Output::ArmTimer {
            timer: Timer::DrainDeadline { host, attempt: 1 },
            backoff_exp: 0,
        });
        self.kick_ring(f, out);
    }

    /// Moves every role `host` still serves to its rendezvous owner
    /// among the remaining healthy members. Returns false when no
    /// recipient exists (the roles stay put and the drain cannot
    /// complete yet).
    // analyze: allow(panic, reason = "host ids index per-ring tables sized at construction; the rescale path is exercised exhaustively by the membership proptest suite")
    fn redistribute_roles(
        &mut self,
        f: &mut FaultLedger<P>,
        host: HostId,
        out: &mut Vec<Output<P>>,
    ) -> bool {
        if f.roles[host.0].is_empty() {
            return true;
        }
        let recipients = f.role_recipients(Some(host));
        if recipients.is_empty() {
            return false;
        }
        let leaving = std::mem::take(&mut f.roles[host.0]);
        let mut moved: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for role in leaving {
            if let Some(to) = rendezvous_owner(role, &recipients) {
                moved.entry(to.0).or_default().push(role);
            }
        }
        for (to, roles) in moved {
            f.roles[to].extend(roles.iter().copied());
            f.membership.count_handoffs(roles.len() as u64);
            f.absorbing[to] += 1;
            out.push(Output::Absorb {
                from: host,
                to: HostId(to),
                roles,
                planned: true,
            });
        }
        true
    }

    /// The drain deadline fired: re-arm with backoff while the budget
    /// lasts, then degrade the stalled drain into the crash-healing path
    /// (the drainee is treated as dead; healing salvages and re-sends).
    // analyze: allow(panic, reason = "host ids index per-ring tables sized at construction; the rescale path is exercised exhaustively by the membership proptest suite")
    fn on_drain_deadline(
        &mut self,
        f: &mut FaultLedger<P>,
        host: HostId,
        attempt: u32,
        out: &mut Vec<Output<P>>,
    ) {
        if !f.membership.is_draining(host) || f.confirmed_dead[host.0] {
            return; // departed, escalated or healed in the meantime
        }
        if attempt <= self.cfg.max_retransmits {
            out.push(Output::ArmTimer {
                timer: Timer::DrainDeadline {
                    host,
                    attempt: attempt + 1,
                },
                backoff_exp: attempt.min(BACKOFF_CAP),
            });
            return;
        }
        if (0..self.cfg.hosts).all(|h| h == host.0 || !f.routes(h)) {
            // No survivor to heal into: the drain is cancelled instead
            // (the host stays a member and finishes the work itself).
            f.membership.abort_drain(host);
            return;
        }
        f.membership.abort_drain(host);
        f.membership.count_escalation();
        f.crashed[host.0] = true;
        self.confirm_death(f, host, out);
    }

    /// Sweeps for drains that reached quiescence: a drainee with empty
    /// queues, a free wire and no transfer in flight touching it departs
    /// — the epoch advances and hop links re-splice past it. Roles that
    /// healing handed *back* to a drainee are re-redistributed first.
    // analyze: allow(panic, reason = "host ids index per-ring tables sized at construction; the rescale path is exercised exhaustively by the membership proptest suite")
    fn check_drains(&mut self, f: &mut FaultLedger<P>, out: &mut Vec<Output<P>>) {
        let mut progress = true;
        while progress {
            progress = false;
            for h in 0..self.cfg.hosts {
                let host = HostId(h);
                let quiescent = f.membership.is_draining(host)
                    && !f.crashed[h]
                    && !self.hosts[h].has_work()
                    && !self.hosts[h].has_outgoing()
                    && !self.hosts[h].is_sending()
                    && f.awaiting[h].is_none()
                    && !f.in_flight.values().any(|e| e.to == host || e.from == host);
                if !quiescent || !self.redistribute_roles(f, host, out) {
                    continue;
                }
                let epoch = f.membership.depart(host);
                f.probing[h] = None;
                out.push(Output::Departed { host, epoch });
                self.kick_ring(f, out);
                progress = true;
            }
        }
    }

    /// Kicks every live ring member: a membership change re-splices hop
    /// links, so blocked transmitters and idle join entities must
    /// re-evaluate their routes.
    // analyze: allow(panic, reason = "host ids index per-ring tables sized at construction; the rescale path is exercised exhaustively by the membership proptest suite")
    fn kick_ring(&mut self, f: &mut FaultLedger<P>, out: &mut Vec<Output<P>>) {
        for h in 0..self.cfg.hosts {
            if f.routes(h) && !f.crashed[h] {
                self.try_send_fault(f, HostId(h), out);
                self.try_start_join_fault(f, HostId(h), out);
            }
        }
    }

    /// Reliable join start: computes the set of not-yet-visited roles
    /// this host serves, marks them in the exactly-once ledger at join
    /// *start* (joins are atomic units whose output is modeled as durably
    /// streamed at process time), and forwards fully-covered envelopes
    /// without joining.
    // analyze: allow(panic, reason = "host ids index per-ring tables sized at construction; the healing path is exercised exhaustively by the chaos and proptest suites")
    fn try_start_join_fault(
        &mut self,
        f: &mut FaultLedger<P>,
        host: HostId,
        out: &mut Vec<Output<P>>,
    ) {
        loop {
            if f.crashed[host.0]
                || f.paused[host.0]
                || f.absorbing[host.0] > 0
                || !self.hosts[host.0].is_ready()
                || self.hosts[host.0].is_processing()
                || !self.hosts[host.0].has_incoming()
            {
                return;
            }
            let mut held = match self.hosts[host.0].pop_incoming() {
                Some(held) => held,
                None => return,
            };
            let apply = f.role_mask(host) & !held.env.visited;
            if apply == 0 {
                // Every partition this host serves already joined this
                // fragment (healed-route pass-through): forward unjoined.
                if held.pooled {
                    self.hosts[host.0].release_slot_for(held.env.query);
                    let prev = f.prev_alive(host);
                    self.try_send_fault(f, prev, out);
                }
                out.push(Output::PassThrough {
                    host,
                    id: held.env.id,
                });
                self.route_onward_fault(f, host, held.env, out);
                continue;
            }
            // Roles already joined before this stop — the fault-mode hop
            // index (routing may bypass healed-over hosts).
            let hop = held.env.visited.count_ones() as usize;
            held.env.mark_visited(apply);
            // A host that applies just its own role says so with `None`,
            // as the classic path does; only a visit that applies
            // absorbed or handed-off roles names them.
            let roles = (apply != 1u64 << host.0).then(|| {
                f.roles[host.0]
                    .iter()
                    .copied()
                    .filter(|r| apply & (1u64 << r) != 0)
                    .collect()
            });
            let id = held.env.id;
            let bytes = held.env.bytes();
            self.hosts[host.0].set_processing(held);
            out.push(Output::StartJoin {
                host,
                id,
                hop,
                roles,
                bytes,
            });
            return;
        }
    }

    // analyze: allow(panic, reason = "host ids index per-ring tables sized at construction")
    fn on_join_done_fault(
        &mut self,
        f: &mut FaultLedger<P>,
        host: HostId,
        out: &mut Vec<Output<P>>,
    ) {
        if f.crashed[host.0] {
            // The join died with the host; healing salvages its envelope.
            return;
        }
        let Some((env, released)) = self.hosts[host.0].finish_join() else {
            out.push(Output::Teardown {
                reason: "JoinDone without an envelope in processing",
            });
            return;
        };
        if released {
            let prev = f.prev_alive(host);
            self.try_send_fault(f, prev, out);
        }
        out.push(Output::Processed { host, id: env.id });
        self.route_onward_fault(f, host, env, out);
        self.try_start_join_fault(f, host, out);
    }

    /// Retires a fully-visited envelope or queues it for the next hop.
    // analyze: allow(panic, reason = "host ids index per-ring tables sized at construction")
    fn route_onward_fault(
        &mut self,
        f: &mut FaultLedger<P>,
        host: HostId,
        env: Envelope<P>,
        out: &mut Vec<Output<P>>,
    ) {
        if env.visited_all(f.full_mask) {
            out.push(Output::Retire {
                host,
                id: env.id,
                salvaged: false,
            });
            self.fragments_completed += 1;
            self.note_fragment_done(f, env.query, out);
            return;
        }
        self.hosts[host.0].queue_outgoing(env);
        self.try_send_fault(f, host, out);
    }

    /// Multi-tenant completion bookkeeping after a retire: counts the
    /// fragment against its query, emits [`Output::QueryDone`] when the
    /// query's last fragment retired, and admits pending queries into the
    /// freed active slots (injecting their envelopes at each origin — or,
    /// when an origin has died or departed, the nearest routable host
    /// after it, mirroring `resend_from_origin`).
    // analyze: allow(panic, reason = "host ids index per-ring tables sized at construction; the multiplexed path is exercised by the multi-tenant proptest and chaos suites")
    fn note_fragment_done(&mut self, f: &mut FaultLedger<P>, query: u32, out: &mut Vec<Output<P>>) {
        let mut admissions = Vec::new();
        {
            let Some(q) = self.queries.as_mut() else {
                return;
            };
            if !q.note_completed(query) {
                return;
            }
            let tenant = q.entry(query).map_or(0, |e| e.tenant);
            out.push(Output::QueryDone { query, tenant });
            while let Some(admitted) = q.admit_next() {
                admissions.push(admitted);
            }
        }
        for (query, tenant, batches) in admissions {
            out.push(Output::QueryAdmitted { query, tenant });
            for (h, envs) in batches.into_iter().enumerate() {
                for env in envs {
                    match f.inject_target(HostId(h)) {
                        Some(target) => self.hosts[target.0].inject_local(env),
                        None => {
                            out.push(Output::Teardown {
                                reason: teardown::NO_RESEND_SURVIVOR,
                            });
                            return;
                        }
                    }
                }
            }
            self.kick_ring(f, out);
        }
    }

    /// Reliable transmit: stop-and-wait per sender with the successor
    /// chosen through the healed routing table.
    // analyze: allow(panic, reason = "host ids index per-ring tables sized at construction; the healing path is exercised exhaustively by the chaos and proptest suites")
    fn try_send_fault(&mut self, f: &mut FaultLedger<P>, host: HostId, out: &mut Vec<Output<P>>) {
        if self.cfg.hosts == 1 {
            return;
        }
        if f.crashed[host.0] || f.paused[host.0] {
            return;
        }
        if self.hosts[host.0].is_sending() || f.awaiting[host.0].is_some() {
            return;
        }
        if !self.hosts[host.0].has_outgoing() {
            self.watch_successor(f, host, out);
            return;
        }
        let next = f.next_alive(host);
        if next == host {
            // Sole survivor: remaining rotation work loops back locally.
            while let Some(env) = self.hosts[host.0].pop_outgoing() {
                self.hosts[host.0].inject_local(env);
            }
            self.try_start_join_fault(f, host, out);
            return;
        }
        let mut env = if self.queries.is_some() {
            match self.pick_outgoing_multi(f, host, next, out) {
                Some(env) => env,
                None => return,
            }
        } else {
            if !self.hosts[next.0].has_free_slot() {
                // Blocked on the successor's receive pool. Probe it so a
                // corpse with a full pool is still detected (no data, no
                // ack timeout).
                if f.probing[host.0].is_none() {
                    f.probing[host.0] = Some((next, 1));
                    out.push(Output::ArmTimer {
                        timer: Timer::Probe {
                            from: host,
                            to: next,
                            attempt: 1,
                        },
                        backoff_exp: 0,
                    });
                }
                return;
            }
            f.probing[host.0] = None;
            let env = match self.hosts[host.0].pop_outgoing() {
                Some(env) => env,
                None => return,
            };
            self.hosts[next.0].reserve_slot();
            env
        };
        let tid = f.next_tid;
        f.next_tid += 1;
        // Per-sender wire sequence: every backend rolls its fault dice on
        // this one numbering, so they agree across backends. In
        // multi-tenant mode the sequence space is per-(sender, query) —
        // query id in the high bits — so each query's dice are private
        // and independent of cross-query interleaving.
        env.seq = match self.queries.as_mut() {
            Some(q) => q.next_seq(host.0, env.query),
            None => {
                f.wire_seq[host.0] += 1;
                f.wire_seq[host.0]
            }
        };
        f.awaiting[host.0] = Some(tid);
        f.in_flight.insert(
            tid,
            InFlight {
                from: host,
                to: next,
                env,
                attempts: 1,
                maybe_live: false,
            },
        );
        self.transmit_attempt(f, tid, out);
    }

    /// An idle sender watches a successor that still holds work: it
    /// probes it at the base interval, and a probe that goes unanswered
    /// escalates through the retransmission budget to a confirmed death.
    /// Without the watch, work left on a corpse that nobody sends to any
    /// more (its last fragments on their final hop, every transfer into
    /// it already acked) would never implicate it, and the ring would
    /// wait on it forever.
    // analyze: allow(panic, reason = "host ids index per-ring tables sized at construction")
    fn watch_successor(&mut self, f: &mut FaultLedger<P>, host: HostId, out: &mut Vec<Output<P>>) {
        let next = f.next_alive(host);
        if next == host || f.probing[host.0].is_some() || !self.holds_work(next) {
            return;
        }
        f.probing[host.0] = Some((next, 1));
        out.push(Output::ArmTimer {
            timer: Timer::Probe {
                from: host,
                to: next,
                attempt: 1,
            },
            backoff_exp: 0,
        });
    }

    /// Does `host` hold an envelope it has yet to join or to send on?
    // analyze: allow(panic, reason = "host ids index per-ring tables sized at construction")
    fn holds_work(&self, host: HostId) -> bool {
        self.hosts[host.0].has_work() || self.hosts[host.0].has_outgoing()
    }

    /// Multi-tenant transmit selection: rotates the host's fairness
    /// cursor over the queries with queued envelopes, picks the first
    /// whose credit partition at `next` can take a slot (reserving it),
    /// and charges a deficit tick to every eligible query passed over.
    /// Arms the flow-control probe when *every* queued query is blocked.
    // analyze: allow(panic, reason = "host ids index per-ring tables sized at construction; the multiplexed path is exercised by the multi-tenant proptest and chaos suites")
    fn pick_outgoing_multi(
        &mut self,
        f: &mut FaultLedger<P>,
        host: HostId,
        next: HostId,
        out: &mut Vec<Output<P>>,
    ) -> Option<Envelope<P>> {
        self.hosts[host.0].outgoing_query_set(&mut self.queued);
        let q = self.queries.as_mut()?;
        q.send_order(host.0, &self.queued, &mut self.order);
        let chosen = self
            .order
            .iter()
            .copied()
            .find(|&qid| self.hosts[next.0].can_accept(qid, q.quota()));
        let Some(qid) = chosen else {
            // Every queued query is blocked on the successor (pool full
            // or partition exhausted): probe so a corpse behind a full
            // pool is still detected.
            if !self.queued.is_empty() && f.probing[host.0].is_none() {
                f.probing[host.0] = Some((next, 1));
                out.push(Output::ArmTimer {
                    timer: Timer::Probe {
                        from: host,
                        to: next,
                        attempt: 1,
                    },
                    backoff_exp: 0,
                });
            }
            return None;
        };
        f.probing[host.0] = None;
        q.note_served(host.0, qid, &self.queued);
        let quota = q.quota();
        self.hosts[next.0].reserve_slot_for(qid, quota);
        self.hosts[host.0].pop_outgoing_query(qid)
    }

    /// Emits one attempt of transfer `tid`; the driver rolls the fault
    /// dice for this `(link, seq, attempt)` tuple and reports the fate
    /// back through [`RingProtocol::attempt_fate`].
    // analyze: allow(panic, reason = "transmit of a transfer inserted by the caller; ledger lookups after presence checks")
    fn transmit_attempt(&mut self, f: &mut FaultLedger<P>, tid: u64, out: &mut Vec<Output<P>>) {
        let e = match f.in_flight.get(&tid) {
            Some(e) => e,
            None => return,
        };
        let (from, to, attempt) = (e.from, e.to, e.attempts);
        self.hosts[from.0].set_sending(true);
        out.push(Output::Send {
            from,
            to,
            tid,
            attempt,
            env: e.env.clone(),
        });
        out.push(Output::ArmTimer {
            timer: Timer::Retransmit { tid, attempt },
            backoff_exp: backoff_exponent(attempt),
        });
    }

    /// A peer exhausted its retransmission budget against `dead`: bypass
    /// it, let its successor absorb the orphaned stationary partitions,
    /// and re-send every fragment copy lost in its buffers from the
    /// fragment's origin — mid-revolution ring healing.
    // analyze: allow(panic, reason = "host ids index per-ring tables sized at construction; the healing path is exercised exhaustively by the chaos and proptest suites")
    fn confirm_death(&mut self, f: &mut FaultLedger<P>, dead: HostId, out: &mut Vec<Output<P>>) {
        if f.confirmed_dead[dead.0] {
            return;
        }
        if !f.crashed[dead.0] {
            out.push(Output::Teardown {
                reason: teardown::LIVE_HOST_KILLED,
            });
            return;
        }
        f.confirmed_dead[dead.0] = true;
        // A drain the dead host never completed is aborted, not counted:
        // the crash-healing path owns the host now.
        if f.membership.is_draining(dead) {
            f.membership.abort_drain(dead);
        }
        if (0..self.cfg.hosts).all(|h| !f.routes(h)) {
            out.push(Output::Teardown {
                reason: teardown::ALL_HOSTS_DEAD,
            });
            return;
        }
        f.heal_events += 1;
        out.push(Output::Heal { dead });

        // 1. The ring successor absorbs the orphaned stationary
        //    partitions — the exactly-once ledger is the `roles` table:
        //    `take` empties the dead host's entry, so no second survivor
        //    can ever absorb the same role.
        let successor = f.next_alive(dead);
        let orphaned: Vec<usize> = std::mem::take(&mut f.roles[dead.0]);
        if !orphaned.is_empty() {
            f.roles[successor.0].extend(orphaned.iter().copied());
            f.absorbing[successor.0] += 1;
            out.push(Output::Absorb {
                from: dead,
                to: successor,
                roles: orphaned,
                planned: false,
            });
        }

        // 2. Salvage every fragment copy lost in the dead host's buffers.
        let mut lost = self.hosts[dead.0].salvage();
        f.awaiting[dead.0] = None;
        f.probing[dead.0] = None;

        // 3. Settle in-flight transfers touching the corpse: transfers
        //    *to* it reroute at their sender; transfers *from* it either
        //    survive at the receiver (only the ack back to the corpse was
        //    lost) or are genuinely gone and join the re-send set.
        let touching: Vec<u64> = f
            .in_flight
            .iter()
            .filter(|(_, e)| e.to == dead || e.from == dead)
            .map(|(tid, _)| *tid)
            .collect();
        for tid in touching {
            let entry = match f.in_flight.remove(&tid) {
                Some(entry) => entry,
                None => continue,
            };
            if entry.to == dead {
                if f.awaiting[entry.from.0] == Some(tid) {
                    f.awaiting[entry.from.0] = None;
                }
                if f.accepted.contains(&tid) {
                    // The corpse accepted this copy before dying (only the
                    // ack back never settled): the copy is in the salvage
                    // set — or already forwarded and alive downstream.
                    // Re-sending from the sender too would fork the
                    // fragment into two live copies.
                } else {
                    f.requeued.insert(tid);
                    self.hosts[entry.from.0].requeue_outgoing_front(entry.env);
                }
            } else if !entry.maybe_live {
                if f.accepted.contains(&tid) {
                    // The receiver accepted an earlier attempt — only the
                    // ack back to the corpse was lost. The copy is alive
                    // downstream; reviving it would fork the fragment.
                } else {
                    // The copy is gone with the wire or the corpse. Free
                    // the receive slot the transfer reserved (the revived
                    // copy reserves its own) and revive the fragment from
                    // the origin below. Any late wire copy of this tid
                    // must die at delivery.
                    self.hosts[entry.to.0].release_slot_for(entry.env.query);
                    f.requeued.insert(tid);
                    lost.push(entry.env);
                }
            }
        }
        for env in lost {
            self.resend_from_origin(f, env, out);
        }

        // 4. Kick every survivor: blocked transmitters now route around
        //    the corpse, and salvaged fragments may be waiting for a join.
        for h in 0..self.cfg.hosts {
            if !f.confirmed_dead[h] && !f.crashed[h] {
                self.try_send_fault(f, HostId(h), out);
                self.try_start_join_fault(f, HostId(h), out);
            }
        }
    }

    /// Re-injects a fragment whose only live copy was lost with a dead
    /// host, from its origin (the fragment's home, which still holds it).
    // analyze: allow(panic, reason = "host ids index per-ring tables sized at construction; the healing path is exercised exhaustively by the chaos and proptest suites")
    fn resend_from_origin(
        &mut self,
        f: &mut FaultLedger<P>,
        mut env: Envelope<P>,
        out: &mut Vec<Output<P>>,
    ) {
        if env.visited_all(f.full_mask) {
            // The dead host crashed between starting and finishing the
            // last join; the output is modeled as streamed at process
            // time, so the fragment simply retires.
            out.push(Output::Retire {
                host: env.origin,
                id: env.id,
                salvaged: true,
            });
            self.fragments_completed += 1;
            self.note_fragment_done(f, env.query, out);
            return;
        }
        let Some(target) = f.inject_target(env.origin) else {
            out.push(Output::Teardown {
                reason: teardown::NO_RESEND_SURVIVOR,
            });
            return;
        };
        env.seq = 0;
        f.fragments_resent += 1;
        out.push(Output::Resent { target, id: env.id });
        if f.role_mask(target) & !env.visited != 0 {
            self.hosts[target.0].inject_local(env);
            self.try_start_join_fault(f, target, out);
        } else {
            self.hosts[target.0].queue_outgoing(env);
            self.try_send_fault(f, target, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::FragmentId;
    use crate::protocol::envelope_batches;

    fn ring(hosts: usize, per_host: usize, reliable: bool) -> RingProtocol<Vec<u8>> {
        let cfg = ProtocolConfig {
            hosts,
            buffers_per_host: 2,
            max_retransmits: 4,
            continuous: false,
            reliable,
            standby: 0,
        };
        let payloads: Vec<Vec<Vec<u8>>> = (0..hosts)
            .map(|h| {
                (0..per_host)
                    .map(|i| vec![(h * 10 + i) as u8; 16])
                    .collect()
            })
            .collect();
        RingProtocol::new(cfg, envelope_batches(payloads, hosts))
    }

    /// Converts outputs into the obligations a perfect (lossless) driver
    /// would owe back to the protocol.
    fn fulfill(outputs: Vec<Output<Vec<u8>>>, pending: &mut Vec<Input<Vec<u8>>>) {
        for output in outputs {
            match output {
                Output::StartJoin { host, .. } => pending.push(Input::JoinDone {
                    host,
                    app_finished: false,
                }),
                Output::Send {
                    from, to, tid, env, ..
                } => {
                    pending.push(Input::SendDone { from });
                    pending.push(Input::Delivered { to, env, tid });
                }
                Output::Ack { tid, .. } => pending.push(Input::Ack { tid }),
                Output::Absorb { to, .. } => pending.push(Input::AbsorbDone { host: to }),
                Output::Teardown { reason } => panic!("unexpected teardown: {reason}"),
                _ => {}
            }
        }
    }

    /// Drives a protocol until the pending obligations are exhausted,
    /// depth-first, starting from `pending`.
    fn drive_seq(proto: &mut RingProtocol<Vec<u8>>, mut pending: Vec<Input<Vec<u8>>>) {
        let mut steps = 0usize;
        while let Some(input) = pending.pop() {
            steps += 1;
            assert!(steps < 100_000, "protocol did not quiesce");
            fulfill(proto.input(input), &mut pending);
        }
    }

    /// Drives a protocol to completion from a fresh setup.
    fn drive(proto: &mut RingProtocol<Vec<u8>>) {
        let pending: Vec<Input<Vec<u8>>> = (0..proto.config().hosts)
            .map(|h| Input::SetupDone { host: HostId(h) })
            .collect();
        drive_seq(proto, pending);
    }

    #[test]
    fn classic_ring_completes_a_revolution() {
        let mut proto = ring(3, 2, false);
        drive(&mut proto);
        assert_eq!(proto.fragments_completed(), 6);
        for h in 0..3 {
            assert_eq!(proto.host(HostId(h)).fragments_processed(), 6);
            assert_eq!(proto.host(HostId(h)).pool_used(), 0);
        }
    }

    #[test]
    fn reliable_ring_completes_with_acks() {
        let mut proto = ring(3, 2, true);
        drive(&mut proto);
        assert_eq!(proto.fragments_completed(), 6);
        for h in 0..3 {
            assert_eq!(proto.host(HostId(h)).fragments_processed(), 6);
            assert_eq!(proto.retransmits(HostId(h)), 0);
        }
        assert_eq!(proto.heal_events(), 0);
    }

    #[test]
    fn single_host_ring_retires_locally() {
        let mut proto = ring(1, 3, false);
        drive(&mut proto);
        assert_eq!(proto.fragments_completed(), 3);
        assert_eq!(proto.host(HostId(0)).fragments_processed(), 3);
    }

    #[test]
    fn stale_retransmit_timers_are_ignored() {
        let mut proto = ring(2, 1, true);
        let _ = proto.input(Input::SetupDone { host: HostId(0) });
        // A tick for a transfer that was never sent must be a no-op.
        let out = proto.input(Input::Tick {
            timer: Timer::Retransmit {
                tid: 99,
                attempt: 1,
            },
        });
        assert!(out.is_empty());
    }

    #[test]
    fn planned_drain_hands_off_and_departs_mid_run() {
        let mut proto = ring(3, 2, true);
        // LIFO driver: the drain request is processed first, before any
        // host finishes setup — the drainee hands its partition off and
        // then relays its own local fragments until quiescent.
        let mut init: Vec<Input<Vec<u8>>> = (0..3)
            .map(|h| Input::SetupDone { host: HostId(h) })
            .collect();
        init.push(Input::DrainRequest { host: HostId(1) });
        drive_seq(&mut proto, init);
        assert_eq!(proto.fragments_completed(), 6);
        assert_eq!(proto.membership_epoch(), 1);
        assert_eq!(proto.rescale_drains(), 1);
        assert_eq!(proto.rescale_handoffs(), 1, "host 1's one role moved");
        assert_eq!(proto.rescale_escalations(), 0);
        assert_eq!(proto.heal_events(), 0, "a drain is not a fault");
        assert!(!proto.is_member(HostId(1)));
        for h in 0..3 {
            assert_eq!(proto.host(HostId(h)).pool_used(), 0);
        }
    }

    #[test]
    fn standby_join_enters_the_ring() {
        let cfg = ProtocolConfig {
            hosts: 4,
            buffers_per_host: 2,
            max_retransmits: 4,
            continuous: false,
            reliable: true,
            standby: 0b1000,
        };
        let payloads: Vec<Vec<Vec<u8>>> = (0..4)
            .map(|h| {
                if h == 3 {
                    Vec::new()
                } else {
                    (0..2).map(|i| vec![(h * 10 + i) as u8; 16]).collect()
                }
            })
            .collect();
        let mut proto = RingProtocol::new(cfg, envelope_batches(payloads, 4));
        let mut init: Vec<Input<Vec<u8>>> = (0..4)
            .map(|h| Input::SetupDone { host: HostId(h) })
            .collect();
        init.push(Input::JoinRequest { host: HostId(3) });
        drive_seq(&mut proto, init);
        assert_eq!(proto.fragments_completed(), 6);
        assert_eq!(proto.membership_epoch(), 1);
        assert_eq!(proto.rescale_joins(), 1);
        assert!(proto.is_member(HostId(3)));
        // Rendezvous hashing decides which of the three initial roles
        // move to the newcomer; the counter must match that pure
        // function exactly.
        let grown: Vec<HostId> = (0..4).map(HostId).collect();
        let expected = (0..3)
            .filter(|&r| crate::protocol::rendezvous_owner(r, &grown) == Some(HostId(3)))
            .count() as u64;
        assert_eq!(proto.rescale_handoffs(), expected);
    }

    #[test]
    fn draining_the_last_healthy_member_is_refused() {
        let mut proto = ring(3, 1, true);
        let mut init: Vec<Input<Vec<u8>>> = (0..3)
            .map(|h| Input::SetupDone { host: HostId(h) })
            .collect();
        // LIFO: all three drains are requested back-to-back before any
        // setup completes; the third must be refused outright.
        init.push(Input::DrainRequest { host: HostId(0) });
        init.push(Input::DrainRequest { host: HostId(1) });
        init.push(Input::DrainRequest { host: HostId(2) });
        drive_seq(&mut proto, init);
        assert_eq!(proto.fragments_completed(), 3);
        assert_eq!(proto.rescale_drains(), 2);
        assert_eq!(proto.membership_epoch(), 2);
        assert!(proto.is_member(HostId(0)), "last member must stay");
        assert!(!proto.is_member(HostId(1)));
        assert!(!proto.is_member(HostId(2)));
    }

    #[test]
    fn stalled_drain_escalates_into_crash_healing() {
        let mut proto = ring(3, 1, true);
        let mut pending: Vec<Input<Vec<u8>>> = Vec::new();
        // Pause the drainee so it can never relay its way to quiescence,
        // then exhaust the drain deadline's attempt budget.
        fulfill(proto.input(Input::Paused { host: HostId(1) }), &mut pending);
        fulfill(
            proto.input(Input::DrainRequest { host: HostId(1) }),
            &mut pending,
        );
        assert_eq!(proto.rescale_handoffs(), 1, "roles moved at drain start");
        for attempt in 1..=5 {
            let out = proto.input(Input::Tick {
                timer: Timer::DrainDeadline {
                    host: HostId(1),
                    attempt,
                },
            });
            fulfill(out, &mut pending);
        }
        assert_eq!(proto.rescale_escalations(), 1);
        assert_eq!(proto.heal_events(), 1, "the drain degraded into a heal");
        assert_eq!(
            proto.rescale_drains(),
            0,
            "an escalated drain never completed"
        );
        assert_eq!(proto.membership_epoch(), 0);
        for h in 0..3 {
            pending.push(Input::SetupDone { host: HostId(h) });
        }
        drive_seq(&mut proto, pending);
        assert_eq!(proto.fragments_completed(), 3, "healing finishes the join");
    }

    /// A reliable ring whose host 1 dies before anything moves: the
    /// failure detector confirms it through host 0's exhausted sends, and
    /// host 2 absorbs role 1. Every visit that applies just the visiting
    /// host's own role carries `roles: None`; every survivor's visit that
    /// applies the absorbed role names what it applies, both roles at once
    /// included.
    #[test]
    fn a_healed_survivors_multi_role_visit_names_its_roles() {
        let mut proto = ring(3, 2, true);
        let mut pending: Vec<Input<Vec<u8>>> = (0..3)
            .map(|h| Input::SetupDone { host: HostId(h) })
            .collect();
        pending.push(Input::PeerDead { host: HostId(1) });
        let mut timers = std::collections::VecDeque::new();
        let mut visits = Vec::new();
        let mut out = Vec::new();
        for step in 0.. {
            assert!(step < 100_000, "protocol did not quiesce");
            let input = match pending.pop() {
                Some(input) => input,
                None => match timers.pop_front() {
                    Some(timer) => Input::Tick { timer },
                    None => break,
                },
            };
            proto.input_into(input, &mut out);
            for output in &out {
                match output {
                    Output::StartJoin { host, roles, .. } => visits.push((*host, roles.clone())),
                    Output::ArmTimer { timer, .. } => timers.push_back(*timer),
                    _ => {}
                }
            }
            fulfill(std::mem::take(&mut out), &mut pending);
        }
        assert_eq!(proto.heal_events(), 1);
        assert_eq!(proto.fragments_completed(), 6, "healing finishes the join");
        assert!(visits.iter().all(|(host, _)| *host != HostId(1)));
        for (host, roles) in &visits {
            match roles {
                None => {}
                Some(roles) => {
                    assert_eq!(*host, HostId(2), "only the survivor applies a foreign role");
                    assert!(roles.contains(&1), "{roles:?} names the absorbed role");
                }
            }
        }
        assert!(
            visits.contains(&(HostId(2), Some(vec![2, 1]))),
            "some fragment needs both of the survivor's roles at once"
        );
    }

    #[test]
    fn envelope_batches_number_globally() {
        let batches = envelope_batches(vec![vec![vec![1u8]], vec![vec![2u8], vec![3u8]]], 2);
        assert_eq!(batches[0][0].id, FragmentId(0));
        assert_eq!(batches[1][0].id, FragmentId(1));
        assert_eq!(batches[1][1].id, FragmentId(2));
        assert_eq!(batches[1][1].origin, HostId(1));
    }
}
