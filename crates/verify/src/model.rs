//! The checker's world model: the protocol under test plus the
//! environment state a driver would own — pending deliveries, armed
//! timers, fault budgets and the rescale schedule.
//!
//! Nondeterminism lives in two places: *which* enabled transition fires
//! next ([`World::progress_choices`] / [`World::crash_choices`]), and the
//! [`Fate`] of every send attempt a transition emits (the driver-side
//! fault dice, replaced by branching). Everything else is the protocol's
//! own deterministic reaction.
//!
//! Reductions applied here (see DESIGN.md §11 for the soundness
//! arguments):
//!
//! * **eager wire-release**: `Input::SendDone` is fed immediately after
//!   its `Output::Send` instead of being a separate event. After a
//!   reliable send the sender is gated on `awaiting` anyway, so deferring
//!   the wire release only delays that host's *next* transmission — every
//!   interleaving converges to the same states.
//! * **inert-event pruning** ([`World::normalize`]): events and timers
//!   whose handler provably remains a no-op forever (crashed-host
//!   completions, settled acks, stale timers, dead wire copies) are
//!   dropped at creation instead of being explored as distinct
//!   interleavings.
//! * **timeout fairness**: a retransmission timer may only fire while a
//!   deliverable copy or its ack is pending by consuming a `spurious`
//!   budget token. Unrestricted early timeouts would let the failure
//!   detector exhaust its budget against a live host — a `Teardown` no
//!   real driver (whose timeout far exceeds a hop delay) can produce.

use data_roundabout::envelope::Envelope;
use data_roundabout::protocol::{
    envelope_batches, query_batches, Input, Output, ProtocolConfig, RingProtocol, Timer,
};
use simnet::topology::HostId;

use crate::configs::{CheckConfig, Rescale};

/// Payload every modeled fragment carries: identical bytes at every
/// host, so host-rotation symmetry is exact.
pub const PAYLOAD: [u8; 4] = [0xA5; 4];

/// The fate the environment deals to one send attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Intact copy reaches the wire.
    Ok,
    /// The attempt vanishes (consumes one `losses` token).
    Lost,
    /// The copy arrives with a flipped checksum (one `corruptions`
    /// token).
    Corrupt,
}

/// A pending environment event: an observation some driver component
/// would eventually feed back into the protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ev {
    /// Host setup completes (`Input::SetupDone`).
    Setup(usize),
    /// A started join finishes (`Input::JoinDone`).
    JoinDone(usize),
    /// An absorb/handoff rebuild finishes (`Input::AbsorbDone`).
    AbsorbDone(usize),
    /// A wire copy arrives (`Input::Delivered`).
    Wire {
        /// Receiving host.
        to: usize,
        /// Transfer id.
        tid: u64,
        /// False when the copy was corrupted in flight.
        intact: bool,
        /// The copy itself.
        env: Envelope<Vec<u8>>,
    },
    /// An acknowledgement reaches the original sender (`Input::Ack`).
    AckWire {
        /// The awaiting sender (display only; `Input::Ack` keys on tid).
        to: usize,
        /// Acknowledged transfer.
        tid: u64,
    },
}

/// One transition the environment can choose at a state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Choice {
    /// Deliver a pending event.
    Ev(Ev),
    /// Fire an armed timer.
    Tick(Timer),
    /// Crash a host (consumes one `crashes` token).
    Crash(usize),
    /// Issue a scheduled rescale request.
    Rescale(Rescale),
}

/// Side observations of one applied transition, consumed by the
/// invariant checks.
#[derive(Debug, Default)]
pub struct StepOutcome {
    /// Send attempts emitted (drives fate enumeration).
    pub sends: usize,
    /// A fatal `Output::Teardown` fired.
    pub teardown: Option<&'static str>,
    /// A fragment retired that had already retired.
    pub double_retire: bool,
    /// An envelope was accepted into a pool (`Output::Delivered`).
    pub accepted_delivery: bool,
    /// The ring healed around a confirmed death (`Output::Heal`).
    pub healed: bool,
    /// A spurious retransmission delivered a dropped duplicate.
    pub dup_dropped: bool,
    /// A drained host departed (`Output::Departed`).
    pub departed: bool,
}

/// The protocol under test plus its modeled environment.
#[derive(Debug, Clone)]
pub struct World {
    /// The shipping state machine.
    pub proto: RingProtocol<Vec<u8>>,
    /// Pending environment events (unordered — delivery order is the
    /// search's nondeterminism).
    pub pending: Vec<Ev>,
    /// Armed timers, at most one per slot (tid / prober / drainee).
    pub timers: Vec<Timer>,
    /// Remaining crash budget.
    pub crashes: u32,
    /// Remaining loss budget.
    pub losses: u32,
    /// Remaining corruption budget.
    pub corruptions: u32,
    /// Remaining spurious-timeout budget.
    pub spurious: u32,
    /// Rescale operations not yet issued.
    pub rescale: Vec<Rescale>,
    /// Fragments observed retiring (`Output::Retire`), as a bitmask.
    pub retired: u64,
    /// Sabotage armed (from the config)?
    pub sabotage_armed: bool,
    /// Sabotage already triggered?
    pub sabotaged: bool,
}

impl World {
    /// The initial state of a bounded configuration: every host has a
    /// pending setup event; nothing is armed or in flight.
    pub fn init(cfg: &CheckConfig) -> World {
        let pcfg = ProtocolConfig {
            hosts: cfg.hosts,
            buffers_per_host: cfg.buffers,
            max_retransmits: cfg.max_retransmits,
            continuous: false,
            reliable: cfg.reliable,
            standby: cfg.standby,
        };
        let per_host = |frags: &[usize]| -> Vec<Vec<Vec<u8>>> {
            frags
                .iter()
                .map(|&k| (0..k).map(|_| PAYLOAD.to_vec()).collect())
                .collect()
        };
        let proto = if cfg.queries.is_empty() {
            RingProtocol::new(pcfg, envelope_batches(per_host(&cfg.frags), cfg.hosts))
        } else {
            let batches = cfg
                .queries
                .iter()
                .enumerate()
                .map(|(q, frags)| (q as u32, per_host(frags)))
                .collect();
            RingProtocol::new_multi(pcfg, query_batches(batches, cfg.hosts), cfg.max_active)
        };
        World {
            proto,
            pending: (0..cfg.hosts).map(Ev::Setup).collect(),
            timers: Vec::new(),
            crashes: cfg.crashes,
            losses: cfg.losses,
            corruptions: cfg.corruptions,
            spurious: cfg.spurious,
            rescale: cfg.rescale.clone(),
            retired: 0,
            sabotage_armed: cfg.sabotage,
            sabotaged: false,
        }
    }

    /// The progress transitions enabled now: every pending event, every
    /// timer allowed to fire (see [`World::tick_allowed`]) and every
    /// unissued rescale request. An empty set with undelivered work on a
    /// live host is the stuck-state violation.
    pub fn progress_choices(&self) -> Vec<Choice> {
        let mut v: Vec<Choice> = self.pending.iter().cloned().map(Choice::Ev).collect();
        for t in &self.timers {
            if self.tick_allowed(t).is_some() {
                v.push(Choice::Tick(*t));
            }
        }
        v.extend(self.rescale.iter().copied().map(Choice::Rescale));
        v
    }

    /// The crash transitions enabled now: any host the driver could
    /// still report dead — except the last live ring member, whose death
    /// would (correctly) tear the whole ring down.
    pub fn crash_choices(&self) -> Vec<Choice> {
        if self.crashes == 0 {
            return Vec::new();
        }
        let live_members = (0..self.proto.config().hosts)
            .filter(|&h| self.proto.is_member(HostId(h)) && !self.proto.is_crashed(HostId(h)))
            .count();
        self.proto
            .enabled_inputs()
            .into_iter()
            .filter_map(|i| match i {
                Input::PeerDead { host } => {
                    let last_member = self.proto.is_member(host) && live_members <= 1;
                    (!last_member).then_some(Choice::Crash(host.0))
                }
                _ => None,
            })
            .collect()
    }

    /// May this armed timer fire now — and does firing consume a
    /// `spurious` token? `None` means the tick stays disabled at this
    /// state. Only retransmission timeouts are restricted: firing one
    /// while a deliverable copy or its ack is still pending models a
    /// timeout racing the delivery, which real drivers make rare and the
    /// `spurious` budget makes bounded.
    pub fn tick_allowed(&self, t: &Timer) -> Option<bool> {
        let Timer::Retransmit { tid, .. } = t else {
            return Some(false);
        };
        let deliverable_pending = self.pending.iter().any(|e| match e {
            Ev::Wire {
                to,
                tid: t2,
                intact,
                ..
            } => t2 == tid && *intact && !self.proto.is_crashed(HostId(*to)),
            Ev::AckWire { tid: t2, .. } => t2 == tid,
            _ => false,
        });
        if !deliverable_pending {
            Some(false)
        } else if self.spurious > 0 {
            Some(true)
        } else {
            None
        }
    }

    /// Applies one transition. `fates` assigns an outcome to each send
    /// attempt the transition emits, in emission order (missing entries
    /// default to [`Fate::Ok`]); the send *count* is fate-independent, so
    /// the caller can discover it with an all-`Ok` dry run and then
    /// branch over fate vectors.
    pub fn apply(&mut self, choice: &Choice, fates: &[Fate]) -> StepOutcome {
        let mut outcome = StepOutcome::default();
        let mut fates = fates.iter().copied();
        match choice {
            Choice::Ev(ev) => {
                if let Some(i) = self.pending.iter().position(|e| e == ev) {
                    self.pending.remove(i);
                }
                let input = match ev.clone() {
                    Ev::Setup(h) => Input::SetupDone { host: HostId(h) },
                    Ev::JoinDone(h) => Input::JoinDone {
                        host: HostId(h),
                        app_finished: false,
                    },
                    Ev::AbsorbDone(h) => Input::AbsorbDone { host: HostId(h) },
                    Ev::Wire { to, tid, env, .. } => Input::Delivered {
                        to: HostId(to),
                        env,
                        tid,
                    },
                    Ev::AckWire { tid, .. } => Input::Ack { tid },
                };
                self.feed(input, &mut fates, &mut outcome);
                if let Ev::Wire { to, .. } = ev {
                    if self.sabotage_armed && !self.sabotaged && outcome.accepted_delivery {
                        // The seeded invariant break: one unearned credit.
                        self.proto.test_only_release_slot(HostId(*to));
                        self.sabotaged = true;
                    }
                }
            }
            Choice::Tick(t) => {
                if self.tick_allowed(t) == Some(true) {
                    self.spurious = self.spurious.saturating_sub(1);
                }
                self.timers.retain(|x| x != t);
                self.feed(Input::Tick { timer: *t }, &mut fates, &mut outcome);
            }
            Choice::Crash(h) => {
                self.crashes = self.crashes.saturating_sub(1);
                self.feed(
                    Input::PeerDead { host: HostId(*h) },
                    &mut fates,
                    &mut outcome,
                );
            }
            Choice::Rescale(r) => {
                if let Some(i) = self.rescale.iter().position(|x| x == r) {
                    self.rescale.remove(i);
                }
                let input = match *r {
                    Rescale::Join(h) => Input::JoinRequest { host: HostId(h) },
                    Rescale::Drain(h) => Input::DrainRequest { host: HostId(h) },
                };
                self.feed(input, &mut fates, &mut outcome);
            }
        }
        self.normalize();
        outcome
    }

    /// Feeds one input and maps the protocol's outputs back onto the
    /// environment: sends become wire events (after their fate is dealt
    /// and reported via `attempt_fate`, exactly as a driver would),
    /// timers are (re-)armed by slot, absorb/handoff work and started
    /// joins become completion events, and the wire is released eagerly.
    fn feed(
        &mut self,
        input: Input<Vec<u8>>,
        fates: &mut impl Iterator<Item = Fate>,
        outcome: &mut StepOutcome,
    ) {
        let outputs = self.proto.input(input);
        let mut send_dones: Vec<usize> = Vec::new();
        for o in outputs {
            match o {
                Output::StartJoin { host, .. } => self.pending.push(Ev::JoinDone(host.0)),
                Output::Send {
                    from, to, tid, env, ..
                } => {
                    outcome.sends += 1;
                    let fate = fates.next().unwrap_or(Fate::Ok);
                    if self.proto.config().reliable {
                        self.proto
                            .attempt_fate(tid, fate == Fate::Lost, fate == Fate::Corrupt);
                    }
                    match fate {
                        Fate::Ok => self.pending.push(Ev::Wire {
                            to: to.0,
                            tid,
                            intact: true,
                            env,
                        }),
                        Fate::Corrupt => {
                            self.corruptions = self.corruptions.saturating_sub(1);
                            let mut env = env;
                            env.checksum ^= 1;
                            self.pending.push(Ev::Wire {
                                to: to.0,
                                tid,
                                intact: false,
                                env,
                            });
                        }
                        Fate::Lost => self.losses = self.losses.saturating_sub(1),
                    }
                    send_dones.push(from.0);
                }
                Output::Ack { to, tid } => self.pending.push(Ev::AckWire { to: to.0, tid }),
                Output::ArmTimer { timer, .. } => self.arm_timer(timer),
                Output::Absorb { to, .. } => self.pending.push(Ev::AbsorbDone(to.0)),
                Output::Retire { id, .. } => {
                    let bit = 1u64 << id.0;
                    if self.retired & bit != 0 {
                        outcome.double_retire = true;
                    }
                    self.retired |= bit;
                }
                Output::Delivered { .. } => outcome.accepted_delivery = true,
                Output::DuplicateDropped { .. } => outcome.dup_dropped = true,
                Output::Heal { .. } => outcome.healed = true,
                Output::Departed { .. } => outcome.departed = true,
                Output::Teardown { reason } => outcome.teardown = Some(reason),
                Output::PassThrough { .. }
                | Output::Processed { .. }
                | Output::ChecksumMismatch { .. }
                | Output::Activate { .. }
                | Output::Resent { .. }
                | Output::QueryAdmitted { .. }
                | Output::QueryDone { .. }
                | Output::Finished { .. } => {}
            }
        }
        for from in send_dones {
            self.feed(host_from(from), fates, outcome);
        }
    }

    /// Arms a timer, replacing any timer occupying the same slot (a
    /// retransmission timer per tid, a probe per sender, a deadline per
    /// drainee) — drivers overwrite re-armed timers the same way.
    fn arm_timer(&mut self, t: Timer) {
        self.timers.retain(|old| !same_slot(old, &t));
        self.timers.push(t);
    }

    /// Drops events and timers whose handler provably remains a no-op
    /// forever. Every rule relies on a monotone protocol fact (crashes,
    /// confirmed deaths, accepted/requeued tids and attempt counters
    /// never roll back), so a pruned transition could never re-enable.
    fn normalize(&mut self) {
        let snap = self.proto.snapshot();
        let Some(f) = snap.fault else {
            return;
        };
        let in_flight_eq = |tid: u64, attempt: u32| {
            f.in_flight
                .iter()
                .any(|e| e.tid == tid && e.attempts == attempt)
        };
        self.timers.retain(|t| match *t {
            Timer::Retransmit { tid, attempt } => in_flight_eq(tid, attempt),
            Timer::Probe { from, to, attempt } => {
                f.probing.get(from.0).copied().flatten() == Some((to.0, attempt))
            }
            Timer::DrainDeadline { host, .. } => {
                f.membership.draining & (1u64 << host.0) != 0
                    && f.confirmed_dead & (1u64 << host.0) == 0
            }
        });
        let in_flight_has = |tid: u64| f.in_flight.iter().any(|e| e.tid == tid);
        let settled = |tid: u64| {
            f.accepted.binary_search(&tid).is_ok() || f.requeued.binary_search(&tid).is_ok()
        };
        self.pending.retain(|e| match *e {
            // Completions die with their host: the handlers return
            // before touching any state once `crashed` is set.
            Ev::Setup(h) | Ev::JoinDone(h) | Ev::AbsorbDone(h) => f.crashed & (1u64 << h) == 0,
            // An ack for a transfer no longer in the ledger is ignored.
            Ev::AckWire { tid, .. } => in_flight_has(tid),
            Ev::Wire {
                to, tid, intact, ..
            } => {
                if f.crashed & (1u64 << to) != 0 {
                    // At a corpse only an unsettled orphan copy can still
                    // act (the last-copy salvage path).
                    in_flight_has(tid) || !settled(tid)
                } else if !intact {
                    // A corrupt copy at a live host only bumps the
                    // mismatch counter; the sender's timeout repairs it.
                    false
                } else {
                    // A settled (accepted or tombstoned) duplicate at a
                    // live host is dropped, and without a ledger entry
                    // not even re-acked.
                    !settled(tid) || in_flight_has(tid)
                }
            }
        });
    }
}

/// `HostId` shorthand used by `feed`'s eager wire release.
fn host_from(from: usize) -> Input<Vec<u8>> {
    Input::SendDone { from: HostId(from) }
}

/// Do two timers occupy the same driver slot?
fn same_slot(a: &Timer, b: &Timer) -> bool {
    match (a, b) {
        (Timer::Retransmit { tid: x, .. }, Timer::Retransmit { tid: y, .. }) => x == y,
        (Timer::Probe { from: x, .. }, Timer::Probe { from: y, .. }) => x == y,
        (Timer::DrainDeadline { host: x, .. }, Timer::DrainDeadline { host: y, .. }) => x == y,
        _ => false,
    }
}

/// Every fate vector of length `sends` the remaining budgets allow. The
/// all-`Ok` vector is always first.
pub fn fate_vectors(sends: usize, losses: u32, corruptions: u32) -> Vec<Vec<Fate>> {
    let mut out = Vec::new();
    let mut cur = vec![Fate::Ok; sends];
    fill(&mut cur, 0, losses, corruptions, &mut out);
    out
}

fn fill(cur: &mut Vec<Fate>, i: usize, losses: u32, corruptions: u32, out: &mut Vec<Vec<Fate>>) {
    if i == cur.len() {
        out.push(cur.clone());
        return;
    }
    cur[i] = Fate::Ok;
    fill(cur, i + 1, losses, corruptions, out);
    if losses > 0 {
        cur[i] = Fate::Lost;
        fill(cur, i + 1, losses - 1, corruptions, out);
    }
    if corruptions > 0 {
        cur[i] = Fate::Corrupt;
        fill(cur, i + 1, losses, corruptions - 1, out);
    }
    cur[i] = Fate::Ok;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;

    #[test]
    fn fate_vectors_respect_budgets() {
        assert_eq!(fate_vectors(2, 0, 0), vec![vec![Fate::Ok, Fate::Ok]]);
        let vs = fate_vectors(2, 1, 1);
        assert_eq!(vs.first(), Some(&vec![Fate::Ok, Fate::Ok]));
        // ok/ok, 2×(one lost), 2×(one corrupt), lost+corrupt both orders.
        assert_eq!(vs.len(), 7);
        assert!(vs
            .iter()
            .all(|v| v.iter().filter(|f| **f == Fate::Lost).count() <= 1));
    }

    #[test]
    fn init_has_one_setup_event_per_host() {
        let w = World::init(&configs::smoke());
        assert_eq!(w.pending.len(), 2);
        assert!(w.timers.is_empty());
        assert_eq!(w.proto.fragments_total(), 1);
    }

    #[test]
    fn multi_init_parks_the_second_query_in_the_admission_queue() {
        use data_roundabout::protocol::QueryStatus;
        let w = World::init(&configs::multi_smoke());
        // Both queries' fragments count toward the completion target...
        assert_eq!(w.proto.fragments_total(), 2);
        // ...but only the first is admitted under max_active = 1; the
        // second waits in the ledger with its envelope parked.
        let ledger = w.proto.query_ledger().expect("multi-tenant ledger");
        assert_eq!(ledger.entry(0).map(|e| e.status), Some(QueryStatus::Active));
        assert_eq!(
            ledger.entry(1).map(|e| e.status),
            Some(QueryStatus::Pending)
        );
        assert_eq!(
            ledger.entry(1).map(|e| e.batches.iter().flatten().count()),
            Some(1)
        );
    }

    #[test]
    fn setup_chain_reaches_first_send() {
        let mut w = World::init(&configs::smoke());
        let o = w.apply(&Choice::Ev(Ev::Setup(0)), &[]);
        assert_eq!(o.teardown, None);
        let o = w.apply(&Choice::Ev(Ev::Setup(1)), &[]);
        assert_eq!(o.teardown, None);
        // Host 0 joined its local fragment eagerly; completing the join
        // emits the first reliable send with an armed retransmit timer.
        let o = w.apply(&Choice::Ev(Ev::JoinDone(0)), &[Fate::Ok]);
        assert_eq!(o.sends, 1);
        assert!(w.pending.iter().any(|e| matches!(
            e,
            Ev::Wire {
                to: 1,
                intact: true,
                ..
            }
        )));
        assert_eq!(w.timers.len(), 1);
    }
}
