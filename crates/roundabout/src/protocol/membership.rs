//! Planned ring membership: epoch-numbered views and the
//! rendezvous-hashed repartitioning behind `Input::{JoinRequest,
//! DrainRequest}`.
//!
//! The [`MembershipLedger`] is the membership counterpart of the fault
//! ledger's role table: it records which hosts are inside the ring
//! (standbys and departed hosts are outside), which are mid-drain, and
//! numbers every *completed* planned transition with a monotonically
//! increasing epoch. Crash healing never advances the epoch — an
//! unplanned death is a fault, not a membership change — which is what
//! makes the epoch and the `rescale_*` counters pure functions of the
//! rescale schedule and therefore byte-identical across the simulated,
//! threaded and TCP drivers.
//!
//! Role placement on a rescale uses rendezvous (highest-random-weight)
//! hashing: [`rendezvous_owner`] is a pure function of `(role,
//! candidate set)`, so every backend computes the same handoffs without
//! any coordination, and activating or draining one host moves only the
//! roles that rendezvous hashing assigns to (or away from) it.

use simnet::topology::HostId;

/// The membership side of the reliable-mode ledger. All methods are pure
/// state transitions; the ring coordinator decides *when* they fire.
#[derive(Debug, Clone)]
pub struct MembershipLedger {
    /// Inside the ring and routed to (standbys start `false`; departed
    /// hosts return to `false`).
    active: Vec<bool>,
    /// Drain requested but not yet departed (still relaying).
    draining: Vec<bool>,
    /// Completed a graceful departure (may not re-join).
    departed: Vec<bool>,
    epoch: u64,
    joins: u64,
    drains: u64,
    handoffs: u64,
    escalations: u64,
}

impl MembershipLedger {
    /// A ledger for `hosts` ring slots of which the bits of `standby`
    /// start outside the ring.
    pub fn new(hosts: usize, standby: u64) -> Self {
        MembershipLedger {
            active: (0..hosts).map(|h| standby & (1u64 << h) == 0).collect(),
            draining: vec![false; hosts],
            departed: vec![false; hosts],
            epoch: 0,
            joins: 0,
            drains: 0,
            handoffs: 0,
            escalations: 0,
        }
    }

    /// Is `host` inside the ring (routed to by its neighbors)? Draining
    /// hosts remain inside until they depart.
    pub fn in_ring(&self, host: HostId) -> bool {
        self.active.get(host.0).copied().unwrap_or(false)
    }

    /// Is `host` a standby that may still be activated?
    pub fn is_standby(&self, host: HostId) -> bool {
        !self.in_ring(host) && !self.departed.get(host.0).copied().unwrap_or(true)
    }

    /// Is `host` mid-drain?
    pub fn is_draining(&self, host: HostId) -> bool {
        self.draining.get(host.0).copied().unwrap_or(false)
    }

    /// Activates a standby: it enters the ring and the epoch advances.
    /// Returns the new epoch.
    // analyze: allow(panic, reason = "host ids index per-ring tables sized at construction")
    pub fn activate(&mut self, host: HostId) -> u64 {
        self.active[host.0] = true;
        self.joins += 1;
        self.epoch += 1;
        self.epoch
    }

    /// Marks `host` as draining (it stays in the ring as a relay).
    // analyze: allow(panic, reason = "host ids index per-ring tables sized at construction")
    pub fn begin_drain(&mut self, host: HostId) {
        self.draining[host.0] = true;
    }

    /// Completes a drain: the host leaves the ring and the epoch
    /// advances. Returns the new epoch.
    // analyze: allow(panic, reason = "host ids index per-ring tables sized at construction")
    pub fn depart(&mut self, host: HostId) -> u64 {
        self.active[host.0] = false;
        self.draining[host.0] = false;
        self.departed[host.0] = true;
        self.drains += 1;
        self.epoch += 1;
        self.epoch
    }

    /// Cancels a drain without an epoch bump — the drainee crashed (or
    /// its deadline escalated) and the crash-healing path owns it now.
    // analyze: allow(panic, reason = "host ids index per-ring tables sized at construction")
    pub fn abort_drain(&mut self, host: HostId) {
        self.draining[host.0] = false;
    }

    /// Counts one drain→heal escalation.
    pub fn count_escalation(&mut self) {
        self.escalations += 1;
    }

    /// Counts `n` role handoffs.
    pub fn count_handoffs(&mut self, n: u64) {
        self.handoffs += n;
    }

    /// The current membership epoch (completed planned transitions).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Completed planned host joins.
    pub fn joins(&self) -> u64 {
        self.joins
    }

    /// Completed graceful drains.
    pub fn drains(&self) -> u64 {
        self.drains
    }

    /// Stationary partitions moved by planned handoffs.
    pub fn roles_handed_off(&self) -> u64 {
        self.handoffs
    }

    /// Drains that stalled past their deadline and degraded into crash
    /// healing.
    pub fn escalations(&self) -> u64 {
        self.escalations
    }

    /// The in-ring set as a bitmask (bit `h` = host `h` active).
    pub fn active_mask(&self) -> u64 {
        mask_of(&self.active)
    }

    /// The mid-drain set as a bitmask.
    pub fn draining_mask(&self) -> u64 {
        mask_of(&self.draining)
    }

    /// The gracefully-departed set as a bitmask.
    pub fn departed_mask(&self) -> u64 {
        mask_of(&self.departed)
    }
}

/// Packs a per-host boolean table into a bitmask (bit `h` = entry `h`).
fn mask_of(bits: &[bool]) -> u64 {
    bits.iter()
        .enumerate()
        .fold(0u64, |m, (h, &b)| if b { m | (1u64 << h) } else { m })
}

/// Rendezvous (highest-random-weight) owner of `role` among
/// `candidates`: the candidate maximizing a seeded hash of `(role,
/// host)`. Pure, so every backend places roles identically without
/// coordination; `None` only when `candidates` is empty.
pub fn rendezvous_owner(role: usize, candidates: &[HostId]) -> Option<HostId> {
    candidates
        .iter()
        .copied()
        .max_by_key(|h| (rendezvous_weight(role, *h), usize::MAX - h.0))
}

/// The splitmix64 finalizer over the packed `(role, host)` pair — the
/// same mixing the fault plans use for their dice, reused here so the
/// placement is seedless but well spread.
fn rendezvous_weight(role: usize, host: HostId) -> u64 {
    let mut x = (role as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((host.0 as u64) << 32)
        .wrapping_add(host.0 as u64);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_advances_only_on_completed_transitions() {
        let mut m = MembershipLedger::new(4, 0b1000);
        assert!(m.is_standby(HostId(3)));
        assert!(!m.in_ring(HostId(3)));
        assert_eq!(m.epoch(), 0);
        assert_eq!(m.activate(HostId(3)), 1);
        assert!(m.in_ring(HostId(3)));
        m.begin_drain(HostId(1));
        assert!(m.is_draining(HostId(1)));
        assert_eq!(m.epoch(), 1, "a begun drain has not completed");
        assert_eq!(m.depart(HostId(1)), 2);
        assert!(!m.in_ring(HostId(1)));
        assert!(!m.is_standby(HostId(1)), "departed hosts may not re-join");
        assert_eq!(m.joins(), 1);
        assert_eq!(m.drains(), 1);
    }

    #[test]
    fn aborted_drains_leave_the_epoch_alone() {
        let mut m = MembershipLedger::new(3, 0);
        m.begin_drain(HostId(2));
        m.abort_drain(HostId(2));
        m.count_escalation();
        assert!(!m.is_draining(HostId(2)));
        assert_eq!(m.epoch(), 0);
        assert_eq!(m.drains(), 0);
        assert_eq!(m.escalations(), 1);
    }

    #[test]
    fn rendezvous_owner_is_stable_and_minimal() {
        let all: Vec<HostId> = (0..5).map(HostId).collect();
        let owners: Vec<HostId> = (0..16)
            .map(|r| rendezvous_owner(r, &all).expect("non-empty"))
            .collect();
        // Removing one candidate only moves the roles it owned.
        let without3: Vec<HostId> = all.iter().copied().filter(|h| h.0 != 3).collect();
        for (r, owner) in owners.iter().enumerate() {
            let re = rendezvous_owner(r, &without3).expect("non-empty");
            if owner.0 != 3 {
                assert_eq!(re, *owner, "role {r} moved although its owner stayed");
            } else {
                assert_ne!(re.0, 3);
            }
        }
        assert_eq!(rendezvous_owner(0, &[]), None);
    }

    #[test]
    fn rendezvous_spreads_roles() {
        let all: Vec<HostId> = (0..8).map(HostId).collect();
        let mut seen = std::collections::HashSet::new();
        for r in 0..64 {
            seen.insert(rendezvous_owner(r, &all).expect("non-empty"));
        }
        assert!(seen.len() >= 6, "64 roles should reach most of 8 hosts");
    }
}
