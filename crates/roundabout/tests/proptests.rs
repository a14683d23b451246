//! Property-based tests of the Data Roundabout transport protocol.

use std::collections::HashMap;

use data_roundabout::protocol::{
    envelope_batches, query_batches, Input, Output, ProtocolConfig, RingProtocol, Timer,
};
use data_roundabout::{FixedCostApp, RingConfig, RingDriver, SimRing};
use proptest::prelude::*;
use simnet::time::SimDuration;
use simnet::topology::HostId;

fn payloads(counts: &[usize], bytes: usize) -> Vec<Vec<Vec<u8>>> {
    counts
        .iter()
        .map(|&n| (0..n).map(|_| vec![0u8; bytes]).collect())
        .collect()
}

/// Drives the sans-IO protocol core directly — no channels, threads or
/// simulator — applying the pending inputs in an order chosen by a seeded
/// xorshift, so every proptest case exercises a different (but legal)
/// interleaving of deliveries, completions and acks.
fn drive_protocol(counts: &[usize], buffers: usize, reliable: bool, seed: u64) {
    let hosts = counts.len();
    let total: usize = counts.iter().sum();
    let proto_cfg = ProtocolConfig {
        hosts,
        buffers_per_host: buffers,
        max_retransmits: 8,
        continuous: false,
        reliable,
        standby: 0,
    };
    let mut proto = RingProtocol::new(proto_cfg, envelope_batches(payloads(counts, 16), hosts));
    let mut pending: Vec<Input<Vec<u8>>> = (0..hosts)
        .map(|h| Input::SetupDone { host: HostId(h) })
        .collect();
    let mut joins: HashMap<(usize, usize), usize> = HashMap::new();
    let mut wire_deliveries: HashMap<(usize, usize), usize> = HashMap::new();
    let mut rng = seed | 1;
    let mut steps = 0usize;
    while !pending.is_empty() {
        steps += 1;
        prop_assert!(steps < 200_000, "interleaving did not quiesce");
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let idx = (rng as usize) % pending.len();
        let input = pending.swap_remove(idx);
        for output in proto.input(input) {
            match output {
                Output::StartJoin { host, id, .. } => {
                    *joins.entry((host.0, id.0)).or_default() += 1;
                    pending.push(Input::JoinDone {
                        host,
                        app_finished: false,
                    });
                }
                Output::Send {
                    from, to, tid, env, ..
                } => {
                    // A quiet medium: every attempt arrives intact, in
                    // whatever order the interleaving picks. Retransmit
                    // timers are armed but never fire.
                    pending.push(Input::SendDone { from });
                    pending.push(Input::Delivered { to, env, tid });
                }
                Output::Ack { tid, .. } => pending.push(Input::Ack { tid }),
                Output::Delivered { host, id, .. } => {
                    *wire_deliveries.entry((host.0, id.0)).or_default() += 1;
                }
                Output::Teardown { reason } => panic!("teardown: {reason}"),
                _ => {}
            }
        }
        for h in 0..hosts {
            let hp = proto.host(HostId(h));
            // The credit invariant: pool occupancy stays within the
            // configured buffer budget (it can never go negative — the
            // counter is unsigned and reserve/release are balanced).
            prop_assert!(
                hp.pool_used() <= hp.buffers(),
                "host {h} oversubscribed: {} of {} buffers",
                hp.pool_used(),
                hp.buffers()
            );
        }
    }
    prop_assert_eq!(proto.fragments_completed(), total, "every fragment retires");
    for h in 0..hosts {
        let hp = proto.host(HostId(h));
        prop_assert_eq!(
            hp.pool_used(),
            0,
            "host {} leaked buffer slots across the revolution",
            h
        );
        prop_assert_eq!(hp.fragments_processed(), total, "host {} join count", h);
        prop_assert_eq!(proto.retransmits(HostId(h)), 0, "quiet medium");
        prop_assert_eq!(proto.checksum_mismatches(HostId(h)), 0, "quiet medium");
    }
    // Exactly-once processing: every host joined every fragment once.
    for (&(h, id), &n) in &joins {
        prop_assert_eq!(n, 1, "host {} joined {} {} times", h, id, n);
    }
    prop_assert_eq!(
        joins.len(),
        hosts * total,
        "every (host, fragment) pair joined"
    );
    // Exactly-once wire delivery: each fragment crosses each of its
    // hosts-1 downstream hops exactly once.
    for (&(h, id), &n) in &wire_deliveries {
        prop_assert_eq!(n, 1, "host {} received {} {} times", h, id, n);
    }
    if hosts > 1 {
        prop_assert_eq!(wire_deliveries.len(), (hosts - 1) * total);
    }
    prop_assert_eq!(proto.heal_events(), 0);
}

/// Drives the reliable protocol core through a planned rescale — every
/// provisioned standby joins, one member drains, and optionally one host
/// crashes — with the driver's obligations applied in a random legal
/// order, including armed timers. Timer fidelity: a retransmit tick may
/// only fire once the transfer it watches has actually settled on the
/// (instant, lossless) wire — i.e. its delivery and ack are no longer
/// pending — exactly the contract every real driver provides. Drain
/// deadlines and probes carry no such dependency and fire whenever the
/// interleaving picks them, so a perfectly healthy drain can stall-escalate
/// into crash healing mid-test; the invariants must hold regardless.
fn drive_rescale(counts: &[usize], standbys: usize, buffers: usize, crash: bool, seed: u64) {
    let members = counts.len();
    let hosts = members + standbys;
    let mut standby_mask = 0u64;
    for h in members..hosts {
        standby_mask |= 1 << h;
    }
    let mut rng = seed | 1;
    let mut next_rng = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let drain_target = (next_rng() as usize) % members;
    let crash_target = (next_rng() as usize) % members;

    let mut all_counts = counts.to_vec();
    if crash {
        // The failure detector is traffic-driven (retransmit and probe
        // exhaustion), exactly as in the real backends — a corpse no
        // fragment ever needs to reach is undetectable by construction.
        // The crash target therefore originates nothing; its callers
        // pass counts ≥ 1, so every other member originates traffic
        // that must hop through the corpse.
        all_counts[crash_target] = 0;
    }
    all_counts.resize(hosts, 0);
    let total: usize = all_counts.iter().sum();
    let proto_cfg = ProtocolConfig {
        hosts,
        buffers_per_host: buffers,
        max_retransmits: 4,
        continuous: false,
        reliable: true,
        standby: standby_mask,
    };
    let mut proto = RingProtocol::new(
        proto_cfg,
        envelope_batches(payloads(&all_counts, 16), hosts),
    );

    let mut pending: Vec<Input<Vec<u8>>> = (0..hosts)
        .map(|h| Input::SetupDone { host: HostId(h) })
        .collect();
    for h in members..hosts {
        pending.push(Input::JoinRequest { host: HostId(h) });
    }
    pending.push(Input::DrainRequest {
        host: HostId(drain_target),
    });
    if crash {
        pending.push(Input::PeerDead {
            host: HostId(crash_target),
        });
    }

    // Exactly-once handoff ledger: every stationary role has one owner at
    // all times, and each Absorb moves it from exactly the host that held
    // it — a duplicate or replayed handoff trips the ledger.
    let mut owner: HashMap<usize, usize> = (0..members).map(|r| (r, r)).collect();
    // Exactly-once retirement: a fragment forked by a buggy healing path
    // retires twice; a lost one never retires.
    let mut retired: Vec<usize> = Vec::new();

    // A retransmit tick is stalled-transfer evidence; it may not outrun
    // the wire it is watching.
    fn tick_eligible(input: &Input<Vec<u8>>, pending: &[Input<Vec<u8>>]) -> bool {
        let Input::Tick {
            timer: Timer::Retransmit { tid, .. },
        } = input
        else {
            return true;
        };
        !pending.iter().any(|p| {
            matches!(p, Input::Delivered { tid: t, .. } if t == tid)
                || matches!(p, Input::Ack { tid: t } if t == tid)
        })
    }

    let mut steps = 0usize;
    while !pending.is_empty() {
        steps += 1;
        assert!(steps < 200_000, "rescale interleaving did not quiesce");
        let eligible: Vec<usize> = (0..pending.len())
            .filter(|&i| tick_eligible(&pending[i], &pending))
            .collect();
        assert!(!eligible.is_empty(), "only ineligible ticks left pending");
        let idx = eligible[(next_rng() as usize) % eligible.len()];
        let input = pending.swap_remove(idx);
        let mut fates: Vec<u64> = Vec::new();
        for output in proto.input(input) {
            match output {
                Output::StartJoin { host, .. } => pending.push(Input::JoinDone {
                    host,
                    app_finished: false,
                }),
                Output::Send {
                    from, to, tid, env, ..
                } => {
                    // A quiet, lossless wire: report the attempt's fate
                    // (intact) exactly as every real driver does after
                    // rolling its fault dice.
                    fates.push(tid);
                    pending.push(Input::SendDone { from });
                    pending.push(Input::Delivered { to, env, tid });
                }
                Output::Ack { tid, .. } => pending.push(Input::Ack { tid }),
                Output::ArmTimer { timer, .. } => pending.push(Input::Tick { timer }),
                Output::Absorb {
                    from, to, roles, ..
                } => {
                    for &r in &roles {
                        assert_eq!(
                            owner.insert(r, to.0),
                            Some(from.0),
                            "role {r} moved from host {} without it owning it",
                            from.0
                        );
                    }
                    pending.push(Input::AbsorbDone { host: to });
                }
                Output::Departed { host, .. } => {
                    assert!(
                        owner.values().all(|&o| o != host.0),
                        "host {} departed while still owning a role",
                        host.0
                    );
                }
                Output::Teardown { reason } => panic!("teardown: {reason}"),
                Output::Retire { id, .. } => {
                    assert!(
                        !retired.contains(&id.0),
                        "fragment {} retired twice — healing forked it",
                        id.0
                    );
                    retired.push(id.0);
                }
                _ => {}
            }
        }
        for tid in fates {
            proto.attempt_fate(tid, false, false);
        }
        for h in 0..hosts {
            let hp = proto.host(HostId(h));
            assert!(
                hp.pool_used() <= hp.buffers(),
                "host {h} oversubscribed: {} of {} buffers",
                hp.pool_used(),
                hp.buffers()
            );
        }
    }

    // A crashed host is only ever *confirmed* dead by traffic: an
    // exhausted retransmission budget or probe at some live peer. A
    // corpse that accepted the last circulating fragments and owes
    // nobody an ack generates neither — no traffic-driven failure
    // detector can see it (real deployments layer heartbeats on top,
    // out of the core's scope). That stall is legal, but only with
    // exact accounting: every missing fragment rests in the corpse's
    // pool and nothing else leaked.
    let corpse = HostId(crash_target);
    let corpse_unconfirmed = crash && proto.is_member(corpse) && proto.is_crashed(corpse);
    if corpse_unconfirmed && proto.fragments_completed() < total {
        assert_eq!(
            proto.fragments_completed() + proto.host(corpse).pool_used(),
            total,
            "stall is not the undetectable-corpse case: fragments lost outside host {crash_target}"
        );
    } else {
        assert_eq!(
            proto.fragments_completed(),
            total,
            "every fragment survives the rescale (drain={drain_target} crash={crash_target})"
        );
    }
    assert_eq!(
        proto.membership_epoch(),
        proto.rescale_joins() + proto.rescale_drains(),
        "the epoch counts completed transitions exactly"
    );
    // Every stationary role ends at a live ring member. The one excuse
    // is an unconfirmed corpse (crash observed by the driver but never
    // by the ring — e.g. the crash landed after quiescence): until the
    // failure detector confirms the death, the corpse keeps its roles.
    for (&role, &holder) in &owner {
        if corpse_unconfirmed && holder == crash_target {
            continue;
        }
        let host = HostId(holder);
        assert!(
            proto.is_member(host) && !proto.is_crashed(host),
            "role {role} stranded on host {holder}"
        );
    }
    for h in 0..hosts {
        let host = HostId(h);
        if !proto.is_crashed(host) {
            assert_eq!(
                proto.host(host).pool_used(),
                0,
                "host {h} leaked buffer slots across the rescale"
            );
        }
    }
}

/// Drives a multi-tenant ring — 2–4 concurrent queries multiplexed over
/// one reliable protocol core — through a random legal interleaving.
/// Checked invariants, after every single input:
///
/// * the global credit invariant (pool occupancy within budget);
/// * the **per-query credit partition**: no query ever holds more than
///   its quota of any host's pool;
/// * the admission bound: at most `max_active` queries active at once;
/// * the fairness bound: a starved query's transmit deficit never
///   exceeds `queries × pool depth` (DRR with quantum 1).
///
/// And at quiescence: exactly-once join and wire delivery per
/// `(query, fragment)` pair, every query completes, nothing leaks.
fn drive_multiplex(hosts: usize, n_queries: usize, buffers: usize, max_active: usize, seed: u64) {
    let mut rng = seed | 1;
    let mut next_rng = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    // Random per-(query, host) fragment counts; every query originates
    // at least one fragment so it has a completion to report.
    let per_query: Vec<Vec<usize>> = (0..n_queries)
        .map(|_| {
            let mut counts: Vec<usize> = (0..hosts).map(|_| (next_rng() as usize) % 3).collect();
            let anchor = (next_rng() as usize) % hosts;
            counts[anchor] = counts[anchor].max(1);
            counts
        })
        .collect();
    let total: usize = per_query.iter().flat_map(|c| c.iter()).sum();

    let batches = query_batches(
        per_query
            .iter()
            .enumerate()
            .map(|(q, counts)| (q as u32, payloads(counts, 16)))
            .collect(),
        hosts,
    );
    // Global fragment numbering lets the invariants attribute every
    // ledger event back to its (query, fragment) pair.
    let mut id_query: HashMap<usize, u32> = HashMap::new();
    for (_, per_host) in &batches {
        for envs in per_host {
            for env in envs {
                id_query.insert(env.id.0, env.query);
            }
        }
    }

    let proto_cfg = ProtocolConfig {
        hosts,
        buffers_per_host: buffers,
        max_retransmits: 8,
        continuous: false,
        reliable: true,
        standby: 0,
    };
    let mut proto = RingProtocol::new_multi(proto_cfg, batches, max_active);
    let deficit_bound = (n_queries * buffers) as u64;

    let mut pending: Vec<Input<Vec<u8>>> = (0..hosts)
        .map(|h| Input::SetupDone { host: HostId(h) })
        .collect();
    let mut joins: HashMap<(usize, u32, usize), usize> = HashMap::new();
    let mut deliveries: HashMap<(usize, u32, usize), usize> = HashMap::new();
    let mut active: Vec<u32> = Vec::new();
    let mut admitted: Vec<u32> = Vec::new();
    let mut done: Vec<u32> = Vec::new();
    let mut steps = 0usize;
    while !pending.is_empty() {
        steps += 1;
        assert!(steps < 200_000, "multiplexed interleaving did not quiesce");
        let idx = (next_rng() as usize) % pending.len();
        let input = pending.swap_remove(idx);
        let mut fates: Vec<u64> = Vec::new();
        for output in proto.input(input) {
            match output {
                Output::StartJoin { host, id, .. } => {
                    let q = id_query[&id.0];
                    assert_eq!(
                        proto.processing_query(host),
                        q,
                        "processing slot misattributes fragment {} to another query",
                        id.0
                    );
                    *joins.entry((host.0, q, id.0)).or_default() += 1;
                    pending.push(Input::JoinDone {
                        host,
                        app_finished: false,
                    });
                }
                Output::Send {
                    from, to, tid, env, ..
                } => {
                    fates.push(tid);
                    pending.push(Input::SendDone { from });
                    pending.push(Input::Delivered { to, env, tid });
                }
                Output::Ack { tid, .. } => pending.push(Input::Ack { tid }),
                Output::Delivered { host, id, .. } => {
                    *deliveries
                        .entry((host.0, id_query[&id.0], id.0))
                        .or_default() += 1;
                }
                Output::QueryAdmitted { query, .. } => {
                    assert!(!admitted.contains(&query), "query {query} admitted twice");
                    admitted.push(query);
                    active.push(query);
                    assert!(
                        active.len() <= max_active,
                        "admission bound violated: {} active, bound {max_active}",
                        active.len()
                    );
                }
                Output::QueryDone { query, .. } => {
                    assert!(!done.contains(&query), "query {query} completed twice");
                    done.push(query);
                    active.retain(|&q| q != query);
                }
                Output::Teardown { reason } => panic!("teardown: {reason}"),
                _ => {}
            }
        }
        for tid in fates {
            proto.attempt_fate(tid, false, false);
        }
        let ledger = proto
            .query_ledger()
            .expect("multi-tenant ring has a ledger");
        let quota = ledger.quota();
        assert!(
            ledger.max_deficit() <= deficit_bound,
            "fairness bound violated: deficit {} exceeds {deficit_bound}",
            ledger.max_deficit()
        );
        for h in 0..hosts {
            let hp = proto.host(HostId(h));
            assert!(
                hp.pool_used() <= hp.buffers(),
                "host {h} oversubscribed: {} of {} buffers",
                hp.pool_used(),
                hp.buffers()
            );
            for (q, &used) in hp.used_by_query().iter().enumerate() {
                assert!(
                    used <= quota,
                    "query {q} holds {used} of host {h}'s pool, quota {quota}"
                );
            }
        }
    }

    assert_eq!(proto.fragments_completed(), total, "every fragment retires");
    assert_eq!(admitted.len(), n_queries, "every query was admitted");
    assert_eq!(done.len(), n_queries, "every query completed");
    let ledger = proto.query_ledger().unwrap();
    assert_eq!(ledger.admitted_total(), n_queries as u64);
    assert_eq!(ledger.completed_total(), n_queries as u64);
    assert!(ledger.all_done());
    for (q, m) in proto.query_metrics().iter().enumerate() {
        assert!(m.completed, "query {q} did not complete");
        assert_eq!(m.retransmits, 0, "quiet medium");
    }
    for h in 0..hosts {
        let hp = proto.host(HostId(h));
        assert_eq!(hp.pool_used(), 0, "host {h} leaked buffer slots");
        assert!(
            hp.used_by_query().iter().all(|&u| u == 0),
            "host {h} leaked a per-query credit"
        );
    }
    // Exactly-once join per (host, query, fragment): every host applied
    // every query's every fragment once, and nothing was forked.
    for (&(h, q, id), &n) in &joins {
        assert_eq!(n, 1, "host {h} joined query {q} fragment {id} {n} times");
    }
    assert_eq!(
        joins.len(),
        hosts * total,
        "every (host, query, fragment) joined"
    );
    // Exactly-once wire delivery per (query, fragment) and hop.
    for (&(h, q, id), &n) in &deliveries {
        assert_eq!(n, 1, "host {h} received query {q} fragment {id} {n} times");
    }
    assert_eq!(deliveries.len(), (hosts - 1) * total);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation: every fragment completes its revolution and every
    /// host processes every fragment exactly once — for any ring size,
    /// buffer depth, fragment distribution and payload size.
    #[test]
    fn sim_ring_conserves_fragments(
        counts in prop::collection::vec(0usize..6, 1..8),
        buffers in 1usize..5,
        kilobytes in 1usize..64,
        join_ms in 0u64..8,
    ) {
        let hosts = counts.len();
        let total: usize = counts.iter().sum();
        let app = FixedCostApp::new(
            hosts,
            SimDuration::from_millis(1),
            SimDuration::from_millis(join_ms),
        );
        let config = RingConfig::paper(hosts).with_buffers(buffers);
        let out = SimRing::new(config, payloads(&counts, kilobytes << 10), app).run();
        prop_assert_eq!(out.metrics.fragments_completed, total);
        for h in &out.metrics.hosts {
            prop_assert_eq!(h.fragments_processed, total);
        }
        prop_assert_eq!(
            out.app.processed.iter().sum::<usize>(),
            total * hosts
        );
    }

    /// Byte accounting: every multi-host fragment crosses exactly
    /// `hosts − 1` links, so total forwarded bytes are exact.
    #[test]
    fn sim_ring_accounts_bytes(
        counts in prop::collection::vec(0usize..5, 2..6),
        bytes in 1usize..100_000,
    ) {
        let hosts = counts.len();
        let total: usize = counts.iter().sum();
        let app = FixedCostApp::new(hosts, SimDuration::ZERO, SimDuration::from_micros(10));
        let out = SimRing::new(RingConfig::paper(hosts), payloads(&counts, bytes), app).run();
        prop_assert_eq!(
            out.metrics.total_bytes_forwarded(),
            (total * bytes * (hosts - 1)) as u64
        );
    }

    /// Virtual phase accounting is consistent on every host.
    #[test]
    fn sim_ring_phase_accounting(
        counts in prop::collection::vec(0usize..5, 1..7),
        buffers in 1usize..4,
    ) {
        let hosts = counts.len();
        let app = FixedCostApp::new(
            hosts,
            SimDuration::from_millis(2),
            SimDuration::from_millis(3),
        );
        let config = RingConfig::paper(hosts).with_buffers(buffers);
        let out = SimRing::new(config, payloads(&counts, 4096), app).run();
        for h in &out.metrics.hosts {
            prop_assert_eq!(h.join_busy + h.sync, h.join_window);
            prop_assert_eq!(h.setup, SimDuration::from_millis(2));
        }
    }

    /// The real-thread backend conserves fragments under any interleaving.
    #[test]
    fn thread_ring_conserves_fragments(
        counts in prop::collection::vec(0usize..5, 1..6),
        buffers in 1usize..4,
    ) {
        let hosts = counts.len();
        let total: usize = counts.iter().sum();
        let config = RingConfig::paper(hosts).with_buffers(buffers);
        let (metrics, _) = RingDriver::new(&config)
            .run(payloads(&counts, 64), |_, _| {})
            .unwrap();
        prop_assert_eq!(metrics.fragments_completed, total);
        for h in &metrics.hosts {
            prop_assert_eq!(h.fragments_processed, total);
        }
    }

    /// The protocol core alone, classic path: any legal interleaving of
    /// inputs preserves the credit invariant, conserves buffer slots
    /// across the revolution, and joins/delivers exactly once per host.
    #[test]
    fn protocol_core_classic_survives_any_interleaving(
        counts in prop::collection::vec(0usize..5, 1..6),
        buffers in 1usize..4,
        seed in any::<u64>(),
    ) {
        drive_protocol(&counts, buffers, false, seed);
    }

    /// Same invariants on the reliable (acked stop-and-wait) path, with
    /// acks and completions racing deliveries in random order.
    #[test]
    fn protocol_core_reliable_survives_any_interleaving(
        counts in prop::collection::vec(0usize..5, 1..6),
        buffers in 1usize..4,
        seed in any::<u64>(),
    ) {
        drive_protocol(&counts, buffers, true, seed);
    }

    /// Planned membership chaos: standbys join and a member drains at
    /// arbitrary points of the revolution (including drain deadlines that
    /// fire early and escalate). The credit invariant, exactly-once
    /// S-partition handoff and fragment conservation hold under every
    /// interleaving.
    #[test]
    fn protocol_core_rescale_survives_any_interleaving(
        counts in prop::collection::vec(0usize..4, 3..6),
        standbys in 1usize..3,
        buffers in 1usize..4,
        seed in any::<u64>(),
    ) {
        drive_rescale(&counts, standbys, buffers, false, seed);
    }

    /// The same invariants with an unplanned crash racing the planned
    /// rescale — including crash-of-the-drainee and crash-of-a-donor
    /// interleavings resolved by the healing path. Every surviving
    /// member originates at least one fragment so the corpse always
    /// sits in the path of detectable traffic (the driver zeroes the
    /// crash target's own allotment).
    #[test]
    fn protocol_core_rescale_survives_crashes(
        counts in prop::collection::vec(1usize..4, 3..6),
        standbys in 0usize..3,
        buffers in 1usize..4,
        seed in any::<u64>(),
    ) {
        drive_rescale(&counts, standbys, buffers, true, seed);
    }

    /// Multi-tenant multiplexing: 2–4 concurrent queries on one reliable
    /// ring, driven through random interleavings — the per-query credit
    /// partition, the admission bound, the DRR fairness bound and
    /// exactly-once join/delivery per (query, fragment) all hold.
    #[test]
    fn protocol_core_multiplex_survives_any_interleaving(
        hosts in 2usize..5,
        n_queries in 2usize..5,
        buffers in 2usize..4,
        max_active in 2usize..5,
        seed in any::<u64>(),
    ) {
        drive_multiplex(hosts, n_queries, buffers, max_active, seed);
    }

    /// The same invariants under maximal admission pressure: a bound of
    /// one serializes the queries through the admission queue, so every
    /// pending tenant is starved until its predecessors finish — the
    /// deficit and credit bounds must still hold.
    #[test]
    fn protocol_core_multiplex_single_slot_admission(
        hosts in 2usize..5,
        n_queries in 2usize..5,
        buffers in 1usize..4,
        seed in any::<u64>(),
    ) {
        drive_multiplex(hosts, n_queries, buffers, 1, seed);
    }

    /// Determinism: identical simulated runs produce identical metrics.
    #[test]
    fn sim_ring_is_deterministic(
        counts in prop::collection::vec(0usize..4, 1..6),
        join_us in 0u64..5_000,
    ) {
        let hosts = counts.len();
        let run = || {
            let app = FixedCostApp::new(
                hosts,
                SimDuration::from_micros(100),
                SimDuration::from_micros(join_us),
            );
            SimRing::new(RingConfig::paper(hosts), payloads(&counts, 1024), app)
                .run()
                .metrics
        };
        prop_assert_eq!(run(), run());
    }

    /// TCP frame codec round trip: any sequence of frames, encoded and
    /// streamed through the incremental decoder under *arbitrary*
    /// read-split boundaries (modeling partial reads and short writes),
    /// reassembles to exactly the same frames in the same order.
    #[test]
    fn tcp_frames_roundtrip_under_arbitrary_splits(
        frames in prop::collection::vec(arb_frame(), 1..8),
        seed in any::<u64>(),
        max_chunk in 1usize..96,
    ) {
        let mut wire = Vec::new();
        for frame in &frames {
            wire.extend_from_slice(&encode_frame(frame));
        }
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        let mut rng = seed | 1;
        let mut at = 0usize;
        while at < wire.len() {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let n = 1 + (rng as usize) % max_chunk;
            let end = (at + n).min(wire.len());
            decoder.feed(&wire[at..end]);
            at = end;
            while let Some(frame) = decoder.next_frame::<Vec<u8>>().expect("well-formed bytes") {
                decoded.push(frame);
            }
        }
        prop_assert_eq!(decoded, frames);
    }

    /// Malformed bytes never panic the decoder: arbitrary byte soup either
    /// decodes, waits for more input, or yields a typed [`FrameError`]
    /// that converts into a typed [`RingError`]. (Case in point: a length
    /// prefix beyond the frame cap is `Oversized`, an unknown kind byte is
    /// `BadKind` — never an index panic.)
    #[test]
    fn malformed_tcp_bytes_yield_typed_errors_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bytes);
        loop {
            match decoder.next_frame::<Vec<u8>>() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => {
                    // The error is typed and reportable as a ring error.
                    let ring: RingError = e.into();
                    prop_assert!(matches!(ring, RingError::Frame(_)));
                    break;
                }
            }
        }
    }

    /// Every length prefix beyond the cap is rejected as `Oversized`
    /// before the decoder waits for (or touches) a single body byte.
    #[test]
    fn oversized_length_prefixes_are_typed_errors(
        kind in 1u8..4,
        len in (MAX_FRAME as u64 + 1..=u32::MAX as u64).prop_map(|l| l as u32),
    ) {
        let mut decoder = FrameDecoder::new();
        let mut bytes = vec![kind];
        bytes.extend_from_slice(&len.to_le_bytes());
        decoder.feed(&bytes);
        let err = decoder.next_frame::<Vec<u8>>().expect_err("beyond the cap");
        prop_assert_eq!(err, FrameError::Oversized { len, max: MAX_FRAME });
    }
}

// --- TCP frame codec strategies -------------------------------------------

use data_roundabout::envelope::{Envelope, FragmentId};
use data_roundabout::frame::{
    encode_ack, encode_envelope, encode_hello, Frame, FrameDecoder, MAX_FRAME,
};
use data_roundabout::{FrameError, RingError};

fn encode_frame(frame: &Frame<Vec<u8>>) -> Vec<u8> {
    match frame {
        Frame::Hello { nonce, host } => encode_hello(*nonce, *host),
        Frame::Ack { tid } => encode_ack(*tid),
        Frame::Envelope { tid, env } => {
            encode_envelope(*tid, env).expect("test envelopes fit the frame cap")
        }
    }
}

fn arb_frame() -> impl Strategy<Value = Frame<Vec<u8>>> {
    // The vendored proptest shim has no `prop_oneof!`; an integer
    // discriminant mapped through a match covers the three frame kinds.
    (
        0u8..3,
        any::<u64>(),
        any::<u32>(),
        (0usize..1024, 0usize..8, any::<u64>(), any::<bool>()),
        prop::collection::vec(any::<u8>(), 0..256),
    )
        .prop_map(
            |(which, word, host, (id, origin, seq, corrupt), payload)| match which {
                0 => Frame::Hello { nonce: word, host },
                1 => Frame::Ack { tid: word },
                _ => {
                    let mut env = Envelope::new(FragmentId(id), HostId(origin), 8, payload);
                    env.seq = seq;
                    if corrupt {
                        // In-flight corruption crosses the codec verbatim.
                        env.checksum = !env.checksum;
                    }
                    Frame::Envelope { tid: word, env }
                }
            },
        )
}
