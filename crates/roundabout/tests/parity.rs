//! Cross-backend fault parity: the simulated, real-thread, loopback-TCP
//! and reactor drivers sit on the same sans-IO protocol core and key the
//! fault dice identically — per-sender wire sequence, attempt number — so
//! an identical seeded [`FaultPlan`] must produce *identical* fault
//! counters on all four, even though one runs in virtual time, one on
//! live OS threads, and two over real kernel sockets (one blocking, one
//! on a single readiness event loop).

use data_roundabout::{
    FaultPlan, FixedCostApp, HostId, ReactorRingDriver, RescalePlan, RingConfig, RingDriver,
    SimRing, TcpRingDriver,
};
use simnet::time::{SimDuration, SimTime};

fn payloads(hosts: usize, per_host: usize, bytes: usize) -> Vec<Vec<Vec<u8>>> {
    (0..hosts)
        .map(|_| (0..per_host).map(|_| vec![0u8; bytes]).collect())
        .collect()
}

fn fault_counters(hosts: &[data_roundabout::HostMetrics]) -> Vec<(u64, u64)> {
    hosts
        .iter()
        .map(|h| (h.retransmits, h.checksum_mismatches))
        .collect()
}

/// All four backends, one plan, equal counters. Loss on H0's outgoing
/// link and corruption on H1's: every (sender, seq, attempt) tuple rolls
/// the same dice in every world, and stop-and-wait repairs each envelope
/// independently, so per-host retransmit and checksum counters must agree
/// exactly — not just statistically.
///
/// Crash/pause faults are deliberately absent: detection timing differs
/// between virtual and wall-clock time, and the thread driver refuses such
/// plans. The wall-clock backends get generous ack timeouts so a scheduler
/// stall or a slow loopback round trip cannot masquerade as a drop.
#[test]
fn seeded_fault_plan_yields_identical_counters_on_all_backends() {
    let hosts = 3;
    let per_host = 4;
    let plan = FaultPlan::seeded(7)
        .lossy_link(HostId(0), 0.3)
        .corrupt_link(HostId(1), 0.3);

    let sim_cfg = RingConfig::paper(hosts).with_ack_timeout(SimDuration::from_millis(5));
    let app = FixedCostApp::new(
        hosts,
        SimDuration::from_millis(1),
        SimDuration::from_millis(1),
    );
    let sim = SimRing::new(sim_cfg, payloads(hosts, per_host, 1 << 20), app)
        .with_fault_plan(plan.clone())
        .run();

    let thread_cfg = RingConfig::paper(hosts).with_ack_timeout(SimDuration::from_millis(150));
    let (threaded, _) = RingDriver::new(&thread_cfg)
        .with_fault_plan(&plan)
        .run(payloads(hosts, per_host, 64), |_, _: &Vec<u8>| {})
        .expect("reliable thread run should recover from loss and corruption");

    let tcp_cfg = RingConfig::paper(hosts).with_ack_timeout(SimDuration::from_millis(150));
    let (tcp, _) = TcpRingDriver::new(&tcp_cfg)
        .with_fault_plan(&plan)
        .run(payloads(hosts, per_host, 64), |_, _: &Vec<u8>| {})
        .expect("reliable tcp run should recover from loss and corruption");

    let (reactor, _) = ReactorRingDriver::new(&tcp_cfg)
        .with_fault_plan(&plan)
        .run(payloads(hosts, per_host, 64), |_, _: &Vec<u8>| {})
        .expect("reliable reactor run should recover from loss and corruption");

    assert_eq!(sim.metrics.fragments_completed, hosts * per_host);
    assert_eq!(threaded.fragments_completed, hosts * per_host);
    assert_eq!(tcp.fragments_completed, hosts * per_host);
    assert_eq!(reactor.fragments_completed, hosts * per_host);

    assert_eq!(
        fault_counters(&sim.metrics.hosts),
        fault_counters(&threaded.hosts),
        "sim and thread drivers rolled different fault dice for the same plan:\n\
         sim: {:?}\nthread: {:?}",
        sim.metrics.hosts,
        threaded.hosts
    );
    assert_eq!(
        fault_counters(&sim.metrics.hosts),
        fault_counters(&tcp.hosts),
        "sim and tcp drivers rolled different fault dice for the same plan:\n\
         sim: {:?}\ntcp: {:?}",
        sim.metrics.hosts,
        tcp.hosts
    );
    assert_eq!(
        fault_counters(&sim.metrics.hosts),
        fault_counters(&reactor.hosts),
        "sim and reactor drivers rolled different fault dice for the same plan:\n\
         sim: {:?}\nreactor: {:?}",
        sim.metrics.hosts,
        reactor.hosts
    );
    // The plan actually bit: a trivially quiet run would prove nothing.
    assert!(
        sim.metrics.total_retransmits() > 0,
        "seed 7 must provoke at least one retransmission"
    );
    assert!(
        sim.metrics.total_checksum_mismatches() > 0,
        "seed 7 must provoke at least one checksum mismatch"
    );
}

/// The same four-way parity holds with loss on every link at once — each
/// host is simultaneously a retransmitter and a dedup point.
#[test]
fn all_links_lossy_parity() {
    let hosts = 4;
    let per_host = 2;
    let mut plan = FaultPlan::seeded(11);
    for h in 0..hosts {
        plan = plan.lossy_link(HostId(h), 0.25);
    }

    let sim_cfg = RingConfig::paper(hosts).with_ack_timeout(SimDuration::from_millis(5));
    let app = FixedCostApp::new(hosts, SimDuration::ZERO, SimDuration::from_micros(100));
    let sim = SimRing::new(sim_cfg, payloads(hosts, per_host, 1 << 18), app)
        .with_fault_plan(plan.clone())
        .run();

    let thread_cfg = RingConfig::paper(hosts).with_ack_timeout(SimDuration::from_millis(150));
    let (threaded, _) = RingDriver::new(&thread_cfg)
        .with_fault_plan(&plan)
        .run(payloads(hosts, per_host, 64), |_, _: &Vec<u8>| {})
        .expect("reliable thread run should recover from loss on every link");

    let tcp_cfg = RingConfig::paper(hosts).with_ack_timeout(SimDuration::from_millis(150));
    let (tcp, _) = TcpRingDriver::new(&tcp_cfg)
        .with_fault_plan(&plan)
        .run(payloads(hosts, per_host, 64), |_, _: &Vec<u8>| {})
        .expect("reliable tcp run should recover from loss on every link");

    let (reactor, _) = ReactorRingDriver::new(&tcp_cfg)
        .with_fault_plan(&plan)
        .run(payloads(hosts, per_host, 64), |_, _: &Vec<u8>| {})
        .expect("reliable reactor run should recover from loss on every link");

    let sim_counts: Vec<u64> = sim.metrics.hosts.iter().map(|h| h.retransmits).collect();
    let thread_counts: Vec<u64> = threaded.hosts.iter().map(|h| h.retransmits).collect();
    let tcp_counts: Vec<u64> = tcp.hosts.iter().map(|h| h.retransmits).collect();
    let reactor_counts: Vec<u64> = reactor.hosts.iter().map(|h| h.retransmits).collect();
    assert_eq!(
        sim_counts, thread_counts,
        "sim/thread per-host retransmits diverged"
    );
    assert_eq!(
        sim_counts, tcp_counts,
        "sim/tcp per-host retransmits diverged"
    );
    assert_eq!(
        sim_counts, reactor_counts,
        "sim/reactor per-host retransmits diverged"
    );
    assert_eq!(sim.metrics.fragments_completed, hosts * per_host);
    assert_eq!(threaded.fragments_completed, hosts * per_host);
    assert_eq!(tcp.fragments_completed, hosts * per_host);
    assert_eq!(reactor.fragments_completed, hosts * per_host);
}

/// Multi-tenant parity: two queries multiplexed over one ring, one
/// seeded fault plan, four worlds — identical **per-query** retransmit,
/// checksum and completion counters everywhere. Each query's wire
/// sequence space is private (`(sender, query, seq, attempt)` keys the
/// dice), so the counters agree per query no matter how differently the
/// backends interleave the two queries' envelopes on the shared ring.
#[test]
fn multi_tenant_fault_plan_four_way_parity() {
    let hosts = 3;
    let per_host = 2;
    let max_active = 2;
    let plan = FaultPlan::seeded(13)
        .lossy_link(HostId(0), 0.3)
        .corrupt_link(HostId(1), 0.3);
    let queries = |bytes: usize| {
        vec![
            (0u32, payloads(hosts, per_host, bytes)),
            (1u32, payloads(hosts, per_host, bytes)),
        ]
    };
    let total = 2 * hosts * per_host;

    let sim_cfg = RingConfig::paper(hosts).with_ack_timeout(SimDuration::from_millis(5));
    let app = FixedCostApp::new(
        hosts,
        SimDuration::from_millis(1),
        SimDuration::from_millis(1),
    );
    let sim = SimRing::new_queries(sim_cfg, queries(1 << 18), max_active, app)
        .with_fault_plan(plan.clone())
        .run();

    let wall_cfg = RingConfig::paper(hosts).with_ack_timeout(SimDuration::from_millis(150));
    let (threaded, _) = RingDriver::new(&wall_cfg)
        .with_fault_plan(&plan)
        .run_queries(
            queries(64),
            max_active,
            |_, _, _: &[usize], _: &[u8]| {},
            |_, _| {},
        )
        .expect("reliable thread run should recover from loss and corruption");

    let (tcp, _) = TcpRingDriver::new(&wall_cfg)
        .with_fault_plan(&plan)
        .run_queries(
            queries(64),
            max_active,
            |_, _, _: &[usize], _: &[u8]| {},
            |_, _| {},
        )
        .expect("reliable tcp run should recover from loss and corruption");

    let (reactor, _) = ReactorRingDriver::new(&wall_cfg)
        .with_fault_plan(&plan)
        .run_queries(
            queries(64),
            max_active,
            |_, _, _: &[usize], _: &[u8]| {},
            |_, _| {},
        )
        .expect("reliable reactor run should recover from loss and corruption");

    for (world, m) in [
        ("sim", &sim.metrics),
        ("thread", &threaded),
        ("tcp", &tcp),
        ("reactor", &reactor),
    ] {
        assert_eq!(m.fragments_completed, total, "{world}: every fragment");
        assert_eq!(m.queries.len(), 2, "{world}: two per-query ledgers");
        assert!(
            m.queries.iter().all(|q| q.completed),
            "{world}: both queries complete"
        );
    }
    assert_eq!(
        sim.metrics.queries, threaded.queries,
        "sim and thread drivers rolled different per-query dice"
    );
    assert_eq!(
        sim.metrics.queries, tcp.queries,
        "sim and tcp drivers rolled different per-query dice"
    );
    assert_eq!(
        sim.metrics.queries, reactor.queries,
        "sim and reactor drivers rolled different per-query dice"
    );
    // The plan actually bit — on *both* queries' private dice streams.
    for q in &sim.metrics.queries {
        assert!(
            q.retransmits > 0,
            "seed 13 must provoke a retransmission on every query: {q:?}"
        );
    }
    assert!(
        sim.metrics
            .queries
            .iter()
            .any(|q| q.checksum_mismatches > 0),
        "seed 13 must provoke at least one checksum mismatch"
    );
}

/// Membership parity: one seeded rescale schedule — a standby joining at
/// 1 ms and a founding member draining out at 8 ms — lands on identical
/// membership epochs and `rescale_*` counters in all four worlds, and
/// none of them needs the crash-healing path to get there. The instants
/// are virtual time in the sim and wall-clock time on the thread, TCP
/// and reactor drivers; the protocol transitions they trigger are the
/// same.
///
/// Escalation counters are deliberately *not* pinned to a fixed schedule
/// position: a drain deadline races real scheduling on the wall-clock
/// backends. The generous ack timeout plus `heal_events == 0` below
/// asserts the planned path won in every world — which also forces
/// `rescale_escalations == 0`.
#[test]
fn seeded_rescale_schedule_four_way_parity() {
    let hosts = 3;
    let per_host = 3;
    let plan = RescalePlan::seeded(77)
        .join_host(HostId(2), SimTime::from_nanos(1_000_000))
        .drain_host(HostId(0), SimTime::from_nanos(8_000_000));
    // Host 2 is the provisioned standby: it brings partitions, not
    // fragments.
    let total = (hosts - 1) * per_host;

    let sim_cfg = RingConfig::paper(hosts).with_ack_timeout(SimDuration::from_millis(5));
    let app = FixedCostApp::new(
        hosts,
        SimDuration::from_millis(1),
        SimDuration::from_millis(2),
    );
    let mut sim_frags = payloads(hosts, per_host, 1 << 20);
    sim_frags[2].clear();
    let sim = SimRing::new(sim_cfg, sim_frags, app)
        .with_rescale_plan(plan.clone())
        .run();

    let thread_cfg = RingConfig::paper(hosts)
        .with_ack_timeout(SimDuration::from_millis(20))
        .with_max_retransmits(6);
    let mut thread_frags = payloads(hosts, per_host, 64);
    thread_frags[2].clear();
    let (threaded, _) = RingDriver::new(&thread_cfg)
        .with_rescale_plan(&plan)
        .run(thread_frags, |_, _: &Vec<u8>| {
            std::thread::sleep(std::time::Duration::from_millis(2));
        })
        .expect("thread rescale run should complete");

    let tcp_cfg = RingConfig::paper(hosts)
        .with_ack_timeout(SimDuration::from_millis(20))
        .with_max_retransmits(6);
    let mut tcp_frags = payloads(hosts, per_host, 64);
    tcp_frags[2].clear();
    let (tcp, _) = TcpRingDriver::new(&tcp_cfg)
        .with_rescale_plan(&plan)
        .run(tcp_frags, |_, _: &Vec<u8>| {
            std::thread::sleep(std::time::Duration::from_millis(2));
        })
        .expect("tcp rescale run should complete");

    let mut reactor_frags = payloads(hosts, per_host, 64);
    reactor_frags[2].clear();
    let (reactor, _) = ReactorRingDriver::new(&tcp_cfg)
        .with_rescale_plan(&plan)
        .run(reactor_frags, |_, _: &Vec<u8>| {
            std::thread::sleep(std::time::Duration::from_millis(2));
        })
        .expect("reactor rescale run should complete");

    for (world, m) in [
        ("sim", &sim.metrics),
        ("thread", &threaded),
        ("tcp", &tcp),
        ("reactor", &reactor),
    ] {
        assert_eq!(m.fragments_completed, total, "{world}: every fragment");
        assert_eq!(
            (
                m.membership_epoch,
                m.rescale_joins,
                m.rescale_drains,
                m.rescale_handoffs,
            ),
            (2, 1, 1, 1),
            "{world}: one join + one planned drain, partitions handed off once"
        );
        assert_eq!(
            m.heal_events, 0,
            "{world}: the planned path must not fall back to crash healing"
        );
    }
}
