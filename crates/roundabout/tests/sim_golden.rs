//! Bit-identity of modeled time.
//!
//! The simulator exists for its cost model: who pays for a byte and what
//! overlaps what. Refactors of `sim_backend` must not move a nanosecond of
//! it, so the whole [`RingMetrics`] — per-host phases, per-category
//! [`CpuAccount`](simnet::cpu::CpuAccount)s, fault and rescale counters,
//! per-query metrics — of a handful of seeded runs is pinned here as a
//! fingerprint of its `Debug` form plus the run's wall clock in
//! nanoseconds (so a mismatch says at a glance whether time moved).
//!
//! The pins were recorded before the ISSUE 24 refactor touched the
//! simulator. A failure means modeled time changed: either that was the
//! point of the change (re-record the pins and say so in CHANGES.md) or it
//! is a bug.

use data_roundabout::{FixedCostApp, RingApp, RingConfig, RingMetrics, SimRing};
use simnet::fault::{FaultPlan, RescalePlan};
use simnet::time::{SimDuration, SimTime};
use simnet::topology::HostId;

fn payloads(hosts: usize, per_host: usize, bytes: usize) -> Vec<Vec<Vec<u8>>> {
    (0..hosts)
        .map(|h| {
            (0..per_host)
                .map(|i| vec![(h * 31 + i) as u8; bytes + 4096 * h])
                .collect()
        })
        .collect()
}

/// An app whose every hook costs something, so absorbs and handoffs move
/// the accounts too.
struct PricedApp {
    processed: usize,
    stop_after: usize,
}

impl PricedApp {
    fn new() -> Self {
        PricedApp {
            processed: 0,
            stop_after: usize::MAX,
        }
    }
}

impl RingApp<Vec<u8>> for PricedApp {
    fn setup(&mut self, host: HostId) -> SimDuration {
        SimDuration::from_micros(700 + 130 * host.0 as u64)
    }

    fn process(
        &mut self,
        host: HostId,
        query: u32,
        roles: &[usize],
        _now: SimTime,
        payload: &Vec<u8>,
    ) -> SimDuration {
        self.processed += 1;
        SimDuration::from_nanos(
            200_000 * roles.len() as u64
                + payload.len() as u64 / 3
                + 17 * host.0 as u64
                + 1_000 * query as u64,
        )
    }

    fn finished(&self) -> bool {
        self.processed >= self.stop_after
    }

    fn absorb(&mut self, host: HostId, role: usize) -> SimDuration {
        SimDuration::from_micros(300 + 10 * host.0 as u64 + role as u64)
    }
}

/// FNV-1a over the `Debug` form.
fn fingerprint(metrics: &RingMetrics) -> u64 {
    format!("{metrics:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn check(name: &str, metrics: &RingMetrics, wall_nanos: u64, print: u64) {
    let got = (metrics.wall_clock.as_nanos(), fingerprint(metrics));
    assert_eq!(
        got,
        (wall_nanos, print),
        "{name}: modeled time moved (wall clock ns, fingerprint); metrics now:\n{metrics:#?}"
    );
}

fn cfg(hosts: usize) -> RingConfig {
    RingConfig::paper(hosts)
        .with_ack_timeout(SimDuration::from_millis(5))
        .with_max_retransmits(8)
}

#[test]
fn classic_rdma() {
    let out = SimRing::new(
        RingConfig::paper(4),
        payloads(4, 3, 1 << 20),
        PricedApp::new(),
    )
    .run();
    check("classic rdma", &out.metrics, 9_837_991, 6288959222217076657);
}

#[test]
fn classic_kernel_tcp() {
    let out = SimRing::new(
        RingConfig::paper_tcp(4),
        payloads(4, 3, 1 << 20),
        PricedApp::new(),
    )
    .with_host_speeds(vec![1.0, 0.5, 2.0, 1.0])
    .run();
    check(
        "classic kernel tcp",
        &out.metrics,
        44_564_607,
        6011420150544194399,
    );
}

/// Loss, corruption and delay spikes on every link plus a straggler, on
/// `config`'s transport. Tracing must not move modeled time.
fn lossy(config: RingConfig, trace: bool) -> RingMetrics {
    let mut plan = FaultPlan::seeded(57).slow_host(HostId(2), 0.5);
    for h in 0..4 {
        plan = plan
            .lossy_link(HostId(h), 0.12)
            .corrupt_link(HostId(h), 0.07)
            .delay_spikes(HostId(h), 0.2, SimDuration::from_micros(400));
    }
    let out = SimRing::new(config, payloads(4, 3, 1 << 18), PricedApp::new())
        .with_fault_plan(plan)
        .with_trace(trace)
        .run();
    assert!(out.metrics.total_retransmits() > 0);
    assert!(out.metrics.total_checksum_mismatches() > 0);
    out.metrics
}

#[test]
fn lossy_corrupt_and_spiky_rdma() {
    check(
        "lossy rdma",
        &lossy(cfg(4), false),
        23_696_533,
        5002017302520816367,
    );
    assert_eq!(lossy(cfg(4), true), lossy(cfg(4), false));
}

#[test]
fn lossy_corrupt_and_spiky_kernel_tcp() {
    let config = RingConfig::paper_tcp(4)
        .with_ack_timeout(SimDuration::from_millis(5))
        .with_max_retransmits(8);
    check(
        "lossy kernel tcp",
        &lossy(config, true),
        29_705_327,
        10141876802197199667,
    );
}

#[test]
fn crash_heal() {
    let plan = FaultPlan::seeded(5).crash_host(HostId(2), SimTime::from_nanos(5_000_000));
    let out = SimRing::new(
        cfg(4).with_max_retransmits(3),
        payloads(4, 2, 1 << 20),
        PricedApp::new(),
    )
    .with_fault_plan(plan)
    .run();
    assert_eq!(out.metrics.heal_events, 1);
    check("crash heal", &out.metrics, 82_936_930, 15895599016630592049);
}

#[test]
fn pause() {
    let plan = FaultPlan::seeded(0).pause_host(
        HostId(1),
        SimTime::from_nanos(2_000_000),
        SimDuration::from_millis(40),
    );
    let out = SimRing::new(cfg(3), payloads(3, 2, 1 << 20), PricedApp::new())
        .with_fault_plan(plan)
        .run();
    check("pause", &out.metrics, 45_111_021, 9796461263763075849);
}

#[test]
fn drain_and_join() {
    let plan = RescalePlan::seeded(31)
        .join_host(HostId(3), SimTime::from_nanos(2_000_000))
        .drain_host(HostId(0), SimTime::from_nanos(6_000_000));
    let mut fragments = payloads(4, 2, 1 << 20);
    fragments[3].clear();
    let out = SimRing::new(cfg(4), fragments, PricedApp::new())
        .with_rescale_plan(plan)
        .with_trace(true)
        .run();
    assert_eq!(out.metrics.membership_epoch, 2);
    check(
        "drain and join",
        &out.metrics,
        6_350_251,
        15094931509221119967,
    );
}

#[test]
fn eight_tenants_max_active_four() {
    let mut plan = FaultPlan::seeded(57);
    for h in 0..6 {
        plan = plan.lossy_link(HostId(h), 0.03);
    }
    let queries = (0..8u32)
        .map(|q| (q, payloads(6, 2, (1 << 16) + 512 * q as usize)))
        .collect();
    let out = SimRing::new_queries(cfg(6), queries, 4, PricedApp::new())
        .with_fault_plan(plan)
        .run();
    assert!(out.metrics.queries.iter().all(|q| q.completed));
    check(
        "8 tenants, max_active 4",
        &out.metrics,
        41_661_589,
        4841157951823290982,
    );
}

#[test]
fn continuous() {
    let app = PricedApp {
        processed: 0,
        stop_after: 100,
    };
    let out = SimRing::new(RingConfig::paper(3), payloads(3, 2, 4096), app)
        .continuous()
        .run();
    check("continuous", &out.metrics, 7_519_296, 4864248746846080643);
    // FixedCostApp never finishes; a continuous single-host ring with no
    // fragments just sets up.
    let idle = SimRing::new(
        RingConfig::paper(1),
        payloads(1, 0, 0),
        FixedCostApp::new(1, SimDuration::from_millis(3), SimDuration::ZERO),
    )
    .continuous()
    .run();
    assert_eq!(idle.metrics.wall_clock, SimDuration::from_millis(3));
}
