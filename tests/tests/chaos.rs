//! Chaos scenarios: deterministic fault injection against full joins.
//!
//! Every scenario runs a complete cyclo-join under a seeded [`FaultPlan`]
//! and holds the result to the same standard as a healthy run: the match
//! count and checksum must equal the single-host [`reference_join`], and
//! the per-host metrics must show exactly-once fragment processing. The
//! seeds make every scenario bit-for-bit reproducible.

use cyclo_join::{
    reference_join, CycloJoin, CycloJoinReport, FaultPlan, HostId, JoinPredicate, PlanError,
    RescalePlan, RingConfig,
};
use relation::{GenSpec, Relation};
use simnet::time::{SimDuration, SimTime};

fn inputs() -> (Relation, Relation) {
    (
        GenSpec::uniform(6_000, 900).generate(),
        GenSpec::uniform(6_000, 901).generate(),
    )
}

fn chaos_config(hosts: usize) -> RingConfig {
    // A short ack timeout keeps the failure-detection ladder well inside
    // the join window of these small test joins.
    RingConfig::paper(hosts).with_ack_timeout(SimDuration::from_millis(2))
}

/// Join-event totals can never exceed one per (fragment, role) pair:
/// the exactly-once ledger, read off the public metrics.
fn assert_exactly_once(report: &CycloJoinReport) {
    let role_visits: usize = report
        .ring
        .hosts
        .iter()
        .map(|h| h.fragments_processed)
        .sum();
    let ceiling = report.ring.fragments_completed * report.hosts;
    assert!(
        role_visits <= ceiling,
        "{role_visits} join events exceed the {ceiling} distinct (fragment, role) pairs"
    );
}

/// Crash one of six hosts when the rotation is `frac` of the way through
/// its revolution; the surviving five must finish the join exactly.
fn crash_at_fraction(frac: f64) {
    let (r, s) = inputs();
    let reference = reference_join(&r, &s, &JoinPredicate::Equi);

    let baseline = CycloJoin::new(r.clone(), s.clone())
        .ring(chaos_config(6))
        .run()
        .expect("baseline should run");
    let revolution = baseline.total_seconds() - baseline.setup_seconds();
    let crash_at = baseline.setup_seconds() + frac * revolution;

    let plan = FaultPlan::seeded(4242).crash_host(
        HostId(3),
        SimTime::ZERO + SimDuration::from_secs_f64(crash_at),
    );
    let report = CycloJoin::new(r, s)
        .ring(chaos_config(6))
        .fault_plan(plan)
        .run()
        .expect("the healed ring should finish the join");

    assert_eq!(report.match_count(), reference.count, "crash at {frac}");
    assert_eq!(report.checksum(), reference.checksum, "crash at {frac}");
    assert_eq!(report.heal_events(), 1, "exactly one host died");
    assert!(
        report.retransmits() > 0,
        "death detection retransmits first"
    );
    assert!(report.detection_latency_seconds() > 0.0);
    assert!(!report.fault_free());
    assert_exactly_once(&report);
}

#[test]
fn crash_at_quarter_revolution_heals() {
    crash_at_fraction(0.25);
}

#[test]
fn crash_at_half_revolution_heals() {
    crash_at_fraction(0.5);
}

#[test]
fn crash_at_three_quarter_revolution_heals() {
    crash_at_fraction(0.75);
}

/// A host dies *while draining out*: the planned departure hands its
/// stationary partitions off up front, so when the crash interrupts the
/// graceful exit mid-relay, crash healing — not the drain protocol —
/// finishes the job, and the join still matches the single-host
/// reference exactly. The drain never completes (the host died first),
/// so the epoch advance it would have contributed never happens.
#[test]
fn crash_during_drain_degrades_to_healing() {
    let (r, s) = inputs();
    let reference = reference_join(&r, &s, &JoinPredicate::Equi);

    let baseline = CycloJoin::new(r.clone(), s.clone())
        .ring(chaos_config(6))
        .run()
        .expect("baseline should run");
    let revolution = baseline.total_seconds() - baseline.setup_seconds();
    let drain_at = baseline.setup_seconds() + 0.35 * revolution;
    let crash_at = drain_at + 0.05 * revolution;

    let rescale = RescalePlan::seeded(4242).drain_host(
        HostId(1),
        SimTime::ZERO + SimDuration::from_secs_f64(drain_at),
    );
    let faults = FaultPlan::seeded(4242).crash_host(
        HostId(1),
        SimTime::ZERO + SimDuration::from_secs_f64(crash_at),
    );
    let report = CycloJoin::new(r, s)
        .ring(chaos_config(6))
        .rescale_plan(rescale)
        .fault_plan(faults)
        .run()
        .expect("healing should finish what the drain started");

    assert_eq!(report.match_count(), reference.count);
    assert_eq!(report.checksum(), reference.checksum);
    assert_eq!(report.heal_events(), 1, "the drainee died mid-drain");
    assert_eq!(
        report.rescale_drains(),
        0,
        "a drain cut short by death is not a completed drain"
    );
    assert_eq!(
        report.membership_epoch(),
        report.rescale_joins() + report.rescale_drains(),
        "the epoch only counts completed transitions"
    );
    assert!(!report.fault_free());
    assert_exactly_once(&report);
}

/// The same mid-revolution death over *real sockets*: the TCP backend
/// realizes the seeded crash as an actual connection sever (a FIN after
/// the last committed byte) and reports the death to the protocol, whose
/// role-takeover ledger completes the join exactly once — held to the
/// same reference-equality standard as the simulated scenarios above.
/// Unlike the simulated ladder, detection here is the fault injector's
/// own sever report, so a retransmit burst is possible but not
/// guaranteed — the assertions stick to what the contract promises.
#[test]
fn tcp_connection_sever_mid_revolution_heals_exactly_once() {
    let (r, s) = inputs();
    let reference = reference_join(&r, &s, &JoinPredicate::Equi);

    // Wall-clock backend: the crash instant counts from the start of the
    // revolution, and the ack timeout must be generous enough that a
    // scheduler stall never masquerades as a death on a healthy link.
    let plan =
        FaultPlan::seeded(4242).crash_host(HostId(2), SimTime::ZERO + SimDuration::from_millis(5));
    let config = RingConfig::paper(4)
        .with_ack_timeout(SimDuration::from_millis(8))
        .with_max_retransmits(3);
    let report = CycloJoin::new(r, s)
        .ring(config)
        .fault_plan(plan)
        .run_tcp()
        .expect("the healed ring should finish the join over real sockets");

    assert_eq!(report.match_count(), reference.count);
    assert_eq!(report.checksum(), reference.checksum);
    assert_eq!(report.heal_events(), 1, "exactly one socket was severed");
    assert!(report.detection_latency_seconds() > 0.0);
    assert!(!report.fault_free());
    assert_exactly_once(&report);
}

/// Crash-during-drain over real sockets. Wall-clock scheduling decides
/// whether the sever lands while the drain is still relaying (crash
/// healing takes over) or just after the host already departed (the
/// sever hits a closed socket and is a no-op) — but in *either* world
/// the host leaves the ring exactly once and the join is exact, which
/// is precisely the invariant the degradation ladder promises.
#[test]
fn tcp_crash_during_drain_departs_exactly_once() {
    let (r, s) = inputs();
    let reference = reference_join(&r, &s, &JoinPredicate::Equi);

    let rescale = RescalePlan::seeded(4242)
        .drain_host(HostId(1), SimTime::ZERO + SimDuration::from_millis(5));
    let faults =
        FaultPlan::seeded(4242).crash_host(HostId(1), SimTime::ZERO + SimDuration::from_millis(6));
    let config = RingConfig::paper(4)
        .with_ack_timeout(SimDuration::from_millis(8))
        .with_max_retransmits(3);
    let report = CycloJoin::new(r, s)
        .ring(config)
        .rescale_plan(rescale)
        .fault_plan(faults)
        .run_tcp()
        .expect("the ring should survive a crash racing a planned drain");

    assert_eq!(report.match_count(), reference.count);
    assert_eq!(report.checksum(), reference.checksum);
    assert_eq!(
        report.heal_events() as u64 + report.rescale_drains(),
        1,
        "host 1 must leave exactly once — gracefully or by being declared dead"
    );
    assert_eq!(
        report.membership_epoch(),
        report.rescale_joins() + report.rescale_drains(),
        "the epoch only counts completed transitions"
    );
    assert_exactly_once(&report);
}

/// The mid-revolution sever again, but on the reactor backend: the same
/// crash plan lands on sockets owned by a single event-loop thread, so
/// the sever surfaces as readiness (an EOF and dead writes) rather than
/// a blocked I/O thread — and the exactly-once ledger must hold to the
/// identical standard.
#[test]
fn reactor_connection_sever_mid_revolution_heals_exactly_once() {
    let (r, s) = inputs();
    let reference = reference_join(&r, &s, &JoinPredicate::Equi);

    let plan =
        FaultPlan::seeded(4242).crash_host(HostId(2), SimTime::ZERO + SimDuration::from_millis(5));
    let config = RingConfig::paper(4)
        .with_ack_timeout(SimDuration::from_millis(8))
        .with_max_retransmits(3);
    let report = CycloJoin::new(r, s)
        .ring(config)
        .fault_plan(plan)
        .run_reactor()
        .expect("the healed ring should finish the join on the event loop");

    assert_eq!(report.match_count(), reference.count);
    assert_eq!(report.checksum(), reference.checksum);
    assert_eq!(report.heal_events(), 1, "exactly one socket was severed");
    assert!(report.detection_latency_seconds() > 0.0);
    assert!(!report.fault_free());
    assert_exactly_once(&report);
}

/// Crash-during-drain on the reactor backend: as with the blocking TCP
/// driver, wall-clock scheduling picks which rung of the degradation
/// ladder resolves the race, but host 1 leaves the ring exactly once
/// either way and the join stays exact.
#[test]
fn reactor_crash_during_drain_departs_exactly_once() {
    let (r, s) = inputs();
    let reference = reference_join(&r, &s, &JoinPredicate::Equi);

    let rescale = RescalePlan::seeded(4242)
        .drain_host(HostId(1), SimTime::ZERO + SimDuration::from_millis(5));
    let faults =
        FaultPlan::seeded(4242).crash_host(HostId(1), SimTime::ZERO + SimDuration::from_millis(6));
    let config = RingConfig::paper(4)
        .with_ack_timeout(SimDuration::from_millis(8))
        .with_max_retransmits(3);
    let report = CycloJoin::new(r, s)
        .ring(config)
        .rescale_plan(rescale)
        .fault_plan(faults)
        .run_reactor()
        .expect("the reactor ring should survive a crash racing a planned drain");

    assert_eq!(report.match_count(), reference.count);
    assert_eq!(report.checksum(), reference.checksum);
    assert_eq!(
        report.heal_events() as u64 + report.rescale_drains(),
        1,
        "host 1 must leave exactly once — gracefully or by being declared dead"
    );
    assert_eq!(
        report.membership_epoch(),
        report.rescale_joins() + report.rescale_drains(),
        "the epoch only counts completed transitions"
    );
    assert_exactly_once(&report);
}

/// A fault-free run over real sockets produces the same join as the
/// simulated backend on identical inputs — the acceptance bar for the
/// TCP driver, checked end to end through the planner.
#[test]
fn tcp_backend_matches_the_simulated_join_result() {
    let (r, s) = inputs();
    let sim = CycloJoin::new(r.clone(), s.clone())
        .ring(chaos_config(4))
        .run()
        .expect("simulated run");
    let tcp = CycloJoin::new(r, s)
        .ring(RingConfig::paper(4))
        .run_tcp()
        .expect("tcp run");
    assert_eq!(tcp.match_count(), sim.match_count());
    assert_eq!(tcp.checksum(), sim.checksum());
    assert_eq!(
        tcp.ring.fragments_completed, sim.ring.fragments_completed,
        "both backends must complete the same revolution"
    );
    assert!(tcp.fault_free());
}

#[test]
fn lossy_link_retransmits_but_never_loses_a_fragment() {
    let (r, s) = inputs();
    let reference = reference_join(&r, &s, &JoinPredicate::Equi);
    let plan = FaultPlan::seeded(7).lossy_link(HostId(1), 0.25);
    let report = CycloJoin::new(r, s)
        .ring(chaos_config(4))
        .fault_plan(plan)
        .run()
        .expect("retransmissions should repair the link");
    assert_eq!(report.match_count(), reference.count);
    assert_eq!(report.checksum(), reference.checksum);
    assert!(report.retransmits() > 0, "a 25% lossy link must retransmit");
    assert_eq!(report.heal_events(), 0, "loss is not death");
    assert_exactly_once(&report);
}

#[test]
fn corrupted_envelopes_are_caught_by_checksums() {
    let (r, s) = inputs();
    let reference = reference_join(&r, &s, &JoinPredicate::Equi);
    let plan = FaultPlan::seeded(21).corrupt_link(HostId(0), 0.25);
    let report = CycloJoin::new(r, s)
        .ring(chaos_config(4))
        .fault_plan(plan)
        .run()
        .expect("corrupted hops should be retransmitted");
    assert_eq!(report.match_count(), reference.count);
    assert_eq!(report.checksum(), reference.checksum);
    assert!(
        report.checksum_mismatches() > 0,
        "the receiver must catch corruption"
    );
    assert!(report.retransmits() > 0, "a corrupted hop is retried");
    assert_eq!(report.heal_events(), 0);
    assert_exactly_once(&report);
}

#[test]
fn paused_host_resumes_without_being_declared_dead() {
    let (r, s) = inputs();
    let reference = reference_join(&r, &s, &JoinPredicate::Equi);

    let baseline = CycloJoin::new(r.clone(), s.clone())
        .ring(chaos_config(4))
        .run()
        .expect("baseline should run");
    let mid =
        baseline.setup_seconds() + 0.5 * (baseline.total_seconds() - baseline.setup_seconds());

    let plan = FaultPlan::seeded(99).pause_host(
        HostId(2),
        SimTime::ZERO + SimDuration::from_secs_f64(mid),
        SimDuration::from_millis(40),
    );
    let report = CycloJoin::new(r, s)
        .ring(chaos_config(4))
        .fault_plan(plan)
        .run()
        .expect("a paused host backpressures, it does not die");

    assert_eq!(report.match_count(), reference.count);
    assert_eq!(report.checksum(), reference.checksum);
    assert_eq!(
        report.heal_events(),
        0,
        "a pause must never be treated as a crash"
    );
    assert!(
        report.total_seconds() > baseline.total_seconds(),
        "a mid-revolution stall must show up in the wall clock"
    );
    assert_exactly_once(&report);
}

#[test]
fn disabled_faults_leave_the_baseline_untouched() {
    let (r, s) = inputs();
    let reference = reference_join(&r, &s, &JoinPredicate::Equi);

    let baseline = CycloJoin::new(r.clone(), s.clone())
        .ring(chaos_config(6))
        .run()
        .expect("baseline should run");
    let quiet = CycloJoin::new(r, s)
        .ring(chaos_config(6))
        .fault_plan(FaultPlan::seeded(123))
        .run()
        .expect("a quiet plan should run");

    for report in [&baseline, &quiet] {
        assert_eq!(report.match_count(), reference.count);
        assert_eq!(report.checksum(), reference.checksum);
        assert!(report.fault_free(), "all fault counters must be zero");
        assert_eq!(report.heal_events(), 0);
        assert_eq!(report.retransmits(), 0);
        assert_eq!(report.checksum_mismatches(), 0);
        assert_eq!(report.fragments_resent(), 0);
        assert_eq!(report.detection_latency_seconds(), 0.0);
    }
    // Dropping the plan entirely restores the classic transport: the
    // simulation is deterministic, so the timings match the baseline
    // exactly.
    let rerun = CycloJoin::new(
        GenSpec::uniform(6_000, 900).generate(),
        GenSpec::uniform(6_000, 901).generate(),
    )
    .ring(chaos_config(6))
    .run()
    .expect("rerun should run");
    assert_eq!(baseline.total_seconds(), rerun.total_seconds());
    assert_eq!(baseline.setup_seconds(), rerun.setup_seconds());
    assert_eq!(baseline.sync_seconds(), rerun.sync_seconds());
    // A quiet plan still pays for acknowledged stop-and-wait transport
    // (one in-flight envelope per hop, 64 B acks) — but nothing more.
    assert!(
        quiet.total_seconds() < 2.5 * baseline.total_seconds(),
        "ack transport premium out of bounds: {} vs {}",
        quiet.total_seconds(),
        baseline.total_seconds()
    );
}

#[test]
fn chaos_runs_are_reproducible() {
    let (r, s) = inputs();
    let run = || {
        let plan = FaultPlan::seeded(4242)
            .crash_host(HostId(3), SimTime::ZERO + SimDuration::from_millis(60));
        CycloJoin::new(r.clone(), s.clone())
            .ring(chaos_config(6))
            .fault_plan(plan)
            .run()
            .expect("chaos run should complete")
    };
    let a = run();
    let b = run();
    assert_eq!(a.match_count(), b.match_count());
    assert_eq!(a.checksum(), b.checksum());
    assert_eq!(a.total_seconds(), b.total_seconds());
    assert_eq!(a.retransmits(), b.retransmits());
    assert_eq!(a.detection_latency_seconds(), b.detection_latency_seconds());
}

#[test]
fn fault_plans_are_validated_before_running() {
    let (r, s) = inputs();
    let plan =
        FaultPlan::seeded(1).crash_host(HostId(9), SimTime::ZERO + SimDuration::from_millis(1));
    let err = CycloJoin::new(r, s)
        .ring(chaos_config(4))
        .fault_plan(plan)
        .run()
        .unwrap_err();
    assert!(matches!(err, PlanError::Backend(_)), "got: {err:?}");
    assert!(
        err.to_string()
            .contains("fault plan names a host outside the ring"),
        "got: {err}"
    );
}

/// Multi-tenant chaos: two queries in flight on one multiplexed ring
/// when a host dies mid-revolution. Healing is ring-global — the crash
/// is detected once and the survivor absorbs the dead role's stationary
/// state for *every* tenant in one takeover — so exactly one heal event
/// appears, both queries complete, and both match their single-host
/// references exactly.
#[test]
fn multi_tenant_crash_mid_revolution_heals_once_for_all_tenants() {
    use cyclo_join::MultiTenantJoin;
    let specs: Vec<_> = (0..2u64)
        .map(|q| {
            (
                GenSpec::uniform(5_000 + 700 * q as usize, 910 + 2 * q).generate(),
                GenSpec::uniform(4_000, 911 + 2 * q).generate(),
            )
        })
        .collect();
    let batch = {
        let mut b = MultiTenantJoin::new().hosts(4).max_active(2);
        for (r, s) in &specs {
            b = b.tenant(r.clone(), s.clone(), JoinPredicate::Equi);
        }
        b
    };

    // Probe a quiet run to aim the crash at mid-revolution.
    let quiet = batch
        .clone()
        .fault_plan(FaultPlan::seeded(55))
        .run()
        .expect("probe run");
    assert_eq!(quiet.ring.heal_events, 0);
    let mid = SimTime::from_nanos(quiet.ring.wall_clock.as_nanos() / 2);

    let plan = FaultPlan::seeded(55).crash_host(HostId(2), mid);
    let report = batch.fault_plan(plan).run().expect("healed run");
    assert_eq!(report.ring.heal_events, 1, "one crash, one heal");
    assert!(report.all_completed(), "both in-flight queries complete");
    assert!(
        report.ring.total_retransmits() > 0,
        "death detection retransmits first"
    );
    for (tenant, (r, s)) in report.tenants.iter().zip(&specs) {
        let reference = reference_join(r, s, &JoinPredicate::Equi);
        assert_eq!(tenant.count, reference.count, "tenant {}", tenant.tenant);
        assert_eq!(
            tenant.checksum, reference.checksum,
            "tenant {}",
            tenant.tenant
        );
    }
}

/// Multi-tenant chaos, membership edition: three queries with an
/// admission bound of two, so the third waits in the queue — then one
/// host drains out (planned, epoch bump) while *another* host crashes.
/// The queued query must still be admitted onto the reshaped ring and
/// complete: admission is a protocol property, not a property of the
/// membership snapshot the query was submitted under.
#[test]
fn multi_tenant_crash_during_drain_still_admits_the_queued_query() {
    use cyclo_join::MultiTenantJoin;
    let specs: Vec<_> = (0..3u64)
        .map(|q| {
            (
                GenSpec::uniform(4_500, 920 + 2 * q).generate(),
                GenSpec::uniform(3_500, 921 + 2 * q).generate(),
            )
        })
        .collect();
    let batch = {
        let mut b = MultiTenantJoin::new().hosts(4).max_active(2);
        for (r, s) in &specs {
            b = b.tenant(r.clone(), s.clone(), JoinPredicate::Equi);
        }
        b
    };

    let quiet = batch
        .clone()
        .fault_plan(FaultPlan::seeded(66))
        .run()
        .expect("probe run");
    let t = quiet.ring.wall_clock.as_nanos();
    let drain_at = SimTime::from_nanos(t * 3 / 10);
    let crash_at = SimTime::from_nanos(t * 4 / 10);

    let report = batch
        .rescale_plan(RescalePlan::seeded(66).drain_host(HostId(1), drain_at))
        .fault_plan(FaultPlan::seeded(66).crash_host(HostId(3), crash_at))
        .run()
        .expect("drain + crash run");

    assert_eq!(report.ring.rescale_drains, 1, "the planned drain completes");
    assert_eq!(report.ring.membership_epoch, 1, "one epoch bump");
    assert_eq!(report.ring.heal_events, 1, "the crash heals exactly once");
    assert!(
        report.all_completed(),
        "the queued query is admitted onto the reshaped ring and completes"
    );
    assert_eq!(report.tenants.len(), 3);
    for (tenant, (r, s)) in report.tenants.iter().zip(&specs) {
        let reference = reference_join(r, s, &JoinPredicate::Equi);
        assert_eq!(tenant.count, reference.count, "tenant {}", tenant.tenant);
        assert_eq!(
            tenant.checksum, reference.checksum,
            "tenant {}",
            tenant.tenant
        );
    }
}
