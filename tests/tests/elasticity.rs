//! Elasticity and failure handling across the stack: a host's role is
//! taken over by another node of the running ring — after a crash, on a
//! planned drain, or when a standby joins — and the join result never
//! changes (§II-C).

use cyclo_join::{
    reference_join, CycloJoin, CycloJoinReport, FaultPlan, HostId, JoinPredicate, Reference,
    RescalePlan, RingConfig,
};
use relation::{GenSpec, Relation};
use simnet::time::{SimDuration, SimTime};

const HOSTS: usize = 4;

fn inputs() -> (Relation, Relation, Reference) {
    let r = GenSpec::uniform(4_000, 500).generate();
    let s = GenSpec::uniform(4_000, 501).generate();
    let reference = reference_join(&r, &s, &JoinPredicate::Equi);
    (r, s, reference)
}

/// A short ack timeout keeps failure detection and drain deadlines well
/// inside the join window of these small joins.
fn config(hosts: usize) -> RingConfig {
    RingConfig::paper(hosts).with_ack_timeout(SimDuration::from_millis(2))
}

/// Halfway through the join phase of an undisturbed run of `join`.
fn mid_revolution(join: &CycloJoin) -> SimTime {
    let baseline = join.run().expect("baseline should run");
    let mid =
        baseline.setup_seconds() + 0.5 * (baseline.total_seconds() - baseline.setup_seconds());
    SimTime::ZERO + SimDuration::from_secs_f64(mid)
}

fn assert_reference(report: &CycloJoinReport, reference: &Reference, what: &str) {
    assert_eq!(report.match_count(), reference.count, "{what}");
    assert_eq!(report.checksum(), reference.checksum, "{what}");
}

#[test]
fn join_survives_any_single_host_failure() {
    let (r, s, reference) = inputs();
    let join = CycloJoin::new(r, s).ring(config(HOSTS));
    let mid = mid_revolution(&join);
    for dead in 0..HOSTS {
        let report = join
            .clone()
            .fault_plan(FaultPlan::seeded(500).crash_host(HostId(dead), mid))
            .run()
            .expect("the healed ring should finish the join");
        assert_reference(&report, &reference, &format!("host {dead} crashed"));
        assert_eq!(report.heal_events(), 1, "host {dead} crashed");
    }
}

#[test]
fn any_host_drains_mid_revolution_without_changing_the_result() {
    let (r, s, reference) = inputs();
    let join = CycloJoin::new(r, s).ring(config(HOSTS));
    let mid = mid_revolution(&join);
    for drained in 0..HOSTS {
        let report = join
            .clone()
            .rescale_plan(RescalePlan::seeded(510).drain_host(HostId(drained), mid))
            .run()
            .expect("the shrunk ring should finish the join");
        assert_reference(&report, &reference, &format!("host {drained} drained"));
        assert_eq!(report.rescale_drains(), 1, "host {drained} drained");
        assert_eq!(report.heal_events(), 0, "host {drained} drained");
    }
}

#[test]
fn standbys_joining_mid_revolution_preserve_the_result() {
    let (r, s, reference) = inputs();
    // Hosts 2 and 3 start as standbys: the ring begins with two members,
    // and the baseline that times the joins is that two-host ring.
    let mid = mid_revolution(&CycloJoin::new(r.clone(), s.clone()).ring(config(2)));
    let plan = RescalePlan::seeded(520)
        .join_host(HostId(2), mid)
        .join_host(HostId(3), mid);
    let report = CycloJoin::new(r, s)
        .ring(config(HOSTS))
        .rescale_plan(plan)
        .run()
        .expect("the grown ring should finish the join");
    assert_reference(&report, &reference, "hosts 2 and 3 joined");
    assert_eq!(report.rescale_joins(), 2);
    assert_eq!(report.membership_epoch(), 2);
}
