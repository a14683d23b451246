//! Ring elasticity: surviving host loss, shrinking and growing the ring
//! while it turns (§II-C).
//!
//! The Data Roundabout carries no workload-specific placement, so "any
//! failing node … (or its role) can be taken over by some other node in
//! the ring". This example runs a join on six hosts, then again with host
//! 3 crashing mid-revolution (the ring heals and its successor takes over
//! the orphaned role), with host 3 draining mid-revolution (its role is
//! handed off and it leaves), and on a nine-host ring whose last three
//! hosts start as standbys and join mid-revolution — the result is
//! identical every time.
//!
//! ```text
//! cargo run --release -p cyclo-join --example elastic_ring
//! ```

use cyclo_join::{
    reference_join, CycloJoin, CycloJoinReport, FaultPlan, HostId, JoinPredicate, PlanError,
    RescalePlan, RingConfig,
};
use relation::GenSpec;
use simnet::time::{SimDuration, SimTime};

/// A short ack timeout keeps failure detection well inside the join.
fn ring(hosts: usize) -> RingConfig {
    RingConfig::paper(hosts).with_ack_timeout(SimDuration::from_millis(2))
}

/// Halfway through the join phase of `report`'s run.
fn mid_revolution(report: &CycloJoinReport) -> SimTime {
    let mid = report.setup_seconds() + 0.5 * (report.total_seconds() - report.setup_seconds());
    SimTime::ZERO + SimDuration::from_secs_f64(mid)
}

fn main() -> Result<(), PlanError> {
    let r = GenSpec::uniform(120_000, 51).generate();
    let s = GenSpec::uniform(120_000, 52).generate();
    let reference = reference_join(&r, &s, &JoinPredicate::Equi);
    let join = CycloJoin::new(r, s);

    // 1. Normal operation on six hosts.
    let six = join.clone().ring(ring(6));
    let steady = six.run()?;
    let mid = mid_revolution(&steady);
    println!(
        "6 hosts:                 {} matches in {:.3}s",
        steady.match_count(),
        steady.total_seconds()
    );

    // 2. Host 3 crashes mid-revolution: the ring heals around it and its
    //    successor takes over its stationary role.
    let crashed = six
        .clone()
        .fault_plan(FaultPlan::seeded(51).crash_host(HostId(3), mid))
        .run()?;
    assert_eq!(crashed.heal_events(), 1);
    println!(
        "6 hosts, host 3 crashed: {} matches in {:.3}s",
        crashed.match_count(),
        crashed.total_seconds()
    );

    // 3. Demand shrinks: host 3 drains mid-revolution, handing its role
    //    off before it leaves.
    let drained = six
        .rescale_plan(RescalePlan::seeded(52).drain_host(HostId(3), mid))
        .run()?;
    assert_eq!(drained.rescale_drains(), 1);
    println!(
        "6 hosts, host 3 drained: {} matches in {:.3}s",
        drained.match_count(),
        drained.total_seconds()
    );

    // 4. Demand grows: hosts 6, 7 and 8 of a nine-host ring start as
    //    standbys and join mid-revolution, taking over their share of
    //    the roles.
    let grow = (6..9).fold(RescalePlan::seeded(53), |plan, h| {
        plan.join_host(HostId(h), mid)
    });
    let grown = join.ring(ring(9)).rescale_plan(grow).run()?;
    assert_eq!(grown.rescale_joins(), 3);
    println!(
        "6 + 3 joining hosts:     {} matches in {:.3}s",
        grown.match_count(),
        grown.total_seconds()
    );

    for report in [&steady, &crashed, &drained, &grown] {
        assert_eq!(
            (report.match_count(), report.checksum()),
            (reference.count, reference.checksum),
            "membership change altered the result"
        );
    }
    println!("\nevery membership change produced the identical, verified join result");
    Ok(())
}
