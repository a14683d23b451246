//! Determinism and transport-independence of the simulated backend.

use cyclo_join::{CycloJoin, RingConfig};
use relation::GenSpec;
use simnet::transport::TransportModel;

#[test]
fn identical_inputs_produce_identical_virtual_metrics() {
    let run = || {
        let r = GenSpec::uniform(3_000, 400).generate();
        let s = GenSpec::uniform(3_000, 401).generate();
        let report = CycloJoin::new(r, s)
            .hosts(5)
            .run()
            .expect("plan should run");
        (report.ring.clone(), report.match_count(), report.checksum())
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "virtual-time metrics must be bit-identical");
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

#[test]
fn transport_choice_changes_timing_not_results() {
    let mut results = Vec::new();
    for transport in [
        TransportModel::rdma(),
        TransportModel::toe(),
        TransportModel::kernel_tcp(),
    ] {
        let r = GenSpec::uniform(50_000, 410).generate();
        let s = GenSpec::uniform(50_000, 411).generate();
        let report = CycloJoin::new(r, s)
            .ring(RingConfig::paper(4).with_transport(transport))
            .run()
            .expect("plan should run");
        results.push((
            report.match_count(),
            report.checksum(),
            report.join_window_seconds(),
        ));
    }
    assert_eq!(results[0].0, results[1].0);
    assert_eq!(results[0].1, results[1].1);
    assert_eq!(results[0].0, results[2].0);
    assert_eq!(results[0].1, results[2].1);
    // ... while TCP's join phase must actually be slower than RDMA's.
    assert!(
        results[2].2 > results[0].2,
        "TCP should cost virtual join-phase time: tcp {} vs rdma {}",
        results[2].2,
        results[0].2
    );
}

#[test]
fn different_seeds_produce_different_data_and_results() {
    let run = |seed: u64| {
        let r = GenSpec::uniform(2_000, seed).generate();
        let s = GenSpec::uniform(2_000, seed + 1).generate();
        CycloJoin::new(r, s)
            .hosts(3)
            .run()
            .expect("plan should run")
            .checksum()
    };
    assert_ne!(run(420), run(520));
}

/// Modeled time must not see the join kernel: a seeded lossy multi-tenant
/// run prices compute from the cost model, so its virtual duration, its
/// retransmits and every tenant's counts are fixed by the seeds alone.
/// The values were read off the tuple-at-a-time probe and must survive
/// any rewrite of it.
#[test]
fn seeded_multi_tenant_virtual_time_does_not_see_the_kernel() {
    use cyclo_join::{FaultPlan, HostId, JoinPredicate, MultiTenantJoin};
    let hosts = 4;
    let plan = (0..hosts).fold(FaultPlan::seeded(430), |plan, h| {
        plan.lossy_link(HostId(h), 0.03)
    });
    let batch = (0..4u64).fold(
        MultiTenantJoin::new()
            .ring(RingConfig::paper(hosts).with_join_threads(1))
            .max_active(2)
            .fault_plan(plan),
        |batch, t| {
            let r = GenSpec::uniform(2_000, 431 + 2 * t).generate();
            let s = GenSpec::uniform(2_000, 432 + 2 * t).generate();
            batch.tenant(r, s, JoinPredicate::Equi)
        },
    );
    let report = batch.run().expect("plan should run");
    let tenants: Vec<(u64, u64, usize)> = report
        .tenants
        .iter()
        .map(|t| {
            (
                t.count,
                t.metrics.retransmits,
                t.metrics.fragments_completed,
            )
        })
        .collect();
    assert_eq!(report.ring.wall_clock.as_nanos(), 76_876_093);
    assert_eq!(report.ring.total_retransmits(), 6);
    assert_eq!(
        tenants,
        [(1993, 2, 16), (2011, 1, 16), (1963, 2, 16), (2014, 1, 16)]
    );
}
