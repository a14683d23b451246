//! Extension — Data Cyclotron query latency vs offered load.
//!
//! The operational mode the paper's project is named for (§I, §VII): the
//! hot set spins continuously and queries board the rotation as they
//! arrive. An unloaded ring answers a query in about one revolution; as
//! more concurrent queries ride the same rotation, each buffer visit
//! carries more join work, the revolution stretches, and latency climbs —
//! the load/latency curve of a shared-scan system.
//!
//! ```text
//! cargo run --release -p cyclo-bench --bin ext_cyclotron
//! ```

use cyclo_bench::{print_table, scale_from_env, secs, write_csv};
use cyclo_join::cyclotron::{DataCyclotron, QueryArrival};
use data_roundabout::HostId;
use relation::GenSpec;
use simnet::time::SimDuration;

fn main() {
    let scale = scale_from_env(0.002);
    let hot_tuples = ((140_000_000.0 * scale) as usize).max(1);
    let query_tuples = hot_tuples / 4;
    let hosts = 6;
    println!(
        "Extension — cyclotron latency vs load, hot = {hot_tuples} tuples on {hosts} hosts, \
         queries of {query_tuples} tuples (scale {scale})\n"
    );

    let hot = GenSpec::uniform(hot_tuples, 990).generate();
    let mut rows = Vec::new();
    for concurrent in [1usize, 2, 4, 8, 16] {
        let mut cyclotron = DataCyclotron::new(hot.clone()).hosts(hosts);
        for i in 0..concurrent {
            let s = GenSpec::uniform(query_tuples, 991 + i as u64).generate();
            // All queries arrive within the first few milliseconds, spread
            // over the hosts — maximum concurrency on one rotation.
            cyclotron = cyclotron.submit(QueryArrival::equi(
                SimDuration::from_micros(200 * i as u64),
                HostId(i % hosts),
                s,
            ));
        }
        let report = cyclotron.run().expect("cyclotron should run");
        rows.push(vec![
            concurrent.to_string(),
            secs(report.mean_latency()),
            secs(report.max_latency()),
            secs(report.ring.wall_clock.as_secs_f64()),
            report.fragment_count.to_string(),
        ]);
    }
    print_table(
        &[
            "concurrent queries",
            "mean latency [s]",
            "max latency [s]",
            "rotation [s]",
            "fragments",
        ],
        &rows,
    );

    let unloaded: f64 = rows[0][1].parse().unwrap();
    let loaded: f64 = rows[4][1].parse().unwrap();
    println!(
        "\nshape: latency is ≈1 revolution when unloaded ({unloaded:.3}s) and grows \
         with load ({loaded:.3}s at 16 queries) as every buffer visit carries more \
         join work — the shared-scan trade-off of the Data Cyclotron."
    );
    write_csv(
        "ext_cyclotron",
        &[
            "concurrent_queries",
            "mean_latency_s",
            "max_latency_s",
            "rotation_s",
            "fragments",
        ],
        &rows,
    );
}
