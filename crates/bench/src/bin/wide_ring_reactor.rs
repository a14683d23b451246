//! Exhibit — wide loopback rings on the reactor backend.
//!
//! The blocking TCP driver dedicates OS threads to every connection (a
//! reader and a writer per mesh endpoint), so ring width buys threads
//! before it buys bandwidth — the resource-dedication anti-pattern the
//! shared-nothing multicore paper warns against. The reactor driver owns
//! every socket from one event loop; both run join work on the join pool
//! sized to the machine's cores, so the reactor's thread count is
//! bounded *independently of ring width*.
//!
//! This exhibit runs a full classic revolution at increasing widths on
//! the reactor (up to 64 hosts, plus a 256-host smoke row), with the
//! blocking TCP driver alongside at the small widths it can reach, and
//! records the peak process thread count (`Threads:` from
//! `/proc/self/status`, sampled from inside the join visits where it
//! peaks) next to the revolution throughput. Each row first waits for the
//! previous row's threads to exit, so its peak counts its own. The
//! `threads` column is the whole point: it grows with width on the
//! blocking driver and stays flat on the reactor.
//!
//! ```text
//! cargo run --release -p cyclo-bench --bin wide_ring_reactor
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cyclo_bench::{print_table, secs, write_csv};
use data_roundabout::{HostId, ReactorRingDriver, RingConfig, TcpRingDriver};

/// The process's current thread count, from `/proc/self/status`; 0 when
/// the proc filesystem is unavailable (non-Linux).
fn current_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// Waits, up to 200 ms, until no more than `baseline` threads are left:
/// threads of a finished run may still be exiting when it returns.
fn settle(baseline: usize) {
    for _ in 0..200 {
        if current_threads() <= baseline {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn payloads(hosts: usize, per_host: usize, bytes: usize) -> Vec<Vec<Vec<u8>>> {
    (0..hosts)
        .map(|_| (0..per_host).map(|_| vec![0u8; bytes]).collect())
        .collect()
}

/// One classic revolution on `backend`, once the process is back to
/// `baseline` threads, returning the exhibit row.
fn run_width(
    backend: &str,
    baseline: usize,
    hosts: usize,
    per_host: usize,
    bytes: usize,
) -> Vec<String> {
    settle(baseline);
    let config = RingConfig::paper(hosts);
    let peak = AtomicUsize::new(current_threads());
    let visits = AtomicUsize::new(0);
    // Sample the thread count sparsely from inside the visits, where
    // every driver thread is alive; the baseline read above catches the
    // quiescent count.
    let visit = |_h: HostId, _p: &Vec<u8>| {
        if visits.fetch_add(1, Ordering::Relaxed).is_multiple_of(16) {
            peak.fetch_max(current_threads(), Ordering::Relaxed);
        }
    };
    let started = Instant::now();
    let outcome = match backend {
        "reactor" => ReactorRingDriver::new(&config).run(payloads(hosts, per_host, bytes), visit),
        _ => TcpRingDriver::new(&config).run(payloads(hosts, per_host, bytes), visit),
    };
    let wall = started.elapsed().as_secs_f64();
    let (completed, fragments) = match &outcome {
        Ok((metrics, _)) => (
            metrics.fragments_completed == hosts * per_host,
            metrics.fragments_completed,
        ),
        Err(e) => {
            eprintln!("{backend} @ {hosts} hosts failed: {e}");
            (false, 0)
        }
    };
    vec![
        backend.to_string(),
        hosts.to_string(),
        fragments.to_string(),
        format!("{bytes}"),
        secs(wall),
        format!("{:.1}", fragments as f64 / wall.max(1e-9)),
        peak.load(Ordering::Relaxed).to_string(),
        if completed { "yes".into() } else { "NO".into() },
    ]
}

fn main() {
    let baseline = current_threads();
    println!(
        "Exhibit — wide loopback rings: one event loop vs two blocking threads per \
         connection endpoint (baseline process threads: {baseline})\n"
    );

    let mut rows = Vec::new();
    // Head-to-head at the widths the blocking driver reaches comfortably.
    for hosts in [4usize, 8, 16] {
        rows.push(run_width("tcp", baseline, hosts, 2, 1024));
        rows.push(run_width("reactor", baseline, hosts, 2, 1024));
    }
    // Widths only the reactor is expected to take in stride: the blocking
    // driver's full mesh would need 2 × (hosts − 1) threads per host here.
    for hosts in [32usize, 64] {
        rows.push(run_width("reactor", baseline, hosts, 2, 1024));
    }
    // 256-host smoke: one tiny fragment per host, neighbor-only mesh.
    rows.push(run_width("reactor", baseline, 256, 1, 64));

    let header = [
        "backend",
        "hosts",
        "fragments",
        "bytes/frag",
        "wall [s]",
        "rev/s",
        "peak threads",
        "completed",
    ];
    print_table(&header, &rows);

    let widest_reactor = rows
        .iter()
        .filter(|r| r[0] == "reactor" && r[1] == "64")
        .map(|r| r[6].clone())
        .next()
        .unwrap_or_default();
    println!(
        "\nshape: the reactor's peak thread count ({widest_reactor} at 64 hosts) is the \
         event loop plus the core-bounded join pool — it does not grow with ring width, \
         while the blocking driver adds a reader and a writer per connection endpoint."
    );

    write_csv(
        "wide_ring_reactor",
        &[
            "backend",
            "hosts",
            "fragments_completed",
            "bytes_per_fragment",
            "wall_s",
            "revolutions_per_s",
            "peak_threads",
            "completed",
        ],
        &rows,
    );

    assert!(
        rows.iter().all(|r| r[7] == "yes"),
        "every width must complete its revolution"
    );
}
