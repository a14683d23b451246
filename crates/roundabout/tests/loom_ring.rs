//! Model checking the live ring: exhaustive interleaving exploration of
//! the coordinator-driven channel run on the join pool.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (see `scripts/analyze.sh`),
//! where `data_roundabout::sync` resolves to the vendored loom checker's
//! instrumented primitives. The test runs the *actual*
//! [`data_roundabout::RingDriver`] backend under the model — the shared
//! coordinator feeding the sans-IO protocol core and firing its own
//! timers on the calling thread, and the `WorkerPool` every wall-clock
//! engine runs its joins on, handing completions back through the
//! channel engine's completion queue — so every schedule the
//! token-passing scheduler can produce is checked for lost envelopes,
//! double delivery, overlapping jobs of one host and deadlock.
//!
//! The reactor's completion hand-off (`Doorbell`) is crate-private; its
//! model test lives beside it in `src/reactor_backend.rs`.

#![cfg(loom)]

use data_roundabout::sync::atomic::{AtomicBool, Ordering};
use data_roundabout::{RingConfig, RingDriver};

/// The real threaded backend on a two-host ring, one fragment per host:
/// the coordinator on the model's main thread and the join pool's
/// threads (`min(hosts, cores)`), and every interleaving of their mutex,
/// condvar and atomic operations. Each host must see both fragments
/// exactly once in every schedule, and no two jobs of one host may
/// overlap: each visit raises its host's in-visit flag and fails if it
/// was already up.
///
/// Preemption bound 1 (instead of the default 2): three threads of real
/// protocol code explode combinatorially at 2, while bound 1 already
/// covers every schedule reachable through the blocking structure plus
/// one forced preemption at any point.
#[test]
fn two_host_ring_hand_off_is_exhaustively_correct() {
    let mut builder = loom::model::Builder::new();
    builder.preemption_bound = Some(1);
    builder.check(|| {
        let fragments: Vec<Vec<Vec<u8>>> = (0..2).map(|h| vec![vec![h as u8; 8]]).collect();
        let in_visit: Vec<AtomicBool> = (0..2).map(|_| AtomicBool::new(false)).collect();
        let (metrics, _) = RingDriver::new(&RingConfig::paper(2))
            .run(fragments, |h, _| {
                let overlapped = in_visit[h.0].swap(true, Ordering::SeqCst);
                assert!(!overlapped, "two jobs of host {} overlapped", h.0);
                in_visit[h.0].store(false, Ordering::SeqCst);
            })
            .unwrap();
        assert_eq!(metrics.fragments_completed, 2, "a fragment was lost");
        for host in &metrics.hosts {
            assert_eq!(
                host.fragments_processed, 2,
                "a host missed or double-processed an envelope"
            );
        }
    });
}
