//! Model checking the live ring: exhaustive interleaving exploration of
//! the coordinator-driven channel run, the teardown wave of the
//! `sync::mpmc` channels, and the role-takeover ledger.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (see `scripts/analyze.sh`),
//! where `data_roundabout::sync` resolves to the vendored loom checker's
//! instrumented primitives. The headline test runs the *actual*
//! [`data_roundabout::RingDriver`] backend under the model — the shared
//! coordinator feeding the sans-IO protocol core and firing its own
//! timers on the calling thread, and a join worker per host, talking
//! through job and event channels — so every schedule the token-passing
//! scheduler can produce is checked for lost envelopes, double delivery
//! and deadlock.

#![cfg(loom)]

use data_roundabout::sync::atomic::{AtomicU64, Ordering};
use data_roundabout::sync::{mpmc, thread, Arc};
use data_roundabout::{RingConfig, RingDriver};

/// The real threaded backend on a two-host ring, one fragment per host:
/// three threads (the coordinator on the model's main thread and two join
/// workers) and every interleaving of their channel and mutex operations.
/// Each host must see both fragments exactly once in every schedule.
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
        let (metrics, _) = RingDriver::new(&RingConfig::paper(2))
            .run(fragments, |_, _| {})
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

/// The teardown wave: a receiver blocked on an empty channel must
/// observe its last sender's death as a disconnect, not sleep forever —
/// this is how worker death propagates to the coordinator without leaving
/// it blocked.
#[test]
fn teardown_unblocks_a_blocked_receiver() {
    loom::model(|| {
        let (tx, rx) = mpmc::unbounded::<u8>();
        let producer = thread::spawn(move || {
            tx.send(7).unwrap();
            // tx drops here: the ring predecessor is gone.
        });
        assert_eq!(rx.recv(), Ok(7));
        assert!(rx.recv().is_err(), "disconnect must end the stream");
        producer.join().unwrap();
    });
}

/// The planned-drain scenario on the two-host ring: host B drains
/// gracefully — it flushes the credit hand-off it still owes A through
/// A's event channel, then publishes its role at the
/// rendezvous — while A's drain-deadline escalation fires concurrently
/// and tries to seize the same role through the crash-healing path. In
/// every interleaving the owed envelope must arrive exactly once and
/// the role must land exactly once: a drain racing ahead of the credit
/// hand-off must not strand the envelope, and an escalation racing the
/// rendezvous must lose the compare-exchange, not double-claim.
#[test]
fn drain_handoff_racing_escalation_claims_the_role_once() {
    loom::model(|| {
        let (tx_a, rx_a) = mpmc::unbounded::<u8>(); // host A's event channel
        let ledger = Arc::new(AtomicU64::new(0)); // bit r = role r claimed
        let bit = 1u64 << 1; // host B's role, leaving with it

        // Host B's farewell duties, in protocol order: credit hand-off
        // first, role hand-off second.
        let ledger_b = Arc::clone(&ledger);
        let b = thread::spawn(move || {
            tx_a.send(42).unwrap();
            claim_role(&ledger_b, bit)
        });
        // Host A's escalation path, racing the rendezvous.
        let ledger_a = Arc::clone(&ledger);
        let a = thread::spawn(move || claim_role(&ledger_a, bit));

        // Host A as receiver: the owed fragment arrives exactly once no
        // matter which claimant won the role.
        assert_eq!(rx_a.recv(), Ok(42), "the drain stranded its last envelope");
        let handoff = b.join().unwrap();
        let escalation = a.join().unwrap();
        assert!(
            handoff ^ escalation,
            "the drained role must land exactly once (handoff {handoff}, escalation {escalation})"
        );
        assert!(rx_a.recv().is_err(), "the drained host must stay gone");
    });
}

/// The compare-exchange claim loop both the rendezvous hand-off and the
/// escalation path run against the shared role ledger: returns whether
/// this claimant won the role.
fn claim_role(ledger: &AtomicU64, bit: u64) -> bool {
    loop {
        let seen = ledger.load(Ordering::SeqCst);
        if seen & bit != 0 {
            return false;
        }
        match ledger.compare_exchange(seen, seen | bit, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => return true,
            Err(_) => continue,
        }
    }
}

/// The mid-revolution healing invariant: when two survivors race to take
/// over a dead host's logical role, the ledger must admit exactly one —
/// in every interleaving. This is the compare-exchange claim protocol the
/// simulated backend's role ledger relies on for its exactly-once
/// guarantee.
#[test]
fn role_takeover_is_exactly_once() {
    loom::model(|| {
        let ledger = Arc::new(AtomicU64::new(0)); // bit r = role r claimed
        let dead_role = 1u64;
        let mut survivors = Vec::new();
        for _ in 0..2 {
            let ledger = Arc::clone(&ledger);
            survivors.push(thread::spawn(move || {
                let bit = 1u64 << dead_role;
                loop {
                    let seen = ledger.load(Ordering::SeqCst);
                    if seen & bit != 0 {
                        return false; // someone else already owns the role
                    }
                    match ledger.compare_exchange(
                        seen,
                        seen | bit,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    ) {
                        Ok(_) => return true,
                        Err(_) => continue, // raced; re-read the ledger
                    }
                }
            }));
        }
        let winners = survivors
            .into_iter()
            .map(|s| s.join().unwrap())
            .filter(|&won| won)
            .count();
        assert_eq!(winners, 1, "a role was taken over {winners} times");
    });
}
