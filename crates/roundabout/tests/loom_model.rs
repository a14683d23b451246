//! Self-tests of the vendored loom model checker (`third_party/loom`).
//!
//! These run in the ordinary (non-`--cfg loom`) test suite, so tier-1
//! continuously proves the checker itself works: that it *finds* classic
//! concurrency bugs (lost updates, deadlocks), that it *passes* correct
//! synchronization, and that it actually explores multiple schedules.
//! The ring-protocol models that build on this live in `loom_ring.rs`
//! and only compile under `RUSTFLAGS="--cfg loom"` (see
//! `scripts/analyze.sh`).
//!
//! The tests use the loom primitives directly (not the
//! `data_roundabout::sync` shim, which resolves to `std` in this
//! configuration — uninstrumented primitives must never be used inside
//! `loom::model`, the scheduler cannot see them).

use std::panic::{catch_unwind, AssertUnwindSafe};

use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::{Arc, Condvar, Mutex};
use loom::thread;

/// The canonical lost update: two threads doing unsynchronized
/// load-then-store increments. Some interleaving loses one increment,
/// and the checker must find it and fail the model.
#[test]
fn finds_the_lost_update() {
    let failure = catch_unwind(AssertUnwindSafe(|| {
        loom::model(|| {
            let count = Arc::new(AtomicUsize::new(0));
            let mut handles = Vec::new();
            for _ in 0..2 {
                let count = Arc::clone(&count);
                handles.push(thread::spawn(move || {
                    let seen = count.load(Ordering::SeqCst);
                    count.store(seen + 1, Ordering::SeqCst);
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(count.load(Ordering::SeqCst), 2, "an increment was lost");
        });
    }));
    let msg = match failure {
        Ok(()) => panic!("the model checker missed the lost update"),
        Err(payload) => *payload
            .downcast::<String>()
            .expect("model failure carries a message"),
    };
    assert!(
        msg.contains("an increment was lost"),
        "unexpected failure: {msg}"
    );
}

/// The same increment behind a mutex has no bad interleaving; the model
/// must complete (exhaustively) without failure.
#[test]
fn mutexed_increment_is_race_free() {
    loom::model(|| {
        let count = Arc::new(Mutex::new(0usize));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let count = Arc::clone(&count);
            handles.push(thread::spawn(move || {
                *count.lock().unwrap() += 1;
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*count.lock().unwrap(), 2);
    });
}

/// Condvar hand-off: the waiter re-checks its predicate under the lock,
/// so no interleaving (including notify-before-wait) deadlocks. A lost
/// wakeup would trip the checker's deadlock detector.
#[test]
fn condvar_handoff_completes() {
    loom::model(|| {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let waiter = {
            let pair = Arc::clone(&pair);
            thread::spawn(move || {
                let (flag, cv) = &*pair;
                let mut ready = flag.lock().unwrap();
                while !*ready {
                    ready = cv.wait(ready).unwrap();
                }
            })
        };
        let (flag, cv) = &*pair;
        *flag.lock().unwrap() = true;
        cv.notify_one();
        waiter.join().unwrap();
    });
}

/// AB-BA lock ordering: the checker must find the interleaving where
/// both threads hold one lock and block on the other, and report it as a
/// deadlock instead of hanging.
#[test]
fn detects_the_ab_ba_deadlock() {
    let failure = catch_unwind(AssertUnwindSafe(|| {
        loom::model(|| {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let t = {
                let a = Arc::clone(&a);
                let b = Arc::clone(&b);
                thread::spawn(move || {
                    let _ga = a.lock().unwrap();
                    let _gb = b.lock().unwrap();
                })
            };
            let _gb = b.lock().unwrap();
            let _ga = a.lock().unwrap();
            drop(_ga);
            drop(_gb);
            t.join().unwrap();
        });
    }));
    let msg = match failure {
        Ok(()) => panic!("the model checker missed the AB-BA deadlock"),
        Err(payload) => *payload
            .downcast::<String>()
            .expect("model failure carries a message"),
    };
    assert!(msg.contains("deadlock"), "unexpected failure: {msg}");
}

/// A bounded single-slot buffer (the shape of the ring's credit-based
/// buffer pools): producer blocks on full, consumer blocks on empty, and
/// every interleaving delivers both values in order.
#[test]
fn bounded_buffer_hand_off_is_exhaustively_correct() {
    loom::model(|| {
        let buf = Arc::new((Mutex::new(Vec::new()), Condvar::new(), Condvar::new()));
        let producer = {
            let buf = Arc::clone(&buf);
            thread::spawn(move || {
                let (slot, not_empty, not_full) = &*buf;
                for v in [1u8, 2] {
                    let mut q = slot.lock().unwrap();
                    while !q.is_empty() {
                        q = not_full.wait(q).unwrap();
                    }
                    q.push(v);
                    drop(q);
                    not_empty.notify_one();
                }
            })
        };
        let (slot, not_empty, not_full) = &*buf;
        let mut got = Vec::new();
        for _ in 0..2 {
            let mut q = slot.lock().unwrap();
            while q.is_empty() {
                q = not_empty.wait(q).unwrap();
            }
            got.extend(q.drain(..));
            drop(q);
            not_full.notify_one();
        }
        producer.join().unwrap();
        assert_eq!(got, vec![1, 2], "credit hand-off lost or reordered data");
    });
}

/// The shape of an acked hop's hand-off: a transmitter stamps monotone
/// per-link sequence numbers — retransmitting one envelope, as the
/// protocol core does on an ack timeout — and the receiver dedups on its
/// last-delivered sequence, as the core's transfer ledger does. Every
/// interleaving of the duplicate against the fresh envelope must deliver
/// each fragment exactly once, in order.
#[test]
fn driver_hand_off_dedups_retransmits_exactly_once() {
    loom::model(|| {
        let wire = Arc::new((Mutex::new(Vec::<(u64, u8)>::new()), Condvar::new()));
        let transmitter = {
            let wire = Arc::clone(&wire);
            thread::spawn(move || {
                let (slot, arrived) = &*wire;
                // seq 1 sent, timer fires, seq 1 retransmitted, seq 2 sent:
                // the same stamped envelope crosses the link twice.
                for (seq, payload) in [(1u64, 10u8), (1, 10), (2, 20)] {
                    slot.lock().unwrap().push((seq, payload));
                    arrived.notify_one();
                }
            })
        };
        let (slot, arrived) = &*wire;
        let mut last_seq = 0u64;
        let mut delivered = Vec::new();
        while delivered.len() < 2 {
            let mut q = slot.lock().unwrap();
            while q.is_empty() {
                q = arrived.wait(q).unwrap();
            }
            for (seq, payload) in q.drain(..) {
                // The receive-side dedup: advance only on fresh sequences.
                if seq == last_seq + 1 {
                    last_seq = seq;
                    delivered.push(payload);
                }
            }
        }
        transmitter.join().unwrap();
        assert_eq!(
            delivered,
            vec![10, 20],
            "retransmit dedup lost or duplicated"
        );
    });
}

/// The checker is not a single-schedule smoke test: a model with real
/// concurrency must be explored more than once.
#[test]
fn explores_multiple_schedules() {
    let executions = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let counter = std::sync::Arc::clone(&executions);
    loom::model(move || {
        counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let flag = Arc::new(AtomicUsize::new(0));
        let t = {
            let flag = Arc::clone(&flag);
            thread::spawn(move || flag.store(1, Ordering::SeqCst))
        };
        // Both orders of this load against the store must be explored.
        let _ = flag.load(Ordering::SeqCst);
        t.join().unwrap();
    });
    let explored = executions.load(std::sync::atomic::Ordering::SeqCst);
    assert!(
        explored >= 2,
        "expected at least 2 explored schedules, got {explored}"
    );
}
