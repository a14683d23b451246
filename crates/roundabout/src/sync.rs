//! Synchronization shim: `std::sync` in production, `loom` under model
//! checking.
//!
//! The threaded backend and its tests reach every mutex, condvar, atomic
//! and thread through this module instead of `std` directly. Compiled
//! normally, everything re-exports the `std` primitive it names (zero
//! cost). Compiled with `RUSTFLAGS="--cfg loom"`, the same names resolve
//! to the vendored loom model checker's instrumented primitives, so
//! `loom::model` can exhaustively explore the interleavings of the real
//! ring code — the coordinator and per-host workers of the channel engine
//! that ships, not a test-only re-implementation (see
//! `tests/loom_ring.rs`).
//!
//! [`mpmc`] is the channel those threads talk through: each host's job
//! queue and the coordinator's event queue. It is
//! deliberately built *on the shim's own* mutex + condvar (rather than
//! crossbeam) so that under loom the checker schedules every channel
//! operation too: a channel is just a lock-and-wait protocol. (The
//! paper's credit-based flow control is the protocol core's, the same on
//! every backend.)

#[cfg(not(loom))]
pub use std::sync::{Arc, Condvar, Mutex, MutexGuard};

#[cfg(loom)]
pub use loom::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Model-aware atomics (instrumented `SeqCst` under loom).
pub mod atomic {
    #[cfg(not(loom))]
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

    #[cfg(loom)]
    pub use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

/// Model-aware threads; `scope` accepts the same closures under both
/// backends (std passes `&Scope`, loom a `Copy` `Scope` — call sites are
/// agnostic).
///
/// **Join every scoped thread explicitly before the scope closes.** Under
/// loom `scope` is `std::thread::scope`, whose implicit join at scope exit
/// parks the model thread on a real futex, outside the model's scheduler:
/// a spawned thread that still needs the scheduler's token then never
/// gets it, and the model hangs with every thread idle. An explicit
/// `join` is a scheduling point the model sees.
pub mod thread {
    #[cfg(not(loom))]
    pub use std::thread::{scope, spawn, yield_now};

    #[cfg(loom)]
    pub use loom::thread::{scope, spawn, yield_now};
}

/// Multi-producer multi-consumer channels on the shim's mutex + condvar.
///
/// The API mirrors the `crossbeam::channel` subset the channel engine
/// uses: the [`unbounded`] constructor, a send that never blocks,
/// blocking [`Receiver::recv`], deadline-bounded
/// [`Receiver::recv_timeout`], draining [`Receiver::iter`], and
/// disconnect-on-last-drop semantics on both endpoints.
pub mod mpmc {
    use std::collections::VecDeque;

    use super::{Arc, Condvar, Mutex};

    /// Receiving on an empty channel with no senders left.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Sending on a channel with no receivers left; returns the value.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Why [`Receiver::recv_timeout`] returned nothing.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The deadline passed with nothing queued.
        Timeout,
        /// Nothing queued and every sender is gone.
        Disconnected,
    }

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
    }

    impl<T> Chan<T> {
        fn lock(&self) -> super::MutexGuard<'_, State<T>> {
            // A sender/receiver thread that panicked mid-operation must
            // not take the whole channel down with poison.
            self.state.lock().unwrap_or_else(|p| p.into_inner())
        }
    }

    /// The sending side; clonable, disconnects when the last clone drops.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// The receiving side; clonable, disconnects when the last clone
    /// drops.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// A channel without a capacity bound; `send` never blocks. (The
    /// ring's buffer credit is the protocol core's, not the channel's.)
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
        });
        (
            Sender {
                chan: Arc::clone(&chan),
            },
            Receiver { chan },
        )
    }

    impl<T> Sender<T> {
        /// Queues `value`; fails once every receiver is gone.
        ///
        /// # Errors
        ///
        /// [`SendError`] returning the unsent value when the channel is
        /// disconnected.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.chan.lock();
            if state.receivers == 0 {
                return Err(SendError(value));
            }
            state.queue.push_back(value);
            drop(state);
            self.chan.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.lock().senders += 1;
            Sender {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.chan.lock();
            state.senders = state.senders.saturating_sub(1);
            let gone = state.senders == 0;
            drop(state);
            if gone {
                // Blocked receivers must observe the disconnect.
                self.chan.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message or disconnect.
        ///
        /// # Errors
        ///
        /// [`RecvError`] when the channel is empty with no senders left.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.chan.lock();
            loop {
                if let Some(v) = state.queue.pop_front() {
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self
                    .chan
                    .not_empty
                    .wait(state)
                    .unwrap_or_else(|p| p.into_inner());
            }
        }

        /// Blocks up to `timeout` for a message.
        ///
        /// Under loom this is an ordinary [`Receiver::recv`]: model time
        /// has no clock, and liveness is the deadlock detector's job, so
        /// a timeout never fires. Model-checked protocols must therefore
        /// not *rely* on timeouts for progress (the reliable transport's
        /// retransmission timer is exercised by the chaos suite instead).
        ///
        /// # Errors
        ///
        /// [`RecvTimeoutError::Timeout`] on deadline,
        /// [`RecvTimeoutError::Disconnected`] when the channel is empty
        /// with no senders left.
        #[cfg(not(loom))]
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            let deadline = std::time::Instant::now().checked_add(timeout);
            let mut state = self.chan.lock();
            loop {
                if let Some(v) = state.queue.pop_front() {
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let remaining = deadline
                    .map(|d| d.saturating_duration_since(std::time::Instant::now()))
                    .unwrap_or(std::time::Duration::MAX);
                if remaining.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _timed_out) = self
                    .chan
                    .not_empty
                    .wait_timeout(state, remaining)
                    .unwrap_or_else(|p| p.into_inner());
                state = guard;
            }
        }

        /// See the non-loom variant: under the model checker a timed wait
        /// degrades to a plain blocking [`Receiver::recv`].
        #[cfg(loom)]
        pub fn recv_timeout(&self, _timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            self.recv()
                .map_err(|RecvError| RecvTimeoutError::Disconnected)
        }

        /// Blocking iterator: yields until the channel disconnects.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { receiver: self }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.chan.lock().receivers += 1;
            Receiver {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            // No sender ever blocks: the next send sees the disconnect.
            let mut state = self.chan.lock();
            state.receivers = state.receivers.saturating_sub(1);
        }
    }

    /// Iterator returned by [`Receiver::iter`].
    pub struct Iter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }
}
