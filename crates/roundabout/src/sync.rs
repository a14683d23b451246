//! Synchronization shim: `std::sync` in production, `loom` under model
//! checking.
//!
//! The join pool every wall-clock engine runs its joins on
//! (`wall_clock::WorkerPool`), the channel engine's completion queue and
//! the reactor's completion hand-off reach every mutex, condvar, atomic
//! and thread through this module instead of `std` directly. Compiled normally, everything re-exports the `std` primitive
//! it names (zero cost). Compiled with `RUSTFLAGS="--cfg loom"`, the same
//! names resolve to the vendored loom model checker's instrumented
//! primitives, so `loom::model` can exhaustively explore the
//! interleavings of the real ring code — the coordinator and the join
//! pool of the channel engine that ships, not a test-only
//! re-implementation (see `tests/loom_ring.rs`).

#[cfg(not(loom))]
pub use std::sync::{Condvar, Mutex, MutexGuard};

#[cfg(loom)]
pub use loom::sync::{Condvar, Mutex, MutexGuard};

/// Model-aware atomics (instrumented `SeqCst` under loom).
pub mod atomic {
    #[cfg(not(loom))]
    pub use std::sync::atomic::{AtomicBool, Ordering};

    #[cfg(loom)]
    pub use loom::sync::atomic::{AtomicBool, Ordering};
}

/// Model-aware scoped threads; `scope` accepts the same closures under
/// both backends (std passes `&Scope`, loom a `Copy` `Scope` — call sites
/// are agnostic).
///
/// **Join every scoped thread explicitly before the scope closes.** Under
/// loom `scope` is `std::thread::scope`, whose implicit join at scope exit
/// parks the model thread on a real futex, outside the model's scheduler:
/// a spawned thread that still needs the scheduler's token then never
/// gets it, and the model hangs with every thread idle. An explicit
/// `join` is a scheduling point the model sees.
pub mod thread {
    #[cfg(not(loom))]
    pub use std::thread::scope;

    #[cfg(loom)]
    pub use loom::thread::scope;
}
