//! A counting global allocator behind a switch.
//!
//! Timed rounds run with the switch off, where the only cost over the
//! system allocator is one relaxed load per call. A separate count pass
//! turns it on around a few runs to get `allocs_per_run`,
//! `alloc_mib_per_run` and `roundabout.protocol.allocs_per_input`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator plus, while switched on, a call and byte count.
pub struct CountingAlloc;

// Statistics only: the counters publish no other data, so `Relaxed`.
static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note(bytes: usize) {
    if ON.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's layout, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's layout, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's pointer, layout and size, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's pointer and layout, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Heap requests made while the switch was on, by every thread of the
/// process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocCounts {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub calls: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
}

fn read() -> AllocCounts {
    AllocCounts {
        calls: CALLS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// Runs `work` with the switch on and returns what it (and every thread
/// it started) requested. One count pass at a time: the counters are
/// process-wide.
pub fn counted<T>(work: impl FnOnce() -> T) -> (T, AllocCounts) {
    let before = read();
    ON.store(true, Ordering::Relaxed);
    let out = work();
    ON.store(false, Ordering::Relaxed);
    let after = read();
    (
        out,
        AllocCounts {
            calls: after.calls - before.calls,
            bytes: after.bytes - before.bytes,
        },
    )
}

/// Serializes the tests that flip the process-wide switch.
#[cfg(test)]
pub(crate) static TEST_SWITCH: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switched_off_adds_no_counts_and_switched_on_counts() {
        let _guard = TEST_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
        let before = read();
        let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(1024));
        drop(v);
        assert_eq!(read(), before, "the off path must not count");

        let (_, counts) = counted(|| {
            let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(1024));
            drop(v);
        });
        assert!(counts.calls >= 1);
        assert!(counts.bytes >= 8 * 1024);
    }
}
