//! The hash join's stationary state allocates a fixed set of arrays.
//!
//! A stationary state holds every partition's table in one set of arrays
//! (keys, payloads, and chain links followed by bucket heads) with two
//! offset tables, all written by one histogram pass and one scatter; so a
//! finer partitioning costs no allocation. A single-thread visit probes every partition
//! through one set of selection vectors on the stack and pushes straight
//! into the caller's collector. This file counts every heap request made
//! on the calling thread while one of them runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mem_joins::hash::{CacheParams, HashJoinState};
use mem_joins::{Algorithm, JoinCollector, JoinPredicate};
use relation::GenSpec;

/// The system allocator, counting the calls made on a thread that has
/// switched counting on.
struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    if COUNTING.with(Cell::get) {
        CALLS.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only
// const-initialised thread locals and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's layout, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's layout, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: the caller's pointer, layout and size, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's pointer and layout, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap requests `f` makes on this thread, and what it returns.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    CALLS.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    let out = std::hint::black_box(f());
    COUNTING.with(|c| c.set(false));
    (CALLS.with(Cell::get), out)
}

/// The stationary shape of `hash_uniform_reactor`: one host's 131 072
/// tuples of a 4-host ring.
const TUPLES: usize = 131_072;

#[test]
fn a_stationary_state_allocates_the_same_at_any_fan_out() {
    let rel = GenSpec::uniform(TUPLES, 1).generate();
    let params = CacheParams::default();
    let mut counts = Vec::new();
    for bits in [0, 1, 5, 8] {
        let (calls, state) = allocations(|| HashJoinState::build_with_bits(&rel, bits, &params));
        assert_eq!(state.len(), TUPLES);
        assert_eq!(state.bits(), bits);
        counts.push(calls);
    }
    assert_eq!(
        counts, [6; 4],
        "histogram, keys, payloads, chain links with bucket heads, two offset tables"
    );
}

#[test]
fn a_warm_hash_visit_over_wire_bytes_allocates_nothing() {
    let alg = Algorithm::partitioned_hash();
    let bits = alg.ring_radix_bits(TUPLES);
    assert_eq!(bits, 5);
    let state = alg.setup_stationary(&GenSpec::uniform(TUPLES, 2).generate(), bits, 1);
    let prepared = alg.prepare_fragment(&GenSpec::uniform(TUPLES / 4, 3).generate(), bits, 1);
    let fragment = mem_joins::wire::view(prepared.as_bytes()).expect("intact bytes");
    let mut collector = JoinCollector::aggregating();
    alg.join(&state, fragment, &JoinPredicate::Equi, 1, &mut collector);
    let warm = collector.count();
    assert!(warm > 0);
    let (calls, ()) =
        allocations(|| alg.join(&state, fragment, &JoinPredicate::Equi, 1, &mut collector));
    assert_eq!(collector.count(), 2 * warm);
    assert_eq!(calls, 0);
}
