//! The sort-merge path allocates only the buffers its results live in.
//!
//! A single-thread sort writes its run straight into the run's storage
//! through one scratch buffer, with its counting tables on the stack; the
//! stationary state adds its directory; and a single-thread merge or
//! visit pushes straight into the caller's collector, its hit vectors on
//! the stack. This file counts every heap request made on the calling
//! thread while one of them runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mem_joins::{merge_join, Algorithm, JoinCollector, JoinPredicate, SortMergeState, SortedRun};
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

/// The stationary shape of the band workload: keys below 2^16, so two
/// radix digits vary and the sort needs its scratch buffer.
const TUPLES: usize = 65_536;

#[test]
fn a_sort_allocates_its_scratch_and_its_two_columns() {
    let rel = GenSpec::uniform(TUPLES, 1).generate();
    let (calls, run) = allocations(|| SortedRun::sort(&rel, 1));
    assert!(run.as_relation().is_sorted_by_key());
    assert_eq!(calls, 3, "scratch, keys and payloads");
}

#[test]
fn a_prepared_run_allocates_its_scratch_and_its_bytes() {
    let rel = GenSpec::uniform(TUPLES, 2).generate();
    let (calls, prepared) = allocations(|| Algorithm::SortMerge.prepare_fragment(&rel, 0, 1));
    assert_eq!(prepared.len(), TUPLES);
    assert_eq!(calls, 2, "scratch and the wire bytes");
}

#[test]
fn a_merge_into_a_warm_collector_allocates_nothing() {
    let r = SortedRun::sort(&GenSpec::uniform(TUPLES / 4, 3).generate(), 1);
    let s = SortedRun::sort(&GenSpec::uniform(TUPLES, 4).generate(), 1);
    let mut collector = JoinCollector::aggregating();
    merge_join(&r, &s, 2, 1, &mut collector);
    let warm = collector.count();
    let (calls, ()) = allocations(|| merge_join(&r, &s, 2, 1, &mut collector));
    assert_eq!(collector.count(), 2 * warm);
    assert_eq!(calls, 0);
}

#[test]
fn a_stationary_state_allocates_the_sort_and_its_directory() {
    let rel = GenSpec::uniform(TUPLES, 5).generate();
    let (calls, state) = allocations(|| SortMergeState::build(&rel, 1));
    assert_eq!(state.len(), TUPLES);
    assert_eq!(calls, 4, "scratch, keys, payloads and the directory");
}

#[test]
fn a_warm_band_visit_over_wire_bytes_allocates_nothing() {
    let alg = Algorithm::SortMerge;
    let state = alg.setup_stationary(&GenSpec::uniform(TUPLES, 6).generate(), 0, 1);
    let prepared = alg.prepare_fragment(&GenSpec::uniform(TUPLES / 4, 7).generate(), 0, 1);
    let fragment = mem_joins::wire::view(prepared.as_bytes()).expect("intact bytes");
    let band = JoinPredicate::band(2);
    let mut collector = JoinCollector::aggregating();
    alg.join(&state, fragment, &band, 1, &mut collector);
    let warm = collector.count();
    assert!(warm > 0);
    let (calls, ()) = allocations(|| alg.join(&state, fragment, &band, 1, &mut collector));
    assert_eq!(collector.count(), 2 * warm);
    assert_eq!(calls, 0);
}
