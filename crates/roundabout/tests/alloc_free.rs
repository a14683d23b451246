//! A protocol input allocates nothing once the ring is warm.
//!
//! `RingProtocol::input_into` appends to a sink the driver owns, and the
//! multi-tenant send pick fills scratch vectors the protocol keeps, so a
//! driver that reuses one sink pays no allocation per input. What is left
//! is the protocol's own state reaching its high-water mark: the per-host
//! incoming and outgoing queues (and the output sink) growing to their
//! deepest, the reliable ledger's first tree node and its accepted-transfer
//! set rehashing as it grows. This file counts every heap request made on
//! the driving thread while three rings of the `smallfrag` shape (8 hosts
//! × 32 zero-byte fragments, 2 buffers per host) run to completion, and
//! holds each under one allocation per hundred inputs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

use data_roundabout::protocol::{
    envelope_batches, query_batches, Input, Output, ProtocolConfig, RingProtocol,
};
use data_roundabout::HostId;

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

const HOSTS: usize = 8;
const PER_HOST: usize = 32;

fn config(reliable: bool) -> ProtocolConfig {
    ProtocolConfig {
        hosts: HOSTS,
        buffers_per_host: 2,
        max_retransmits: 4,
        continuous: false,
        reliable,
        standby: 0,
    }
}

/// Zero-byte payloads: cloning one allocates nothing, so every count
/// below is the protocol's.
fn payloads(per_host: usize) -> Vec<Vec<Vec<u8>>> {
    vec![vec![Vec::new(); per_host]; HOSTS]
}

/// Drives `proto` to completion on a quiet medium, in FIFO order, feeding
/// every input through `input_into` with one reused sink. Returns the
/// inputs fed and the heap requests made meanwhile.
fn drive(mut proto: RingProtocol<Vec<u8>>) -> (u64, u64) {
    let reliable = proto.config().reliable;
    let envelopes = proto.fragments_total();
    // The driver's own queue is sized up front: only the protocol counts.
    let mut pending: VecDeque<Input<Vec<u8>>> = VecDeque::with_capacity(4 * envelopes + HOSTS);
    pending.extend((0..HOSTS).map(|h| Input::SetupDone { host: HostId(h) }));
    let mut sink = Vec::new();
    let mut inputs = 0u64;
    CALLS.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    while let Some(input) = pending.pop_front() {
        inputs += 1;
        proto.input_into(input, &mut sink);
        for output in sink.drain(..) {
            match output {
                Output::StartJoin { host, .. } => pending.push_back(Input::JoinDone {
                    host,
                    app_finished: false,
                }),
                Output::Send {
                    from, to, tid, env, ..
                } => {
                    if reliable {
                        proto.attempt_fate(tid, false, false);
                    }
                    pending.push_back(Input::SendDone { from });
                    pending.push_back(Input::Delivered { to, env, tid });
                }
                Output::Ack { tid, .. } => pending.push_back(Input::Ack { tid }),
                Output::Teardown { reason } => panic!("teardown on a quiet medium: {reason}"),
                _ => {}
            }
        }
    }
    COUNTING.with(|c| c.set(false));
    let allocs = CALLS.with(Cell::get);
    assert_eq!(
        proto.fragments_completed(),
        envelopes,
        "every fragment retires"
    );
    (inputs, allocs)
}

fn assert_alloc_free(name: &str, proto: RingProtocol<Vec<u8>>) {
    let (inputs, allocs) = drive(proto);
    assert!(inputs > 5_000, "{name}: a full smallfrag revolution");
    assert!(
        allocs * 100 < inputs,
        "{name}: {allocs} allocations over {inputs} inputs — at least one per hundred"
    );
}

#[test]
fn a_classic_ring_input_allocates_nothing() {
    let proto = RingProtocol::new(config(false), envelope_batches(payloads(PER_HOST), HOSTS));
    assert_alloc_free("classic", proto);
}

#[test]
fn a_reliable_ring_input_on_quiet_dice_allocates_nothing() {
    let proto = RingProtocol::new(config(true), envelope_batches(payloads(PER_HOST), HOSTS));
    assert_alloc_free("reliable", proto);
}

#[test]
fn a_multi_tenant_ring_input_allocates_nothing() {
    let queries = (0..8u32).map(|q| (q, payloads(PER_HOST / 8))).collect();
    let proto = RingProtocol::new_multi(config(true), query_batches(queries, HOSTS), 4);
    assert_alloc_free("multi-tenant", proto);
}
