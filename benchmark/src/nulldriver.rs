//! A benchmark-owned in-memory driver for the sans-IO protocol core: it
//! applies every `Output` at once, on a quiet medium, in FIFO order, so
//! what is timed is `RingProtocol::input` and nothing a real driver adds.

use std::collections::VecDeque;
use std::time::Instant;

use data_roundabout::protocol::{
    envelope_batches, query_batches, Input, Output, ProtocolConfig, RingProtocol,
};
use data_roundabout::HostId;

use crate::alloc::{self, AllocCounts};

/// The ring the protocol metrics are taken on: the `smallfrag_*` shape
/// with zero-byte payloads.
pub const HOSTS: usize = 8;
/// Envelopes originating at each host.
pub const ENVELOPES_PER_HOST: usize = 32;
/// Queries of the multiplexed variant.
pub const QUERIES: usize = 8;
/// Its admission bound.
pub const MAX_ACTIVE: usize = 4;

/// What one drive to completion did.
#[derive(Debug, Clone, Copy)]
pub struct NullRun {
    /// Calls to `RingProtocol::input`.
    pub inputs: u64,
    /// `StartJoin` outputs, one per (host, envelope) visit.
    pub visits: u64,
    /// Envelopes that completed their revolution.
    pub retired: usize,
    /// Envelopes the ring was built with.
    pub envelopes: usize,
    /// Seconds spent feeding inputs and applying outputs.
    pub seconds: f64,
    /// Heap requests made in that time.
    pub allocs: AllocCounts,
}

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

fn payloads(per_host: usize) -> Vec<Vec<Vec<u8>>> {
    vec![vec![Vec::new(); per_host]; HOSTS]
}

/// The single-query ring: `RingProtocol::new`, classic transport.
pub fn single() -> RingProtocol<Vec<u8>> {
    RingProtocol::new(
        config(false),
        envelope_batches(payloads(ENVELOPES_PER_HOST), HOSTS),
    )
}

/// The same envelopes split over [`QUERIES`] queries through
/// `RingProtocol::new_multi` (which requires the reliable transport).
pub fn multi() -> RingProtocol<Vec<u8>> {
    let queries = (0..QUERIES as u32)
        .map(|q| (q, payloads(ENVELOPES_PER_HOST / QUERIES)))
        .collect();
    RingProtocol::new_multi(config(true), query_batches(queries, HOSTS), MAX_ACTIVE)
}

/// Drives `proto` until no input is pending. Retransmission timers are
/// armed and never fire: every attempt arrives intact.
///
/// # Panics
///
/// Panics when the protocol asks for a teardown — a quiet medium gives
/// it no reason to.
pub fn drive(mut proto: RingProtocol<Vec<u8>>) -> NullRun {
    let reliable = proto.config().reliable;
    let envelopes = proto.fragments_total();
    // Sized up front so the queue's own growth is not counted against
    // the protocol.
    let mut pending: VecDeque<Input<Vec<u8>>> = VecDeque::with_capacity(4 * envelopes + HOSTS);
    pending.extend((0..HOSTS).map(|h| Input::SetupDone { host: HostId(h) }));
    let (mut inputs, mut visits) = (0u64, 0u64);
    let start = Instant::now();
    let ((), allocs) = alloc::counted(|| {
        while let Some(input) = pending.pop_front() {
            inputs += 1;
            for output in proto.input(input) {
                match output {
                    Output::StartJoin { host, .. } => {
                        visits += 1;
                        pending.push_back(Input::JoinDone {
                            host,
                            app_finished: false,
                        });
                    }
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
                    Output::Teardown { reason } => panic!("null driver: teardown: {reason}"),
                    _ => {}
                }
            }
        }
    });
    NullRun {
        inputs,
        visits,
        retired: proto.fragments_completed(),
        envelopes,
        seconds: start.elapsed().as_secs_f64(),
        allocs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_null_driver_retires_every_envelope_on_both_paths() {
        let _guard = alloc::TEST_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
        for (proto, name) in [(single(), "single"), (multi(), "multi")] {
            let run = drive(proto);
            assert_eq!(run.envelopes, HOSTS * ENVELOPES_PER_HOST, "{name}");
            assert_eq!(run.retired, run.envelopes, "{name}: every envelope retires");
            assert_eq!(run.visits as usize, run.envelopes * HOSTS, "{name}: visits");
            assert!(run.inputs > run.visits, "{name}");
        }
    }

    #[test]
    fn the_input_count_repeats_exactly() {
        let _guard = alloc::TEST_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(drive(single()).inputs, drive(single()).inputs);
        assert_eq!(drive(multi()).inputs, drive(multi()).inputs);
    }
}
