//! The loopback-TCP backend: the ring over real kernel sockets.
//!
//! This is the blocking socket engine behind [`TcpRingDriver`]. The shared
//! `Coordinator` owns the protocol and decides *what* happens; this file
//! only provides the `Medium` that makes it happen on `std::net` TCP
//! streams, speaking the wire format of [`crate::frame`]:
//!
//! * **Threads per hop** — each endpoint of a connection gets a reader
//!   thread (socket → [`FrameDecoder`] → `Event::Frame`; envelope
//!   payloads land in buffers from the ring's shared `FrameBufPool`, are
//!   checked there, and *are* the received payload from then on) and a
//!   writer thread (frame queue → vectored write of each frame's fresh
//!   header and shared payload bytes, up to `MAX_WRITE_BATCH` frames per
//!   syscall). A fragment prepared in its wire form is sent from the
//!   bytes it was written in; any other payload is encoded only at its
//!   origin, on the coordinator thread, on its first attempt (see
//!   [`crate::frame`]). Per-host join workers complete the cast; the
//!   coordinator runs on the calling thread, fires its own timers there,
//!   and is the only place protocol state mutates.
//! * **Backpressure** — the protocol's credit accounting gates every
//!   send; the wire-free credit (`Event::SendDone`) is reported only
//!   after the write returned, so a full kernel socket buffer holds the
//!   protocol's send credit exactly like a busy NIC.
//! * **Faults** — the coordinator rolls the [`FaultPlan`] dice: dropped
//!   attempts never reach this medium, corrupted attempts cross the socket
//!   with a flipped checksum. A scheduled crash severs the host's
//!   outgoing connections with a real FIN, so mid-revolution ring healing
//!   runs over actual sockets.
//!
//! The crash sever is deliberately a *write-side* shutdown queued behind
//! the host's pending frames: the driver contract says an attempt whose
//! fate was already reported as live must still arrive, so the FIN goes
//! out only after those bytes flushed. The dead host's read side stays
//! open — frames already in flight toward it reach the protocol's salvage
//! path, exactly as on the simulator's medium.
//!
//! Wall-clock differences from the simulator are expected (real sockets,
//! real threads); the per-host retransmit/checksum *counters* are not —
//! the four-way parity suite pins them to the other backends. A fault
//! plan's `slow_host` factor is ignored here: the join callback's real
//! execution time governs.

use std::io::{ErrorKind, Read};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use simnet::fault::{FaultPlan, RescalePlan};
use simnet::span::SpanTracer;
use simnet::time::{SimDuration, SimTime};
use simnet::topology::HostId;

use crate::config::RingConfig;
use crate::coordinator::{Coordinator, Event, Job, Medium, Pending, Recv, Sent, Workload};
use crate::envelope::Envelope;
use crate::error::RingError;
use crate::frame::{
    build_mesh_pairs, mesh_seed, socket_err, write_parts_vectored, FrameBufPool, FrameDecoder,
    OutFrame, WirePayload, MAX_WRITE_BATCH,
};
use crate::inflight::{map_payloads, Batches, InFlight, Visit};
use crate::metrics::RingMetrics;
use crate::protocol::teardown;
use crate::wall_clock::{worker_loop, WallClock, WallClockDriver, WallClockEngine};

pub use crate::frame::{encode_envelope_into, write_frames_vectored};

// ---------------------------------------------------------------------------
// Per-endpoint threads
// ---------------------------------------------------------------------------

/// Work for a writer thread. `Sever` queues *behind* pending frames, so a
/// crash's FIN goes out only after every already-committed byte flushed.
enum WriteJob<P> {
    Frame {
        frame: OutFrame<P>,
        delay: Duration,
        notify: Option<HostId>,
    },
    Sever,
}

type WriterGrid<P> = Vec<Vec<Option<Sender<WriteJob<P>>>>>;

/// One timed receive on a `std::sync::mpsc` channel, in the coordinator's
/// channel-agnostic shape.
fn recv_from<T>(rx: &Receiver<T>, wait: Duration) -> Recv<T> {
    match rx.recv_timeout(wait) {
        Ok(item) => Recv::Item(item),
        Err(RecvTimeoutError::Timeout) => Recv::Timeout,
        Err(RecvTimeoutError::Disconnected) => Recv::Closed,
    }
}

/// Reads `stream` into frames for host `at` until EOF, a read error or a
/// frame error. An interrupted read is retried, as the `Read` contract
/// asks; any other error means the connection is gone.
fn reader_loop<P: WirePayload>(
    mut stream: impl Read,
    at: HostId,
    events: Sender<Event<P>>,
    pool: Arc<FrameBufPool>,
) {
    let mut decoder = FrameDecoder::with_pool(pool);
    let mut chunk = [0u8; 16 * 1024];
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        decoder.feed(chunk.get(..n).unwrap_or_default());
        loop {
            match decoder.next_in_flight::<P>() {
                Ok(Some(frame)) => {
                    if events.send(Event::Frame { at, frame }).is_err() {
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    let _ = events.send(Event::Fatal(RingError::Frame(e)));
                    return;
                }
            }
        }
    }
}

fn writer_loop<P>(stream: TcpStream, jobs: Receiver<WriteJob<P>>, events: Sender<Event<P>>) {
    let mut stream = stream;
    // A job the batching peek pulled off the queue but could not batch
    // (a delayed frame or a sever); handled on the next iteration so
    // FIFO order is preserved.
    let mut carry: Option<WriteJob<P>> = None;
    // The frames of one vectored submission with their send credits;
    // emptied after each, its capacity kept for the next (and never
    // allocated on the idle lanes of a full mesh).
    let mut batch: Vec<(OutFrame<P>, Option<HostId>)> = Vec::new();
    loop {
        let job = match carry.take() {
            Some(job) => job,
            None => match jobs.recv() {
                Ok(job) => job,
                Err(_) => return,
            },
        };
        match job {
            WriteJob::Frame {
                frame,
                delay,
                notify,
            } => {
                if !delay.is_zero() {
                    // A fault-plan delay spike: the frame dawdles on the
                    // medium (and, FIFO queue, delays what's behind it).
                    thread::sleep(delay);
                }
                // Batch whatever undelayed frames are already queued
                // behind this one into a single vectored submission.
                batch.push((frame, notify));
                while batch.len() < MAX_WRITE_BATCH {
                    match jobs.try_recv() {
                        Ok(WriteJob::Frame {
                            frame,
                            delay,
                            notify,
                        }) if delay.is_zero() => batch.push((frame, notify)),
                        Ok(job) => {
                            carry = Some(job);
                            break;
                        }
                        Err(_) => break,
                    }
                }
                // A blocked write on a full socket buffer IS the
                // backpressure: the wire-free credits below are withheld
                // until the kernel accepted every byte. A write error
                // means the peer is gone — the frames are lost on the
                // medium and the reliable transport's timeout repairs
                // them.
                let parts = batch.iter().flat_map(|(frame, _)| frame.parts());
                let _ = write_parts_vectored(&mut stream, parts);
                // Dropping a frame hands its payload bytes back to the
                // pool once nobody else holds them.
                for (_, notify) in batch.drain(..) {
                    if let Some(from) = notify {
                        if events.send(Event::SendDone { from }).is_err() {
                            return;
                        }
                    }
                }
            }
            WriteJob::Sever => {
                let _ = stream.shutdown(Shutdown::Write);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The medium: writer queues and worker queues
// ---------------------------------------------------------------------------

struct Wire<P> {
    writers: WriterGrid<P>,
    jobs: Vec<Sender<Job<P>>>,
    /// Payload buffers, shared with the reader threads' decoders.
    pool: Arc<FrameBufPool>,
    /// The original (uncloned) streams, kept to sever everything at
    /// teardown so reader threads unblock.
    severs: Vec<Vec<Option<TcpStream>>>,
    clock: WallClock,
}

impl<P> Wire<P> {
    fn enqueue(&self, from: HostId, to: HostId, job: WriteJob<P>) -> Result<(), RingError> {
        let lane = self.writers.get(from.0).and_then(|row| row.get(to.0));
        match lane.and_then(Option::as_ref) {
            Some(tx) if tx.send(job).is_ok() => Ok(()),
            _ => Err(RingError::Teardown(teardown::TX_GONE)),
        }
    }
}

impl<P: WirePayload> Medium<P> for Wire<P> {
    fn now(&self) -> SimTime {
        self.clock.now()
    }

    fn transmit(
        &mut self,
        from: HostId,
        to: HostId,
        tid: u64,
        env: Envelope<InFlight<P>>,
        delay: SimDuration,
        _next: &mut Pending<P>,
    ) -> Result<Sent, RingError> {
        let (frame, first) = OutFrame::envelope(tid, env, &self.pool)?;
        self.enqueue(
            from,
            to,
            WriteJob::Frame {
                frame,
                delay: delay.into(),
                notify: Some(from),
            },
        )?;
        Ok(if first {
            Sent::Encoded
        } else {
            Sent::Forwarded
        })
    }

    fn ack(
        &mut self,
        at: HostId,
        to: HostId,
        tid: u64,
        _next: &mut Pending<P>,
    ) -> Result<(), RingError> {
        self.enqueue(
            at,
            to,
            WriteJob::Frame {
                frame: OutFrame::ack(tid),
                delay: Duration::ZERO,
                notify: None,
            },
        )
    }

    fn start(
        &mut self,
        host: HostId,
        job: Job<P>,
        _next: &mut Pending<P>,
    ) -> Result<(), RingError> {
        match self.jobs.get(host.0) {
            Some(tx) if tx.send(job).is_ok() => Ok(()),
            _ => Err(RingError::Teardown(teardown::RING_CLOSED)),
        }
    }

    /// A write-side FIN on each of the host's connections, queued behind
    /// already-committed frames. The read sides stay open (the salvage
    /// path of a crashed host; awaiting teardown for a departed one).
    fn sever(&mut self, host: HostId, _next: &mut Pending<P>) {
        for tx in self.writers.get(host.0).into_iter().flatten().flatten() {
            let _ = tx.send(WriteJob::Sever);
        }
    }

    fn launch(&self, batches: Batches<P>) -> Batches<InFlight<P>> {
        map_payloads(batches, |payload| InFlight::launch(&self.pool, payload))
    }
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

/// The blocking thread-per-endpoint socket engine.
#[derive(Debug, Clone, Copy)]
pub struct BlockingEngine;

/// Builder for a loopback-TCP ring run — the single entry point of this
/// backend, mirroring [`crate::thread_backend::RingDriver`].
///
/// ```
/// use data_roundabout::{RingConfig, TcpRingDriver};
///
/// // Three hosts, two fragments each, over real loopback sockets.
/// let fragments: Vec<Vec<Vec<u8>>> =
///     (0..3).map(|_| vec![vec![0u8; 64]; 2]).collect();
/// let (metrics, _spans) = TcpRingDriver::new(&RingConfig::paper(3))
///     .run(fragments, |_, _| {})
///     .unwrap();
/// assert_eq!(metrics.fragments_completed, 6);
/// ```
pub type TcpRingDriver<'a> = WallClockDriver<'a, BlockingEngine>;

/// One endpoint's thread material, cloned up front so no fallible IO
/// happens after the first thread spawns (an early error return from a
/// scope with live blocking readers would hang the scope join).
struct Lane {
    reader: TcpStream,
    writer: TcpStream,
    host: usize,
    peer: usize,
}

impl WallClockEngine for BlockingEngine {
    const HOST_FAULTS: bool = true;

    fn run_mesh<P, F, A>(
        config: &RingConfig,
        plan: Option<&FaultPlan>,
        rescale: Option<&RescalePlan>,
        trace: bool,
        workload: Workload<P>,
        visit: &F,
        absorb: &A,
    ) -> Result<(RingMetrics, SpanTracer), RingError>
    where
        P: WirePayload + Send + Clone,
        F: Fn(HostId, u32, &[usize], Visit<'_, P>) + Sync,
        A: Fn(HostId, usize) + Sync,
    {
        let n = config.hosts;
        // Healing can route any surviving pair, so every pair gets a
        // socket up front.
        let mesh = build_mesh_pairs(
            n,
            mesh_seed(plan),
            Duration::from(config.handshake_timeout),
            |_, _| true,
        )?;
        let mut lanes = Vec::new();
        for (h, row) in mesh.endpoints.iter().enumerate() {
            for (p, endpoint) in row.iter().enumerate() {
                if let Some(stream) = endpoint {
                    lanes.push(Lane {
                        reader: stream
                            .try_clone()
                            .map_err(socket_err("clone ring socket"))?,
                        writer: stream
                            .try_clone()
                            .map_err(socket_err("clone ring socket"))?,
                        host: h,
                        peer: p,
                    });
                }
            }
        }

        let (events_tx, events_rx) = channel::<Event<P>>();
        let pool = Arc::new(FrameBufPool::default());

        thread::scope(|s| {
            let mut writers: WriterGrid<P> =
                (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
            for lane in lanes {
                let tx = events_tx.clone();
                let at = HostId(lane.host);
                let reader = lane.reader;
                let rpool = Arc::clone(&pool);
                s.spawn(move || reader_loop::<P>(reader, at, tx, rpool));
                let (wtx, wrx) = channel::<WriteJob<P>>();
                let tx = events_tx.clone();
                let writer = lane.writer;
                s.spawn(move || writer_loop::<P>(writer, wrx, tx));
                if let Some(slot) = writers
                    .get_mut(lane.host)
                    .and_then(|row| row.get_mut(lane.peer))
                {
                    *slot = Some(wtx);
                }
            }
            let mut jobs = Vec::with_capacity(n);
            for h in 0..n {
                let (jtx, jrx) = channel::<Job<P>>();
                let tx = events_tx.clone();
                s.spawn(move || {
                    worker_loop(
                        HostId(h),
                        jrx.iter(),
                        config.join_threads,
                        |event| tx.send(event).is_ok(),
                        visit,
                        absorb,
                    );
                });
                jobs.push(jtx);
            }

            let wire = Wire {
                writers,
                jobs,
                pool: Arc::clone(&pool),
                severs: mesh.endpoints,
                clock: WallClock::start(),
            };
            let mut co = Coordinator::new(config, plan, rescale, workload, trace, wire);
            co.run(|wait| recv_from(&events_rx, wait));

            // Teardown: severing every socket unblocks the readers;
            // consuming the coordinator drops the medium, disconnecting
            // the writer and worker channels and draining those threads.
            for stream in co.medium.severs.iter().flatten().flatten() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            co.finish()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::FragmentId;
    use crate::frame::{encode_envelope, Frame};
    use crate::wall_clock::engine_suite::{self, payloads};
    use simnet::span::counter;
    use simnet::time::SimTime;

    /// Bytes that fail their first read with `Interrupted`, as a read cut
    /// short by a signal does.
    struct InterruptedOnce {
        interrupted: bool,
        bytes: std::io::Cursor<Vec<u8>>,
    }

    impl Read for InterruptedOnce {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !std::mem::replace(&mut self.interrupted, true) {
                return Err(ErrorKind::Interrupted.into());
            }
            self.bytes.read(buf)
        }
    }

    #[test]
    fn an_interrupted_read_is_retried_not_a_lost_connection() {
        let env = Envelope::new(FragmentId(4), HostId(0), 3, vec![7u8; 64]);
        let stream = InterruptedOnce {
            interrupted: false,
            bytes: std::io::Cursor::new(encode_envelope(11, &env).unwrap()),
        };
        let (tx, rx) = channel::<Event<Vec<u8>>>();
        reader_loop(stream, HostId(1), tx, Arc::default());
        let frames: Vec<_> = rx.iter().collect();
        assert!(
            matches!(
                frames.as_slice(),
                [Event::Frame {
                    at: HostId(1),
                    frame: Frame::Envelope { tid: 11, env },
                }] if env.id == FragmentId(4)
            ),
            "the frame behind the interrupted read must reach the coordinator"
        );
    }

    #[test]
    fn every_host_sees_every_fragment_over_tcp() {
        engine_suite::every_host_sees_every_fragment::<BlockingEngine>();
    }

    #[test]
    fn single_host_ring_needs_no_sockets() {
        engine_suite::single_host_ring_needs_no_sockets::<BlockingEngine>();
    }

    #[test]
    fn shape_and_config_errors_are_typed() {
        engine_suite::shape_and_config_errors_are_typed::<BlockingEngine>();
    }

    #[test]
    fn out_of_ring_faults_are_rejected() {
        engine_suite::out_of_ring_faults_are_rejected::<BlockingEngine>();
    }

    #[test]
    fn all_standby_rescale_is_rejected() {
        engine_suite::all_standby_rescale_is_rejected::<BlockingEngine>();
    }

    #[test]
    fn lossy_and_corrupt_links_are_repaired() {
        engine_suite::lossy_and_corrupt_links_are_repaired::<BlockingEngine>();
    }

    #[test]
    fn callback_panics_become_typed_teardowns() {
        let err = TcpRingDriver::new(&RingConfig::paper(3))
            .run(payloads(3, 2, 16), |h, _: &Vec<u8>| {
                assert!(h.0 != 1, "injected test panic");
            })
            .unwrap_err();
        assert_eq!(err, RingError::Teardown(teardown::CALLBACK_PANICKED));
    }

    #[test]
    fn crash_heals_over_real_sockets() {
        engine_suite::crash_heals_mid_revolution::<BlockingEngine>();
    }

    #[test]
    fn planned_join_and_drain_over_real_sockets() {
        engine_suite::planned_join_and_drain::<BlockingEngine>();
    }

    #[test]
    fn drain_hands_its_role_off_exactly_once_over_real_sockets() {
        engine_suite::drain_hands_its_role_off_exactly_once::<BlockingEngine>();
    }

    #[test]
    fn rescale_plans_are_validated_up_front() {
        let out_of_range = RescalePlan::seeded(1).drain_host(HostId(9), SimTime::from_nanos(1_000));
        let err = TcpRingDriver::new(&RingConfig::paper(2))
            .with_rescale_plan(&out_of_range)
            .run(payloads(2, 1, 8), |_, _| {})
            .unwrap_err();
        assert!(matches!(err, RingError::UnsupportedFault(_)));

        let standby_with_fragments =
            RescalePlan::seeded(1).join_host(HostId(1), SimTime::from_nanos(1_000));
        let err = TcpRingDriver::new(&RingConfig::paper(2))
            .with_rescale_plan(&standby_with_fragments)
            .run(payloads(2, 1, 8), |_, _| {})
            .unwrap_err();
        assert!(matches!(err, RingError::UnsupportedFault(_)));

        let single = RescalePlan::seeded(1).drain_host(HostId(0), SimTime::from_nanos(1_000));
        let err = TcpRingDriver::new(&RingConfig::paper(1))
            .with_rescale_plan(&single)
            .run(payloads(1, 1, 8), |_, _| {})
            .unwrap_err();
        assert!(matches!(err, RingError::UnsupportedFault(_)));
    }

    #[test]
    fn traced_runs_materialize_every_counter() {
        let (metrics, tracer) = TcpRingDriver::new(&RingConfig::paper(2))
            .with_tracer(true)
            .run(payloads(2, 2, 32), |_, _| {})
            .unwrap();
        assert_eq!(metrics.fragments_completed, 4);
        assert!(tracer.is_enabled());
        let counters = tracer.counters();
        for name in [
            counter::ENVELOPES_SENT,
            counter::ENVELOPES_RECEIVED,
            counter::FRAGMENTS_RETIRED,
            counter::RETRANSMITS,
            counter::CHECKSUM_MISMATCHES,
            counter::HEAL_EVENTS,
            counter::FRAGMENTS_RESENT,
            counter::RESCALE_JOINS,
            counter::RESCALE_DRAINS,
            counter::RESCALE_HANDOFFS,
            counter::VISITS_INLINE,
            counter::FRAMES_ENCODED,
            counter::FRAMES_FORWARDED,
        ] {
            assert!(
                counters.iter().any(|(n, _)| n == name),
                "counter {name} must be observed"
            );
        }
        assert_eq!(counters.get(counter::FRAGMENTS_RETIRED), 4);
        assert_eq!(counters.get(counter::VISITS_INLINE), 0);
        // Two hosts: each fragment makes one hop, its origin's encode.
        assert_eq!(counters.get(counter::FRAMES_ENCODED), 4);
        assert_eq!(counters.get(counter::FRAMES_FORWARDED), 0);
    }

    #[test]
    fn each_fragment_is_encoded_once() {
        engine_suite::each_fragment_is_encoded_once::<BlockingEngine>(0);
    }

    #[test]
    fn an_origin_sends_the_bytes_it_was_prepared_in() {
        engine_suite::an_origin_sends_the_bytes_it_was_prepared_in::<BlockingEngine>(4);
    }

    #[test]
    fn a_received_payload_is_never_decoded() {
        engine_suite::a_received_payload_is_never_decoded::<BlockingEngine>(2);
    }

    #[test]
    fn a_flipped_column_bit_is_a_frame_error() {
        engine_suite::a_flipped_column_bit_is_a_frame_error::<BlockingEngine>();
    }

    #[test]
    fn multiplexed_queries_complete_over_sockets() {
        engine_suite::multiplexed_queries_complete::<BlockingEngine>();
    }

    #[test]
    fn multiplexed_queries_survive_socket_faults() {
        engine_suite::multiplexed_queries_survive_faults::<BlockingEngine>();
    }
}
