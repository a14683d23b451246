//! The live ring backend: Data Roundabout on real OS threads.
//!
//! The simulated backend is what reproduces the paper's figures; this
//! backend runs the *same protocol* with real concurrency, as an existence
//! proof that the asynchronous receiver/join/transmitter design is sound
//! (no deadlocks, no lost or duplicated envelopes) and to let integration
//! tests exercise races the deterministic simulator cannot produce.
//!
//! [`RingDriver`] is the generic wall-clock driver
//! ([`WallClockDriver`]) over the [`ChannelEngine`], which has two ways to
//! run a ring and picks between them by the rule the socket engines use —
//! whether the run rolls dice at all:
//!
//! * **no fault plan, no rescale plan, one query** — the *classic*
//!   decentralised ring (`classic_run`), the paper's entities mapped onto
//!   threads and channels with no coordinator in the middle:
//!   * the bounded channel into each host **is** its ring of receive
//!     buffer elements (capacity = `buffers_per_host`); a blocked send is
//!     the credit-based flow control;
//!   * each host's **join thread** prefers draining received envelopes (to
//!     free buffer elements quickly) and falls back to its local backlog;
//!   * each host's **transmitter thread** forwards processed envelopes and
//!     provides the asynchrony that lets the join thread keep working
//!     while a send is blocked downstream — the join thread itself never
//!     blocks on the network.
//!
//!   This is the path the loom model suite explores exhaustively.
//! * **anything faulted, rescaled or multiplexed** — the shared
//!   [`Coordinator`] over `ChannelWire`, an instant in-process wire that
//!   carries the shared in-flight payload (a reference count per hop,
//!   per attempt and per visit; no copy, no codec): the
//!   sans-IO [`crate::protocol`] core owns every sequence number,
//!   acknowledgement, retransmission and membership decision exactly as it
//!   does on the socket drivers, the fault plan's dice may drop, corrupt or
//!   delay each hop transfer, and per-host workers run the joins and the
//!   role takeovers. Host crashes and pauses are *not* supported here (a
//!   channel has nothing to sever and no salvage path); plans scheduling
//!   them are rejected.
//!
//! A worker dying mid-run — a panicking join callback, or a transfer that
//! exhausts its retransmission budget — does **not** cascade panics across
//! the thread scope: the failing worker returns a typed
//! [`RingError::Teardown`], its channels close, every neighbor observes the
//! closure and unwinds in turn (the teardown wave travels forward around
//! the ring, so no thread is left blocked), and the run reports the *first*
//! failure rather than the loudest.
//!
//! A traced run ([`WallClockDriver::with_tracer`]) additionally records a
//! structured [`SpanTracer`]: per-host join/sync spans, per-hop envelope
//! events and the unified counter registry, on the same wall-clock epoch
//! the metrics use, so span totals reconcile with [`RingMetrics`] exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::mpmc::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use crate::sync::Mutex;
use simnet::fault::{FaultPlan, RescalePlan};
use simnet::span::{counter, SpanKind, SpanTracer, Track};
use simnet::time::{SimDuration, SimTime};
use simnet::topology::HostId;

use crate::config::RingConfig;
use crate::coordinator::{
    self, Coordinator, Event, Job, Medium, Pending, Recv, Sent, TimerKind, WallClockDriver,
    WallClockEngine, Workload,
};
use crate::envelope::{Envelope, PayloadBytes};
use crate::error::RingError;
use crate::frame::{Frame, WirePayload};
use crate::inflight::{InFlight, Visit};
use crate::metrics::{HostMetrics, RingMetrics};
use crate::protocol::teardown;

/// Collects worker errors, preferring root causes (a panicking callback, an
/// exhausted retransmission budget) over the channel-teardown cascade they
/// provoke in the neighboring workers.
#[derive(Default)]
pub(crate) struct ErrorCollector {
    root: Option<RingError>,
    any: Option<RingError>,
}

impl ErrorCollector {
    pub(crate) fn record(&mut self, err: RingError) {
        let is_root = matches!(
            &err,
            RingError::Teardown(m) if teardown::is_root_cause(m)
        );
        if is_root && self.root.is_none() {
            self.root = Some(err.clone());
        }
        if self.any.is_none() {
            self.any = Some(err);
        }
    }

    pub(crate) fn first(self) -> Option<RingError> {
        self.root.or(self.any)
    }
}

/// Span recording shared by all worker threads of one traced run.
///
/// Offsets are measured from one epoch taken at ring start, so the spans of
/// different hosts share a timeline and busy/sync span totals equal the
/// `Duration` sums the metrics report (both read the same `Instant`s).
pub(crate) struct SharedSpans {
    epoch: Instant,
    tracer: Mutex<SpanTracer>,
}

impl SharedSpans {
    pub(crate) fn new() -> Self {
        SharedSpans {
            epoch: Instant::now(),
            tracer: Mutex::new(SpanTracer::enabled()),
        }
    }

    fn at(&self, instant: Instant) -> SimTime {
        SimTime::from_nanos(
            SimDuration::from(instant.saturating_duration_since(self.epoch)).as_nanos(),
        )
    }

    fn lock(&self) -> crate::sync::MutexGuard<'_, SpanTracer> {
        // A panicking worker must not poison observability for the others.
        self.tracer.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn span(
        &self,
        host: usize,
        kind: SpanKind,
        name: String,
        start: Instant,
        dur: Duration,
        hop: Option<usize>,
    ) {
        let at = self.at(start);
        self.lock()
            .span_with_hop(host, kind, name, at, dur.into(), hop);
    }

    /// Records an instant event and bumps `counter_name` under one lock.
    fn event(&self, host: usize, track: Track, name: String, counter_name: Option<&str>) {
        let at = self.at(Instant::now());
        let mut tracer = self.lock();
        tracer.event(Some(host), track, name, at);
        if let Some(counter_name) = counter_name {
            tracer.count(counter_name, 1);
        }
    }

    fn into_tracer(self) -> SpanTracer {
        self.tracer.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

/// The in-process engine: threads and `sync::mpmc` channels, no sockets
/// and no codec.
#[derive(Debug, Clone, Copy)]
pub struct ChannelEngine;

/// Builder for a live (real-thread) ring run — the single entry point of
/// this backend.
///
/// The default driver runs the classic unguarded transport; attaching a
/// [`FaultPlan`] switches every hop onto the acknowledged stop-and-wait
/// transport from the protocol core, and
/// [`with_tracer`](WallClockDriver::with_tracer) enables structured span
/// recording.
///
/// ```
/// use data_roundabout::{RingConfig, RingDriver};
///
/// // Three hosts, two fragments each: every host sees all six.
/// let fragments: Vec<Vec<Vec<u8>>> =
///     (0..3).map(|_| vec![vec![0u8; 64]; 2]).collect();
/// let (metrics, _spans) = RingDriver::new(&RingConfig::paper(3))
///     .run(fragments, |_, _| {})
///     .unwrap();
/// assert_eq!(metrics.fragments_completed, 6);
/// ```
///
/// With a fault plan, losses are repaired by retransmission:
///
/// ```
/// use data_roundabout::{FaultPlan, RingConfig, RingDriver};
/// use simnet::topology::HostId;
///
/// let fragments: Vec<Vec<Vec<u8>>> =
///     (0..3).map(|_| vec![vec![7u8; 64]; 2]).collect();
/// let plan = FaultPlan::seeded(42).lossy_link(HostId(0), 0.3);
/// let (metrics, _spans) = RingDriver::new(&RingConfig::paper(3))
///     .with_fault_plan(&plan)
///     .run(fragments, |_, _| {})
///     .unwrap();
/// assert_eq!(metrics.fragments_completed, 6);
/// ```
pub type RingDriver<'a> = WallClockDriver<'a, ChannelEngine>;

impl WallClockEngine for ChannelEngine {
    const HOST_FAULTS: bool = false;

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
        match (plan, workload) {
            // No dice: nothing is faulted, rescaled or multiplexed, so
            // every host keeps exactly its own role for the whole run and
            // the decentralised ring needs no protocol ledger.
            (None, Workload::Single(batches)) => classic_run(
                config,
                batches,
                |host, payload| visit(host, 0, &[host.0], Visit::Owned(payload)),
                trace,
            ),
            (plan, workload) => {
                drive_coordinated(config, plan, rescale, workload, visit, absorb, trace)
            }
        }
    }
}

/// The classic (unguarded-transport) decentralised ring: `batches[h]` are
/// host `h`'s local envelopes, already numbered, on a validated ring of at
/// least two hosts.
fn classic_run<P, F>(
    config: &RingConfig,
    batches: Vec<Vec<Envelope<P>>>,
    process: F,
    trace: bool,
) -> Result<(RingMetrics, SpanTracer), RingError>
where
    P: PayloadBytes + Send,
    F: Fn(HostId, &P) + Sync,
{
    let n = config.hosts;
    let total: usize = batches.iter().map(Vec::len).sum();
    let shared = trace.then(SharedSpans::new);
    let spans = shared.as_ref();

    // ring_rx[h]: the receive buffer pool of host h.
    let mut ring_tx = Vec::with_capacity(n);
    let mut ring_rx = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = bounded::<Envelope<P>>(config.buffers_per_host);
        ring_tx.push(tx);
        ring_rx.push(rx);
    }
    // Transmitter h sends into host (h+1)'s pool.
    ring_tx.rotate_left(1);

    let forwarded: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let mut host_stats: Vec<Option<JoinStats>> = (0..n).map(|_| None).collect();

    let first_error = crate::sync::thread::scope(|scope| {
        let mut join_handles = Vec::with_capacity(n);
        let mut tx_handles = Vec::with_capacity(n);
        for (h, ((backlog, (rx, next_tx)), fwd)) in batches
            .into_iter()
            .zip(ring_rx.into_iter().zip(ring_tx))
            .zip(&forwarded)
            .enumerate()
        {
            let (out_tx, out_rx) = unbounded::<Envelope<P>>();
            let process = &process;
            join_handles.push(scope.spawn(move || {
                join_entity(HostId(h), n, total, backlog, rx, out_tx, process, spans)
            }));
            tx_handles.push(scope.spawn(move || -> Result<(), RingError> {
                // Transmitter: forward processed envelopes, honoring the
                // successor's buffer credit via the bounded channel.
                for env in out_rx.iter() {
                    fwd.fetch_add(env.bytes(), Ordering::Relaxed);
                    if let Some(s) = spans {
                        s.event(
                            h,
                            Track::Transmitter,
                            format!("send {}", env.id),
                            Some(counter::ENVELOPES_SENT),
                        );
                    }
                    if next_tx.send(env).is_err() {
                        // The successor's join entity died and dropped its
                        // pool: surface a typed error, don't panic.
                        return Err(RingError::Teardown(teardown::POOL_CLOSED));
                    }
                }
                // Dropping next_tx closes the successor's pool.
                Ok(())
            }));
        }
        let mut errors = ErrorCollector::default();
        for (slot, handle) in host_stats.iter_mut().zip(join_handles) {
            match handle.join() {
                Ok(Ok(stats)) => *slot = Some(stats),
                Ok(Err(err)) => errors.record(err),
                Err(_) => errors.record(RingError::Teardown(teardown::WORKER_PANICKED)),
            }
        }
        for handle in tx_handles {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(err)) => errors.record(err),
                Err(_) => errors.record(RingError::Teardown(teardown::WORKER_PANICKED)),
            }
        }
        errors.first()
    });
    if let Some(err) = first_error {
        return Err(err);
    }

    let stats: Vec<JoinStats> = host_stats.into_iter().flatten().collect();
    debug_assert_eq!(stats.len(), n, "error-free run has stats for every host");
    let hosts: Vec<HostMetrics> = stats
        .into_iter()
        .zip(&forwarded)
        .map(|(s, fwd)| s.into_metrics(config, fwd.load(Ordering::Relaxed), 0, 0))
        .collect();
    let wall = hosts
        .iter()
        .map(|h| h.join_window)
        .max()
        .unwrap_or(SimDuration::ZERO);
    let metrics = RingMetrics {
        hosts,
        wall_clock: wall,
        fragments_completed: total,
        ..RingMetrics::default()
    };
    let tracer = finish_spans(shared);
    Ok((metrics, tracer))
}

// ---------------------------------------------------------------------------
// Coordinated mode: the shared coordinator over an instant channel wire
// ---------------------------------------------------------------------------

/// The medium of the coordinated mode: per-host job queues and a timer
/// thread, and nothing in between — the channel "wire" has no latency in
/// either direction, so deliveries and acks reach their host in the same
/// coordinator round as follow-up events, and a fault-plan delay spike is
/// modeled by parking the arrival on the timer thread. Nothing can be
/// severed (host crashes are rejected up front).
struct ChannelWire<P> {
    jobs: Vec<Sender<Job<P>>>,
    timer_tx: Sender<(Instant, Event<P>)>,
}

impl<P> Medium<P> for ChannelWire<P> {
    fn transmit(
        &mut self,
        from: HostId,
        to: HostId,
        tid: u64,
        env: Envelope<InFlight<P>>,
        delay: Duration,
        next: &mut Pending<P>,
    ) -> Result<Sent, RingError> {
        // Only when the envelope "arrives" is the sender's wire reported
        // free — a spike delays the hop's credit exactly like the TCP
        // writer queue does.
        let arrival = [
            Event::Frame {
                at: to,
                frame: Frame::Envelope { tid, env },
            },
            Event::SendDone { from },
        ];
        if delay.is_zero() {
            next.extend(arrival);
        } else {
            let at = Instant::now() + delay;
            for event in arrival {
                let _ = self.timer_tx.send((at, event));
            }
        }
        Ok(Sent::Moved)
    }

    fn ack(
        &mut self,
        _at: HostId,
        to: HostId,
        tid: u64,
        next: &mut Pending<P>,
    ) -> Result<(), RingError> {
        next.push_back(Event::Frame {
            at: to,
            frame: Frame::Ack { tid },
        });
        Ok(())
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

    fn arm(&mut self, delay: Duration, timer: TimerKind) {
        let _ = self
            .timer_tx
            .send((Instant::now() + delay, Event::Timer(timer)));
    }

    fn sever(&mut self, _host: HostId, _next: &mut Pending<P>) {}
}

/// One timed receive on a `sync::mpmc` channel, in the coordinator's
/// channel-agnostic shape.
fn recv_from<T>(rx: &Receiver<T>, wait: Duration) -> Recv<T> {
    match rx.recv_timeout(wait) {
        Ok(item) => Recv::Item(item),
        Err(RecvTimeoutError::Timeout) => Recv::Timeout,
        Err(RecvTimeoutError::Disconnected) => Recv::Closed,
    }
}

/// Everything that rolls dice: spawns the per-host workers (joins and role
/// takeovers run there, as on the socket media) and the timer loop, then
/// lets the shared [`Coordinator`] feed the protocol until every fragment
/// retired.
fn drive_coordinated<P, F, A>(
    config: &RingConfig,
    plan: Option<&FaultPlan>,
    rescale: Option<&RescalePlan>,
    workload: Workload<P>,
    visit: &F,
    absorb: &A,
    trace: bool,
) -> Result<(RingMetrics, SpanTracer), RingError>
where
    P: WirePayload + Send,
    F: Fn(HostId, u32, &[usize], Visit<'_, P>) + Sync,
    A: Fn(HostId, usize) + Sync,
{
    let (events_tx, events_rx) = unbounded::<Event<P>>();
    let (timer_tx, timer_rx) = unbounded::<(Instant, Event<P>)>();
    crate::sync::thread::scope(|scope| {
        let mut jobs = Vec::with_capacity(config.hosts);
        for h in 0..config.hosts {
            let (jtx, jrx) = unbounded::<Job<P>>();
            let tx = events_tx.clone();
            scope.spawn(move || {
                coordinator::worker_loop(
                    HostId(h),
                    jrx.iter(),
                    |event| tx.send(event).is_ok(),
                    visit,
                    absorb,
                );
            });
            jobs.push(jtx);
        }
        {
            let tx = events_tx.clone();
            scope.spawn(move || {
                coordinator::timer_loop(
                    Instant::now,
                    |wait| recv_from(&timer_rx, wait),
                    |event| tx.send(event).is_ok(),
                );
            });
        }
        let wire = ChannelWire { jobs, timer_tx };
        let mut co = Coordinator::new(config, plan, rescale, workload, trace, wire);
        co.run(|wait| recv_from(&events_rx, wait));
        // Consuming the coordinator drops its job and timer senders,
        // draining the worker and timer threads before the scope closes.
        co.finish()
    })
}

/// Materialises every well-known counter at zero, so trace consumers see
/// them observed rather than missing on runs that never bumped them.
pub(crate) fn materialize_counters(tracer: &mut SpanTracer) {
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
        tracer.count(name, 0);
    }
}

/// Closes out a classic or single-host run's trace (such a run never
/// retransmits, heals or rescales) and hands the tracer out of its mutex.
fn finish_spans(shared: Option<SharedSpans>) -> SpanTracer {
    shared.map_or_else(SpanTracer::disabled, |shared| {
        let mut tracer = shared.into_tracer();
        materialize_counters(&mut tracer);
        tracer
    })
}

/// What a host's join entity measured about itself (or, in coordinated
/// mode, what the coordinator measured for it).
pub(crate) struct JoinStats {
    pub(crate) busy: Duration,
    pub(crate) sync: Duration,
    pub(crate) window: Duration,
    pub(crate) processed: usize,
}

impl JoinStats {
    pub(crate) fn into_metrics(
        self,
        config: &RingConfig,
        bytes_forwarded: u64,
        retransmits: u64,
        checksum_mismatches: u64,
    ) -> HostMetrics {
        let mut cpu = simnet::cpu::CpuAccount::new();
        cpu.charge(
            simnet::cpu::CostCategory::Compute,
            SimDuration::from(self.busy) * config.join_threads as u64,
        );
        HostMetrics {
            setup: SimDuration::ZERO,
            join_busy: self.busy.into(),
            sync: self.sync.into(),
            join_window: self.window.into(),
            cpu,
            fragments_processed: self.processed,
            visits_inline: 0,
            bytes_forwarded,
            retransmits,
            checksum_mismatches,
        }
    }
}

/// The join entity of one classic-ring host. `backlog` holds the host's
/// local fragments, pre-numbered by
/// [`envelope_batches`](crate::protocol::envelope_batches). The buffer
/// pool is the receiver, so the join entity records envelope arrivals
/// itself.
#[allow(clippy::too_many_arguments)]
fn join_entity<P, F>(
    host: HostId,
    ring_size: usize,
    total: usize,
    backlog: Vec<Envelope<P>>,
    rx: Receiver<Envelope<P>>,
    out_tx: Sender<Envelope<P>>,
    process: &F,
    spans: Option<&SharedSpans>,
) -> Result<JoinStats, RingError>
where
    P: PayloadBytes + Send,
    F: Fn(HostId, &P) + Sync,
{
    let mut backlog: std::collections::VecDeque<Envelope<P>> = backlog.into();
    let started = Instant::now();
    let mut busy = Duration::ZERO;
    let mut sync = Duration::ZERO;
    let mut processed = 0usize;
    while processed < total {
        // Prefer received envelopes: popping them frees buffer elements
        // and keeps the ring moving.
        let (mut env, received) = match rx.try_recv() {
            Ok(env) => (env, true),
            Err(TryRecvError::Empty) => match backlog.pop_front() {
                Some(env) => (env, false),
                None => {
                    let wait = Instant::now();
                    let Ok(env) = rx.recv() else {
                        return Err(RingError::Teardown(teardown::RING_CLOSED));
                    };
                    let waited = wait.elapsed();
                    sync += waited;
                    if let Some(s) = spans {
                        s.span(
                            host.0,
                            SpanKind::Sync,
                            "sync".to_string(),
                            wait,
                            waited,
                            None,
                        );
                    }
                    (env, true)
                }
            },
            Err(TryRecvError::Disconnected) => match backlog.pop_front() {
                Some(env) => (env, false),
                None => return Err(RingError::Teardown(teardown::RING_CLOSED)),
            },
        };
        if received {
            if let Some(s) = spans {
                s.event(
                    host.0,
                    Track::Receiver,
                    format!("recv {}", env.id),
                    Some(counter::ENVELOPES_RECEIVED),
                );
            }
        }
        let hop = ring_size.saturating_sub(env.hops_remaining);
        let t = Instant::now();
        // Guard the user callback: a panic inside it must become a typed
        // teardown error, not a poisoned scope and a panic storm.
        let outcome = catch_unwind(AssertUnwindSafe(|| process(host, &env.payload)));
        let spent = t.elapsed();
        busy += spent;
        if outcome.is_err() {
            return Err(RingError::Teardown(teardown::CALLBACK_PANICKED));
        }
        processed += 1;
        if let Some(s) = spans {
            s.span(
                host.0,
                SpanKind::Join,
                format!("join {}", env.id),
                t,
                spent,
                Some(hop),
            );
        }
        if env.consume_hop() {
            if out_tx.send(env).is_err() {
                return Err(RingError::Teardown(teardown::TX_GONE));
            }
        } else if let Some(s) = spans {
            s.event(
                host.0,
                Track::Join,
                format!("retired {}", env.id),
                Some(counter::FRAGMENTS_RETIRED),
            );
        }
    }
    // Closing the outgoing queue lets the transmitter finish and close the
    // successor's pool in turn.
    drop(out_tx);
    Ok(JoinStats {
        busy,
        sync,
        window: started.elapsed(),
        processed,
    })
}

/// The degenerate single-host "ring", which has no wire on any engine:
/// process host 0's backlog locally and close out the trace.
pub(crate) fn single_host_run<P, F>(
    batches: Vec<Vec<Envelope<P>>>,
    process: F,
    trace: bool,
) -> Result<(RingMetrics, SpanTracer), RingError>
where
    P: PayloadBytes + Send,
    F: Fn(HostId, &P) + Sync,
{
    let shared = trace.then(SharedSpans::new);
    let started = Instant::now();
    let mut busy = Duration::ZERO;
    let mut processed = 0usize;
    for env in batches.into_iter().next().unwrap_or_default() {
        let t = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| process(HostId(0), &env.payload)));
        let spent = t.elapsed();
        busy += spent;
        if outcome.is_err() {
            return Err(RingError::Teardown(teardown::CALLBACK_PANICKED));
        }
        if let Some(s) = &shared {
            s.span(
                0,
                SpanKind::Join,
                format!("join {}", env.id),
                t,
                spent,
                Some(0),
            );
            s.event(
                0,
                Track::Join,
                format!("retired {}", env.id),
                Some(counter::FRAGMENTS_RETIRED),
            );
        }
        processed += 1;
    }
    let host = HostMetrics {
        setup: SimDuration::ZERO,
        join_busy: busy.into(),
        sync: SimDuration::ZERO,
        join_window: started.elapsed().into(),
        cpu: simnet::cpu::CpuAccount::new(),
        fragments_processed: processed,
        bytes_forwarded: 0,
        ..HostMetrics::default()
    };
    let metrics = RingMetrics {
        hosts: vec![host],
        wall_clock: started.elapsed().into(),
        fragments_completed: processed,
        ..RingMetrics::default()
    };
    let tracer = finish_spans(shared);
    Ok((metrics, tracer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::engine_suite::{self, payloads};
    use simnet::time::SimTime;
    use std::sync::atomic::AtomicUsize;

    fn run_plain(
        config: &RingConfig,
        fragments: Vec<Vec<Vec<u8>>>,
        process: impl Fn(HostId, &Vec<u8>) + Sync,
    ) -> Result<RingMetrics, RingError> {
        RingDriver::new(config)
            .run(fragments, process)
            .map(|(metrics, _)| metrics)
    }

    #[test]
    fn every_host_sees_every_fragment() {
        engine_suite::every_host_sees_every_fragment::<ChannelEngine>();
    }

    #[test]
    fn shape_and_config_errors_are_typed() {
        engine_suite::shape_and_config_errors_are_typed::<ChannelEngine>();
    }

    #[test]
    fn out_of_ring_faults_are_rejected() {
        engine_suite::out_of_ring_faults_are_rejected::<ChannelEngine>();
    }

    #[test]
    fn all_standby_rescale_is_rejected() {
        engine_suite::all_standby_rescale_is_rejected::<ChannelEngine>();
    }

    #[test]
    fn lossy_and_corrupt_links_are_repaired() {
        engine_suite::lossy_and_corrupt_links_are_repaired::<ChannelEngine>();
    }

    #[test]
    fn planned_join_and_drain() {
        engine_suite::planned_join_and_drain::<ChannelEngine>();
    }

    #[test]
    fn drain_hands_its_role_off_exactly_once() {
        engine_suite::drain_hands_its_role_off_exactly_once::<ChannelEngine>();
    }

    #[test]
    fn multiplexed_queries_complete() {
        engine_suite::multiplexed_queries_complete::<ChannelEngine>();
    }

    #[test]
    fn multiplexed_queries_survive_faults() {
        engine_suite::multiplexed_queries_survive_faults::<ChannelEngine>();
    }

    #[test]
    fn single_host_processes_locally() {
        let metrics = run_plain(&RingConfig::paper(1), payloads(1, 5, 8), |_, _| {}).unwrap();
        assert_eq!(metrics.fragments_completed, 5);
        assert_eq!(metrics.hosts[0].bytes_forwarded, 0);
    }

    #[test]
    fn tight_buffers_do_not_deadlock() {
        // 1 buffer element per host and many fragments: maximum pressure
        // on the flow control.
        let hosts = 5;
        let cfg = RingConfig::paper(hosts).with_buffers(1);
        let metrics = run_plain(&cfg, payloads(hosts, 8, 16), |_, _| {}).unwrap();
        assert_eq!(metrics.fragments_completed, 40);
    }

    #[test]
    fn uneven_distribution_completes() {
        let hosts = 3;
        let mut frags = payloads(hosts, 0, 0);
        frags[2] = (0..7).map(|_| vec![0u8; 32]).collect();
        let metrics = run_plain(&RingConfig::paper(hosts), frags, |_, _| {}).unwrap();
        assert_eq!(metrics.fragments_completed, 7);
        for h in &metrics.hosts {
            assert_eq!(h.fragments_processed, 7);
        }
    }

    #[test]
    fn slow_consumers_still_complete() {
        let hosts = 3;
        let metrics = run_plain(&RingConfig::paper(hosts), payloads(hosts, 2, 16), |h, _| {
            if h.0 == 1 {
                std::thread::sleep(Duration::from_millis(2));
            }
        })
        .unwrap();
        assert_eq!(metrics.fragments_completed, 6);
        assert!(metrics.hosts[1].join_busy >= SimDuration::from_millis(12));
    }

    #[test]
    fn empty_run_completes() {
        let metrics = run_plain(&RingConfig::paper(3), payloads(3, 0, 0), |_, _| {}).unwrap();
        assert_eq!(metrics.fragments_completed, 0);
    }

    #[test]
    fn stress_many_fragments_many_rounds() {
        // A repeated-run stress test: the protocol must be deadlock-free
        // under arbitrary real-thread interleavings.
        for round in 0..10 {
            let hosts = 2 + (round % 4);
            let metrics =
                run_plain(&RingConfig::paper(hosts), payloads(hosts, 6, 8), |_, _| {}).unwrap();
            assert_eq!(metrics.fragments_completed, hosts * 6, "round {round}");
        }
    }

    /// Regression: a panicking join callback used to unwind its worker
    /// thread, close its channels and turn every neighbor's teardown
    /// `expect` into a cascading panic across the scope. It must surface
    /// as one typed [`RingError::Teardown`] naming the root cause.
    #[test]
    fn panicking_callback_surfaces_as_teardown_error() {
        let hosts = 3;
        let result = run_plain(&RingConfig::paper(hosts), payloads(hosts, 2, 16), |h, _| {
            if h.0 == 1 {
                panic!("worker exploded");
            }
        });
        match result {
            Err(RingError::Teardown(msg)) => assert_eq!(msg, teardown::CALLBACK_PANICKED),
            other => panic!("expected a teardown error, got {other:?}"),
        }
    }

    /// Same regression on the reliable transport: the worker's guarded
    /// job reports the panic and the coordinator tears the run down with
    /// the root cause.
    #[test]
    fn reliable_panicking_callback_surfaces_as_teardown_error() {
        let hosts = 3;
        let cfg = RingConfig::paper(hosts).with_ack_timeout(SimDuration::from_millis(20));
        let plan = FaultPlan::seeded(5);
        let result = RingDriver::new(&cfg).with_fault_plan(&plan).run(
            payloads(hosts, 2, 16),
            |h, _: &Vec<u8>| {
                if h.0 == 2 {
                    panic!("worker exploded");
                }
            },
        );
        match result {
            Err(RingError::Teardown(msg)) => assert_eq!(msg, teardown::CALLBACK_PANICKED),
            other => panic!("expected a teardown error, got {other:?}"),
        }
    }

    #[test]
    fn single_host_panicking_callback_is_typed_too() {
        let result = run_plain(&RingConfig::paper(1), payloads(1, 2, 8), |_, _| {
            panic!("worker exploded");
        });
        assert_eq!(
            result.unwrap_err(),
            RingError::Teardown(teardown::CALLBACK_PANICKED)
        );
    }

    #[test]
    fn traced_run_reconciles_with_metrics() {
        let hosts = 3;
        let (metrics, spans) = RingDriver::new(&RingConfig::paper(hosts))
            .with_tracer(true)
            .run(payloads(hosts, 3, 64), |_, _: &Vec<u8>| {
                std::thread::sleep(Duration::from_micros(200))
            })
            .unwrap();
        assert!(spans.is_enabled());
        for (h, host) in metrics.hosts.iter().enumerate() {
            assert_eq!(
                spans.total(h, SpanKind::Join),
                host.join_busy,
                "host {h}: join span total must equal join_busy"
            );
            assert_eq!(
                spans.total(h, SpanKind::Sync),
                host.sync,
                "host {h}: sync span total must equal sync"
            );
        }
        assert_eq!(
            spans.counters().get(counter::FRAGMENTS_RETIRED),
            metrics.fragments_completed as u64
        );
        // Each envelope is sent (hosts-1) times around the ring.
        assert_eq!(
            spans.counters().get(counter::ENVELOPES_SENT),
            (metrics.fragments_completed * (hosts - 1)) as u64
        );
        assert_eq!(
            spans.counters().get(counter::ENVELOPES_SENT),
            spans.counters().get(counter::ENVELOPES_RECEIVED)
        );
        assert_eq!(spans.counters().get(counter::HEAL_EVENTS), 0);
    }

    #[test]
    fn untraced_run_returns_a_disabled_tracer() {
        let (metrics, spans) = RingDriver::new(&RingConfig::paper(2))
            .run(payloads(2, 2, 8), |_, _: &Vec<u8>| {})
            .unwrap();
        assert_eq!(metrics.fragments_completed, 4);
        assert!(!spans.is_enabled());
        assert!(spans.spans().is_empty());
    }

    #[test]
    fn reliable_traced_run_counts_retransmits() {
        let hosts = 3;
        let plan = FaultPlan::seeded(42).lossy_link(HostId(0), 0.4);
        let cfg = RingConfig::paper(hosts).with_ack_timeout(SimDuration::from_millis(20));
        let (metrics, spans) = RingDriver::new(&cfg)
            .with_fault_plan(&plan)
            .with_tracer(true)
            .run(payloads(hosts, 4, 32), |_, _: &Vec<u8>| {})
            .unwrap();
        assert_eq!(metrics.fragments_completed, 12);
        assert_eq!(
            spans.counters().get(counter::RETRANSMITS),
            metrics.total_retransmits(),
            "traced retransmit events must match the metrics"
        );
        assert!(spans.count_events("retransmit") > 0);
    }

    #[test]
    fn reliable_quiet_plan_is_fault_free() {
        let hosts = 3;
        let counts: Vec<AtomicUsize> = (0..hosts).map(|_| AtomicUsize::new(0)).collect();
        let plan = FaultPlan::seeded(1);
        let (metrics, _) = RingDriver::new(&RingConfig::paper(hosts))
            .with_fault_plan(&plan)
            .run(payloads(hosts, 3, 32), |h, _: &Vec<u8>| {
                counts[h.0].fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        assert_eq!(metrics.fragments_completed, 9);
        for c in &counts {
            assert_eq!(c.load(Ordering::SeqCst), 9);
        }
        assert!(
            metrics.fault_free(),
            "quiet plan must report zero fault counters"
        );
    }

    #[test]
    fn lossy_link_is_repaired_by_retransmission() {
        let hosts = 3;
        let plan = FaultPlan::seeded(42).lossy_link(HostId(0), 0.4);
        let counts: Vec<AtomicUsize> = (0..hosts).map(|_| AtomicUsize::new(0)).collect();
        let cfg = RingConfig::paper(hosts).with_ack_timeout(SimDuration::from_millis(20));
        let (metrics, _) = RingDriver::new(&cfg)
            .with_fault_plan(&plan)
            .run(payloads(hosts, 4, 32), |h, _: &Vec<u8>| {
                counts[h.0].fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        assert_eq!(metrics.fragments_completed, 12);
        // Exactly-once delivery despite losses: no host saw a duplicate.
        for c in &counts {
            assert_eq!(c.load(Ordering::SeqCst), 12);
        }
        assert!(
            metrics.hosts[0].retransmits > 0,
            "the lossy link must have provoked retransmissions"
        );
    }

    #[test]
    fn corrupt_link_is_detected_by_checksums() {
        let hosts = 3;
        let plan = FaultPlan::seeded(7).corrupt_link(HostId(0), 0.5);
        let cfg = RingConfig::paper(hosts).with_ack_timeout(SimDuration::from_millis(20));
        let (metrics, _) = RingDriver::new(&cfg)
            .with_fault_plan(&plan)
            .run(payloads(hosts, 4, 32), |_, _: &Vec<u8>| {})
            .unwrap();
        assert_eq!(metrics.fragments_completed, 12);
        // Corruption on the hop out of H0 is detected by H1's receiver and
        // repaired by H0's retransmissions.
        assert!(metrics.hosts[1].checksum_mismatches > 0, "{metrics:?}");
        assert!(metrics.hosts[0].retransmits > 0);
        assert_eq!(
            metrics.total_checksum_mismatches(),
            metrics.hosts[1].checksum_mismatches,
            "only H1 receives from the corrupting link"
        );
    }

    #[test]
    fn delay_spikes_do_not_lose_envelopes() {
        let hosts = 3;
        let plan = FaultPlan::seeded(3).delay_spikes(HostId(1), 0.5, SimDuration::from_micros(200));
        let (metrics, _) = RingDriver::new(&RingConfig::paper(hosts))
            .with_fault_plan(&plan)
            .run(payloads(hosts, 3, 16), |_, _: &Vec<u8>| {})
            .unwrap();
        assert_eq!(metrics.fragments_completed, 9);
    }

    #[test]
    fn crash_plans_are_rejected() {
        let plan = FaultPlan::seeded(0).crash_host(HostId(1), SimTime::from_nanos(1));
        let err = RingDriver::new(&RingConfig::paper(3))
            .with_fault_plan(&plan)
            .run(payloads(3, 1, 8), |_, _: &Vec<u8>| {})
            .unwrap_err();
        assert!(matches!(err, RingError::UnsupportedFault(_)));
    }

    /// A rescale plan without a fault plan still runs the acked reliable
    /// transport under quiet dice, and a drain alone bumps one epoch.
    #[test]
    fn planned_drain_alone_departs_cleanly() {
        let hosts = 3;
        let cfg = RingConfig::paper(hosts).with_ack_timeout(SimDuration::from_millis(20));
        let rescale = RescalePlan::seeded(11).drain_host(HostId(1), SimTime::from_nanos(4_000_000));
        let (metrics, _) = RingDriver::new(&cfg)
            .with_rescale_plan(&rescale)
            .run(payloads(hosts, 2, 32), |_, _: &Vec<u8>| {
                std::thread::sleep(Duration::from_millis(1));
            })
            .unwrap();
        assert_eq!(metrics.fragments_completed, 6);
        assert_eq!(metrics.membership_epoch, 1);
        assert_eq!(metrics.rescale_drains, 1);
        assert_eq!(metrics.rescale_joins, 0);
        assert_eq!(metrics.rescale_handoffs, 1);
        assert_eq!(metrics.heal_events, 0);
        // The drained host keeps its processed credit for the fragments
        // it joined before departing.
        assert!(metrics.hosts[1].fragments_processed > 0);
    }

    #[test]
    fn rescale_plans_are_validated_up_front() {
        let out_of_range = RescalePlan::seeded(1).drain_host(HostId(9), SimTime::from_nanos(1_000));
        let err = RingDriver::new(&RingConfig::paper(2))
            .with_rescale_plan(&out_of_range)
            .run(payloads(2, 1, 8), |_, _: &Vec<u8>| {})
            .unwrap_err();
        assert!(matches!(err, RingError::UnsupportedFault(_)));

        let standby_with_fragments =
            RescalePlan::seeded(1).join_host(HostId(1), SimTime::from_nanos(1_000));
        let err = RingDriver::new(&RingConfig::paper(2))
            .with_rescale_plan(&standby_with_fragments)
            .run(payloads(2, 1, 8), |_, _: &Vec<u8>| {})
            .unwrap_err();
        assert!(matches!(err, RingError::UnsupportedFault(_)));

        let single = RescalePlan::seeded(1).drain_host(HostId(0), SimTime::from_nanos(1_000));
        let err = RingDriver::new(&RingConfig::paper(1))
            .with_rescale_plan(&single)
            .run(payloads(1, 1, 8), |_, _: &Vec<u8>| {})
            .unwrap_err();
        assert!(matches!(err, RingError::UnsupportedFault(_)));

        // Crash faults stay unsupported even in coordinated mode.
        let crash = FaultPlan::seeded(0).crash_host(HostId(1), SimTime::from_nanos(1));
        let quiet = RescalePlan::seeded(0);
        let err = RingDriver::new(&RingConfig::paper(3))
            .with_fault_plan(&crash)
            .with_rescale_plan(&quiet)
            .run(payloads(3, 1, 8), |_, _: &Vec<u8>| {})
            .unwrap_err();
        assert!(matches!(err, RingError::UnsupportedFault(_)));
    }

    #[test]
    fn multiplexed_query_shapes_are_validated() {
        let cfg = RingConfig::paper(2);
        let bad_shape = vec![(0u32, payloads(3, 1, 8))];
        let err = RingDriver::new(&cfg)
            .run_queries(bad_shape, 1, |_, _, _, _: &[u8]| {}, |_, _| {})
            .unwrap_err();
        assert!(matches!(err, RingError::Shape { .. }));

        let err = RingDriver::new(&cfg)
            .run_queries(
                Vec::<(u32, Vec<Vec<Vec<u8>>>)>::new(),
                1,
                |_, _, _, _| {},
                |_, _| {},
            )
            .unwrap_err();
        assert!(matches!(err, RingError::UnsupportedFault(_)));

        let single = RingConfig::paper(1);
        let err = RingDriver::new(&single)
            .run_queries(
                vec![(0u32, payloads(1, 1, 8))],
                1,
                |_, _, _, _: &[u8]| {},
                |_, _| {},
            )
            .unwrap_err();
        assert!(matches!(err, RingError::UnsupportedFault(_)));
    }
}
