//! The live ring backend: Data Roundabout on real OS threads.
//!
//! The simulated backend is what reproduces the paper's figures; this
//! backend runs the *same protocol* with real concurrency, as an existence
//! proof that the asynchronous receiver/join/transmitter design is sound
//! (no deadlocks, no lost or duplicated envelopes) and to let integration
//! tests exercise races the deterministic simulator cannot produce.
//!
//! All protocol *policy* is imported from the sans-IO [`crate::protocol`]
//! core — envelope numbering ([`envelope_batches`]), the per-hop reliable
//! transport ([`LinkSender`] / [`LinkReceiver`]), the shared timeout and
//! backoff rules, and the teardown vocabulary ([`teardown`]). This file
//! contributes only the *mechanism*: threads, channels and wall clocks.
//!
//! Mapping of the paper's entities:
//!
//! * the bounded channel into each host **is** its ring of receive buffer
//!   elements (capacity = `buffers_per_host`); a blocked send is the
//!   credit-based flow control;
//! * each host's **join thread** prefers draining received envelopes (to
//!   free buffer elements quickly) and falls back to its local backlog;
//! * each host's **transmitter thread** forwards processed envelopes and
//!   provides the asynchrony that lets the join thread keep working while
//!   a send is blocked downstream — the join thread itself never blocks on
//!   the network.
//!
//! A [`RingDriver`] with a fault plan runs the same ring over an
//! *unreliable* medium: the plan may drop, corrupt or delay each hop
//! transfer, and every hop is protected by the acknowledged stop-and-wait
//! protocol the simulated backend uses — sequence numbers, checksum
//! verification at receive, and timeout-driven retransmission with
//! exponential backoff. Host crashes and pauses are *not* supported here
//! (ring healing needs the simulator's virtual time); plans scheduling
//! them are rejected.
//!
//! A worker dying mid-run — a panicking join callback, or a transfer that
//! exhausts its retransmission budget — does **not** cascade panics across
//! the thread scope: the failing worker returns a typed
//! [`RingError::Teardown`], its channels close, every neighbor observes the
//! closure and unwinds in turn (the teardown wave travels forward around
//! the ring, so no thread is left blocked), and the run reports the *first*
//! failure rather than the loudest.
//!
//! A traced run ([`RingDriver::with_tracer`]) additionally records a
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
    self, Coordinator, Done, Event, Job, JobDone, Medium, Pending, Recv, TimerKind, Workload,
};
use crate::envelope::{Envelope, PayloadBytes};
use crate::error::RingError;
use crate::frame::Frame;
use crate::metrics::{HostMetrics, RingMetrics};
use crate::protocol::{
    backoff_exponent, envelope_batches, query_batches, teardown, LinkReceiver, LinkSender, Receipt,
    TimeoutVerdict,
};

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

/// Builder for a live (real-thread) ring run — the single entry point of
/// this backend.
///
/// The default driver runs the classic unguarded transport; attaching a
/// [`FaultPlan`] switches every hop onto the acknowledged stop-and-wait
/// transport from the protocol core, and [`RingDriver::with_tracer`]
/// enables structured span recording.
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
#[derive(Clone, Copy)]
pub struct RingDriver<'a> {
    config: &'a RingConfig,
    fault_plan: Option<&'a FaultPlan>,
    rescale_plan: Option<&'a RescalePlan>,
    trace: bool,
}

impl<'a> RingDriver<'a> {
    /// A driver for `config` with the classic transport and no tracing.
    pub fn new(config: &'a RingConfig) -> Self {
        RingDriver {
            config,
            fault_plan: None,
            rescale_plan: None,
            trace: false,
        }
    }

    /// Runs the ring over the unreliable medium described by `plan`, with
    /// every hop protected by the acknowledged transport.
    ///
    /// Each hop gets a *wire* channel (capacity 1 — the link carries one
    /// transfer at a time), an acknowledgement channel back, and a
    /// dedicated receiver thread in front of the host's buffer pool. The
    /// transmitter stamps each envelope with the protocol core's per-link
    /// sequence number and runs stop-and-wait: send a copy (the plan's
    /// dice may drop it, corrupt its checksum, or delay it), then await
    /// the ack for `ack_timeout × 2^(a−1)` on attempt `a`; on timeout the
    /// shared [`LinkSender::on_timeout`] policy decides between
    /// retransmitting from the pristine master and tearing down. The
    /// receiver classifies arrivals via [`LinkReceiver::receive`] —
    /// counting checksum mismatches and staying silent so the sender
    /// retransmits, re-acking duplicates without redelivering them — and
    /// acks *before* depositing into the buffer pool: acknowledgement is a
    /// NIC-level statement of intact receipt, so downstream backpressure
    /// never masquerades as loss.
    pub fn with_fault_plan(mut self, plan: &'a FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Attaches a planned [`RescalePlan`]: standby hosts joining the
    /// ring and active hosts draining out of it mid-run, with their
    /// stationary partitions repartitioned by rendezvous hashing.
    ///
    /// A rescale run switches this backend into its *coordinated* mode —
    /// the coordinator the socket drivers run, owning the sans-IO
    /// [`RingProtocol`](crate::protocol::RingProtocol) and driving per-host
    /// join workers over channels instead of sockets — because
    /// membership transitions need the protocol core's
    /// ledger rather than the emergent channel topology of the classic
    /// paths. Join/drain instants are interpreted in wall-clock time from
    /// ring start. Hosts named in a join start as provisioned standbys
    /// outside the ring and must contribute no fragments; the run uses
    /// the acked reliable transport even without a fault plan.
    pub fn with_rescale_plan(mut self, plan: &'a RescalePlan) -> Self {
        self.rescale_plan = Some(plan);
        self
    }

    /// Enables structured span recording for this run.
    pub fn with_tracer(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Runs the ring to completion. `fragments[h]` are host `h`'s local
    /// fragments; `process` is invoked once per (host, envelope) visit and
    /// may itself be internally multi-threaded.
    ///
    /// Returns wall-clock metrics converted into the common
    /// [`RingMetrics`] shape (setup is zero here — run any setup before
    /// calling and time it yourself; CPU accounts contain compute time
    /// only), plus the [`SpanTracer`] (empty and disabled unless
    /// [`RingDriver::with_tracer`] was set).
    ///
    /// # Errors
    ///
    /// Returns [`RingError::Config`] for an invalid configuration,
    /// [`RingError::Shape`] when `fragments.len() != config.hosts`,
    /// [`RingError::UnsupportedFault`] when the fault plan schedules host
    /// crashes or pauses (those need the simulated backend's virtual time
    /// and ring healing), and [`RingError::Teardown`] when a worker dies
    /// mid-run — a panicking `process` callback, or (with a fault plan) a
    /// transfer that exhausts its retransmission budget: on this backend
    /// every host is alive, so an exhausted budget means the timeout is
    /// too tight or the loss rate too high to ever succeed. The error
    /// names the first failure, not the channel-closure cascade it
    /// provokes.
    pub fn run<P, F>(
        self,
        fragments: Vec<Vec<P>>,
        process: F,
    ) -> Result<(RingMetrics, SpanTracer), RingError>
    where
        P: PayloadBytes + Send + Clone,
        F: Fn(HostId, &P) + Sync,
    {
        match (self.rescale_plan, self.fault_plan) {
            (Some(rescale), plan) => {
                coordinated_run(self.config, plan, rescale, fragments, process, self.trace)
            }
            (None, Some(plan)) => reliable_run(self.config, plan, fragments, process, self.trace),
            (None, None) => classic_run(self.config, fragments, process, self.trace),
        }
    }

    /// Runs several queries multiplexed over one ring on the coordinated
    /// engine. `queries[q]` is `(tenant, fragments)` with `fragments[h]`
    /// host `h`'s local fragments for query `q`; at most `max_active`
    /// queries circulate concurrently. Always uses the reliable acked
    /// transport (quiet dice are synthesized without a fault plan), so
    /// per-query exactly-once delivery holds.
    ///
    /// # Errors
    ///
    /// As [`RingDriver::run`], plus [`RingError::Shape`] when any query's
    /// fragment lists disagree with the host count and
    /// [`RingError::UnsupportedFault`] on a single-host ring (nothing to
    /// multiplex over) or a zero `max_active`.
    pub fn run_queries<P, F>(
        self,
        queries: Vec<(u32, Vec<Vec<P>>)>,
        max_active: usize,
        process: F,
    ) -> Result<(RingMetrics, SpanTracer), RingError>
    where
        P: PayloadBytes + Send + Clone,
        F: Fn(HostId, u32, &P) + Sync,
    {
        coordinated_multi_run(
            self.config,
            self.fault_plan,
            self.rescale_plan,
            queries,
            max_active,
            process,
            self.trace,
        )
    }
}

/// The coordinated engine behind [`RingDriver::run_queries`]: validates
/// the query shapes, synthesizes quiet dice when no fault plan is
/// attached, numbers the queries' envelopes and drives them.
fn coordinated_multi_run<P, F>(
    config: &RingConfig,
    fault_plan: Option<&FaultPlan>,
    rescale: Option<&RescalePlan>,
    queries: Vec<(u32, Vec<Vec<P>>)>,
    max_active: usize,
    process: F,
    trace: bool,
) -> Result<(RingMetrics, SpanTracer), RingError>
where
    P: PayloadBytes + Send + Clone,
    F: Fn(HostId, u32, &P) + Sync,
{
    let shapes: Vec<&[Vec<P>]> = queries.iter().map(|(_, f)| f.as_slice()).collect();
    coordinator::validate(
        config,
        fault_plan,
        rescale,
        &shapes,
        Some(max_active),
        false,
    )?;
    let workload = Workload::Multi {
        queries: query_batches(queries, config.hosts),
        max_active,
    };
    drive_coordinated(config, fault_plan, rescale, workload, process, trace)
}

/// The classic (unguarded-transport) engine behind [`RingDriver::run`].
fn classic_run<P, F>(
    config: &RingConfig,
    fragments: Vec<Vec<P>>,
    process: F,
    trace: bool,
) -> Result<(RingMetrics, SpanTracer), RingError>
where
    P: PayloadBytes + Send,
    F: Fn(HostId, &P) + Sync,
{
    config.validate()?;
    if fragments.len() != config.hosts {
        return Err(RingError::Shape {
            expected: config.hosts,
            got: fragments.len(),
        });
    }
    let n = config.hosts;
    let total: usize = fragments.iter().map(Vec::len).sum();
    let mut batches = envelope_batches(fragments, n);
    let shared = trace.then(SharedSpans::new);
    let spans = shared.as_ref();

    if n == 1 {
        let envelopes = batches.pop().unwrap_or_default();
        let metrics = run_single_host(envelopes, process, spans)?;
        let tracer = finish_spans(shared, &metrics);
        return Ok((metrics, tracer));
    }

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
                // On the classic path the buffer pool is the receiver, so
                // the join entity records envelope arrivals itself.
                join_entity(
                    HostId(h),
                    n,
                    total,
                    backlog,
                    rx,
                    out_tx,
                    process,
                    spans,
                    true,
                )
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
    let tracer = finish_spans(shared, &metrics);
    Ok((metrics, tracer))
}

/// The reliable-transport engine behind [`RingDriver::run`] with a fault
/// plan attached.
fn reliable_run<P, F>(
    config: &RingConfig,
    plan: &FaultPlan,
    fragments: Vec<Vec<P>>,
    process: F,
    trace: bool,
) -> Result<(RingMetrics, SpanTracer), RingError>
where
    P: PayloadBytes + Send + Clone,
    F: Fn(HostId, &P) + Sync,
{
    config.validate()?;
    if fragments.len() != config.hosts {
        return Err(RingError::Shape {
            expected: config.hosts,
            got: fragments.len(),
        });
    }
    if !plan.crashes().is_empty() || !plan.pauses().is_empty() {
        return Err(RingError::UnsupportedFault(
            "the threaded backend supports link loss, corruption and delay spikes (plus planned \
             rescale); host crashes and pauses need ring healing — use the simulated backend \
             (all fault kinds) or the tcp backend (loss, corruption, crashes, pauses)",
        ));
    }
    let n = config.hosts;
    let total: usize = fragments.iter().map(Vec::len).sum();
    let mut batches = envelope_batches(fragments, n);
    let shared = trace.then(SharedSpans::new);
    let spans = shared.as_ref();

    if n == 1 {
        let envelopes = batches.pop().unwrap_or_default();
        let metrics = run_single_host(envelopes, process, spans)?;
        let tracer = finish_spans(shared, &metrics);
        return Ok((metrics, tracer));
    }

    // Per-hop channels, indexed by the *sending* host h of the hop
    // h → h+1: the wire itself, and the acknowledgements flowing back.
    let mut wire_tx = Vec::with_capacity(n);
    let mut wire_rx = Vec::with_capacity(n);
    let mut ack_tx = Vec::with_capacity(n);
    let mut ack_rx = Vec::with_capacity(n);
    for _ in 0..n {
        let (wtx, wrx) = bounded::<Envelope<P>>(1);
        let (atx, arx) = unbounded::<u64>();
        wire_tx.push(wtx);
        wire_rx.push(wrx);
        ack_tx.push(atx);
        ack_rx.push(arx);
    }
    // Receive buffer pools, indexed by the owning host.
    let mut pool_tx = Vec::with_capacity(n);
    let mut pool_rx = Vec::with_capacity(n);
    for _ in 0..n {
        let (ptx, prx) = bounded::<Envelope<P>>(config.buffers_per_host);
        pool_tx.push(ptx);
        pool_rx.push(prx);
    }
    // Receiver of host h fronts the hop out of its predecessor: it reads
    // wire_rx[h-1] and acks into ack_tx[h-1].
    wire_rx.rotate_right(1);
    ack_tx.rotate_right(1);

    let forwarded: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let retransmits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let mismatches: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let mut host_stats: Vec<Option<JoinStats>> = (0..n).map(|_| None).collect();

    let ack_timeout = Duration::from_secs_f64(config.ack_timeout.as_secs_f64());
    let max_retransmits = config.max_retransmits;

    let first_error = crate::sync::thread::scope(|scope| {
        let mut join_handles = Vec::with_capacity(n);
        let mut aux_handles = Vec::with_capacity(2 * n);
        let iter = batches
            .into_iter()
            .zip(pool_rx.into_iter().zip(pool_tx))
            .zip(wire_tx.into_iter().zip(ack_rx))
            .zip(wire_rx.into_iter().zip(ack_tx))
            .zip(forwarded.iter().zip(retransmits.iter().zip(&mismatches)))
            .enumerate();
        for (h, ((((backlog, (prx, ptx)), (wtx, arx)), (wrx, atx)), (fwd, (rtx, mis)))) in iter {
            let (out_tx, out_rx) = unbounded::<Envelope<P>>();
            let process = &process;
            join_handles.push(scope.spawn(move || {
                // The dedicated receiver thread records arrivals here, so
                // the join entity must not double-count them.
                join_entity(
                    HostId(h),
                    n,
                    total,
                    backlog,
                    prx,
                    out_tx,
                    process,
                    spans,
                    false,
                )
            }));
            aux_handles.push(scope.spawn(move || {
                reliable_transmitter(
                    HostId(h),
                    plan,
                    ack_timeout,
                    max_retransmits,
                    out_rx,
                    wtx,
                    arx,
                    fwd,
                    rtx,
                    spans,
                )
            }));
            aux_handles.push(scope.spawn(move || {
                reliable_receiver(HostId(h), wrx, atx, ptx, mis, spans);
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
        for handle in aux_handles {
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
        .zip(forwarded.iter().zip(retransmits.iter().zip(&mismatches)))
        .map(|(s, (fwd, (rtx, mis)))| {
            s.into_metrics(
                config,
                fwd.load(Ordering::Relaxed),
                rtx.load(Ordering::Relaxed),
                mis.load(Ordering::Relaxed),
            )
        })
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
    let tracer = finish_spans(shared, &metrics);
    Ok((metrics, tracer))
}

// ---------------------------------------------------------------------------
// Coordinated mode: the shared coordinator over an instant channel wire
// ---------------------------------------------------------------------------

/// The medium of the coordinated engine: per-host job queues and a timer
/// thread, and nothing in between — the channel "wire" has no latency in
/// either direction, so deliveries and acks reach their host in the same
/// coordinator round as follow-up events, and a fault-plan delay spike is
/// modeled by parking the arrival on the timer thread. There is no
/// application absorb hook on this backend: a takeover is free and
/// completes in the same round. Nothing can be severed (host crashes are
/// rejected up front).
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
        env: Envelope<P>,
        delay: Duration,
        next: &mut Pending<P>,
    ) -> Result<(), RingError> {
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
        Ok(())
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

    fn start(&mut self, host: HostId, job: Job<P>, next: &mut Pending<P>) -> Result<(), RingError> {
        match job {
            Job::Absorb {
                dead,
                roles,
                planned,
            } => next.push_back(Event::Job(JobDone {
                host,
                spent: Duration::ZERO,
                panicked: false,
                what: Done::Absorb {
                    dead,
                    roles: roles.len(),
                    planned,
                },
            })),
            job => {
                let sent = self.jobs.get(host.0).is_some_and(|tx| tx.send(job).is_ok());
                if !sent {
                    return Err(RingError::Teardown(teardown::RING_CLOSED));
                }
            }
        }
        Ok(())
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

/// The coordinated engine behind [`RingDriver::run`] with a rescale plan
/// attached: validates the plans, numbers the envelopes and drives them
/// through the protocol over channels.
fn coordinated_run<P, F>(
    config: &RingConfig,
    fault_plan: Option<&FaultPlan>,
    rescale: &RescalePlan,
    fragments: Vec<Vec<P>>,
    process: F,
    trace: bool,
) -> Result<(RingMetrics, SpanTracer), RingError>
where
    P: PayloadBytes + Send + Clone,
    F: Fn(HostId, &P) + Sync,
{
    coordinator::validate(
        config,
        fault_plan,
        Some(rescale),
        &[&fragments],
        None,
        false,
    )?;
    let batches = envelope_batches(fragments, config.hosts);
    if config.hosts == 1 {
        // A quiet plan on a single host (checked above): the degenerate
        // local path needs no coordinator.
        return single_host_run(batches, process, trace);
    }
    drive_coordinated(
        config,
        fault_plan,
        Some(rescale),
        Workload::Single(batches),
        |host, _query, payload: &P| process(host, payload),
        trace,
    )
}

/// The channel-and-thread machinery shared by every coordinated run:
/// spawns the per-host workers and the timer loop, then lets the shared
/// [`Coordinator`] feed the protocol until every fragment retired. Rescale
/// and multiplexing ride the reliable transport, so quiet dice stand in
/// for a missing fault plan.
fn drive_coordinated<P, F>(
    config: &RingConfig,
    fault_plan: Option<&FaultPlan>,
    rescale: Option<&RescalePlan>,
    workload: Workload<P>,
    process: F,
    trace: bool,
) -> Result<(RingMetrics, SpanTracer), RingError>
where
    P: PayloadBytes + Send + Clone,
    F: Fn(HostId, u32, &P) + Sync,
{
    let plan = coordinator::dice(fault_plan, rescale, true);
    let (events_tx, events_rx) = unbounded::<Event<P>>();
    let (timer_tx, timer_rx) = unbounded::<(Instant, Event<P>)>();
    let visit = |host: HostId, query: u32, _roles: &[usize], payload: &P| {
        process(host, query, payload);
    };
    crate::sync::thread::scope(|scope| {
        let mut jobs = Vec::with_capacity(config.hosts);
        for h in 0..config.hosts {
            let (jtx, jrx) = unbounded::<Job<P>>();
            let tx = events_tx.clone();
            let visit = &visit;
            scope.spawn(move || {
                coordinator::worker_loop(
                    HostId(h),
                    jrx.iter(),
                    |event| tx.send(event).is_ok(),
                    visit,
                    &|_, _| {},
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
        let mut co = Coordinator::new(config, plan.as_deref(), rescale, workload, trace, wire);
        co.run(|wait| recv_from(&events_rx, wait));
        // Consuming the coordinator drops its job and timer senders,
        // draining the worker and timer threads before the scope closes.
        co.finish()
    })
}

/// Closes out a traced run: materialises every well-known counter — the
/// heal ones are always zero on this backend (healing needs the
/// simulator), and a classic run never retransmits — so trace consumers
/// see them observed rather than missing, and hands the tracer out of its
/// mutex.
pub(crate) fn finish_spans(shared: Option<SharedSpans>, metrics: &RingMetrics) -> SpanTracer {
    match shared {
        None => SpanTracer::disabled(),
        Some(shared) => {
            let mut tracer = shared.into_tracer();
            for name in [
                counter::ENVELOPES_SENT,
                counter::ENVELOPES_RECEIVED,
                counter::FRAGMENTS_RETIRED,
                counter::RETRANSMITS,
                counter::CHECKSUM_MISMATCHES,
            ] {
                tracer.count(name, 0);
            }
            tracer.count(counter::HEAL_EVENTS, metrics.heal_events as u64);
            tracer.count(counter::FRAGMENTS_RESENT, metrics.fragments_resent as u64);
            tracer.count(counter::RESCALE_JOINS, metrics.rescale_joins);
            tracer.count(counter::RESCALE_DRAINS, metrics.rescale_drains);
            tracer.count(counter::RESCALE_HANDOFFS, metrics.rescale_handoffs);
            tracer
        }
    }
}

/// Stop-and-wait sender side of one reliable hop: channels and wall-clock
/// deadlines around the protocol core's [`LinkSender`] policy.
#[allow(clippy::too_many_arguments)]
fn reliable_transmitter<P>(
    host: HostId,
    plan: &FaultPlan,
    ack_timeout: Duration,
    max_retransmits: u32,
    out_rx: Receiver<Envelope<P>>,
    wire_tx: Sender<Envelope<P>>,
    ack_rx: Receiver<u64>,
    forwarded: &AtomicU64,
    retransmits: &AtomicU64,
    spans: Option<&SharedSpans>,
) -> Result<(), RingError>
where
    P: PayloadBytes + Send + Clone,
{
    let mut link = LinkSender::new(max_retransmits);
    for mut env in out_rx.iter() {
        let seq = link.stamp(&mut env);
        let mut attempt = 1u32;
        if let Some(s) = spans {
            s.event(
                host.0,
                Track::Transmitter,
                format!("send {}", env.id),
                Some(counter::ENVELOPES_SENT),
            );
        }
        loop {
            let dropped = plan.should_drop(host, seq, attempt);
            let corrupt = !dropped && plan.should_corrupt(host, seq, attempt);
            let spike = plan.delay_spike(host, seq, attempt);
            if !dropped {
                let mut copy = env.clone();
                if corrupt {
                    copy.checksum = !copy.checksum;
                }
                if !spike.is_zero() {
                    std::thread::sleep(Duration::from_secs_f64(spike.as_secs_f64()));
                }
                forwarded.fetch_add(copy.bytes(), Ordering::Relaxed);
                if wire_tx.send(copy).is_err() {
                    return Err(RingError::Teardown(teardown::RECEIVER_GONE));
                }
            }
            // Await the ack with the shared backoff schedule on retries.
            // Stale acks (duplicate re-acks of earlier transfers) are
            // drained silently.
            let rto = ack_timeout * (1u32 << backoff_exponent(attempt));
            let deadline = Instant::now() + rto;
            let acked = loop {
                let remaining = deadline.saturating_duration_since(Instant::now());
                match ack_rx.recv_timeout(remaining) {
                    Ok(s) if s == seq => break true,
                    Ok(_) => continue,
                    Err(RecvTimeoutError::Timeout) => break false,
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(RingError::Teardown(teardown::RECEIVER_GONE));
                    }
                }
            };
            if acked {
                break;
            }
            match link.on_timeout(attempt) {
                TimeoutVerdict::Exhausted => {
                    return Err(RingError::Teardown(teardown::BUDGET_EXHAUSTED));
                }
                TimeoutVerdict::Retry { attempt: next, .. } => {
                    attempt = next;
                    retransmits.fetch_add(1, Ordering::Relaxed);
                    if let Some(s) = spans {
                        s.event(
                            host.0,
                            Track::Transmitter,
                            format!("retransmit {} attempt {}", env.id, attempt),
                            Some(counter::RETRANSMITS),
                        );
                    }
                }
            }
        }
    }
    // Dropping wire_tx closes the successor's receiver.
    Ok(())
}

/// Receiver side of one reliable hop: the NIC in front of the buffer pool,
/// classifying arrivals with the protocol core's [`LinkReceiver`].
fn reliable_receiver<P>(
    host: HostId,
    wire_rx: Receiver<Envelope<P>>,
    ack_tx: Sender<u64>,
    pool_tx: Sender<Envelope<P>>,
    mismatches: &AtomicU64,
    spans: Option<&SharedSpans>,
) where
    P: PayloadBytes + Send,
{
    let mut link = LinkReceiver::new();
    for env in wire_rx.iter() {
        match link.receive(&env) {
            Receipt::Corrupt => {
                // Corrupted in flight: count it and stay silent — the
                // sender's timeout turns the silence into a retransmission.
                mismatches.fetch_add(1, Ordering::Relaxed);
                if let Some(s) = spans {
                    s.event(
                        host.0,
                        Track::Receiver,
                        format!("checksum mismatch {}", env.id),
                        Some(counter::CHECKSUM_MISMATCHES),
                    );
                }
            }
            Receipt::Duplicate => {
                // Duplicate of an already delivered transfer (its ack raced
                // the sender's timeout): re-ack, do not deliver twice.
                let _ = ack_tx.send(env.seq);
                if let Some(s) = spans {
                    s.event(
                        host.0,
                        Track::Receiver,
                        format!("duplicate {}", env.id),
                        None,
                    );
                }
            }
            Receipt::Deliver => {
                // Ack before depositing: receipt is acknowledged at the NIC
                // even when the buffer pool exerts backpressure on the wire.
                let _ = ack_tx.send(env.seq);
                if let Some(s) = spans {
                    s.event(
                        host.0,
                        Track::Receiver,
                        format!("recv {}", env.id),
                        Some(counter::ENVELOPES_RECEIVED),
                    );
                }
                if pool_tx.send(env).is_err() {
                    break;
                }
            }
        }
    }
    // Dropping ack_tx / pool_tx unblocks the neighbors' shutdown.
}

/// What a host's join entity measured about itself (or, on the
/// coordinated engines, what the coordinator measured for it).
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
            bytes_forwarded,
            retransmits,
            checksum_mismatches,
        }
    }
}

/// The join entity of one host. `backlog` holds the host's local
/// fragments, pre-numbered by [`envelope_batches`].
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
    record_receives: bool,
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
        if received && record_receives {
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

/// Degenerate single-host "ring": process the backlog locally. Shared
/// with the TCP backend, whose single-host case has no sockets to run.
pub(crate) fn run_single_host<P, F>(
    envelopes: Vec<Envelope<P>>,
    process: F,
    spans: Option<&SharedSpans>,
) -> Result<RingMetrics, RingError>
where
    P: PayloadBytes + Send,
    F: Fn(HostId, &P) + Sync,
{
    let started = Instant::now();
    let mut busy = Duration::ZERO;
    let mut processed = 0usize;
    for env in envelopes {
        let t = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| process(HostId(0), &env.payload)));
        let spent = t.elapsed();
        busy += spent;
        if outcome.is_err() {
            return Err(RingError::Teardown(teardown::CALLBACK_PANICKED));
        }
        if let Some(s) = spans {
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
    Ok(RingMetrics {
        hosts: vec![host],
        wall_clock: started.elapsed().into(),
        fragments_completed: processed,
        ..RingMetrics::default()
    })
}

/// The degenerate single-host "ring" as a whole run: process host 0's
/// backlog locally and close out the trace.
pub(crate) fn single_host_run<P, F>(
    batches: Vec<Vec<Envelope<P>>>,
    process: F,
    trace: bool,
) -> Result<(RingMetrics, SpanTracer), RingError>
where
    P: PayloadBytes + Send,
    F: Fn(HostId, &P) + Sync,
{
    let spans = trace.then(SharedSpans::new);
    let backlog = batches.into_iter().next().unwrap_or_default();
    let metrics = run_single_host(backlog, process, spans.as_ref())?;
    let tracer = finish_spans(spans, &metrics);
    Ok((metrics, tracer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::time::SimTime;
    use std::sync::atomic::AtomicUsize;

    fn payloads(hosts: usize, per_host: usize, bytes: usize) -> Vec<Vec<Vec<u8>>> {
        (0..hosts)
            .map(|_| (0..per_host).map(|_| vec![0u8; bytes]).collect())
            .collect()
    }

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
        let hosts = 4;
        let counts: Vec<AtomicUsize> = (0..hosts).map(|_| AtomicUsize::new(0)).collect();
        let metrics = run_plain(&RingConfig::paper(hosts), payloads(hosts, 3, 64), |h, _| {
            counts[h.0].fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert_eq!(metrics.fragments_completed, 12);
        for c in &counts {
            assert_eq!(c.load(Ordering::SeqCst), 12);
        }
        assert_eq!(
            metrics.total_bytes_forwarded() as usize,
            12 * 64 * (hosts - 1)
        );
        assert!(metrics.fault_free());
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

    #[test]
    fn invalid_config_is_a_typed_error() {
        let err = run_plain(&RingConfig::paper(0), vec![], |_, _| {}).unwrap_err();
        assert!(matches!(err, RingError::Config(_)));
    }

    #[test]
    fn shape_mismatch_is_a_typed_error() {
        let err = run_plain(&RingConfig::paper(3), payloads(2, 1, 8), |_, _| {}).unwrap_err();
        assert_eq!(
            err,
            RingError::Shape {
                expected: 3,
                got: 2
            }
        );
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

    /// Same premature-close regression on the reliable transport: the
    /// receiver/transmitter threads observe the closed channels and return
    /// typed errors instead of panicking on their sends.
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

    /// The same seeded schedule the socket backend runs: host 2 starts as
    /// a standby, joins at 1 ms and a founding member drains at 8 ms. The
    /// membership counters are pure functions of the schedule, so they
    /// must land on the exact values the sim and tcp backends report.
    #[test]
    fn planned_join_and_drain_on_real_threads() {
        let hosts = 3;
        let cfg = RingConfig::paper(hosts)
            .with_ack_timeout(SimDuration::from_millis(20))
            .with_max_retransmits(6);
        let rescale = RescalePlan::seeded(77)
            .join_host(HostId(2), SimTime::from_nanos(1_000_000))
            .drain_host(HostId(0), SimTime::from_nanos(8_000_000));
        let mut frags = payloads(hosts, 3, 64);
        frags[2].clear();
        let counts: Vec<AtomicUsize> = (0..hosts).map(|_| AtomicUsize::new(0)).collect();
        let (metrics, spans) = RingDriver::new(&cfg)
            .with_rescale_plan(&rescale)
            .with_tracer(true)
            .run(frags, |h, _: &Vec<u8>| {
                counts[h.0].fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
            })
            .unwrap();
        assert_eq!(metrics.fragments_completed, 6);
        assert_eq!(metrics.membership_epoch, 2, "{metrics:?}");
        assert_eq!(metrics.rescale_joins, 1);
        assert_eq!(metrics.rescale_drains, 1);
        assert_eq!(metrics.rescale_handoffs, 1);
        assert_eq!(metrics.rescale_escalations, 0);
        assert_eq!(metrics.heal_events, 0, "a clean drain never heals");
        assert!(
            counts[2].load(Ordering::SeqCst) > 0,
            "the joined host must process fragments after activation"
        );
        assert_eq!(spans.count_events("activated"), 1);
        assert_eq!(spans.count_events("departed"), 1);
        let counters = spans.counters();
        assert_eq!(counters.get(counter::RESCALE_JOINS), 1);
        assert_eq!(counters.get(counter::RESCALE_DRAINS), 1);
        assert_eq!(counters.get(counter::RESCALE_HANDOFFS), 1);
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
    fn multiplexed_queries_complete_on_real_threads() {
        let hosts = 3;
        let queries = 3;
        let cfg = RingConfig::paper(hosts)
            .with_ack_timeout(SimDuration::from_millis(50))
            .with_max_retransmits(6);
        let tenants: Vec<(u32, Vec<Vec<Vec<u8>>>)> = (0..queries)
            .map(|q| (q as u32, payloads(hosts, 2, 64)))
            .collect();
        let counts: Vec<AtomicUsize> = (0..hosts).map(|_| AtomicUsize::new(0)).collect();
        let (metrics, spans) = RingDriver::new(&cfg)
            .with_tracer(true)
            .run_queries(tenants, 2, |h, _query, _: &Vec<u8>| {
                counts[h.0].fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        assert_eq!(metrics.fragments_completed, queries * hosts * 2);
        assert_eq!(metrics.queries.len(), queries);
        for (q, m) in metrics.queries.iter().enumerate() {
            assert_eq!(m.tenant, q as u32);
            assert!(m.completed, "query {q}: {m:?}");
            assert_eq!(m.fragments_completed, hosts * 2);
        }
        for c in &counts {
            assert_eq!(c.load(Ordering::SeqCst), queries * hosts * 2);
        }
        let counters = spans.counters();
        assert_eq!(counters.get(counter::QUERIES_ADMITTED), queries as u64);
        assert_eq!(counters.get(counter::QUERIES_COMPLETED), queries as u64);
    }

    #[test]
    fn multiplexed_query_shapes_are_validated() {
        let cfg = RingConfig::paper(2);
        let bad_shape = vec![(0u32, payloads(3, 1, 8))];
        let err = RingDriver::new(&cfg)
            .run_queries(bad_shape, 1, |_, _, _: &Vec<u8>| {})
            .unwrap_err();
        assert!(matches!(err, RingError::Shape { .. }));

        let err = RingDriver::new(&cfg)
            .run_queries(Vec::<(u32, Vec<Vec<Vec<u8>>>)>::new(), 1, |_, _, _| {})
            .unwrap_err();
        assert!(matches!(err, RingError::UnsupportedFault(_)));

        let single = RingConfig::paper(1);
        let err = RingDriver::new(&single)
            .run_queries(vec![(0u32, payloads(1, 1, 8))], 1, |_, _, _: &Vec<u8>| {})
            .unwrap_err();
        assert!(matches!(err, RingError::UnsupportedFault(_)));
    }
}
