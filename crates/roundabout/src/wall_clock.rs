//! The wall clock: what the coordinator's wall-clock runs need and a
//! virtual-time run must never touch.
//!
//! Every ring run is one [`Coordinator`](crate::coordinator) over a
//! medium, and the coordinator keeps time as [`SimTime`] since the run's
//! epoch, read through `Medium::now`. A wall-clock medium answers from a
//! [`WallClock`]: the machine's clock since the epoch it took. The other
//! machine-clock reads of a wall-clock run live here too — the guarded
//! job runner that times each visit (`run_job`) — with the join pool
//! every wall-clock engine runs its joins and takeovers on
//! ([`WorkerPool`]) and the generic driver ([`WallClockDriver`]) that
//! `RingDriver`, `TcpRingDriver` and `ReactorRingDriver` are names for.
//! So `coordinator.rs`, which the simulator runs, reads no `Instant`
//! (xtask L2).
//!
//! The pool is the paper's join entity per host, on the machine: the
//! engines differ only in how a completion reaches their coordinator — a
//! queue it waits on (channel engine), its event channel (blocking
//! engine), or a queue and a wake socket (reactor). It is built on
//! [`crate::sync`], so the loom model of the channel engine checks the
//! pool the reactor runs.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::PoisonError;
use std::time::Instant;

use simnet::fault::{FaultPlan, RescalePlan};
use simnet::span::SpanTracer;
use simnet::time::{SimDuration, SimTime};
use simnet::topology::HostId;

use crate::config::RingConfig;
use crate::coordinator::{dice, validate, Done, Job, JobDone, Workload};
use crate::error::RingError;
use crate::frame::WirePayload;
use crate::inflight::Visit;
use crate::metrics::RingMetrics;
use crate::protocol::{envelope_batches, query_batches, teardown};
use crate::reactor_backend::ReactorEngine;
use crate::sync::{Condvar, Mutex, MutexGuard};
use crate::tcp_backend::BlockingEngine;
use crate::thread_backend::ChannelEngine;

/// A run's epoch on the machine's clock.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A clock whose epoch is this instant.
    pub(crate) fn start() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }

    /// The machine time since the epoch, on the coordinator's timeline.
    pub(crate) fn now(self) -> SimTime {
        SimTime::ZERO + SimDuration::from(self.epoch.elapsed())
    }
}

/// Runs one job at `host`, guarding the user callbacks: a panic inside
/// one must become a typed teardown error, not a dead worker. A join
/// visits the owned payload, or the bytes it arrived in read in place.
/// The job's time is measured, and its compute is that time on each of
/// the host's `threads` join threads.
pub(crate) fn run_job<P, F, A>(
    host: HostId,
    job: Job<P>,
    threads: usize,
    visit: &F,
    absorb: &A,
) -> JobDone
where
    P: WirePayload,
    F: Fn(HostId, u32, &[usize], Visit<'_, P>),
    A: Fn(HostId, usize),
{
    let started = Instant::now();
    let (completed, what) = match job {
        Job::Join {
            payload,
            query,
            roles,
            id,
            hop,
        } => {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let own = [host.0];
                let roles = roles.as_deref().unwrap_or(&own);
                payload
                    .visit()
                    .map(|payload| visit(host, query, roles, payload))
            }));
            (matches!(outcome, Ok(Some(()))), Done::Join { id, hop })
        }
        Job::Absorb {
            from,
            roles,
            planned,
        } => (
            catch_unwind(AssertUnwindSafe(|| {
                roles.iter().for_each(|&role| absorb(host, role))
            }))
            .is_ok(),
            Done::Absorb {
                from,
                roles: roles.len(),
                planned,
            },
        ),
    };
    let spent = SimDuration::from(started.elapsed());
    JobDone {
        panicked: !completed,
        ..JobDone::new(host, spent, spent * threads as u64, what)
    }
}

// ---------------------------------------------------------------------------
// The join pool
// ---------------------------------------------------------------------------

/// The pool's books, under its one mutex.
struct PoolState<P> {
    /// FIFO job queue per host. Jobs of one host never run concurrently,
    /// so the visit callback sees the same serialization on every engine.
    queues: Vec<VecDeque<Job<P>>>,
    running: Vec<bool>,
    /// Host is already enqueued on `ready` (dedup flag).
    queued: Vec<bool>,
    ready: VecDeque<usize>,
    shutdown: bool,
}

/// The join entities of a wall-clock run: `min(hosts, cores)` threads
/// run every host's joins and takeovers, one job of a host at a time and
/// in the order they were submitted. The pool never touches protocol
/// state; how a completion reaches the coordinator is the engine's
/// business (the `done` of [`WorkerPool::run`]).
///
/// It cannot deadlock: no job waits on another host's job, and a visit
/// that fans out across join threads spawns its own.
pub(crate) struct WorkerPool<P> {
    state: Mutex<PoolState<P>>,
    cv: Condvar,
}

impl<P> WorkerPool<P> {
    /// An empty pool for a ring of `hosts`.
    fn new(hosts: usize) -> WorkerPool<P> {
        WorkerPool {
            state: Mutex::new(PoolState {
                queues: (0..hosts).map(|_| VecDeque::new()).collect(),
                running: vec![false; hosts],
                queued: vec![false; hosts],
                ready: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// The books. Jobs run outside the lock and every update under it
    /// leaves them consistent, so a poisoned lock is recovered.
    fn lock(&self) -> MutexGuard<'_, PoolState<P>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `job` behind `host`'s earlier ones; dropped once the pool
    /// shut down.
    pub(crate) fn submit(&self, host: usize, job: Job<P>) {
        let mut st = self.lock();
        if st.shutdown {
            return;
        }
        if let Some(q) = st.queues.get_mut(host) {
            q.push_back(job);
        }
        let idle = !st.running.get(host).copied().unwrap_or(false);
        let enqueued = st.queued.get(host).copied().unwrap_or(true);
        if idle && !enqueued {
            if let Some(flag) = st.queued.get_mut(host) {
                *flag = true;
            }
            st.ready.push_back(host);
        }
        drop(st);
        self.cv.notify_one();
    }

    /// Blocks for the next runnable job; `None` means shutdown.
    fn next_job(&self) -> Option<(usize, Job<P>)> {
        let mut st = self.lock();
        loop {
            if st.shutdown {
                return None;
            }
            if let Some(host) = st.ready.pop_front() {
                if let Some(flag) = st.queued.get_mut(host) {
                    *flag = false;
                }
                let job = st.queues.get_mut(host).and_then(VecDeque::pop_front);
                if let Some(job) = job {
                    if let Some(flag) = st.running.get_mut(host) {
                        *flag = true;
                    }
                    return Some((host, job));
                }
                continue;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Marks `host`'s job finished and re-queues it if more work waits.
    fn finished(&self, host: usize) {
        let mut st = self.lock();
        if let Some(flag) = st.running.get_mut(host) {
            *flag = false;
        }
        let more = st.queues.get(host).is_some_and(|q| !q.is_empty());
        let enqueued = st.queued.get(host).copied().unwrap_or(true);
        if more && !enqueued && !st.shutdown {
            if let Some(flag) = st.queued.get_mut(host) {
                *flag = true;
            }
            st.ready.push_back(host);
            drop(st);
            self.cv.notify_one();
        }
    }

    /// Ends every [`WorkerPool::work`] loop once its current job is done;
    /// jobs still queued are dropped.
    fn shutdown(&self) {
        self.lock().shutdown = true;
        self.cv.notify_all();
    }

    /// One pool thread until shutdown: take a runnable job, run it through
    /// the guarded [`run_job`], hand the completion to `done`, and only
    /// then free the host for its next job.
    fn work<F, A>(&self, threads: usize, visit: &F, absorb: &A, done: impl Fn(JobDone))
    where
        P: WirePayload,
        F: Fn(HostId, u32, &[usize], Visit<'_, P>),
        A: Fn(HostId, usize),
    {
        while let Some((host, job)) = self.next_job() {
            done(run_job(HostId(host), job, threads, visit, absorb));
            self.finished(host);
        }
    }

    /// Runs `body` with `min(hosts, cores)` threads working the pool for
    /// a ring of `hosts`, each running `threads` join threads per visit
    /// and handing completions to `done`; then shuts the pool down and
    /// joins every thread. Each handle is joined explicitly: that is a
    /// scheduling point the loom model sees (see [`crate::sync::thread`]).
    ///
    /// # Errors
    ///
    /// `body`'s error, or [`RingError::Teardown`] when a pool thread
    /// panicked outside the guarded callbacks.
    pub(crate) fn run<F, A, R>(
        hosts: usize,
        threads: usize,
        visit: &F,
        absorb: &A,
        done: impl Fn(JobDone) + Sync,
        body: impl FnOnce(&WorkerPool<P>) -> Result<R, RingError>,
    ) -> Result<R, RingError>
    where
        P: WirePayload + Send,
        F: Fn(HostId, u32, &[usize], Visit<'_, P>) + Sync,
        A: Fn(HostId, usize) + Sync,
    {
        let pool = WorkerPool::new(hosts);
        let workers = hosts
            .min(
                std::thread::available_parallelism()
                    .map(std::num::NonZero::get)
                    .unwrap_or(2),
            )
            .max(1);
        crate::sync::thread::scope(|scope| {
            let (pool, done) = (&pool, &done);
            let handles: Vec<_> = (0..workers)
                .map(|_| scope.spawn(move || pool.work(threads, visit, absorb, done)))
                .collect();
            let outcome = body(pool);
            pool.shutdown();
            let mut panicked = false;
            for handle in handles {
                panicked |= handle.join().is_err();
            }
            if panicked {
                return Err(RingError::Teardown(teardown::WORKER_PANICKED));
            }
            outcome
        })
    }
}

/// The seal on [`WallClockEngine`]: nameable inside this crate only.
pub trait Sealed {}
impl Sealed for ChannelEngine {}
impl Sealed for BlockingEngine {}
impl Sealed for ReactorEngine {}

/// How a wall-clock driver runs a validated ring: over in-process
/// channels, on the blocking thread-per-endpoint socket engine, or on the
/// single-threaded reactor. A one-host ring has no wire, and every driver
/// runs it on the channel engine. All three roll the same dice and the
/// socket engines speak the frames of [`crate::frame`], so everything in
/// [`WallClockDriver`] above this call is shared.
///
/// Sealed: [`ChannelEngine`], [`BlockingEngine`] and [`ReactorEngine`] are
/// the engines there are; the trait is public only so the driver's three
/// names can be.
pub trait WallClockEngine: Sealed {
    /// Whether the engine's medium can realize host crashes and pauses;
    /// plans scheduling them are [`RingError::UnsupportedFault`] otherwise.
    const HOST_FAULTS: bool;

    /// Runs `workload` to completion (on the socket engines, a ring of at
    /// least two hosts).
    /// `plan` is the effective dice (`None` means the classic unguarded
    /// transport).
    ///
    /// # Errors
    ///
    /// [`RingError::Socket`] when the loopback mesh cannot be built, and
    /// [`RingError::Frame`] / [`RingError::Teardown`] when the run dies
    /// mid-revolution.
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
        A: Fn(HostId, usize) + Sync;
}

/// Builder for a wall-clock ring run, generic over the engine that drives
/// it. Use it through its three names, [`RingDriver`](crate::RingDriver),
/// [`TcpRingDriver`](crate::TcpRingDriver) and
/// [`ReactorRingDriver`](crate::ReactorRingDriver).
pub struct WallClockDriver<'a, E> {
    config: &'a RingConfig,
    fault_plan: Option<&'a FaultPlan>,
    rescale_plan: Option<&'a RescalePlan>,
    trace: bool,
    engine: PhantomData<E>,
}

impl<E> Clone for WallClockDriver<'_, E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E> Copy for WallClockDriver<'_, E> {}

impl<'a, E: WallClockEngine> WallClockDriver<'a, E> {
    /// A driver for `config` with the classic transport and no tracing.
    pub fn new(config: &'a RingConfig) -> Self {
        WallClockDriver {
            config,
            fault_plan: None,
            rescale_plan: None,
            trace: false,
            engine: PhantomData,
        }
    }

    /// Runs the ring over the unreliable medium described by `plan`, with
    /// every hop protected by the protocol core's acknowledged transport:
    /// the plan's dice may drop, corrupt or delay each attempt, and the
    /// protocol repairs it by checksum verification and timeout-driven
    /// retransmission. On the socket engines scheduled crashes become real
    /// socket severs and mid-revolution ring healing; the channel engine
    /// rejects plans scheduling crashes or pauses. `config.ack_timeout` is
    /// interpreted in wall-clock time (choose it to comfortably exceed a
    /// hop's round trip plus coordinator latency, or losses masquerade as
    /// timeouts).
    pub fn with_fault_plan(mut self, plan: &'a FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Attaches a planned [`RescalePlan`]: standby hosts joining and
    /// members draining out mid-workload, with their stationary roles
    /// repartitioned by rendezvous hashing. Hosts with a scheduled join
    /// start as provisioned standbys outside the ring and must contribute
    /// no fragments (on the socket engines their mesh connections are
    /// built up front and spliced into the rotation at activation, and a
    /// completed drain retires the drainee's connections with a real FIN).
    /// Attaching a rescale plan switches the transport into its reliable
    /// mode even without a fault plan. Schedule instants are interpreted
    /// in wall-clock time from ring start.
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
    /// `process` sees an owned `&P`, so this is the one path that still
    /// materialises a payload: a copy in bytes on a socket engine is copied
    /// out of them for each visit ([`WirePayload::from_accepted`]: one
    /// copy of the bytes, for a payload that is its bytes); an owned copy
    /// is lent as it is. [`WallClockDriver::run_with_roles`]
    /// hands the visit a view and copies nothing.
    ///
    /// Returns wall-clock metrics in the common [`RingMetrics`] shape
    /// (setup is zero here — run any setup before calling and time it
    /// yourself; CPU accounts contain compute time only), plus the
    /// [`SpanTracer`] (empty and disabled unless
    /// [`WallClockDriver::with_tracer`] was set).
    ///
    /// # Errors
    ///
    /// As [`WallClockDriver::run_with_roles`].
    pub fn run<P, F>(
        self,
        fragments: Vec<Vec<P>>,
        process: F,
    ) -> Result<(RingMetrics, SpanTracer), RingError>
    where
        P: WirePayload + Send + Clone,
        F: Fn(HostId, &P) + Sync,
    {
        self.run_visits(
            fragments,
            |host, _roles, payload: Visit<'_, P>| match payload {
                Visit::Owned(payload) => process(host, payload),
                Visit::Viewed(view, bytes) => process(host, &P::from_accepted(view, bytes)),
            },
            |_, _| {},
        )
    }

    /// Like [`WallClockDriver::run`], but role-aware for healing and
    /// rescaled runs: `visit(host, roles, view)` applies the named
    /// logical stationary roles (the host's own, plus any absorbed from
    /// dead or drained hosts), and `absorb(survivor, role)` performs the
    /// state takeover — on `survivor`'s worker — when the ring heals
    /// around a confirmed death or a drain hands a role off.
    ///
    /// The visit reads the payload through its [`WirePayload::View`]: the
    /// origin's owned payload borrowed, and on the socket engines every
    /// other copy read in the bytes it arrived in. No payload is decoded.
    ///
    /// # Errors
    ///
    /// Returns [`RingError::Config`] for an invalid configuration,
    /// [`RingError::Shape`] when `fragments.len() != config.hosts`,
    /// [`RingError::UnsupportedFault`] for plans this engine cannot
    /// realize (more than 64 hosts with a plan, crashes or pauses on the
    /// channel engine, a crash or rescale on a single-host ring, plans
    /// naming hosts outside the ring, a standby that contributes
    /// fragments), [`RingError::Socket`] when the loopback mesh cannot be
    /// built, and [`RingError::Frame`] / [`RingError::Teardown`] when the
    /// run dies mid-revolution (undecodable bytes, a panicking callback,
    /// an exhausted retransmission budget on a live ring, or a stall). The
    /// error names the first failure, not the teardown cascade it
    /// provokes.
    pub fn run_with_roles<P, F, A>(
        self,
        fragments: Vec<Vec<P>>,
        visit: F,
        absorb: A,
    ) -> Result<(RingMetrics, SpanTracer), RingError>
    where
        P: WirePayload + Send + Clone,
        F: Fn(HostId, &[usize], P::View<'_>) + Sync,
        A: Fn(HostId, usize) + Sync,
    {
        self.run_visits(
            fragments,
            |host, roles, payload: Visit<'_, P>| visit(host, roles, payload.view()),
            absorb,
        )
    }

    /// [`WallClockDriver::run_with_roles`] with the visit taking the
    /// payload as the engines hand it over.
    fn run_visits<P, F, A>(
        self,
        fragments: Vec<Vec<P>>,
        visit: F,
        absorb: A,
    ) -> Result<(RingMetrics, SpanTracer), RingError>
    where
        P: WirePayload + Send + Clone,
        F: Fn(HostId, &[usize], Visit<'_, P>) + Sync,
        A: Fn(HostId, usize) + Sync,
    {
        validate(
            self.config,
            self.fault_plan,
            self.rescale_plan,
            &[&fragments],
            None,
            E::HOST_FAULTS,
        )?;
        let plan = dice(self.fault_plan, self.rescale_plan, false);
        let workload = Workload::Single(envelope_batches(fragments, self.config.hosts));
        let visit = |host, _query: u32, roles: &[usize], payload: Visit<'_, P>| {
            visit(host, roles, payload);
        };
        // A single-host "ring" has no wire: every engine runs it on the
        // channel engine's coordinator.
        let run_mesh = if self.config.hosts == 1 {
            ChannelEngine::run_mesh
        } else {
            E::run_mesh
        };
        run_mesh(
            self.config,
            plan.as_deref(),
            self.rescale_plan,
            self.trace,
            workload,
            &visit,
            &absorb,
        )
    }

    /// Runs several queries multiplexed over one ring.
    /// `queries[q]` is `(tenant, fragments)` with `fragments[h]` host
    /// `h`'s local fragments for query `q`; at most `max_active` queries
    /// circulate concurrently, the rest wait in the admission queue.
    /// `visit(host, query, roles, view)` joins one fragment of `query`
    /// against the named stationary roles; `absorb(survivor, role)`
    /// rebuilds a dead host's state (for every query) when the ring
    /// heals. Always uses the reliable acked transport (quiet dice are
    /// synthesized without a fault plan).
    ///
    /// # Errors
    ///
    /// As [`WallClockDriver::run_with_roles`], plus
    /// [`RingError::UnsupportedFault`] on a single-host ring, an empty
    /// query list or a zero `max_active`.
    pub fn run_queries<P, F, A>(
        self,
        queries: Vec<(u32, Vec<Vec<P>>)>,
        max_active: usize,
        visit: F,
        absorb: A,
    ) -> Result<(RingMetrics, SpanTracer), RingError>
    where
        P: WirePayload + Send + Clone,
        F: Fn(HostId, u32, &[usize], P::View<'_>) + Sync,
        A: Fn(HostId, usize) + Sync,
    {
        let shapes: Vec<&[Vec<P>]> = queries.iter().map(|(_, f)| f.as_slice()).collect();
        validate(
            self.config,
            self.fault_plan,
            self.rescale_plan,
            &shapes,
            Some(max_active),
            E::HOST_FAULTS,
        )?;
        let plan = dice(self.fault_plan, self.rescale_plan, true);
        E::run_mesh(
            self.config,
            plan.as_deref(),
            self.rescale_plan,
            self.trace,
            Workload::Multi {
                queries: query_batches(queries, self.config.hosts),
                max_active,
            },
            &|host, query, roles: &[usize], payload: Visit<'_, P>| {
                visit(host, query, roles, payload.view());
            },
            &absorb,
        )
    }
}

/// What every [`WallClockEngine`] owes its users, as generic test bodies:
/// each engine's test module instantiates them, so the channel, the
/// blocking and the reactor engine are held to the same assertions.
#[cfg(test)]
pub(crate) mod engine_suite {
    use super::*;
    use crate::envelope::PayloadBytes;
    use simnet::span::counter;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    pub(crate) fn payloads(hosts: usize, per_host: usize, bytes: usize) -> Vec<Vec<Vec<u8>>> {
        (0..hosts)
            .map(|h| {
                (0..per_host)
                    .map(|i| vec![(h * 31 + i) as u8; bytes])
                    .collect()
            })
            .collect()
    }

    pub(crate) fn every_host_sees_every_fragment<E: WallClockEngine>() {
        let hosts = 3;
        let counts: Vec<AtomicUsize> = (0..hosts).map(|_| AtomicUsize::new(0)).collect();
        let (metrics, _) = WallClockDriver::<E>::new(&RingConfig::paper(hosts))
            .run(payloads(hosts, 2, 64), |h, _| {
                counts[h.0].fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        assert_eq!(metrics.fragments_completed, 6);
        for c in &counts {
            assert_eq!(c.load(Ordering::SeqCst), 6);
        }
        for h in &metrics.hosts {
            assert_eq!(h.fragments_processed, 6);
        }
        assert_eq!(
            metrics.total_bytes_forwarded() as usize,
            6 * 64 * (hosts - 1)
        );
        assert!(metrics.fault_free());
    }

    pub(crate) fn single_host_ring_needs_no_sockets<E: WallClockEngine>() {
        let n = AtomicUsize::new(0);
        let (metrics, _) = WallClockDriver::<E>::new(&RingConfig::paper(1))
            .run(payloads(1, 4, 32), |_, _| {
                n.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        assert_eq!(metrics.fragments_completed, 4);
        assert_eq!(n.load(Ordering::SeqCst), 4);
    }

    pub(crate) fn shape_and_config_errors_are_typed<E: WallClockEngine>() {
        let err = WallClockDriver::<E>::new(&RingConfig::paper(3))
            .run(payloads(2, 1, 8), |_, _| {})
            .unwrap_err();
        assert!(matches!(
            err,
            RingError::Shape {
                expected: 3,
                got: 2
            }
        ));
        let bad = RingConfig::paper(0);
        let err = WallClockDriver::<E>::new(&bad)
            .run(vec![], |_: HostId, _: &Vec<u8>| {})
            .unwrap_err();
        assert!(matches!(err, RingError::Config(_)));
    }

    pub(crate) fn out_of_ring_faults_are_rejected<E: WallClockEngine>() {
        let plan = FaultPlan::seeded(1).crash_host(HostId(9), SimTime::from_nanos(1));
        let err = WallClockDriver::<E>::new(&RingConfig::paper(2))
            .with_fault_plan(&plan)
            .run(payloads(2, 1, 8), |_, _| {})
            .unwrap_err();
        assert!(matches!(err, RingError::UnsupportedFault(_)));
    }

    /// A plan that leaves the ring no initial member is refused by the
    /// rule table, before any thread or socket exists (it used to panic
    /// inside `RingProtocol::new`, and hang the blocking engine).
    pub(crate) fn all_standby_rescale_is_rejected<E: WallClockEngine>() {
        let plan = RescalePlan::seeded(1)
            .join_host(HostId(0), SimTime::from_nanos(1_000))
            .join_host(HostId(1), SimTime::from_nanos(1_000));
        let err = WallClockDriver::<E>::new(&RingConfig::paper(2))
            .with_rescale_plan(&plan)
            .run(payloads(2, 0, 8), |_, _| {})
            .unwrap_err();
        assert_eq!(
            err,
            RingError::UnsupportedFault("a rescale plan cannot make every host a standby")
        );
    }

    pub(crate) fn lossy_and_corrupt_links_are_repaired<E: WallClockEngine>() {
        let hosts = 3;
        let plan = FaultPlan::seeded(7)
            .lossy_link(HostId(0), 0.3)
            .corrupt_link(HostId(1), 0.3);
        let config = RingConfig::paper(hosts)
            .with_ack_timeout(SimDuration::from_millis(40))
            .with_max_retransmits(10);
        let counts: Vec<AtomicUsize> = (0..hosts).map(|_| AtomicUsize::new(0)).collect();
        let (metrics, _) = WallClockDriver::<E>::new(&config)
            .with_fault_plan(&plan)
            .run(payloads(hosts, 3, 256), |h, _| {
                counts[h.0].fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        assert_eq!(metrics.fragments_completed, 9);
        for c in &counts {
            assert_eq!(c.load(Ordering::SeqCst), 9);
        }
        let retransmits: u64 = metrics.hosts.iter().map(|h| h.retransmits).sum();
        assert!(retransmits > 0, "a 30% loss rate must provoke retransmits");
    }

    /// One exactly-once cell per (fragment, logical role) of a
    /// `payloads(hosts, per_host, _)` ring.
    fn role_cells(hosts: usize, per_host: usize) -> Vec<Vec<AtomicUsize>> {
        (0..hosts * per_host)
            .map(|_| (0..hosts).map(|_| AtomicUsize::new(0)).collect())
            .collect()
    }

    /// Marks `roles` applied to the fragment `payload` carries (identified
    /// by its fill byte).
    fn apply_roles(cells: &[Vec<AtomicUsize>], hosts: usize, roles: &[usize], payload: &[u8]) {
        let fill = payload.first().copied().unwrap_or(0) as usize;
        let per_host = cells.len() / hosts;
        let frag = (0..hosts)
            .flat_map(|h| (0..per_host).map(move |i| (h, i)))
            .position(|(h, i)| h * 31 + i == fill)
            .unwrap();
        for &r in roles {
            cells[frag][r].fetch_add(1, Ordering::SeqCst);
        }
    }

    fn assert_applied_exactly_once(cells: &[Vec<AtomicUsize>]) {
        for (f, roles) in cells.iter().enumerate() {
            for (r, cell) in roles.iter().enumerate() {
                assert_eq!(
                    cell.load(Ordering::SeqCst),
                    1,
                    "fragment {f} role {r} must be applied exactly once"
                );
            }
        }
    }

    pub(crate) fn crash_heals_mid_revolution<E: WallClockEngine>() {
        let hosts = 4;
        let per_host = 2;
        let plan = FaultPlan::seeded(4242).crash_host(HostId(2), SimTime::from_nanos(4_000_000));
        let config = RingConfig::paper(hosts)
            .with_ack_timeout(SimDuration::from_millis(8))
            .with_max_retransmits(3);
        let applied = role_cells(hosts, per_host);
        // Every state takeover the ring asks for: (survivor, role).
        let absorbed = Mutex::new(Vec::new());
        let (metrics, _) = WallClockDriver::<E>::new(&config)
            .with_fault_plan(&plan)
            .run_with_roles(
                payloads(hosts, per_host, 128),
                |_, roles, payload| {
                    apply_roles(&applied, hosts, roles, payload);
                    std::thread::sleep(Duration::from_micros(500));
                },
                |survivor, role| absorbed.lock().unwrap().push((survivor, role)),
            )
            .unwrap();
        assert_eq!(metrics.fragments_completed, hosts * per_host);
        assert_eq!(metrics.heal_events, 1, "one confirmed death");
        // One dead host with one role: one takeover, by a live host.
        let absorbed = absorbed.into_inner().unwrap();
        assert!(
            matches!(absorbed[..], [(survivor, 2)] if survivor != HostId(2)),
            "role 2 must be absorbed exactly once, got {absorbed:?}"
        );
        assert!(metrics.detection_latency > SimDuration::ZERO);
        assert_applied_exactly_once(&applied);
    }

    pub(crate) fn drain_hands_its_role_off_exactly_once<E: WallClockEngine>() {
        // Host 1 is asked to drain as the ring starts: its one role moves
        // to a live host, whose worker runs the takeover, and no
        // (fragment, role) visit is lost or repeated across the handoff.
        let hosts = 3;
        let per_host = 2;
        let rescale = RescalePlan::seeded(5).drain_host(HostId(1), SimTime::ZERO);
        let config = RingConfig::paper(hosts)
            .with_ack_timeout(SimDuration::from_millis(20))
            .with_max_retransmits(6);
        let applied = role_cells(hosts, per_host);
        let absorbed = Mutex::new(Vec::new());
        let (metrics, _) = WallClockDriver::<E>::new(&config)
            .with_rescale_plan(&rescale)
            .run_with_roles(
                payloads(hosts, per_host, 64),
                |_, roles, payload| {
                    apply_roles(&applied, hosts, roles, payload);
                    std::thread::sleep(Duration::from_millis(1));
                },
                |survivor, role| absorbed.lock().unwrap().push((survivor, role)),
            )
            .unwrap();
        assert_eq!(metrics.fragments_completed, hosts * per_host);
        assert_eq!(metrics.rescale_drains, 1);
        assert_eq!(metrics.rescale_handoffs, 1);
        assert_eq!(metrics.heal_events, 0, "a clean drain never heals");
        let absorbed = absorbed.into_inner().unwrap();
        assert!(
            matches!(absorbed[..], [(survivor, 1)] if survivor != HostId(1)),
            "role 1 must be handed off exactly once, got {absorbed:?}"
        );
        assert_applied_exactly_once(&applied);
    }

    pub(crate) fn planned_join_and_drain<E: WallClockEngine>() {
        // Host 2 starts as a standby and joins at 1 ms (rendezvous moves
        // role 0 to it — a pure function of ids); host 0, now role-less,
        // drains at 8 ms while per-buffer sleeps keep the ring busy well
        // past that instant. On sockets the departed host sees a real FIN.
        let hosts = 3;
        let per_host = 3;
        let rescale = RescalePlan::seeded(77)
            .join_host(HostId(2), SimTime::from_nanos(1_000_000))
            .drain_host(HostId(0), SimTime::from_nanos(8_000_000));
        let config = RingConfig::paper(hosts)
            .with_ack_timeout(SimDuration::from_millis(20))
            .with_max_retransmits(6);
        let mut envelopes = payloads(hosts, per_host, 64);
        envelopes[2].clear(); // the standby provisions no fragments
        let counts: Vec<AtomicUsize> = (0..hosts).map(|_| AtomicUsize::new(0)).collect();
        let (metrics, tracer) = WallClockDriver::<E>::new(&config)
            .with_rescale_plan(&rescale)
            .with_tracer(true)
            .run(envelopes, |h, _: &Vec<u8>| {
                counts[h.0].fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
            })
            .unwrap();
        assert_eq!(metrics.fragments_completed, 2 * per_host);
        assert_eq!(metrics.membership_epoch, 2, "one join + one drain");
        assert_eq!(metrics.rescale_joins, 1);
        assert_eq!(metrics.rescale_drains, 1);
        assert_eq!(metrics.rescale_handoffs, 1, "role 0 moved to the newcomer");
        assert_eq!(metrics.rescale_escalations, 0);
        assert_eq!(metrics.heal_events, 0, "a planned rescale is not a fault");
        assert!(
            counts[2].load(Ordering::SeqCst) > 0,
            "newcomer must process"
        );
        assert_eq!(tracer.count_events("activated"), 1);
        assert_eq!(tracer.count_events("departed"), 1);
        let c = tracer.counters();
        assert_eq!(c.get(counter::RESCALE_JOINS), 1);
        assert_eq!(c.get(counter::RESCALE_DRAINS), 1);
        assert_eq!(c.get(counter::RESCALE_HANDOFFS), 1);
    }

    pub(crate) fn multiplexed_queries_complete<E: WallClockEngine>() {
        let hosts = 3;
        let queries = 3;
        let cfg = RingConfig::paper(hosts)
            .with_ack_timeout(SimDuration::from_millis(50))
            .with_max_retransmits(6);
        let tenants: Vec<(u32, Vec<Vec<Vec<u8>>>)> = (0..queries)
            .map(|q| (q as u32, payloads(hosts, 2, 64)))
            .collect();
        let counts: Vec<AtomicUsize> = (0..hosts).map(|_| AtomicUsize::new(0)).collect();
        let (metrics, spans) = WallClockDriver::<E>::new(&cfg)
            .with_tracer(true)
            .run_queries(
                tenants,
                2,
                |h, _query, _roles: &[usize], _| {
                    counts[h.0].fetch_add(1, Ordering::SeqCst);
                },
                |_, _| {},
            )
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

    /// Encodes and decodes of [`Counted`] payloads, by the slot their
    /// first byte names, and encodes of [`Prepared`] ones, by the slot
    /// they carry: one slot per (test, engine), so tests running side by
    /// side never share a count.
    static ENCODES: [AtomicUsize; 6] = [const { AtomicUsize::new(0) }; 6];
    static DECODES: [AtomicUsize; 4] = [const { AtomicUsize::new(0) }; 4];

    /// Raw bytes that count their encodes in `ENCODES[bytes[0]]` and their
    /// decodes in `DECODES[bytes[0]]`.
    #[derive(Debug, Clone)]
    pub(crate) struct Counted(Vec<u8>);

    impl PayloadBytes for Counted {
        fn payload_bytes(&self) -> u64 {
            self.0.payload_bytes()
        }

        fn payload_checksum(&self) -> u64 {
            self.0.payload_checksum()
        }
    }

    impl WirePayload for Counted {
        type View<'a> = &'a [u8];

        fn payload_wire_len(&self) -> usize {
            self.0.len()
        }

        fn encode_payload(&self, out: &mut Vec<u8>) {
            ENCODES[self.0[0] as usize].fetch_add(1, Ordering::SeqCst);
            out.extend_from_slice(&self.0);
        }

        fn view(bytes: &[u8]) -> Result<&[u8], crate::error::FrameError> {
            Ok(bytes)
        }

        fn as_view(&self) -> &[u8] {
            &self.0
        }

        fn from_view(view: &[u8]) -> Self {
            Counted(view.to_vec())
        }

        fn decode_payload(bytes: &[u8]) -> Result<Self, crate::error::FrameError> {
            DECODES[bytes[0] as usize].fetch_add(1, Ordering::SeqCst);
            Ok(Counted(bytes.to_vec()))
        }
    }

    /// `hosts × per_host` distinct 300-byte [`Counted`] payloads of
    /// `slot`.
    fn counted(slot: u8, hosts: usize, per_host: usize) -> Vec<Vec<Counted>> {
        (0..hosts)
            .map(|h| {
                (0..per_host)
                    .map(|i| {
                        let mut bytes = vec![slot, h as u8, i as u8];
                        bytes.resize(300, (h * 7 + i) as u8);
                        Counted(bytes)
                    })
                    .collect()
            })
            .collect()
    }

    /// The lossy, corrupting plan the frame-path tests run under.
    fn lossy_corrupting_plan() -> FaultPlan {
        FaultPlan::seeded(23)
            .lossy_link(HostId(0), 0.25)
            .corrupt_link(HostId(1), 0.3)
            .corrupt_link(HostId(2), 0.2)
    }

    /// A socket engine encodes each fragment once — at its origin, on its
    /// first attempt — and frames every other send from those bytes: on a
    /// quiet ring, and under a lossy and corrupting plan whatever the
    /// retransmissions, where every corrupted attempt is still rejected
    /// by the receiver's checksum and repaired. `slot` is the engine's own
    /// encode counter.
    pub(crate) fn each_fragment_is_encoded_once<E: WallClockEngine>(slot: u8) {
        let (hosts, per_host) = (3usize, 4usize);
        let total = hosts * per_host;
        let fragments = counted(slot, hosts, per_host);
        let plan = lossy_corrupting_plan();
        let config = RingConfig::paper(hosts)
            .with_ack_timeout(SimDuration::from_millis(40))
            .with_max_retransmits(12);
        for faulty in [false, true] {
            ENCODES[slot as usize].store(0, Ordering::SeqCst);
            let seen: Vec<Mutex<Vec<Vec<u8>>>> = (0..hosts).map(|_| Mutex::default()).collect();
            let mut driver = WallClockDriver::<E>::new(&config).with_tracer(true);
            if faulty {
                driver = driver.with_fault_plan(&plan);
            }
            let (metrics, tracer) = driver
                .run(fragments.clone(), |h, payload: &Counted| {
                    seen[h.0].lock().unwrap().push(payload.0.clone());
                })
                .unwrap();
            assert_eq!(metrics.fragments_completed, total);
            assert_eq!(
                ENCODES[slot as usize].load(Ordering::SeqCst),
                total,
                "one encode per fragment (faulty plan: {faulty})"
            );
            assert_frame_counts(&metrics, &tracer, hosts, total, faulty);
            // Every host visited every fragment exactly once, intact.
            let want = fragments.iter().flatten().map(|c| c.0.clone()).collect();
            assert_every_host_saw(seen, want);
        }
    }

    /// A run's frame counts: one first send out of its origin per
    /// fragment, the rest forwards, one frame per hop on a quiet ring and
    /// at least that under `faulty` dice, which must have lost and
    /// corrupted attempts.
    fn assert_frame_counts(
        metrics: &RingMetrics,
        tracer: &SpanTracer,
        hosts: usize,
        total: usize,
        faulty: bool,
    ) {
        let c = tracer.counters();
        let (encoded, forwarded) = (
            c.get(counter::FRAMES_ENCODED),
            c.get(counter::FRAMES_FORWARDED),
        );
        assert_eq!(encoded, total as u64);
        // Every hop's last attempt reached the wire; retransmissions may
        // add more (or be eaten by the dice before it).
        let hops = (total * (hosts - 1)) as u64;
        assert!(
            (hops..=hops + metrics.total_retransmits()).contains(&(encoded + forwarded)),
            "{encoded} + {forwarded} framed for {hops} hops"
        );
        if faulty {
            assert!(
                metrics.total_retransmits() > 0,
                "the plan must lose attempts"
            );
            assert!(
                metrics.total_checksum_mismatches() > 0,
                "the plan must corrupt attempts"
            );
        } else {
            assert_eq!(encoded + forwarded, hops);
        }
    }

    /// Every host saw exactly the payload bytes `want`, in any order.
    fn assert_every_host_saw(seen: Vec<Mutex<Vec<Vec<u8>>>>, mut want: Vec<Vec<u8>>) {
        want.sort();
        for host in seen {
            let mut got = host.into_inner().unwrap();
            got.sort();
            assert_eq!(got, want);
        }
    }

    /// A prepared fragment that counts its encodes in `ENCODES[slot]`, as
    /// `(fragment, slot)`; everything else is the fragment's own.
    #[derive(Debug, Clone)]
    pub(crate) struct Prepared(mem_joins::PreparedFragment, u8);

    impl PayloadBytes for Prepared {
        fn payload_bytes(&self) -> u64 {
            self.0.payload_bytes()
        }
    }

    impl WirePayload for Prepared {
        type View<'a> = mem_joins::FragmentView<'a>;

        fn payload_wire_len(&self) -> usize {
            self.0.payload_wire_len()
        }

        fn encode_payload(&self, out: &mut Vec<u8>) {
            ENCODES[self.1 as usize].fetch_add(1, Ordering::SeqCst);
            self.0.encode_payload(out);
        }

        fn view(bytes: &[u8]) -> Result<Self::View<'_>, crate::error::FrameError> {
            <mem_joins::PreparedFragment as WirePayload>::view(bytes)
        }

        fn view_accepted(bytes: &[u8]) -> Result<Self::View<'_>, crate::error::FrameError> {
            <mem_joins::PreparedFragment as WirePayload>::view_accepted(bytes)
        }

        fn as_view(&self) -> Self::View<'_> {
            self.0.as_view()
        }

        fn from_view(view: Self::View<'_>) -> Self {
            Prepared(mem_joins::PreparedFragment::from_view(view), 0)
        }

        fn into_wire(self) -> Result<Vec<u8>, Self> {
            let slot = self.1;
            self.0
                .into_wire()
                .map_err(|fragment| Prepared(fragment, slot))
        }
    }

    /// A socket engine sends a prepared fragment from the bytes it was
    /// prepared in, and never encodes it: no encode runs, each origin's
    /// visit of its own fragment reads the very buffer `prepare_fragment`
    /// wrote, every host visits every fragment intact, and the frames
    /// count one first send out of its origin per fragment against the
    /// forwards — on a quiet ring and under a lossy and corrupting plan.
    /// `slot` is the engine's own encode counter.
    pub(crate) fn an_origin_sends_the_bytes_it_was_prepared_in<E: WallClockEngine>(slot: u8) {
        use mem_joins::{Algorithm, FragmentView, PreparedFragment};
        let (hosts, per_host) = (3usize, 4usize);
        let total = hosts * per_host;
        let plan = lossy_corrupting_plan();
        let config = RingConfig::paper(hosts)
            .with_ack_timeout(SimDuration::from_millis(40))
            .with_max_retransmits(12);
        for faulty in [false, true] {
            ENCODES[slot as usize].store(0, Ordering::SeqCst);
            let fragments: Vec<Vec<Prepared>> = (0..hosts)
                .map(|h| {
                    (0..per_host)
                        .map(|i| {
                            let rel = relation::GenSpec::uniform(100 + 10 * i, (h * 8 + i) as u64)
                                .generate();
                            let fragment =
                                Algorithm::partitioned_hash().prepare_fragment(&rel, 2, 1);
                            Prepared(fragment, slot)
                        })
                        .collect()
                })
                .collect();
            // Each origin's fragments: their bytes, and where they lie.
            let own: Vec<Vec<(Vec<u8>, std::ops::Range<usize>)>> = fragments
                .iter()
                .map(|local| {
                    local
                        .iter()
                        .map(|Prepared(f, _)| {
                            let at = f.as_bytes().as_ptr() as usize;
                            (f.as_bytes().to_vec(), at..at + f.as_bytes().len())
                        })
                        .collect()
                })
                .collect();
            let in_place = AtomicUsize::new(0);
            let seen: Vec<Mutex<Vec<Vec<u8>>>> = (0..hosts).map(|_| Mutex::default()).collect();
            let mut driver = WallClockDriver::<E>::new(&config).with_tracer(true);
            if faulty {
                driver = driver.with_fault_plan(&plan);
            }
            let (metrics, tracer) = driver
                .run_with_roles(
                    fragments,
                    |h, _, view: FragmentView<'_>| {
                        let bytes = PreparedFragment::from_view(view).into_bytes();
                        let FragmentView::HashPartitioned(parts) = view else {
                            panic!("a hash fragment views as one");
                        };
                        let keys_at = parts.partitions().next().map(|p| match p.columns() {
                            relation::Columns::Wire(keys, _) => keys.as_ptr() as usize,
                            relation::Columns::Native(keys, _) => keys.as_ptr() as usize,
                        });
                        if let Some((_, range)) = own[h.0].iter().find(|(b, _)| *b == bytes) {
                            assert!(
                                keys_at.is_some_and(|at| range.contains(&at)),
                                "host {} visited its own fragment elsewhere",
                                h.0
                            );
                            in_place.fetch_add(1, Ordering::SeqCst);
                        }
                        seen[h.0].lock().unwrap().push(bytes);
                    },
                    |_, _| {},
                )
                .unwrap();
            assert_eq!(metrics.fragments_completed, total);
            assert_eq!(
                ENCODES[slot as usize].load(Ordering::SeqCst),
                0,
                "nothing encodes"
            );
            assert_eq!(in_place.load(Ordering::SeqCst), total);
            assert_frame_counts(&metrics, &tracer, hosts, total, faulty);
            let want = own.into_iter().flatten().map(|(bytes, _)| bytes).collect();
            assert_every_host_saw(seen, want);
        }
    }

    /// A socket engine never decodes a received payload: it checks the
    /// bytes once on receipt and every visit reads them in place. On a
    /// quiet ring and under a lossy and corrupting plan, `decode_payload`
    /// runs 0 times while every host visits every fragment exactly once,
    /// intact. `slot` is the engine's own decode counter.
    pub(crate) fn a_received_payload_is_never_decoded<E: WallClockEngine>(slot: u8) {
        let (hosts, per_host) = (3usize, 4usize);
        let fragments = counted(slot, hosts, per_host);
        let plan = lossy_corrupting_plan();
        let config = RingConfig::paper(hosts)
            .with_ack_timeout(SimDuration::from_millis(40))
            .with_max_retransmits(12);
        for faulty in [false, true] {
            DECODES[slot as usize].store(0, Ordering::SeqCst);
            let seen: Vec<Mutex<Vec<Vec<u8>>>> = (0..hosts).map(|_| Mutex::default()).collect();
            let mut driver = WallClockDriver::<E>::new(&config);
            if faulty {
                driver = driver.with_fault_plan(&plan);
            }
            let (metrics, _) = driver
                .run_with_roles(
                    fragments.clone(),
                    |h, roles, view: &[u8]| {
                        assert_eq!(roles, [h.0], "no healing on this ring");
                        seen[h.0].lock().unwrap().push(view.to_vec());
                    },
                    |_, _| {},
                )
                .unwrap();
            assert_eq!(metrics.fragments_completed, hosts * per_host);
            assert_eq!(
                DECODES[slot as usize].load(Ordering::SeqCst),
                0,
                "a received payload was decoded (faulty plan: {faulty})"
            );
            if faulty {
                assert!(metrics.total_retransmits() > 0 && metrics.total_checksum_mismatches() > 0);
            }
            let want = fragments.iter().flatten().map(|c| c.0.clone()).collect();
            assert_every_host_saw(seen, want);
        }
    }

    /// A prepared fragment whose every encoding has one bit of its payload
    /// column flipped: what a hostile (or broken) peer would send.
    #[derive(Debug, Clone)]
    pub(crate) struct Flipped(mem_joins::PreparedFragment);

    impl PayloadBytes for Flipped {
        fn payload_bytes(&self) -> u64 {
            self.0.payload_bytes()
        }
    }

    impl WirePayload for Flipped {
        type View<'a> = mem_joins::FragmentView<'a>;

        fn payload_wire_len(&self) -> usize {
            self.0.payload_wire_len()
        }

        fn encode_payload(&self, out: &mut Vec<u8>) {
            self.0.encode_payload(out);
            // A plain fragment ends in its payload column.
            if let Some(last) = out.last_mut() {
                *last ^= 0x01;
            }
        }

        fn view(bytes: &[u8]) -> Result<Self::View<'_>, crate::error::FrameError> {
            <mem_joins::PreparedFragment as WirePayload>::view(bytes)
        }

        fn as_view(&self) -> Self::View<'_> {
            self.0.as_view()
        }

        fn from_view(view: Self::View<'_>) -> Self {
            Flipped(mem_joins::PreparedFragment::from_view(view))
        }
    }

    /// The protocol's checksum of a prepared fragment depends on its size
    /// only, so the relation header's checksum is the one content check a
    /// received body gets: a body with one flipped payload-column bit must
    /// end the run in the typed frame error, before any visit reads it.
    pub(crate) fn a_flipped_column_bit_is_a_frame_error<E: WallClockEngine>() {
        let hosts = 3;
        let fragments: Vec<Vec<Flipped>> = (0..hosts)
            .map(|h| {
                let rel = relation::GenSpec::uniform(200, h as u64).generate();
                vec![Flipped(
                    mem_joins::Algorithm::NestedLoops.prepare_fragment(&rel, 0, 1),
                )]
            })
            .collect();
        let visits = AtomicUsize::new(0);
        let err = WallClockDriver::<E>::new(&RingConfig::paper(hosts))
            .run_with_roles(
                fragments,
                |_, _, _| {
                    visits.fetch_add(1, Ordering::SeqCst);
                },
                |_, _| {},
            )
            .unwrap_err();
        assert_eq!(
            err,
            RingError::Frame(crate::error::FrameError::BadPayload(
                mem_joins::wire::BAD_RELATION
            ))
        );
        assert!(
            visits.load(Ordering::SeqCst) <= hosts,
            "only origins may have visited their own, intact, fragments"
        );
    }

    pub(crate) fn multiplexed_queries_survive_faults<E: WallClockEngine>() {
        let hosts = 3;
        let queries = 4;
        let mut plan = FaultPlan::seeded(19);
        for h in 0..hosts {
            plan = plan.lossy_link(HostId(h), 0.08);
        }
        let cfg = RingConfig::paper(hosts)
            .with_ack_timeout(SimDuration::from_millis(40))
            .with_max_retransmits(8);
        let tenants: Vec<(u32, Vec<Vec<Vec<u8>>>)> = (0..queries)
            .map(|q| (q as u32, payloads(hosts, 2, 48)))
            .collect();
        let (metrics, _) = WallClockDriver::<E>::new(&cfg)
            .with_fault_plan(&plan)
            .run_queries(tenants, queries, |_, _, _: &[usize], _| {}, |_, _| {})
            .unwrap();
        assert_eq!(metrics.fragments_completed, queries * hosts * 2);
        assert!(metrics.queries.iter().all(|m| m.completed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// Eight hosts on two pool threads, jobs submitted while the threads
    /// run them: every host's jobs run one at a time and in the order
    /// they were submitted, and every job completes once.
    #[test]
    fn one_host_runs_one_job_at_a_time_in_submission_order() {
        const HOSTS: usize = 8;
        const JOBS: usize = 300;
        let pool = WorkerPool::<Vec<u8>>::new(HOSTS);
        let in_job: Vec<AtomicBool> = (0..HOSTS).map(|_| AtomicBool::new(false)).collect();
        let overlaps = AtomicUsize::new(0);
        let seen: Vec<std::sync::Mutex<Vec<usize>>> =
            (0..HOSTS).map(|_| std::sync::Mutex::default()).collect();
        let completed = AtomicUsize::new(0);
        // Each job is a takeover whose one role is its sequence number.
        let absorb = |host: HostId, seq: usize| {
            if in_job[host.0].swap(true, Ordering::SeqCst) {
                overlaps.fetch_add(1, Ordering::SeqCst);
            }
            seen[host.0].lock().unwrap().push(seq);
            std::thread::yield_now();
            in_job[host.0].store(false, Ordering::SeqCst);
        };
        let visit = |_: HostId, _: u32, _: &[usize], _: Visit<'_, Vec<u8>>| {};
        std::thread::scope(|s| {
            let threads: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        pool.work(1, &visit, &absorb, |_| {
                            completed.fetch_add(1, Ordering::SeqCst);
                        })
                    })
                })
                .collect();
            for seq in 0..JOBS {
                for h in 0..HOSTS {
                    let job = Job::Absorb {
                        from: HostId(0),
                        roles: vec![seq],
                        planned: false,
                    };
                    pool.submit((h + seq) % HOSTS, job);
                }
            }
            while completed.load(Ordering::SeqCst) < HOSTS * JOBS {
                std::thread::yield_now();
            }
            pool.shutdown();
            for thread in threads {
                thread.join().unwrap();
            }
        });
        assert_eq!(
            overlaps.load(Ordering::SeqCst),
            0,
            "jobs of one host overlapped"
        );
        for (h, seen) in seen.into_iter().enumerate() {
            let seen = seen.into_inner().unwrap();
            assert_eq!(seen, (0..JOBS).collect::<Vec<_>>(), "host {h} out of order");
        }
    }
}
