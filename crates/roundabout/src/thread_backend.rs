//! The live ring backend: Data Roundabout on real OS threads.
//!
//! The simulated backend is what reproduces the paper's figures; this
//! backend runs the *same protocol* with real concurrency, as an existence
//! proof that the asynchronous receiver/join/transmitter design is sound
//! (no deadlocks, no lost or duplicated envelopes) and to let integration
//! tests exercise races the deterministic simulator cannot produce.
//!
//! [`RingDriver`] is the generic wall-clock driver
//! ([`WallClockDriver`]) over the [`ChannelEngine`], and every run it makes
//! — quiet or faulted, rescaled or multiplexed, and the one-host ring of
//! every engine — is the shared [`Coordinator`] over `ChannelWire`, an
//! instant in-process wire that carries the shared in-flight payload (a
//! reference count per hop, per attempt and per visit; no copy, no codec).
//! The sans-IO [`crate::protocol`] core owns every credit, sequence
//! number, acknowledgement, retransmission and membership decision exactly
//! as it does on the socket drivers; the fault plan's dice may drop,
//! corrupt or delay each hop transfer; per-host workers run the joins and
//! the role takeovers, and the coordinator's timer queue realizes
//! backoffs, delay spikes and the plans' schedules on the calling thread.
//! Host crashes and pauses are *not* supported
//! here (a channel has nothing to sever and no salvage path); plans
//! scheduling them are rejected.
//!
//! This is the path the loom model suite explores exhaustively
//! (`tests/loom_ring.rs`).
//!
//! A worker's job dying mid-run — a panicking join callback, or a transfer
//! that exhausts its retransmission budget — does **not** cascade panics
//! across the thread scope: the worker reports it, the coordinator tears
//! the run down, and the run reports the *first* failure as a typed
//! [`RingError::Teardown`] rather than the loudest.
//!
//! A traced run ([`WallClockDriver::with_tracer`]) additionally records a
//! structured [`SpanTracer`]: per-host join/sync spans, per-hop envelope
//! events and the unified counter registry, on the same wall-clock epoch
//! the metrics use, so span totals reconcile with [`RingMetrics`] exactly.

use std::time::Duration;

use crate::sync::mpmc::{unbounded, Receiver, RecvTimeoutError, Sender};
use simnet::fault::{FaultPlan, RescalePlan};
use simnet::span::SpanTracer;
use simnet::time::{SimDuration, SimTime};
use simnet::topology::HostId;

use crate::config::RingConfig;
use crate::coordinator::{Coordinator, Event, Job, Medium, Pending, Recv, Sent, Workload};
use crate::envelope::Envelope;
use crate::error::RingError;
use crate::frame::{Frame, WirePayload};
use crate::inflight::{InFlight, Visit};
use crate::metrics::RingMetrics;
use crate::protocol::teardown;
use crate::wall_clock::{worker_loop, WallClock, WallClockDriver, WallClockEngine};

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
        drive_coordinated(config, plan, rescale, workload, visit, absorb, trace)
    }
}

/// The channel engine's medium: per-host job queues and nothing in
/// between — the channel "wire" has no latency in either direction, so
/// deliveries and acks reach their host in the same coordinator round as
/// follow-up events, and a fault-plan delay spike is modeled by arming
/// the arrival on the coordinator's timer queue. Nothing can be severed
/// (host crashes are rejected up front).
struct ChannelWire<P> {
    jobs: Vec<Sender<Job<P>>>,
    clock: WallClock,
}

impl<P> Medium<P> for ChannelWire<P> {
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
        if delay == SimDuration::ZERO {
            next.now.extend(arrival);
        } else {
            let at = self.now().saturating_add(delay);
            for event in arrival {
                next.timers.push(at, event);
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
        next.now.push_back(Event::Frame {
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

/// Spawns the per-host workers (joins and role takeovers run there, as on
/// the socket media), then lets the shared [`Coordinator`] feed the
/// protocol until every fragment retired.
///
/// Every handle is joined before the scope closes: consuming the
/// coordinator drops its job senders, which ends the worker loops, and an
/// explicit join is a scheduling point the loom model sees (see
/// [`crate::sync::thread`]).
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
    crate::sync::thread::scope(|scope| {
        let mut jobs = Vec::with_capacity(config.hosts);
        let mut threads = Vec::with_capacity(config.hosts);
        for h in 0..config.hosts {
            let (jtx, jrx) = unbounded::<Job<P>>();
            let tx = events_tx.clone();
            threads.push(scope.spawn(move || {
                worker_loop(
                    HostId(h),
                    jrx.iter(),
                    config.join_threads,
                    |event| tx.send(event).is_ok(),
                    visit,
                    absorb,
                );
            }));
            jobs.push(jtx);
        }
        let wire = ChannelWire {
            jobs,
            clock: WallClock::start(),
        };
        let mut co = Coordinator::new(config, plan, rescale, workload, trace, wire);
        co.run(|wait| recv_from(&events_rx, wait));
        let outcome = co.finish();
        let mut panicked = false;
        for thread in threads {
            panicked |= thread.join().is_err();
        }
        if panicked {
            return Err(RingError::Teardown(teardown::WORKER_PANICKED));
        }
        outcome
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc_count::counted;
    use crate::wall_clock::engine_suite::{self, payloads};
    use simnet::span::{counter, SpanKind};
    use simnet::time::{SimDuration, SimTime};
    use std::sync::atomic::{AtomicUsize, Ordering};

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

    /// A quiet run launches its payloads into one slab: a fragment more
    /// costs the driving thread well under one allocation, where an `Arc`
    /// per payload would cost one.
    #[test]
    fn a_quiet_run_launches_its_payloads_into_one_slab() {
        let hosts = 4;
        let allocs = |per_host| {
            let fragments = payloads(hosts, per_host, 8);
            let (metrics, allocs) = counted(|| {
                run_plain(&RingConfig::paper(hosts), fragments, |_, _| {})
                    .map(|m| m.fragments_completed)
            });
            assert_eq!(metrics, Ok(hosts * per_host));
            allocs
        };
        // A first run warms what later runs reuse.
        allocs(1);
        let (one, sixteen) = (allocs(1), allocs(16));
        let per_fragment = sixteen.saturating_sub(one) as f64 / (hosts * 15) as f64;
        assert!(
            per_fragment < 0.5,
            "{per_fragment} allocations per fragment ({one} at 1 per host, {sixteen} at 16)"
        );
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
