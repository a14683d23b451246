//! Per-host and ring-wide execution metrics.
//!
//! Every paper exhibit is a view over these numbers: setup vs join phase
//! wall time (Figures 7, 8, 10, 11), synchronization time — join threads
//! waiting for the roundabout to deliver data (Figures 11, 12) — and CPU
//! load during the join phase (Table I).

use serde::{Deserialize, Serialize};
use simnet::cpu::{CpuAccount, CpuSpec};
use simnet::time::SimDuration;

/// Metrics of one host over a complete run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct HostMetrics {
    /// Time spent in the setup phase (hash build / sort, incl. fragment
    /// preparation and buffer registration).
    pub setup: SimDuration,
    /// Time the join entity spent actually joining.
    pub join_busy: SimDuration,
    /// Time the join entity spent waiting for data from the roundabout
    /// ("synchronizing" with the transport layer, §V-F).
    pub sync: SimDuration,
    /// Wall-clock length of the join phase (setup end → last join end);
    /// `join_busy + sync ≈ join_window` up to scheduling slack.
    pub join_window: SimDuration,
    /// CPU busy time by category over the whole run.
    pub cpu: CpuAccount,
    /// Fragments processed by this host.
    pub fragments_processed: usize,
    /// Of those, the visits the reactor backend ran on its own event-loop
    /// thread because the host's previous visit was cheaper than a thread
    /// hand-off (see `reactor_backend`); zero on every other backend, so
    /// it is not part of cross-backend parity.
    pub visits_inline: usize,
    /// Payload bytes this host forwarded to its successor.
    pub bytes_forwarded: u64,
    /// Transfers this host retransmitted after an ack timeout (reliable
    /// transport only; zero on the classic path).
    pub retransmits: u64,
    /// Envelopes this host rejected at receive time because their content
    /// checksum did not match (each one provokes a retransmission).
    pub checksum_mismatches: u64,
}

impl HostMetrics {
    /// Total wall time contributed by this host (setup + join phase).
    pub fn total(&self) -> SimDuration {
        self.setup + self.join_window
    }

    /// CPU load during the join phase, as in Table I.
    pub fn join_phase_load(&self, spec: CpuSpec) -> f64 {
        self.cpu
            .load(spec, self.join_window.max(SimDuration::from_nanos(1)))
    }
}

/// Per-query metrics of one multiplexed run. Single-query runs leave the
/// list empty; multi-tenant runs report one entry per admitted query, in
/// query-id order, so tenants can be billed and compared individually.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct QueryMetrics {
    /// Tenant that submitted this query.
    pub tenant: u32,
    /// Fragments of this query that completed a full revolution.
    pub fragments_completed: usize,
    /// Transfers of this query retransmitted after an ack timeout.
    pub retransmits: u64,
    /// Deliveries of this query rejected for a checksum mismatch.
    pub checksum_mismatches: u64,
    /// True once every fragment of the query retired.
    pub completed: bool,
}

/// Metrics of a complete ring run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RingMetrics {
    /// Per-host metrics, indexed by host id.
    pub hosts: Vec<HostMetrics>,
    /// End-to-end wall-clock time of the run (max over hosts of total).
    pub wall_clock: SimDuration,
    /// Total fragments that completed a full revolution.
    pub fragments_completed: usize,
    /// Ring-healing events: confirmed host deaths the surviving ring
    /// bypassed mid-revolution (zero without fault injection).
    pub heal_events: usize,
    /// Worst-case failure-detection latency over all heal events: virtual
    /// time between a host's crash and its predecessor exhausting the
    /// retransmission budget and declaring it dead.
    pub detection_latency: SimDuration,
    /// Fragments re-sent from their origin because a copy was lost in a
    /// dead host's buffers.
    pub fragments_resent: usize,
    /// Membership epoch at the end of the run: the number of *completed*
    /// planned transitions (joins + drains). Crash healing never advances
    /// it, so the epoch is a pure function of the rescale schedule and
    /// identical across backends.
    pub membership_epoch: u64,
    /// Planned host activations completed (a standby joined the ring).
    pub rescale_joins: u64,
    /// Graceful drains completed (the drainee departed the ring).
    pub rescale_drains: u64,
    /// Stationary partitions moved by planned rescale handoffs.
    pub rescale_handoffs: u64,
    /// Drains that stalled past their deadline and degraded into the
    /// crash-healing path. Timing-dependent: healthy schedules keep this
    /// zero, but it is *not* part of cross-backend parity.
    pub rescale_escalations: u64,
    /// Per-query breakdown on multiplexed runs (empty on single-query
    /// runs).
    pub queries: Vec<QueryMetrics>,
}

impl RingMetrics {
    /// The maximum setup time over all hosts — the reported setup phase
    /// (hosts set up in parallel).
    pub fn setup_time(&self) -> SimDuration {
        self.hosts
            .iter()
            .map(|h| h.setup)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// The maximum join-phase window over all hosts — the reported join
    /// phase.
    pub fn join_time(&self) -> SimDuration {
        self.hosts
            .iter()
            .map(|h| h.join_window)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// The maximum per-host busy join time (join phase excluding waiting).
    pub fn join_busy_time(&self) -> SimDuration {
        self.hosts
            .iter()
            .map(|h| h.join_busy)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// The maximum per-host synchronization time.
    pub fn sync_time(&self) -> SimDuration {
        self.hosts
            .iter()
            .map(|h| h.sync)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Mean CPU load over hosts during the join phase (Table I).
    pub fn mean_join_phase_load(&self, spec: CpuSpec) -> f64 {
        if self.hosts.is_empty() {
            return 0.0;
        }
        self.hosts
            .iter()
            .map(|h| h.join_phase_load(spec))
            .sum::<f64>()
            / self.hosts.len() as f64
    }

    /// Total bytes forwarded across all ring links.
    pub fn total_bytes_forwarded(&self) -> u64 {
        self.hosts.iter().map(|h| h.bytes_forwarded).sum()
    }

    /// Total retransmissions across all hosts (reliable transport only).
    pub fn total_retransmits(&self) -> u64 {
        self.hosts.iter().map(|h| h.retransmits).sum()
    }

    /// Total checksum mismatches detected across all hosts.
    pub fn total_checksum_mismatches(&self) -> u64 {
        self.hosts.iter().map(|h| h.checksum_mismatches).sum()
    }

    /// True if the run saw no faults at all: no retransmissions, no
    /// corruption, no healing. Baseline runs must satisfy this.
    pub fn fault_free(&self) -> bool {
        self.heal_events == 0
            && self.fragments_resent == 0
            && self.detection_latency.is_zero()
            && self.total_retransmits() == 0
            && self.total_checksum_mismatches() == 0
    }

    /// Achieved per-link throughput (bytes forwarded by the busiest host
    /// over its join window), the quantity §V-F compares against the
    /// 10 Gb/s ceiling.
    pub fn peak_link_throughput(&self) -> f64 {
        self.hosts
            .iter()
            .filter(|h| !h.join_window.is_zero())
            .map(|h| h.bytes_forwarded as f64 / h.join_window.as_secs_f64())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::cpu::CostCategory;

    fn host(setup_ms: u64, busy_ms: u64, sync_ms: u64) -> HostMetrics {
        let mut cpu = CpuAccount::new();
        cpu.charge(CostCategory::Compute, SimDuration::from_millis(busy_ms));
        HostMetrics {
            setup: SimDuration::from_millis(setup_ms),
            join_busy: SimDuration::from_millis(busy_ms),
            sync: SimDuration::from_millis(sync_ms),
            join_window: SimDuration::from_millis(busy_ms + sync_ms),
            cpu,
            fragments_processed: 1,
            bytes_forwarded: 1_000_000,
            ..HostMetrics::default()
        }
    }

    #[test]
    fn ring_metrics_take_maxima() {
        let m = RingMetrics {
            hosts: vec![host(10, 100, 5), host(12, 90, 20)],
            wall_clock: SimDuration::from_millis(130),
            fragments_completed: 2,
            ..RingMetrics::default()
        };
        assert_eq!(m.setup_time(), SimDuration::from_millis(12));
        assert_eq!(m.join_time(), SimDuration::from_millis(110));
        assert_eq!(m.join_busy_time(), SimDuration::from_millis(100));
        assert_eq!(m.sync_time(), SimDuration::from_millis(20));
        assert_eq!(m.total_bytes_forwarded(), 2_000_000);
    }

    #[test]
    fn empty_ring_metrics_are_zero() {
        let m = RingMetrics::default();
        assert_eq!(m.setup_time(), SimDuration::ZERO);
        assert_eq!(m.join_time(), SimDuration::ZERO);
        assert_eq!(m.mean_join_phase_load(CpuSpec::paper_xeon()), 0.0);
        assert!(m.fault_free());
    }

    #[test]
    fn fault_counters_sum_and_flag() {
        let mut m = RingMetrics {
            hosts: vec![host(0, 1, 0), host(0, 1, 0)],
            ..RingMetrics::default()
        };
        assert!(m.fault_free());
        m.hosts[0].retransmits = 3;
        m.hosts[1].checksum_mismatches = 2;
        m.heal_events = 1;
        m.detection_latency = SimDuration::from_millis(40);
        m.fragments_resent = 5;
        assert_eq!(m.total_retransmits(), 3);
        assert_eq!(m.total_checksum_mismatches(), 2);
        assert!(!m.fault_free());
    }

    #[test]
    fn join_phase_load_uses_the_window() {
        let h = host(0, 400, 0); // 400 ms compute over a 400 ms window
                                 // One core fully busy on a 4-core machine = 25 %.
        let load = h.join_phase_load(CpuSpec::new(4, 1.0));
        assert!((load - 0.25).abs() < 1e-6, "got {load}");
    }

    #[test]
    fn peak_link_throughput() {
        let m = RingMetrics {
            hosts: vec![host(0, 100, 0)],
            wall_clock: SimDuration::from_millis(100),
            fragments_completed: 1,
            ..RingMetrics::default()
        };
        // 1 MB over 100 ms = 10 MB/s.
        assert!((m.peak_link_throughput() - 1e7).abs() < 1e3);
    }
}

/// Renders an ASCII timeline of a run: one lane per host, `#` for setup,
/// `=` for busy join time, `.` for synchronization (waiting on the
/// roundabout), scaled to `width` characters for the longest host.
///
/// ```text
/// H0 |####========|
/// H1 |####====....|
/// ```
pub fn render_timeline(metrics: &RingMetrics, width: usize) -> String {
    let width = width.max(10);
    let longest = metrics
        .hosts
        .iter()
        .map(|h| h.total().as_secs_f64())
        .fold(0.0f64, f64::max);
    if longest == 0.0 {
        return String::from("(empty run)\n");
    }
    let scale = width as f64 / longest;
    let mut out = String::new();
    for (i, h) in metrics.hosts.iter().enumerate() {
        // Round *cumulative* phase ends, not individual widths: per-segment
        // rounding let lanes drift past `width` (three `.5`s each round up),
        // misaligning the lanes. Cumulative ends clamp every lane to the
        // scale and keep total length exact.
        let t_setup = h.setup.as_secs_f64();
        let t_busy = t_setup + h.join_busy.as_secs_f64();
        let t_sync = t_busy + h.sync.as_secs_f64();
        let end_setup = ((t_setup * scale).round() as usize).min(width);
        let end_busy = ((t_busy * scale).round() as usize).clamp(end_setup, width);
        let end_sync = ((t_sync * scale).round() as usize).clamp(end_busy, width);
        out.push_str(&format!("H{i:<2}|"));
        out.push_str(&"#".repeat(end_setup));
        out.push_str(&"=".repeat(end_busy - end_setup));
        out.push_str(&".".repeat(end_sync - end_busy));
        out.push_str("|\n");
    }
    out.push_str(&format!(
        "    scale: {width} chars = {longest:.3}s   (# setup, = join, . sync)\n"
    ));
    out
}

#[cfg(test)]
mod timeline_tests {
    use super::*;
    use simnet::time::SimDuration;

    fn host(setup_ms: u64, busy_ms: u64, sync_ms: u64) -> HostMetrics {
        HostMetrics {
            setup: SimDuration::from_millis(setup_ms),
            join_busy: SimDuration::from_millis(busy_ms),
            sync: SimDuration::from_millis(sync_ms),
            join_window: SimDuration::from_millis(busy_ms + sync_ms),
            ..HostMetrics::default()
        }
    }

    #[test]
    fn timeline_draws_each_phase() {
        let metrics = RingMetrics {
            hosts: vec![host(10, 30, 10), host(10, 40, 0)],
            wall_clock: SimDuration::from_millis(50),
            fragments_completed: 1,
            ..RingMetrics::default()
        };
        let rendered = render_timeline(&metrics, 50);
        assert!(rendered.contains("H0 |"));
        assert!(rendered.contains('#'));
        assert!(rendered.contains('='));
        assert!(rendered.contains('.'));
        // H1 has no sync: its lane must not contain dots.
        let h1_line = rendered.lines().nth(1).unwrap();
        assert!(!h1_line.contains('.'));
    }

    #[test]
    fn empty_run_renders_placeholder() {
        assert_eq!(
            render_timeline(&RingMetrics::default(), 40),
            "(empty run)\n"
        );
    }

    #[test]
    fn lanes_scale_to_width() {
        let metrics = RingMetrics {
            hosts: vec![host(0, 100, 0)],
            wall_clock: SimDuration::from_millis(100),
            fragments_completed: 1,
            ..RingMetrics::default()
        };
        let rendered = render_timeline(&metrics, 60);
        let lane = rendered.lines().next().unwrap();
        assert_eq!(lane.matches('=').count(), 60);
    }

    /// Regression: per-segment rounding let a lane exceed `width` when
    /// several segments each rounded up (e.g. three `.5` segments), so
    /// lanes misaligned. Every lane must now fit the scale exactly.
    #[test]
    fn lanes_never_exceed_the_scale_width() {
        let width = 10;
        // 2.5 ms + 2.5 ms + 10 ms against a 15 ms longest host:
        // naive rounding gives 2 + 2 + 7 = 11 > 10 chars.
        let metrics = RingMetrics {
            hosts: vec![host(2, 3, 10).clamped(2_500_000, 2_500_000, 10_000_000)],
            wall_clock: SimDuration::from_millis(15),
            fragments_completed: 1,
            ..RingMetrics::default()
        };
        let rendered = render_timeline(&metrics, width);
        for lane in rendered.lines().filter(|l| l.starts_with('H')) {
            let body = lane.trim_start_matches(|c: char| c != '|');
            let cells = body.matches(['#', '=', '.']).count();
            assert!(
                cells <= width,
                "lane {lane:?} has {cells} cells, width is {width}"
            );
            assert_eq!(cells, width, "longest host must fill the scale exactly");
        }
    }

    impl HostMetrics {
        fn clamped(mut self, setup_ns: u64, busy_ns: u64, sync_ns: u64) -> HostMetrics {
            self.setup = SimDuration::from_nanos(setup_ns);
            self.join_busy = SimDuration::from_nanos(busy_ns);
            self.sync = SimDuration::from_nanos(sync_ns);
            self.join_window = SimDuration::from_nanos(busy_ns + sync_ns);
            self
        }
    }
}
