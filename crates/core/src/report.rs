//! Run reports: the phase breakdowns every paper exhibit is built from.

use data_roundabout::RingMetrics;
use relation::Checksum;
use simnet::cpu::CpuSpec;
use simnet::span::{counter, SpanKind, SpanTracer};
use simnet::time::SimDuration;

use crate::result::DistributedResult;

/// The complete record of one cyclo-join run.
#[derive(Debug)]
pub struct CycloJoinReport {
    /// Name of the local join algorithm used on every host.
    pub algorithm: &'static str,
    /// Name of the transport (RDMA / TOE / TCP).
    pub transport: &'static str,
    /// Ring size.
    pub hosts: usize,
    /// Join-entity threads per host.
    pub join_threads: usize,
    /// Whether the logical `S` was the rotating side.
    pub swapped: bool,
    /// Total input volume in bytes (`|R| + |S|`, 12 bytes per tuple).
    pub data_volume: u64,
    /// The host CPU spec (for load calculations).
    pub cpu: CpuSpec,
    /// Per-host and ring-wide timing/CPU metrics.
    pub ring: RingMetrics,
    /// The distributed join result.
    pub result: DistributedResult,
    /// Structured spans/events/counters of the run (disabled unless the
    /// plan enabled tracing); export with [`CycloJoinReport::chrome_trace`].
    pub spans: SpanTracer,
}

impl CycloJoinReport {
    /// Setup-phase wall time in seconds (max over hosts, as the paper
    /// reports it — hosts set up in parallel).
    pub fn setup_seconds(&self) -> f64 {
        self.ring.setup_time().as_secs_f64()
    }

    /// Join-phase wall time in seconds (max over hosts; includes waiting).
    pub fn join_window_seconds(&self) -> f64 {
        self.ring.join_time().as_secs_f64()
    }

    /// Busy join time in seconds (max over hosts, excluding waiting) — the
    /// white "join" bars of the figures.
    pub fn join_seconds(&self) -> f64 {
        self.ring.join_busy_time().as_secs_f64()
    }

    /// Synchronization time in seconds (max over hosts) — the light-gray
    /// "sync" bars of Figures 11 and 12.
    pub fn sync_seconds(&self) -> f64 {
        self.ring.sync_time().as_secs_f64()
    }

    /// End-to-end wall-clock seconds.
    pub fn total_seconds(&self) -> f64 {
        self.ring.wall_clock.as_secs_f64()
    }

    /// Mean CPU load over hosts during the join phase (Table I).
    pub fn join_phase_cpu_load(&self) -> f64 {
        self.ring.mean_join_phase_load(self.cpu)
    }

    /// Number of matches in the distributed result.
    pub fn match_count(&self) -> u64 {
        self.result.count()
    }

    /// Checksum of the distributed result.
    pub fn checksum(&self) -> Checksum {
        self.result.checksum()
    }

    /// Achieved per-link throughput in bytes/second (§V-F's comparison
    /// against the physical 10 Gb/s ceiling).
    pub fn link_throughput(&self) -> f64 {
        self.ring.peak_link_throughput()
    }

    /// Ring-healing events: confirmed host deaths the surviving ring
    /// bypassed mid-revolution.
    pub fn heal_events(&self) -> usize {
        self.ring.heal_events
    }

    /// Worst-case failure-detection latency in seconds (crash → the
    /// predecessor exhausting its retransmission budget).
    pub fn detection_latency_seconds(&self) -> f64 {
        self.ring.detection_latency.as_secs_f64()
    }

    /// Total hop retransmissions across all hosts.
    pub fn retransmits(&self) -> u64 {
        self.ring.total_retransmits()
    }

    /// Total corrupted deliveries detected by receive-side checksums.
    pub fn checksum_mismatches(&self) -> u64 {
        self.ring.total_checksum_mismatches()
    }

    /// Fragments re-sent from their origin after dying in a crashed
    /// host's buffers.
    pub fn fragments_resent(&self) -> usize {
        self.ring.fragments_resent
    }

    /// True if the run saw no faults at all (the baseline invariant:
    /// runs without a fault plan must always report this).
    pub fn fault_free(&self) -> bool {
        self.ring.fault_free()
    }

    /// The final membership epoch: completed planned joins + drains.
    /// Zero on runs without a rescale plan.
    pub fn membership_epoch(&self) -> u64 {
        self.ring.membership_epoch
    }

    /// Completed planned host joins (standby activations).
    pub fn rescale_joins(&self) -> u64 {
        self.ring.rescale_joins
    }

    /// Completed graceful host drains.
    pub fn rescale_drains(&self) -> u64 {
        self.ring.rescale_drains
    }

    /// Stationary partitions moved by planned rescale handoffs.
    pub fn rescale_handoffs(&self) -> u64 {
        self.ring.rescale_handoffs
    }

    /// Drains that stalled past their deadline and degraded into crash
    /// healing.
    pub fn rescale_escalations(&self) -> u64 {
        self.ring.rescale_escalations
    }

    /// One-line summary.
    pub fn summary(&self) -> String {
        format!(
            "{} over {} on {} host(s): setup {:.3}s, join {:.3}s, sync {:.3}s, {} matches",
            self.algorithm,
            self.transport,
            self.hosts,
            self.setup_seconds(),
            self.join_seconds(),
            self.sync_seconds(),
            self.match_count(),
        )
    }

    /// A multi-line human-readable report table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "cyclo-join: {} ⋈ via {} | transport {} | {} hosts × {} threads\n",
            volume_label(self.data_volume),
            self.algorithm,
            self.transport,
            self.hosts,
            self.join_threads,
        ));
        out.push_str(&format!(
            "  phases: setup {:8.3}s  join {:8.3}s  sync {:8.3}s  total {:8.3}s\n",
            self.setup_seconds(),
            self.join_seconds(),
            self.sync_seconds(),
            self.total_seconds(),
        ));
        out.push_str(&format!(
            "  result: {} matches, checksum {:016x}, cpu load {:.0}%\n",
            self.match_count(),
            self.checksum().sum,
            self.join_phase_cpu_load() * 100.0,
        ));
        if !self.fault_free() {
            out.push_str(&format!(
                "  faults: {} heal(s), detection {:.3}s, {} retransmit(s), \
                 {} checksum mismatch(es), {} fragment(s) re-sent\n",
                self.heal_events(),
                self.detection_latency_seconds(),
                self.retransmits(),
                self.checksum_mismatches(),
                self.fragments_resent(),
            ));
        }
        out.push_str(&rescale_line(&self.ring));
        out.push_str(&inline_line(&self.ring));
        out.push_str(&frames_line(&self.spans));
        out.push_str("  per host: setup / busy / sync (s), fragments\n");
        for (i, h) in self.ring.hosts.iter().enumerate() {
            out.push_str(&format!(
                "    H{i}: {:7.3} / {:7.3} / {:7.3}  {:4} fragments\n",
                h.setup.as_secs_f64(),
                h.join_busy.as_secs_f64(),
                h.sync.as_secs_f64(),
                h.fragments_processed,
            ));
        }
        out
    }

    /// Exports the structured trace as Chrome trace-event JSON, ready for
    /// `chrome://tracing` or <https://ui.perfetto.dev>. Empty-but-valid
    /// when the run was not traced.
    pub fn chrome_trace(&self) -> String {
        self.spans.to_chrome_trace()
    }

    /// Per-revolution, per-host timeline summary built from the traced
    /// join spans: revolution `k` covers the joins each fragment performs
    /// at its `k`-th stop (hop `k` of the rotation). Returns one line per
    /// (host, hop) pair that saw work, plus a header; empty when the run
    /// was not traced.
    pub fn revolution_summary(&self) -> String {
        let joins: Vec<_> = self
            .spans
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Join)
            .collect();
        if joins.is_empty() {
            return String::new();
        }
        let mut out = String::from("  per host, per hop of the revolution: joins (busy s)\n");
        for h in 0..self.hosts {
            let mut line = format!("    H{h}:");
            let mut any = false;
            for hop in 0..self.hosts.max(1) {
                let (count, busy) = joins
                    .iter()
                    .filter(|s| s.host == h && s.hop == Some(hop))
                    .fold((0usize, SimDuration::ZERO), |(c, d), s| {
                        (c + 1, d.saturating_add(s.duration))
                    });
                if count > 0 {
                    line.push_str(&format!(
                        "  hop {hop}: {count} ({:.3}s)",
                        busy.as_secs_f64()
                    ));
                    any = true;
                }
            }
            if any {
                line.push('\n');
                out.push_str(&line);
            }
        }
        out
    }
}

impl std::fmt::Display for CycloJoinReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.summary())
    }
}

/// Pretty data-volume label.
fn volume_label(bytes: u64) -> String {
    if bytes >= 1 << 30 {
        format!("{:.1} GB", bytes as f64 / (1u64 << 30) as f64)
    } else if bytes >= 1 << 20 {
        format!("{:.1} MB", bytes as f64 / (1u64 << 20) as f64)
    } else {
        format!("{bytes} B")
    }
}

/// The one-line membership summary both report renderers print, empty
/// when the run saw no planned rescale.
pub(crate) fn rescale_line(ring: &RingMetrics) -> String {
    if ring.membership_epoch == 0 && ring.rescale_escalations == 0 {
        return String::new();
    }
    format!(
        "  rescale: epoch {}, {} join(s), {} drain(s), {} handoff(s), {} escalation(s)\n",
        ring.membership_epoch,
        ring.rescale_joins,
        ring.rescale_drains,
        ring.rescale_handoffs,
        ring.rescale_escalations,
    )
}

/// The one-line count of visits the reactor backend ran on its own
/// thread, empty when none did (every other backend, and a reactor run
/// whose joins were all heavy enough for the worker pool).
pub(crate) fn inline_line(ring: &RingMetrics) -> String {
    let inline: usize = ring.hosts.iter().map(|h| h.visits_inline).sum();
    if inline == 0 {
        return String::new();
    }
    let visits: usize = ring.hosts.iter().map(|h| h.fragments_processed).sum();
    format!("  visits: {inline} of {visits} ran inline on the reactor thread\n")
}

/// The one-line count of envelope frames a socket backend encoded (once
/// per fragment, at its origin) against those it forwarded as a fresh
/// header plus the payload bytes they arrived in; empty when the run was
/// untraced or moved payloads by value (simulator, threads).
pub(crate) fn frames_line(spans: &SpanTracer) -> String {
    let counters = spans.counters();
    let encoded = counters.get(counter::FRAMES_ENCODED);
    let forwarded = counters.get(counter::FRAMES_FORWARDED);
    if encoded + forwarded == 0 {
        return String::new();
    }
    format!("  frames: {encoded} encoded at their origin, {forwarded} forwarded as received\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use data_roundabout::HostMetrics;

    fn sample_report() -> CycloJoinReport {
        CycloJoinReport {
            algorithm: "partitioned-hash",
            transport: "RDMA",
            hosts: 2,
            join_threads: 4,
            swapped: false,
            data_volume: 3 << 20,
            cpu: CpuSpec::paper_xeon(),
            ring: RingMetrics {
                hosts: vec![
                    HostMetrics {
                        setup: SimDuration::from_millis(100),
                        join_busy: SimDuration::from_millis(400),
                        sync: SimDuration::from_millis(50),
                        join_window: SimDuration::from_millis(450),
                        ..HostMetrics::default()
                    },
                    HostMetrics {
                        setup: SimDuration::from_millis(120),
                        join_busy: SimDuration::from_millis(380),
                        sync: SimDuration::from_millis(20),
                        join_window: SimDuration::from_millis(400),
                        ..HostMetrics::default()
                    },
                ],
                wall_clock: SimDuration::from_millis(570),
                fragments_completed: 4,
                ..RingMetrics::default()
            },
            result: DistributedResult::default(),
            spans: SpanTracer::disabled(),
        }
    }

    #[test]
    fn phase_accessors_take_maxima() {
        let r = sample_report();
        assert!((r.setup_seconds() - 0.12).abs() < 1e-9);
        assert!((r.join_seconds() - 0.4).abs() < 1e-9);
        assert!((r.sync_seconds() - 0.05).abs() < 1e-9);
        assert!((r.total_seconds() - 0.57).abs() < 1e-9);
    }

    #[test]
    fn render_contains_the_essentials() {
        let rendered = sample_report().render();
        assert!(rendered.contains("partitioned-hash"));
        assert!(rendered.contains("RDMA"));
        assert!(rendered.contains("H0"));
        assert!(rendered.contains("H1"));
        assert!(rendered.contains("3.0 MB"));
    }

    #[test]
    fn summary_is_one_line() {
        let s = sample_report().summary();
        assert_eq!(s.lines().count(), 1);
        assert!(s.contains("2 host(s)"));
    }

    #[test]
    fn fault_line_appears_only_on_faulty_runs() {
        let clean = sample_report();
        assert!(clean.fault_free());
        assert!(!clean.render().contains("faults:"));
        let mut faulty = sample_report();
        faulty.ring.heal_events = 1;
        faulty.ring.detection_latency = SimDuration::from_millis(75);
        faulty.ring.hosts[0].retransmits = 4;
        faulty.ring.fragments_resent = 2;
        assert!(!faulty.fault_free());
        assert_eq!(faulty.heal_events(), 1);
        assert_eq!(faulty.retransmits(), 4);
        assert_eq!(faulty.fragments_resent(), 2);
        assert!((faulty.detection_latency_seconds() - 0.075).abs() < 1e-9);
        let rendered = faulty.render();
        assert!(rendered.contains("faults: 1 heal(s)"));
        assert!(rendered.contains("4 retransmit(s)"));
    }

    #[test]
    fn inline_line_appears_only_when_visits_ran_inline() {
        let mut report = sample_report();
        assert!(!report.render().contains("visits:"));
        report.ring.hosts[0].fragments_processed = 8;
        report.ring.hosts[0].visits_inline = 7;
        assert!(report
            .render()
            .contains("visits: 7 of 8 ran inline on the reactor thread"));
    }

    #[test]
    fn frames_line_appears_only_when_frames_were_counted() {
        let mut report = sample_report();
        report.spans = SpanTracer::enabled();
        report.spans.count(counter::FRAMES_ENCODED, 0);
        report.spans.count(counter::FRAMES_FORWARDED, 0);
        assert!(!report.render().contains("frames:"));
        report.spans.count(counter::FRAMES_ENCODED, 16);
        report.spans.count(counter::FRAMES_FORWARDED, 32);
        assert!(report
            .render()
            .contains("frames: 16 encoded at their origin, 32 forwarded as received"));
    }

    #[test]
    fn volume_labels() {
        assert_eq!(volume_label(512), "512 B");
        assert_eq!(volume_label(2 << 20), "2.0 MB");
        assert_eq!(volume_label(3 << 30), "3.0 GB");
    }

    #[test]
    fn untraced_report_has_no_revolution_summary() {
        let r = sample_report();
        assert!(r.revolution_summary().is_empty());
        // The Chrome export is still a valid (empty) document.
        assert!(r.chrome_trace().starts_with("{\"traceEvents\":["));
    }

    #[test]
    fn revolution_summary_groups_joins_by_host_and_hop() {
        use simnet::time::SimTime;
        let mut r = sample_report();
        let mut spans = SpanTracer::enabled();
        spans.span_with_hop(
            0,
            SpanKind::Join,
            "join F0",
            SimTime::from_nanos(0),
            SimDuration::from_millis(10),
            Some(0),
        );
        spans.span_with_hop(
            0,
            SpanKind::Join,
            "join F1",
            SimTime::from_nanos(1),
            SimDuration::from_millis(20),
            Some(1),
        );
        spans.span_with_hop(
            1,
            SpanKind::Join,
            "join F0",
            SimTime::from_nanos(2),
            SimDuration::from_millis(5),
            Some(1),
        );
        r.spans = spans;
        let summary = r.revolution_summary();
        assert!(summary.contains("H0:"), "{summary}");
        assert!(summary.contains("hop 0: 1 (0.010s)"), "{summary}");
        assert!(summary.contains("hop 1: 1 (0.020s)"), "{summary}");
        assert!(summary.contains("H1:"), "{summary}");
        assert!(summary.contains("hop 1: 1 (0.005s)"), "{summary}");
    }
}
