//! Structured span/event tracing with a Chrome trace-event exporter.
//!
//! This module records *structured* spans (named intervals with a host, a
//! track and a duration), instant events, and a unified counter registry
//! shared by all four ring backends. A [`SpanTracer`] can be exported as Chrome
//! trace-event JSON ([`SpanTracer::to_chrome_trace`]) and opened directly in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev), giving every
//! run a per-host, per-entity timeline: setup, each join window, sync gaps,
//! wire occupancy, retransmissions and ring-heal events.
//!
//! Span durations are bookkept in virtual [`SimTime`]/[`SimDuration`] even
//! for the real-thread backend (which converts wall-clock offsets), so span
//! totals reconcile exactly with the end-of-run `RingMetrics` phases.
//!
//! ```
//! use simnet::span::{SpanKind, SpanTracer, Track};
//! use simnet::time::{SimDuration, SimTime};
//!
//! let mut spans = SpanTracer::enabled();
//! spans.span(0, SpanKind::Join, "join F0", SimTime::from_nanos(10), SimDuration::from_nanos(5));
//! spans.event(Some(0), Track::Receiver, "recv F0", SimTime::from_nanos(10));
//! spans.count("envelopes_received", 1);
//! let json = spans.to_chrome_trace();
//! assert!(json.starts_with("{\"traceEvents\":["));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::time::{SimDuration, SimTime};

/// Well-known counter names shared by the simulated and threaded backends.
///
/// Both backends report protocol activity through the same registry keys so
/// that trace consumers (and the round-trip tests) can reconcile either
/// backend against `RingMetrics` without backend-specific glue.
pub mod counter {
    /// Envelopes put on the wire by transmitter entities (excl. retransmits).
    pub const ENVELOPES_SENT: &str = "envelopes_sent";
    /// Envelopes accepted by receiver entities into the local pool.
    pub const ENVELOPES_RECEIVED: &str = "envelopes_received";
    /// Fragments that completed their final hop and left the ring.
    pub const FRAGMENTS_RETIRED: &str = "fragments_retired";
    /// Retransmissions performed by the reliable hop protocol.
    pub const RETRANSMITS: &str = "retransmits";
    /// Envelopes rejected because their checksum did not verify.
    pub const CHECKSUM_MISMATCHES: &str = "checksum_mismatches";
    /// Mid-revolution ring heals (a successor absorbed a dead host's role).
    pub const HEAL_EVENTS: &str = "heal_events";
    /// Fragments re-sent from their origin after a heal.
    pub const FRAGMENTS_RESENT: &str = "fragments_resent";
    /// Planned host activations (a standby joined the ring).
    pub const RESCALE_JOINS: &str = "rescale_joins";
    /// Graceful host drains completed (the drainee departed the ring).
    pub const RESCALE_DRAINS: &str = "rescale_drains";
    /// Stationary partitions moved by planned rescale handoffs.
    pub const RESCALE_HANDOFFS: &str = "rescale_handoffs";
    /// Multi-tenant queries admitted onto the shared ring.
    pub const QUERIES_ADMITTED: &str = "queries_admitted";
    /// Multi-tenant queries whose every fragment completed its revolution.
    pub const QUERIES_COMPLETED: &str = "queries_completed";
    /// Join visits the reactor ran on its own thread instead of handing
    /// them to its worker pool (zero on every other backend).
    pub const VISITS_INLINE: &str = "visits_inline";
    /// Live attempts a socket backend framed from payload bytes it encoded
    /// for them: one per fragment, its origin's first attempt (zero on
    /// the backends that move payloads by value).
    pub const FRAMES_ENCODED: &str = "frames_encoded";
    /// Live attempts a socket backend framed as a fresh header ahead of
    /// payload bytes it already held — every forward and every
    /// retransmission (zero on the backends that move payloads by value).
    pub const FRAMES_FORWARDED: &str = "frames_forwarded";
}

/// The per-host entity (or pseudo-entity) a span or event belongs to.
///
/// Maps to a Chrome trace `tid` so each host renders as a process with one
/// lane per ring entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// The receiver entity (envelope arrivals).
    Receiver,
    /// The join entity (setup, join windows, sync gaps).
    Join,
    /// The transmitter entity (wire occupancy, retransmissions).
    Transmitter,
    /// Ring-level control events (crashes, heals, role absorption).
    Control,
}

impl Track {
    /// Stable Chrome trace thread id for this track.
    pub const fn tid(self) -> u64 {
        match self {
            Track::Receiver => 0,
            Track::Join => 1,
            Track::Transmitter => 2,
            Track::Control => 3,
        }
    }

    /// Human-readable lane name used in trace metadata.
    pub const fn lane_name(self) -> &'static str {
        match self {
            Track::Receiver => "receiver",
            Track::Join => "join entity",
            Track::Transmitter => "transmitter",
            Track::Control => "control",
        }
    }
}

/// What a span measures; doubles as the Chrome trace category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Local setup work (partition/sort/build of the stationary relation).
    Setup,
    /// One join window: probing a visiting fragment against local state.
    Join,
    /// Idle time waiting for the next fragment to arrive.
    Sync,
    /// Wire occupancy while forwarding an envelope to the successor.
    Send,
    /// Absorbing a dead predecessor's role during a mid-revolution heal.
    Absorb,
}

impl SpanKind {
    /// The Chrome trace category string for this kind.
    pub const fn category(self) -> &'static str {
        match self {
            SpanKind::Setup => "setup",
            SpanKind::Join => "join",
            SpanKind::Sync => "sync",
            SpanKind::Send => "send",
            SpanKind::Absorb => "absorb",
        }
    }

    /// The track this kind of work runs on.
    pub const fn track(self) -> Track {
        match self {
            SpanKind::Setup | SpanKind::Join | SpanKind::Sync | SpanKind::Absorb => Track::Join,
            SpanKind::Send => Track::Transmitter,
        }
    }
}

/// A named interval of work on one host's timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Host the work ran on.
    pub host: usize,
    /// What the interval measures.
    pub kind: SpanKind,
    /// Display name, e.g. `"join F3"`.
    pub name: String,
    /// Start of the interval on the (virtual) clock.
    pub start: SimTime,
    /// Length of the interval.
    pub duration: SimDuration,
    /// Ring hop index of the fragment being worked on, if applicable
    /// (0 = the fragment's origin host, `n-1` = last stop of a revolution).
    pub hop: Option<usize>,
}

/// A zero-duration event pinned to an instant on some host's timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Host the event happened on; `None` for ring-global events.
    pub host: Option<usize>,
    /// Lane the event belongs to.
    pub track: Track,
    /// Display name, e.g. `"retransmit F2 attempt 1"`.
    pub name: String,
    /// When it happened.
    pub at: SimTime,
}

/// A unified named-counter registry shared by both ring backends.
///
/// Counters are monotonically increasing `u64`s keyed by name (see
/// [`counter`] for the well-known keys). The registry is ordered so exports
/// and debug output are deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterRegistry {
    counts: BTreeMap<String, u64>,
}

impl CounterRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `name`, creating it at zero if absent.
    pub fn add(&mut self, name: &str, delta: u64) {
        if delta == 0 && !self.counts.contains_key(name) {
            // Still materialise the key so "observed zero" is visible.
            self.counts.insert(name.to_string(), 0);
            return;
        }
        *self.counts.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Current value of `name` (zero if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Iterates `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// True if no counter was ever touched.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Folds another registry into this one.
    pub fn merge(&mut self, other: &CounterRegistry) {
        for (name, value) in other.iter() {
            self.add(name, value);
        }
    }
}

/// A structured span/event recorder with a Chrome trace-event exporter.
///
/// A disabled tracer is free: every recording call is a no-op. The ring
/// backends thread one of these through their entities; `core::exec`
/// stitches the per-phase pieces together and the `cyclo` CLI (and bench
/// binaries) export it with `--trace <path>`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTracer {
    enabled: bool,
    spans: Vec<Span>,
    events: Vec<TraceEvent>,
    counters: CounterRegistry,
}

impl SpanTracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A tracer that records spans, events and counters.
    pub fn enabled() -> Self {
        SpanTracer {
            enabled: true,
            ..Self::default()
        }
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records a span of `duration` starting at `start` on `host`.
    pub fn span(
        &mut self,
        host: usize,
        kind: SpanKind,
        name: impl Into<String>,
        start: SimTime,
        duration: SimDuration,
    ) {
        self.span_with_hop(host, kind, name, start, duration, None);
    }

    /// Records a span annotated with the fragment's ring hop index.
    pub fn span_with_hop(
        &mut self,
        host: usize,
        kind: SpanKind,
        name: impl Into<String>,
        start: SimTime,
        duration: SimDuration,
        hop: Option<usize>,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            host,
            kind,
            name: name.into(),
            start,
            duration,
            hop,
        });
    }

    /// Records an instant event at `at` on `host` (or ring-global if `None`).
    pub fn event(
        &mut self,
        host: Option<usize>,
        track: Track,
        name: impl Into<String>,
        at: SimTime,
    ) {
        if !self.enabled {
            return;
        }
        self.events.push(TraceEvent {
            host,
            track,
            name: name.into(),
            at,
        });
    }

    /// Adds `delta` to the unified counter `name`.
    pub fn count(&mut self, name: &str, delta: u64) {
        if !self.enabled {
            return;
        }
        self.counters.add(name, delta);
    }

    /// All recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All recorded instant events, in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The unified counter registry.
    pub fn counters(&self) -> &CounterRegistry {
        &self.counters
    }

    /// Total recorded span time of `kind` on `host`.
    pub fn total(&self, host: usize, kind: SpanKind) -> SimDuration {
        self.spans
            .iter()
            .filter(|s| s.host == host && s.kind == kind)
            .map(|s| s.duration)
            .fold(SimDuration::ZERO, SimDuration::saturating_add)
    }

    /// Total join-entity busy time on `host`: join plus role-absorb spans.
    ///
    /// This is the quantity `RingMetrics` reports as `join_busy`.
    pub fn busy_total(&self, host: usize) -> SimDuration {
        self.total(host, SpanKind::Join)
            .saturating_add(self.total(host, SpanKind::Absorb))
    }

    /// Number of events whose name starts with `prefix`.
    pub fn count_events(&self, prefix: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.name.starts_with(prefix))
            .count()
    }

    /// Shifts every span start and event instant forward by `delta`.
    ///
    /// The threaded backend measures ring time from its own epoch; shifting
    /// by the setup phase length places its spans after the setup spans on
    /// one common timeline.
    pub fn shift(&mut self, delta: SimDuration) {
        for span in &mut self.spans {
            span.start += delta;
        }
        for event in &mut self.events {
            event.at += delta;
        }
    }

    /// Appends another tracer's spans, events and counters to this one.
    ///
    /// Enables recording if `other` recorded anything, so stitched tracers
    /// survive the merge even when `self` started out disabled.
    pub fn merge(&mut self, other: SpanTracer) {
        self.enabled |= other.enabled;
        self.spans.extend(other.spans);
        self.events.extend(other.events);
        self.counters.merge(&other.counters);
    }

    /// Exports the recording as Chrome trace-event JSON.
    ///
    /// The output is a complete `{"traceEvents": [...]}` document using
    /// `"X"` (complete) events for spans, `"i"` (instant) events, `"C"`
    /// (counter) samples for the registry, and `"M"` metadata naming each
    /// host (process) and entity lane (thread). Timestamps are microseconds,
    /// as the format requires. Load the file in `chrome://tracing` or
    /// <https://ui.perfetto.dev>.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(256 + 128 * (self.spans.len() + self.events.len()));
        out.push_str("{\"traceEvents\":[");
        let mut first = true;

        // Metadata: name every (host, lane) pair that carries data.
        let mut lanes: BTreeMap<usize, Vec<Track>> = BTreeMap::new();
        for span in &self.spans {
            let tracks = lanes.entry(span.host).or_default();
            if !tracks.contains(&span.kind.track()) {
                tracks.push(span.kind.track());
            }
        }
        for event in &self.events {
            let host = event.host.unwrap_or(usize::MAX);
            let tracks = lanes.entry(host).or_default();
            if !tracks.contains(&event.track) {
                tracks.push(event.track);
            }
        }
        for (host, tracks) in &lanes {
            let pid = *host;
            let pname = if pid == usize::MAX {
                "ring".to_string()
            } else {
                format!("host {pid}")
            };
            emit_sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"name\":{}}}}}",
                chrome_pid(pid),
                json_string(&pname)
            );
            for track in tracks {
                emit_sep(&mut out, &mut first);
                let _ = write!(
                    out,
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":{}}}}}",
                    chrome_pid(pid),
                    track.tid(),
                    json_string(track.lane_name())
                );
            }
        }

        for span in &self.spans {
            emit_sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{}",
                json_string(&span.name),
                span.kind.category(),
                micros(span.start.as_nanos()),
                micros(span.duration.as_nanos()),
                chrome_pid(span.host),
                span.kind.track().tid()
            );
            if let Some(hop) = span.hop {
                let _ = write!(out, ",\"args\":{{\"hop\":{hop}}}");
            }
            out.push('}');
        }

        for event in &self.events {
            emit_sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":\"event\",\"ph\":\"i\",\"ts\":{},\"pid\":{},\"tid\":{},\"s\":\"t\"}}",
                json_string(&event.name),
                micros(event.at.as_nanos()),
                chrome_pid(event.host.unwrap_or(usize::MAX)),
                event.track.tid()
            );
        }

        // Counter samples: one "C" event per counter at the end of the run,
        // attributed to a ring-global pid so Perfetto draws one counter track.
        let end = self.end_time();
        for (name, value) in self.counters.iter() {
            emit_sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":{},\"ph\":\"C\",\"ts\":{},\"pid\":{},\"tid\":{},\"args\":{{\"value\":{}}}}}",
                json_string(name),
                micros(end.as_nanos()),
                chrome_pid(usize::MAX),
                Track::Control.tid(),
                value
            );
        }

        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// The latest instant touched by any span or event.
    pub fn end_time(&self) -> SimTime {
        let span_end = self
            .spans
            .iter()
            .map(|s| s.start + s.duration)
            .max()
            .unwrap_or(SimTime::ZERO);
        let event_end = self
            .events
            .iter()
            .map(|e| e.at)
            .max()
            .unwrap_or(SimTime::ZERO);
        span_end.max(event_end)
    }
}

fn emit_sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

/// Ring-global records use `usize::MAX` internally; Chrome wants a small pid.
fn chrome_pid(host: usize) -> u64 {
    if host == usize::MAX {
        9_999
    } else {
        host as u64
    }
}

/// Nanoseconds → microseconds with three decimals (trace-event `ts` unit).
fn micros(nanos: u64) -> String {
    let whole = nanos / 1_000;
    let frac = nanos % 1_000;
    if frac == 0 {
        format!("{whole}")
    } else {
        format!("{whole}.{frac:03}")
    }
}

/// Escapes a string for embedding in JSON (quotes included).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut spans = SpanTracer::disabled();
        spans.span(
            0,
            SpanKind::Join,
            "join F0",
            SimTime::ZERO,
            SimDuration::from_nanos(5),
        );
        spans.event(Some(0), Track::Receiver, "recv", SimTime::ZERO);
        spans.count(counter::ENVELOPES_SENT, 3);
        assert!(spans.spans().is_empty());
        assert!(spans.events().is_empty());
        assert_eq!(spans.counters().get(counter::ENVELOPES_SENT), 0);
    }

    #[test]
    fn totals_sum_per_host_and_kind() {
        let mut spans = SpanTracer::enabled();
        spans.span(
            0,
            SpanKind::Join,
            "join F0",
            SimTime::from_nanos(10),
            SimDuration::from_nanos(5),
        );
        spans.span(
            0,
            SpanKind::Join,
            "join F1",
            SimTime::from_nanos(20),
            SimDuration::from_nanos(7),
        );
        spans.span(
            0,
            SpanKind::Absorb,
            "absorb S1",
            SimTime::from_nanos(30),
            SimDuration::from_nanos(2),
        );
        spans.span(
            1,
            SpanKind::Join,
            "join F2",
            SimTime::from_nanos(10),
            SimDuration::from_nanos(9),
        );
        assert_eq!(spans.total(0, SpanKind::Join), SimDuration::from_nanos(12));
        assert_eq!(spans.busy_total(0), SimDuration::from_nanos(14));
        assert_eq!(spans.total(1, SpanKind::Join), SimDuration::from_nanos(9));
        assert_eq!(spans.total(1, SpanKind::Setup), SimDuration::ZERO);
    }

    #[test]
    fn shift_moves_spans_and_events() {
        let mut spans = SpanTracer::enabled();
        spans.span(
            0,
            SpanKind::Join,
            "join",
            SimTime::from_nanos(10),
            SimDuration::from_nanos(5),
        );
        spans.event(Some(0), Track::Receiver, "recv", SimTime::from_nanos(3));
        spans.shift(SimDuration::from_nanos(100));
        assert_eq!(spans.spans()[0].start, SimTime::from_nanos(110));
        assert_eq!(spans.events()[0].at, SimTime::from_nanos(103));
    }

    #[test]
    fn merge_combines_counters_and_enables() {
        let mut a = SpanTracer::disabled();
        let mut b = SpanTracer::enabled();
        b.count(counter::RETRANSMITS, 2);
        b.span(
            1,
            SpanKind::Send,
            "send F0",
            SimTime::ZERO,
            SimDuration::from_nanos(1),
        );
        a.merge(b);
        assert!(a.is_enabled());
        assert_eq!(a.counters().get(counter::RETRANSMITS), 2);
        assert_eq!(a.spans().len(), 1);
    }

    #[test]
    fn counter_registry_materialises_zero_observations() {
        let mut counters = CounterRegistry::new();
        counters.add(counter::HEAL_EVENTS, 0);
        assert_eq!(counters.get(counter::HEAL_EVENTS), 0);
        assert_eq!(counters.iter().count(), 1);
    }

    #[test]
    fn chrome_trace_is_wellformed_and_complete() {
        let mut spans = SpanTracer::enabled();
        spans.span(
            0,
            SpanKind::Setup,
            "setup",
            SimTime::ZERO,
            SimDuration::from_micros(2),
        );
        spans.span_with_hop(
            0,
            SpanKind::Join,
            "join \"F0\"",
            SimTime::from_nanos(2_000),
            SimDuration::from_nanos(1_500),
            Some(3),
        );
        spans.event(
            Some(0),
            Track::Transmitter,
            "retransmit F0",
            SimTime::from_nanos(4_000),
        );
        spans.count(counter::RETRANSMITS, 1);
        let json = spans.to_chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("\"displayTimeUnit\":\"ms\"}"));
        // Escaped name, fractional microseconds, hop args, counter sample.
        assert!(json.contains("join \\\"F0\\\""));
        assert!(json.contains("\"dur\":1.500"));
        assert!(json.contains("\"args\":{\"hop\":3}"));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ph\":\"M\""));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn end_time_covers_spans_and_events() {
        let mut spans = SpanTracer::enabled();
        spans.span(
            0,
            SpanKind::Join,
            "join",
            SimTime::from_nanos(10),
            SimDuration::from_nanos(5),
        );
        spans.event(None, Track::Control, "heal", SimTime::from_nanos(40));
        assert_eq!(spans.end_time(), SimTime::from_nanos(40));
    }
}
