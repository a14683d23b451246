//! Round trip through the observability layer: run a plan with tracing
//! enabled, export the Chrome trace-event JSON, parse it back with a
//! small hand-rolled JSON reader (the workspace vendors no JSON crate),
//! and reconcile the span totals against the run's `RingMetrics`.

use cyclo_join::{CycloJoin, CycloJoinReport, FaultPlan, HostId};
use relation::GenSpec;

/// A minimal JSON value — just enough to read a trace-event file.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Recursive-descent parser over the full input; rejects trailing junk.
fn parse_json(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at offset {pos}", byte as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, text: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(text.as_bytes()) {
        *pos += text.len();
        Ok(value)
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at offset {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = std::str::from_utf8(&bytes[*pos + 1..*pos + 5])
                            .map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the emitter writes multi-byte
                // characters raw).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("bad array separator {other:?}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            other => return Err(format!("bad object separator {other:?}")),
        }
    }
}

/// Exported `ts`/`dur` are microseconds; metrics are nanosecond-precise,
/// so sums agree to well under a microsecond per host.
const TOLERANCE_SECONDS: f64 = 1e-6;

fn close(label: &str, got_micros: f64, want_seconds: f64) {
    let got_seconds = got_micros / 1e6;
    assert!(
        (got_seconds - want_seconds).abs() < TOLERANCE_SECONDS,
        "{label}: trace says {got_seconds}s, metrics say {want_seconds}s"
    );
}

/// Parses the report's Chrome trace and reconciles every host's phase
/// totals and the run-wide counters against `report.ring`.
fn reconcile(report: &CycloJoinReport) {
    let text = report.chrome_trace();
    let root = parse_json(&text).expect("exported trace must be valid JSON");
    assert_eq!(
        root.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms"),
        "trace must carry the display unit hint"
    );
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("trace must hold a traceEvents array");
    assert!(!events.is_empty(), "a traced run must export events");

    // Sum complete-span durations per (host, category), in microseconds.
    let mut sums: std::collections::HashMap<(u64, String), f64> = std::collections::HashMap::new();
    let mut counters: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    for event in events {
        let ph = event.get("ph").and_then(Json::as_str).expect("ph");
        match ph {
            "X" => {
                let pid = event.get("pid").and_then(Json::as_f64).expect("pid") as u64;
                let cat = event.get("cat").and_then(Json::as_str).expect("cat");
                let ts = event.get("ts").and_then(Json::as_f64).expect("ts");
                let dur = event.get("dur").and_then(Json::as_f64).expect("dur");
                assert!(ts >= 0.0 && dur >= 0.0, "spans must have sane timestamps");
                *sums.entry((pid, cat.to_string())).or_default() += dur;
            }
            "C" => {
                let name = event.get("name").and_then(Json::as_str).expect("name");
                let value = event
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Json::as_f64)
                    .expect("counter value");
                counters.insert(name.to_string(), value);
            }
            "i" | "M" => {}
            other => panic!("unexpected event phase {other:?}"),
        }
    }

    let phase = |host: usize, cat: &str| -> f64 {
        sums.get(&(host as u64, cat.to_string()))
            .copied()
            .unwrap_or(0.0)
    };
    for (h, m) in report.ring.hosts.iter().enumerate() {
        close(
            &format!("host {h} setup"),
            phase(h, "setup"),
            m.setup.as_secs_f64(),
        );
        close(
            &format!("host {h} busy"),
            phase(h, "join") + phase(h, "absorb"),
            m.join_busy.as_secs_f64(),
        );
        close(
            &format!("host {h} sync"),
            phase(h, "sync"),
            m.sync.as_secs_f64(),
        );
    }

    assert_eq!(
        counters.get("fragments_retired").copied(),
        Some(report.ring.fragments_completed as f64),
        "retired-fragment counter must equal the metrics' completed count"
    );
    assert_eq!(
        counters.get("retransmits").copied(),
        Some(report.retransmits() as f64),
        "retransmit counter must equal the metrics' total"
    );
}

fn inputs(seed: u64) -> (relation::Relation, relation::Relation) {
    (
        GenSpec::uniform(3_000, seed).generate(),
        GenSpec::uniform(3_000, seed + 1).generate(),
    )
}

#[test]
fn simulated_backend_trace_reconciles_with_metrics() {
    let (r, s) = inputs(9300);
    let report = CycloJoin::new(r, s)
        .hosts(4)
        .trace(true)
        .run()
        .expect("plan should run");
    reconcile(&report);
    assert!(
        !report.revolution_summary().is_empty(),
        "a traced run must render a per-hop revolution summary"
    );
}

#[test]
fn threaded_backend_trace_reconciles_with_metrics() {
    let (r, s) = inputs(9400);
    let report = CycloJoin::new(r, s)
        .hosts(4)
        .trace(true)
        .run_threaded()
        .expect("plan should run");
    reconcile(&report);
}

/// One batch of inputs, traced on every backend: each backend's Chrome
/// trace must carry setup, busy and sync spans that sum to its metrics,
/// host by host. The wall-clock backends share the coordinator, which
/// records a host's waits as sync spans.
#[test]
fn phases_reconcile_with_metrics_on_all_four_backends() {
    let (r, s) = inputs(9450);
    let join = CycloJoin::new(r, s).hosts(4).trace(true);
    let runs = [
        ("sim", join.run()),
        ("threads", join.run_threaded()),
        ("tcp", join.run_tcp()),
        ("reactor", join.run_reactor()),
    ];
    for (backend, report) in runs {
        reconcile(&report.unwrap_or_else(|e| panic!("{backend}: {e}")));
    }
}

#[test]
fn faulted_trace_reports_protocol_counters() {
    let (r, s) = inputs(9500);
    let report = CycloJoin::new(r, s)
        .hosts(4)
        .fault_plan(FaultPlan::seeded(7).lossy_link(HostId(1), 0.25))
        .trace(true)
        .run()
        .expect("faulted plan should still run");
    assert!(
        report.retransmits() > 0,
        "a lossy link must force retransmissions"
    );
    reconcile(&report);
}

#[test]
fn untraced_run_exports_an_empty_trace() {
    let (r, s) = inputs(9600);
    let report = CycloJoin::new(r, s)
        .hosts(3)
        .run()
        .expect("plan should run");
    let root = parse_json(&report.chrome_trace()).expect("even an empty trace is valid JSON");
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    assert!(events.is_empty(), "tracing off must export no events");
}

/// The same two-tenant batch on all four backends must emit the same
/// set of `Track::Control` event names: the three wall-clock drivers
/// share one applier, and that applier spells its events the way the
/// simulator does.
#[test]
fn control_track_names_agree_on_all_four_backends() {
    use cyclo_join::{JoinPredicate, MultiTenantJoin, MultiTenantReport};
    use simnet::span::Track;
    use std::collections::BTreeSet;

    let mut batch = MultiTenantJoin::new().hosts(3).max_active(1).trace(true);
    for q in 0..2u64 {
        let (r, s) = inputs(9700 + 2 * q);
        batch = batch.tenant(r, s, JoinPredicate::Equi);
    }
    let control = |report: MultiTenantReport| -> BTreeSet<String> {
        assert!(report.all_completed());
        report
            .spans
            .events()
            .iter()
            .filter(|e| e.track == Track::Control)
            .map(|e| e.name.clone())
            .collect()
    };
    let sim = control(batch.run().expect("sim batch"));
    let expected: BTreeSet<String> = [
        "query 0 (tenant 0) admitted",
        "query 0 (tenant 0) complete",
        "query 1 (tenant 1) admitted",
        "query 1 (tenant 1) complete",
    ]
    .map(String::from)
    .into();
    assert_eq!(sim, expected);
    assert_eq!(control(batch.run_threaded().expect("threads batch")), sim);
    assert_eq!(control(batch.run_tcp().expect("tcp batch")), sim);
    assert_eq!(control(batch.run_reactor().expect("reactor batch")), sim);
}

/// Event names with every id stripped, per track: the *kinds* of events a
/// run left. Counts of timer-driven events may differ between a virtual
/// and a wall clock; which kinds exist, and how they are spelled, may not.
fn event_kinds(
    spans: &cyclo_join::SpanTracer,
) -> std::collections::BTreeSet<(simnet::span::Track, String)> {
    spans
        .events()
        .iter()
        .map(|e| {
            let kind = e.name.chars().filter(|c| !c.is_ascii_digit()).collect();
            (e.track, kind)
        })
        .collect()
}

/// One vocabulary under faults, on all four backends. Every protocol
/// output reaches the trace through the one mapping every backend's
/// applier calls, so a seeded lossy + corrupting plan must leave the same kinds of
/// receiver / transmitter / join events everywhere, and — with ack
/// timeouts generous enough that only the dice decide — the same
/// counters, exactly as the parity suite's metrics do.
#[test]
fn fault_vocabulary_and_dice_counters_agree_on_all_four_backends() {
    use data_roundabout::RingConfig;
    use simnet::span::Track;
    use simnet::time::SimDuration;

    let (r, s) = inputs(9800);
    let plan = FaultPlan::seeded(7)
        .lossy_link(HostId(0), 0.3)
        .corrupt_link(HostId(1), 0.3);
    let config = RingConfig::paper(3)
        .with_join_threads(1)
        .with_ack_timeout(SimDuration::from_millis(150))
        .with_max_retransmits(10);
    let join = CycloJoin::new(r, s)
        .ring(config)
        .fragments_per_host(3)
        .fault_plan(plan)
        .trace(true);
    let observed = |report: CycloJoinReport| {
        let counters: Vec<(String, u64)> = [
            "envelopes_sent",
            "envelopes_received",
            "fragments_retired",
            "retransmits",
            "checksum_mismatches",
        ]
        .iter()
        .map(|name| (name.to_string(), report.spans.counters().get(name)))
        .collect();
        assert_eq!(
            report.spans.counters().get("retransmits"),
            report.retransmits()
        );
        (event_kinds(&report.spans), counters)
    };
    let sim = observed(join.run().expect("sim"));
    let has = |track, kind: &str| sim.0.contains(&(track, kind.to_string()));
    assert!(has(Track::Transmitter, "retransmit F attempt "), "{sim:?}");
    assert!(has(Track::Receiver, "checksum mismatch F"), "{sim:?}");
    assert!(has(Track::Receiver, "recv F"), "{sim:?}");
    assert!(has(Track::Join, "retired F"), "{sim:?}");
    assert_eq!(observed(join.run_threaded().expect("threads")), sim);
    assert_eq!(observed(join.run_tcp().expect("tcp")), sim);
    assert_eq!(observed(join.run_reactor().expect("reactor")), sim);
}

/// The receiver's `duplicate … dropped` event — the one the simulator used
/// not to emit — on all four backends. Delay spikes three ack timeouts long
/// on one link make the sender retransmit a transfer whose first copy is
/// still in flight; visits slow enough to keep the ring turning until the
/// late copy lands make every backend see it arrive. How *many* arrive is
/// the clock's business; the kinds of events are not.
#[test]
fn duplicate_deliveries_are_spelled_alike_on_all_four_backends() {
    use data_roundabout::{
        BlockingEngine, ChannelEngine, FixedCostApp, ReactorEngine, RingConfig, SimRing,
        WallClockDriver, WallClockEngine,
    };
    use simnet::span::Track;
    use simnet::time::SimDuration;
    use std::time::Duration;

    let hosts = 3;
    let visit = 15;
    let plan = FaultPlan::seeded(24).delay_spikes(HostId(1), 0.5, SimDuration::from_millis(90));
    let config = RingConfig::paper(hosts)
        .with_ack_timeout(SimDuration::from_millis(30))
        .with_max_retransmits(10);
    let payloads = || -> Vec<Vec<Vec<u8>>> {
        (0..hosts)
            .map(|h| (0..4).map(|i| vec![(4 * h + i) as u8; 64]).collect())
            .collect()
    };
    let app = FixedCostApp::new(hosts, SimDuration::ZERO, SimDuration::from_millis(visit));
    let sim = SimRing::new(config, payloads(), app)
        .with_fault_plan(plan.clone())
        .with_trace(true)
        .run();
    let sim = event_kinds(&sim.spans);
    assert!(
        sim.contains(&(Track::Receiver, "duplicate F dropped".to_string())),
        "the simulator must report dropped duplicates: {sim:?}"
    );
    fn kinds_on<E: WallClockEngine>(
        config: &RingConfig,
        plan: &FaultPlan,
        fragments: Vec<Vec<Vec<u8>>>,
        visit: u64,
    ) -> std::collections::BTreeSet<(Track, String)> {
        let (_, spans) = WallClockDriver::<E>::new(config)
            .with_fault_plan(plan)
            .with_tracer(true)
            .run(fragments, |_, _: &Vec<u8>| {
                std::thread::sleep(Duration::from_millis(visit))
            })
            .expect("the spiky ring should finish");
        event_kinds(&spans)
    }
    let threads = kinds_on::<ChannelEngine>(&config, &plan, payloads(), visit);
    assert_eq!(threads, sim, "threads");
    let tcp = kinds_on::<BlockingEngine>(&config, &plan, payloads(), visit);
    assert_eq!(tcp, sim, "tcp");
    let reactor = kinds_on::<ReactorEngine>(&config, &plan, payloads(), visit);
    assert_eq!(reactor, sim, "reactor");
}
