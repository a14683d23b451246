//! `cyclo` — run a cyclo-join from the command line.
//!
//! ```text
//! cargo run --release -p cyclo-join --bin cyclo -- --hosts 6 --tuples 500000 --zipf 0.8
//! ```
//!
//! Run with `--help` for the full flag list. Results are always verified
//! against a single-host reference join unless `--no-verify` is given.

use cyclo_join::{
    advise_from_data, reference_join, Algorithm, ComputeMode, CostModel, CycloJoin, HostId,
    JoinPredicate, MultiTenantJoin, RescalePlan, RingConfig, RotateSide, SpanTracer,
};
use data_roundabout::render_timeline;
use relation::GenSpec;
use simnet::transport::TransportModel;
use simnet::{SimDuration, SimTime};

const HELP: &str = "\
cyclo — distributed joins on the Data Roundabout ring

USAGE:
    cyclo [OPTIONS]

OPTIONS:
    --hosts <N>          ring size (default 6)
    --tuples <N>         tuples per relation side (default 200000)
    --zipf <Z>           Zipf skew factor for the join keys (default: uniform)
    --algorithm <A>      hash | sort-merge | nested (default: auto)
    --band <DELTA>       band join |r.key - s.key| <= DELTA (default: equi)
    --transport <T>      rdma | tcp | toe — simulated cost model (default rdma)
    --backend <B>        sim | threads | tcp | reactor (default sim); `tcp`
                         runs over real loopback sockets, unlike the
                         simulated `--transport tcp` cost model; `reactor`
                         uses the same sockets from one event-loop thread
    --threads <N>        join threads per host, 1-4 (default 4)
    --buffers <N>        ring buffer elements per host (default 2)
    --fragments <N>      rotation units per host (default 4)
    --rotate <SIDE>      r | s | auto (default auto)
    --seed <N>           RNG seed (default 42)
    --tenants <N>        multiplex N independent queries over one shared
                         ring; every tenant gets its own R and S of
                         --tuples tuples and the CLI predicate, and the
                         run prints per-tenant results plus queries/s
    --max-active <N>     admission bound for multi-tenant runs: at most
                         N queries circulate at once, the rest queue in
                         deficit-round-robin order (default 2)
    --queries <FILE>     read tenant specs from FILE instead of
                         --tenants: one query per line as
                         \"ROTATING STATIONARY PREDICATE\" with
                         PREDICATE equi or band:DELTA; # starts a comment
    --rescale-plan <P>   planned membership schedule: comma-separated
                         join:HOST@TIME / drain:HOST@TIME entries, TIME
                         with an ns/us/ms/s suffix (bare numbers are ms),
                         e.g. \"join:5@2ms,drain:0@8ms\"; hosts named by
                         join: start as standbys outside the ring
    --handshake-timeout <D>  tcp/reactor mesh handshake deadline, D with an
                         ns/us/ms/s suffix, bare numbers ms (default 5s)
    --watchdog <D>       wall-clock stall watchdog (tcp, reactor, and threads
                         with a fault plan, rescale plan or tenants) — tear
                         the ring down after D without an event (default 10s)
    --measured           wall-clock-measure real compute instead of modeling
    --no-verify          skip the reference-join verification
    --trace <PATH>       write a Chrome trace-event JSON profile to PATH
                         (open in chrome://tracing or https://ui.perfetto.dev)
    --trace-text         print the recorded spans and events in time order
    --timeline           print an ASCII per-host timeline of the run
    --advise             print the cost model's plan advice before running
    -h, --help           show this help
";

/// Which ring backend executes the join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    /// Deterministic discrete-event simulation in virtual time.
    Sim,
    /// Real OS threads with channels for wires.
    Threads,
    /// Real loopback TCP sockets and kernel networking.
    Tcp,
    /// The same loopback sockets, driven by one readiness event loop
    /// instead of four blocking threads per host.
    Reactor,
}

/// One entry of a `--rescale-plan` schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RescaleEvent {
    /// A standby host enters the ring at the given virtual instant.
    Join { host: usize, at_nanos: u64 },
    /// A member hands its stationary roles off and leaves at the instant.
    Drain { host: usize, at_nanos: u64 },
}

/// Parsed command-line configuration.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    hosts: usize,
    tuples: usize,
    zipf: Option<f64>,
    algorithm: Option<Algorithm>,
    band: Option<u32>,
    transport: TransportModel,
    threads: usize,
    buffers: usize,
    fragments: usize,
    rotate: RotateSide,
    seed: u64,
    tenants: usize,
    max_active: usize,
    queries: Option<String>,
    rescale: Vec<RescaleEvent>,
    handshake_timeout: Option<u64>,
    watchdog: Option<u64>,
    measured: bool,
    backend: Backend,
    verify: bool,
    trace: Option<String>,
    trace_text: bool,
    timeline: bool,
    advise: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            hosts: 6,
            tuples: 200_000,
            zipf: None,
            algorithm: None,
            band: None,
            transport: TransportModel::rdma(),
            threads: 4,
            buffers: 2,
            fragments: 4,
            rotate: RotateSide::Auto,
            seed: 42,
            tenants: 0,
            max_active: 2,
            queries: None,
            rescale: Vec::new(),
            handshake_timeout: None,
            watchdog: None,
            measured: false,
            backend: Backend::Sim,
            verify: true,
            trace: None,
            trace_text: false,
            timeline: false,
            advise: false,
        }
    }
}

/// Parses arguments; returns `Err` with a message for bad input, or
/// `Ok(None)` when help was requested.
fn parse_args<I: Iterator<Item = String>>(mut args: I) -> Result<Option<Options>, String> {
    let mut opts = Options::default();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "--hosts" => opts.hosts = parse(&value("--hosts")?, "--hosts")?,
            "--tuples" => opts.tuples = parse(&value("--tuples")?, "--tuples")?,
            "--zipf" => opts.zipf = Some(parse(&value("--zipf")?, "--zipf")?),
            "--band" => opts.band = Some(parse(&value("--band")?, "--band")?),
            "--threads" => opts.threads = parse(&value("--threads")?, "--threads")?,
            "--buffers" => opts.buffers = parse(&value("--buffers")?, "--buffers")?,
            "--fragments" => opts.fragments = parse(&value("--fragments")?, "--fragments")?,
            "--seed" => opts.seed = parse(&value("--seed")?, "--seed")?,
            "--tenants" => opts.tenants = parse(&value("--tenants")?, "--tenants")?,
            "--max-active" => opts.max_active = parse(&value("--max-active")?, "--max-active")?,
            "--queries" => opts.queries = Some(value("--queries")?),
            "--rescale-plan" => opts.rescale = parse_rescale_plan(&value("--rescale-plan")?)?,
            "--handshake-timeout" => {
                opts.handshake_timeout = Some(parse_duration_flag(
                    &value("--handshake-timeout")?,
                    "--handshake-timeout",
                )?)
            }
            "--watchdog" => {
                opts.watchdog = Some(parse_duration_flag(&value("--watchdog")?, "--watchdog")?)
            }
            "--algorithm" => {
                opts.algorithm = Some(match value("--algorithm")?.as_str() {
                    "hash" => Algorithm::partitioned_hash(),
                    "sort-merge" => Algorithm::SortMerge,
                    "nested" => Algorithm::NestedLoops,
                    other => return Err(format!("unknown algorithm {other:?}")),
                })
            }
            "--transport" => {
                opts.transport = match value("--transport")?.as_str() {
                    "rdma" => TransportModel::rdma(),
                    "tcp" => TransportModel::kernel_tcp(),
                    "toe" => TransportModel::toe(),
                    other => return Err(format!("unknown transport {other:?}")),
                }
            }
            "--rotate" => {
                opts.rotate = match value("--rotate")?.as_str() {
                    "r" => RotateSide::R,
                    "s" => RotateSide::S,
                    "auto" => RotateSide::Auto,
                    other => return Err(format!("unknown rotation side {other:?}")),
                }
            }
            "--backend" => {
                opts.backend = match value("--backend")?.as_str() {
                    "sim" => Backend::Sim,
                    "threads" => Backend::Threads,
                    "tcp" => Backend::Tcp,
                    "reactor" => Backend::Reactor,
                    other => return Err(format!("unknown backend {other:?}")),
                }
            }
            "--measured" => opts.measured = true,
            "--no-verify" => opts.verify = false,
            "--trace" => opts.trace = Some(value("--trace")?),
            "--trace-text" => opts.trace_text = true,
            "--timeline" => opts.timeline = true,
            "--advise" => opts.advise = true,
            other => return Err(format!("unknown option {other:?} (try --help)")),
        }
    }
    Ok(Some(opts))
}

fn parse<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid value {value:?} for {flag}"))
}

/// Parses a `--rescale-plan` spec: comma-separated `join:HOST@TIME` /
/// `drain:HOST@TIME` entries.
fn parse_rescale_plan(spec: &str) -> Result<Vec<RescaleEvent>, String> {
    let shape =
        |entry: &str| format!("rescale entry {entry:?} is not join:HOST@TIME or drain:HOST@TIME");
    let mut events = Vec::new();
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (kind, schedule) = entry.split_once(':').ok_or_else(|| shape(entry))?;
        let (host, at) = schedule.split_once('@').ok_or_else(|| shape(entry))?;
        let host: usize = host
            .parse()
            .map_err(|_| format!("invalid host {host:?} in rescale entry {entry:?}"))?;
        let at_nanos = parse_instant(at)
            .ok_or_else(|| format!("invalid instant {at:?} in rescale entry {entry:?}"))?;
        events.push(match kind {
            "join" => RescaleEvent::Join { host, at_nanos },
            "drain" => RescaleEvent::Drain { host, at_nanos },
            other => return Err(format!("unknown rescale event {other:?} (join or drain)")),
        });
    }
    if events.is_empty() {
        return Err("--rescale-plan needs at least one join: or drain: entry".to_string());
    }
    Ok(events)
}

/// Parses a duration-valued flag through [`parse_instant`], rejecting
/// zero: the ring config validates positive timeouts anyway, but a CLI
/// error here names the flag instead of the config field.
fn parse_duration_flag(text: &str, flag: &str) -> Result<u64, String> {
    match parse_instant(text) {
        Some(0) => Err(format!("{flag} needs a positive duration, got {text:?}")),
        Some(nanos) => Ok(nanos),
        None => Err(format!("invalid duration {text:?} for {flag}")),
    }
}

/// Parses an instant like `250us`, `8ms` or `1s` into nanoseconds; bare
/// numbers are milliseconds.
fn parse_instant(text: &str) -> Option<u64> {
    let (digits, scale) = if let Some(d) = text.strip_suffix("ns") {
        (d, 1)
    } else if let Some(d) = text.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = text.strip_suffix("ms") {
        (d, 1_000_000)
    } else if let Some(d) = text.strip_suffix('s') {
        (d, 1_000_000_000)
    } else {
        (text, 1_000_000)
    };
    digits.parse::<u64>().ok()?.checked_mul(scale)
}

/// One tenant of a multi-tenant run: relation sizes and a predicate.
#[derive(Debug, Clone)]
struct TenantQuery {
    rotating: usize,
    stationary: usize,
    predicate: JoinPredicate,
}

/// Parses a `--queries` file: one `ROTATING STATIONARY PREDICATE` line
/// per tenant, blank lines and `#` comments ignored.
fn parse_queries_spec(text: &str) -> Result<Vec<TenantQuery>, String> {
    let mut queries = Vec::new();
    for (number, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        let bad = || {
            format!(
                "line {}: expected ROTATING STATIONARY PREDICATE",
                number + 1
            )
        };
        let rotating: usize = fields.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let stationary: usize = fields.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let predicate = match fields.next().ok_or_else(bad)? {
            "equi" => JoinPredicate::Equi,
            spec => match spec.strip_prefix("band:").and_then(|d| d.parse().ok()) {
                Some(delta) => JoinPredicate::band(delta),
                None => {
                    return Err(format!(
                        "line {}: unknown predicate {spec:?} (equi or band:DELTA)",
                        number + 1
                    ))
                }
            },
        };
        if fields.next().is_some() {
            return Err(bad());
        }
        queries.push(TenantQuery {
            rotating,
            stationary,
            predicate,
        });
    }
    if queries.is_empty() {
        return Err("the queries file names no tenants".to_string());
    }
    Ok(queries)
}

/// Builds the ring configuration shared by single- and multi-query runs.
fn ring_config(opts: &Options) -> RingConfig {
    let mut config = RingConfig {
        hosts: opts.hosts,
        buffers_per_host: opts.buffers,
        join_threads: opts.threads,
        transport: opts.transport,
        ..RingConfig::paper(opts.hosts)
    };
    if let Some(nanos) = opts.handshake_timeout {
        config = config.with_handshake_timeout(SimDuration::from_nanos(nanos));
    }
    if let Some(nanos) = opts.watchdog {
        config = config.with_watchdog(SimDuration::from_nanos(nanos));
    }
    config
}

/// The `--rescale-plan` schedule, for single- and multi-query runs alike.
fn rescale_plan(opts: &Options) -> Option<RescalePlan> {
    if opts.rescale.is_empty() {
        return None;
    }
    let mut schedule = RescalePlan::seeded(opts.seed);
    for event in &opts.rescale {
        schedule = match *event {
            RescaleEvent::Join { host, at_nanos } => {
                schedule.join_host(HostId(host), SimTime::from_nanos(at_nanos))
            }
            RescaleEvent::Drain { host, at_nanos } => {
                schedule.drain_host(HostId(host), SimTime::from_nanos(at_nanos))
            }
        };
    }
    Some(schedule)
}

/// Runs `--tenants` / `--queries` mode: all tenants multiplexed over one
/// ring, verified tenant-by-tenant against reference joins.
fn run_multi_tenant(opts: &Options, config: RingConfig) {
    let specs = match &opts.queries {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(err) => {
                    eprintln!("error: could not read queries file {path}: {err}");
                    std::process::exit(2);
                }
            };
            match parse_queries_spec(&text) {
                Ok(specs) => specs,
                Err(message) => {
                    eprintln!("error: {path}: {message}");
                    std::process::exit(2);
                }
            }
        }
        None => {
            let predicate = match opts.band {
                Some(delta) => JoinPredicate::band(delta),
                None => JoinPredicate::Equi,
            };
            vec![
                TenantQuery {
                    rotating: opts.tuples,
                    stationary: opts.tuples,
                    predicate,
                };
                opts.tenants
            ]
        }
    };

    let gen = |tuples: usize, seed: u64| match opts.zipf {
        Some(z) => GenSpec::zipf(tuples, z, seed).generate(),
        None => GenSpec::uniform(tuples, seed).generate(),
    };
    let mut batch = MultiTenantJoin::new()
        .ring(config)
        .fragments_per_host(opts.fragments)
        .max_active(opts.max_active);
    let mut inputs = Vec::with_capacity(specs.len());
    for (q, spec) in specs.iter().enumerate() {
        let seed = opts.seed.wrapping_add(2 * q as u64);
        let r = gen(spec.rotating, seed);
        let s = gen(spec.stationary, seed.wrapping_add(1));
        inputs.push((r.clone(), s.clone(), spec.predicate.clone()));
        batch = batch.tenant(r, s, spec.predicate.clone());
    }
    if opts.measured {
        batch = batch.compute(ComputeMode::Measured);
    }
    if let Some(schedule) = rescale_plan(opts) {
        batch = batch.rescale_plan(schedule);
    }

    let report = match opts.backend {
        Backend::Sim => batch.run(),
        Backend::Threads => batch.run_threaded(),
        Backend::Tcp => batch.run_tcp(),
        Backend::Reactor => batch.run_reactor(),
    };
    let report = match report {
        Ok(report) => report,
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    };
    print!("{report}");
    if opts.timeline {
        print!("{}", render_timeline(&report.ring, 64));
    }
    if opts.verify {
        for (tenant, (r, s, predicate)) in report.tenants.iter().zip(&inputs) {
            let reference = reference_join(r, s, predicate);
            if tenant.count != reference.count || tenant.checksum != reference.checksum {
                eprintln!(
                    "VERIFICATION FAILED: tenant {} got {} matches, reference has {}",
                    tenant.tenant, tenant.count, reference.count
                );
                std::process::exit(1);
            }
        }
        println!(
            "verified: all {} tenants equal their single-host reference joins",
            report.tenants.len()
        );
    }
}

fn main() {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            print!("{HELP}");
            return;
        }
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("run with --help for usage");
            std::process::exit(2);
        }
    };

    if opts.tenants > 0 || opts.queries.is_some() {
        run_multi_tenant(&opts, ring_config(&opts));
        return;
    }

    let gen = |seed: u64| match opts.zipf {
        Some(z) => GenSpec::zipf(opts.tuples, z, seed).generate(),
        None => GenSpec::uniform(opts.tuples, seed).generate(),
    };
    let r = gen(opts.seed);
    let s = gen(opts.seed.wrapping_add(1));
    let predicate = match opts.band {
        Some(delta) => JoinPredicate::band(delta),
        None => JoinPredicate::Equi,
    };
    let reference = opts.verify.then(|| reference_join(&r, &s, &predicate));

    if opts.advise {
        let advice = advise_from_data(
            &CostModel::paper_xeon(),
            &RingConfig::paper(opts.hosts),
            &r,
            &s,
        );
        println!(
            "advice: rotate {}, prefer {}",
            if advice.rotate_s { "S (smaller)" } else { "R" },
            if advice.prefer_sort_merge {
                "sort-merge"
            } else {
                "partitioned-hash"
            }
        );
    }

    let config = ring_config(&opts);
    let mut plan = CycloJoin::new(r, s)
        .predicate(predicate)
        .ring(config)
        .fragments_per_host(opts.fragments)
        .rotate(opts.rotate)
        .trace(opts.trace.is_some() || opts.trace_text);
    if let Some(algorithm) = opts.algorithm {
        plan = plan.algorithm(algorithm);
    }
    if opts.measured {
        plan = plan.compute(ComputeMode::Measured);
    }
    if let Some(schedule) = rescale_plan(&opts) {
        plan = plan.rescale_plan(schedule);
    }

    let outcome = match opts.backend {
        Backend::Sim => plan.run(),
        Backend::Threads => plan.run_threaded(),
        Backend::Tcp => plan.run_tcp(),
        Backend::Reactor => plan.run_reactor(),
    };
    let report = match outcome {
        Ok(report) => report,
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    };

    print!("{}", report.render());
    if opts.timeline {
        print!("{}", render_timeline(&report.ring, 64));
    }
    if opts.trace_text {
        print!("{}", render_trace_text(&report.spans));
    }
    if let Some(path) = &opts.trace {
        let summary = report.revolution_summary();
        if !summary.is_empty() {
            print!("{summary}");
        }
        if let Err(err) = std::fs::write(path, report.chrome_trace()) {
            eprintln!("error: could not write trace to {path}: {err}");
            std::process::exit(1);
        }
        println!("trace: wrote Chrome trace-event JSON to {path}");
    }
    if let Some(reference) = reference {
        if report.match_count() == reference.count && report.checksum() == reference.checksum {
            println!("verified: result equals the single-host reference join");
        } else {
            eprintln!(
                "VERIFICATION FAILED: got {} matches, reference has {}",
                report.match_count(),
                reference.count
            );
            std::process::exit(1);
        }
    }
}

/// `--trace-text`: every recorded span (at its start, with its duration)
/// and instant event, one per line in time order — the same recording
/// `--trace` exports as JSON, on whichever backend ran.
fn render_trace_text(trace: &SpanTracer) -> String {
    let host = |h: Option<usize>| h.map_or("ring".to_string(), |h| format!("H{h}"));
    let spans = trace.spans().iter().map(|s| {
        let what = format!("{} for {}", s.name, s.duration);
        (s.start, host(Some(s.host)), s.kind.track(), what)
    });
    let events = trace
        .events()
        .iter()
        .map(|e| (e.at, host(e.host), e.track, e.name.clone()));
    let mut lines: Vec<_> = spans.chain(events).collect();
    lines.sort_by_key(|(at, ..)| *at);
    lines
        .iter()
        .map(|(at, host, track, what)| format!("[{at} {host} {}] {what}\n", track.lane_name()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(args: &[&str]) -> Options {
        parse_args(args.iter().map(|s| s.to_string()))
            .expect("parse should succeed")
            .expect("not a help invocation")
    }

    #[test]
    fn defaults_apply() {
        let opts = parse_ok(&[]);
        assert_eq!(opts, Options::default());
    }

    #[test]
    fn flags_are_parsed() {
        let opts = parse_ok(&[
            "--hosts",
            "3",
            "--tuples",
            "1000",
            "--zipf",
            "0.7",
            "--algorithm",
            "sort-merge",
            "--band",
            "2",
            "--transport",
            "tcp",
            "--backend",
            "tcp",
            "--threads",
            "2",
            "--handshake-timeout",
            "750ms",
            "--watchdog",
            "30s",
            "--rotate",
            "s",
            "--measured",
            "--no-verify",
            "--timeline",
            "--advise",
            "--trace",
            "out.json",
            "--trace-text",
        ]);
        assert_eq!(opts.hosts, 3);
        assert_eq!(opts.tuples, 1000);
        assert_eq!(opts.zipf, Some(0.7));
        assert_eq!(opts.band, Some(2));
        assert_eq!(opts.transport.name(), "TCP");
        assert_eq!(opts.backend, Backend::Tcp);
        assert_eq!(opts.threads, 2);
        assert_eq!(opts.handshake_timeout, Some(750_000_000));
        assert_eq!(opts.watchdog, Some(30_000_000_000));
        assert_eq!(opts.rotate, RotateSide::S);
        assert!(opts.measured);
        assert!(!opts.verify);
        assert!(opts.timeline);
        assert!(opts.advise);
        assert_eq!(opts.trace.as_deref(), Some("out.json"));
        assert!(opts.trace_text);
    }

    #[test]
    fn reactor_backend_is_parsed() {
        let opts = parse_ok(&["--backend", "reactor"]);
        assert_eq!(opts.backend, Backend::Reactor);
        assert_eq!(
            parse_ok(&["--backend", "threads"]).backend,
            Backend::Threads
        );
        // Timeout flags default to "leave the config's values alone".
        assert_eq!(opts.handshake_timeout, None);
        assert_eq!(opts.watchdog, None);
    }

    #[test]
    fn duration_flags_accept_every_instant_suffix() {
        assert_eq!(
            parse_ok(&["--watchdog", "4"]).watchdog,
            Some(4_000_000),
            "bare numbers are milliseconds"
        );
        assert_eq!(
            parse_ok(&["--handshake-timeout", "250us"]).handshake_timeout,
            Some(250_000)
        );
    }

    #[test]
    fn rescale_plans_are_parsed() {
        let opts = parse_ok(&["--rescale-plan", "join:5@2ms, drain:0@250us,"]);
        assert_eq!(
            opts.rescale,
            vec![
                RescaleEvent::Join {
                    host: 5,
                    at_nanos: 2_000_000
                },
                RescaleEvent::Drain {
                    host: 0,
                    at_nanos: 250_000
                },
            ]
        );
        // Bare numbers are milliseconds; s and ns suffixes work too.
        assert_eq!(
            parse_ok(&["--rescale-plan", "drain:1@4"]).rescale,
            vec![RescaleEvent::Drain {
                host: 1,
                at_nanos: 4_000_000
            }]
        );
        assert_eq!(parse_instant("1s"), Some(1_000_000_000));
        assert_eq!(parse_instant("10ns"), Some(10));
        assert_eq!(parse_instant("7us"), Some(7_000));
    }

    #[test]
    fn malformed_rescale_plans_are_rejected() {
        for spec in [
            "",
            "join:5",
            "join:@2ms",
            "join:x@2ms",
            "drain:1@",
            "drain:1@2min",
            "retire:1@2ms",
        ] {
            let args = ["--rescale-plan".to_string(), spec.to_string()];
            assert!(
                parse_args(args.into_iter()).is_err(),
                "{spec:?} should be rejected"
            );
        }
    }

    #[test]
    fn multi_tenant_flags_are_parsed() {
        let opts = parse_ok(&["--tenants", "4", "--max-active", "3"]);
        assert_eq!(opts.tenants, 4);
        assert_eq!(opts.max_active, 3);
        assert_eq!(opts.queries, None);
        let opts = parse_ok(&["--queries", "plan.txt"]);
        assert_eq!(opts.queries.as_deref(), Some("plan.txt"));
        // Single-query mode stays the default.
        let opts = parse_ok(&[]);
        assert_eq!(opts.tenants, 0);
        assert_eq!(opts.max_active, 2);
    }

    #[test]
    fn queries_files_are_parsed() {
        let specs =
            parse_queries_spec("# two tenants\n5000 4000 equi\n\n3000 3000 band:2  # banded\n")
                .expect("valid spec");
        assert_eq!(specs.len(), 2);
        assert_eq!((specs[0].rotating, specs[0].stationary), (5000, 4000));
        assert!(matches!(specs[0].predicate, JoinPredicate::Equi));
        assert_eq!((specs[1].rotating, specs[1].stationary), (3000, 3000));
        assert!(matches!(
            specs[1].predicate,
            JoinPredicate::Band { delta: 2 }
        ));
        for bad in [
            "",
            "# only comments\n",
            "5000 equi",
            "5000 4000 theta",
            "5000 4000 band:x",
            "5000 4000 equi extra",
        ] {
            assert!(
                parse_queries_spec(bad).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn help_short_circuits() {
        let parsed = parse_args(["--help"].iter().map(|s| s.to_string())).unwrap();
        assert!(parsed.is_none());
    }

    #[test]
    fn bad_values_are_rejected() {
        for args in [
            vec!["--hosts", "many"],
            vec!["--algorithm", "bogosort"],
            vec!["--transport", "carrier-pigeon"],
            vec!["--backend", "bogus"],
            vec!["--rotate", "both"],
            vec!["--handshake-timeout", "soon"],
            vec!["--handshake-timeout", "0s"],
            vec!["--watchdog", "never"],
            vec!["--watchdog", "0"],
            vec!["--hosts"],
            vec!["--trace"],
            vec!["--frobnicate"],
        ] {
            assert!(
                parse_args(args.iter().map(|s| s.to_string())).is_err(),
                "{args:?} should be rejected"
            );
        }
    }
    #[test]
    fn trace_text_interleaves_spans_and_events_in_time_order() {
        use cyclo_join::SpanKind;
        use simnet::span::Track;
        let at = |n| SimTime::ZERO + SimDuration::from_micros(n);
        let mut trace = SpanTracer::enabled();
        trace.event(None, Track::Control, "query 0 (tenant 0) complete", at(9));
        trace.span(
            1,
            SpanKind::Join,
            "join F3",
            at(2),
            SimDuration::from_micros(5),
        );
        trace.event(Some(1), Track::Receiver, "recv F3", at(1));
        let text = render_trace_text(&trace);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].ends_with("H1 receiver] recv F3"), "{text}");
        assert!(lines[1].contains("H1 join entity] join F3 for "), "{text}");
        assert!(
            lines[2].ends_with("ring control] query 0 (tenant 0) complete"),
            "{text}"
        );
        assert!(render_trace_text(&SpanTracer::disabled()).is_empty());
    }
}
