//! Per-layer metrics from direct timed calls into each crate's public
//! functions, at the sizes the workloads use them at. The layers are the
//! crates and modules; nothing here runs a join end to end except the
//! three ratios at the bottom.

use std::io::Read;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use cyclo_join::{reference_join, CycloJoin, JoinPredicate, Placement, RotateSide};
use data_roundabout::tcp_backend::{encode_envelope_into, write_frames_vectored};
use data_roundabout::{
    Envelope, FixedCostApp, FragmentId, Frame, FrameDecoder, HostId, RingError, RingMetrics,
    SimRing,
};
use mem_joins::hash::radix_bits_for;
use mem_joins::parallel::fork_join;
use mem_joins::{
    merge_join, Algorithm, CacheParams, HashJoinState, JoinCollector, PreparedFragment,
    RadixPartitioned, SortedRun,
};
use relation::{GenSpec, Relation};
use simnet::time::SimDuration;

use crate::metrics::Measured;
use crate::nulldriver;
use crate::stats::median;
use crate::workloads::{self, derive_seed, lossy_plan, ring_config, Backend};

const MIB: f64 = 1024.0 * 1024.0;

/// How long each group of calls is timed for.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// One unit: a fiftieth of the round's `--seconds`.
    pub unit: Duration,
    /// `--smoke`: inputs at one eighth.
    pub smoke: bool,
}

impl Budget {
    /// The budget of a round asked to measure for `seconds`.
    pub fn new(seconds: f64, smoke: bool) -> Budget {
        Budget {
            unit: Duration::from_secs_f64(seconds / 50.0),
            smoke,
        }
    }

    /// `n` units.
    pub fn units(&self, n: u32) -> Duration {
        self.unit * n
    }

    fn size(&self, full: usize) -> usize {
        if self.smoke {
            full / 8
        } else {
            full
        }
    }
}

/// Median seconds per call of `work`, called in batches of `batch` for
/// about `budget` and at least three batches.
pub fn per_call(budget: Duration, batch: usize, mut work: impl FnMut()) -> f64 {
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            work();
        }
        times.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    median(&times)
}

/// Seconds of each call of `a` and of `b`, called alternately for about
/// `budget` and at least three times each, so that drift on a shared
/// machine falls on both alike.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Pairs {
    /// Seconds of each call of `a`.
    pub a: Vec<f64>,
    /// Seconds of the call of `b` that followed it.
    pub b: Vec<f64>,
}

impl Pairs {
    /// Median over the pairs of `numerator[i] / b[i]`: each quotient is
    /// of two neighbouring calls, which saw the same machine.
    pub fn ratio_to_b(&self, numerator: &[f64]) -> f64 {
        let quotients: Vec<f64> = numerator.iter().zip(&self.b).map(|(n, b)| n / b).collect();
        median(&quotients)
    }
}

/// Calls `a` and `b` alternately; see [`Pairs`].
pub fn alternate(budget: Duration, mut a: impl FnMut(), mut b: impl FnMut()) -> Pairs {
    let mut pairs = Pairs::default();
    let start = Instant::now();
    while pairs.a.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        a();
        pairs.a.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        b();
        pairs.b.push(t.elapsed().as_secs_f64());
    }
    pairs
}

/// Every per-layer metric that does not depend on which workload the
/// round is for.
///
/// # Errors
///
/// A socket that cannot be opened or a ring run that fails.
pub fn measure(seed: u64, budget: Budget) -> Result<Measured, String> {
    let mut m = Measured::default();
    let big = budget.size(524_288);
    let r = GenSpec::uniform(big, derive_seed(seed, 10)).generate();
    let s = GenSpec::uniform(big, derive_seed(seed, 11)).generate();
    relation_layer(&mut m, seed, budget, &r);
    joins_layer(&mut m, budget, &r, &s);
    protocol_layer(&mut m, budget);
    frame_layer(&mut m, budget, &r)?;
    driver_layer(&mut m, budget).map_err(|e| e.to_string())?;
    core_layer(&mut m, seed, budget, &r, &s)?;
    Ok(m)
}

fn relation_layer(m: &mut Measured, seed: u64, budget: Budget, r: &Relation) {
    let n = budget.size(131_072);
    let t = per_call(budget.unit, 1, || {
        std::hint::black_box(GenSpec::uniform(n, seed).generate());
    });
    m.set("relation.generator.tuples_per_s", n as f64 / t);

    let fragment = r.slice(0, budget.size(32_768));
    let mut buf = Vec::new();
    let t = per_call(budget.unit, 4, || {
        buf.clear();
        relation::wire::encode_into(std::hint::black_box(&fragment), &mut buf);
    });
    let mib = buf.len() as f64 / MIB;
    m.set("relation.wire.encode_mib_per_s", mib / t);
    let t = per_call(budget.unit, 4, || {
        std::hint::black_box(relation::wire::decode(&buf).expect("just encoded"));
    });
    m.set("relation.wire.decode_mib_per_s", mib / t);
}

fn joins_layer(m: &mut Measured, budget: Budget, r: &Relation, s: &Relation) {
    let params = CacheParams::default();
    let stationary = s.slice(0, budget.size(131_072));
    let bits = radix_bits_for(stationary.len(), &params);
    let n = stationary.len() as f64;
    let t = per_call(budget.unit, 1, || {
        std::hint::black_box(RadixPartitioned::new(&stationary, bits, &params));
    });
    m.set("joins.hash.partition_tuples_per_s", n / t);
    let t = per_call(budget.unit, 1, || {
        std::hint::black_box(HashJoinState::build_with_bits(&stationary, bits, &params));
    });
    m.set("joins.hash.build_tuples_per_s", n / t);

    let state = HashJoinState::build_with_bits(&stationary, bits, &params);
    let fragment = RadixPartitioned::new(&r.slice(0, budget.size(32_768)), bits, &params);
    let t = per_call(budget.unit, 1, || {
        let mut out = JoinCollector::aggregating();
        state.probe_partitioned(&fragment, 1, &mut out);
        std::hint::black_box(out.count());
    });
    m.set("joins.hash.probe_tuples_per_s", fragment.len() as f64 / t);

    // The smallfrag shape: what one of its 2 048 visits costs in the
    // kernel, to set against the per-hop cost of the drivers.
    let small_s = s.slice(0, 4_096);
    let small_bits = radix_bits_for(small_s.len(), &params);
    let small_state = HashJoinState::build_with_bits(&small_s, small_bits, &params);
    let small = RadixPartitioned::new(&r.slice(0, 128), small_bits, &params);
    let t = per_call(budget.unit, 64, || {
        let mut out = JoinCollector::aggregating();
        small_state.probe_partitioned(&small, 1, &mut out);
        std::hint::black_box(out.count());
    });
    m.set("joins.hash.probe_small_ns_per_visit", t * 1e9);

    let long = s.slice(0, budget.size(65_536));
    let t = per_call(budget.unit, 1, || {
        std::hint::black_box(SortedRun::sort(&long, 1));
    });
    m.set("joins.sort.sort_tuples_per_s", long.len() as f64 / t);
    let long_run = SortedRun::sort(&long, 1);
    let short_run = SortedRun::sort(&r.slice(0, budget.size(16_384)), 1);
    let t = per_call(budget.unit, 1, || {
        let mut out = JoinCollector::aggregating();
        merge_join(&short_run, &long_run, 2, 1, &mut out);
        std::hint::black_box(out.count());
    });
    m.set(
        "joins.sort.merge_tuples_per_s",
        (short_run.len() + long_run.len()) as f64 / t,
    );

    // What the default `join_threads = 4` adds to every visit.
    let t = per_call(budget.unit, 8, || {
        std::hint::black_box(fork_join(4, |shard| shard));
    });
    m.set("joins.parallel.fork_join_us", t * 1e6);
}

fn protocol_layer(m: &mut Measured, budget: Budget) {
    let mut single = Vec::new();
    let mut multi = Vec::new();
    let mut last = nulldriver::drive(nulldriver::single());
    let start = Instant::now();
    while single.len() < 3 || start.elapsed() < budget.units(2) {
        last = nulldriver::drive(nulldriver::single());
        single.push(last.seconds / last.inputs as f64);
        let run = nulldriver::drive(nulldriver::multi());
        multi.push(run.seconds / run.inputs as f64);
    }
    m.set("roundabout.protocol.input_ns", median(&single) * 1e9);
    m.set("roundabout.protocol.multi_input_ns", median(&multi) * 1e9);
    m.set(
        "roundabout.protocol.inputs_per_hop",
        last.inputs as f64 / last.visits as f64,
    );
    m.set(
        "roundabout.protocol.allocs_per_input",
        last.allocs.calls as f64 / last.inputs as f64,
    );
}

/// A loopback stream whose far end a thread reads and discards.
struct DrainedLoopback {
    tx: TcpStream,
    drain: std::thread::JoinHandle<()>,
}

impl DrainedLoopback {
    fn open() -> std::io::Result<DrainedLoopback> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let tx = TcpStream::connect(listener.local_addr()?)?;
        let (mut rx, _) = listener.accept()?;
        let drain = std::thread::spawn(move || {
            let mut chunk = [0u8; 64 * 1024];
            while matches!(rx.read(&mut chunk), Ok(n) if n > 0) {}
        });
        Ok(DrainedLoopback { tx, drain })
    }

    /// Closes the write end and waits for the reader to see it.
    fn close(self) {
        let _ = self.tx.shutdown(Shutdown::Both);
        let _ = self.drain.join();
    }
}

fn prepared_envelope(
    rel: &Relation,
    stationary_tuples: usize,
    hosts: usize,
) -> Envelope<PreparedFragment> {
    let algorithm = Algorithm::partitioned_hash();
    let bits = algorithm.ring_radix_bits(stationary_tuples);
    let fragment = algorithm.prepare_fragment(rel, bits, 1);
    Envelope::new(FragmentId(0), HostId(0), hosts, fragment)
}

fn frame_layer(m: &mut Measured, budget: Budget, r: &Relation) -> Result<(), String> {
    let small = prepared_envelope(&r.slice(0, 128), 4_096, 8);
    let large = prepared_envelope(&r.slice(0, budget.size(32_768)), budget.size(131_072), 4);
    // Seconds per encode and per decode of `env`, and its frame.
    let codec = |env: &Envelope<PreparedFragment>, batch: usize| {
        let mut frame = Vec::new();
        let encode = per_call(budget.unit, batch, || {
            encode_envelope_into(7, std::hint::black_box(env), &mut frame).expect("fits a frame");
        });
        let mut decoder = FrameDecoder::new();
        let decode = per_call(budget.unit, batch, || {
            decoder.feed(&frame);
            let decoded: Option<Frame<PreparedFragment>> =
                decoder.next_frame().expect("just encoded");
            std::hint::black_box(decoded.expect("one whole frame"));
        });
        (frame, encode, decode)
    };
    let (small_frame, encode, decode) = codec(&small, 64);
    m.set("roundabout.frame.encode_small_ns", encode * 1e9);
    m.set("roundabout.frame.decode_small_ns", decode * 1e9);
    let (large_frame, encode, decode) = codec(&large, 2);
    let mib = large_frame.len() as f64 / MIB;
    m.set("roundabout.frame.encode_mib_per_s", mib / encode);
    m.set("roundabout.frame.decode_mib_per_s", mib / decode);

    let frames = vec![small_frame; 16];
    let mut loopback = DrainedLoopback::open().map_err(|e| format!("loopback: {e}"))?;
    let mut failed = None;
    let t = per_call(budget.unit, 16, || {
        if let Err(e) = write_frames_vectored(&mut loopback.tx, &frames) {
            failed = Some(e);
        }
    });
    loopback.close();
    if let Some(e) = failed {
        return Err(format!("writev on loopback: {e}"));
    }
    m.set(
        "roundabout.frame.writev_frames_per_s",
        frames.len() as f64 / t,
    );
    Ok(())
}

/// One no-op-visit revolution of raw byte payloads on `backend`.
fn raw_ring(
    backend: Backend,
    hosts: usize,
    fragments: Vec<Vec<Vec<u8>>>,
) -> Result<RingMetrics, RingError> {
    let visit = |_: HostId, payload: &Vec<u8>| {
        std::hint::black_box(payload.len());
    };
    let (metrics, _) = backend.run_ring(&ring_config(hosts), fragments, visit)?;
    Ok(metrics)
}

fn byte_fragments(hosts: usize, per_host: usize, bytes: usize) -> Vec<Vec<Vec<u8>>> {
    vec![vec![vec![0u8; bytes]; per_host]; hosts]
}

fn driver_layer(m: &mut Measured, budget: Budget) -> Result<(), RingError> {
    // The smallfrag ring with the join taken out: per-envelope cost of
    // protocol + driver (+ codec and sockets where there are any).
    let (hosts, per_host, bytes) = (8, 32, 1_536);
    let visits = (hosts * hosts * per_host) as f64;
    let drivers = [
        (
            Backend::Reactor,
            "roundabout.reactor.hop_us",
            "roundabout.reactor.mesh_ms",
        ),
        (
            Backend::Tcp,
            "roundabout.tcp.hop_us",
            "roundabout.tcp.mesh_ms",
        ),
        (
            Backend::Threads,
            "roundabout.threads.hop_us",
            "roundabout.threads.mesh_ms",
        ),
    ];
    for (backend, hop, mesh) in drivers {
        let mut failed = None;
        let mut timed = |per_host: usize| {
            per_call(budget.units(2), 1, || {
                if let Err(e) = raw_ring(backend, hosts, byte_fragments(hosts, per_host, bytes)) {
                    failed = Some(e);
                }
            })
        };
        let full = timed(per_host);
        let empty = timed(0);
        if let Some(e) = failed {
            return Err(e);
        }
        m.set(hop, full / visits * 1e6);
        m.set(mesh, empty * 1e3);
    }
    let t = per_call(budget.units(2), 1, || {
        let app = FixedCostApp::new(hosts, SimDuration::ZERO, SimDuration::ZERO);
        let outcome = SimRing::new(
            ring_config(hosts),
            byte_fragments(hosts, per_host, bytes),
            app,
        )
        .run();
        std::hint::black_box(outcome.metrics.fragments_completed);
    });
    m.set("roundabout.sim.hop_us", t / visits * 1e6);

    // The hash_uniform ring with the join taken out: bytes through
    // codec and sockets per second.
    for (backend, name) in [
        (Backend::Reactor, "roundabout.reactor.stream_mib_per_s"),
        (Backend::Tcp, "roundabout.tcp.stream_mib_per_s"),
    ] {
        let mut forwarded = Ok(0);
        let t = per_call(budget.units(2), 1, || {
            forwarded = raw_ring(backend, 4, byte_fragments(4, 4, budget.size(384 * 1024)))
                .map(|metrics| metrics.total_bytes_forwarded());
        });
        m.set(name, forwarded? as f64 / MIB / t);
    }
    Ok(())
}

fn core_layer(
    m: &mut Measured,
    seed: u64,
    budget: Budget,
    r: &Relation,
    s: &Relation,
) -> Result<(), String> {
    let t = per_call(budget.unit, 1, || {
        std::hint::black_box(Placement::new(r, s, 4, 4, RotateSide::Auto));
    });
    m.set("core.distribute.placement_ms", t * 1e3);
    let t = per_call(budget.unit, 1, || {
        std::hint::black_box(reference_join(r, s, &JoinPredicate::Equi));
    });
    m.set("core.verify.reference_ms", t * 1e3);

    // DESIGN §4's tracing cost as a number: the public `.trace(true)`
    // switch on the workload with the most spans per second.
    let small = workloads::spec("smallfrag_reactor").expect("a known workload");
    let (sr, ss) = small
        .generate(seed, budget.smoke)
        .pop()
        .expect("one input pair");
    let traced = small.cyclo_join(sr.clone(), ss.clone(), true);
    let plain = small.cyclo_join(sr, ss, false);
    let failed = std::cell::RefCell::new(None);
    let run = |join: &CycloJoin| {
        if let Err(e) = join.run_reactor() {
            *failed.borrow_mut() = Some(e.to_string());
        }
    };
    let pairs = alternate(budget.units(3), || run(&traced), || run(&plain));
    if let Some(e) = failed.into_inner() {
        return Err(e);
    }
    m.set("simnet.span.trace_on_ratio", pairs.ratio_to_b(&pairs.a));

    // Does sharing the ring beat taking turns on it? The tenants batch
    // against its eight queries run one by one, same faults, wall clock.
    let tenants = workloads::spec("tenants_lossy_sim").expect("a known workload");
    let workloads::Shape::Tenants { hosts, loss, .. } = tenants.shape else {
        unreachable!("tenants_lossy_sim is the tenants workload");
    };
    let inputs = tenants.generate(seed, budget.smoke);
    let singles: Vec<CycloJoin> = inputs
        .iter()
        .map(|(r, s)| {
            CycloJoin::new(r.clone(), s.clone())
                .ring(ring_config(hosts))
                .fault_plan(lossy_plan(seed, hosts, loss))
        })
        .collect();
    let batch = tenants.tenant_batch(seed, inputs);
    let mut failed = None;
    let pairs = alternate(
        budget.units(3),
        || {
            if let Err(e) = batch.run() {
                failed = Some(e.to_string());
            }
        },
        || {
            for join in &singles {
                std::hint::black_box(join.run().map(|report| report.match_count()).ok());
            }
        },
    );
    if let Some(e) = failed {
        return Err(e);
    }
    m.set(
        "core.multiplex.vs_sequential_ratio",
        pairs.ratio_to_b(&pairs.a),
    );
    Ok(())
}
