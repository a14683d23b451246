//! The measured bench suite behind `cargo xtask bench`.
//!
//! Three entry groups (the repo's standing perf baseline) plus the
//! hot-path deltas:
//!
//! * **kernel** — the local join kernels at 2–3 scales: radix
//!   partitioning, chained-hash build and probe, sort and merge.
//! * **codec** — `relation::wire` encode/decode and the TCP envelope
//!   frame codec, in bytes/s.
//! * **e2e** — a fixed seeded cyclo-join plan run to completion on each
//!   backend (sim, threads, tcp, reactor), in revolutions/s (fragments
//!   completing a full ring revolution per wall-clock second).
//!
//! Each delta re-measures one *fixed* copy-amplification bug: the
//! "before" is a bench-local reimplementation of the removed code path,
//! run in the same process on the same input as the shipped "after"
//! path, so the pair differs only by the fix.

use data_roundabout::frame::{
    encode_envelope, encode_envelope_into, write_frames_vectored, KIND_ENVELOPE,
};
use data_roundabout::{Envelope, FragmentId, FrameDecoder, WirePayload};
use mem_joins::hash::{radix_bits_for, ChainedTable};
use mem_joins::{CacheParams, HashJoinState, JoinCollector, RadixPartitioned};
use mem_joins::{SortMergeState, SortedRun};
use relation::{GenSpec, Relation};
use simnet::topology::HostId;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

use crate::report::{Delta, Report};
use crate::timing::{bench, bench_ab, bench_ab_with_setup, Budget};
use cyclo_join::CycloJoin;

/// Runs the whole suite. `smoke` shrinks sizes and budgets to CI scale.
pub fn run_suite(smoke: bool) -> Report {
    let budget = if smoke {
        Budget::smoke()
    } else {
        Budget::full()
    };
    let mut report = Report {
        smoke,
        ..Report::default()
    };
    kernel_group(&mut report, budget, smoke);
    codec_group(&mut report, budget, smoke);
    e2e_group(&mut report, smoke);
    delta_group(&mut report, budget, smoke);
    report
}

/// Human tag for a tuple count: `4k`, `64k`, `1m`.
fn size_tag(n: usize) -> String {
    if n >= 1 << 20 && n.is_multiple_of(1 << 20) {
        format!("{}m", n >> 20)
    } else {
        format!("{}k", n >> 10)
    }
}

fn kernel_scales(smoke: bool) -> Vec<usize> {
    if smoke {
        vec![4 << 10, 16 << 10]
    } else {
        vec![64 << 10, 256 << 10, 1 << 20]
    }
}

fn kernel_group(report: &mut Report, budget: Budget, smoke: bool) {
    let params = CacheParams::paper_xeon();
    for n in kernel_scales(smoke) {
        let tag = size_tag(n);
        let rel = GenSpec::uniform(n, 11).generate();
        let probe_rel = GenSpec::uniform(n, 13).generate();
        // Partition on enough bits to exercise the multi-pass scatter at
        // every scale (radix_bits_for returns 0 below L2 capacity).
        let bits = radix_bits_for(n, &params).max(4);

        let s = bench(budget, || RadixPartitioned::new(&rel, bits, &params));
        let tput = s.per_second(n as f64);
        report.push_entry(
            &format!("radix_partition_{tag}"),
            "kernel",
            s,
            tput,
            "tuples/s",
        );

        let s = bench(budget, || {
            HashJoinState::build_with_bits(&rel, bits, &params)
        });
        let tput = s.per_second(n as f64);
        report.push_entry(&format!("hash_build_{tag}"), "kernel", s, tput, "tuples/s");

        let state = HashJoinState::build_with_bits(&rel, bits, &params);
        let partitioned = state.partition_probe(&probe_rel, &params);
        let s = bench(budget, || {
            let mut collector = JoinCollector::aggregating();
            state.probe_partitioned(&partitioned, 1, &mut collector);
            collector.count()
        });
        let tput = s.per_second(n as f64);
        report.push_entry(&format!("hash_probe_{tag}"), "kernel", s, tput, "tuples/s");

        let s = bench(budget, || SortedRun::sort(&rel, 1));
        let tput = s.per_second(n as f64);
        report.push_entry(&format!("sort_run_{tag}"), "kernel", s, tput, "tuples/s");

        let merge_state = SortMergeState::build(&rel, 1);
        let probe_run = SortedRun::sort(&probe_rel, 1);
        let s = bench(budget, || {
            let mut collector = JoinCollector::aggregating();
            merge_state.merge(&probe_run, 0, 1, &mut collector);
            collector.count()
        });
        let tput = s.per_second(n as f64);
        report.push_entry(&format!("merge_join_{tag}"), "kernel", s, tput, "tuples/s");
    }
}

fn codec_group(report: &mut Report, budget: Budget, smoke: bool) {
    let n = if smoke { 16 << 10 } else { 256 << 10 };
    let tag = size_tag(n);
    let rel = GenSpec::uniform(n, 17).generate();
    let wire_bytes = relation::wire::encoded_len(n) as f64;

    let s = bench(budget, || relation::wire::encode(&rel));
    let tput = s.per_second(wire_bytes);
    report.push_entry(&format!("wire_encode_{tag}"), "codec", s, tput, "bytes/s");

    let encoded = relation::wire::encode(&rel);
    let s = bench(budget, || relation::wire::decode(&encoded));
    let tput = s.per_second(wire_bytes);
    report.push_entry(&format!("wire_decode_{tag}"), "codec", s, tput, "bytes/s");

    let env = Envelope::new(FragmentId(1), HostId(0), 4, rel);
    let frame_bytes = (5 + 48) as f64 + env.payload.payload_wire_len() as f64;
    let mut buf = Vec::new();
    let s = bench(budget, || {
        encode_envelope_into(7, &env, &mut buf).map(|()| buf.len())
    });
    let tput = s.per_second(frame_bytes);
    report.push_entry(&format!("frame_encode_{tag}"), "codec", s, tput, "bytes/s");

    let frame = encode_envelope(7, &env).unwrap_or_default();
    let s = bench(budget, || {
        let mut decoder = FrameDecoder::new();
        decoder.feed(&frame);
        decoder.next_frame::<Relation>()
    });
    let tput = s.per_second(frame_bytes);
    report.push_entry(&format!("frame_decode_{tag}"), "codec", s, tput, "bytes/s");
}

/// One fixed seeded plan, run to completion per backend. Revolutions/s
/// counts fragments finishing a full ring revolution per wall second —
/// the transport-level number the paper's "join at wire speed" claim is
/// about.
fn e2e_group(report: &mut Report, smoke: bool) {
    let n = if smoke { 4 << 10 } else { 64 << 10 };
    let hosts = 4;
    let budget = Budget {
        warmup: std::time::Duration::ZERO,
        min_iters: if smoke { 1 } else { 3 },
        min_time: std::time::Duration::ZERO,
    };
    let r = GenSpec::uniform(n, 23).generate();
    let s_rel = GenSpec::uniform(n, 29).generate();
    let plan = CycloJoin::new(r, s_rel).hosts(hosts).fragments_per_host(2);
    let revolutions = (hosts * 2) as f64; // every fragment completes one

    for (backend, runner) in [
        (
            "sim",
            Box::new(|| plan.run().ok().map(|r| r.match_count())) as Box<dyn Fn() -> Option<u64>>,
        ),
        (
            "threads",
            Box::new(|| plan.run_threaded().ok().map(|r| r.match_count())),
        ),
        (
            "tcp",
            Box::new(|| plan.run_tcp().ok().map(|r| r.match_count())),
        ),
        (
            "reactor",
            Box::new(|| plan.run_reactor().ok().map(|r| r.match_count())),
        ),
    ] {
        let sample = bench(budget, &runner);
        let tput = sample.per_second(revolutions);
        report.push_entry(
            &format!("e2e_{backend}"),
            "e2e",
            sample,
            tput,
            "revolutions/s",
        );
    }
}

/// Before/after measurements of the fixed hot paths: three removed
/// copy-amplification bugs plus the writer's per-frame write syscalls.
/// Every "before" reimplements the removed code path locally; a one-time
/// equivalence assertion keeps the reimplementation honest.
fn delta_group(report: &mut Report, budget: Budget, smoke: bool) {
    // Full mode measures at 1m tuples (12 MiB of columns) so the removed
    // copies hit DRAM; at cache-resident sizes the "before" clone warms
    // lines for the pass that follows and masks its own cost.
    let n = if smoke { 16 << 10 } else { 1 << 20 };
    let params = CacheParams::paper_xeon();
    let rel = GenSpec::uniform(n, 31).generate();
    let bits = radix_bits_for(n, &params).max(4);

    // --- radix.rs: whole-relation clone seeding the first scatter pass.
    let (before, after) = bench_ab(
        budget,
        || {
            let seed = rel.clone(); // the removed pre-pass copy
            RadixPartitioned::new(&seed, bits, &params)
        },
        || RadixPartitioned::new(&rel, bits, &params),
    );
    report.deltas.push(Delta::from_samples(
        "radix_partition_input_clone",
        before,
        after,
    ));

    // --- table.rs: keys().to_vec() + payloads().to_vec() on every build.
    // `build_with_shift` still performs the old double copy for borrowed
    // callers; `build_owned` is the fix the join's build path now takes.
    // The per-iteration partition clone is setup, excluded from timing on
    // both sides.
    let partition = RadixPartitioned::new(&rel, bits, &params)
        .into_partitions()
        .into_iter()
        .max_by_key(Relation::len)
        .unwrap_or_default();
    let (before, after) = bench_ab_with_setup(
        budget,
        || partition.clone(),
        |p| ChainedTable::build_with_shift(&p, bits),
        |p| ChainedTable::build_owned(p, bits),
    );
    report.deltas.push(Delta::from_samples(
        "table_build_column_copy",
        before,
        after,
    ));

    // --- frame.rs: fresh undersized per-envelope Vec + body staging.
    let env = Envelope::new(FragmentId(3), HostId(1), 4, rel.clone());
    let old = old_encode_envelope(9, &env);
    let new = encode_envelope(9, &env).unwrap_or_default();
    assert_eq!(old, new, "the old-path reimplementation must be byte-exact");
    let mut buf = Vec::new();
    let (before, after) = bench_ab(
        budget,
        || old_encode_envelope(9, &env),
        || encode_envelope_into(9, &env, &mut buf).map(|()| buf.len()),
    );
    report
        .deltas
        .push(Delta::from_samples("envelope_encode_buffer", before, after));

    // --- tcp_backend.rs: one write syscall per frame on the writer hot
    // path. The batching writer now submits queued frames as a single
    // vectored write; the "before" is the removed loop of per-frame
    // `write_all` calls. Byte-equivalence is asserted through an
    // in-memory sink first (the vectored path is generic over `Write`),
    // then both sides are measured over a real loopback connection with
    // a drain thread on the far end, so the syscall count per batch is
    // the only difference between them. If loopback sockets are
    // unavailable the A/B degrades to the in-memory sink — still the
    // same code paths, minus the kernel boundary. Frames are kept small
    // (they are acks, heartbeats and modest envelopes on the real
    // writer) so the measured difference is the per-frame syscall, not
    // the shared memcpy of large payloads.
    let frame_tuples = if smoke { 16 } else { 64 };
    let frames: Vec<Vec<u8>> = (0..16u64)
        .map(|i| {
            let payload = GenSpec::uniform(frame_tuples, 37 + i).generate();
            let env = Envelope::new(FragmentId(i as usize), HostId(0), 4, payload);
            encode_envelope(i, &env).unwrap_or_default()
        })
        .collect();
    let mut vectored_sink = Vec::new();
    let _ = write_frames_vectored(&mut vectored_sink, &frames);
    let mut sequential_sink = Vec::new();
    for f in &frames {
        let _ = Write::write_all(&mut sequential_sink, f);
    }
    assert_eq!(
        vectored_sink, sequential_sink,
        "the vectored writer must put the same bytes on the wire"
    );
    let (before, after) =
        if let (Some(mut seq_tx), Some(mut vec_tx)) = (drained_loopback(), drained_loopback()) {
            bench_ab(
                budget,
                || {
                    for f in &frames {
                        if seq_tx.write_all(f).is_err() {
                            return false;
                        }
                    }
                    true
                },
                || write_frames_vectored(&mut vec_tx, &frames).is_ok(),
            )
        } else {
            bench_ab(
                budget,
                || {
                    let mut sink = Vec::new();
                    for f in &frames {
                        let _ = Write::write_all(&mut sink, f);
                    }
                    sink.len()
                },
                || {
                    let mut sink = Vec::new();
                    let _ = write_frames_vectored(&mut sink, &frames);
                    sink.len()
                },
            )
        };
    report.deltas.push(Delta::from_samples(
        "writer_per_frame_syscalls",
        before,
        after,
    ));
}

/// A connected loopback TCP stream whose far end is drained by a
/// detached reader thread, so writes in the benchmark above never block
/// on a full socket buffer for longer than the kernel takes to wake the
/// reader. The drain thread exits at EOF when the write end drops.
fn drained_loopback() -> Option<TcpStream> {
    let listener = TcpListener::bind("127.0.0.1:0").ok()?;
    let addr = listener.local_addr().ok()?;
    let tx = TcpStream::connect(addr).ok()?;
    let (rx, _) = listener.accept().ok()?;
    std::thread::spawn(move || {
        let mut rx = rx;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match Read::read(&mut rx, &mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
        }
    });
    Some(tx)
}

/// The envelope encoder as it was before the fix: a fresh body `Vec`
/// with a fixed small capacity hint (reallocating on every real
/// payload), then a second fresh `Vec` for the frame, copying the
/// whole body behind the header. Kept in step with the current wire
/// layout (the query-id tail field included) so the byte-exactness
/// assertion pins the *allocation* difference, not the format.
fn old_encode_envelope(tid: u64, env: &Envelope<Relation>) -> Vec<u8> {
    let mut body = Vec::with_capacity(52 + 64);
    body.extend_from_slice(&tid.to_le_bytes());
    body.extend_from_slice(&(env.id.0 as u64).to_le_bytes());
    body.extend_from_slice(&(env.origin.0 as u32).to_le_bytes());
    body.extend_from_slice(&(env.hops_remaining as u32).to_le_bytes());
    body.extend_from_slice(&env.seq.to_le_bytes());
    body.extend_from_slice(&env.checksum.to_le_bytes());
    body.extend_from_slice(&env.visited.to_le_bytes());
    body.extend_from_slice(&env.query.to_le_bytes());
    env.payload.encode_payload(&mut body);
    let mut out = Vec::with_capacity(5 + body.len());
    out.push(KIND_ENVELOPE);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole suite in smoke mode: every group present, every number
    /// finite and positive, deltas well-formed. This is the same
    /// configuration `scripts/tier1.sh` gates on.
    #[test]
    fn smoke_suite_produces_a_complete_report() {
        let report = run_suite(true);
        assert!(report.smoke);
        for group in ["kernel", "codec", "e2e"] {
            assert!(
                report.entries.iter().any(|e| e.group == group),
                "missing group {group}"
            );
        }
        for backend in ["sim", "threads", "tcp", "reactor"] {
            assert!(
                report
                    .entries
                    .iter()
                    .any(|e| e.name == format!("e2e_{backend}")),
                "missing backend {backend}"
            );
        }
        for e in &report.entries {
            assert!(e.iters > 0, "{}: zero iterations", e.name);
            assert!(
                e.ns_per_iter.is_finite() && e.ns_per_iter > 0.0,
                "{}: bad ns_per_iter",
                e.name
            );
            assert!(
                e.throughput.is_finite() && e.throughput > 0.0,
                "{}: bad throughput",
                e.name
            );
        }
        assert_eq!(report.deltas.len(), 4, "one delta per fixed hot path");
        for d in &report.deltas {
            assert!(d.before_ns > 0.0 && d.after_ns > 0.0 && d.speedup > 0.0);
            let ratio = d.before_ns / d.after_ns;
            assert!(
                (d.speedup - ratio).abs() < 1e-6,
                "{}: speedup must equal before/after",
                d.name
            );
        }
    }

    #[test]
    fn size_tags() {
        assert_eq!(size_tag(4 << 10), "4k");
        assert_eq!(size_tag(256 << 10), "256k");
        assert_eq!(size_tag(1 << 20), "1m");
    }
}
