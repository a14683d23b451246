//! The staged traced run: what `core::exec` does for one `CycloJoin`,
//! replayed through public calls only, with a span recorded at every
//! layer boundary. The spans live in the benchmark; spans inside the
//! program are a later change.
//!
//! Stages, in `exec`'s order: `Placement::new`, `prepare_fragment` per
//! rotating fragment, `setup_stationary` per host, then the driver's
//! `run` with a visit closure that calls `Algorithm::join`. Their sum is
//! checked against the untraced `run_*()` call (`trace.stage_sum_ratio`):
//! the parts must sum to the whole.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use cyclo_join::{Algorithm, HostId, Placement, RotateSide};
use mem_joins::{JoinCollector, PreparedFragment};
use relation::Relation;

use crate::json;
use crate::layers::{alternate, Budget};
use crate::metrics::Measured;
use crate::round::Tally;
use crate::stats::median;
use crate::workloads::{check, ring_config, Prepared, RunInfo, Shape, Spec};

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in its recorder.
    pub id: usize,
    /// The span that caused it.
    pub parent: Option<usize>,
    /// Which run of the workload it belongs to; spans of one run share it.
    pub run: usize,
    /// The stage, or `join` for one visit.
    pub name: &'static str,
    /// The ring host a visit ran on.
    pub host: Option<usize>,
    /// Nanoseconds from the recorder's start.
    pub start_ns: u64,
    /// Nanoseconds from the recorder's start.
    pub end_ns: u64,
}

impl Span {
    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Spans kept in memory until the round ends.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id. Visit closures call
    /// this from the ring's own threads; a panic in one of them must not
    /// take the other spans along, hence the poison recovery.
    fn record(
        &self,
        parent: Option<usize>,
        run: usize,
        name: &'static str,
        host: Option<usize>,
        start_ns: u64,
    ) -> usize {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            run,
            name,
            host,
            start_ns,
            end_ns,
        });
        id
    }

    /// Times `work` as a child of `parent`.
    fn stage<T>(
        &self,
        parent: usize,
        run: usize,
        name: &'static str,
        work: impl FnOnce() -> T,
    ) -> T {
        let start = self.now_ns();
        let out = work();
        self.record(Some(parent), run, name, None, start);
        out
    }

    /// Starts a span that encloses work still to come, so that the work
    /// can name it as its parent; [`Recorder::close`] ends it.
    fn open(&self, parent: Option<usize>, run: usize, name: &'static str) -> usize {
        let start = self.now_ns();
        self.record(parent, run, name, None, start)
    }

    fn close(&self, id: usize) {
        let end = self.now_ns();
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(span) = spans.get_mut(id) {
            span.end_ns = end;
        }
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

/// One replay of `exec` for a `CycloJoin` workload, recorded as run
/// `run`. Returns the ring's forwarded bytes and completed fragments.
///
/// # Errors
///
/// The driver's error, or a result that differs from the reference.
fn staged_run(
    spec: &Spec,
    r: &Relation,
    s: &Relation,
    want: &cyclo_join::Reference,
    rec: &Recorder,
    run: usize,
) -> Result<(u64, usize), String> {
    let Shape::Cyclo {
        hosts,
        fragments_per_host,
        backend,
        ..
    } = spec.shape
    else {
        return Err(format!("{} has no stage functions", spec.name));
    };
    let config = ring_config(hosts);
    let threads = config.join_threads;
    let predicate = spec.predicate();
    let algorithm = Algorithm::for_predicate(&predicate);
    let root = rec.open(None, run, "run");

    let placement = rec.stage(root, run, "placement", || {
        Placement::new(r, s, hosts, fragments_per_host, RotateSide::Auto)
    });
    // Equal sizes never swap sides, so the predicate needs no mirroring.
    assert!(!placement.swapped, "workload sides are the same size");
    let bits = algorithm.ring_radix_bits(placement.max_stationary_tuples().max(1));
    let fragments: Vec<Vec<PreparedFragment>> = rec.stage(root, run, "prepare", || {
        placement
            .rotating
            .iter()
            .map(|local| {
                local
                    .iter()
                    .map(|f| algorithm.prepare_fragment(f, bits, threads))
                    .collect()
            })
            .collect()
    });
    let states: Vec<_> = rec.stage(root, run, "stationary_setup", || {
        placement
            .stationary
            .iter()
            .map(|part| algorithm.setup_stationary(part, bits, threads))
            .collect()
    });

    let collectors: Vec<Mutex<JoinCollector>> = (0..hosts)
        .map(|_| Mutex::new(JoinCollector::aggregating()))
        .collect();
    let ring = rec.open(Some(root), run, "ring_run");
    let visit = |host: HostId, fragment: &PreparedFragment| {
        let start = rec.now_ns();
        let mut out = collectors[host.0].lock().unwrap_or_else(|e| e.into_inner());
        algorithm.join(&states[host.0], fragment, &predicate, threads, &mut out);
        drop(out);
        rec.record(Some(ring), run, "join", Some(host.0), start);
    };
    let outcome = backend.run_ring(&config, fragments, visit);
    rec.close(ring);
    rec.close(root);
    let (metrics, _) = outcome.map_err(|e| e.to_string())?;

    let (mut count, mut checksum) = (0, relation::Checksum::new());
    for collector in collectors {
        let c = collector.into_inner().unwrap_or_else(|e| e.into_inner());
        count += c.count();
        checksum = checksum.combine(&c.checksum());
    }
    check(want, count, checksum)?;
    Ok((metrics.total_bytes_forwarded(), metrics.fragments_completed))
}

/// Seconds of every span called `name`, summed per run.
fn per_run(spans: &[Span], name: &str) -> Vec<f64> {
    let runs = spans.iter().map(|s| s.run + 1).max().unwrap_or(0);
    let mut sums = vec![0.0; runs];
    for span in spans.iter().filter(|s| s.name == name) {
        sums[span.run] += span.seconds();
    }
    sums
}

/// The four stages of [`staged_run`], whose seconds sum to a run.
const STAGES: [&str; 4] = ["placement", "prepare", "stationary_setup", "ring_run"];

/// Median over runs of each stage's seconds, with the per-host join
/// spans folded into a sum and the slowest host.
fn stage_medians(spans: &[Span], hosts: usize) -> Measured {
    let runs = spans.iter().map(|s| s.run + 1).max().unwrap_or(0);
    let busiest: Vec<f64> = (0..runs)
        .map(|run| {
            (0..hosts)
                .map(|h| {
                    spans
                        .iter()
                        .filter(|s| s.run == run && s.name == "join" && s.host == Some(h))
                        .map(Span::seconds)
                        .sum::<f64>()
                })
                .fold(0.0, f64::max)
        })
        .collect();
    let mut m = Measured::default();
    m.set("trace.placement_s", median(&per_run(spans, "placement")));
    m.set("trace.prepare_s", median(&per_run(spans, "prepare")));
    m.set(
        "trace.stationary_setup_s",
        median(&per_run(spans, "stationary_setup")),
    );
    m.set("trace.ring_run_s", median(&per_run(spans, "ring_run")));
    m.set("trace.join_busy_sum_s", median(&per_run(spans, "join")));
    m.set("trace.join_busy_max_s", median(&busiest));
    m
}

/// The `trace.*` metrics of one workload, its spans, and the runs made
/// and failed (a staged run that errs or differs from the reference is a
/// failed run like any other).
///
/// Staged and untraced runs alternate, and `stage_sum_ratio` and
/// `overhead_ratio` are medians of the quotient of each staged run and
/// the untraced run that followed it, which saw the same machine.
pub fn measure(spec: &Spec, seed: u64, budget: Budget) -> (Measured, Vec<Span>, Tally) {
    let rec = Recorder::default();
    let inputs = spec.generate(seed, budget.smoke);
    // Two tallies because the two closures of `alternate` each need one.
    let (mut tally, mut traced_tally) = (Tally::default(), Tally::default());
    let m = match spec.shape {
        Shape::Cyclo {
            hosts,
            fragments_per_host,
            ..
        } => {
            let (r, s) = inputs[0].clone();
            let prepared = Prepared::new(spec, seed, inputs);
            let want = cyclo_join::reference_join(&r, &s, &spec.predicate());
            let mut run = 0;
            let mut last = (0, 0);
            let pairs = alternate(
                budget.units(10),
                || {
                    let outcome = staged_run(spec, &r, &s, &want, &rec, run);
                    last = traced_tally.note(outcome).unwrap_or(last);
                    run += 1;
                },
                || {
                    tally.run(&prepared);
                },
            );
            let spans = rec.spans();
            let mut m = stage_medians(&spans, hosts);
            let envelopes = (hosts * fragments_per_host) as f64;
            let get = |name: &str| m.get(name).unwrap_or(0.0);
            let mut stage_sums = vec![0.0; pairs.a.len()];
            for stage in STAGES {
                for (sum, seconds) in stage_sums.iter_mut().zip(per_run(&spans, stage)) {
                    *sum += seconds;
                }
            }
            let nonjoin = get("trace.ring_run_s") - get("trace.join_busy_max_s");
            m.set("trace.ring_nonjoin_s", nonjoin);
            m.set("trace.visits", envelopes * hosts as f64);
            m.set("trace.hops", envelopes * (hosts - 1) as f64);
            m.set("trace.bytes_forwarded", last.0 as f64);
            m.set("trace.stage_sum_ratio", pairs.ratio_to_b(&stage_sums));
            m.set("trace.overhead_ratio", pairs.ratio_to_b(&pairs.a));
            m.set("trace.retransmits", 0.0);
            m.set("trace.fragments_completed", last.1 as f64);
            m.set("trace.virtual_s", 0.0);
            m
        }
        Shape::Tenants { hosts, .. } => {
            // `multiplex` exposes no stage functions: one whole-call span
            // a run, plus the report's counters.
            let prepared = Prepared::new(spec, seed, inputs);
            let mut info = RunInfo::default();
            let mut run = 0;
            let pairs = alternate(
                budget.units(10),
                || {
                    let root = rec.open(None, run, "run");
                    let outcome = prepared.run();
                    rec.close(root);
                    info = traced_tally.note(outcome).unwrap_or(info);
                    run += 1;
                },
                || {
                    tally.run(&prepared);
                },
            );
            let traced = median(&pairs.a);
            let mut m = Measured::default();
            for name in [
                "trace.placement_s",
                "trace.prepare_s",
                "trace.stationary_setup_s",
                "trace.join_busy_sum_s",
                "trace.join_busy_max_s",
            ] {
                m.set(name, 0.0);
            }
            m.set("trace.visits", info.visits as f64);
            m.set(
                "trace.hops",
                (info.fragments_completed * (hosts - 1)) as f64,
            );
            m.set("trace.bytes_forwarded", info.bytes_forwarded as f64);
            m.set("trace.ring_run_s", traced);
            m.set("trace.ring_nonjoin_s", traced);
            m.set("trace.stage_sum_ratio", pairs.ratio_to_b(&pairs.a));
            m.set("trace.overhead_ratio", pairs.ratio_to_b(&pairs.a));
            m.set("trace.retransmits", info.retransmits as f64);
            m.set("trace.fragments_completed", info.fragments_completed as f64);
            m.set("trace.virtual_s", info.virtual_s.unwrap_or(0.0));
            m
        }
    };
    tally.attempted += traced_tally.attempted;
    tally.failed += traced_tally.failed;
    (m, rec.spans(), tally)
}

/// Where span files go: `results/` beside this package's manifest.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Span files hold the first so many runs of a round: smallfrag records
/// 2 048 visit spans a run.
const FILED_RUNS: usize = 12;

/// Writes the spans of the first [`FILED_RUNS`] runs to
/// `results/trace_<workload>.json`.
///
/// # Errors
///
/// The directory or file cannot be written.
pub fn write_spans(workload: &str, seed: u64, spans: &[Span]) -> Result<PathBuf, String> {
    let path = results_dir().join(format!("trace_{workload}.json"));
    let doc = json::object([
        ("workload", json::text(workload)),
        ("seed", json::num(seed as f64)),
        (
            "spans",
            json::list(spans.iter().filter(|s| s.run < FILED_RUNS).map(span_json)),
        ),
    ]);
    json::write_file(&path, &doc)?;
    Ok(path)
}

fn span_json(span: &Span) -> String {
    let index = |i: Option<usize>| i.map_or("null".to_string(), |i| json::num(i as f64));
    json::object([
        ("id", json::num(span.id as f64)),
        ("parent", index(span.parent)),
        ("run", json::num(span.run as f64)),
        ("name", json::text(span.name)),
        ("host", index(span.host)),
        ("start_ns", json::num(span.start_ns as f64)),
        ("end_ns", json::num(span.end_ns as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn a_staged_run_nests_its_spans_and_matches_the_reference() {
        let spec = workloads::spec("band_sortmerge_threads").expect("a known workload");
        let (r, s) = spec.generate(3, true).pop().expect("one pair");
        let want = cyclo_join::reference_join(&r, &s, &spec.predicate());
        let rec = Recorder::default();
        staged_run(spec, &r, &s, &want, &rec, 0).expect("the replay verifies");
        let spans = rec.spans();
        let by_name = |name: &str| spans.iter().filter(|s| s.name == name).count();
        assert_eq!(by_name("run"), 1);
        for stage in ["placement", "prepare", "stationary_setup", "ring_run"] {
            assert_eq!(by_name(stage), 1, "{stage}");
        }
        assert_eq!(
            by_name("join"),
            4 * 4 * 4,
            "every host visits every fragment"
        );
        let root = spans.iter().find(|s| s.name == "run").expect("a root");
        let ring = spans.iter().find(|s| s.name == "ring_run").expect("a ring");
        assert_eq!(ring.parent, Some(root.id));
        for s in spans.iter().filter(|s| s.name == "join") {
            assert_eq!(s.parent, Some(ring.id));
            assert!(s.start_ns >= ring.start_ns && s.end_ns <= ring.end_ns);
        }
        let m = stage_medians(&spans, 4);
        let sum = m.get("trace.join_busy_sum_s").expect("set");
        let max = m.get("trace.join_busy_max_s").expect("set");
        assert!(max > 0.0 && max <= sum);
    }
}
