//! `run` and `trace`: every workload, each round a child process of its
//! own, rounds interleaved round-robin across the workloads so that
//! machine drift falls on all of them alike.

use std::path::Path;
use std::process::Command;

use crate::json::{self, Json};
use crate::metrics::{end_to_end, show, LayerDef, END_TO_END, PER_LAYER};
use crate::round::{undisturbed, UNDISTURBED_STEAL};
use crate::stats::{median, percentile, quartile_spread, sorted, supports_percentile};
use crate::workloads::{Shape, Spec, SPECS};

/// Marks a result file this version can compare.
pub const SCHEMA: &str = "ringbench-result-2";

/// The protocol of `run` and `trace`. It is part of the benchmark, not an
/// argument: two result files are comparable because both were made this
/// way. `--smoke` (tests only) switches to the second set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Protocol {
    /// Rounds per workload in `run`.
    pub rounds: usize,
    /// Timed seconds per `run` round.
    pub round_s: f64,
    /// Measured seconds of each traced round in `trace`.
    pub trace_s: f64,
    /// One eighth of the input size.
    pub smoke: bool,
}

impl Protocol {
    /// 12 rounds of 2 s per workload, 10 s traced rounds; under `--smoke`
    /// one round of 0.2 s at one eighth of the input size.
    pub const fn of(smoke: bool) -> Protocol {
        if smoke {
            Protocol {
                rounds: 1,
                round_s: 0.2,
                trace_s: 0.2,
                smoke,
            }
        } else {
            Protocol {
                rounds: 12,
                round_s: 2.0,
                trace_s: 10.0,
                smoke,
            }
        }
    }
}

/// The band `trace.stage_sum_ratio` must stay in on a `CycloJoin`
/// workload: the stages of the staged replay sum to the untraced run.
pub const STAGE_SUM_RANGE: std::ops::RangeInclusive<f64> = 0.90..=1.10;

/// One child's result line, parsed.
#[derive(Debug, Clone)]
pub struct ChildRound {
    /// Runs attempted in the round.
    pub attempted: f64,
    /// Runs failed in the round.
    pub failed: f64,
    /// `(metric, value)` as printed.
    pub metrics: Vec<(String, f64)>,
    /// Wall time of every timed run (empty for `--trace 1`).
    pub samples: Vec<f64>,
    /// Virtual-time duration of a run, where there is one.
    pub virtual_s: Option<f64>,
    /// Share of the machine's CPU time the hypervisor took while the
    /// round's slices ran (zero for `--trace 1`).
    pub steal: f64,
}

impl ChildRound {
    /// The value printed under `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Parses a round's standard output: the result on the last line and,
/// before it, an optional `detail` line.
///
/// # Errors
///
/// Output that does not end in a result line.
pub fn parse_round(stdout: &str) -> Result<ChildRound, String> {
    let mut lines = stdout.lines().rev();
    let last = lines.next().ok_or("the round printed nothing")?;
    let result = json::parse(last).map_err(|e| format!("result line: {e}"))?;
    let count = |key: &str| {
        json::get(&result, key)
            .and_then(json::number)
            .ok_or(format!("result line has no {key}"))
    };
    let Some(Json::Object(printed)) = json::get(&result, "metrics") else {
        return Err("result line has no metrics".into());
    };
    let metrics = printed
        .iter()
        .map(|(name, m)| {
            let value = json::get(m, "value").and_then(json::number);
            Ok((name.clone(), value.ok_or(format!("{name} has no value"))?))
        })
        .collect::<Result<_, String>>()?;
    let detail = lines
        .find_map(|l| l.strip_prefix("detail "))
        .and_then(|d| json::parse(d).ok());
    let detail_of = |key: &str| detail.as_ref().and_then(|d| json::get(d, key));
    Ok(ChildRound {
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
        samples: detail_of("samples_s")
            .and_then(json::numbers)
            .unwrap_or_default(),
        virtual_s: detail_of("virtual_s").and_then(json::number),
        steal: detail_of("steal").and_then(json::number).unwrap_or(0.0),
    })
}

/// Runs one round of `workload` as a child process and waits for it.
fn child_round(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<ChildRound, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("{workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload}: round exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    parse_round(&String::from_utf8_lossy(&out.stdout)).map_err(|e| format!("{workload}: {e}"))
}

/// One aggregated metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// The metric's name.
    pub name: &'static str,
    /// The reported value.
    pub value: f64,
    /// The per-round values it was taken from.
    pub rounds: Vec<f64>,
}

/// Folds a workload's rounds into the ten end-to-end metrics. Rounds
/// count as a round's slices do ([`undisturbed`] by the hypervisor).
/// Over those: the median of each metric, except `run_s_p90` (p90 of
/// every run of every round pooled; its per-round values are each
/// round's own p90) and `peak_rss_mib` (the largest round). Over all
/// rounds: `failed_ratio` (failed over attempted) and `virtual_s` (the
/// same in every round).
pub fn aggregate(rounds: &[ChildRound]) -> Vec<Aggregate> {
    let steal: Vec<f64> = rounds.iter().map(|r| r.steal).collect();
    let counted: Vec<&ChildRound> = undisturbed(&steal).iter().map(|&i| &rounds[i]).collect();
    let pooled: Vec<f64> = counted
        .iter()
        .flat_map(|r| r.samples.iter().copied())
        .collect();
    let mut out: Vec<Aggregate> = Vec::new();
    for def in &END_TO_END {
        let per_round: Vec<f64> = counted.iter().filter_map(|r| r.metric(def.name)).collect();
        if per_round.is_empty() {
            continue;
        }
        let value = match def.name {
            "peak_rss_mib" => per_round.iter().copied().fold(0.0, f64::max),
            _ => median(&per_round),
        };
        out.push(Aggregate {
            name: def.name,
            value,
            rounds: per_round,
        });
    }
    if !pooled.is_empty() {
        out.push(Aggregate {
            name: "run_s_p90",
            value: percentile(&sorted(&pooled), 90.0),
            rounds: counted
                .iter()
                .filter(|r| !r.samples.is_empty())
                .map(|r| percentile(&sorted(&r.samples), 90.0))
                .collect(),
        });
    }
    let attempted: f64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: f64 = rounds.iter().map(|r| r.failed).sum();
    out.push(Aggregate {
        name: "failed_ratio",
        value: if attempted > 0.0 {
            failed / attempted
        } else {
            1.0
        },
        rounds: rounds
            .iter()
            .map(|r| r.failed / r.attempted.max(1.0))
            .collect(),
    });
    let virtuals: Vec<f64> = rounds.iter().filter_map(|r| r.virtual_s).collect();
    if let Some(&last) = virtuals.last() {
        out.push(Aggregate {
            name: "virtual_s",
            value: last,
            rounds: virtuals,
        });
    }
    out
}

fn workload_json(rounds: &[ChildRound]) -> String {
    let steal: Vec<f64> = rounds.iter().map(|r| r.steal).collect();
    let counted = undisturbed(&steal);
    let samples: usize = counted.iter().map(|&i| rounds[i].samples.len()).sum();
    let metrics = aggregate(rounds).into_iter().filter_map(|a| {
        let def = end_to_end(a.name)?;
        Some((
            a.name,
            json::object([
                ("value", json::num(a.value)),
                ("unit", json::text(def.unit)),
                ("better", json::text(def.better.as_str())),
                ("bound", json::num(def.bound)),
                ("rounds", json::nums(&a.rounds)),
            ]),
        ))
    });
    json::object([
        ("samples", json::num(samples as f64)),
        ("rounds_counted", json::num(counted.len() as f64)),
        ("steal", json::nums(&steal)),
        (
            "attempted",
            json::num(rounds.iter().map(|r| r.attempted).sum()),
        ),
        ("failed", json::num(rounds.iter().map(|r| r.failed).sum())),
        ("metrics", json::object(metrics)),
    ])
}

/// The result file of a whole `run`, one line.
pub fn result_json(protocol: Protocol, seed: u64, rounds: &[(&Spec, Vec<ChildRound>)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    json::object([
        ("schema", json::text(SCHEMA)),
        ("seed", json::num(seed as f64)),
        ("rounds", json::num(protocol.rounds as f64)),
        ("round_s", json::num(protocol.round_s)),
        (
            "smoke",
            if protocol.smoke { "true" } else { "false" }.to_string(),
        ),
        ("nproc", json::num(nproc as f64)),
        (
            "workloads",
            json::object(rounds.iter().map(|(spec, r)| (spec.name, workload_json(r)))),
        ),
    ])
}

/// The table `run` prints: every end-to-end metric of every workload by
/// name, with its unit, and the round-to-round spread beside it.
pub fn render_result(result: &Json) -> String {
    let mut out = String::new();
    for spec in &SPECS {
        let Some(w) = json::at(result, &["workloads", spec.name]) else {
            continue;
        };
        let count = |key: &str| json::get(w, key).and_then(json::number).unwrap_or(0.0) as usize;
        let samples = count("samples");
        out.push_str(&format!(
            "\n{}  ({samples} timed runs in the {} rounds that count)\n",
            spec.name,
            count("rounds_counted")
        ));
        let Some(Json::Object(metrics)) = json::get(w, "metrics") else {
            continue;
        };
        // In the tables' order, not the file's: the parser sorts members.
        for (def, m) in END_TO_END
            .iter()
            .chain(&crate::metrics::REPORTED)
            .filter_map(|d| Some((d, metrics.get(d.name)?)))
        {
            let value = json::get(m, "value")
                .and_then(json::number)
                .unwrap_or(f64::NAN);
            let rounds = json::get(m, "rounds")
                .and_then(json::numbers)
                .unwrap_or_default();
            let mut notes = Vec::new();
            if def.name == "run_s_p90" {
                notes.push(format!("n={samples}"));
                if !supports_percentile(samples, 90.0) {
                    notes.push("fewer than ten runs beyond it".into());
                }
            }
            if let Some(spread) = quartile_spread(&rounds) {
                notes.push(format!("round spread {:.1}%", spread * 100.0));
            }
            out.push_str(&format!(
                "  {:<18} {:>14} {:<9} {}\n",
                def.name,
                show(value),
                def.unit,
                notes.join(", ")
            ));
        }
    }
    out
}

/// `run`: every workload, [`Protocol::rounds`] child rounds each,
/// interleaved; writes the result file to `out`. Returns whether every
/// run of every round was correct.
///
/// # Errors
///
/// A child that cannot be started or prints no result, or a result file
/// that cannot be written.
pub fn run(protocol: Protocol, seed: u64, out: &Path) -> Result<bool, String> {
    let mut rounds: Vec<(&Spec, Vec<ChildRound>)> = SPECS.iter().map(|s| (s, Vec::new())).collect();
    for round in 0..protocol.rounds {
        for (spec, done) in &mut rounds {
            let name = spec.name;
            eprintln!("round {}/{} {name}", round + 1, protocol.rounds);
            done.push(child_round(
                name,
                seed,
                protocol.round_s,
                false,
                protocol.smoke,
            )?);
        }
    }
    let result = result_json(protocol, seed, &rounds);
    print!("{}", render_result(&json::parse(&result)?));
    json::write_file(out, &json::indented(&result))?;
    println!("\nresult file: {}", out.display());
    Ok(rounds
        .iter()
        .all(|(_, r)| r.iter().all(|c| c.failed == 0.0)))
}

/// Whether the stages of a traced round of `spec` sum to the untraced
/// run. Always true on the tenants workload, where the ratio is traced ÷
/// untraced of the same call and says nothing about stages.
pub fn stages_sum(spec: &Spec, round: &ChildRound) -> bool {
    let in_range = round
        .metric("trace.stage_sum_ratio")
        .is_some_and(|ratio| STAGE_SUM_RANGE.contains(&ratio));
    in_range || !matches!(spec.shape, Shape::Cyclo { .. })
}

/// How often `trace` makes a workload's traced round before it gives up
/// on one the hypervisor left alone.
const TRACE_ATTEMPTS: usize = 3;

/// `trace`: one traced round per workload; prints every per-layer
/// metric with the end-to-end metric it should move. The metrics from
/// direct calls are measured once per round and do not depend on the
/// workload, so they print as the median over the rounds with the range;
/// the `trace.*` metrics print per workload.
///
/// Returns whether every run was correct and every workload's
/// [`stages_sum`]. That is a statement about timings, so it is not judged
/// under `--smoke` (a stage is a few hundred microseconds there, and a
/// round makes three runs), and not on a staged run the hypervisor
/// disturbed ([`UNDISTURBED_STEAL`]): such a round is made again, up to
/// [`TRACE_ATTEMPTS`] times, and the last one is printed with a note.
///
/// # Errors
///
/// A child that cannot be started or prints no result.
pub fn trace(protocol: Protocol, seed: u64) -> Result<bool, String> {
    let mut rounds = Vec::new();
    for spec in &SPECS {
        let mut attempt = 1;
        let round = loop {
            eprintln!("traced round {} (attempt {attempt})", spec.name);
            let round = child_round(spec.name, seed, protocol.trace_s, true, protocol.smoke)?;
            let settled = protocol.smoke || round.steal <= UNDISTURBED_STEAL;
            if settled || attempt == TRACE_ATTEMPTS {
                break round;
            }
            attempt += 1;
        };
        rounds.push((spec, round));
    }
    println!(
        "per-layer metrics from direct calls (median of {} rounds, range) -> what each should move",
        rounds.len()
    );
    let staged = |d: &&LayerDef| d.name.starts_with("trace.");
    for def in PER_LAYER.iter().filter(|d| !staged(d)) {
        let values: Vec<f64> = rounds
            .iter()
            .filter_map(|(_, r)| r.metric(def.name))
            .collect();
        let v = sorted(&values);
        if let (Some(lo), Some(hi)) = (v.first(), v.last()) {
            println!(
                "  {:<40} {:>12} {:<9} [{} .. {}] -> {}",
                def.name,
                show(median(&v)),
                def.unit,
                show(*lo),
                show(*hi),
                def.moves
            );
        }
    }
    let mut ok = true;
    for (spec, round) in &rounds {
        println!("\n{}: staged traced run", spec.name);
        for def in PER_LAYER.iter().filter(staged) {
            if let Some(value) = round.metric(def.name) {
                println!(
                    "  {:<28} {:>12} {:<6} -> {}",
                    def.name,
                    show(value),
                    def.unit,
                    def.moves
                );
            }
        }
        if round.failed > 0.0 {
            ok = false;
            println!("  FAILED: {} of {} runs", round.failed, round.attempted);
        }
        if protocol.smoke || stages_sum(spec, round) {
            continue;
        }
        if round.steal > UNDISTURBED_STEAL {
            println!(
                "  NOT JUDGED: trace.stage_sum_ratio is outside {STAGE_SUM_RANGE:?}, but the \
                 hypervisor took {:.1}% of the CPU time in the last of {TRACE_ATTEMPTS} attempts",
                round.steal * 100.0
            );
        } else {
            ok = false;
            println!("  FAILED: trace.stage_sum_ratio is outside {STAGE_SUM_RANGE:?}");
        }
    }
    println!("\nspan files: {}", crate::staged::results_dir().display());
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(p50: f64, rss: f64, samples: &[f64]) -> ChildRound {
        ChildRound {
            attempted: samples.len() as f64,
            failed: 0.0,
            metrics: vec![("run_s_p50".into(), p50), ("peak_rss_mib".into(), rss)],
            samples: samples.to_vec(),
            virtual_s: None,
            steal: 0.0,
        }
    }

    #[test]
    fn rounds_aggregate_to_median_of_medians_pooled_p90_and_largest_rss() {
        let fast: Vec<f64> = (1..=10).map(f64::from).collect();
        let slow: Vec<f64> = (11..=20).map(f64::from).collect();
        let rounds = [
            round(5.5, 40.0, &fast),
            round(15.5, 44.0, &slow),
            round(7.0, 42.0, &[]),
            round(6.5, 41.0, &[]),
        ];
        let agg = aggregate(&rounds);
        let get = |name: &str| agg.iter().find(|a| a.name == name).expect(name);
        assert_eq!(get("run_s_p50").value, 6.75, "median of the round medians");
        assert_eq!(get("run_s_p50").rounds, [5.5, 15.5, 7.0, 6.5]);
        assert_eq!(get("run_s_p90").value, 18.0, "p90 of the 20 pooled runs");
        assert_eq!(get("run_s_p90").rounds, [9.0, 19.0], "each round's own p90");
        assert_eq!(get("peak_rss_mib").value, 44.0);
        assert_eq!(get("failed_ratio").value, 0.0);
        assert!(agg.iter().all(|a| a.name != "virtual_s"), "no sim round");
        assert!(agg.iter().all(|a| a.name != "setup_s"), "never measured");
    }

    #[test]
    fn rounds_the_hypervisor_disturbed_do_not_count() {
        let mut rounds: Vec<ChildRound> = [1.0, 9.0, 1.2, 1.1, 8.0]
            .iter()
            .map(|&p50| round(p50, 1.0, &[p50]))
            .collect();
        rounds[1].steal = 0.30;
        rounds[4].steal = 0.12;
        let agg = aggregate(&rounds);
        let get = |name: &str| agg.iter().find(|a| a.name == name).expect(name);
        assert_eq!(get("run_s_p50").rounds, [1.0, 1.2, 1.1]);
        assert_eq!(get("run_s_p50").value, 1.1);
        assert_eq!(get("run_s_p90").value, 1.2, "pooled over those that count");
        assert_eq!(get("failed_ratio").rounds.len(), 5, "failures always count");
    }

    #[test]
    fn failed_runs_and_virtual_time_reach_the_aggregate() {
        let mut a = round(1.0, 1.0, &[1.0, 1.0]);
        a.failed = 1.0;
        a.virtual_s = Some(0.25);
        a.metrics.push(("tuples_per_s".into(), 30.0));
        let mut b = round(1.0, 1.0, &[1.0, 1.0]);
        b.virtual_s = Some(0.25);
        b.metrics.push(("tuples_per_s".into(), 50.0));
        let agg = aggregate(&[a, b]);
        let get = |name: &str| agg.iter().find(|a| a.name == name).expect(name);
        assert_eq!(get("tuples_per_s").value, 40.0, "a median like the rest");
        assert_eq!(get("failed_ratio").value, 0.25);
        assert_eq!(get("virtual_s").value, 0.25);
    }

    #[test]
    fn a_round_line_and_a_result_file_round_trip() {
        let stdout = "noise\ndetail {\"samples_s\":[0.5,0.25],\"virtual_s\":0.125}\n\
            {\"correct\":true,\"attempted\":4,\"failed\":0,\"metrics\":\
            {\"run_s_p50\":{\"value\":0.375,\"unit\":\"s\"}}}\n";
        let parsed = parse_round(stdout).expect("a well-formed round");
        assert_eq!(parsed.attempted, 4.0);
        assert_eq!(parsed.samples, [0.5, 0.25]);
        assert_eq!(parsed.virtual_s, Some(0.125));
        assert_eq!(parsed.metric("run_s_p50"), Some(0.375));
        assert!(parse_round("no result here").is_err());

        let spec = &SPECS[0];
        let file = result_json(Protocol::of(true), 9, &[(spec, vec![parsed])]);
        for encoding in [file.clone(), json::indented(&file)] {
            let back = json::parse(&encoding).expect("the file parses");
            assert_eq!(
                json::get(&back, "schema").and_then(json::string),
                Some(SCHEMA)
            );
            let m = json::at(&back, &["workloads", spec.name, "metrics", "run_s_p50"])
                .expect("the metric survives");
            assert_eq!(json::get(m, "value").and_then(json::number), Some(0.375));
            let bound = end_to_end("run_s_p50").map(|d| d.bound);
            assert_eq!(json::get(m, "bound").and_then(json::number), bound);
            assert_eq!(
                json::get(m, "rounds").and_then(json::numbers),
                Some(vec![0.375])
            );
            assert!(render_result(&back).contains("run_s_p50"));
        }
    }

    #[test]
    fn stages_must_sum_to_the_run_where_there_are_stages() {
        let traced = |ratio: f64| ChildRound {
            attempted: 9.0,
            failed: 0.0,
            metrics: vec![("trace.stage_sum_ratio".into(), ratio)],
            samples: Vec::new(),
            virtual_s: None,
            steal: 0.0,
        };
        let cyclo = &SPECS[0];
        let tenants = SPECS.iter().find(|s| s.name == "tenants_lossy_sim");
        let tenants = tenants.expect("the tenants workload");
        assert!(stages_sum(cyclo, &traced(1.02)));
        assert!(stages_sum(cyclo, &traced(0.90)));
        assert!(!stages_sum(cyclo, &traced(0.89)));
        assert!(!stages_sum(cyclo, &traced(1.11)));
        assert!(stages_sum(tenants, &traced(1.3)), "no stages");
    }
}
