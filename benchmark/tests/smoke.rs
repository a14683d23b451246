//! `--smoke` end to end: one 0.2 s round per workload at one eighth of the
//! input size, through the real binary, checked against `../BENCHMARK.json`
//! name for name.

use std::path::Path;
use std::process::Command;

use ringbench::json::{self, Json};
use ringbench::metrics::{Better, END_TO_END, PER_LAYER, REPORTED};
use ringbench::suite::parse_round;
use ringbench::workloads::SPECS;

fn contract() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repo root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// The entries of `contract[section]`, each as (name, unit, better, bound).
fn listed(contract: &Json, section: &str) -> Vec<(String, String, Option<Better>, Option<f64>)> {
    let field = |e: &Json, k: &str| json::get(e, k).and_then(json::string).map(String::from);
    json::get(contract, section)
        .and_then(json::items)
        .expect(section)
        .iter()
        .map(|e| {
            (
                field(e, "name").expect("a name"),
                field(e, "unit").unwrap_or_default(),
                field(e, "better").and_then(|b| Better::parse(&b)),
                json::get(e, "bound").and_then(json::number),
            )
        })
        .collect()
}

fn names(contract: &Json, section: &str) -> Vec<String> {
    listed(contract, section).into_iter().map(|e| e.0).collect()
}

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort();
    v
}

/// Runs the binary and returns its standard output; the run must succeed.
fn ringbench(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ringbench"))
        .args(args)
        .output()
        .expect("the binary starts");
    assert!(
        out.status.success(),
        "ringbench {args:?} failed: {}\n{}",
        String::from_utf8_lossy(&out.stderr),
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

#[test]
fn the_tables_in_the_code_are_the_contract() {
    let contract = contract();
    assert_eq!(
        names(&contract, "workloads"),
        SPECS.iter().map(|s| s.name).collect::<Vec<_>>()
    );
    let end_to_end: Vec<_> = END_TO_END
        .iter()
        .map(|d| (d.name.into(), d.unit.into(), Some(d.better), Some(d.gate)))
        .collect();
    assert_eq!(listed(&contract, "end_to_end"), end_to_end);
    let per_layer: Vec<_> = PER_LAYER
        .iter()
        .map(|d| (d.name.into(), d.unit.into(), Some(d.better), None))
        .collect();
    assert_eq!(listed(&contract, "per_layer"), per_layer);

    let largest = END_TO_END.iter().map(|d| d.gate).fold(0.0, f64::max);
    assert_eq!(END_TO_END[0].name, "setup_s");
    assert_eq!(END_TO_END[0].gate, largest, "set-up has the largest");
    assert!(largest <= 0.25, "the widest the contract allows");
    for def in &END_TO_END {
        assert!(def.bound <= 0.15, "{}: compare's bound", def.name);
        assert!(def.bound <= def.gate, "{}", def.name);
    }
}

#[test]
fn smoke_run_is_correct_and_emits_exactly_the_contract_names() {
    let contract = contract();
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke_result.json");
    let table = ringbench(&[
        "run",
        "--smoke",
        "--seed",
        "5",
        "--out",
        out.to_str().expect("UTF-8"),
    ]);
    let result = json::parse(&std::fs::read_to_string(&out).expect("a result file")).expect("JSON");
    let Some(Json::Object(workloads)) = json::get(&result, "workloads") else {
        panic!("the result file has no workloads");
    };
    assert_eq!(
        sorted(workloads.keys().map(String::as_str).collect()),
        sorted(SPECS.iter().map(|s| s.name).collect())
    );
    for (name, w) in workloads {
        let metric = |m: &str| json::at(w, &["metrics", m, "value"]).and_then(json::number);
        assert_eq!(metric("failed_ratio"), Some(0.0), "{name}");
        for def in &END_TO_END {
            assert!(
                metric(def.name).is_some_and(|v| v > 0.0),
                "{name}.{}",
                def.name
            );
        }
        assert!(metric("run_s_p90") >= metric("run_s_p50"), "{name}");
        for def in END_TO_END.iter().chain(&REPORTED) {
            assert!(table.contains(def.name), "run prints {}", def.name);
        }
        assert_eq!(
            metric("virtual_s").is_some(),
            name == "tenants_lossy_sim",
            "{name}"
        );
    }

    // One round in the form the contract's command is run in, both ways.
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let stdout = ringbench(&[
            "--workload",
            "smallfrag_tcp",
            "--seed",
            "5",
            "--seconds",
            "0.2",
            "--trace",
            trace,
            "--smoke",
        ]);
        let line = json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
        let Json::Object(members) = &line else {
            panic!("the result line is not an object");
        };
        assert_eq!(
            members.keys().map(String::as_str).collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(json::get(&line, "correct"), Some(&Json::Bool(true)));
        let round = parse_round(&stdout).expect("a round");
        assert!(round.attempted >= 1.0 && round.failed == 0.0);
        let emitted = round.metrics.iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(
            sorted(emitted),
            sorted(names(&contract, section)),
            "--trace {trace}"
        );
    }
}

#[test]
fn smoke_trace_prints_every_layer_metric_with_what_it_should_move() {
    // Exit code 0: every staged and untraced run matched its reference.
    // Whether the stages sum to the run (0.90–1.10) is a statement about
    // timings, so `trace` judges it at full size only and `check.sh`
    // makes it there, on the release build; the rule itself is unit
    // tested in `suite`.
    let table = ringbench(&["trace", "--smoke", "--seed", "5"]);
    for def in &PER_LAYER {
        let line = table.lines().find(|l| l.contains(def.name));
        let line = line.unwrap_or_else(|| panic!("trace prints {}", def.name));
        assert!(line.contains(def.moves), "{line}");
    }
    for spec in &SPECS {
        assert!(table.contains(&format!("{}: staged traced run", spec.name)));
    }
    assert_eq!(table.matches("trace.stage_sum_ratio").count(), SPECS.len());
}

#[test]
fn bad_arguments_exit_with_2_and_without_a_result() {
    for args in [
        "--workload no_such_workload --seed 1 --seconds 1 --trace 0",
        "run --round_s 5",
        "trace --seconds 3",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ringbench"))
            .args(args.split_whitespace())
            .output()
            .expect("the binary starts");
        assert_eq!(out.status.code(), Some(2), "{args}");
        assert!(out.stdout.is_empty(), "{args}");
    }
}
