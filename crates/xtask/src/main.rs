//! Repo tasks: `cargo xtask analyze`, `cargo xtask verify` and `cargo
//! xtask gates`.
//!
//! * `analyze [--root <dir>] [--fixtures]` — runs the repo-native lints
//!   (see `xtask::lints`) and exits non-zero when any unsuppressed
//!   violation, malformed annotation, or stale suppression exists.
//!   `--fixtures` analyzes the seeded fixture files instead of the real
//!   tree (used to demonstrate the non-zero exit path).
//! * `verify --smoke|--deep [--root <dir>]` — the explicit-state model
//!   checker over the sans-IO ring protocol (`ring-verify`). `--smoke`
//!   exhaustively explores the 2-host bound plus the seeded-sabotage
//!   self-check (the tier-1 gate); `--deep` adds the 3-host bounds with
//!   membership changes and a second crash (the analyze-tier gate).
//! * `gates [--root <dir>]` — checks the tier-1 floor list
//!   (`scripts/gates.txt`, see `xtask::gates`): every test it names must
//!   exist in its target and not be `#[ignore]`d. Runs no test.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use xtask::lints::FilePolicy;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!(
            "usage: cargo xtask analyze [--root <dir>] [--fixtures]\n\
             \x20      cargo xtask verify --smoke|--deep [--root <dir>]\n\
             \x20      cargo xtask gates [--root <dir>]"
        );
        return ExitCode::from(2);
    };
    match cmd.as_str() {
        "analyze" => analyze_cmd(args),
        "verify" => verify_cmd(args),
        "gates" => gates_cmd(args),
        other => {
            eprintln!("unknown command {other:?}; commands are `analyze`, `verify` and `gates`");
            ExitCode::from(2)
        }
    }
}

fn analyze_cmd(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut root = xtask::workspace_root();
    let mut fixtures = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root needs a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--fixtures" => fixtures = true,
            other => {
                eprintln!("unknown flag {other:?}");
                return ExitCode::from(2);
            }
        }
    }

    let result = if fixtures {
        analyze_fixtures(&root)
    } else {
        xtask::analyze_root(&root)
    };
    match result {
        Ok(report) => {
            print!("{}", report.render());
            let code = report.exit_code();
            if code == 0 {
                println!("analyze: clean");
            } else {
                println!("analyze: FAILED");
            }
            ExitCode::from(code as u8)
        }
        Err(err) => {
            eprintln!("analyze: i/o error: {err}");
            ExitCode::from(2)
        }
    }
}

/// Runs every lint over the seeded fixture files, which contain known
/// violations — this path must exit non-zero.
fn analyze_fixtures(root: &std::path::Path) -> std::io::Result<xtask::report::Report> {
    let dir = root.join("crates/xtask/fixtures");
    let all = FilePolicy {
        no_panic: true,
        no_wall_clock: true,
        counter_registry: true,
        lock_ordering: true,
        sans_io: true,
        output_match: true,
        single_applier: true,
    };
    let registry = xtask::load_registry(root);
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "rs") {
            files.push((path, all.clone()));
        }
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    xtask::analyze_files(&files, &registry)
}

/// Shells out to the `ring-verify` checker binary in release mode (the
/// deep bounds explore hundreds of thousands of states — debug mode is an
/// order of magnitude slower) and propagates its verdict.
fn verify_cmd(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut root = xtask::workspace_root();
    let mut mode: Option<&'static str> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root needs a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--smoke" => mode = Some("--smoke"),
            "--deep" => mode = Some("--deep"),
            other => {
                eprintln!("unknown flag {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(mode) = mode else {
        eprintln!("verify: pass --smoke (tier-1 gate) or --deep (full bounds)");
        return ExitCode::from(2);
    };
    let mut cargo = std::process::Command::new("cargo");
    cargo.current_dir(&root).args([
        "run",
        "--release",
        "-p",
        "ring-verify",
        "--bin",
        "verify",
        "--",
        mode,
    ]);
    match cargo.status() {
        Ok(status) if status.success() => ExitCode::SUCCESS,
        Ok(_) => {
            eprintln!("verify: model checking FAILED");
            ExitCode::from(1)
        }
        Err(err) => {
            eprintln!("verify: could not launch cargo: {err}");
            ExitCode::from(2)
        }
    }
}

/// Lists every target the floor list names, once with `--list` and once
/// with `--list --ignored`, and checks each gate against the two.
fn gates_cmd(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut root = xtask::workspace_root();
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next()) {
            ("--root", Some(dir)) => root = PathBuf::from(dir),
            _ => {
                eprintln!("usage: cargo xtask gates [--root <dir>]");
                return ExitCode::from(2);
            }
        }
    }
    let list = root.join(xtask::gates::FLOOR_LIST);
    let gates = match std::fs::read_to_string(&list)
        .map_err(|e| e.to_string())
        .and_then(|text| xtask::gates::parse(&text))
    {
        Ok(gates) => gates,
        Err(err) => {
            eprintln!("gates: {}: {err}", list.display());
            return ExitCode::from(2);
        }
    };
    let mut listings = BTreeMap::new();
    for gate in &gates {
        if !listings.contains_key(&gate.target) {
            let listing = list_tests(&root, &gate.target.cargo_args());
            listings.insert(gate.target.clone(), listing);
        }
    }
    let mut failed = 0;
    for gate in &gates {
        let verdict = match &listings[&gate.target] {
            Ok((tests, ignored)) => xtask::gates::check(gate, tests, ignored),
            Err(err) => Err(err.clone()),
        };
        if let Err(why) = verdict {
            failed += 1;
            let filter = gate.filter.as_deref().unwrap_or("(whole target)");
            eprintln!(
                "{}:{}: {} {filter}: {why}",
                list.display(),
                gate.line,
                gate.target
            );
        }
    }
    if failed > 0 {
        println!(
            "gates: FAILED ({failed} of {} gates run no test)",
            gates.len()
        );
        return ExitCode::from(1);
    }
    println!(
        "gates: {} gates over {} targets, each runs",
        gates.len(),
        listings.len()
    );
    ExitCode::SUCCESS
}

/// Every test of the target `cargo_args` picks, and the ignored ones.
fn list_tests(root: &Path, cargo_args: &[&str]) -> Result<(Vec<String>, Vec<String>), String> {
    let list = |extra: &[&str]| {
        let out = Command::new("cargo")
            .current_dir(root)
            .args(["test", "-q"])
            .args(cargo_args)
            .args(["--", "--list"])
            .args(extra)
            .output()
            .map_err(|e| format!("could not launch cargo: {e}"))?;
        if !out.status.success() {
            let stderr = String::from_utf8_lossy(&out.stderr);
            return Err(format!("`cargo test` could not list it: {}", stderr.trim()));
        }
        Ok(xtask::gates::listed(&String::from_utf8_lossy(&out.stdout)))
    };
    Ok((list(&[])?, list(&["--ignored"])?))
}
