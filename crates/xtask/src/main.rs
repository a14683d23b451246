//! Repo tasks: `cargo xtask analyze` and `cargo xtask bench`.
//!
//! * `analyze [--root <dir>] [--fixtures]` — runs the repo-native lints
//!   (see `xtask::lints`) and exits non-zero when any unsuppressed
//!   violation, malformed annotation, or stale suppression exists.
//!   `--fixtures` analyzes the seeded fixture files instead of the real
//!   tree (used to demonstrate the non-zero exit path).
//! * `bench [--smoke] [--check] [--root <dir>]` — the measured perf
//!   baseline. Runs `cyclo-bench`'s `bench_suite` binary in release mode
//!   and validates its JSON report against the schema in
//!   `xtask::bench_schema`. A full run writes the next free
//!   `BENCH_<n>.json` at the workspace root (commit it with the change it
//!   measures); `--smoke` writes a throwaway report under `target/` (the
//!   CI gate); `--check` only re-validates the committed `BENCH_*.json`
//!   files without running anything.
//! * `verify --smoke|--deep [--root <dir>]` — the explicit-state model
//!   checker over the sans-IO ring protocol (`ring-verify`). `--smoke`
//!   exhaustively explores the 2-host bound plus the seeded-sabotage
//!   self-check (the tier-1 gate); `--deep` adds the 3-host bounds with
//!   membership changes and a second crash (the analyze-tier gate).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::lints::FilePolicy;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!(
            "usage: cargo xtask analyze [--root <dir>] [--fixtures]\n\
             \x20      cargo xtask bench [--smoke] [--check] [--root <dir>]\n\
             \x20      cargo xtask verify --smoke|--deep [--root <dir>]"
        );
        return ExitCode::from(2);
    };
    match cmd.as_str() {
        "analyze" => analyze_cmd(args),
        "bench" => bench_cmd(args),
        "verify" => verify_cmd(args),
        other => {
            eprintln!("unknown command {other:?}; commands are `analyze`, `bench` and `verify`");
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

fn bench_cmd(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut root = xtask::workspace_root();
    let mut smoke = false;
    let mut check = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root needs a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--smoke" => smoke = true,
            "--check" => check = true,
            other => {
                eprintln!("unknown flag {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    if smoke && check {
        eprintln!("--smoke and --check are mutually exclusive");
        return ExitCode::from(2);
    }

    if check {
        return check_committed_reports(&root);
    }

    let out = if smoke {
        root.join("target/bench_smoke.json")
    } else {
        next_free_report_path(&root)
    };
    let mut cargo = std::process::Command::new("cargo");
    cargo.current_dir(&root).args([
        "run",
        "--release",
        "-p",
        "cyclo-bench",
        "--bin",
        "bench_suite",
        "--",
    ]);
    if smoke {
        cargo.arg("--smoke");
    }
    cargo.arg("--out").arg(&out);
    match cargo.status() {
        Ok(status) if status.success() => {}
        Ok(status) => {
            eprintln!("bench: bench_suite failed: {status}");
            return ExitCode::from(1);
        }
        Err(err) => {
            eprintln!("bench: could not launch cargo: {err}");
            return ExitCode::from(2);
        }
    }
    match validate_file(&out) {
        Ok(()) => {
            println!("bench: {} validates against schema v1", out.display());
            ExitCode::SUCCESS
        }
        Err(code) => code,
    }
}

/// First unused `BENCH_<n>.json` at the workspace root, counting from 1.
fn next_free_report_path(root: &Path) -> PathBuf {
    let mut n = 1u32;
    loop {
        let path = root.join(format!("BENCH_{n}.json"));
        if !path.exists() {
            return path;
        }
        n += 1;
    }
}

/// Validates every committed `BENCH_*.json`; at least one must exist.
fn check_committed_reports(root: &Path) -> ExitCode {
    let mut reports: Vec<PathBuf> = match std::fs::read_dir(root) {
        Ok(dir) => dir
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            })
            .collect(),
        Err(err) => {
            eprintln!("bench: cannot read {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };
    reports.sort();
    if reports.is_empty() {
        eprintln!(
            "bench: no BENCH_*.json at {} — run `cargo xtask bench` and commit the report",
            root.display()
        );
        return ExitCode::from(1);
    }
    for path in &reports {
        if let Err(code) = validate_file(path) {
            return code;
        }
        println!("bench: {} validates against schema v1", path.display());
    }
    ExitCode::SUCCESS
}

fn validate_file(path: &Path) -> Result<(), ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|err| {
        eprintln!("bench: cannot read {}: {err}", path.display());
        ExitCode::from(2)
    })?;
    xtask::bench_schema::validate_report(&text).map_err(|err| {
        eprintln!("bench: {} violates the schema: {err}", path.display());
        ExitCode::from(1)
    })
}
