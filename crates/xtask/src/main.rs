//! Repo tasks: `cargo xtask analyze` and `cargo xtask verify`.
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

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::lints::FilePolicy;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!(
            "usage: cargo xtask analyze [--root <dir>] [--fixtures]\n\
             \x20      cargo xtask verify --smoke|--deep [--root <dir>]"
        );
        return ExitCode::from(2);
    };
    match cmd.as_str() {
        "analyze" => analyze_cmd(args),
        "verify" => verify_cmd(args),
        other => {
            eprintln!("unknown command {other:?}; commands are `analyze` and `verify`");
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
