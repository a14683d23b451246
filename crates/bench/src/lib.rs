//! Shared utilities for the binaries that regenerate the paper's exhibits.
//!
//! Every table and figure of the paper's evaluation has a dedicated binary
//! under `src/bin/` (see DESIGN.md for the exhibit → binary index). The
//! binaries print the exhibit's rows to stdout and write a CSV next to the
//! crate under `results/`.
//!
//! Environment knobs shared by all binaries:
//!
//! * `CYCLO_SCALE` — volume scale factor relative to the paper's workloads
//!   (each binary has a sensible default; `1.0` regenerates full-size
//!   inputs if you have the memory and patience);
//! * `CYCLO_MEASURED=1` — price compute by wall-clock-measuring the real
//!   join execution instead of the deterministic calibrated cost model.

use std::fs;
use std::path::{Path, PathBuf};

use cyclo_join::{ComputeMode, CycloJoinReport};

/// Reads the volume scale factor, with a per-binary default.
pub fn scale_from_env(default: f64) -> f64 {
    match std::env::var("CYCLO_SCALE") {
        Ok(v) => v
            .parse::<f64>()
            .ok()
            .filter(|s| s.is_finite() && *s > 0.0)
            .unwrap_or_else(|| panic!("CYCLO_SCALE must be a positive number, got {v:?}")),
        Err(_) => default,
    }
}

/// Reads the compute mode: deterministic model by default, measured if
/// `CYCLO_MEASURED=1`.
pub fn compute_mode_from_env() -> ComputeMode {
    if std::env::var("CYCLO_MEASURED")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        ComputeMode::Measured
    } else {
        ComputeMode::modeled()
    }
}

/// Parses `--trace <PATH>` from this binary's command line.
///
/// Exhibit binaries accept `--trace <path>`: span tracing is enabled on the
/// exhibit's plans and the Chrome trace-event JSON profile of a
/// representative run is written to the path (open it in `chrome://tracing`
/// or <https://ui.perfetto.dev>). Returns `None` when the flag is absent.
pub fn trace_path_from_args() -> Option<PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            let path = args
                .next()
                .unwrap_or_else(|| panic!("--trace requires a path"));
            return Some(PathBuf::from(path));
        }
    }
    None
}

/// Writes `report`'s Chrome trace-event JSON profile to `path`.
pub fn export_trace(path: &Path, report: &CycloJoinReport) {
    fs::write(path, report.chrome_trace()).expect("could not write trace file");
    println!("[trace] {}", path.display());
}

/// Where result CSVs go: `crates/bench/results/`.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    fs::create_dir_all(&dir).expect("could not create results directory");
    dir
}

/// Writes one exhibit's rows as CSV and reports the path on stdout.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    let path = results_dir().join(format!("{name}.csv"));
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    fs::write(&path, out).expect("could not write CSV");
    println!("\n[csv] {}", path.display());
}

/// Renders a simple aligned table to stdout.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                s.push_str("  ");
            }
            s.push_str(&format!("{cell:>width$}", width = widths[i]));
        }
        s
    };
    let header_cells: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    println!("{}", line(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        println!("{}", line(row));
    }
}

/// Format seconds with millisecond resolution.
pub fn secs(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_default_applies_without_env() {
        std::env::remove_var("CYCLO_SCALE");
        assert_eq!(scale_from_env(0.01), 0.01);
    }

    #[test]
    fn results_dir_exists() {
        assert!(results_dir().is_dir());
    }

    #[test]
    fn csv_is_written() {
        write_csv(
            "unit_test_exhibit",
            &["a", "b"],
            &[vec!["1".into(), "2".into()]],
        );
        let content = std::fs::read_to_string(results_dir().join("unit_test_exhibit.csv")).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
    }

    #[test]
    fn secs_formatting() {
        assert_eq!(secs(1.23456), "1.235");
    }
}
