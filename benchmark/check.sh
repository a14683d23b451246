#!/usr/bin/env bash
# Checks for the standalone benchmark package; the root scripts/tier1.sh
# does not enter this directory. Run from anywhere. Builds offline into
# the root workspace's target directory (see .cargo/config.toml).
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --all-targets -- -D warnings
cargo test
cargo run --release -- run --smoke --out ../target/ringbench_smoke.json
# Full size, about a minute: exits with 1 unless the stages of the staged
# traced run sum to the untraced run (0.90-1.10) on all four CycloJoin
# workloads. A statement about timings, so not made by `cargo test`.
cargo run --release -- trace
