#!/usr/bin/env bash
# Tier-1 verification: build, the full test suite (each test once), a
# check that every named gate exists and runs, a warning-free clippy pass
# over every target (examples and tests included), a formatting check,
# and the repo-native lints (scripts/analyze.sh runs the deeper, slower
# static-analysis tier on top of these).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release
cargo test -q
# Named gates: scripts/gates.txt lists the tests tier 1 names (the
# protocol core, the drivers, the kernels, the frame path and more, each
# block with what it holds). `cargo test -q` above ran every one of them
# once; this step runs none again, and fails if a named test is missing
# from its target or `#[ignore]`d.
cargo run -q --release -p xtask -- gates
cargo clippy --all-targets -- -D warnings
cargo fmt --check
cargo run -q --release -p xtask -- analyze
# Model-checker gate: exhaustive exploration of the 2-host/1-fragment/
# 1-crash bound over the sans-IO protocol core (all six invariant
# families), the 2-host/2-query multiplexed bound (per-query credit
# partition and exactly-once per (query, fragment), with the second
# query held in admission), plus the seeded-sabotage self-check that
# must be *caught* with a minimal counterexample trace. The deep 3-host
# bounds run in scripts/analyze.sh.
cargo run -q --release -p xtask -- verify --smoke
# Benchmark smoke (read-only use of benchmark/): all five workloads at
# one eighth size, every run checked against the reference join, so a
# kernel that returns a wrong count fails here before it reaches the
# benchmark pipeline. Builds into benchmark/target (git-ignored).
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --smoke
