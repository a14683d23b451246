#!/usr/bin/env bash
# Deep static-analysis tier: everything tier1.sh runs is assumed green;
# this script adds the slow, exhaustive checks on top.
#
#   1. repo-native lints   xtask's L1-L6 passes over the source tree
#   2. protocol verify     the explicit-state model checker's deep
#                          bounds: 3-host rings with a planned drain, a
#                          planned join, rotation symmetry, and a second
#                          crash (tier1.sh runs the 2-host smoke bound)
#   3. loom clippy         the `--cfg loom` configuration must be as
#                          warning-free as the default one
#   4. loom model checking exhaustive interleaving exploration of the
#                          ring hand-off on the join pool
#                          (crates/roundabout/tests/loom_ring.rs) and of
#                          the reactor's completion hand-off (the
#                          `loom_tests` module of reactor_backend.rs)
#   5. miri                UB check on the byte-twiddling crates
#                          (skipped when the miri component is absent)
#   6. ThreadSanitizer     race check on the threaded backend
#                          (skipped when nightly rust-src is absent)
#
# Steps 5 and 6 are gated, not optional: they run whenever the toolchain
# can support them and only print SKIP when it cannot (e.g. an offline
# container without the rustup components). A gated step that *runs* and
# fails still fails the script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> [1/6] repo-native lints (xtask analyze)"
cargo run -q --release -p xtask -- analyze

echo "==> [2/6] protocol model checker, deep bounds (xtask verify)"
cargo run -q --release -p xtask -- verify --deep

echo "==> [3/6] clippy under --cfg loom"
# Separate target dir: --cfg loom changes what the whole dependency graph
# compiles to, and sharing ./target would thrash the incremental cache.
RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom \
    cargo clippy -p data-roundabout --tests -- -D warnings

echo "==> [4/6] loom model checking (exhaustive interleavings)"
RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom \
    cargo test -q -p data-roundabout --test loom_ring
RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom \
    cargo test -q -p data-roundabout --lib loom_tests

echo "==> [5/6] miri (undefined-behavior check)"
if cargo +nightly miri --version >/dev/null 2>&1; then
    # The wire format and checksum code is where the unsafe-adjacent byte
    # manipulation lives; joins exercise the hashing and partitioning on
    # top of it. Proptest case counts are lowered because miri executes
    # roughly 100x slower than native.
    MIRIFLAGS="-Zmiri-strict-provenance" PROPTEST_CASES=8 \
        CARGO_TARGET_DIR=target/miri \
        cargo +nightly miri test -p relation -p joins
else
    echo "SKIP: miri component not installed for the nightly toolchain"
    echo "      (rustup component add --toolchain nightly miri)"
fi

echo "==> [6/6] ThreadSanitizer (data-race check)"
if rustup toolchain list 2>/dev/null | grep -q nightly \
    && rustup component list --toolchain nightly --installed 2>/dev/null | grep -q rust-src; then
    # -Zbuild-std rebuilds std with TSan instrumentation so the runtime
    # sees every synchronization edge, not just the ones in our crates.
    RUSTFLAGS="-Zsanitizer=thread" CARGO_TARGET_DIR=target/tsan \
        cargo +nightly test -Zbuild-std \
        --target x86_64-unknown-linux-gnu -p data-roundabout --lib
else
    echo "SKIP: nightly rust-src component not installed"
    echo "      (rustup component add --toolchain nightly rust-src)"
fi

echo "analyze: all checks passed (gated steps may have printed SKIP above)"
