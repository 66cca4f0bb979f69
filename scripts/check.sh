#!/usr/bin/env bash
# Full verification gate: release build, test suite, zero-warning docs
# and zero-warning clippy. Run from anywhere; operates on the workspace
# root.
#
#   scripts/check.sh
#
# Every exact check on live code is a test that one of the steps below
# runs; performance is measured by selbench (selbench/README.md).
set -euo pipefail

cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
    echo "usage: scripts/check.sh (takes no options)" >&2
    exit 2
fi

echo "==> cargo fmt --check"
cargo fmt --all --check
# selbench is a package of its own (empty [workspace] table), so the
# workspace gates above and below do not reach it.
cargo fmt --check --manifest-path selbench/Cargo.toml

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
# Every package of the workspace: the root package's integration tests
# (tests/*.rs), every crate's unit tests and crate test suites
# (crates/*/tests), and the doc tests. A new crate is covered without
# editing this line.
cargo test -q --workspace

echo "==> bit-identity pins in an optimized build"
# The compile-time Hermite orders are only unrolled with optimization, so
# the pinned build-publish bits (tests/build_engine.rs), the pinned
# query-file checksums (tests/batch_engine.rs), the raw-vs-prepared
# equivalence pins (tests/prepared_column.rs and the kernel and histogram
# unit tests), the serving engine's served-bits pins (tests/serving_engine.rs:
# boundary-kernel columns serve the direct estimator's bits, the single
# query is the one-slot batch) and the math and change-point bit-identity
# tests also run against release code.
cargo test --release -q --test build_engine --test batch_engine --test prepared_column \
    --test serving_engine
cargo test --release -q -p selest-math -p selest-hybrid -p selest-kernel -p selest-histogram --lib

echo "==> selbench tests (the benchmark builds against the workspace crates)"
cargo test --release --locked --manifest-path selbench/Cargo.toml

echo "==> cargo doc (intra-doc links must resolve)"
# A dangling intra-doc link is a warning, and warnings fail the gate.
# Private items are documented too, so the links in their docs are
# checked like public ones. The vendored stand-ins for external crates
# are not documented.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --document-private-items \
    --exclude proptest --exclude rand

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> selbench clippy and doc (its own package, outside the workspace gates)"
cargo clippy --locked --manifest-path selbench/Cargo.toml --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --locked --manifest-path selbench/Cargo.toml --no-deps

echo "==> chaos gate (fixed-seed chaos tests under SELEST_JOBS=1 and SELEST_JOBS=7)"
# The chaos suite (tests/chaos_parallel.rs) already ran once above under the
# default worker count; the gate pins the two interesting extremes — inline
# single-worker execution and an oversubscribed pool — at the fixed default
# seed. scripts/chaos_sweep.sh widens the seed coverage on demand.
SELEST_JOBS=1 cargo test -q --test chaos_parallel
SELEST_JOBS=7 cargo test -q --test chaos_parallel

echo "==> crash-recovery gate (fixed-seed durability tests under SELEST_JOBS=1 and SELEST_JOBS=7)"
# tests/durability.rs walks every CrashPlan injection point and asserts
# reopen lands on a committed state with a healthy fsck; the two worker
# counts pin the byte-determinism of snapshot/journal/republish output.
# scripts/chaos_sweep.sh --crash widens the seed coverage on demand.
SELEST_JOBS=1 cargo test -q --test durability
SELEST_JOBS=7 cargo test -q --test durability

echo "==> all checks passed"
