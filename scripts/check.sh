#!/usr/bin/env bash
# Full verification gate: release build, test suite, and zero-warning
# clippy. Run from anywhere; operates on the workspace root.
#
#   scripts/check.sh          # standard gate (includes a 1-rep bench smoke)
#   scripts/check.sh --simd   # additionally run the full-rep perf harness
#                             # and hold it to the PR 7 SIMD gates: kernel
#                             # batch >= 4x / histogram seq >= 1.2x vs the
#                             # BENCH_PR5 scalar baseline, with per-lane
#                             # checksum_bits identical to the default path
set -euo pipefail

cd "$(dirname "$0")/.."

simd=0
for arg in "$@"; do
    case "$arg" in
        --simd) simd=1 ;;
        *) echo "unknown option $arg" >&2; exit 2 ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --all --check
# selbench is a package of its own (empty [workspace] table), so the
# workspace gates above and below do not reach it.
cargo fmt --check --manifest-path selbench/Cargo.toml

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> crate tests (store/core/par/math/hybrid/kernel unit tests and crates/store/tests/chaos.rs)"
# The root `cargo test -q` runs only the root package. The serving router,
# breaker, brownout, deadline and quarantine tests, and the store chaos
# suite, live in the first three crates; the density functionals, the
# change-point detector and the kernel moment tables (with their
# bit-identity tests) live in the last three.
cargo test -q -p selest-store -p selest-core -p selest-par \
    -p selest-math -p selest-hybrid -p selest-kernel

echo "==> bit-identity pins in an optimized build"
# The compile-time Hermite orders are only unrolled with optimization, so
# the pinned build-publish bits (tests/build_engine.rs) and the math and
# change-point bit-identity tests also run against release code.
cargo test --release -q --test build_engine
cargo test --release -q -p selest-math -p selest-hybrid --lib

echo "==> selbench tests (the benchmark builds against the workspace crates)"
cargo test --release --manifest-path selbench/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

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
# counts pin the byte-determinism of snapshot/journal/compaction output.
# scripts/chaos_sweep.sh --crash widens the seed coverage on demand.
SELEST_JOBS=1 cargo test -q --test durability
SELEST_JOBS=7 cargo test -q --test durability

echo "==> cargo build --benches (criterion targets)"
cargo build -p bench --benches

echo "==> bench harness smoke run (scratch output; BENCH_PR5.json untouched)"
scripts/bench.sh --smoke --out target/bench_smoke.json
test -s target/bench_smoke.json

echo "==> bench_compare vs committed baseline (structure + checksums; generous timing gate)"
# 1-rep smoke timings are noisy, so the ratio is deliberately loose and only
# applies above 2ms; the checksum, structure, and fault-overhead gates are
# exact (the <= 5% fault-free-overhead gate applies to full-mode files — the
# committed baseline here — not to 1-rep smoke noise). The smoke file also
# carries the per-lane rows, so the --simd bit-identity gate is exact even
# here; the timing-based speedup gates need the full-rep run below.
scripts/bench_compare.sh BENCH_PR5.json target/bench_smoke.json \
    --max-ratio 50 --min-us 2000 --checksum-tol 1e-9 --simd

echo "==> serving bench smoke run (scratch output; BENCH_PR8.json untouched)"
./target/release/selest serve --bench --smoke --out target/bench_serving_smoke.json
test -s target/bench_serving_smoke.json

echo "==> serving gate vs committed BENCH_PR8.json (checksum identity + tail/scaling)"
# Both files must serve estimates bit-identical to their own sequential
# reference at every thread count (the smoke run proves the live build,
# the committed artifact proves the cited numbers). Scaling and tail
# gates apply to the committed full-mode artifact only — 20-op smoke
# timings on a busy 1-core box cannot support a latency threshold.
scripts/bench_compare.sh BENCH_PR8.json target/bench_serving_smoke.json --serving

echo "==> ingest bench smoke run (scratch output; BENCH_PR9.json untouched)"
./target/release/selest ingest --bench --smoke --out target/bench_ingest_smoke.json
test -s target/bench_ingest_smoke.json

echo "==> incremental gate vs committed BENCH_PR9.json (rank bound + bit-identity + refresh speedup)"
# Correctness gates (merged-sketch rank bound, zero-update bit-identity)
# are exact in both files; the >= 10x refresh speedup and the
# staleness-republish liveness gates apply to the committed full-mode
# artifact only — smoke timings on a busy 1-core box are noise.
scripts/bench_compare.sh BENCH_PR9.json target/bench_ingest_smoke.json --incremental

echo "==> overload bench smoke run (scratch output; BENCH_PR10.json untouched)"
./target/release/selest serve --bench --overload --smoke --out target/bench_overload_smoke.json
test -s target/bench_overload_smoke.json

echo "==> overload gate vs committed BENCH_PR10.json (response identity + brownout goodput win)"
# Per-response checksum identity (every unshed slot bit-validated against
# its serving rung's reference) is exact in both files. The brownout-win
# gates — within-SLO goodput >= 2x the refuse-only baseline at 4x load,
# brownout p999 under the SLO cap — apply to the committed full-mode
# artifact only: a smoke run's load is too light to saturate anything.
scripts/bench_compare.sh BENCH_PR10.json target/bench_overload_smoke.json --overload

if [ "$simd" = 1 ]; then
    echo "==> SIMD determinism sweep (lanes x jobs, byte-identical)"
    cargo test -q --test simd_kernels
    echo "==> allocation-free batch gate (counting allocator)"
    cargo test -q --test alloc_free
    echo "==> committed-baseline speedup gates (BENCH_PR5 vs BENCH_PR7, deterministic)"
    # File-vs-file comparison of the committed artifacts: never flaky, and
    # it is the artifact the README/DESIGN claims cite. Kernel batch rows
    # must hold >= 4x and every ewh/edh/mdh seq row >= 1.2x.
    scripts/bench_compare.sh BENCH_PR5.json BENCH_PR7.json \
        --max-ratio 3 --min-us 100 --checksum-tol 1e-9 \
        --min-speedup-kernel-batch 4 --min-speedup-hist-seq 1.2 --simd
    echo "==> fresh full-rep perf run + SIMD gates vs BENCH_PR5.json"
    # The fresh-measurement gate covers only rows with real noise margin:
    # the kernel batch rows run 5.8-7.3x vs the 4x threshold. The 2-4us
    # histogram seq rows jitter +-30% between runs on a busy 1-core box,
    # so their speedup is gated on the committed artifact above instead.
    scripts/bench.sh --out target/bench_simd.json
    scripts/bench_compare.sh BENCH_PR5.json target/bench_simd.json \
        --max-ratio 3 --min-us 100 --checksum-tol 1e-9 \
        --min-speedup-kernel-batch 4 --simd
fi

echo "==> all checks passed"
