#!/usr/bin/env bash
# Seed sweep for the chaos suite (tests/chaos_parallel.rs): run the full
# fault-injection battery across a range of SELEST_CHAOS_SEED values and
# the two interesting worker counts (inline single-worker and an
# oversubscribed pool). The suite's assertions are seed-independent —
# every victim set drawn by the FaultInjector must quarantine cleanly and
# every survivor must stay bit-identical — so any failing combination is a
# real bug, and this script prints it as a one-line repro command.
#
#   scripts/chaos_sweep.sh             # seeds 0..7 x jobs {1, 7}
#   scripts/chaos_sweep.sh --seeds N   # seeds 0..N-1
#   scripts/chaos_sweep.sh --jobs "1 2 7"
#   scripts/chaos_sweep.sh --crash     # sweep crash-recovery seeds instead
#   scripts/chaos_sweep.sh --overload  # sweep the overload chaos test
#
# --crash switches the sweep to the durability suite (tests/durability.rs):
# each SELEST_CRASH_SEED arms a CrashPlan at one of the write path's I/O
# boundaries (snapshot, MANIFEST, journal reset, journal append), and the
# sweep test itself additionally walks every enumerated crash point, so
# the seed range here mostly varies the corruption-property cases
# (truncation cuts, bit-flip sites in the snapshot, MANIFEST and
# journal).
#
# --overload switches the sweep to the overload chaos test
# (tests/serving_engine.rs): each (SELEST_OVERLOAD_SEED,
# SELEST_OVERLOAD_CLIENTS, SELEST_OVERLOAD_SLO_US) combination runs
# saturating readers against a live publisher and an injected-failure
# column whose breaker trips. The invariant is timing-independent —
# every slot is a rung-exact value or a typed refusal — so any failing
# (seed, clients, slo) triple is a real bug, printed as a repro command.
# --clients and --slos override the swept grids.
set -euo pipefail

cd "$(dirname "$0")/.."

n_seeds=8
jobs_list="1 7"
clients_list="2 6"
slos_list="200 2000 50000"
suite=chaos_parallel
seed_var=SELEST_CHAOS_SEED
overload=0
while [ $# -gt 0 ]; do
    case "$1" in
        --seeds)    n_seeds=$2; shift 2 ;;
        --jobs)     jobs_list=$2; shift 2 ;;
        --clients)  clients_list=$2; shift 2 ;;
        --slos)     slos_list=$2; shift 2 ;;
        --crash)    suite=durability; seed_var=SELEST_CRASH_SEED; shift ;;
        --overload) suite=serving_engine; seed_var=SELEST_OVERLOAD_SEED; overload=1; shift ;;
        *) echo "unknown option $1" >&2; exit 2 ;;
    esac
done

if [ "$overload" = 1 ]; then
    echo "==> building $suite suite"
    cargo test -q --test "$suite" --no-run

    fails=0
    runs=0
    for seed in $(seq 0 $((n_seeds - 1))); do
        for c in $clients_list; do
            for slo in $slos_list; do
                runs=$((runs + 1))
                if env SELEST_OVERLOAD_SEED=$seed SELEST_OVERLOAD_CLIENTS=$c \
                    SELEST_OVERLOAD_SLO_US=$slo \
                    cargo test -q --test "$suite" overload_chaos >/dev/null 2>&1; then
                    echo "ok   seed=$seed clients=$c slo_us=$slo"
                else
                    fails=$((fails + 1))
                    echo "FAIL seed=$seed clients=$c slo_us=$slo"
                    echo "     repro: SELEST_OVERLOAD_SEED=$seed" \
                         "SELEST_OVERLOAD_CLIENTS=$c SELEST_OVERLOAD_SLO_US=$slo" \
                         "cargo test --test $suite overload_chaos"
                fi
            done
        done
    done

    if [ "$fails" -gt 0 ]; then
        echo "chaos_sweep --overload: $fails of $runs combinations failed"
        exit 1
    fi
    echo "chaos_sweep --overload: all $runs (seed, clients, slo) combinations passed"
    exit 0
fi

echo "==> building $suite suite"
cargo test -q --test "$suite" --no-run

fails=0
runs=0
for seed in $(seq 0 $((n_seeds - 1))); do
    for j in $jobs_list; do
        runs=$((runs + 1))
        if env "$seed_var=$seed" SELEST_JOBS=$j \
            cargo test -q --test "$suite" >/dev/null 2>&1; then
            echo "ok   seed=$seed jobs=$j"
        else
            fails=$((fails + 1))
            echo "FAIL seed=$seed jobs=$j"
            echo "     repro: $seed_var=$seed SELEST_JOBS=$j cargo test --test $suite"
        fi
    done
done

if [ "$fails" -gt 0 ]; then
    echo "chaos_sweep: $fails of $runs combinations failed"
    exit 1
fi
echo "chaos_sweep: all $runs seed/jobs combinations passed"
