#!/usr/bin/env bash
# Machine-readable bench harness: builds the bench binaries and writes
# BENCH_*.json files at the repo root.
#
#   BENCH_restore.json  — the online restore: image open, image cold
#                         start vs a vanilla cold start; exits non-zero if the restored graphs do not
#                         replay to the vanilla capture's logits.
#   BENCH_micro.json    — google-benchmark microbenchmarks of the
#                         substrate hot paths.
#   BENCH_fault.json    — fault matrix: restore fault points × fallback
#                         policies, and §7.5-trace p50/p99 TTFT under
#                         0/1/5% artifact corruption; exits non-zero if
#                         any trace request fails to complete.
#   BENCH_sim.json      — cluster-scale study: event-engine
#                         throughput (events, wall seconds, events/sec)
#                         on a million-request single-model trace, and
#                         the scheduler-policy sweep (baseline /
#                         keep-alive / artifact-affinity) over a
#                         million-request multi-model synthetic trace.
#   BENCH_chaos.json    — chaos / SLO study: scheduler policies ×
#                         chaos intensities (node/instance crashes,
#                         store outages, gray fetches) over a
#                         10^5-request deadline-carrying trace; exits
#                         non-zero if request conservation, rerun
#                         determinism or empty-plan identity breaks.
#   BENCH_serve.json    — serving control plane: a synthetic diurnal
#                         trace replayed through medusa_serve's HTTP
#                         front end on loopback (QPS, virtual TTFT
#                         p50/p99); exits non-zero if request or
#                         token conservation breaks across the
#                         HTTP path.
#
# Usage: scripts/bench.sh [build-dir]
#   build-dir defaults to ./build.
set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"

cmake -B "$BUILD" -S "$ROOT" >/dev/null
cmake --build "$BUILD" -j "$(nproc)" \
    --target bench_restore bench_micro bench_fault_matrix \
    bench_cluster_scale bench_chaos bench_serve \
    >/dev/null

cd "$ROOT" # bench binaries cache artifacts under ./artifacts

echo "== bench_restore"
"$BUILD/bench/bench_restore" --json > "$ROOT/BENCH_restore.json"
cat "$ROOT/BENCH_restore.json"

echo "== bench_micro"
"$BUILD/bench/bench_micro" --json \
    --benchmark_min_warmup_time=0.1 > "$ROOT/BENCH_micro.json"
echo "wrote $ROOT/BENCH_micro.json"

echo "== bench_fault_matrix"
"$BUILD/bench/bench_fault_matrix" --json > "$ROOT/BENCH_fault.json"
cat "$ROOT/BENCH_fault.json"

echo "== bench_cluster_scale"
"$BUILD/bench/bench_cluster_scale" --json > "$ROOT/BENCH_sim.json"
cat "$ROOT/BENCH_sim.json"

echo "== bench_chaos"
"$BUILD/bench/bench_chaos" --json > "$ROOT/BENCH_chaos.json"
cat "$ROOT/BENCH_chaos.json"

echo "== bench_serve"
"$BUILD/bench/bench_serve" --json > "$ROOT/BENCH_serve.json"
cat "$ROOT/BENCH_serve.json"
