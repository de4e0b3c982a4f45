#!/usr/bin/env bash
# The repository hygiene gate: formatting, static analysis, sanitizers,
# static image verification, a fault-injected test pass (a fixed
# MEDUSA_FAULT_PLAN seed keeps the restore-stack fault hooks live under
# ASan and TSan), the golden fixtures in a Release build and a scan of
# the Release kernels for fused multiply-adds. Steps
# whose tools are not installed are skipped with a notice, so the
# script is useful on minimal images.
#
# Usage: scripts/check.sh [build-dir]   (default: build-check)
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build-check}"
FAILURES=0

note() { printf '\n== %s\n' "$*"; }
fail() { printf 'FAIL: %s\n' "$*"; FAILURES=$((FAILURES + 1)); }
skip() { printf 'SKIP: %s\n' "$*"; }

cd "$ROOT" || exit 2
SOURCES=$(git ls-files 'src/**/*.cc' 'src/**/*.h' 'tests/*.cc' \
                       'tools/*.cc' 'examples/*.cpp' 2>/dev/null)

note "clang-format (dry run)"
if command -v clang-format >/dev/null 2>&1; then
    # shellcheck disable=SC2086
    if ! clang-format --dry-run --Werror $SOURCES; then
        fail "clang-format found formatting differences"
    fi
else
    skip "clang-format not installed"
fi

note "configure + build (ASan + UBSan)"
if ! cmake -B "$BUILD" -S "$ROOT" \
        -DMEDUSA_SANITIZE=address,undefined \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null; then
    fail "cmake configure failed"
elif ! cmake --build "$BUILD" -j "$(nproc)" >/dev/null; then
    fail "sanitized build failed"
else
    note "tests under ASan + UBSan"
    if ! ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"; then
        fail "sanitized test run failed"
    fi
fi

note "clang-tidy (src/common, src/medusa)"
if command -v clang-tidy >/dev/null 2>&1; then
    TIDY_SOURCES=$(git ls-files 'src/common/*.cc' 'src/medusa/**/*.cc' \
                                'src/medusa/*.cc')
    # shellcheck disable=SC2086
    if ! clang-tidy -p "$BUILD" --quiet $TIDY_SOURCES; then
        fail "clang-tidy reported diagnostics"
    fi
else
    skip "clang-tidy not installed"
fi

note "medusa_lint over a freshly materialized image"
if [ -x "$BUILD/examples/offline_materialize" ] &&
   [ -x "$BUILD/tools/medusa_lint" ] &&
   [ -x "$BUILD/tools/trace_check" ]; then
    IMAGE="$BUILD/check-image.mdsi"
    if ! "$BUILD/examples/offline_materialize" Qwen1.5-0.5B \
            "$IMAGE" >/dev/null; then
        fail "offline_materialize failed"
    elif ! "$BUILD/tools/medusa_lint" --max-severity info "$IMAGE"; then
        # --max-severity info: a pipeline image must be clean even of
        # warnings, not just free of errors.
        fail "medusa_lint reported diagnostics on a pipeline image"
    elif ! "$BUILD/tools/medusa_lint" --json "$IMAGE" \
            > "$BUILD/check-lint.json" ||
         ! "$BUILD/tools/trace_check" --lint "$BUILD/check-lint.json"; then
        fail "medusa_lint --json failed schema validation"
    elif ! "$BUILD/tools/medusa_lint" --sarif "$IMAGE" \
            > "$BUILD/check-lint.sarif" ||
         ! "$BUILD/tools/trace_check" --sarif "$BUILD/check-lint.sarif"; then
        fail "medusa_lint --sarif failed schema validation"
    fi
else
    fail "offline_materialize / medusa_lint / trace_check binaries missing"
fi

note "trace smoke: one traced cold start, schema-checked exports"
if [ -x "$BUILD/bench/bench_micro" ] && [ -x "$BUILD/tools/trace_check" ]
then
    TRACE_JSON="$BUILD/check-trace.json"
    METRICS_JSON="$BUILD/check-metrics.json"
    if ! "$BUILD/bench/bench_micro" \
            --benchmark_filter=BM_CachingAllocatorReuse \
            --trace-out "$TRACE_JSON" --metrics-out "$METRICS_JSON" \
            >/dev/null 2>&1; then
        fail "traced bench_micro run failed"
    elif ! "$BUILD/tools/trace_check" --chrome "$TRACE_JSON"; then
        fail "exported Chrome trace failed schema validation"
    elif ! "$BUILD/tools/trace_check" --metrics "$METRICS_JSON"; then
        fail "exported metrics JSON failed schema validation"
    fi
else
    fail "bench_micro / trace_check binaries missing"
fi

note "restore-speed smoke: image cold start beats vanilla, patch spans traced"
if [ -x "$BUILD/bench/bench_restore" ] &&
   [ -x "$BUILD/tools/trace_check" ]; then
    BUILD_ABS="$(cd "$BUILD" && pwd)"
    RESTORE_JSON="$BUILD_ABS/check-restore.json"
    RESTORE_TRACE="$BUILD_ABS/check-restore-trace.json"
    # cd: the bench caches materialized artifacts under ./artifacts.
    if ! (cd "$BUILD_ABS" && ./bench/bench_restore --json \
            --reps=1 --trace-out "$RESTORE_TRACE") > "$RESTORE_JSON"; then
        fail "bench_restore reported a fidelity bug"
    else
        SPEEDUP=$(sed -n 's/.*"coldstart_speedup": \([0-9.]*\).*/\1/p' \
                      "$RESTORE_JSON")
        # Image cold start vs a vanilla cold start of the same model.
        # 1.5 is a smoke floor for sanitized single-rep runs (DESIGN.md
        # §13 has release numbers).
        if [ -z "$SPEEDUP" ] ||
           ! awk -v s="$SPEEDUP" 'BEGIN { exit !(s >= 1.5) }'; then
            fail "coldstart_speedup ${SPEEDUP:-missing} below 1.5x floor"
        fi
        if ! "$BUILD/tools/trace_check" --chrome "$RESTORE_TRACE" \
                --expect restore.image_open \
                --expect restore.patch_pass \
                --expect restore.graphs.patch; then
            fail "patch-pass spans missing from restore trace"
        fi
    fi
else
    fail "bench_restore / trace_check binaries missing"
fi

note "sim-scale smoke: truncated cluster-scale run, schema-checked"
if [ -x "$BUILD/bench/bench_cluster_scale" ] &&
   [ -x "$BUILD/tools/trace_check" ]; then
    SIM_JSON="$BUILD/check-sim.json"
    # A 10^5-request prefix keeps the sanitized smoke inside a tight
    # wall budget; the full million-request study runs unsanitized in
    # scripts/bench.sh.
    if ! timeout 300 "$BUILD/bench/bench_cluster_scale" --json \
            --requests=100000 > "$SIM_JSON"; then
        fail "bench_cluster_scale smoke failed or exceeded wall budget"
    elif ! "$BUILD/tools/trace_check" --sim "$SIM_JSON"; then
        fail "BENCH_sim JSON failed schema validation"
    fi
else
    fail "bench_cluster_scale / trace_check binaries missing"
fi

note "chaos smoke: armed ChaosPlan matrix, conservation hard-checked"
if [ -x "$BUILD/bench/bench_chaos" ] && [ -x "$BUILD/tools/trace_check" ]
then
    CHAOS_JSON="$BUILD/check-chaos.json"
    # bench_chaos exits non-zero itself if any matrix cell violates
    # request conservation, if the heaviest cell is not deterministic
    # across reruns, or if a disabled plan perturbs the simulation —
    # all three invariants run under ASan + UBSan here.
    if ! timeout 300 "$BUILD/bench/bench_chaos" --json \
            --requests=20000 > "$CHAOS_JSON"; then
        fail "bench_chaos smoke failed (conservation/determinism)"
    elif ! "$BUILD/tools/trace_check" --sim "$CHAOS_JSON"; then
        fail "BENCH_chaos JSON failed schema validation"
    fi
else
    fail "bench_chaos / trace_check binaries missing"
fi

note "serve smoke: loopback OpenAI front end, streamed + clean drain"
if [ -x "$BUILD/tools/medusa_serve" ] && [ -x "$BUILD/tools/trace_check" ]
then
    SERVE_METRICS="$BUILD/check-serve-metrics.json"
    # --smoke starts the server on an ephemeral loopback port, issues a
    # streamed completion (asserting the SSE frame count), a chat
    # completion, validation-error probes, then drains gracefully and
    # exits non-zero if anything — including request conservation in
    # the final TraceMetrics — went wrong.
    if ! timeout 120 "$BUILD/tools/medusa_serve" --smoke \
            "--metrics-out=$SERVE_METRICS" >/dev/null; then
        fail "medusa_serve --smoke failed (stream/drain)"
    elif ! "$BUILD/tools/trace_check" --metrics "$SERVE_METRICS"; then
        fail "serve metrics failed the closed server.* namespace check"
    fi
else
    fail "medusa_serve / trace_check binaries missing"
fi

note "lint-images: verify every materialized v6 image in the build tree"
if [ -x "$BUILD/tools/medusa_lint" ]; then
    IMAGES=$(find "$BUILD" -name '*.mdsi' 2>/dev/null)
    if [ -z "$IMAGES" ]; then
        fail "smoke runs produced no .mdsi image to verify"
    else
        for IMG in $IMAGES; do
            # --max-severity info: a shipped image must be clean even of
            # warnings, with every MDL8xx determinism rule silent.
            if ! "$BUILD/tools/medusa_lint" --max-severity info \
                    "$IMG" >/dev/null; then
                fail "medusa_lint rejected $IMG"
                "$BUILD/tools/medusa_lint" "$IMG" || true
            fi
        done
    fi
else
    fail "medusa_lint binary missing"
fi

note "fault-injected tier-1 suite under ASan (fixed fault seed)"
# An enabled-but-never-firing env plan keeps every MEDUSA_FAULT_POINT
# hook live through the whole suite: the sanitized tier-1 run must
# pass bit-identically with the injector threaded through the restore
# stack. The fault/rollback tests additionally fire their own seeded
# plans.
FAULT_PLAN='replay_prefix@1000000000;seed=20250805'
if [ -d "$BUILD" ]; then
    if ! MEDUSA_FAULT_PLAN="$FAULT_PLAN" \
            ctest --test-dir "$BUILD" --output-on-failure \
            -j "$(nproc)" -R 'Fault|Rollback|MedusaIntegration'; then
        fail "fault-injected ASan test run failed"
    fi
else
    skip "ASan build directory missing"
fi

note "concurrency tests under TSan (MEDUSA_TSAN)"
TSAN_BUILD="$BUILD-tsan"
if ! cmake -B "$TSAN_BUILD" -S "$ROOT" -DMEDUSA_TSAN=ON >/dev/null; then
    fail "TSan cmake configure failed"
elif ! cmake --build "$TSAN_BUILD" -j "$(nproc)" \
        --target artifact_cache_test fault_test rollback_test \
                 chaos_test \
        >/dev/null; then
    fail "TSan build failed"
elif ! MEDUSA_FAULT_PLAN='replay_prefix@1000000000;seed=20250805' \
        ctest --test-dir "$TSAN_BUILD" --output-on-failure \
        -j "$(nproc)" \
        -R 'ArtifactCache|Fault|Rollback|Chaos'; then
    # The Chaos suite's concurrent-runs test drives the crash-requeue
    # path from two threads sharing a const plan/profile/trace.
    fail "TSan test run failed"
fi

note "golden fixtures and kernel oracles in a Release build"
# The benchmark (perfbench/run.py) measures a Release build, while
# tier-1 builds RelWithDebInfo and the passes above add sanitizer
# flags. Bit-identity is what lets the benchmark's virtual TTFT stay
# unchanged, so it is also checked under the flags perfbench measures.
REL_BUILD="$BUILD-release"
REL_TESTS="golden_numeric_test cluster_equiv_test kernels_test tokenizer_test"
if ! cmake -B "$REL_BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
        >/dev/null; then
    fail "Release cmake configure failed"
# shellcheck disable=SC2086
elif ! cmake --build "$REL_BUILD" -j "$(nproc)" --target $REL_TESTS \
        >/dev/null; then
    fail "Release build failed"
else
    for TEST in $REL_TESTS; do
        if ! "$REL_BUILD/tests/$TEST" --gtest_brief=1; then
            fail "Release $TEST failed"
        fi
    done
fi

note "FMA guard: no fused multiply-add in the Release functional kernels"
# -ffp-contract=off (src/simcuda/CMakeLists.txt) keeps every product
# and sum separately rounded (DESIGN.md, "Functional kernel arithmetic
# contract"). Without it the AVX-512 GEMM variant contracts them into
# vfmadd and no longer matches the naive loop bit for bit.
KERNELS_OBJ="$REL_BUILD/src/simcuda/CMakeFiles/medusa_simcuda.dir/kernels/builtin.cc.o"
if ! command -v objdump >/dev/null 2>&1; then
    skip "objdump not installed"
elif [ ! -f "$KERNELS_OBJ" ]; then
    fail "Release kernel object missing: $KERNELS_OBJ"
else
    FMA=$(objdump -d "$KERNELS_OBJ" |
          grep -cE '[[:space:]]vfn?m(add|sub)')
    if [ "$FMA" -ne 0 ]; then
        fail "$FMA fused multiply-add instruction(s) in builtin.cc.o"
    fi
fi

note "summary"
if [ "$FAILURES" -ne 0 ]; then
    echo "$FAILURES check(s) failed"
    exit 1
fi
echo "all checks passed"
