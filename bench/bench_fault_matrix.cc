/**
 * @file
 * Fault matrix: how the transactional restore degrades under injected
 * failures.
 *
 * Two sweeps:
 *  1. Engine matrix — every restore-stack fault point × every fallback
 *     policy, one cold start each (the fault fires on the first attempt
 *     only), reporting the outcome and the latency the degraded path
 *     paid on top of a clean restore.
 *  2. Trace sweep — the §7.5 ShareGPT-like trace replayed against a
 *     Medusa-profiled cluster with 0%, 1% and 5% of cold-start restores
 *     failing (artifact corruption on the node), under
 *     retry-then-vanilla: p50/p99 TTFT and the failure accounting.
 *
 * --json emits one machine-readable object (scripts/bench.sh captures
 * it as BENCH_fault.json).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/fault.h"
#include "medusa/restore.h"
#include "serverless/cluster.h"

using namespace medusa;
using bench::unwrap;

namespace {

struct MatrixCell
{
    std::string point;
    std::string policy;
    bool ok = false;
    bool fallback_vanilla = false;
    u64 attempts = 0;
    u64 retries = 0;
    f64 loading_sec = 0;
    f64 wasted_sec = 0;
};

const char *
policyName(core::FallbackMode mode)
{
    switch (mode) {
    case core::FallbackMode::kFail:
        return "fail";
    case core::FallbackMode::kVanillaColdStart:
        return "vanilla";
    case core::FallbackMode::kRetryThenVanilla:
        return "retry";
    }
    return "?";
}

/** One cold start with @p point firing on the first attempt only. */
MatrixCell
runCell(const llm::ModelConfig &model, const core::MaterializedImage &image,
        FaultPoint point, core::FallbackMode mode)
{
    FaultPlan plan;
    plan.rule(point).fire_on_hit = 1;
    plan.rule(point).max_fires = 1;
    FaultInjector injector(plan);

    core::MedusaEngine::Options opts;
    opts.model = model;
    opts.aslr_seed = 20250805;
    opts.restore.pipeline.validate = true; // tp_lockstep has no single-GPU hook;
    opts.restore.pipeline.validate_batch_sizes = {1};
    opts.restore.pipeline.fault = &injector;
    opts.restore.fallback.mode = mode;
    opts.restore.fallback.max_attempts = 2;

    MatrixCell cell;
    cell.point = faultPointName(point);
    cell.policy = policyName(mode);
    auto engine = core::MedusaEngine::coldStartFromImage(opts, image);
    cell.ok = engine.isOk();
    if (engine.isOk()) {
        const RestoreReport &r = (*engine)->coldStartReport().restore;
        cell.fallback_vanilla = r.fallback_vanilla;
        cell.attempts = r.restore_attempts;
        cell.retries = r.retries;
        cell.loading_sec = (*engine)->coldStartReport().times.loading;
        cell.wasted_sec = r.wasted_restore_sec;
    } else if (injector.totalFires() == 0) {
        // The point never fired (not on this restore path): mark the
        // row invalid rather than report a misleading failure.
        cell.policy += " (point not on path)";
    }
    return cell;
}

struct TraceRow
{
    f64 corruption = 0;
    f64 p50_ttft = 0;
    f64 p99_ttft = 0;
    u64 completed = 0;
    u64 cold_starts = 0;
    u64 restore_failures = 0;
    u64 fallback_cold_starts = 0;
    u64 retries = 0;
    f64 wasted_restore_sec = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::Reporter reporter(argc, argv);
    bool json = false;
    std::string model_name = "Qwen1.5-4B";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg.rfind("--model=", 0) == 0) {
            model_name = arg.substr(8);
        } else {
            std::fprintf(stderr, "usage: %s [--json] [--model=NAME]\n",
                         argv[0]);
            return 2;
        }
    }

    const llm::ModelConfig model =
        unwrap(llm::findModel(model_name), "model lookup");
    const core::OfflineResult m = unwrap(
        core::materialize(bench::offlineOptions(model)), "materialization");
    const core::MaterializedImage image = bench::openImage(m.image_bytes);

    // ---- engine matrix: fault point × fallback policy -------------------
    // Points that sit on the single-GPU restore path, in stack order.
    const FaultPoint points[] = {
        FaultPoint::kReplayPrefix,   FaultPoint::kReplayAlloc,
        FaultPoint::kKernelDlsym,    FaultPoint::kKernelEnumeration,
        FaultPoint::kGraphInstantiate,
    };
    const core::FallbackMode modes[] = {
        core::FallbackMode::kFail,
        core::FallbackMode::kVanillaColdStart,
        core::FallbackMode::kRetryThenVanilla,
    };

    // Clean reference restore for the overhead column.
    f64 clean_loading = 0;
    {
        core::MedusaEngine::Options opts;
        opts.model = model;
        opts.aslr_seed = 20250805;
        opts.restore.pipeline.validate = true;
        opts.restore.pipeline.validate_batch_sizes = {1};
        auto engine = core::MedusaEngine::coldStartFromImage(opts, image);
        bench::checkOk(engine.status(), "clean restore");
        clean_loading = (*engine)->coldStartReport().times.loading;
    }

    std::vector<MatrixCell> matrix;
    for (FaultPoint point : points) {
        for (core::FallbackMode mode : modes) {
            matrix.push_back(runCell(model, image, point, mode));
        }
    }

    // ---- §7.5 trace under artifact corruption ----------------------------
    serverless::ProfileOptions popts;
    popts.model = model;
    popts.strategy = llm::Strategy::kMedusa;
    popts.artifact = &m.artifact;
    const serverless::ServingProfile medusa_profile =
        unwrap(serverless::buildServingProfile(popts), "medusa profile");
    popts.strategy = llm::Strategy::kVllm;
    popts.artifact = nullptr;
    const serverless::ServingProfile vllm_profile =
        unwrap(serverless::buildServingProfile(popts), "vllm profile");

    workload::TraceOptions topts;
    topts.requests_per_sec = 2;
    topts.duration_sec = 600;
    topts.seed = 20250805;
    const std::vector<workload::Request> trace =
        workload::generateShareGptTrace(topts);

    std::vector<TraceRow> rows;
    u32 sweep_track = 0;
    for (f64 corruption : {0.0, 0.01, 0.05}) {
        FaultPlan plan;
        plan.seed = 4242;
        plan.rule(FaultPoint::kClusterRestore).probability = corruption;
        FaultInjector injector(plan);

        TraceRecorder run_trace; // sink; cluster events are pre-timed
        serverless::ClusterOptions copts;
        copts.pipeline.fault = corruption > 0 ? &injector : nullptr;
        copts.pipeline.trace =
            reporter.trace() != nullptr ? &run_trace : nullptr;
        copts.pipeline.metrics = reporter.metrics();
        copts.fallback.mode = core::FallbackMode::kRetryThenVanilla;
        copts.fallback.max_attempts = 2;
        // A launch that degrades pays the classic cold start.
        copts.vanilla_cold_start_sec = vllm_profile.cold_start_sec;
        copts.profile = &medusa_profile;
        const serverless::TraceMetrics metrics =
            serverless::simulateCluster(copts, trace);
        if (reporter.trace() != nullptr) {
            reporter.addSpans(run_trace.events(), sweep_track);
            char label[48];
            std::snprintf(label, sizeof(label),
                          "cluster corruption=%.0f%%",
                          corruption * 100);
            reporter.setTrackName(sweep_track, label);
            reporter.setTrackName(sweep_track + 1, "requests");
            sweep_track += 2;
        }

        TraceRow row;
        row.corruption = corruption;
        row.p50_ttft = metrics.ttft_sec.p50();
        row.p99_ttft = metrics.ttft_sec.p99();
        row.completed = metrics.completed;
        const MetricsSnapshot &c = metrics.metrics;
        row.cold_starts = c.counterValue("cluster.cold_starts");
        row.restore_failures = c.counterValue("cluster.restore_failures");
        row.fallback_cold_starts =
            c.counterValue("cluster.fallback_cold_starts");
        row.retries = c.counterValue("cluster.retries");
        row.wasted_restore_sec = c.gaugeValue("cluster.wasted_restore_sec");
        rows.push_back(row);

        // Every request must complete no matter the corruption rate.
        if (metrics.completed != trace.size()) {
            std::fprintf(stderr,
                         "FAIL: %llu/%zu requests completed at "
                         "corruption %.2f\n",
                         static_cast<unsigned long long>(
                             metrics.completed),
                         trace.size(), corruption);
            return 1;
        }
    }

    // Traced-only showcase: the probabilistic sweep above sees so few
    // cold starts that at 1–5% corruption no fault may fire, so a
    // trace could miss the degraded path entirely. Replay the trace
    // once more with the first launch's restore deterministically
    // failing both attempts (retry, then vanilla fallback) so the
    // exported trace always covers restore.attempt_failed and
    // fallback.vanilla_cold_start. Runs only under --trace-out; the
    // printed tables are untouched.
    if (reporter.trace() != nullptr) {
        FaultPlan plan;
        plan.seed = 4242;
        plan.rule(FaultPoint::kClusterRestore).probability = 1.0;
        plan.rule(FaultPoint::kClusterRestore).max_fires = 2;
        FaultInjector injector(plan);

        TraceRecorder run_trace;
        serverless::ClusterOptions copts;
        copts.pipeline.fault = &injector;
        copts.pipeline.trace = &run_trace;
        copts.pipeline.metrics = reporter.metrics();
        copts.fallback.mode = core::FallbackMode::kRetryThenVanilla;
        copts.fallback.max_attempts = 2;
        copts.vanilla_cold_start_sec = vllm_profile.cold_start_sec;
        copts.profile = &medusa_profile;
        serverless::simulateCluster(copts, trace);
        reporter.addSpans(run_trace.events(), sweep_track);
        reporter.setTrackName(sweep_track, "cluster fault showcase");
        reporter.setTrackName(sweep_track + 1, "requests");
    }

    if (json) {
        std::printf("{\n  \"model\": \"%s\",\n", model.name.c_str());
        std::printf("  \"clean_loading_sec\": %.6f,\n", clean_loading);
        std::printf("  \"engine_matrix\": [\n");
        for (std::size_t i = 0; i < matrix.size(); ++i) {
            const MatrixCell &c = matrix[i];
            std::printf(
                "    {\"point\": \"%s\", \"policy\": \"%s\", "
                "\"ok\": %s, \"fallback_vanilla\": %s, "
                "\"attempts\": %llu, \"retries\": %llu, "
                "\"loading_sec\": %.6f, \"wasted_sec\": %.6f}%s\n",
                c.point.c_str(), c.policy.c_str(),
                c.ok ? "true" : "false",
                c.fallback_vanilla ? "true" : "false",
                static_cast<unsigned long long>(c.attempts),
                static_cast<unsigned long long>(c.retries),
                c.loading_sec, c.wasted_sec,
                i + 1 < matrix.size() ? "," : "");
        }
        std::printf("  ],\n");
        std::printf("  \"trace_rps\": %.1f,\n", topts.requests_per_sec);
        std::printf("  \"trace_requests\": %zu,\n", trace.size());
        std::printf("  \"corruption_sweep\": [\n");
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const TraceRow &r = rows[i];
            std::printf(
                "    {\"corruption\": %.2f, \"p50_ttft_sec\": %.4f, "
                "\"p99_ttft_sec\": %.4f, \"completed\": %llu, "
                "\"cold_starts\": %llu, \"restore_failures\": %llu, "
                "\"fallback_cold_starts\": %llu, \"retries\": %llu, "
                "\"wasted_restore_sec\": %.4f}%s\n",
                r.corruption, r.p50_ttft, r.p99_ttft,
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.cold_starts),
                static_cast<unsigned long long>(r.restore_failures),
                static_cast<unsigned long long>(r.fallback_cold_starts),
                static_cast<unsigned long long>(r.retries),
                r.wasted_restore_sec, i + 1 < rows.size() ? "," : "");
        }
        std::printf("  ]\n}\n");
    } else {
        std::printf("=== fault matrix — %s ===\n\n", model.name.c_str());
        std::printf("clean Medusa loading: %.4f s\n\n", clean_loading);
        std::printf("%-14s %-9s %-6s %-9s %9s %9s %10s\n", "point",
                    "policy", "ok", "fallback", "attempts",
                    "retries", "loading(s)");
        for (const MatrixCell &c : matrix) {
            std::printf("%-14s %-9s %-6s %-9s %9llu %9llu %10.4f\n",
                        c.point.c_str(), c.policy.c_str(),
                        c.ok ? "yes" : "FAIL",
                        c.fallback_vanilla ? "vanilla" : "-",
                        static_cast<unsigned long long>(c.attempts),
                        static_cast<unsigned long long>(c.retries),
                        c.loading_sec);
        }
        std::printf("\n--- §7.5 trace (%zu requests, RPS %.0f) under "
                    "artifact corruption, retry-then-vanilla ---\n",
                    trace.size(), topts.requests_per_sec);
        std::printf("%-10s %10s %10s %8s %8s %8s %8s %10s\n",
                    "corruption", "p50 TTFT", "p99 TTFT", "colds",
                    "fails", "retries", "fallbk", "wasted(s)");
        for (const TraceRow &r : rows) {
            std::printf(
                "%9.0f%% %10.4f %10.4f %8llu %8llu %8llu %8llu "
                "%10.3f\n",
                r.corruption * 100, r.p50_ttft, r.p99_ttft,
                static_cast<unsigned long long>(r.cold_starts),
                static_cast<unsigned long long>(r.restore_failures),
                static_cast<unsigned long long>(r.retries),
                static_cast<unsigned long long>(r.fallback_cold_starts),
                r.wasted_restore_sec);
        }
    }
    reporter.finish();
    return 0;
}
