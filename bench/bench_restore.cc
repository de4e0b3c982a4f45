/**
 * @file
 * Host wall-clock benchmark of the online restore: v6 image open, the
 * Medusa cold start (open + relocation patch, DESIGN.md §13) against a
 * vanilla profile+capture cold start of the same model.
 *
 * Everything timed here is *host* time — the simulator's own speed;
 * the virtual loading latency of both arms is reported alongside. One
 * invariant is asserted and reported: `fidelity_identical` — the
 * restored graphs replay to the same decode logits as the vanilla
 * engine's freshly captured graphs, and the restore's own validation
 * (graph replay vs eager forwarding) passes.
 *
 * Trials of the timed arms are interleaved with an alternating start
 * order and preceded by an untimed warmup of every arm, so neither arm
 * systematically benefits from allocator / page-cache state the other
 * warmed up.
 *
 * --json emits one machine-readable object (scripts/bench.sh captures
 * it as BENCH_restore.json).
 */

#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "llm/engine.h"
#include "llm/model_config.h"
#include "medusa/restore.h"

namespace medusa::bench {
namespace {

using SteadyClock = std::chrono::steady_clock;

f64
msBetween(SteadyClock::time_point a, SteadyClock::time_point b)
{
    return std::chrono::duration<f64, std::milli>(b - a).count();
}

/** Best-of-reps wall time of fn(), in milliseconds. */
template <typename Fn>
f64
bestMs(int reps, Fn &&fn)
{
    f64 best = 1e300;
    for (int i = 0; i < reps; ++i) {
        const auto start = SteadyClock::now();
        fn();
        best = std::min(best, msBetween(start, SteadyClock::now()));
    }
    return best;
}

struct ColdStartSample
{
    f64 wall_ms = 1e300;
    StageTimes times;
    RestoreReport report;
};

/**
 * One Medusa cold start: v6 open + coldStartFromImage. The open is
 * inside the timed window — it is part of what a serverless cold start
 * pays.
 */
ColdStartSample
runPatchArm(const llm::ModelConfig &model, std::span<const u8> image_bytes)
{
    ColdStartSample s;
    const auto start = SteadyClock::now();
    auto image = unwrap(core::MaterializedImage::openView(image_bytes),
                        "image open");
    core::MedusaEngine::Options opts;
    opts.model = model;
    auto engine =
        unwrap(core::MedusaEngine::coldStartFromImage(opts, image),
               "patch cold start");
    s.wall_ms = msBetween(start, SteadyClock::now());
    s.times = engine->coldStartReport().times;
    s.report = engine->coldStartReport().restore;
    return s;
}

/** One vanilla vLLM cold start (profile + capture) of the same model. */
ColdStartSample
runVanillaArm(const llm::ModelConfig &model)
{
    ColdStartSample s;
    const auto start = SteadyClock::now();
    llm::BaselineEngine::Options opts;
    opts.model = model;
    opts.strategy = llm::Strategy::kVllm;
    auto engine = unwrap(llm::BaselineEngine::coldStart(opts),
                         "vanilla cold start");
    s.wall_ms = msBetween(start, SteadyClock::now());
    s.times = engine->coldStartReport().times;
    return s;
}

/** Keep the faster trial's wall time; the virtual results never vary. */
void
keepBest(ColdStartSample &best, ColdStartSample trial)
{
    const f64 wall = std::min(best.wall_ms, trial.wall_ms);
    best = std::move(trial);
    best.wall_ms = wall;
}

/**
 * The fidelity probe (outside the timed windows): a validating
 * restore, whose bs=1 graph logits must equal those of a vanilla
 * engine's own capture. Carries the --trace-out / --metrics-out sinks,
 * so the exported trace shows one image cold start.
 */
bool
fidelityProbe(const llm::ModelConfig &model, std::span<const u8> image_bytes,
              Reporter &reporter)
{
    auto image = unwrap(core::MaterializedImage::openView(image_bytes),
                        "probe open");
    core::MedusaEngine::Options opts;
    opts.model = model;
    opts.restore.pipeline.validate = true;
    opts.restore.pipeline.validate_batch_sizes = {1};
    opts.restore.pipeline.trace = reporter.trace();
    opts.restore.pipeline.metrics = reporter.metrics();
    auto restored =
        unwrap(core::MedusaEngine::coldStartFromImage(opts, image),
               "probe cold start");
    llm::BaselineEngine::Options bopts;
    bopts.model = model;
    bopts.strategy = llm::Strategy::kVllm;
    auto vanilla = unwrap(llm::BaselineEngine::coldStart(bopts),
                          "probe vanilla cold start");

    llm::ModelRuntime &a = restored->runtime();
    llm::ModelRuntime &b = vanilla->runtime();
    checkOk(a.stageValidationState(1), "probe stage state");
    checkOk(b.stageValidationState(1), "probe stage state");
    const std::vector<f32> got = unwrap(a.graphDecodeLogits(1), "logits");
    const std::vector<f32> want = unwrap(b.graphDecodeLogits(1), "logits");
    return restored->coldStartReport().restore.validated && !got.empty() &&
           got == want;
}

int
run(int argc, char **argv)
{
    Reporter reporter(argc, argv);
    bool json = false;
    std::string model_name = "Llama2-13B";
    int reps = 3;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg.rfind("--model=", 0) == 0) {
            model_name = arg.substr(8);
        } else if (arg.rfind("--reps=", 0) == 0) {
            reps = std::stoi(arg.substr(7));
        } else {
            std::fprintf(stderr,
                         "usage: %s [--json] [--model=NAME] [--reps=N]\n",
                         argv[0]);
            return 2;
        }
    }

    const llm::ModelConfig model =
        unwrap(llm::findModel(model_name), "model lookup");
    const std::vector<u8> image_bytes =
        unwrap(materializeCached(model), "materialization");
    const std::span<const u8> image_view(image_bytes);
    const core::MaterializedImage layout = openImage(image_bytes);

    const f64 image_open_ms = bestMs(reps, [&]() {
        auto img = core::MaterializedImage::openView(image_view);
        checkOk(img.status(), "image open");
    });

    // ---- cold start: image patch vs vanilla profile + capture ------------
    runPatchArm(model, image_view);
    runVanillaArm(model);
    ColdStartSample patch;
    ColdStartSample vanilla;
    for (int i = 0; i < reps; ++i) {
        if (i % 2 == 0) {
            keepBest(patch, runPatchArm(model, image_view));
            keepBest(vanilla, runVanillaArm(model));
        } else {
            keepBest(vanilla, runVanillaArm(model));
            keepBest(patch, runPatchArm(model, image_view));
        }
    }
    const bool fidelity = fidelityProbe(model, image_view, reporter);

    const f64 speedup = vanilla.wall_ms / std::max(patch.wall_ms, 1e-9);
    if (json) {
        std::printf(
            "{\n"
            "  \"model\": \"%s\",\n"
            "  \"image_bytes\": %zu,\n"
            "  \"graphs\": %zu,\n"
            "  \"nodes\": %llu,\n"
            "  \"image_open_ms\": %.3f,\n"
            "  \"coldstart_patch_wall_ms\": %.3f,\n"
            "  \"coldstart_vanilla_wall_ms\": %.3f,\n"
            "  \"coldstart_speedup\": %.2f,\n"
            "  \"relocations_applied\": %llu,\n"
            "  \"kernels_resolved\": %llu,\n"
            "  \"graphs_patched\": %llu,\n"
            "  \"patch_simulated_loading_sec\": %.6f,\n"
            "  \"vanilla_simulated_loading_sec\": %.6f,\n"
            "  \"fidelity_identical\": %s\n"
            "}\n",
            model.name.c_str(), image_bytes.size(), layout.graphs.size(),
            static_cast<unsigned long long>(layout.total_nodes),
            image_open_ms, patch.wall_ms, vanilla.wall_ms, speedup,
            static_cast<unsigned long long>(
                patch.report.relocations_applied),
            static_cast<unsigned long long>(patch.report.kernels_resolved),
            static_cast<unsigned long long>(patch.report.graphs_patched),
            patch.times.loading, vanilla.times.loading,
            fidelity ? "true" : "false");
    } else {
        std::printf("online restore — %s (%zu graphs, %llu nodes, %zu "
                    "image bytes)\n",
                    model.name.c_str(), layout.graphs.size(),
                    static_cast<unsigned long long>(layout.total_nodes),
                    image_bytes.size());
        printRule();
        std::printf("image open                 %8.3f ms\n", image_open_ms);
        std::printf("cold start image patch     %8.3f ms wall  (%.2fx, "
                    "%llu relocations)\n",
                    patch.wall_ms, speedup,
                    static_cast<unsigned long long>(
                        patch.report.relocations_applied));
        std::printf("cold start vanilla vLLM    %8.3f ms wall\n",
                    vanilla.wall_ms);
        std::printf("simulated loading patch    %8.3f ms (graph logits "
                    "match vanilla capture: %s)\n",
                    patch.times.loading * 1e3,
                    fidelity ? "yes" : "NO — FIDELITY BUG");
        std::printf("simulated loading vanilla  %8.3f ms\n",
                    vanilla.times.loading * 1e3);
    }
    reporter.finish();
    return fidelity ? 0 : 1;
}

} // namespace
} // namespace medusa::bench

int
main(int argc, char **argv)
{
    return medusa::bench::run(argc, argv);
}
