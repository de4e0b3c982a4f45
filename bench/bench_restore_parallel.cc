/**
 * @file
 * Host wall-clock benchmark of the restore pipeline: artifact parse
 * (serial vs multi-threaded vs contents-skipping), v6 image open, the
 * two cold-start paths — v5 parse + graph rebuild vs v6 open +
 * relocation patch (DESIGN.md §13) — and the materialization caches
 * (miss vs hit, artifact and image).
 *
 * Everything here measures *host* time — the simulator's own speed.
 * Two invariants are asserted and reported:
 *   - determinism: the rebuild path's simulated StageTimes and
 *     RestoreReport are bit-identical across restore thread counts
 *     (`simulated_identical`);
 *   - fidelity: the patch path lands the engine in a state with the
 *     same process fingerprint and decode logits as the rebuild path
 *     (`fidelity_identical`). The two paths legitimately differ in
 *     simulated duration and in how kernels were resolved (per-node vs
 *     per-unique-kernel), so those are reported, not compared.
 *
 * Trials of the timed arms are interleaved with a rotating start order
 * and preceded by an untimed warmup of every arm, so no arm
 * systematically benefits from allocator / page-cache state the
 * earlier arms warmed up. Cache benchmarks reset cache state between
 * miss trials.
 *
 * --json emits one machine-readable object (scripts/bench.sh captures
 * it as BENCH_restore.json).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "llm/model_config.h"
#include "medusa/artifact_cache.h"
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
    f64 wall_ms = 0;
    StageTimes times;
    RestoreReport report;
    /** Post-restore process state fingerprint (fidelity witness). */
    u64 fingerprint = 0;
    /** Decode logits for bs=1 on the restored graphs (fidelity). */
    std::vector<f32> logits;
};

/**
 * One rebuild-path cold start: v5 parse + coldStart (graph rebuild).
 * The parse is inside the timed window — it is part of what a
 * serverless cold start pays. @p probe additionally snapshots the
 * fidelity witnesses (outside the timed window).
 */
ColdStartSample
runRebuildArm(const llm::ModelConfig &model,
              std::span<const u8> artifact_bytes, u32 restore_threads,
              bool probe = false, TraceRecorder *trace = nullptr,
              MetricsRegistry *metrics = nullptr)
{
    ColdStartSample s;
    const auto start = SteadyClock::now();
    core::ArtifactReadOptions ro;
    ro.threads = restore_threads;
    auto artifact = unwrap(
        core::Artifact::deserializeView(artifact_bytes, ro),
        "rebuild arm parse");
    core::MedusaEngine::Options opts;
    opts.model = model;
    opts.restore.restore_threads = restore_threads;
    opts.restore.pipeline.trace = trace;
    opts.restore.pipeline.metrics = metrics;
    auto engine = unwrap(core::MedusaEngine::coldStart(opts, artifact),
                         "rebuild cold start");
    s.wall_ms = msBetween(start, SteadyClock::now());
    s.times = engine->coldStartReport().times;
    s.report = engine->coldStartReport().restore;
    if (probe) {
        llm::ModelRuntime &rt = engine->runtime();
        // Logical fingerprint: the patch path reaches the same state
        // at an earlier simulated clock, so time-derived stream
        // readiness is excluded; the allocator digest rides along.
        s.fingerprint = rt.process().logicalStateFingerprint() ^
                        (rt.allocator().stateFingerprint() * 31);
        checkOk(rt.stageValidationState(1), "rebuild stage state");
        s.logits = unwrap(rt.graphDecodeLogits(1), "rebuild logits");
    }
    return s;
}

/**
 * One patch-path cold start: v6 open + coldStartFromImage (relocation
 * patch, no graph rebuild). Open is inside the timed window.
 */
ColdStartSample
runPatchArm(const llm::ModelConfig &model,
            std::span<const u8> image_bytes, u32 restore_threads,
            bool probe = false, TraceRecorder *trace = nullptr,
            MetricsRegistry *metrics = nullptr)
{
    ColdStartSample s;
    const auto start = SteadyClock::now();
    auto image = unwrap(core::MaterializedImage::openView(image_bytes),
                        "patch arm open");
    core::MedusaEngine::Options opts;
    opts.model = model;
    opts.restore.restore_threads = restore_threads;
    opts.restore.pipeline.trace = trace;
    opts.restore.pipeline.metrics = metrics;
    auto engine =
        unwrap(core::MedusaEngine::coldStartFromImage(opts, image),
               "patch cold start");
    s.wall_ms = msBetween(start, SteadyClock::now());
    s.times = engine->coldStartReport().times;
    s.report = engine->coldStartReport().restore;
    if (probe) {
        llm::ModelRuntime &rt = engine->runtime();
        // Logical fingerprint: the patch path reaches the same state
        // at an earlier simulated clock, so time-derived stream
        // readiness is excluded; the allocator digest rides along.
        s.fingerprint = rt.process().logicalStateFingerprint() ^
                        (rt.allocator().stateFingerprint() * 31);
        checkOk(rt.stageValidationState(1), "patch stage state");
        s.logits = unwrap(rt.graphDecodeLogits(1), "patch logits");
    }
    return s;
}

bool
sameTimes(const StageTimes &a, const StageTimes &b)
{
    return a.struct_init == b.struct_init && a.weights == b.weights &&
           a.tokenizer == b.tokenizer && a.kv_init == b.kv_init &&
           a.capture == b.capture && a.runtime_init == b.runtime_init &&
           a.loading == b.loading;
}

bool
sameReport(const RestoreReport &a, const RestoreReport &b)
{
    return a.nodes_restored == b.nodes_restored &&
           a.graphs_restored == b.graphs_restored &&
           a.kernels_via_dlsym == b.kernels_via_dlsym &&
           a.kernels_via_enumeration == b.kernels_via_enumeration &&
           a.replayed_allocs == b.replayed_allocs &&
           a.replayed_frees == b.replayed_frees &&
           a.restored_content_bytes == b.restored_content_bytes &&
           a.indirect_pointers_fixed == b.indirect_pointers_fixed &&
           a.relocations_applied == b.relocations_applied &&
           a.kernels_resolved == b.kernels_resolved &&
           a.graphs_patched == b.graphs_patched;
}

int
run(int argc, char **argv)
{
    Reporter reporter(argc, argv);
    bool json = false;
    std::string model_name = "Llama2-13B";
    u32 threads = 0; // 0 = hardware concurrency
    int reps = 3;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg.rfind("--model=", 0) == 0) {
            model_name = arg.substr(8);
        } else if (arg.rfind("--threads=", 0) == 0) {
            threads = static_cast<u32>(std::stoul(arg.substr(10)));
        } else if (arg.rfind("--reps=", 0) == 0) {
            reps = std::stoi(arg.substr(7));
        } else {
            std::fprintf(stderr,
                         "usage: %s [--json] [--model=NAME] "
                         "[--threads=N] [--reps=N]\n",
                         argv[0]);
            return 2;
        }
    }
    const u32 hw = ThreadPool::hardwareThreads();
    if (threads == 0) {
        threads = hw;
    }

    const llm::ModelConfig model =
        unwrap(llm::findModel(model_name), "model lookup");
    const core::Artifact artifact =
        unwrap(materializeCached(model), "materialization");
    const std::vector<u8> bytes = artifact.serialize();
    const std::vector<u8> image_bytes =
        unwrap(materializeImageCached(model), "image materialization");
    const std::span<const u8> view(bytes);
    const std::span<const u8> image_view(image_bytes);

    // ---- artifact parse / image open --------------------------------------
    const f64 parse_serial_ms = bestMs(reps, [&]() {
        core::ArtifactReadOptions o;
        auto a = core::Artifact::deserializeView(view, o);
        checkOk(a.status(), "serial parse");
    });
    const f64 parse_parallel_ms = bestMs(reps, [&]() {
        core::ArtifactReadOptions o;
        o.threads = threads;
        auto a = core::Artifact::deserializeView(view, o);
        checkOk(a.status(), "parallel parse");
    });
    const f64 parse_skip_contents_ms = bestMs(reps, [&]() {
        core::ArtifactReadOptions o;
        o.load_permanent_contents = false;
        auto a = core::Artifact::deserializeView(view, o);
        checkOk(a.status(), "skip-contents parse");
    });
    // The pre-zero-copy baseline: hand the parser an owned copy.
    const f64 parse_owning_ms = bestMs(reps, [&]() {
        auto a = core::Artifact::deserialize(bytes);
        checkOk(a.status(), "owning parse");
    });
    const f64 image_open_ms = bestMs(reps, [&]() {
        auto img = core::MaterializedImage::openView(image_view);
        checkOk(img.status(), "image open");
    });

    // ---- cold start: rebuild (1 and N threads) vs relocation patch --------
    // Untimed warmup of every arm first, then interleaved trials with a
    // rotating start order: no arm gets a systematic warm-state edge.
    runRebuildArm(model, view, 1);
    runRebuildArm(model, view, threads);
    runPatchArm(model, image_view, threads);

    ColdStartSample serial;
    ColdStartSample parallel;
    ColdStartSample patch;
    serial.wall_ms = parallel.wall_ms = patch.wall_ms = 1e300;
    bool identical = true;
    auto takeSerial = [&]() {
        ColdStartSample s = runRebuildArm(model, view, 1);
        if (serial.wall_ms > 1e299) {
            serial = std::move(s);
        } else {
            identical = identical && sameTimes(serial.times, s.times) &&
                        sameReport(serial.report, s.report);
            serial.wall_ms = std::min(serial.wall_ms, s.wall_ms);
        }
    };
    auto takeParallel = [&]() {
        ColdStartSample s = runRebuildArm(model, view, threads);
        if (parallel.wall_ms > 1e299) {
            parallel = std::move(s);
        } else {
            parallel.wall_ms = std::min(parallel.wall_ms, s.wall_ms);
        }
    };
    auto takePatch = [&]() {
        ColdStartSample s = runPatchArm(model, image_view, threads);
        if (patch.wall_ms > 1e299) {
            patch = std::move(s);
        } else {
            patch.wall_ms = std::min(patch.wall_ms, s.wall_ms);
        }
    };
    for (int i = 0; i < reps; ++i) {
        switch (i % 3) {
        case 0:
            takeSerial();
            takeParallel();
            takePatch();
            break;
        case 1:
            takeParallel();
            takePatch();
            takeSerial();
            break;
        default:
            takePatch();
            takeSerial();
            takeParallel();
            break;
        }
    }
    identical = identical && sameTimes(serial.times, parallel.times) &&
                sameReport(serial.report, parallel.report);

    // ---- fidelity: patch path must equal rebuild path -----------------
    // Asserted once, outside the timed windows (the probes decode).
    // The probes also carry the --trace-out / --metrics-out sinks, so
    // the exported trace shows one rebuild and one patch cold start.
    const ColdStartSample rebuild_probe =
        runRebuildArm(model, view, threads, /*probe=*/true,
                      reporter.trace(), reporter.metrics());
    const ColdStartSample patch_probe =
        runPatchArm(model, image_view, threads, /*probe=*/true,
                    reporter.trace(), reporter.metrics());
    const bool fidelity =
        rebuild_probe.fingerprint == patch_probe.fingerprint &&
        !rebuild_probe.logits.empty() &&
        rebuild_probe.logits == patch_probe.logits;

    // ---- materialization caches: miss vs hit ------------------------------
    // Miss trials reset the cache state first so every trial pays a
    // genuine load; hit trials run against a warm entry.
    core::ArtifactCache cache;
    auto loader = [&]() {
        return core::Artifact::deserializeView(view);
    };
    f64 cache_miss_ms = 1e300;
    for (int i = 0; i < reps; ++i) {
        cache.clear();
        const auto start = SteadyClock::now();
        auto loaded = cache.getOrLoad("bench", loader);
        cache_miss_ms =
            std::min(cache_miss_ms, msBetween(start, SteadyClock::now()));
        checkOk(loaded.status(), "cache miss load");
    }
    const f64 cache_hit_ms = bestMs(reps, [&]() {
        auto again = cache.getOrLoad("bench", loader);
        checkOk(again.status(), "cache hit load");
    });
    core::ImageCache image_cache;
    auto image_loader = [&]() {
        return core::MaterializedImage::openView(image_view);
    };
    f64 image_cache_miss_ms = 1e300;
    for (int i = 0; i < reps; ++i) {
        image_cache.clear();
        const auto start = SteadyClock::now();
        auto loaded = image_cache.getOrLoad("bench", image_loader);
        image_cache_miss_ms = std::min(
            image_cache_miss_ms, msBetween(start, SteadyClock::now()));
        checkOk(loaded.status(), "image cache miss load");
    }
    const f64 image_cache_hit_ms = bestMs(reps, [&]() {
        auto again = image_cache.getOrLoad("bench", image_loader);
        checkOk(again.status(), "image cache hit load");
    });

    const f64 coldstart_speedup =
        serial.wall_ms / std::max(patch.wall_ms, 1e-9);
    if (json) {
        std::printf(
            "{\n"
            "  \"model\": \"%s\",\n"
            "  \"artifact_bytes\": %zu,\n"
            "  \"image_bytes\": %zu,\n"
            "  \"graphs\": %zu,\n"
            "  \"nodes\": %llu,\n"
            "  \"hardware_concurrency\": %u,\n"
            "  \"threads\": %u,\n"
            "  \"parse_serial_ms\": %.3f,\n"
            "  \"parse_parallel_ms\": %.3f,\n"
            "  \"parse_speedup\": %.2f,\n"
            "  \"parse_skip_contents_ms\": %.3f,\n"
            "  \"parse_owning_ms\": %.3f,\n"
            "  \"image_open_ms\": %.3f,\n"
            "  \"coldstart_serial_wall_ms\": %.3f,\n"
            "  \"coldstart_parallel_wall_ms\": %.3f,\n"
            "  \"coldstart_thread_speedup\": %.2f,\n"
            "  \"coldstart_rebuild_wall_ms\": %.3f,\n"
            "  \"coldstart_patch_wall_ms\": %.3f,\n"
            "  \"coldstart_speedup\": %.2f,\n"
            "  \"relocations_applied\": %llu,\n"
            "  \"kernels_resolved\": %llu,\n"
            "  \"graphs_patched\": %llu,\n"
            "  \"simulated_loading_sec\": %.6f,\n"
            "  \"patch_simulated_loading_sec\": %.6f,\n"
            "  \"simulated_identical\": %s,\n"
            "  \"fidelity_identical\": %s,\n"
            "  \"cache_miss_ms\": %.3f,\n"
            "  \"cache_hit_ms\": %.3f,\n"
            "  \"image_cache_miss_ms\": %.3f,\n"
            "  \"image_cache_hit_ms\": %.3f\n"
            "}\n",
            model.name.c_str(), bytes.size(), image_bytes.size(),
            artifact.graphs.size(),
            static_cast<unsigned long long>(artifact.totalNodes()), hw,
            threads, parse_serial_ms, parse_parallel_ms,
            parse_serial_ms / std::max(parse_parallel_ms, 1e-9),
            parse_skip_contents_ms, parse_owning_ms, image_open_ms,
            serial.wall_ms, parallel.wall_ms,
            serial.wall_ms / std::max(parallel.wall_ms, 1e-9),
            serial.wall_ms, patch.wall_ms, coldstart_speedup,
            static_cast<unsigned long long>(
                patch.report.relocations_applied),
            static_cast<unsigned long long>(
                patch.report.kernels_resolved),
            static_cast<unsigned long long>(
                patch.report.graphs_patched),
            parallel.times.loading, patch.times.loading,
            identical ? "true" : "false",
            fidelity ? "true" : "false", cache_miss_ms, cache_hit_ms,
            image_cache_miss_ms, image_cache_hit_ms);
    } else {
        std::printf("restore pipeline — %s (%zu graphs, %llu nodes, "
                    "%zu artifact bytes, %zu image bytes)\n",
                    model.name.c_str(), artifact.graphs.size(),
                    static_cast<unsigned long long>(
                        artifact.totalNodes()),
                    bytes.size(), image_bytes.size());
        std::printf("hardware threads: %u, bench threads: %u\n", hw,
                    threads);
        printRule();
        std::printf("parse serial        %8.3f ms\n", parse_serial_ms);
        std::printf("parse %2u threads    %8.3f ms  (%.2fx)\n", threads,
                    parse_parallel_ms,
                    parse_serial_ms /
                        std::max(parse_parallel_ms, 1e-9));
        std::printf("parse skip contents %8.3f ms\n",
                    parse_skip_contents_ms);
        std::printf("parse owning copy   %8.3f ms\n", parse_owning_ms);
        std::printf("image open          %8.3f ms\n", image_open_ms);
        printRule();
        std::printf("cold start rebuild (1 thread)   %8.3f ms wall\n",
                    serial.wall_ms);
        std::printf("cold start rebuild (%2u threads) %8.3f ms wall  "
                    "(%.2fx)\n",
                    threads, parallel.wall_ms,
                    serial.wall_ms / std::max(parallel.wall_ms, 1e-9));
        std::printf("cold start patch                %8.3f ms wall  "
                    "(%.2fx, %llu relocations)\n",
                    patch.wall_ms, coldstart_speedup,
                    static_cast<unsigned long long>(
                        patch.report.relocations_applied));
        std::printf("simulated loading rebuild %8.3f ms (thread-count "
                    "independent: %s)\n",
                    parallel.times.loading * 1e3,
                    identical ? "yes" : "NO — DETERMINISM BUG");
        std::printf("simulated loading patch   %8.3f ms (fingerprint + "
                    "logits identical: %s)\n",
                    patch.times.loading * 1e3,
                    fidelity ? "yes" : "NO — FIDELITY BUG");
        printRule();
        std::printf("artifact cache miss  %8.3f ms\n", cache_miss_ms);
        std::printf("artifact cache hit   %8.3f ms\n", cache_hit_ms);
        std::printf("image cache miss     %8.3f ms\n",
                    image_cache_miss_ms);
        std::printf("image cache hit      %8.3f ms\n",
                    image_cache_hit_ms);
    }
    reporter.finish();
    return identical && fidelity ? 0 : 1;
}

} // namespace
} // namespace medusa::bench

int
main(int argc, char **argv)
{
    return medusa::bench::run(argc, argv);
}
