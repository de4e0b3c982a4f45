/**
 * @file
 * The anatomy of one cold start, drawn as an ASCII timeline: where the
 * time goes under vanilla vLLM, what vLLM+ASYNC overlaps, and what
 * Medusa's materialization removes (the paper's Figures 1 and 8 as a
 * terminal visual).
 *
 * Usage:
 *   ./build/examples/coldstart_anatomy [model-name]
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/stats.h"
#include "medusa/offline.h"
#include "medusa/restore.h"

using namespace medusa;

namespace {

void
bar(const char *label, f64 seconds, f64 scale, const char *note = "")
{
    const int width = std::max(
        1, static_cast<int>(seconds * scale + 0.5));
    std::printf("  %-26s %6.2fs |", label, seconds);
    for (int i = 0; i < width; ++i) {
        std::putchar('#');
    }
    std::printf("| %s\n", note);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "Qwen1.5-4B";
    auto model = llm::findModel(name);
    if (!model.isOk()) {
        std::fprintf(stderr, "unknown model %s\n", name.c_str());
        return 1;
    }

    llm::BaselineEngine::Options bopts;
    bopts.model = *model;
    bopts.strategy = llm::Strategy::kVllm;
    auto vllm = llm::BaselineEngine::coldStart(bopts);
    bopts.strategy = llm::Strategy::kVllmAsync;
    auto async = llm::BaselineEngine::coldStart(bopts);

    core::OfflineOptions oopts;
    oopts.model = *model;
    oopts.pipeline.validate = false;
    auto offline = core::materialize(oopts);
    if (!offline.isOk()) {
        std::fprintf(stderr, "offline phase failed\n");
        return 1;
    }
    auto image = core::MaterializedImage::openView(
        std::span<const u8>(offline->image_bytes));
    if (!image.isOk()) {
        std::fprintf(stderr, "image open failed\n");
        return 1;
    }
    core::MedusaEngine::Options mopts;
    mopts.model = *model;
    auto medusa = core::MedusaEngine::coldStartFromImage(mopts, *image);
    if (!vllm.isOk() || !async.isOk() || !medusa.isOk()) {
        std::fprintf(stderr, "cold start failed\n");
        return 1;
    }

    const StageTimes &tv = (*vllm)->coldStartReport().times;
    const StageTimes &tm = (*medusa)->coldStartReport().times;
    const f64 scale = 50.0 / tv.loading; // 50 columns for vLLM total

    std::printf("=== cold start anatomy: %s ===\n\n", name.c_str());
    std::printf("vanilla vLLM (every stage serial, %.2fs):\n",
                tv.loading);
    bar("model structure init", tv.struct_init, scale);
    bar("model weights loading", tv.weights, scale);
    bar("tokenizer loading", tv.tokenizer, scale);
    bar("KV cache initialization", tv.kv_init, scale,
        "<- profiling forwarding");
    bar("CUDA graph capturing", tv.capture, scale,
        "<- 35 x (warm-up + capture)");

    std::printf("\nvLLM+ASYNC (weights || tokenizer+KV-init, %.2fs, "
                "-%.0f%%):\n",
                (*async)->coldStartReport().times.loading,
                100.0 * (1.0 - (*async)->coldStartReport().times.loading / tv.loading));

    std::printf("\nMedusa (%.2fs, -%.0f%%):\n", tm.loading,
                100.0 * (1.0 - tm.loading / tv.loading));
    bar("model structure init", tm.struct_init, scale);
    bar("model weights loading", tm.weights, scale,
        "|| tokenizer + KV restore + replay");
    bar("KV-init restoration", tm.kv_init, scale,
        "<- materialized free-memory value");
    bar("graph restoration", tm.capture, scale,
        "<- first-layer capture + patch + instantiate");

    std::printf("\nwhat the artifact replaced:\n");
    std::printf("  - profiling forwarding  -> one stored integer "
                "(free GPU memory: %s)\n",
                formatBytes(offline->artifact.free_gpu_memory).c_str());
    std::printf("  - 35 graph captures     -> %llu materialized nodes, "
                "restored via indirect index pointers\n",
                static_cast<unsigned long long>(
                    offline->artifact.total_nodes));
    std::printf("  - kernel addresses      -> %llu names resolved via "
                "dlsym, %llu via first-layer triggering-kernels\n",
                static_cast<unsigned long long>(
                    (*medusa)->coldStartReport().restore.kernels_via_dlsym),
                static_cast<unsigned long long>(
                    (*medusa)->coldStartReport().restore.kernels_via_enumeration));
    std::printf("  - buffer contents       -> only %llu bytes of "
                "permanent buffers (copy-free restoration)\n",
                static_cast<unsigned long long>(
                    (*medusa)->coldStartReport().restore.restored_content_bytes));
    return 0;
}
