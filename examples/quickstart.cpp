/**
 * @file
 * Quickstart: cold-start a serving engine twice — the vanilla vLLM way
 * and the Medusa way (offline materialization + online restoration) —
 * then serve a prompt end to end (tokenize, generate, detokenize) and
 * show that the outputs are identical while the Medusa cold start is
 * much faster.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "llm/engine.h"
#include "medusa/offline.h"
#include "medusa/restore.h"

using namespace medusa;

namespace {

template <typename T>
T
orDie(StatusOr<T> value, const char *what)
{
    if (!value.isOk()) {
        std::fprintf(stderr, "%s: %s\n", what,
                     value.status().toString().c_str());
        std::exit(1);
    }
    return std::move(value).value();
}

} // namespace

int
main()
{
    // A small model keeps the demo snappy; swap in any zoo name from
    // llm::modelZoo() (e.g. "Llama2-7B") for the full experience.
    auto model = orDie(llm::findModel("Qwen1.5-0.5B"), "findModel");
    std::printf("model: %s (%u layers, %s arch)\n\n", model.name.c_str(),
                model.num_layers, llm::archName(model.arch));

    // ---- 1. vanilla vLLM cold start --------------------------------
    llm::BaselineEngine::Options bopts;
    bopts.model = model;
    bopts.strategy = llm::Strategy::kVllm;
    auto vllm = orDie(llm::BaselineEngine::coldStart(bopts),
                      "vLLM cold start");
    std::printf("vLLM loading phase:   %.2f virtual seconds\n",
                vllm->coldStartReport().times.loading);

    // ---- 2. Medusa: materialize offline, restore online -------------
    core::OfflineOptions oopts;
    oopts.model = model;
    auto offline = orDie(core::materialize(oopts), "offline phase");
    std::printf("offline phase:        %.1f s (capturing %.1f s + "
                "analysis %.1f s), image %zu KiB\n",
                offline.totalOffline(), offline.capture_stage_sec,
                offline.analysis_stage_sec,
                offline.image_bytes.size() / 1024);

    core::MedusaEngine::Options mopts;
    mopts.model = model;
    mopts.aslr_seed = 0xf5e5; // a different process address layout
    const core::MaterializedImage image = orDie(
        core::MaterializedImage::openView(
            std::span<const u8>(offline.image_bytes)),
        "image open");
    auto medusa = orDie(core::MedusaEngine::coldStartFromImage(mopts, image),
                        "Medusa cold start");
    std::printf("Medusa loading phase: %.2f virtual seconds "
                "(-%.1f%%)\n\n",
                medusa->coldStartReport().times.loading,
                100.0 * (1.0 - medusa->coldStartReport().times.loading /
                                   vllm->coldStartReport().times.loading));

    // ---- 3. serve a prompt on both engines ---------------------------
    const std::string prompt = "serverless inference cold start";
    const std::vector<i32> prompt_ids =
        medusa->runtime().tokenizer().encode(prompt);
    std::printf("prompt: \"%s\" -> %zu tokens\n", prompt.c_str(),
                prompt_ids.size());

    auto vllm_out = orDie(vllm->runtime().generate(prompt_ids, 16),
                          "vLLM generate");
    auto medusa_out = orDie(medusa->runtime().generate(prompt_ids, 16),
                            "Medusa generate");

    std::printf("generated %zu tokens; outputs identical: %s\n",
                medusa_out.size(),
                vllm_out == medusa_out ? "yes" : "NO (bug!)");
    std::printf("restored graphs: %llu nodes across %llu batch sizes\n",
                static_cast<unsigned long long>(
                    medusa->coldStartReport().restore.nodes_restored),
                static_cast<unsigned long long>(
                    medusa->coldStartReport().restore.graphs_restored));
    return 0;
}
