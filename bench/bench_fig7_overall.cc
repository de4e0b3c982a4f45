/**
 * @file
 * Figure 7: overall loading-phase latency (a) and cold-start latency
 * (b) for vLLM, vLLM+ASYNC and Medusa across the ten models. The paper
 * reports average loading reductions of 42.5% (vs vLLM) and 34.4% (vs
 * vLLM+ASYNC), an average cold-start reduction of 34.9%, the largest
 * win on Llama2 13B (42.9%) and the smallest on Qwen1.5 0.5B (21.1%).
 */

#include <cstdio>

#include "bench/bench_util.h"
#include "medusa/restore.h"

using namespace medusa;

int
main()
{
    std::printf("=== Figure 7: loading phase and cold start, 3 strategies "
                "x 10 models ===\n\n");
    std::printf("%-14s | %8s %8s %8s | %8s %8s %8s | %7s\n", "model",
                "vLLM", "+ASYNC", "Medusa", "vLLM.cs", "ASYNC.cs",
                "Medusa.cs", "reduce");
    bench::printRule('-', 96);

    f64 sum_vllm = 0, sum_async = 0, sum_medusa = 0;
    f64 sum_cs_vllm = 0, sum_cs_medusa = 0;
    f64 best_reduction = 0, worst_reduction = 1e9;
    std::string best_model, worst_model;
    int count = 0;

    for (const llm::ModelConfig &model : llm::modelZoo()) {
        const std::vector<u8> image_bytes = bench::unwrap(
            bench::materializeCached(model), model.name.c_str());
        const core::MaterializedImage image = bench::openImage(image_bytes);

        llm::BaselineEngine::Options bopts;
        bopts.model = model;
        bopts.warm_container = false; // cold start includes runtime init
        bopts.strategy = llm::Strategy::kVllm;
        auto vllm = bench::unwrap(llm::BaselineEngine::coldStart(bopts),
                                  "vLLM");
        bopts.strategy = llm::Strategy::kVllmAsync;
        auto async = bench::unwrap(llm::BaselineEngine::coldStart(bopts),
                                   "vLLM+ASYNC");

        core::MedusaEngine::Options mopts;
        mopts.model = model;
        mopts.warm_container = false;
        auto medusa = bench::unwrap(
            core::MedusaEngine::coldStartFromImage(mopts, image), "Medusa");

        const f64 l_vllm = vllm->coldStartReport().times.loading;
        const f64 l_async = async->coldStartReport().times.loading;
        const f64 l_medusa = medusa->coldStartReport().times.loading;
        const f64 cs_vllm = vllm->coldStartReport().times.coldStart();
        const f64 cs_async = async->coldStartReport().times.coldStart();
        const f64 cs_medusa = medusa->coldStartReport().times.coldStart();
        const f64 reduction = 100.0 * (1.0 - l_medusa / l_vllm);

        sum_vllm += l_vllm;
        sum_async += l_async;
        sum_medusa += l_medusa;
        sum_cs_vllm += cs_vllm;
        sum_cs_medusa += cs_medusa;
        ++count;
        if (reduction > best_reduction) {
            best_reduction = reduction;
            best_model = model.name;
        }
        if (reduction < worst_reduction) {
            worst_reduction = reduction;
            worst_model = model.name;
        }
        std::printf("%-14s | %8.2f %8.2f %8.2f | %8.2f %8.2f %8.2f | "
                    "%6.1f%%\n",
                    model.name.c_str(), l_vllm, l_async, l_medusa,
                    cs_vllm, cs_async, cs_medusa, reduction);
    }
    bench::printRule('-', 96);
    std::printf(
        "avg loading reduction vs vLLM:   %.1f%% (paper: 42.5%%)\n",
        100.0 * (1.0 - sum_medusa / sum_vllm));
    std::printf(
        "avg loading reduction vs ASYNC:  %.1f%% (paper: 34.4%%)\n",
        100.0 * (1.0 - sum_medusa / sum_async));
    std::printf(
        "avg cold-start reduction:        %.1f%% (paper: 34.9%%)\n",
        100.0 * (1.0 - sum_cs_medusa / sum_cs_vllm));
    std::printf("largest reduction: %s %.1f%% (paper: Llama2 13B "
                "42.9%%)\n",
                best_model.c_str(), best_reduction);
    std::printf("smallest reduction: %s %.1f%% (paper: Qwen1.5 0.5B "
                "21.1%%)\n",
                worst_model.c_str(), worst_reduction);
    return 0;
}
