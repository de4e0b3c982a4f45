/**
 * @file
 * Figure 1: the cold start timeline when serving Qwen1.5 4B with
 * vanilla vLLM — runtime initialization, the five loading-phase stages
 * and the first-token generation, with the percentage split the paper
 * reports (runtime init 22%, loading 76%, first token 2%; KV-init +
 * capturing = ~50% of the loading phase).
 */

#include <cstdio>

#include "bench/bench_util.h"
#include "serverless/profile.h"

using namespace medusa;

int
main()
{
    auto model = bench::unwrap(llm::findModel("Qwen1.5-4B"),
                               "findModel");

    // Full cold container (runtime init not absorbed by a warm pool).
    llm::BaselineEngine::Options opts;
    opts.model = model;
    opts.strategy = llm::Strategy::kVllm;
    opts.warm_container = false;
    auto engine =
        bench::unwrap(llm::BaselineEngine::coldStart(opts), "coldStart");
    const StageTimes &t = engine->coldStartReport().times;

    // First-token generation: prefill of the ShareGPT-average prompt
    // (161 tokens) plus one decode step.
    const f64 prefill =
        bench::unwrap(engine->runtime().measurePrefillSec(161),
                      "measurePrefill");
    const f64 decode =
        bench::unwrap(engine->runtime().measureDecodeStepSec(1, true),
                      "measureDecode");
    const f64 first_token = prefill + decode;
    const f64 total = t.runtime_init + t.loading + first_token;

    std::printf("=== Figure 1: cold start timeline, Qwen1.5 4B (vLLM) "
                "===\n\n");
    std::printf("%-28s %8s %7s\n", "phase", "sec", "share");
    bench::printRule();
    auto line = [&](const char *name, f64 sec) {
        std::printf("%-28s %8.3f %6.1f%%\n", name, sec,
                    100.0 * sec / total);
    };
    line("initializing runtime", t.runtime_init);
    line("  model structure init", t.struct_init);
    line("  model weights loading", t.weights);
    line("  tokenizer loading", t.tokenizer);
    line("  KV cache initialization", t.kv_init);
    line("  CUDA graph capturing", t.capture);
    line("loading phase (total)", t.loading);
    line("generating first token", first_token);
    bench::printRule();
    line("cold start total", total);
    std::printf("\npaper: runtime init 22%% / loading 76%% / first token "
                "2%%\n");
    std::printf("KV-init + capturing share of loading: %.1f%% "
                "(paper: ~50%%)\n",
                100.0 * (t.kv_init + t.capture) / t.loading);
    return 0;
}
