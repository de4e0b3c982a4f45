/**
 * @file
 * Figure 8: per-stage breakdown of the loading phase for vLLM,
 * vLLM+ASYNC and Medusa on Qwen1.5 4B. Paper anchors: vLLM total
 * 2.85 s (0.85 / 0.39 / 0.21 / 0.50 / 0.90); ASYNC -13.0% with the
 * weights-vs-profiling interference (+0.08 s on weights) and a 0.26 s
 * bubble; Medusa -41.4% with KV-init 0.50 -> 0.02 and capturing
 * 0.90 -> 0.57.
 *
 * Stage numbers are derived from each engine's ColdStartReport spans
 * (the `cold_start.*` events `--trace-out` exports); the composed
 * loading latency comes from the same report.
 */

#include <cstdio>

#include "bench/bench_util.h"
#include "medusa/restore.h"

using namespace medusa;

namespace {

/** Per-stage seconds recovered from a report's cold_start.* spans. */
struct Stages
{
    f64 struct_init;
    f64 weights;
    f64 tokenizer;
    f64 kv_init;
    f64 capture;
    f64 loading;

    explicit Stages(const ColdStartReport &report)
        : struct_init(report.spanSec("cold_start.struct_init")),
          weights(report.spanSec("cold_start.weights")),
          tokenizer(report.spanSec("cold_start.tokenizer")),
          kv_init(report.spanSec("cold_start.kv_init")),
          capture(report.spanSec("cold_start.capture")),
          loading(report.loadingSec())
    {
    }
};

} // namespace

int
main(int argc, char **argv)
{
    bench::Reporter reporter(argc, argv);
    auto model =
        bench::unwrap(llm::findModel("Qwen1.5-4B"), "findModel");
    const std::vector<u8> image_bytes =
        bench::unwrap(bench::materializeCached(model), "materialize")
            .image_bytes;
    const core::MaterializedImage image = bench::openImage(image_bytes);

    llm::BaselineEngine::Options bopts;
    bopts.model = model;
    bopts.strategy = llm::Strategy::kVllm;
    auto vllm = bench::unwrap(llm::BaselineEngine::coldStart(bopts),
                              "vLLM");
    bopts.strategy = llm::Strategy::kVllmAsync;
    auto async = bench::unwrap(llm::BaselineEngine::coldStart(bopts),
                               "vLLM+ASYNC");
    core::MedusaEngine::Options mopts;
    mopts.model = model;
    mopts.restore.pipeline.metrics = reporter.metrics();
    auto medusa = bench::unwrap(
        core::MedusaEngine::coldStartFromImage(mopts, image), "Medusa");

    const Stages v(vllm->coldStartReport());
    const Stages a(async->coldStartReport());
    const Stages m(medusa->coldStartReport());
    u32 track = 0;
    const std::pair<const char *, const ColdStartReport *> engines[] = {
        {"vLLM", &vllm->coldStartReport()},
        {"vLLM+ASYNC", &async->coldStartReport()},
        {"Medusa", &medusa->coldStartReport()},
    };
    for (const auto &[name, report] : engines) {
        reporter.addSpans(report->spans, track);
        reporter.setTrackName(track, name);
        ++track;
    }

    const CostModel cost;
    std::printf("=== Figure 8: strategy breakdown, Qwen1.5 4B ===\n\n");
    std::printf("%-12s %7s %8s %7s %7s %8s | %8s %9s\n", "strategy",
                "struct", "weights", "token", "kvinit", "capture",
                "loading", "vs vLLM");
    bench::printRule('-', 88);

    const f64 base = v.loading;
    auto line = [&](const char *name, const Stages &t,
                    f64 weights_shown) {
        std::printf("%-12s %7.2f %8.2f %7.2f %7.2f %8.2f | %8.2f %8.1f%%"
                    "\n",
                    name, t.struct_init, weights_shown, t.tokenizer,
                    t.kv_init, t.capture, t.loading,
                    100.0 * (1.0 - t.loading / base));
    };
    line("vLLM", v, v.weights);
    // ASYNC's weights loading runs concurrently with the profiling
    // forwarding and suffers the measured interference.
    line("vLLM+ASYNC", a,
         a.weights * cost.weights_profiling_interference);
    line("Medusa", m, m.weights);
    bench::printRule('-', 88);

    const f64 async_weights =
        a.weights * cost.weights_profiling_interference;
    const f64 bubble = std::max(
        0.0, a.tokenizer + a.kv_init - async_weights);
    std::printf("\nASYNC interference on weights: +%.2f s "
                "(paper: +0.08 s)\n",
                async_weights - a.weights);
    std::printf("ASYNC bubble (tokenizer+KV-init beyond weights): "
                "%.2f s (paper: 0.26 s)\n",
                bubble);
    std::printf("Medusa KV-init: %.2f s (paper: 0.50 -> 0.02)\n",
                m.kv_init);
    std::printf("Medusa capture/restore stage: %.2f s "
                "(paper: 0.90 -> 0.57)\n",
                m.capture);
    std::printf("Medusa loading reduction: %.1f%% vs vLLM "
                "(paper: 41.4%%), %.1f%% vs ASYNC (paper: 32.7%%)\n",
                100.0 * (1.0 - m.loading / base),
                100.0 * (1.0 - m.loading / a.loading));
    reporter.finish();
    return 0;
}
