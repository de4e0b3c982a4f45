#include "llm/engine.h"

#include <algorithm>

namespace medusa::llm {

const char *
strategyName(Strategy strategy)
{
    switch (strategy) {
      case Strategy::kVllm: return "vLLM";
      case Strategy::kVllmAsync: return "vLLM+ASYNC";
      case Strategy::kNoCudaGraph: return "w/o CUDA GRAPH";
      case Strategy::kMedusa: return "Medusa";
      case Strategy::kDeferredCapture: return "deferred capture";
    }
    return "?";
}

f64
composeLoading(Strategy strategy, const StageTimes &t,
               const CostModel &cost)
{
    switch (strategy) {
      case Strategy::kVllm:
      case Strategy::kNoCudaGraph:
      case Strategy::kDeferredCapture:
        // Fully synchronous stages.
        return t.serialSum();
      case Strategy::kVllmAsync: {
        // Weights loading overlaps tokenizer + KV init. The profiling
        // forwarding's device traffic slows the async weight copies
        // (§7.3's Nsight observation), modelled as a multiplicative
        // interference factor.
        const f64 weights_async =
            t.weights * cost.weights_profiling_interference;
        return t.struct_init +
               std::max(weights_async, t.tokenizer + t.kv_init) +
               t.capture;
      }
      case Strategy::kMedusa:
        MEDUSA_PANIC("Medusa composition lives in src/medusa/restore");
    }
    return t.serialSum();
}

Status
runLoadingStages(ModelRuntime &rt, bool capture, StageTimes &t,
                 TraceRecorder *rec)
{
    SimClock &clock = rt.clock();
    SimTimeNs mark = clock.now();
    auto lap = [&clock, &mark]() {
        const SimTimeNs now = clock.now();
        const f64 d = units::nsToSec(now - mark);
        mark = now;
        return d;
    };

    {
        Span s(rec, "cold_start.struct_init", "stage");
        MEDUSA_RETURN_IF_ERROR(rt.initStructure());
    }
    t.struct_init = lap();
    {
        Span s(rec, "cold_start.weights", "stage");
        MEDUSA_RETURN_IF_ERROR(rt.loadWeights());
    }
    t.weights = lap();
    {
        Span s(rec, "cold_start.tokenizer", "stage");
        MEDUSA_RETURN_IF_ERROR(rt.loadTokenizer());
    }
    t.tokenizer = lap();
    {
        Span s(rec, "cold_start.kv_init", "stage");
        MEDUSA_ASSIGN_OR_RETURN(u64 free_bytes, rt.profileFreeMemory());
        MEDUSA_RETURN_IF_ERROR(rt.initKvCache(free_bytes));
    }
    t.kv_init = lap();
    if (capture) {
        Span s(rec, "cold_start.capture", "stage");
        MEDUSA_RETURN_IF_ERROR(rt.captureDecodeGraphs());
        s.end();
        t.capture = lap();
    }
    return Status::ok();
}

StatusOr<std::unique_ptr<BaselineEngine>>
BaselineEngine::coldStart(const Options &opts)
{
    ModelRuntime::Options ropts;
    ropts.model = opts.model;
    ropts.aslr_seed = opts.aslr_seed;
    ropts.cost = opts.cost;
    auto runtime = std::make_unique<ModelRuntime>(ropts);
    ModelRuntime &rt = *runtime;
    const CostModel &cost = rt.process().cost();

    std::unique_ptr<BaselineEngine> engine(
        new BaselineEngine(opts.strategy, opts.aslr_seed,
                           std::move(runtime)));
    ColdStartReport &report = engine->report_;
    report.strategy = strategyName(opts.strategy);
    StageTimes &t = report.times;
    t.runtime_init = opts.warm_container
                         ? cost.runtime_init_warm_ms / 1e3
                         : cost.runtime_init_cold_ms / 1e3;

    TraceRecorder rec(&rt.clock());
    const bool capture = opts.strategy != Strategy::kNoCudaGraph &&
                         opts.strategy != Strategy::kDeferredCapture;
    const Status st = runLoadingStages(rt, capture, t, &rec);
    t.loading = composeLoading(opts.strategy, t, cost);
    MetricsRegistry registry;
    handOffColdStart(report, rec.events(), registry, opts.trace, nullptr);
    MEDUSA_RETURN_IF_ERROR(st);
    return engine;
}

} // namespace medusa::llm
