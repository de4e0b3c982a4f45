/**
 * @file
 * Cold-start strategy drivers for the baseline systems of §7:
 *
 *  - vLLM: every loading-phase stage runs synchronously, in order.
 *  - vLLM + ASYNC: model-weights loading overlaps the tokenizer-loading
 *    and KV-cache-initialization stages (with the mutual-interference
 *    slowdown the paper measures), then capturing runs.
 *  - w/o CUDA GRAPH: the capturing stage is skipped entirely; serving
 *    pays eager per-kernel launch overhead instead.
 *
 * The Medusa strategy lives in src/medusa/ (it needs the offline
 * artifact); it produces the same StageTimes shape so benchmarks can
 * compare all four uniformly.
 *
 * All stages execute *functionally* and sequentially on the runtime's
 * virtual clock; the driver measures each stage's duration and composes
 * the visible loading latency according to the strategy's overlap
 * structure.
 */

#ifndef MEDUSA_LLM_ENGINE_H
#define MEDUSA_LLM_ENGINE_H

#include <memory>

#include "common/cold_start_report.h"
#include "llm/runtime.h"

namespace medusa::llm {

/** The compared serving strategies (§7), plus §2.4's alternatives. */
enum class Strategy {
    kVllm = 0,
    kVllmAsync,
    kNoCudaGraph,
    kMedusa,
    /**
     * §2.4 "deferring the capturing stage": skip capture at cold start
     * and pay warm-up + capture lazily, per batch size, during serving.
     */
    kDeferredCapture,
};

const char *strategyName(Strategy strategy);

/**
 * Runs a full cold start under one of the three baseline strategies and
 * leaves a ready-to-serve runtime behind.
 */
class BaselineEngine
{
  public:
    struct Options
    {
        ModelConfig model;
        Strategy strategy = Strategy::kVllm;
        u64 aslr_seed = 1;
        const CostModel *cost = nullptr;
        /**
         * Whether a warm container pool absorbs runtime initialization
         * (the setting of the paper's trace experiments).
         */
        bool warm_container = true;
        /**
         * Optional extra span sink; the engine always records its own
         * spans into the ColdStartReport (see PipelineOptions::trace).
         */
        TraceRecorder *trace = nullptr;
    };

    /** Execute the cold start; returns the live engine on success. */
    static StatusOr<std::unique_ptr<BaselineEngine>>
    coldStart(const Options &opts);

    ModelRuntime &runtime() { return *runtime_; }

    /** The consolidated report for this cold start (DESIGN.md §12). */
    const ColdStartReport &coldStartReport() const { return report_; }

    Strategy strategy() const { return strategy_; }
    /** The process-launch seed this engine was cold-started with. */
    u64 aslrSeed() const { return aslr_seed_; }

  private:
    BaselineEngine(Strategy strategy, u64 aslr_seed,
                   std::unique_ptr<ModelRuntime> rt)
        : strategy_(strategy), aslr_seed_(aslr_seed),
          runtime_(std::move(rt))
    {
    }

    Strategy strategy_;
    u64 aslr_seed_;
    std::unique_ptr<ModelRuntime> runtime_;
    ColdStartReport report_;
};

/**
 * Compose the visible loading latency from raw stage durations for a
 * baseline strategy (exposed for tests and for the Medusa driver, which
 * reuses the async-overlap arithmetic).
 */
f64 composeLoading(Strategy strategy, const StageTimes &t,
                   const CostModel &cost);

/**
 * The vanilla loading phase (§2.1) on @p rt: ❶ structure init, ❷
 * weights, ❸ tokenizer, ❹ profile + KV init and, when @p capture is
 * set, ❺ captureDecodeGraphs. Every vanilla cold start runs it: the
 * baseline strategies, both Medusa engines' fallbacks (the TP one per
 * rank) and TpCluster::loadAll. Each stage run gets one
 * `cold_start.<stage>` span on @p rec (may be null) and one lap of the
 * integer clock into @p t, so each stage time equals its span's
 * duration exactly. The stages not run and t.loading are left alone:
 * callers compose loading themselves (composeLoading).
 */
Status runLoadingStages(ModelRuntime &rt, bool capture, StageTimes &t,
                        TraceRecorder *rec);

} // namespace medusa::llm

#endif // MEDUSA_LLM_ENGINE_H
