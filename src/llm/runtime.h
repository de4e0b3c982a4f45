/**
 * @file
 * The inference-engine runtime: one serving instance's in-process state.
 *
 * ModelRuntime is the vLLM-equivalent substrate. It owns the simulated
 * GPU process, the caching allocator, the model tensors, the tokenizer,
 * the KV cache and the captured decode graphs, and exposes the five
 * loading-phase stages of §2.1 as separate operations so that strategy
 * drivers (engine.h for the baselines, medusa/ for Medusa) can order and
 * overlap them:
 *
 *   ❶ initStructure      ❷ loadWeights       ❸ loadTokenizer
 *   ❹ profileFreeMemory + initKvCache        ❺ captureDecodeGraphs
 *
 * It also exposes the serving path (generate / decode steps) and the
 * validation helpers Medusa's §4 output-comparison uses.
 */

#ifndef MEDUSA_LLM_RUNTIME_H
#define MEDUSA_LLM_RUNTIME_H

#include <map>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "llm/forward.h"
#include "llm/hooks.h"
#include "llm/kv_cache.h"
#include "llm/model_config.h"
#include "llm/tokenizer.h"
#include "llm/weights.h"
#include "simcuda/caching_allocator.h"
#include "simcuda/gpu_process.h"

namespace medusa::llm {

/** One in-flight generation request. */
struct Sequence
{
    std::vector<i32> tokens;
    u32 prompt_len = 0;
    std::vector<i32> blocks;

    u32 len() const { return static_cast<u32>(tokens.size()); }
};

/**
 * The engine runtime; see file comment.
 */
class ModelRuntime
{
  public:
    struct Options
    {
        ModelConfig model;
        /** Per-process-launch seed (ASLR); differs across cold starts. */
        u64 aslr_seed = 1;
        /** GPU this runtime drives (tensor-parallel rank's device). */
        u32 device_index = 0;
        const CostModel *cost = nullptr;
        /** Medusa's recorder hooks; all optional. */
        EngineObserver *observer = nullptr;
        simcuda::AllocObserver *alloc_observer = nullptr;
        simcuda::LaunchObserver *launch_observer = nullptr;
    };

    explicit ModelRuntime(const Options &opts);

    // ---- accessors ------------------------------------------------------
    SimClock &clock() { return clock_; }
    simcuda::GpuProcess &process() { return *process_; }
    simcuda::CachingAllocator &allocator() { return *alloc_; }
    const ModelConfig &model() const { return model_; }
    const ModelWeights &weights() const { return weights_; }
    KvCache &kv() { return kv_; }
    const ForwardBuffers &buffers() const { return bufs_; }
    SemaphoreMap &semaphoreMap() { return semaphores_; }
    LmWorkspaceMap &lmWorkspaceMap() { return lm_workspace_; }
    const BpeTokenizer &tokenizer() const { return tokenizer_; }

    // ---- loading-phase stages ---------------------------------------------

    /** ❶ Instantiate the model structure (deterministic tensor order). */
    Status initStructure();

    /** ❷ Load weights from the simulated SSD array. */
    Status loadWeights();

    /** ❸ Load (train) the tokenizer; charged by real vocab size. */
    Status loadTokenizer();

    /**
     * ❸ Medusa restore: adopt a tokenizer rebuilt from materialized
     * merges instead of re-training over the corpus. Charges exactly
     * the simulated cost of loadTokenizer — the real system still reads
     * the tokenizer data — so only host time drops.
     */
    Status adoptTokenizer(BpeTokenizer tokenizer);

    /**
     * ❹ (first half) Allocate the I/O buffers, then run the profiling
     * forwarding at the maximum token budget and report the residual
     * free GPU memory — the value Medusa materializes.
     */
    StatusOr<u64> profileFreeMemory();

    /** ❹ (second half) Reserve the KV cache from the free-memory value. */
    Status initKvCache(u64 free_gpu_bytes);

    /**
     * Medusa online path for stage ❹: skip profiling; the I/O buffers
     * and cache tensors were recreated by the allocation replay and are
     * re-bound here by address.
     */
    Status adoptBuffers(const ForwardBuffers &bufs, KvCache cache);

    /** ❺ Warm up + capture + instantiate decode graphs for all sizes. */
    Status captureDecodeGraphs();

    /**
     * Transactional-restore rollback: discard every loading-phase
     * effect — device allocations, loaded modules, instantiated graphs
     * (including partially-registered slots from a failed batch),
     * weights, tokenizer, KV cache and I/O buffers — leaving the
     * runtime as if freshly constructed with its original options. The
     * allocator is rebuilt with its original reuse seed and NO
     * observer (re-attach one before the next restore attempt). The
     * clock keeps running: time burned before the rollback is real
     * latency.
     */
    void rollbackToPristine();

    // Finer-grained pieces of stage ❺ used by Medusa's phases:

    /** One eager decode forwarding (the warm-up). */
    Status warmupDecode(u32 bs);

    /** Capture one decode graph (requires prior warm-up). */
    StatusOr<simcuda::CudaGraph> captureDecode(u32 bs);

    /**
     * Warm up and capture only the FIRST LAYER of the model — the
     * triggering-kernels of the paper's §5.2. Loads every module the
     * full graphs need (module granularity) at ~1/num_layers the cost.
     */
    StatusOr<simcuda::CudaGraph> captureFirstLayer();

    /** Register an instantiated graph for serving at batch size bs. */
    Status instantiateGraph(u32 bs, const simcuda::CudaGraph &graph);

    /**
     * Instantiate decode graphs directly from relocation-patched image
     * arrays, strictly in the order given. Instantiation mutates process
     * state (clock, graph registry), so the order is part of the
     * contract that keeps simulated time deterministic.
     *
     * First failure wins, and the slots this batch already registered
     * are unregistered before returning: a failed batch leaves the
     * graph table exactly as it found it, so a rolled-back restore
     * cannot leak partially-built graphs. @p fault, when set, injects
     * FaultPoint::kGraphInstantiate before each instantiation.
     */
    Status instantiatePatchedGraphs(
        std::vector<std::pair<u32, simcuda::GpuProcess::PatchedGraphDesc>>
            ordered,
        FaultInjector *fault = nullptr);

    bool hasGraph(u32 bs) const { return graphs_.count(bs) != 0; }
    std::size_t graphCount() const { return graphs_.size(); }

    /** The instantiated graph for bs (for lockstep TP replay). */
    StatusOr<const simcuda::GraphExec *> graphExec(u32 bs) const;

    /** Total node count across instantiated graphs (Table 1). */
    u64 totalGraphNodes() const;

    // ---- serving ----------------------------------------------------------

    /**
     * Greedy generation for one prompt; uses captured graphs when
     * available, eager decode otherwise.
     */
    StatusOr<std::vector<i32>> generate(const std::vector<i32> &prompt,
                                        u32 max_new_tokens);

    // ---- latency measurement (serving profiles) ---------------------------

    /**
     * Virtual seconds of one decode step at batch size @p bs: input
     * staging, forward (graph replay or eager), sampling and the D2H
     * sync — the per-step serving cost the cluster simulator uses. The
     * sampled token's copy is charged but not read, so this works on a
     * process whose contents were discarded.
     */
    StatusOr<f64> measureDecodeStepSec(u32 bs, bool use_graph);

    /**
     * Virtual seconds of one eager prefill of @p n_real_tokens (the
     * functional token count is scaled down accordingly). Like
     * measureDecodeStepSec, it reads nothing back.
     */
    StatusOr<f64> measurePrefillSec(u32 n_real_tokens);

    // ---- validation helpers (Medusa §4) -----------------------------------

    /**
     * Stage a deterministic decode state: bs sequences with fixed
     * tokens, positions and pre-filled KV contents.
     */
    Status stageValidationState(u32 bs);

    /** Run one eager decode and snapshot the logits buffer. */
    StatusOr<std::vector<f32>> eagerDecodeLogits(u32 bs);

    /** Replay the instantiated graph for bs and snapshot the logits. */
    StatusOr<std::vector<f32>> graphDecodeLogits(u32 bs);

    /** Replay an arbitrary graph exec and snapshot the logits. */
    StatusOr<std::vector<f32>>
    execAndReadLogits(const simcuda::GraphExec &exec, u32 bs);

  private:
    ForwardPass::Env forwardEnv();

    /** Write decode inputs for a batch of live sequences (padded). */
    Status stageDecodeInputs(const std::vector<Sequence *> &seqs,
                             u32 padded_bs);

    /** Read logits rows [0, bs) from the device. */
    StatusOr<std::vector<f32>> readLogits(u32 bs, u32 row_offset = 0);

    /** Launch argmax over one logits row into the sampled-token slot. */
    Status launchSample(u32 row);

    /** launchSample(), then read the token back. */
    StatusOr<i32> sampleToken(u32 row);

    /** Pick the smallest captured batch size >= n. */
    StatusOr<u32> graphBatchFor(u32 n) const;

    ModelConfig model_;
    /** Kept so rollbackToPristine reseeds the allocator identically. */
    u64 aslr_seed_;
    SimClock clock_;
    CostModel cost_storage_; // used when Options::cost == nullptr
    const CostModel *cost_;
    std::unique_ptr<simcuda::GpuProcess> process_;
    std::unique_ptr<simcuda::CachingAllocator> alloc_;
    EngineObserver *observer_;

    ModelWeights weights_;
    BpeTokenizer tokenizer_;
    bool tokenizer_loaded_ = false;
    ForwardBuffers bufs_;
    KvCache kv_;
    SemaphoreMap semaphores_;
    LmWorkspaceMap lm_workspace_;
    std::map<u32, simcuda::GraphExec> graphs_;
    bool structure_ready_ = false;
    bool weights_ready_ = false;
};

} // namespace medusa::llm

#endif // MEDUSA_LLM_RUNTIME_H
