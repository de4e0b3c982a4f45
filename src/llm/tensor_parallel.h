/**
 * @file
 * Tensor-parallel serving cluster (the paper's §8 multi-GPU future
 * work).
 *
 * A TpCluster drives one ModelRuntime per rank, each in its own
 * simulated GPU process with sharded attention heads and MLP columns.
 * Decode graphs are captured per rank (warm-up runs eagerly with
 * rank-local no-op collectives, as warm-up outputs are discarded) and
 * replayed in lockstep, with the replayer providing the NCCL all-reduce
 * semantics (simcuda/lockstep.h). With identical sharded weights
 * composed from the same "weight files", the lockstep decode output
 * matches a single-GPU engine's output up to floating-point summation
 * order.
 */

#ifndef MEDUSA_LLM_TENSOR_PARALLEL_H
#define MEDUSA_LLM_TENSOR_PARALLEL_H

#include <memory>
#include <vector>

#include "llm/runtime.h"
#include "simcuda/lockstep.h"

namespace medusa::llm {

/**
 * The tensor-parallel engine; see file comment.
 */
class TpCluster
{
  public:
    struct Options
    {
        ModelConfig model;
        /** Ranks (GPUs); model head/intermediate dims must divide. */
        u32 world = 2;
        u64 aslr_seed = 1;
        const CostModel *cost = nullptr;
        /** Per-rank observer hooks (optional; Medusa's recorders). */
        std::vector<simcuda::AllocObserver *> alloc_observers;
        std::vector<simcuda::LaunchObserver *> launch_observers;
        std::vector<EngineObserver *> engine_observers;
    };

    /** Create the ranks (no loading yet). */
    static StatusOr<std::unique_ptr<TpCluster>> create(const Options &o);

    /**
     * Create the ranks, load them (loadAll) and capture @p batch_sizes
     * (captureAll): a vanilla cluster to compare a restored one with.
     */
    static StatusOr<std::unique_ptr<TpCluster>>
    createCaptured(const Options &o, const std::vector<u32> &batch_sizes);

    u32 world() const { return static_cast<u32>(ranks_.size()); }
    ModelRuntime &rank(u32 r) { return *ranks_.at(r); }

    /**
     * Run loading stages ❶-❹ (runLoadingStages) on every rank, in rank
     * order; ranks are independent processes, so the order moves no
     * rank's state or clock.
     */
    Status loadAll();

    /**
     * Warm up (eager, per rank) and capture + instantiate the decode
     * graphs for the given batch sizes on every rank.
     */
    Status captureAll(const std::vector<u32> &batch_sizes);

    /** Stage the same deterministic decode state on every rank. */
    Status stageValidationState(u32 bs);

    /**
     * Lockstep-replay the batch-size-bs graphs across all ranks and
     * return rank 0's logits.
     */
    StatusOr<std::vector<f32>> lockstepDecodeLogits(u32 bs);

    /** Lockstep-replay caller-provided per-rank graphs. */
    StatusOr<std::vector<f32>>
    lockstepDecodeLogits(u32 bs,
                         const std::vector<const simcuda::GraphExec *>
                             &execs);

  private:
    TpCluster() = default;

    std::vector<std::unique_ptr<ModelRuntime>> ranks_;
};

} // namespace medusa::llm

#endif // MEDUSA_LLM_TENSOR_PARALLEL_H
