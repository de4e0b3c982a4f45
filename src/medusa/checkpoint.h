/**
 * @file
 * A checkpoint/restore baseline (the related-work §9 class of systems:
 * FaaSnap, Catalyzer, REAP, gVisor C/R): persist the COMPLETE state of
 * a ready serving instance and restore it bit-for-bit on the next cold
 * start.
 *
 * Restoring bits works because CRIU-style restoration recreates the
 * identical address space — modelled here by re-launching the process
 * with the checkpointed ASLR seed. The cost structure is the paper's
 * argument: restoration is fast (one sequential read) but the image is
 * the whole device footprint (weights + KV reservation + pools), tens
 * of GB, versus Medusa's few-MB artifact that recomputes nothing it
 * can cheaply rebind.
 */

#ifndef MEDUSA_MEDUSA_CHECKPOINT_H
#define MEDUSA_MEDUSA_CHECKPOINT_H

#include <memory>

#include "llm/engine.h"

namespace medusa::core {

/** The (conceptual) checkpoint image of a ready instance. */
struct CheckpointImage
{
    llm::ModelConfig model;
    /** Process layout the image was taken from (restore recreates it). */
    u64 aslr_seed = 0;
    /** Device bytes captured (logical footprint of the ready state). */
    u64 device_bytes = 0;
    /** Host-side state captured (runtime, allocator metadata, graphs). */
    u64 host_bytes = 0;

    u64 totalBytes() const { return device_bytes + host_bytes; }
};

/** A serving engine brought up by restoring a checkpoint. */
class CheckpointEngine
{
  public:
    /**
     * Take a checkpoint of a fully-loaded baseline engine. Charges the
     * image write to the engine's clock and returns the image
     * descriptor.
     */
    static StatusOr<CheckpointImage>
    checkpoint(llm::BaselineEngine &engine);

    /**
     * Restore a ready instance from the image: one sequential read of
     * the full footprint plus fixed process-fixup work.
     */
    static StatusOr<std::unique_ptr<CheckpointEngine>>
    restore(const CheckpointImage &image, const CostModel *cost = nullptr,
            bool warm_container = true);

    llm::ModelRuntime &runtime() { return engine_->runtime(); }
    const StageTimes &times() const { return times_; }

  private:
    explicit CheckpointEngine(std::unique_ptr<llm::BaselineEngine> e)
        : engine_(std::move(e))
    {
    }

    std::unique_ptr<llm::BaselineEngine> engine_;
    StageTimes times_;
};

} // namespace medusa::core

#endif // MEDUSA_MEDUSA_CHECKPOINT_H
