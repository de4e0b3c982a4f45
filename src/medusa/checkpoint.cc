#include "medusa/checkpoint.h"

#include "simcuda/memory.h"

namespace medusa::core {

namespace {

/** Host-side image share: runtime + allocator + instantiated graphs. */
constexpr u64 kHostStateBytes = 600ull * units::MiB;
/** Fixed process-fixup cost on restore (page tables, handles). */
constexpr f64 kRestoreFixupSec = 0.12;

} // namespace

StatusOr<CheckpointImage>
CheckpointEngine::checkpoint(llm::BaselineEngine &engine)
{
    llm::ModelRuntime &rt = engine.runtime();
    if (rt.graphCount() == 0 && engine.strategy() !=
                                    llm::Strategy::kNoCudaGraph) {
        return failedPrecondition("checkpoint of a half-loaded engine");
    }
    CheckpointImage image;
    image.model = rt.model();
    image.aslr_seed = engine.aslrSeed(); // restore recreates the layout
    image.device_bytes = rt.process().memory().usedLogicalBytes();
    image.host_bytes = kHostStateBytes;
    // Charge the checkpoint write.
    rt.clock().advance(rt.process().cost().ssdReadTime(
        static_cast<f64>(image.totalBytes())));
    return image;
}

StatusOr<std::unique_ptr<CheckpointEngine>>
CheckpointEngine::restore(const CheckpointImage &image,
                          const CostModel *cost, bool warm_container)
{
    // Static pre-restore sanity check, mirroring medusa-lint's
    // pre-restore gate on artifacts: reject an image that could not
    // have come from a ready instance before paying the full-image
    // read. A CRIU-style image records the complete device footprint,
    // so a zero or beyond-capacity figure means corruption.
    if (image.device_bytes == 0) {
        return validationFailure(
            "checkpoint image records no device state");
    }
    if (image.device_bytes >
        simcuda::DeviceMemoryManager::kDefaultDeviceBytes) {
        return validationFailure(
            "checkpoint image device footprint exceeds the device "
            "capacity; the image is corrupt or from a larger device");
    }

    // Functionally, restoring bits into the identical address layout is
    // equivalent to re-running the deterministic cold start with the
    // checkpointed seed; only the *cost* differs: one sequential image
    // read + fixup instead of the loading-phase stages.
    llm::BaselineEngine::Options opts;
    opts.model = image.model;
    opts.strategy = llm::Strategy::kVllm;
    opts.aslr_seed = image.aslr_seed;
    opts.cost = cost;
    opts.warm_container = warm_container;
    MEDUSA_ASSIGN_OR_RETURN(auto baseline,
                            llm::BaselineEngine::coldStart(opts));

    std::unique_ptr<CheckpointEngine> engine(
        new CheckpointEngine(std::move(baseline)));
    const CostModel &c = engine->engine_->runtime().process().cost();
    StageTimes t;
    t.runtime_init = warm_container ? c.runtime_init_warm_ms / 1e3
                                    : c.runtime_init_cold_ms / 1e3;
    // The restore is dominated by reading the full image.
    t.loading = units::nsToSec(c.ssdReadTime(
                    static_cast<f64>(image.totalBytes()))) +
                kRestoreFixupSec;
    // Attribute everything to a single "restore" pseudo-stage.
    t.weights = t.loading - kRestoreFixupSec;
    t.capture = kRestoreFixupSec;
    engine->times_ = t;
    return engine;
}

} // namespace medusa::core
