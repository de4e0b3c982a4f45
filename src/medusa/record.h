/**
 * @file
 * The offline-phase recorder: intercepts the buffer (de)allocation
 * sequence, every kernel launch, and the engine's buffer tags while a
 * capturing-stage cold start runs (paper §3, capturing stage).
 *
 * A captured launch is recorded as its position in the allocation op
 * sequence only. Its kernel address and parameter values are the
 * captured graph's node (CudaGraph::node / params), which the analysis
 * reads; a second copy here would cost an allocation per argument and
 * nothing would read it.
 */

#ifndef MEDUSA_MEDUSA_RECORD_H
#define MEDUSA_MEDUSA_RECORD_H

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "llm/hooks.h"
#include "medusa/image.h"
#include "simcuda/caching_allocator.h"

namespace medusa::core {

/** One recorded allocation with its lifetime in op positions. */
struct AllocRecord
{
    u64 alloc_index = 0;
    DeviceAddr addr = 0;
    u64 logical_size = 0;
    u64 backing_size = 0;
    /** Position in the op sequence where the allocation happened. */
    u64 op_pos_alloc = 0;
    /** Position of the free, or -1 if never freed. */
    i64 op_pos_free = -1;
};

/**
 * One kernel launch recorded during stream capture: where it fell in
 * the op sequence. The launch itself is the graph node of the same
 * index.
 */
struct CapturedLaunch
{
    /** Op-sequence position at launch time (for backward matching). */
    u64 op_pos = 0;
};

/**
 * The recorder; see file comment. Attach via
 * CachingAllocator::setObserver, GpuProcess::setLaunchObserver and
 * ModelRuntime::Options::observer.
 */
class Recorder final : public simcuda::AllocObserver,
                       public simcuda::LaunchObserver,
                       public llm::EngineObserver
{
  public:
    // ---- AllocObserver -------------------------------------------------
    void onAlloc(u64 seq_index, DeviceAddr addr, u64 logical_size,
                 u64 backing_size) override;
    void onFree(DeviceAddr addr) override;

    // ---- LaunchObserver ---------------------------------------------------
    void onKernelLaunch(KernelAddr fn, simcuda::ParamView params,
                        bool capturing) override;

    // ---- EngineObserver -----------------------------------------------------
    void onTagBuffer(const std::string &tag, DeviceAddr addr) override;

    // ---- phase markers (driven by the offline driver) ----------------------

    /**
     * End of the organically-replayed prefix (structure init): the
     * online phase reproduces everything before this point by running
     * the same deterministic code, and replays everything after.
     */
    void markOrganicBoundary();

    /** Start of the capturing stage (for §4.3 buffer classification). */
    void markCaptureStageBegin();

    /** Delimit the captured launches of one batch size's graph. */
    void beginGraph(u32 batch_size);
    void endGraph();

    // ---- analysis-facing queries ------------------------------------------

    const std::vector<AllocOp> &ops() const { return ops_; }
    const std::vector<AllocRecord> &allocs() const { return allocs_; }
    const std::map<u32, std::vector<CapturedLaunch>> &
    graphLaunches() const
    {
        return graph_launches_;
    }
    const std::map<std::string, u64> &tags() const { return tags_; }

    u64 organicOpCount() const { return organic_op_count_; }
    u64 organicAllocCount() const { return organic_alloc_count_; }
    u64 captureStageOpPos() const { return capture_stage_op_pos_; }

    /**
     * Replace @p out with all records whose logical range
     * [addr, addr+size) contains @p value, ordered by allocation time.
     * Non-empty only when value is a real (possibly interior) buffer
     * pointer. Reusing @p out across calls keeps lookups
     * allocation-free.
     */
    void recordsContaining(DeviceAddr value,
                           std::vector<const AllocRecord *> &out) const;

  private:
    std::vector<AllocOp> ops_;
    std::vector<AllocRecord> allocs_;
    /** live address -> alloc index. */
    std::unordered_map<DeviceAddr, u64> live_;
    /**
     * (driver-block base, alloc index) of every record, sorted: the
     * records at one base are adjacent and in allocation order.
     */
    std::vector<std::pair<DeviceAddr, u64>> by_base_;
    std::map<u32, std::vector<CapturedLaunch>> graph_launches_;
    std::map<std::string, u64> tags_;

    u64 organic_op_count_ = 0;
    u64 organic_alloc_count_ = 0;
    u64 capture_stage_op_pos_ = 0;
    i32 current_graph_ = -1;
};

} // namespace medusa::core

#endif // MEDUSA_MEDUSA_RECORD_H
