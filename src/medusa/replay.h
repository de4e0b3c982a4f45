/**
 * @file
 * The online phase's internal pieces: the allocation-replay
 * interceptor, the building blocks of the step list (sequence
 * replayer, engine-buffer rebinding, content/pointer-fix restoration,
 * kernel name-table construction, kernel resolution and the v6 image
 * patch pass), the one step list that runs them on one runtime
 * (runRestoreSteps) and the one transactional attempt loop
 * (runRestoreAttempts). The single-GPU MedusaEngine (restore.h) is the
 * one-runtime case of that loop; the tensor-parallel driver (tp.h)
 * runs it over every rank.
 */

#ifndef MEDUSA_MEDUSA_REPLAY_H
#define MEDUSA_MEDUSA_REPLAY_H

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cold_start_report.h"
#include "llm/runtime.h"
#include "medusa/image.h"
#include "medusa/restore_options.h"

namespace medusa::core {

/**
 * The online interceptor: records the address returned for every
 * allocation index and verifies that the organic prefix (structure
 * init) reproduces the image's recorded sizes.
 */
class ReplayTable final : public simcuda::AllocObserver
{
  public:
    /**
     * Observe against @p ops (the caller — typically a
     * MaterializedImage — keeps the op storage alive).
     */
    ReplayTable(std::span<const AllocOp> ops, u64 organic_alloc_count);

    void onAlloc(u64 seq_index, DeviceAddr addr, u64 logical_size,
                 u64 backing_size) override;
    void onFree(DeviceAddr addr) override { (void)addr; }

    /** The replayed address of an allocation index. */
    StatusOr<DeviceAddr> addrOf(u64 alloc_index) const;

    /** Every replayed address so far, by allocation index. */
    std::span<const DeviceAddr> addresses() const { return addr_of_; }

    /** The number of kAlloc ops in the observed sequence. */
    u64 sequenceAllocCount() const { return alloc_ops_.size(); }

    /** OK iff the organic prefix matched the materialized sequence. */
    Status organicStatus() const;

    u64 allocCount() const { return addr_of_.size(); }

  private:
    u64 organic_alloc_count_ = 0;
    std::vector<const AllocOp *> alloc_ops_;
    std::vector<DeviceAddr> addr_of_;
    std::string mismatch_;
};

/**
 * Replay ops[organic_op_count..] through the runtime's allocator.
 * @p fault, when set, injects FaultPoint::kReplayPrefix at the organic
 * handoff and kReplayAlloc before each replayed allocation.
 */
Status replayAllocSequence(std::span<const AllocOp> ops,
                           u64 organic_op_count, llm::ModelRuntime &rt,
                           const ReplayTable &table,
                           RestoreReport &report,
                           FaultInjector *fault = nullptr);

/**
 * Re-bind the engine's tagged I/O and KV-cache buffers post-replay and
 * rederive the KV accounting (for rt.model(), so a tensor-parallel
 * rank sizes its own shard) from the materialized free-memory value.
 */
Status rebindEngineBuffers(const std::map<std::string, u64> &tags,
                           u64 free_gpu_memory, const ReplayTable &table,
                           llm::ModelRuntime &rt);

/**
 * Run the first-layer triggering-kernels capture and enumerate every
 * loaded module into a kernel name -> address table (§5). @p fault,
 * when set, injects FaultPoint::kKernelEnumeration per module.
 */
StatusOr<std::unordered_map<std::string, KernelAddr>>
buildKernelNameTable(llm::ModelRuntime &rt,
                     FaultInjector *fault = nullptr);

/**
 * Restore permanent-buffer contents from the image's zero-copy views
 * and rewrite indirect pointer words (§4.3 + the §8 extension).
 */
Status restoreContents(const MaterializedImage &image,
                       llm::ModelRuntime &rt, const ReplayTable &table,
                       RestoreReport &report);

/**
 * Steps 7-8 of the online phase after the name table: resolve the
 * image's first-occurrence kernel table (§5, once per UNIQUE kernel —
 * dlsym where visible, else @p name_table), run the patch pass
 * (DESIGN.md §13) and instantiate every graph straight from the
 * patched slots.
 *
 * The kernel table is in the order the capture first launched each
 * kernel, so module loads — and the ASLR draws they make — are
 * deterministic. The patch pass lays the image's patch template out
 * as each graph's executable arrays, writes every data relocation
 * through @p table and every kernel relocation through the resolved
 * addresses into them in one linear sweep, and charges
 * restore_per_node_us per graph node (the paper-calibrated "patch
 * params + add node" cost). Instantiation adopts those arrays and
 * registers graphs serially in image order; a failed batch unregisters
 * what it registered. The executables keep no reference to @p image.
 *
 * Emits the "restore.graphs.resolve", "restore.patch_pass",
 * "restore.graphs.patch" and "restore.graphs.instantiate" spans, and
 * injects FaultPoint::kKernelDlsym per dlsym, kImagePatch before each
 * relocation batch (the torn-patch fault of the rollback tests) and
 * kGraphInstantiate per graph.
 */
Status patchGraphs(const MaterializedImage &image, const ReplayTable &table,
                   const std::unordered_map<std::string, KernelAddr>
                       &name_table,
                   llm::ModelRuntime &rt, const RestoreOptions &options,
                   RestoreReport &report);

/**
 * Steps 1-8 of the online phase (restore.h's file comment) on one
 * runtime from one image: structure init (checked against the image's
 * organic prefix and allocation count), the tokenizer, the KV-init
 * restore (the image-read charge, the sequence replay and the
 * engine-buffer rebind), weights, contents, the kernel name table and
 * the patch pass. Fills the raw stage durations of @p t (not
 * t.loading: each engine composes its own) and @p report. Spans go to
 * options.pipeline.trace, fault points to options.pipeline.fault. On
 * error the attempt loop rolls the runtime back; nothing here needs to
 * clean up.
 */
Status runRestoreSteps(const MaterializedImage &image,
                       llm::ModelRuntime &rt, ReplayTable &table,
                       const RestoreOptions &options, StageTimes &t,
                       RestoreReport &report);

/** One runtime the attempt loop restores (all non-null). */
struct RestoreTarget
{
    llm::ModelRuntime *rt;
    /** The image whose op sequence the runtime's interceptor replays. */
    const MaterializedImage *image;
    /** Receives the loop's attempt, rollback and backoff spans. */
    TraceRecorder *trace;
};

/**
 * One restore attempt over every target, given each target's fresh
 * replay table and zeroed report (index = target). On error it leaves
 * the cleanup to the loop.
 */
using RestoreAttemptFn =
    std::function<Status(std::span<const std::unique_ptr<ReplayTable>>,
                         std::span<RestoreReport>)>;

/**
 * The transactional attempt loop shared by both engines. Every attempt
 * gives each target a fresh ReplayTable (set as its allocator
 * observer) and opens its journal, then runs @p attempt inside a
 * "restore.attempt" span. A failed attempt rolls EVERY target back to
 * pristine, wastes the latest clock's elapsed time, and follows
 * @p policy: kFail returns the failure, otherwise the next attempt (if
 * any) waits out the backoff on every clock.
 *
 * Returns kRestored or kRestoredAfterRetry with @p tables holding the
 * successful attempt's interceptors and @p reports its per-target
 * reports, or kFellBack when every attempt failed: the runtimes are
 * pristine and the caller runs its vanilla cold start. Every way out,
 * the kFail error included, leaves each report carrying the one set of
 * attempt accounting (attempts, failures, retries, wasted and backoff
 * seconds, last failure, fallback flag).
 */
StatusOr<ColdStartOutcome>
runRestoreAttempts(std::span<const RestoreTarget> targets,
                   const FallbackPolicy &policy,
                   const RestoreAttemptFn &attempt,
                   std::vector<std::unique_ptr<ReplayTable>> &tables,
                   std::vector<RestoreReport> &reports);

} // namespace medusa::core

#endif // MEDUSA_MEDUSA_REPLAY_H
