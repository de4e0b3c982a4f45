/**
 * @file
 * Reusable building blocks of the online phase, shared by the
 * single-GPU MedusaEngine (restore.h) and the tensor-parallel driver
 * (tp.h): the allocation-replay interceptor, the sequence replayer,
 * engine-buffer rebinding, content/pointer-fix restoration, kernel
 * name-table construction, kernel resolution and the v6 image patch
 * pass.
 */

#ifndef MEDUSA_MEDUSA_REPLAY_H
#define MEDUSA_MEDUSA_REPLAY_H

#include <map>
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
 * rederive the KV accounting from the materialized free-memory value.
 */
Status rebindEngineBuffers(const std::map<std::string, u64> &tags,
                           u64 free_gpu_memory,
                           const llm::ModelConfig &model,
                           const ReplayTable &table,
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
 * deterministic. The patch pass copies the image's patch template,
 * applies every data relocation through @p table and every kernel
 * relocation through the resolved addresses in one linear sweep, and
 * charges restore_per_node_us per graph node (the paper-calibrated
 * "patch params + add node" cost). Instantiation registers graphs
 * serially in image order; a failed batch unregisters what it
 * registered.
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

} // namespace medusa::core

#endif // MEDUSA_MEDUSA_REPLAY_H
