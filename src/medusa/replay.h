/**
 * @file
 * Reusable building blocks of the online phase, shared by the
 * single-GPU MedusaEngine (restore.h) and the tensor-parallel driver
 * (tp.h): the allocation-replay interceptor, the sequence replayer,
 * engine-buffer rebinding, content/pointer-fix restoration, kernel
 * name-table construction and graph rebuilding.
 */

#ifndef MEDUSA_MEDUSA_REPLAY_H
#define MEDUSA_MEDUSA_REPLAY_H

#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cold_start_report.h"
#include "common/thread_pool.h"
#include "llm/runtime.h"
#include "medusa/artifact.h"
#include "medusa/image.h"
#include "medusa/restore_options.h"

namespace medusa::core {

/**
 * The online interceptor: records the address returned for every
 * allocation index and verifies that the organic prefix (structure
 * init) reproduces the artifact's recorded sizes.
 */
class ReplayTable final : public simcuda::AllocObserver
{
  public:
    explicit ReplayTable(const Artifact *artifact);

    /**
     * Image-path form: observe against @p ops directly (the caller —
     * typically a MaterializedImage — keeps the op storage alive).
     */
    ReplayTable(std::span<const AllocOp> ops, u64 organic_alloc_count);

    void onAlloc(u64 seq_index, DeviceAddr addr, u64 logical_size,
                 u64 backing_size) override;
    void onFree(DeviceAddr addr) override { (void)addr; }

    /** The replayed address of an allocation index. */
    StatusOr<DeviceAddr> addrOf(u64 alloc_index) const;

    /** OK iff the organic prefix matched the artifact. */
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
Status replayAllocSequence(const Artifact &artifact,
                           llm::ModelRuntime &rt,
                           const ReplayTable &table,
                           RestoreReport &report,
                           FaultInjector *fault = nullptr);

/** Op-sequence form shared by the artifact and image restore paths. */
Status replayAllocSequence(std::span<const AllocOp> ops,
                           u64 organic_op_count, llm::ModelRuntime &rt,
                           const ReplayTable &table,
                           RestoreReport &report,
                           FaultInjector *fault = nullptr);

/** Re-bind the engine's tagged I/O and KV-cache buffers post-replay. */
Status rebindEngineBuffers(const Artifact &artifact,
                           const llm::ModelConfig &model,
                           const ReplayTable &table,
                           llm::ModelRuntime &rt);

/** Tag-map form shared by the artifact and image restore paths. */
Status rebindEngineBuffers(const std::map<std::string, u64> &tags,
                           u64 free_gpu_memory,
                           const llm::ModelConfig &model,
                           const ReplayTable &table,
                           llm::ModelRuntime &rt);

/**
 * Restore permanent-buffer contents and rewrite indirect pointer words
 * (§4.3 + the §8 extension).
 */
Status restoreContents(const Artifact &artifact, llm::ModelRuntime &rt,
                       const ReplayTable &table, RestoreReport &report);

/**
 * Run the first-layer triggering-kernels capture and enumerate every
 * loaded module into a kernel name -> address table (§5). @p fault,
 * when set, injects FaultPoint::kKernelEnumeration per module.
 */
StatusOr<std::unordered_map<std::string, KernelAddr>>
buildKernelNameTable(llm::ModelRuntime &rt,
                     FaultInjector *fault = nullptr);

/**
 * Rebuild one materialized graph: restore kernel addresses (dlsym or
 * the name table) and patch parameters via the indirect index pointer
 * table, then return the ready-to-instantiate graph.
 */
StatusOr<simcuda::CudaGraph>
rebuildGraph(const GraphBlueprint &bp, const ReplayTable &table,
             llm::ModelRuntime &rt,
             const std::unordered_map<std::string, KernelAddr>
                 &name_table,
             const RestoreOptions &options, RestoreReport &report);

/**
 * Rebuild and instantiate every graph in @p artifact — the parallel
 * form of the per-graph rebuildGraph + instantiateGraph loop. Three
 * phases keep the result bit-identical for every thread count:
 *
 *  1. serial kernel resolution: every dlsym / module-load / per-node
 *     clock charge and every RestoreReport counter lands on the calling
 *     thread, in exact artifact order;
 *  2. parallel graph build: parameter patching through the (const)
 *     indirect index pointer table and CudaGraph construction are pure,
 *     each task writing one pre-sized slot;
 *  3. serial instantiation in artifact order via
 *     ModelRuntime::instantiateGraphs.
 *
 * Phase-2 error contract: the first failing task flips a shared cancel
 * flag, so outstanding tasks finish immediately as no-ops; the
 * parallelFor join then guarantees worker quiescence BEFORE any error
 * propagates to the caller — a rollback triggered by a phase-2 failure
 * can never race a still-running build task. The error returned is the
 * first REAL failure in artifact order (cancelled tasks are not
 * failures), independent of thread count. FaultPoint::kGraphBuild
 * injects per-task failures for testing this path.
 *
 * @p pool may be null (phase 2 runs inline); only host wall-clock
 * changes with it.
 */
Status restoreGraphs(const Artifact &artifact, const ReplayTable &table,
                     llm::ModelRuntime &rt,
                     const std::unordered_map<std::string, KernelAddr>
                         &name_table,
                     const RestoreOptions &options,
                     RestoreReport &report, ThreadPool *pool = nullptr);

// ---- v6 image (relocation-patch) restore path -------------------------

/**
 * Restore permanent-buffer contents and indirect pointer words from the
 * image's zero-copy views — the image-path twin of restoreContents.
 */
Status restoreImageContents(const MaterializedImage &image,
                            llm::ModelRuntime &rt,
                            const ReplayTable &table,
                            RestoreReport &report);

/**
 * Resolve the image's first-occurrence kernel name table to addresses,
 * in table order (§5 once per UNIQUE kernel, not once per node). The
 * table order reproduces the module-load order of the rebuild path, so
 * ASLR draws — and restore fingerprints — stay bit-identical across
 * the two paths. Charges restore_per_node_us per table entry and
 * counts each entry in RestoreReport::kernels_resolved.
 */
StatusOr<std::vector<KernelAddr>>
resolveImageKernels(const MaterializedImage &image, llm::ModelRuntime &rt,
                    const std::unordered_map<std::string, KernelAddr>
                        &name_table,
                    const RestoreOptions &options, RestoreReport &report);

/**
 * The patch pass (DESIGN.md §13): copy the image's patch template and
 * apply every relocation in one linear sweep — data relocations
 * resolve through the replay table, kernel relocations through
 * @p kernel_addrs (resolveImageKernels output). Emits the
 * "restore.patch_pass" span, charges restore_reloc_us per relocation
 * and injects FaultPoint::kImagePatch before each relocation batch
 * (the torn-patch fault of the rollback tests).
 */
StatusOr<std::vector<u64>>
applyImageRelocations(const MaterializedImage &image,
                      const ReplayTable &table,
                      const std::vector<KernelAddr> &kernel_addrs,
                      llm::ModelRuntime &rt,
                      const RestoreOptions &options,
                      RestoreReport &report);

/**
 * Instantiate every graph directly from the patched slots — the
 * image-path replacement for restoreGraphs. No CudaGraph objects are
 * built: each graph's PatchedGraphDesc carves spans out of
 * @p patched_slots and the image's SoA columns, and
 * ModelRuntime::instantiatePatchedGraphs registers them serially in
 * image order (same rollback contract as the rebuild path).
 * @p patched_slots must outlive the call.
 */
Status patchRestoreGraphs(const MaterializedImage &image,
                          const std::vector<u64> &patched_slots,
                          llm::ModelRuntime &rt,
                          const RestoreOptions &options,
                          RestoreReport &report);

/**
 * The pool implied by RestoreOptions::restore_threads: null for a
 * serial restore (<= 1 effective thread), else a pool whose worker
 * count makes parallelFor use exactly that many participants.
 */
std::unique_ptr<ThreadPool>
makeRestorePool(const RestoreOptions &options);

} // namespace medusa::core

#endif // MEDUSA_MEDUSA_REPLAY_H
