/**
 * @file
 * The online phase: a Medusa cold start that restores materialized
 * state instead of profiling and capturing (paper §3 right half).
 *
 * Online control flow (deterministic, mirroring the offline run):
 *   1. structure init runs organically; the interceptor verifies it
 *      reproduces the artifact's allocation prefix;
 *   2. tokenizer loads;
 *   3. KV-init is restored: the artifact is read and the materialized
 *      free-memory value replaces the profiling forwarding (§6);
 *   4. the recorded buffer (de)allocation sequence is replayed and the
 *      per-event addresses recorded (§4.2); engine buffers re-bind via
 *      tags;
 *   5. weights load;
 *   6. permanent-buffer contents are restored (§4.3);
 *   7. the model's first layer is warmed up and captured — the
 *      triggering-kernels that force every module to load — and kernel
 *      addresses are restored via dlsym() where visible, else via
 *      module enumeration (§5);
 *   8. each materialized graph is rebuilt (pointers patched via the
 *      indirect index pointer table) and instantiated.
 *
 * The visible loading latency composes steps 3-8 against the weights
 * loading, which they overlap (Figure 8(c)).
 */

#ifndef MEDUSA_MEDUSA_RESTORE_H
#define MEDUSA_MEDUSA_RESTORE_H

#include <functional>
#include <memory>

#include "llm/engine.h"
#include "medusa/artifact.h"
#include "medusa/image.h"
#include "medusa/restore_options.h"

namespace medusa::core {

class ReplayTable;

/**
 * A serving engine cold-started through Medusa's online phase.
 */
class MedusaEngine
{
  public:
    struct Options
    {
        llm::ModelConfig model;
        u64 aslr_seed = 2;
        const CostModel *cost = nullptr;
        RestoreOptions restore;
        bool warm_container = true;
    };

    /**
     * Run the online cold start against a materialized artifact.
     * Fails with kValidationFailure if the artifact does not match the
     * model or (when options.restore.pipeline.validate) outputs
     * mismatch.
     */
    static StatusOr<std::unique_ptr<MedusaEngine>>
    coldStart(const Options &opts, const Artifact &artifact);

    /**
     * The v6 relocation-patch online phase (DESIGN.md §13): restore
     * against an opened MaterializedImage instead of a v5 artifact.
     * Steps 1-6 match coldStart; steps 7-8 are replaced by a single
     * patch pass (template copy + relocations) and direct instantiation
     * from the patched arrays — no CudaGraph rebuild, no per-node
     * kernel resolution. Same transactional attempt loop, fallback
     * policy and fidelity contract: restore fingerprints and decode
     * logits are bit-identical to the rebuild path's. The image must
     * outlive the returned engine (its replay interceptor observes
     * against the image's op sequence).
     */
    static StatusOr<std::unique_ptr<MedusaEngine>>
    coldStartFromImage(const Options &opts, const MaterializedImage &image);

    llm::ModelRuntime &runtime() { return *runtime_; }

    /**
     * The consolidated report for this cold start: outcome, stage
     * times, restore counters, spans and a metrics snapshot
     * (DESIGN.md §12).
     */
    const ColdStartReport &coldStartReport() const { return report_; }

  private:
    MedusaEngine() = default;

    using MakeTableFn = std::function<std::unique_ptr<ReplayTable>()>;
    using AttemptFn =
        std::function<Status(const Options &, llm::ModelRuntime &,
                             ReplayTable &, StageTimes &,
                             RestoreReport &)>;

    /**
     * The shared transactional attempt loop: journalled attempts,
     * rollback-on-failure, retry backoff and the vanilla fallback tail.
     * The artifact and image cold starts differ only in how a replay
     * table is built and what one attempt does.
     */
    static StatusOr<std::unique_ptr<MedusaEngine>>
    runTransactional(Options opts, TraceRecorder *user_trace,
                     const MakeTableFn &make_table,
                     const AttemptFn &attempt);

    /** Declared before the runtime so it outlives the allocator that
     *  holds a raw pointer to it. */
    std::unique_ptr<simcuda::AllocObserver> interceptor_;
    std::unique_ptr<llm::ModelRuntime> runtime_;
    ColdStartReport report_;
};

} // namespace medusa::core

#endif // MEDUSA_MEDUSA_RESTORE_H
