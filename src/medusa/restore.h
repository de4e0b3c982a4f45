/**
 * @file
 * The online phase: a Medusa cold start that restores materialized
 * state instead of profiling and capturing (paper §3 right half).
 *
 * Online control flow (deterministic, mirroring the offline run):
 *   1. structure init runs organically; the interceptor verifies it
 *      reproduces the image's allocation prefix;
 *   2. the tokenizer is rebuilt from the image's materialized merges;
 *   3. KV-init is restored: the image is read and the materialized
 *      free-memory value replaces the profiling forwarding (§6);
 *   4. the recorded buffer (de)allocation sequence is replayed and the
 *      per-event addresses recorded (§4.2); engine buffers re-bind via
 *      tags;
 *   5. weights load;
 *   6. permanent-buffer contents are restored (§4.3);
 *   7. the model's first layer is warmed up and captured — the
 *      triggering-kernels that force every module to load — and each
 *      unique kernel's address is restored via dlsym() where visible,
 *      else via module enumeration (§5);
 *   8. one patch pass applies the image's relocation table (pointers
 *      through the indirect index pointer table, kernels through step
 *      7's addresses) and every graph is instantiated straight from
 *      the patched arrays (DESIGN.md §13).
 *
 * The visible loading latency composes steps 3-8 against the weights
 * loading, which they overlap (Figure 8(c)).
 */

#ifndef MEDUSA_MEDUSA_RESTORE_H
#define MEDUSA_MEDUSA_RESTORE_H

#include <memory>

#include "llm/engine.h"
#include "medusa/image.h"
#include "medusa/restore_options.h"

namespace medusa::core {

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
     * Run the online cold start against an opened MaterializedImage.
     * Each attempt is journalled and rolled back on failure; the
     * fallback policy decides between failing, retrying and the
     * vanilla cold start. Fails with kValidationFailure if the image
     * does not match the model or (when
     * options.restore.pipeline.validate) replayed outputs mismatch an
     * eager forwarding. The image must outlive the returned engine
     * (its replay interceptor observes against the image's op
     * sequence).
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

    /** Declared before the runtime so it outlives the allocator that
     *  holds a raw pointer to it. */
    std::unique_ptr<simcuda::AllocObserver> interceptor_;
    std::unique_ptr<llm::ModelRuntime> runtime_;
    ColdStartReport report_;
};

} // namespace medusa::core

#endif // MEDUSA_MEDUSA_RESTORE_H
