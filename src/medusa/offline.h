/**
 * @file
 * The offline phase driver (paper §3 left half): capturing stage +
 * analysis stage, then v6 image emission, lint and a validation
 * dry-run of the online phase on the emitted image in a fresh
 * simulated process (the paper's §4 output comparison), with an
 * iterative repair loop that demotes false-positive pointer
 * classifications to constants and re-emits.
 *
 * Run once per <GPU type, model>; the output image is what every
 * online cold start restores from.
 */

#ifndef MEDUSA_MEDUSA_OFFLINE_H
#define MEDUSA_MEDUSA_OFFLINE_H

#include "common/pipeline_options.h"
#include "llm/engine.h"
#include "medusa/analyze.h"
#include "medusa/artifact.h"

namespace medusa::core {

/** Offline-phase configuration. */
struct OfflineOptions
{
    llm::ModelConfig model;
    u64 aslr_seed = 1;
    const CostModel *cost = nullptr;
    AnalyzeOptions analyze;
    /**
     * Cross-cutting pipeline knobs (shared shape with RestoreOptions
     * and ClusterOptions). `pipeline.validate` runs the online dry-run
     * validation (and repair) on the emitted image — on by default here;
     * `pipeline.lint` runs medusa-lint over each emitted image with the
     * raw recorder trace, so relocation liveness is checked at each
     * launch's exact trace position, and fails materialization on any
     * error-severity diagnostic.
     */
    PipelineOptions pipeline = {.validate = true};
    /** Bound on validation/repair iterations. */
    u32 max_repair_attempts = 16;
};

/** The offline phase's output. */
struct OfflineResult
{
    Artifact artifact;
    /**
     * The serialized v6 materialized image (DESIGN.md §13): the
     * artifact flattened into a relocation-patchable structure of
     * arrays, with the tokenizer's learned merges embedded. Open with
     * MaterializedImage::open and restore with
     * MedusaEngine::coldStartFromImage.
     */
    std::vector<u8> image_bytes;
    /** Capturing-stage virtual seconds (cold start + graph saving). */
    f64 capture_stage_sec = 0;
    /** Analysis-stage virtual seconds. */
    f64 analysis_stage_sec = 0;
    /** Validation dry-run virtual seconds (not part of Figure 9). */
    f64 validation_sec = 0;
    /** The recorded cold start's per-stage times (vLLM-shaped). */
    StageTimes capture_cold_start;
    /** Offline-phase spans (offline.* taxonomy), simulated time. */
    std::vector<TraceEvent> spans;

    f64 totalOffline() const
    {
        return capture_stage_sec + analysis_stage_sec;
    }
};

/** Execute the offline phase for one model. */
StatusOr<OfflineResult> materialize(const OfflineOptions &opts);

} // namespace medusa::core

#endif // MEDUSA_MEDUSA_OFFLINE_H
