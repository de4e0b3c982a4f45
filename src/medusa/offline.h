/**
 * @file
 * The offline phase driver (paper §3 left half): capturing stage +
 * analysis stage (which appends straight into the v6 image's sections),
 * then one emission, one open of the emitted bytes, lint, and a
 * validation dry-run of the online phase on that image in a fresh
 * simulated process (the paper's §4 output comparison).
 *
 * Run once per <GPU type, model>; the output image is what every
 * online cold start restores from.
 */

#ifndef MEDUSA_MEDUSA_OFFLINE_H
#define MEDUSA_MEDUSA_OFFLINE_H

#include <span>
#include <utility>
#include <vector>

#include "common/pipeline_options.h"
#include "llm/engine.h"
#include "medusa/analyze.h"
#include "medusa/image.h"

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
     * validation on the emitted image — on by default here;
     * `pipeline.lint` runs medusa-lint over each emitted image with the
     * raw recorder trace, so relocation liveness is checked at each
     * launch's exact trace position, and fails materialization on any
     * error-severity diagnostic.
     */
    PipelineOptions pipeline = {.validate = true};
};

/**
 * The offline phase's output. Move-only: @c artifact views
 * @c image_bytes, and a moved vector keeps its heap buffer, so a moved
 * result's view stays valid — but the bytes must not be reassigned
 * while the view is in use.
 */
struct OfflineResult
{
    /**
     * The serialized v6 materialized image (DESIGN.md §13): the
     * analysis stage's sections written once, with the tokenizer's
     * learned merges embedded. Restore with
     * MedusaEngine::coldStartFromImage.
     */
    std::vector<u8> image_bytes;
    /**
     * The image materialize opened over @c image_bytes for lint and
     * validation (zero-copy): serving profiles and benches restore
     * from it without a second open.
     */
    MaterializedImage artifact;
    /** What the analysis stage counted. */
    AnalysisStats stats;
    /** Capturing-stage virtual seconds (cold start + graph saving). */
    f64 capture_stage_sec = 0;
    /** Analysis-stage virtual seconds. */
    f64 analysis_stage_sec = 0;
    /** Validation dry-run virtual seconds (not part of Figure 9). */
    f64 validation_sec = 0;
    /** Offline-phase spans (offline.* taxonomy), simulated time. */
    std::vector<TraceEvent> spans;

    f64 totalOffline() const
    {
        return capture_stage_sec + analysis_stage_sec;
    }
};

/** Execute the offline phase for one model. */
StatusOr<OfflineResult> materialize(const OfflineOptions &opts);

/** What the capturing stage hands the analysis stage. */
struct CapturedStage
{
    /** (batch size, captured graph), in capture order. */
    std::vector<std::pair<u32, simcuda::CudaGraph>> graphs;
    /** The profiling forwarding's free-memory figure (stage ❹). */
    u64 free_bytes = 0;
};

/**
 * The offline capturing stage (§3) on one runtime whose observers are
 * @p recorder: the vanilla stages ❶–❹ with the organic boundary marked
 * after ❶, then the capture-stage mark and, per entry of @p batch_sizes
 * in order, a warm-up and a recorded capture (no instantiation), then
 * the `offline.save` charge for the captured nodes. Stages get the
 * `cold_start.*` spans on @p rec (may be null). materialize runs it
 * once; materializeTp runs it on every rank.
 *
 * The capture is shape-only: it first calls discardContents() on the
 * runtime's process, so the profiling forwarding and the warm-ups
 * charge the clock without running kernel bodies, and every buffer a
 * skipped body would have written is tainted (DESIGN.md "Discarded
 * contents").
 */
StatusOr<CapturedStage> runCaptureStage(llm::ModelRuntime &rt,
                                        Recorder &recorder,
                                        std::span<const u32> batch_sizes,
                                        TraceRecorder *rec);

} // namespace medusa::core

#endif // MEDUSA_MEDUSA_OFFLINE_H
