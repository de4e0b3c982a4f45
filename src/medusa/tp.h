/**
 * @file
 * Medusa for tensor-parallel serving — the paper's §8 future work:
 * "constructing the indirect index pointer table across multiple GPU
 * instances".
 *
 * Offline, each rank runs its own recorder through the capturing-stage
 * cold start (per-rank allocation sequences, per-rank graphs with
 * all-reduce collective nodes), and the analysis writes each rank's
 * own v6 image.
 * Online, every rank runs the single-GPU step list (replay.h) from
 * its own image in its own process, inside the one attempt loop both
 * engines share; the restored graphs are validated by lockstep replay
 * against a reference capture.
 */

#ifndef MEDUSA_MEDUSA_TP_H
#define MEDUSA_MEDUSA_TP_H

#include <memory>
#include <vector>

#include "llm/tensor_parallel.h"
#include "medusa/image.h"
#include "medusa/replay.h"
#include "medusa/restore_options.h"

namespace medusa::core {

/** Offline-phase options for a tensor-parallel deployment. */
struct TpOfflineOptions
{
    llm::ModelConfig model;
    u32 world = 2;
    /** Batch sizes to capture (the full 35 by default). */
    std::vector<u32> batch_sizes;
    u64 aslr_seed = 1;
    const CostModel *cost = nullptr;
};

/** One image per rank plus offline-phase timings. */
struct TpOfflineResult
{
    /**
     * One serialized v6 image per rank (DESIGN.md §13), with that
     * rank's tokenizer merges embedded; openRankImages views them.
     */
    std::vector<std::vector<u8>> rank_images;
    f64 capture_stage_sec = 0;
    f64 analysis_stage_sec = 0;

    f64 totalOffline() const
    {
        return capture_stage_sec + analysis_stage_sec;
    }
};

/** Run the tensor-parallel offline phase. */
StatusOr<TpOfflineResult> materializeTp(const TpOfflineOptions &opts);

/**
 * Open every rank's serialized image as a zero-copy view; the caller
 * keeps @p rank_images alive for as long as the images are used.
 */
StatusOr<std::vector<MaterializedImage>>
openRankImages(const std::vector<std::vector<u8>> &rank_images);

/**
 * A tensor-parallel serving cluster cold-started through Medusa's
 * online phase on every rank.
 */
class TpMedusaEngine
{
  public:
    struct Options
    {
        llm::ModelConfig model;
        u32 world = 2;
        u64 aslr_seed = 7;
        const CostModel *cost = nullptr;
        RestoreOptions restore;
    };

    /**
     * Restore every rank from its image (index = rank). The images
     * must outlive the returned engine (each rank's replay interceptor
     * observes against its image's op sequence).
     */
    static StatusOr<std::unique_ptr<TpMedusaEngine>>
    coldStartFromImages(const Options &opts,
                        const std::vector<MaterializedImage> &rank_images);

    llm::TpCluster &cluster() { return *cluster_; }

    /**
     * The consolidated whole-cluster report: shared attempt accounting,
     * counters summed over ranks, per-rank spans on track = rank, and
     * times.loading = the slowest rank's visible loading latency
     * (DESIGN.md §12).
     */
    const ColdStartReport &coldStartReport() const { return report_; }

    /**
     * Genuinely per-rank restore detail (index = rank); whole-cluster
     * counters and the visible loading latency live in
     * coldStartReport().
     */
    const std::vector<RestoreReport> &
    rankRestoreReports() const
    {
        return reports_;
    }

  private:
    TpMedusaEngine() = default;

    /** Declared before the cluster so they outlive the allocators. */
    std::vector<std::unique_ptr<ReplayTable>> tables_;
    std::unique_ptr<llm::TpCluster> cluster_;
    std::vector<RestoreReport> reports_;
    ColdStartReport report_;
};

} // namespace medusa::core

#endif // MEDUSA_MEDUSA_TP_H
