/**
 * @file
 * The §8 multi-GPU extension, quantified: tensor-parallel (world=2)
 * cold start with per-rank materialization vs per-rank capture-from-
 * scratch, plus the per-rank artifact inventory (the "indirect index
 * pointer table across multiple GPU instances").
 */

#include <cstdio>

#include "bench/bench_util.h"
#include "medusa/tp.h"

using namespace medusa;

int
main()
{
    auto model = bench::unwrap(llm::findModel("Qwen1.5-1.8B"),
                               "findModel");
    const u32 world = 2;

    std::printf("=== §8 extension: Medusa for tensor-parallel serving "
                "(%s, TP=%u) ===\n\n",
                model.name.c_str(), world);

    // ---- baseline: capture everything at cold start per rank ----------
    llm::TpCluster::Options copts;
    copts.model = model;
    copts.world = world;
    auto baseline = bench::unwrap(
        llm::TpCluster::createCaptured(copts, llm::captureBatchSizes()),
        "baseline cluster");
    f64 baseline_loading = 0;
    for (u32 r = 0; r < world; ++r) {
        baseline_loading = std::max(
            baseline_loading, baseline->rank(r).clock().nowSec());
    }

    // ---- Medusa offline (once per <GPU type, model, world>) ----------
    core::TpOfflineOptions oopts;
    oopts.model = model;
    oopts.world = world;
    auto offline = bench::unwrap(core::materializeTp(oopts),
                                 "tp offline");
    u64 image_bytes = 0;
    for (const auto &bytes : offline.rank_images) {
        image_bytes += bytes.size();
    }
    const auto images =
        bench::unwrap(core::openRankImages(offline.rank_images), "tp open");
    u64 total_nodes = 0;
    u64 collectives = 0;
    for (const core::MaterializedImage &image : images) {
        total_nodes += image.total_nodes;
        for (const auto &rel : image.kernel_relocs) {
            if (image.kernel_table[rel.kernel_index].name.find(
                    "all_reduce") != std::string::npos) {
                ++collectives;
            }
        }
    }

    // ---- Medusa online ----------------------------------------------
    core::TpMedusaEngine::Options mopts;
    mopts.model = model;
    mopts.world = world;
    mopts.restore.pipeline.validate = true;
    mopts.restore.pipeline.validate_batch_sizes = {1, 64};
    auto restored = bench::unwrap(
        core::TpMedusaEngine::coldStartFromImages(mopts, images),
        "tp restore");

    std::printf("offline phase: capturing %.1f s + analysis %.1f s "
                "(once per <GPU type, model, world>)\n",
                offline.capture_stage_sec, offline.analysis_stage_sec);
    std::printf("images: %u ranks, %llu nodes total (%llu all-reduce "
                "collective nodes), %.2f MiB\n\n",
                world, static_cast<unsigned long long>(total_nodes),
                static_cast<unsigned long long>(collectives),
                static_cast<f64>(image_bytes) /
                    static_cast<f64>(units::MiB));

    std::printf("%-34s %12s\n", "cold-start strategy", "loading (s)");
    std::printf("%-34s %12.2f\n",
                "capture-from-scratch (per rank)", baseline_loading);
    std::printf("%-34s %12.2f  (-%.1f%%)\n",
                "Medusa per-rank restoration", restored->coldStartReport().loadingSec(),
                100.0 * (1.0 - restored->coldStartReport().loadingSec() /
                                   baseline_loading));
    std::printf("\nvalidation: restored lockstep replay matches the "
                "reference cluster bit-for-bit\n");
    for (u32 r = 0; r < world; ++r) {
        const auto &rep = restored->rankRestoreReports()[r];
        std::printf("  rank %u: %llu nodes restored (%llu kernels via "
                    "dlsym, %llu via module enumeration)\n",
                    r,
                    static_cast<unsigned long long>(rep.nodes_restored),
                    static_cast<unsigned long long>(
                        rep.kernels_via_dlsym),
                    static_cast<unsigned long long>(
                        rep.kernels_via_enumeration));
    }
    return 0;
}
