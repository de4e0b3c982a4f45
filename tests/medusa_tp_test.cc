/**
 * @file
 * End-to-end tests of Medusa for tensor-parallel serving (§8 future
 * work): per-rank materialization, per-rank restoration from each
 * rank's image in fresh processes, lockstep validation against a
 * reference cluster, and equivalence with the single-GPU engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/fault.h"
#include "medusa/tp.h"

namespace medusa::core {
namespace {

llm::ModelConfig
tpModel(const char *name = "Llama2-7B", u32 layers = 3)
{
    llm::ModelConfig m = llm::findModel(name).value();
    m.num_layers = layers;
    return m;
}

TpOfflineResult
materialized(const llm::ModelConfig &m,
             std::vector<u32> batch_sizes = {1, 8, 64})
{
    TpOfflineOptions opts;
    opts.model = m;
    opts.world = 2;
    opts.batch_sizes = std::move(batch_sizes);
    auto result = materializeTp(opts);
    MEDUSA_CHECK(result.isOk(),
                 "tp offline failed: " << result.status().toString());
    return std::move(result).value();
}

TEST(MedusaTpTest, OfflineProducesOneArtifactPerRank)
{
    const llm::ModelConfig m = tpModel();
    auto offline = materialized(m);
    ASSERT_EQ(offline.rank_images.size(), 2u);
    auto images = openRankImages(offline.rank_images);
    ASSERT_TRUE(images.isOk()) << images.status().toString();
    for (const MaterializedImage &image : *images) {
        EXPECT_EQ(image.graphs.size(), 3u);
        EXPECT_GT(image.data_relocs.size(), 0u);
        // The collectives appear as graph nodes on every rank (one
        // kernel relocation per node).
        u64 collectives = 0;
        for (const auto &rel : image.kernel_relocs) {
            if (image.kernel_table[rel.kernel_index].name.find(
                    "all_reduce") != std::string::npos) {
                ++collectives;
            }
        }
        EXPECT_EQ(collectives, 3u * 2 * m.num_layers);
    }
    // The two ranks' allocation sequences are independent tables (the
    // §8 "indirect index pointer table across multiple GPU instances").
    EXPECT_EQ((*images)[0].ops.size(), (*images)[1].ops.size());
}

TEST(MedusaTpTest, RestoreValidatesAgainstReferenceCluster)
{
    const llm::ModelConfig m = tpModel();
    auto offline = materialized(m);

    TpMedusaEngine::Options opts;
    opts.model = m;
    opts.world = 2;
    opts.aslr_seed = 20250707;
    opts.restore.pipeline.validate = true;
    opts.restore.pipeline.validate_batch_sizes = {1, 64};
    const auto images = openRankImages(offline.rank_images).value();
    auto engine = TpMedusaEngine::coldStartFromImages(opts, images);
    ASSERT_TRUE(engine.isOk()) << engine.status().toString();
    for (u32 r = 0; r < 2; ++r) {
        EXPECT_TRUE((*engine)->rankRestoreReports()[r].validated);
        EXPECT_EQ((*engine)->rankRestoreReports()[r].graphs_restored, 3u);
        EXPECT_GT((*engine)->rankRestoreReports()[r].kernels_via_enumeration, 0u);
    }
    EXPECT_GT((*engine)->coldStartReport().loadingSec(), 0.0);
}

TEST(MedusaTpTest, RestoredClusterMatchesSingleGpuNumerics)
{
    const llm::ModelConfig m = tpModel("Yi-6B", 2);
    auto offline = materialized(m, {4});

    TpMedusaEngine::Options opts;
    opts.model = m;
    opts.world = 2;
    const auto images = openRankImages(offline.rank_images).value();
    auto engine = TpMedusaEngine::coldStartFromImages(opts, images);
    ASSERT_TRUE(engine.isOk()) << engine.status().toString();
    ASSERT_TRUE((*engine)->cluster().stageValidationState(4).isOk());
    auto tp_logits = (*engine)->cluster().lockstepDecodeLogits(4);
    ASSERT_TRUE(tp_logits.isOk()) << tp_logits.status().toString();

    llm::ModelRuntime::Options sopts;
    sopts.model = m;
    llm::ModelRuntime single(sopts);
    ASSERT_TRUE(single.initStructure().isOk());
    ASSERT_TRUE(single.loadWeights().isOk());
    auto free_bytes = single.profileFreeMemory();
    ASSERT_TRUE(free_bytes.isOk());
    ASSERT_TRUE(single.initKvCache(*free_bytes).isOk());
    ASSERT_TRUE(single.stageValidationState(4).isOk());
    auto ref = single.eagerDecodeLogits(4);
    ASSERT_TRUE(ref.isOk());

    f64 max_err = 0;
    for (std::size_t i = 0; i < ref->size(); ++i) {
        max_err = std::max(max_err,
                           static_cast<f64>(std::abs(
                               (*tp_logits)[i] - (*ref)[i])));
    }
    EXPECT_LT(max_err, 1e-3);
}

TEST(MedusaTpTest, RanksEmitTheSingleGpuStageSpans)
{
    const llm::ModelConfig m = tpModel("Qwen1.5-0.5B", 2);
    auto offline = materialized(m, {1});
    TpMedusaEngine::Options opts;
    opts.model = m;
    opts.world = 2;
    const auto images = openRankImages(offline.rank_images).value();
    auto engine = TpMedusaEngine::coldStartFromImages(opts, images);
    ASSERT_TRUE(engine.isOk()) << engine.status().toString();

    // Every rank runs the single-GPU step list and attempt loop, so
    // each rank's track carries the single-GPU spans.
    const ColdStartReport &cs = (*engine)->coldStartReport();
    for (u32 r = 0; r < 2; ++r) {
        for (const char *name :
             {"cold_start.struct_init", "cold_start.kv_init",
              "cold_start.capture", "restore.image_open",
              "restore.rebind", "restore.attempt"}) {
            const bool found = std::any_of(
                cs.spans.begin(), cs.spans.end(),
                [&](const TraceEvent &e) {
                    return e.name == name && e.track == r;
                });
            EXPECT_TRUE(found) << name << " on rank " << r;
        }
    }
}

TEST(MedusaTpTest, ReportCarriesStageTimes)
{
    const llm::ModelConfig m = tpModel("Qwen1.5-0.5B", 2);
    auto offline = materialized(m, {1});
    const auto images = openRankImages(offline.rank_images).value();
    TpMedusaEngine::Options opts;
    opts.model = m;
    opts.world = 2;

    // A clean restore: the stage laps of the rank that sets loading,
    // which cover that rank's whole clock.
    {
        auto engine = TpMedusaEngine::coldStartFromImages(opts, images);
        ASSERT_TRUE(engine.isOk()) << engine.status().toString();
        const StageTimes &t = (*engine)->coldStartReport().times;
        EXPECT_GT(t.struct_init, 0.0);
        EXPECT_GT(t.weights, 0.0);
        EXPECT_GT(t.tokenizer, 0.0);
        EXPECT_GT(t.kv_init, 0.0);
        EXPECT_GT(t.capture, 0.0);
        EXPECT_NEAR(t.serialSum(), t.loading, 1e-9);
    }

    // A lockstep-validation fault degrades every rank to the vanilla
    // stage list, and each rank's track shows it.
    auto plan = FaultPlan::fromSpec("tp_lockstep");
    ASSERT_TRUE(plan.isOk());
    FaultInjector injector(*plan);
    opts.restore.pipeline.fault = &injector;
    opts.restore.pipeline.validate = true;
    opts.restore.pipeline.validate_batch_sizes = {1};
    opts.restore.fallback.mode = FallbackMode::kVanillaColdStart;
    auto engine = TpMedusaEngine::coldStartFromImages(opts, images);
    ASSERT_TRUE(engine.isOk()) << engine.status().toString();
    const ColdStartReport &cs = (*engine)->coldStartReport();
    ASSERT_EQ(cs.outcome, ColdStartOutcome::kFellBack);
    EXPECT_GT(cs.times.capture, 0.0);
    for (u32 r = 0; r < 2; ++r) {
        const auto fallback = std::find_if(
            cs.spans.begin(), cs.spans.end(), [&](const TraceEvent &e) {
                return e.name == "fallback.vanilla_cold_start" &&
                       e.track == r;
            });
        ASSERT_NE(fallback, cs.spans.end()) << "rank " << r;
        for (const char *stage :
             {"cold_start.struct_init", "cold_start.weights",
              "cold_start.tokenizer", "cold_start.kv_init",
              "cold_start.capture"}) {
            const bool inside = std::any_of(
                cs.spans.begin(), cs.spans.end(),
                [&](const TraceEvent &e) {
                    return e.name == stage && e.track == r &&
                           e.start_ns >= fallback->start_ns &&
                           e.start_ns + e.dur_ns <=
                               fallback->start_ns + fallback->dur_ns;
                });
            EXPECT_TRUE(inside) << stage << " on rank " << r;
        }
    }
}

TEST(MedusaTpTest, WrongWorldSizeRejected)
{
    const llm::ModelConfig m = tpModel();
    auto offline = materialized(m, {1});
    TpMedusaEngine::Options opts;
    opts.model = m;
    opts.world = 4; // but only 2 images
    const auto images = openRankImages(offline.rank_images).value();
    auto engine = TpMedusaEngine::coldStartFromImages(opts, images);
    EXPECT_FALSE(engine.isOk());
}

TEST(MedusaTpTest, ContentSkipBreaksTpRestoreToo)
{
    const llm::ModelConfig m = tpModel("Qwen1.5-0.5B", 2);
    auto offline = materialized(m, {1});
    TpMedusaEngine::Options opts;
    opts.model = m;
    opts.world = 2;
    opts.restore.restore_contents = false;
    opts.restore.pipeline.validate = true;
    opts.restore.pipeline.validate_batch_sizes = {1};
    const auto images = openRankImages(offline.rank_images).value();
    auto engine = TpMedusaEngine::coldStartFromImages(opts, images);
    ASSERT_FALSE(engine.isOk());
    EXPECT_EQ(engine.status().code(), StatusCode::kValidationFailure);
}

} // namespace
} // namespace medusa::core
