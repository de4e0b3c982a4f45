/**
 * @file
 * Tests of the checkpoint/restore baseline (§9 comparison class):
 * image accounting, bit-faithful restoration semantics and the cost
 * structure versus Medusa.
 */

#include <gtest/gtest.h>

#include "medusa/checkpoint.h"
#include "medusa/offline.h"
#include "medusa/restore.h"

namespace medusa::core {
namespace {

llm::ModelConfig
tinyModel()
{
    llm::ModelConfig m = llm::findModel("Qwen1.5-1.8B").value();
    m.num_layers = 3;
    return m;
}

std::unique_ptr<llm::BaselineEngine>
donorEngine(const llm::ModelConfig &m, u64 seed = 5)
{
    llm::BaselineEngine::Options opts;
    opts.model = m;
    opts.strategy = llm::Strategy::kVllm;
    opts.aslr_seed = seed;
    auto engine = llm::BaselineEngine::coldStart(opts);
    MEDUSA_CHECK(engine.isOk(), "donor cold start failed");
    return std::move(engine).value();
}

TEST(CheckpointTest, ImageCapturesDeviceFootprint)
{
    const llm::ModelConfig m = tinyModel();
    auto donor = donorEngine(m);
    auto image = CheckpointEngine::checkpoint(*donor);
    ASSERT_TRUE(image.isOk());
    // The image must at least contain the weights and the KV cache.
    EXPECT_GT(image->device_bytes,
              donor->runtime().weights().total_logical_bytes);
    EXPECT_GT(image->device_bytes,
              donor->runtime().kv().logical_bytes);
    EXPECT_EQ(image->aslr_seed, 5u);
}

TEST(CheckpointTest, RestoreServesIdenticallyToDonor)
{
    const llm::ModelConfig m = tinyModel();
    auto donor = donorEngine(m);
    auto image = CheckpointEngine::checkpoint(*donor);
    ASSERT_TRUE(image.isOk());
    auto restored = CheckpointEngine::restore(*image);
    ASSERT_TRUE(restored.isOk());

    const std::vector<i32> prompt = {6, 6, 6};
    auto a = donor->runtime().generate(prompt, 7);
    auto b = (*restored)->runtime().generate(prompt, 7);
    ASSERT_TRUE(a.isOk() && b.isOk());
    EXPECT_EQ(*a, *b);
    EXPECT_EQ((*restored)->runtime().graphCount(), 35u);
}

TEST(CheckpointTest, RestoreFasterThanColdStartSlowerThanMedusa)
{
    const llm::ModelConfig m = tinyModel();
    auto donor = donorEngine(m);
    auto image = CheckpointEngine::checkpoint(*donor);
    auto restored = CheckpointEngine::restore(*image);
    ASSERT_TRUE(restored.isOk());

    OfflineOptions oopts;
    oopts.model = m;
    oopts.pipeline.validate = false;
    auto offline = materialize(oopts);
    ASSERT_TRUE(offline.isOk());
    MedusaEngine::Options mopts;
    mopts.model = m;
    auto medusa = MedusaEngine::coldStartFromImage(mopts, offline->artifact);
    ASSERT_TRUE(medusa.isOk());

    // The restore cost scales with the device footprint (which, for a
    // tiny model, is dominated by the KV reservation and can exceed
    // the cold start itself — checkpoints ship state Medusa rebuilds
    // for free). Medusa is the fastest path either way.
    EXPECT_LT((*medusa)->coldStartReport().times.loading,
              (*restored)->times().loading);
    EXPECT_LT((*medusa)->coldStartReport().times.loading, donor->coldStartReport().times.loading);
    EXPECT_NEAR((*restored)->times().loading,
                units::nsToSec(CostModel{}.ssdReadTime(
                    static_cast<f64>(image->totalBytes()))) +
                    0.12,
                0.05);
    // And Medusa's persisted state is orders of magnitude smaller.
    EXPECT_GT(image->totalBytes(), offline->image_bytes.size() * 100);
}

TEST(CheckpointTest, HalfLoadedEngineRejected)
{
    // An engine without captured graphs cannot be checkpointed as
    // "ready to serve".
    llm::ModelRuntime::Options ropts;
    ropts.model = tinyModel();
    llm::BaselineEngine::Options opts;
    opts.model = tinyModel();
    opts.strategy = llm::Strategy::kVllm;
    auto donor = llm::BaselineEngine::coldStart(opts);
    ASSERT_TRUE(donor.isOk());
    // Sanity: a NoCudaGraph engine IS checkpointable (no graphs is its
    // ready state).
    opts.strategy = llm::Strategy::kNoCudaGraph;
    auto nograph = llm::BaselineEngine::coldStart(opts);
    ASSERT_TRUE(nograph.isOk());
    EXPECT_TRUE(CheckpointEngine::checkpoint(**nograph).isOk());
}

} // namespace
} // namespace medusa::core
