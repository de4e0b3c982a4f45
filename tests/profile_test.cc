/**
 * @file
 * Tests of buildServingProfile(): measured latency relations between
 * the strategies, the deferred-capture penalty table, and the Medusa
 * profile path.
 */

#include <gtest/gtest.h>

#include "medusa/offline.h"
#include "serverless/profile.h"

namespace medusa::serverless {
namespace {

llm::ModelConfig
tinyModel()
{
    llm::ModelConfig m = llm::findModel("Qwen1.5-0.5B").value();
    m.num_layers = 4;
    return m;
}

ServingProfile
profileFor(llm::Strategy strategy, const core::MaterializedImage *artifact)
{
    ProfileOptions opts;
    opts.model = tinyModel();
    opts.strategy = strategy;
    opts.artifact = artifact;
    auto profile = buildServingProfile(opts);
    MEDUSA_CHECK(profile.isOk(),
                 "profile failed: " << profile.status().toString());
    return std::move(profile).value();
}

class ProfileBuildTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        core::OfflineOptions oopts;
        oopts.model = tinyModel();
        oopts.pipeline.validate = false;
        auto offline = core::materialize(oopts);
        MEDUSA_CHECK(offline.isOk(), "offline failed");
        offline_ = new core::OfflineResult(std::move(offline).value());
    }

    static void
    TearDownTestSuite()
    {
        delete offline_;
        offline_ = nullptr;
    }

    static core::OfflineResult *offline_;
};

core::OfflineResult *ProfileBuildTest::offline_ = nullptr;

TEST_F(ProfileBuildTest, StrategyLoadingOrder)
{
    const auto vllm = profileFor(llm::Strategy::kVllm, nullptr);
    const auto nograph = profileFor(llm::Strategy::kNoCudaGraph,
                                    nullptr);
    const auto medusa =
        profileFor(llm::Strategy::kMedusa, &offline_->artifact);
    EXPECT_LT(medusa.loading_sec, vllm.loading_sec);
    EXPECT_LT(nograph.loading_sec, vllm.loading_sec);
}

TEST_F(ProfileBuildTest, MedusaRequiresArtifact)
{
    ProfileOptions opts;
    opts.model = tinyModel();
    opts.strategy = llm::Strategy::kMedusa;
    EXPECT_FALSE(buildServingProfile(opts).isOk());
}

TEST_F(ProfileBuildTest, DecodeStepsGrowWithBatch)
{
    const auto vllm = profileFor(llm::Strategy::kVllm, nullptr);
    EXPECT_LT(vllm.decodeStep(1), vllm.decodeStep(256));
    // Graph decode is cheaper than eager decode at small batch.
    const auto nograph = profileFor(llm::Strategy::kNoCudaGraph,
                                    nullptr);
    EXPECT_LT(vllm.decodeStep(1), nograph.decodeStep(1));
}

TEST_F(ProfileBuildTest, DeferredCaptureMeasuresPenalties)
{
    const auto deferred = profileFor(llm::Strategy::kDeferredCapture,
                                     nullptr);
    EXPECT_TRUE(deferred.deferred_capture);
    ASSERT_EQ(deferred.capture_penalty_sec.size(),
              deferred.batch_sizes.size());
    for (f64 p : deferred.capture_penalty_sec) {
        EXPECT_GT(p, 0.0);
    }
    // Non-deferred strategies report no penalty.
    const auto vllm = profileFor(llm::Strategy::kVllm, nullptr);
    EXPECT_DOUBLE_EQ(vllm.capturePenalty(8), 0.0);
    EXPECT_GT(deferred.capturePenalty(8), 0.0);
    // Bucket mapping covers the whole range.
    EXPECT_EQ(deferred.bucketIndex(1), 0u);
    EXPECT_EQ(deferred.bucketIndex(300),
              deferred.batch_sizes.size() - 1);
}

TEST_F(ProfileBuildTest, PrefillGrowsWithTokens)
{
    const auto vllm = profileFor(llm::Strategy::kVllm, nullptr);
    EXPECT_LT(vllm.prefill(32), vllm.prefill(2048));
    EXPECT_GT(vllm.prefill(1), 0.0);
}

} // namespace
} // namespace medusa::serverless
