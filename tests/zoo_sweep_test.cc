/**
 * @file
 * Parameterized sweep: the full Medusa pipeline (offline
 * materialization, online restoration in a fresh process, output
 * validation, generation equivalence) must work for EVERY model family
 * and architecture of the paper's Table 1 zoo. Layer counts are
 * reduced to keep the sweep fast; architecture, dimensions and
 * tokenizers are the real per-model ones.
 */

#include <gtest/gtest.h>

#include "llm/engine.h"
#include "medusa/offline.h"
#include "medusa/restore.h"

namespace medusa {
namespace {

class ZooSweepTest : public ::testing::TestWithParam<std::string>
{
  protected:
    llm::ModelConfig
    model() const
    {
        llm::ModelConfig m = llm::findModel(GetParam()).value();
        m.num_layers = std::min<u32>(m.num_layers, 4);
        return m;
    }
};

TEST_P(ZooSweepTest, OfflineOnlineRoundTripValidates)
{
    const llm::ModelConfig m = model();

    core::OfflineOptions oopts;
    oopts.model = m;
    oopts.pipeline.validate = true;
    oopts.pipeline.validate_batch_sizes = {1, 64};
    auto offline = core::materialize(oopts);
    ASSERT_TRUE(offline.isOk()) << offline.status().toString();
    EXPECT_EQ(offline->artifact.graphs.size(), 35u);
    // Copy-free restoration: only the per-layer semaphores.
    EXPECT_EQ(offline->stats.materialized_content_bytes,
              8u * m.num_layers);

    core::MedusaEngine::Options eopts;
    eopts.model = m;
    eopts.aslr_seed = 0xabcd;
    eopts.restore.pipeline.validate = true;
    eopts.restore.pipeline.validate_batch_sizes = {4, 128};
    const core::MaterializedImage &image = offline->artifact;
    auto engine = core::MedusaEngine::coldStartFromImage(eopts, image);
    ASSERT_TRUE(engine.isOk()) << engine.status().toString();
    EXPECT_TRUE((*engine)->coldStartReport().restore.validated);
    EXPECT_GT((*engine)->coldStartReport().restore.kernels_via_enumeration, 0u);

    // A baseline engine and the restored engine generate identically.
    llm::BaselineEngine::Options bopts;
    bopts.model = m;
    bopts.strategy = llm::Strategy::kVllm;
    bopts.aslr_seed = 3;
    auto baseline = llm::BaselineEngine::coldStart(bopts);
    ASSERT_TRUE(baseline.isOk());
    const std::vector<i32> prompt = {2, 7, 1, 8};
    auto a = (*baseline)->runtime().generate(prompt, 8);
    auto b = (*engine)->runtime().generate(prompt, 8);
    ASSERT_TRUE(a.isOk() && b.isOk());
    EXPECT_EQ(*a, *b);

    // And Medusa loads faster.
    EXPECT_LT((*engine)->coldStartReport().times.loading,
              (*baseline)->coldStartReport().times.loading);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ZooSweepTest,
    ::testing::Values("Falcon-7B", "Llama2-7B", "Llama2-13B",
                      "Qwen1.5-0.5B", "Qwen1.5-1.8B", "Qwen1.5-4B",
                      "Qwen1.5-7B", "Qwen1.5-14B", "Yi-6B", "Yi-9B"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-' || c == '.') {
                c = '_';
            }
        }
        return name;
    });

} // namespace
} // namespace medusa
