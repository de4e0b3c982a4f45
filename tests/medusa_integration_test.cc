/**
 * @file
 * End-to-end integration: offline materialization of a real zoo model,
 * online restoration in a fresh simulated process, and output
 * equivalence between restored graphs and eager forwarding.
 */

#include <gtest/gtest.h>

#include "llm/engine.h"
#include "medusa/offline.h"
#include "medusa/restore.h"
#include "test_image.h"

namespace medusa {
namespace {

using core::MedusaEngine;
using core::OfflineOptions;
using core::materialize;
using llm::findModel;
using llm::ModelConfig;

/** A reduced model keeps the integration fast but structurally real. */
ModelConfig
tinyModel()
{
    ModelConfig m = findModel("Qwen1.5-0.5B").value();
    m.num_layers = 4;
    return m;
}

TEST(MedusaIntegration, OfflineProducesArtifact)
{
    OfflineOptions opts;
    opts.model = tinyModel();
    opts.pipeline.validate = true;
    opts.pipeline.validate_batch_sizes = {1, 64};
    auto result = materialize(opts);
    ASSERT_TRUE(result.isOk()) << result.status().toString();

    const core::Artifact &a = result->artifact;
    EXPECT_EQ(a.model_name, opts.model.name);
    EXPECT_EQ(a.graphs.size(), 35u);
    EXPECT_GT(a.free_gpu_memory, 0u);
    EXPECT_GT(a.totalNodes(), 0u);
    // Copy-free restoration: only the per-layer GEMM semaphores (2 x 4
    // bytes x layers) are materialized.
    EXPECT_EQ(a.stats.permanent_buffers, 2u * opts.model.num_layers);
    EXPECT_EQ(a.stats.materialized_content_bytes,
              8u * opts.model.num_layers);
    // The decoy stream-tag constant is a pointer candidate that matches
    // no allocation, once per attention node.
    EXPECT_GT(a.stats.decoy_candidates, 0u);
    EXPECT_GT(a.stats.pointer_params, 0u);
    EXPECT_GT(a.stats.dlsym_visible_nodes, 0u);
    EXPECT_GT(a.stats.hidden_kernel_nodes, 0u);
}

TEST(MedusaIntegration, OnlineRestoreValidatesAgainstEager)
{
    OfflineOptions opts;
    opts.model = tinyModel();
    opts.pipeline.validate = false; // validate explicitly below
    auto offline = materialize(opts);
    ASSERT_TRUE(offline.isOk()) << offline.status().toString();

    MedusaEngine::Options eopts;
    eopts.model = opts.model;
    eopts.aslr_seed = 424242; // a very different process layout
    eopts.restore.pipeline.validate = true;
    eopts.restore.pipeline.validate_batch_sizes = {1, 8, 64};
    const core::MaterializedImage image = test::openImage(offline->image_bytes);
    auto engine = MedusaEngine::coldStartFromImage(eopts, image);
    ASSERT_TRUE(engine.isOk()) << engine.status().toString();

    const RestoreReport &report = (*engine)->coldStartReport().restore;
    EXPECT_TRUE(report.validated);
    EXPECT_EQ(report.graphs_restored, 35u);
    EXPECT_GT(report.kernels_via_dlsym, 0u);
    EXPECT_GT(report.kernels_via_enumeration, 0u);
    EXPECT_EQ(report.restored_content_bytes,
              8u * opts.model.num_layers);
}

TEST(MedusaIntegration, RestoredEngineGenerates)
{
    const ModelConfig model = tinyModel();
    core::OfflineOptions oopts;
    oopts.model = model;
    oopts.pipeline.validate = false;
    auto offline = materialize(oopts);
    ASSERT_TRUE(offline.isOk()) << offline.status().toString();

    // Baseline engine (vLLM) and Medusa-restored engine must generate
    // identical tokens for the same prompt.
    llm::BaselineEngine::Options bopts;
    bopts.model = model;
    bopts.strategy = llm::Strategy::kVllm;
    bopts.aslr_seed = 11;
    auto baseline = llm::BaselineEngine::coldStart(bopts);
    ASSERT_TRUE(baseline.isOk()) << baseline.status().toString();

    MedusaEngine::Options mopts;
    mopts.model = model;
    mopts.aslr_seed = 99;
    const core::MaterializedImage image = test::openImage(offline->image_bytes);
    auto restored = MedusaEngine::coldStartFromImage(mopts, image);
    ASSERT_TRUE(restored.isOk()) << restored.status().toString();

    const std::vector<i32> prompt = {5, 17, 42, 7};
    auto base_out = (*baseline)->runtime().generate(prompt, 12);
    ASSERT_TRUE(base_out.isOk()) << base_out.status().toString();
    auto medusa_out = (*restored)->runtime().generate(prompt, 12);
    ASSERT_TRUE(medusa_out.isOk()) << medusa_out.status().toString();
    EXPECT_EQ(*base_out, *medusa_out);
    EXPECT_EQ(base_out->size(), 12u);
}

TEST(MedusaIntegration, SkippingContentRestorationFailsValidation)
{
    // Without §4.3's permanent-buffer content restoration the split-K
    // GEMM semaphores come back zeroed, so replay fails — proving the
    // contents are functionally necessary, not bookkeeping.
    OfflineOptions opts;
    opts.model = tinyModel();
    opts.pipeline.validate = false;
    auto offline = materialize(opts);
    ASSERT_TRUE(offline.isOk());

    MedusaEngine::Options eopts;
    eopts.model = opts.model;
    eopts.restore.restore_contents = false;
    eopts.restore.pipeline.validate = true;
    eopts.restore.pipeline.validate_batch_sizes = {1};
    const core::MaterializedImage image = test::openImage(offline->image_bytes);
    auto engine = MedusaEngine::coldStartFromImage(eopts, image);
    ASSERT_FALSE(engine.isOk());
    EXPECT_EQ(engine.status().code(), StatusCode::kValidationFailure);
}

TEST(MedusaIntegration, ArtifactSurvivesDiskRoundTrip)
{
    OfflineOptions opts;
    opts.model = tinyModel();
    opts.pipeline.validate = false;
    auto offline = materialize(opts);
    ASSERT_TRUE(offline.isOk());

    const std::string path = ::testing::TempDir() + "/medusa_roundtrip.mdsi";
    ASSERT_TRUE(writeFile(path, offline->image_bytes).isOk());
    auto image = core::MaterializedImage::openFile(path);
    ASSERT_TRUE(image.isOk()) << image.status().toString();

    MedusaEngine::Options eopts;
    eopts.model = opts.model;
    eopts.restore.pipeline.validate = true;
    eopts.restore.pipeline.validate_batch_sizes = {8};
    auto engine = MedusaEngine::coldStartFromImage(eopts, *image);
    ASSERT_TRUE(engine.isOk()) << engine.status().toString();
    EXPECT_TRUE((*engine)->coldStartReport().restore.validated);
}

TEST(MedusaIntegration, WrongModelArtifactRejected)
{
    OfflineOptions opts;
    opts.model = tinyModel();
    opts.pipeline.validate = false;
    auto offline = materialize(opts);
    ASSERT_TRUE(offline.isOk());

    MedusaEngine::Options eopts;
    eopts.model = findModel("Llama2-7B").value(); // different model
    const core::MaterializedImage image = test::openImage(offline->image_bytes);
    auto engine = MedusaEngine::coldStartFromImage(eopts, image);
    ASSERT_FALSE(engine.isOk());
    EXPECT_EQ(engine.status().code(), StatusCode::kValidationFailure);
}

TEST(MedusaIntegration, RestoredGraphsServeManyBatchSizes)
{
    OfflineOptions opts;
    opts.model = tinyModel();
    opts.pipeline.validate = false;
    auto offline = materialize(opts);
    ASSERT_TRUE(offline.isOk());
    MedusaEngine::Options eopts;
    eopts.model = opts.model;
    eopts.aslr_seed = 31337;
    const core::MaterializedImage image = test::openImage(offline->image_bytes);
    auto engine = MedusaEngine::coldStartFromImage(eopts, image);
    ASSERT_TRUE(engine.isOk());
    // Replay every restored batch size against eager decode.
    for (u32 bs : {1u, 2u, 4u, 16u, 64u, 128u, 256u}) {
        ASSERT_TRUE(
            (*engine)->runtime().stageValidationState(bs).isOk());
        auto eager = (*engine)->runtime().eagerDecodeLogits(bs);
        ASSERT_TRUE(eager.isOk());
        ASSERT_TRUE(
            (*engine)->runtime().stageValidationState(bs).isOk());
        auto graph = (*engine)->runtime().graphDecodeLogits(bs);
        ASSERT_TRUE(graph.isOk()) << "bs=" << bs;
        EXPECT_EQ(*eager, *graph) << "bs=" << bs;
    }
}

TEST(MedusaIntegration, MedusaLoadingFasterThanBaselines)
{
    const ModelConfig model = tinyModel();
    core::OfflineOptions oopts;
    oopts.model = model;
    oopts.pipeline.validate = false;
    auto offline = materialize(oopts);
    ASSERT_TRUE(offline.isOk());

    llm::BaselineEngine::Options bopts;
    bopts.model = model;
    bopts.strategy = llm::Strategy::kVllm;
    auto vllm = llm::BaselineEngine::coldStart(bopts);
    ASSERT_TRUE(vllm.isOk());

    bopts.strategy = llm::Strategy::kVllmAsync;
    auto async = llm::BaselineEngine::coldStart(bopts);
    ASSERT_TRUE(async.isOk());

    MedusaEngine::Options mopts;
    mopts.model = model;
    const core::MaterializedImage image = test::openImage(offline->image_bytes);
    auto medusa = MedusaEngine::coldStartFromImage(mopts, image);
    ASSERT_TRUE(medusa.isOk());

    const f64 t_vllm = (*vllm)->coldStartReport().times.loading;
    const f64 t_async = (*async)->coldStartReport().times.loading;
    const f64 t_medusa = (*medusa)->coldStartReport().times.loading;
    EXPECT_LT(t_async, t_vllm);
    EXPECT_LT(t_medusa, t_async);
    // KV-init restoration eliminates the profiling forwarding.
    EXPECT_LT((*medusa)->coldStartReport().times.kv_init, (*vllm)->coldStartReport().times.kv_init);
}

} // namespace
} // namespace medusa
