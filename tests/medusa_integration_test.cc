/**
 * @file
 * End-to-end integration: offline materialization of a real zoo model,
 * online restoration in a fresh simulated process, and output
 * equivalence between restored graphs and eager forwarding.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <span>
#include <string>

#include "common/metrics.h"
#include "common/serialize.h"
#include "common/trace.h"
#include "llm/engine.h"
#include "medusa/offline.h"
#include "medusa/record.h"
#include "medusa/restore.h"

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

    const core::MaterializedImage &a = result->artifact;
    EXPECT_EQ(a.model_name, opts.model.name);
    EXPECT_EQ(a.graphs.size(), 35u);
    EXPECT_GT(a.free_gpu_memory, 0u);
    EXPECT_GT(a.total_nodes, 0u);
    // Copy-free restoration: only the per-layer GEMM semaphores (2 x 4
    // bytes x layers) are materialized.
    EXPECT_EQ(result->stats.permanent_buffers, 2u * opts.model.num_layers);
    EXPECT_EQ(result->stats.materialized_content_bytes,
              8u * opts.model.num_layers);
    // The decoy stream-tag constant is a pointer candidate that matches
    // no allocation, once per attention node.
    EXPECT_GT(result->stats.decoy_candidates, 0u);
    EXPECT_GT(result->stats.pointer_params, 0u);
    EXPECT_GT(result->stats.dlsym_visible_nodes, 0u);
    EXPECT_GT(result->stats.hidden_kernel_nodes, 0u);
}

TEST(MedusaIntegration, OfflineSinksReceiveSpansAndAnalysisCounters)
{
    TraceRecorder trace;
    MetricsRegistry metrics;
    OfflineOptions opts;
    opts.model = tinyModel();
    opts.pipeline.validate = true;
    opts.pipeline.validate_batch_sizes = {1};
    opts.pipeline.trace = &trace;
    opts.pipeline.metrics = &metrics;
    auto result = materialize(opts);
    ASSERT_TRUE(result.isOk()) << result.status().toString();

    // The caller's trace sink receives every offline-phase span.
    const std::vector<TraceEvent> events = trace.events();
    EXPECT_EQ(events.size(), result->spans.size());
    std::set<std::string> names;
    for (const TraceEvent &e : events) {
        names.insert(e.name);
    }
    for (const char *name :
         {"offline.capture_stage", "offline.save", "offline.analysis_stage",
          "offline.emit_image", "offline.validation"}) {
        EXPECT_EQ(names.count(name), 1u) << name;
    }

    // Every analysis.* counter equals the result's stats.
    const core::AnalysisStats &s = result->stats;
    const std::map<std::string, u64> expected = {
        {"analysis.total_nodes", s.total_nodes},
        {"analysis.total_params", s.total_params},
        {"analysis.pointer_params", s.pointer_params},
        {"analysis.constant_params", s.constant_params},
        {"analysis.decoy_candidates", s.decoy_candidates},
        {"analysis.dlsym_visible_nodes", s.dlsym_visible_nodes},
        {"analysis.hidden_kernel_nodes", s.hidden_kernel_nodes},
        {"analysis.model_param_buffers", s.model_param_buffers},
        {"analysis.temp_buffers", s.temp_buffers},
        {"analysis.permanent_buffers", s.permanent_buffers},
        {"analysis.rewritten_buffers", s.rewritten_buffers},
        {"analysis.indirect_pointer_words", s.indirect_pointer_words},
        {"analysis.materialized_content_bytes",
         s.materialized_content_bytes},
        {"analysis.full_dump_bytes", s.full_dump_bytes},
    };
    std::map<std::string, u64> published;
    const MetricsSnapshot snapshot = metrics.snapshot();
    for (const MetricsEntry &e : snapshot.entries()) {
        if (e.name.starts_with("analysis.")) {
            EXPECT_EQ(e.kind, MetricsEntry::Kind::kCounter) << e.name;
            published[e.name] = e.counter;
        }
    }
    EXPECT_EQ(published, expected);
    EXPECT_GT(s.total_nodes, 0u);

    // The result's image is the zero-copy view materialize opened over
    // the result's own bytes, and a move of the result keeps it valid.
    const u8 *begin = result->image_bytes.data();
    const u8 *end = begin + result->image_bytes.size();
    const auto inside = [begin, end](const void *p) {
        const auto *b = static_cast<const u8 *>(p);
        return b >= begin && b < end;
    };
    const core::MaterializedImage &view = result->artifact;
    EXPECT_EQ(view.serialized_size, result->image_bytes.size());
    EXPECT_TRUE(inside(view.patch_template.data()));
    EXPECT_TRUE(inside(view.data_relocs.data()));
    EXPECT_TRUE(inside(view.graphs.at(0).order.data()));
    core::OfflineResult moved = std::move(result).value();
    EXPECT_EQ(moved.image_bytes.data(), begin);
    EXPECT_TRUE(inside(moved.artifact.patch_template.data()));
}

TEST(MedusaIntegration, CaptureStageLoadsWeightsChargeOnly)
{
    // The shape-only capture never reads a weight, so it loads none:
    // each is a charge-only copy and tainted, and any read refuses.
    core::Recorder recorder;
    llm::ModelRuntime::Options ropts;
    ropts.model = tinyModel();
    ropts.observer = &recorder;
    ropts.alloc_observer = &recorder;
    ropts.launch_observer = &recorder;
    llm::ModelRuntime shaped(ropts);
    TraceRecorder shaped_trace(&shaped.clock());
    shaped.process().beginJournal();
    const std::vector<u32> batch_sizes = {1, 8};
    auto captured =
        core::runCaptureStage(shaped, recorder, batch_sizes, &shaped_trace);
    ASSERT_TRUE(captured.isOk()) << captured.status().toString();

    const llm::ModelWeights &weights = shaped.weights();
    ASSERT_GT(weights.tensorCount(), 0u);
    for (DeviceAddr addr : weights.addrs) {
        const simcuda::AllocationRecord *rec =
            shaped.process().memory().findContaining(addr);
        ASSERT_NE(rec, nullptr);
        EXPECT_TRUE(rec->tainted);
    }
    f32 word = 0.0f;
    EXPECT_EQ(
        shaped.process().memcpyD2H(&word, weights.lm_head, 4, 4).code(),
        StatusCode::kFailedPrecondition);

    // A twin that loads the weights with contents spends the same
    // virtual time in every loading stage, and with the same warm-ups
    // (captures make no synchronous copy) as many H2D copies.
    llm::ModelRuntime::Options twin_opts;
    twin_opts.model = tinyModel();
    llm::ModelRuntime loaded(twin_opts);
    TraceRecorder loaded_trace(&loaded.clock());
    loaded.process().beginJournal();
    StageTimes t;
    ASSERT_TRUE(
        llm::runLoadingStages(loaded, /*capture=*/false, t, &loaded_trace)
            .isOk());
    for (u32 bs : batch_sizes) {
        ASSERT_TRUE(loaded.warmupDecode(bs).isOk());
    }
    EXPECT_EQ(shaped.process().journal().h2d_copies,
              loaded.process().journal().h2d_copies);
    std::map<std::string, TraceEvent> stages;
    for (const TraceEvent &e : shaped_trace.events()) {
        stages.emplace(e.name, e);
    }
    for (const TraceEvent &e : loaded_trace.events()) {
        SCOPED_TRACE(e.name);
        ASSERT_EQ(stages.count(e.name), 1u);
        EXPECT_EQ(stages.at(e.name).start_ns, e.start_ns);
        EXPECT_EQ(stages.at(e.name).dur_ns, e.dur_ns);
    }
    EXPECT_EQ(loaded_trace.events().size(), 4u);
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
    const core::MaterializedImage &image = offline->artifact;
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
    const core::MaterializedImage &image = offline->artifact;
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
    const core::MaterializedImage &image = offline->artifact;
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
    auto bytes = readFile(path);
    ASSERT_TRUE(bytes.isOk()) << bytes.status().toString();
    auto image =
        core::MaterializedImage::openView(std::span<const u8>(*bytes));
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
    const core::MaterializedImage &image = offline->artifact;
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
    const core::MaterializedImage &image = offline->artifact;
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
    const core::MaterializedImage &image = offline->artifact;
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
