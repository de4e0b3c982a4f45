/**
 * @file
 * Tests of the baseline strategy drivers, the loading-latency
 * composition arithmetic (§7's vLLM / vLLM+ASYNC / w/o-CUDA-GRAPH) and
 * the one vanilla stage list every cold-start path runs.
 */

#include <gtest/gtest.h>

#include "common/fault.h"
#include "llm/engine.h"
#include "medusa/offline.h"
#include "medusa/restore.h"
#include "medusa/tp.h"

namespace medusa::llm {
namespace {

ModelConfig
tinyModel()
{
    ModelConfig m = findModel("Qwen1.5-1.8B").value();
    m.num_layers = 3;
    return m;
}

TEST(ComposeLoadingTest, VllmIsSerialSum)
{
    StageTimes t;
    t.struct_init = 1;
    t.weights = 2;
    t.tokenizer = 0.5;
    t.kv_init = 1.5;
    t.capture = 3;
    CostModel cost;
    EXPECT_DOUBLE_EQ(composeLoading(Strategy::kVllm, t, cost), 8.0);
    EXPECT_DOUBLE_EQ(composeLoading(Strategy::kNoCudaGraph, t, cost),
                     8.0);
}

TEST(ComposeLoadingTest, AsyncOverlapsWeightsWithTokKv)
{
    CostModel cost;
    cost.weights_profiling_interference = 1.5;
    StageTimes t;
    t.struct_init = 1;
    t.weights = 2;
    t.tokenizer = 1;
    t.kv_init = 1;
    t.capture = 3;
    // weights*1.5 = 3 > tok+kv = 2 -> weights-bound window.
    EXPECT_DOUBLE_EQ(composeLoading(Strategy::kVllmAsync, t, cost),
                     1 + 3 + 3);
    // Bubble case: tok+kv exceed the slowed weights.
    t.tokenizer = 4;
    EXPECT_DOUBLE_EQ(composeLoading(Strategy::kVllmAsync, t, cost),
                     1 + 5 + 3);
}

TEST(EngineTest, ColdStartProducesServableEngine)
{
    BaselineEngine::Options opts;
    opts.model = tinyModel();
    opts.strategy = Strategy::kVllm;
    auto engine = BaselineEngine::coldStart(opts);
    ASSERT_TRUE(engine.isOk()) << engine.status().toString();
    EXPECT_EQ((*engine)->runtime().graphCount(), 35u);
    auto out = (*engine)->runtime().generate({1, 2, 3}, 4);
    ASSERT_TRUE(out.isOk());
    EXPECT_EQ(out->size(), 4u);
}

TEST(EngineTest, NoCudaGraphSkipsCapture)
{
    BaselineEngine::Options opts;
    opts.model = tinyModel();
    opts.strategy = Strategy::kNoCudaGraph;
    auto engine = BaselineEngine::coldStart(opts);
    ASSERT_TRUE(engine.isOk());
    EXPECT_EQ((*engine)->runtime().graphCount(), 0u);
    EXPECT_DOUBLE_EQ((*engine)->coldStartReport().times.capture, 0.0);
    // Serving still works, eagerly.
    auto out = (*engine)->runtime().generate({5}, 3);
    EXPECT_TRUE(out.isOk());
}

TEST(EngineTest, AsyncLoadsFasterThanVllmButNotWithoutCapture)
{
    BaselineEngine::Options opts;
    opts.model = tinyModel();
    opts.strategy = Strategy::kVllm;
    auto vllm = BaselineEngine::coldStart(opts);
    opts.strategy = Strategy::kVllmAsync;
    auto async = BaselineEngine::coldStart(opts);
    opts.strategy = Strategy::kNoCudaGraph;
    auto nograph = BaselineEngine::coldStart(opts);
    ASSERT_TRUE(vllm.isOk() && async.isOk() && nograph.isOk());

    EXPECT_LT((*async)->coldStartReport().times.loading, (*vllm)->coldStartReport().times.loading);
    EXPECT_LT((*nograph)->coldStartReport().times.loading, (*async)->coldStartReport().times.loading);
    // Raw stage durations are strategy-independent.
    EXPECT_NEAR((*async)->coldStartReport().times.struct_init,
                (*vllm)->coldStartReport().times.struct_init, 1e-9);
    EXPECT_NEAR((*async)->coldStartReport().times.kv_init, (*vllm)->coldStartReport().times.kv_init,
                0.02);
}

TEST(EngineTest, WarmContainerEliminatesRuntimeInit)
{
    BaselineEngine::Options opts;
    opts.model = tinyModel();
    opts.warm_container = true;
    auto warm = BaselineEngine::coldStart(opts);
    opts.warm_container = false;
    auto cold = BaselineEngine::coldStart(opts);
    ASSERT_TRUE(warm.isOk() && cold.isOk());
    EXPECT_DOUBLE_EQ((*warm)->coldStartReport().times.runtime_init, 0.0);
    EXPECT_GT((*cold)->coldStartReport().times.runtime_init, 0.5);
    EXPECT_NEAR((*cold)->coldStartReport().times.coldStart(),
                (*cold)->coldStartReport().times.runtime_init +
                    (*cold)->coldStartReport().times.loading,
                1e-9);
}

TEST(EngineTest, StrategyNames)
{
    EXPECT_STREQ(strategyName(Strategy::kVllm), "vLLM");
    EXPECT_STREQ(strategyName(Strategy::kVllmAsync), "vLLM+ASYNC");
    EXPECT_STREQ(strategyName(Strategy::kNoCudaGraph), "w/o CUDA GRAPH");
    EXPECT_STREQ(strategyName(Strategy::kMedusa), "Medusa");
}

/**
 * The cold_start.* spans on @p track that lie inside the first span
 * named @p within on that track (inside everything when empty), in
 * start order.
 */
std::vector<TraceEvent>
stageSpans(const ColdStartReport &cs, u32 track, std::string_view within)
{
    i64 lo = 0;
    i64 hi = INT64_MAX;
    for (const TraceEvent &e : cs.spans) {
        if (!within.empty() && e.name == within && e.track == track) {
            lo = e.start_ns;
            hi = e.start_ns + e.dur_ns;
            break;
        }
    }
    std::vector<TraceEvent> out;
    for (const TraceEvent &e : cs.spans) {
        if (e.track == track && e.name.starts_with("cold_start.") &&
            e.start_ns >= lo && e.start_ns + e.dur_ns <= hi) {
            out.push_back(e);
        }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.start_ns < b.start_ns;
                     });
    return out;
}

/** Stages ❶–❺, in order. */
const char *const kStages[] = {
    "cold_start.struct_init", "cold_start.weights", "cold_start.tokenizer",
    "cold_start.kv_init",     "cold_start.capture",
};

void
expectStageOrder(const std::vector<TraceEvent> &spans)
{
    ASSERT_EQ(spans.size(), std::size(kStages));
    for (std::size_t i = 0; i < spans.size(); ++i) {
        EXPECT_EQ(spans[i].name, kStages[i]);
    }
}

/** Stages ❶–❺ in order, each span's duration equal to its lap. */
void
expectVanillaStages(const std::vector<TraceEvent> &spans,
                    const StageTimes &t)
{
    expectStageOrder(spans);
    if (spans.size() != std::size(kStages)) {
        return;
    }
    EXPECT_EQ(units::nsToSec(spans[0].dur_ns), t.struct_init);
    EXPECT_EQ(units::nsToSec(spans[1].dur_ns), t.weights);
    EXPECT_EQ(units::nsToSec(spans[2].dur_ns), t.tokenizer);
    EXPECT_EQ(units::nsToSec(spans[3].dur_ns), t.kv_init);
    EXPECT_EQ(units::nsToSec(spans[4].dur_ns), t.capture);
}

TEST(EngineTest, EveryVanillaPathEmitsTheSameStageSpans)
{
    ModelConfig m = findModel("Qwen1.5-0.5B").value();
    m.num_layers = 2;
    // Fires on every replayed allocation, so every restore falls back.
    auto plan = FaultPlan::fromSpec("replay_alloc");
    ASSERT_TRUE(plan.isOk());

    {
        SCOPED_TRACE("BaselineEngine kVllm");
        BaselineEngine::Options opts;
        opts.model = m;
        auto engine = BaselineEngine::coldStart(opts);
        ASSERT_TRUE(engine.isOk()) << engine.status().toString();
        const ColdStartReport &cs = (*engine)->coldStartReport();
        expectVanillaStages(stageSpans(cs, 0, ""), cs.times);
    }
    {
        SCOPED_TRACE("MedusaEngine fallback");
        core::OfflineOptions oopts;
        oopts.model = m;
        oopts.pipeline.validate = false;
        auto offline = core::materialize(oopts);
        ASSERT_TRUE(offline.isOk()) << offline.status().toString();
        auto image = core::MaterializedImage::openView(
            std::span<const u8>(offline->image_bytes));
        ASSERT_TRUE(image.isOk());

        FaultInjector injector(*plan);
        core::MedusaEngine::Options opts;
        opts.model = m;
        opts.restore.pipeline.fault = &injector;
        opts.restore.fallback.mode = core::FallbackMode::kVanillaColdStart;
        auto engine = core::MedusaEngine::coldStartFromImage(opts, *image);
        ASSERT_TRUE(engine.isOk()) << engine.status().toString();
        const ColdStartReport &cs = (*engine)->coldStartReport();
        ASSERT_EQ(cs.outcome, ColdStartOutcome::kFellBack);
        expectVanillaStages(
            stageSpans(cs, 0, "fallback.vanilla_cold_start"), cs.times);
    }
    {
        SCOPED_TRACE("TpMedusaEngine fallback");
        core::TpOfflineOptions oopts;
        oopts.model = m;
        oopts.world = 2;
        oopts.batch_sizes = {1};
        auto offline = core::materializeTp(oopts);
        ASSERT_TRUE(offline.isOk()) << offline.status().toString();
        auto images = core::openRankImages(offline->rank_images);
        ASSERT_TRUE(images.isOk());

        FaultInjector injector(*plan);
        core::TpMedusaEngine::Options opts;
        opts.model = m;
        opts.world = 2;
        opts.restore.pipeline.fault = &injector;
        opts.restore.fallback.mode = core::FallbackMode::kVanillaColdStart;
        auto engine = core::TpMedusaEngine::coldStartFromImages(opts, *images);
        ASSERT_TRUE(engine.isOk()) << engine.status().toString();
        const ColdStartReport &cs = (*engine)->coldStartReport();
        ASSERT_EQ(cs.outcome, ColdStartOutcome::kFellBack);
        // Every rank runs the stage list; the report carries the stage
        // times of the rank that finished last (ties to the lower).
        u32 slowest = 0;
        i64 slowest_end = -1;
        for (u32 r = 0; r < 2; ++r) {
            SCOPED_TRACE("rank " + std::to_string(r));
            const auto spans =
                stageSpans(cs, r, "fallback.vanilla_cold_start");
            expectStageOrder(spans);
            ASSERT_FALSE(spans.empty());
            const i64 end = spans.back().start_ns + spans.back().dur_ns;
            if (end > slowest_end) {
                slowest = r;
                slowest_end = end;
            }
        }
        expectVanillaStages(
            stageSpans(cs, slowest, "fallback.vanilla_cold_start"),
            cs.times);
    }
}

} // namespace
} // namespace medusa::llm
