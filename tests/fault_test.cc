/**
 * @file
 * Tests of the deterministic fault-injection subsystem (common/fault.h)
 * and of the transactional restore behavior it drives: plan parsing,
 * per-point determinism, MedusaEngine fallback policies, ImageCache
 * failure backoff and the cluster simulator's degraded launches.
 */

#include <gtest/gtest.h>

#include "common/fault.h"
#include "llm/model_config.h"
#include "medusa/artifact_cache.h"
#include "medusa/offline.h"
#include "medusa/restore.h"
#include "serverless/cluster.h"

namespace medusa {
namespace {

using core::FallbackMode;
using core::MedusaEngine;
using core::OfflineOptions;
using core::materialize;
using llm::findModel;
using llm::ModelConfig;

ModelConfig
tinyModel()
{
    ModelConfig m = findModel("Qwen1.5-0.5B").value();
    m.num_layers = 4;
    return m;
}

/** One shared tiny image for the engine-level tests. */
const core::MaterializedImage &
tinyImage()
{
    static const core::MaterializedImage image = []() {
        OfflineOptions opts;
        opts.model = tinyModel();
        opts.pipeline.validate = false;
        auto result = materialize(opts);
        MEDUSA_CHECK(result.isOk(), result.status().toString());
        return core::MaterializedImage::open(std::move(result->image_bytes))
            .value();
    }();
    return image;
}

// ---- plan parsing --------------------------------------------------------

TEST(FaultPlanTest, PointNamesRoundTrip)
{
    for (std::size_t i = 0; i < kFaultPointCount; ++i) {
        const auto point = static_cast<FaultPoint>(i);
        const std::string name = faultPointName(point);
        EXPECT_FALSE(name.empty());
        auto back = faultPointFromName(name);
        ASSERT_TRUE(back.isOk()) << name;
        EXPECT_EQ(*back, point);
    }
    EXPECT_FALSE(faultPointFromName("no_such_point").isOk());
}

TEST(FaultPlanTest, ParsesSpecForms)
{
    auto plan = FaultPlan::fromSpec("dlsym@2x1;image_open=0.25,seed=9");
    ASSERT_TRUE(plan.isOk()) << plan.status().toString();
    EXPECT_EQ(plan->seed, 9u);
    const FaultRule &dlsym = plan->rule(FaultPoint::kKernelDlsym);
    EXPECT_EQ(dlsym.fire_on_hit, 2u);
    EXPECT_EQ(dlsym.max_fires, 1u);
    const FaultRule &open = plan->rule(FaultPoint::kImageOpen);
    EXPECT_DOUBLE_EQ(open.probability, 0.25);
    EXPECT_TRUE(plan->enabled());

    // A bare point name always fires.
    auto bare = FaultPlan::fromSpec("instantiate");
    ASSERT_TRUE(bare.isOk());
    EXPECT_DOUBLE_EQ(
        bare->rule(FaultPoint::kGraphInstantiate).probability, 1.0);

    EXPECT_FALSE(FaultPlan::fromSpec("bogus_point@1").isOk());
    EXPECT_FALSE(FaultPlan::fromSpec("image_open=notanumber").isOk());
    // NaN fails every comparison, so the range check must reject it
    // explicitly; a NaN probability would never fire.
    auto nan = FaultPlan::fromSpec("image_open=nan");
    ASSERT_FALSE(nan.isOk());
    EXPECT_EQ(nan.status().code(), StatusCode::kInvalidArgument);
}

TEST(FaultPlanTest, DuplicatePointIsAnError)
{
    // A second rule for the same point used to silently overwrite the
    // first; it must be rejected and name the offender.
    auto dup = FaultPlan::fromSpec("dlsym@2;image_open=0.1;dlsym=0.5");
    ASSERT_FALSE(dup.isOk());
    EXPECT_NE(dup.status().message().find("duplicate"),
              std::string::npos);
    EXPECT_NE(dup.status().message().find("dlsym"), std::string::npos);

    auto json_dup = FaultPlan::fromJson(
        "{\"seed\":1,\"rules\":[{\"point\":\"image_open\","
        "\"probability\":0.1},"
        "{\"point\":\"image_open\",\"fire_on_hit\":2}]}");
    ASSERT_FALSE(json_dup.isOk());
    EXPECT_NE(json_dup.status().message().find("duplicate"),
              std::string::npos);
    EXPECT_NE(json_dup.status().message().find("image_open"),
              std::string::npos);
}

TEST(FaultPlanTest, UnknownPointErrorListsValidNames)
{
    auto bad = FaultPlan::fromSpec("no_such_point=0.5");
    ASSERT_FALSE(bad.isOk());
    const std::string &msg = bad.status().message();
    EXPECT_NE(msg.find("no_such_point"), std::string::npos);
    // The error enumerates every valid point name.
    for (std::size_t i = 0; i < kFaultPointCount; ++i) {
        const char *name = faultPointName(static_cast<FaultPoint>(i));
        EXPECT_NE(msg.find(name), std::string::npos) << name;
    }
}

TEST(FaultPlanTest, RetiredPointNamesAreUnknown)
{
    // The v5 artifact's deserialize and CRC points went with its
    // serializer; their spec names fail like any unknown point.
    for (const char *spec : {"crc=0.1", "deserialize=0.1"}) {
        auto plan = FaultPlan::fromSpec(spec);
        ASSERT_FALSE(plan.isOk()) << spec;
        EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument)
            << plan.status().toString();
    }
}

TEST(FaultPlanTest, SpecRendersBack)
{
    auto plan = FaultPlan::fromSpec("dlsym@2x1;seed=9");
    ASSERT_TRUE(plan.isOk());
    auto again = FaultPlan::fromSpec(plan->toSpec());
    ASSERT_TRUE(again.isOk()) << plan->toSpec();
    EXPECT_EQ(again->seed, plan->seed);
    EXPECT_EQ(again->rule(FaultPoint::kKernelDlsym).fire_on_hit, 2u);
    EXPECT_EQ(again->rule(FaultPoint::kKernelDlsym).max_fires, 1u);
}

TEST(FaultPlanTest, ParsesJsonForm)
{
    auto plan = FaultPlan::fromJson(
        "{\"seed\":7,\"rules\":[{\"point\":\"replay_alloc\","
        "\"probability\":0.5,\"fire_on_hit\":3,\"max_fires\":2}]}");
    ASSERT_TRUE(plan.isOk()) << plan.status().toString();
    EXPECT_EQ(plan->seed, 7u);
    const FaultRule &rule = plan->rule(FaultPoint::kReplayAlloc);
    EXPECT_DOUBLE_EQ(rule.probability, 0.5);
    EXPECT_EQ(rule.fire_on_hit, 3u);
    EXPECT_EQ(rule.max_fires, 2u);

    EXPECT_FALSE(FaultPlan::fromJson("{not json").isOk());

    // The JSON form checks values the way the spec form does, and
    // integer fields are integers in [0, 2^53] rather than casts.
    for (const char *bad :
         {"{\"seed\":1} trailing garbage",
          "{\"rules\":[{\"point\":\"image_open\",\"fire_on_hit\":0}]}",
          "{\"rules\":[{\"point\":\"image_open\",\"max_fires\":-1}]}",
          "{\"seed\":1e300}"}) {
        auto rejected = FaultPlan::fromJson(bad);
        ASSERT_FALSE(rejected.isOk()) << bad;
        EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument)
            << bad;
    }
}

// ---- injector semantics --------------------------------------------------

TEST(FaultInjectorTest, FiresOnExactHitOrdinal)
{
    auto plan = FaultPlan::fromSpec("dlsym@3x1");
    ASSERT_TRUE(plan.isOk());
    FaultInjector injector(*plan);
    EXPECT_TRUE(injector.check(FaultPoint::kKernelDlsym).isOk());
    EXPECT_TRUE(injector.check(FaultPoint::kKernelDlsym).isOk());
    const Status third = injector.check(FaultPoint::kKernelDlsym, "k3");
    EXPECT_EQ(third.code(), StatusCode::kFaultInjected);
    // max_fires=1: later hits pass again.
    EXPECT_TRUE(injector.check(FaultPoint::kKernelDlsym).isOk());
    EXPECT_EQ(injector.hits(FaultPoint::kKernelDlsym), 4u);
    EXPECT_EQ(injector.fires(FaultPoint::kKernelDlsym), 1u);
    EXPECT_EQ(injector.totalFires(), 1u);
}

TEST(FaultInjectorTest, SameSeedSameSchedule)
{
    auto plan = FaultPlan::fromSpec("image_open=0.3;seed=1234");
    ASSERT_TRUE(plan.isOk());
    FaultInjector a(*plan);
    FaultInjector b(*plan);
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(a.check(FaultPoint::kImageOpen).isOk(),
                  b.check(FaultPoint::kImageOpen).isOk())
            << "hit " << i;
    }
    EXPECT_EQ(a.fires(FaultPoint::kImageOpen),
              b.fires(FaultPoint::kImageOpen));
    EXPECT_GT(a.fires(FaultPoint::kImageOpen), 0u);
    EXPECT_LT(a.fires(FaultPoint::kImageOpen), 200u);

    // reset() rewinds to the identical schedule.
    const u64 before = a.fires(FaultPoint::kImageOpen);
    a.reset();
    for (int i = 0; i < 200; ++i) {
        a.check(FaultPoint::kImageOpen);
    }
    EXPECT_EQ(a.fires(FaultPoint::kImageOpen), before);
}

TEST(FaultInjectorTest, StreamsAreIndependentAcrossPoints)
{
    auto plan = FaultPlan::fromSpec("image_open=0.3;dlsym=0.3;seed=42");
    ASSERT_TRUE(plan.isOk());
    // Interleaving hits at another point must not change image_open's
    // schedule.
    FaultInjector pure(*plan);
    FaultInjector mixed(*plan);
    std::vector<bool> pure_fires, mixed_fires;
    for (int i = 0; i < 100; ++i) {
        pure_fires.push_back(
            !pure.check(FaultPoint::kImageOpen).isOk());
        mixed.check(FaultPoint::kKernelDlsym);
        mixed_fires.push_back(
            !mixed.check(FaultPoint::kImageOpen).isOk());
    }
    EXPECT_EQ(pure_fires, mixed_fires);
}

TEST(FaultInjectorTest, SurvivingPointsKeepTheirStreams)
{
    // Each point's stream is seeded by its position in the SplitMix64
    // sequence of the plan seed. Retiring the first two points must not
    // shift the others, or every committed plan (e.g. the cluster
    // golden rows arming cluster_restore) would change its schedule.
    // These are the first draws each point made before the retirement.
    const struct
    {
        FaultPoint point;
        f64 first_draw;
    } kPinned[] = {
        {FaultPoint::kCacheLoader, 0x1.3edb6280db48p-7},
        {FaultPoint::kReplayPrefix, 0x1.2d4e1074046dap-2},
        {FaultPoint::kReplayAlloc, 0x1.11ca6e687f85p-1},
        {FaultPoint::kKernelDlsym, 0x1.71e363bda0147p-1},
        {FaultPoint::kKernelEnumeration, 0x1.1913bd17a2dbcp-2},
        {FaultPoint::kGraphInstantiate, 0x1.69607aa8736dbp-1},
        {FaultPoint::kTpRankRestore, 0x1.dfbc1ed9de2cap-1},
        {FaultPoint::kTpLockstep, 0x1.2198b5506854p-7},
        {FaultPoint::kClusterRestore, 0x1.c00459fc3c93p-5},
        {FaultPoint::kImageOpen, 0x1.7e775b33f73ecp-1},
        {FaultPoint::kImagePatch, 0x1.6f910ba06974p-5},
    };
    static_assert(std::size(kPinned) == kFaultPointCount);
    FaultPlan plan;
    plan.seed = 0x5eed;
    FaultInjector injector(plan);
    for (const auto &p : kPinned) {
        EXPECT_EQ(injector.drawFraction(p.point), p.first_draw)
            << faultPointName(p.point);
    }
    // reset() reseeds through the same helper.
    injector.reset();
    EXPECT_EQ(injector.drawFraction(FaultPoint::kClusterRestore),
              0x1.c00459fc3c93p-5);
}

TEST(FaultInjectorTest, DrawFractionDeterministic)
{
    auto plan = FaultPlan::fromSpec("seed=5");
    ASSERT_TRUE(plan.isOk());
    FaultInjector a(*plan);
    FaultInjector b(*plan);
    for (int i = 0; i < 16; ++i) {
        const f64 fa = a.drawFraction(FaultPoint::kClusterRestore);
        EXPECT_GE(fa, 0.0);
        EXPECT_LT(fa, 1.0);
        EXPECT_DOUBLE_EQ(fa, b.drawFraction(FaultPoint::kClusterRestore));
    }
}

// ---- MedusaEngine fallback policies -------------------------------------

TEST(FaultRestoreTest, DefaultPolicyPropagatesInjectedFailure)
{
    auto plan = FaultPlan::fromSpec("replay_prefix@1");
    ASSERT_TRUE(plan.isOk());
    FaultInjector injector(*plan);

    MedusaEngine::Options eopts;
    eopts.model = tinyModel();
    eopts.restore.pipeline.fault = &injector;
    auto engine = MedusaEngine::coldStartFromImage(eopts, tinyImage());
    ASSERT_FALSE(engine.isOk());
    EXPECT_EQ(engine.status().code(), StatusCode::kFaultInjected);
}

TEST(FaultRestoreTest, RetrySucceedsAndAccountsWaste)
{
    // The first restore attempt dies in the replay prefix; the retry
    // must succeed and the report must carry the full accounting.
    auto plan = FaultPlan::fromSpec("replay_prefix@1x1");
    ASSERT_TRUE(plan.isOk());
    FaultInjector injector(*plan);

    MedusaEngine::Options eopts;
    eopts.model = tinyModel();
    eopts.restore.pipeline.validate = true;
    eopts.restore.pipeline.fault = &injector;
    eopts.restore.fallback.mode = FallbackMode::kRetryThenVanilla;
    eopts.restore.fallback.max_attempts = 2;
    auto engine = MedusaEngine::coldStartFromImage(eopts, tinyImage());
    ASSERT_TRUE(engine.isOk()) << engine.status().toString();

    const RestoreReport &report = (*engine)->coldStartReport().restore;
    EXPECT_EQ(report.restore_attempts, 2u);
    EXPECT_EQ(report.restore_failures, 1u);
    EXPECT_EQ(report.retries, 1u);
    EXPECT_FALSE(report.fallback_vanilla);
    EXPECT_GT(report.wasted_restore_sec, 0.0);
    EXPECT_GT(report.backoff_sec, 0.0);
    EXPECT_NE(report.last_failure.find("FAULT_INJECTED"),
              std::string::npos)
        << report.last_failure;
    EXPECT_TRUE(report.validated);
    EXPECT_GT(report.graphs_restored, 0u);

    // The waste and the backoff are charged to the visible latency.
    MedusaEngine::Options clean = eopts;
    clean.restore.pipeline.fault = nullptr;
    auto reference = MedusaEngine::coldStartFromImage(clean, tinyImage());
    ASSERT_TRUE(reference.isOk());
    EXPECT_GT((*engine)->coldStartReport().times.loading,
              (*reference)->coldStartReport().times.loading);
}

TEST(FaultRestoreTest, VanillaFallbackYieldsWorkingEngine)
{
    // Every attempt dies in kernel resolution: the engine must degrade
    // to the classic profile+capture cold start and still serve.
    auto plan = FaultPlan::fromSpec("dlsym");
    ASSERT_TRUE(plan.isOk());
    FaultInjector injector(*plan);

    MedusaEngine::Options eopts;
    eopts.model = tinyModel();
    eopts.restore.pipeline.fault = &injector;
    eopts.restore.fallback.mode = FallbackMode::kVanillaColdStart;
    auto engine = MedusaEngine::coldStartFromImage(eopts, tinyImage());
    ASSERT_TRUE(engine.isOk()) << engine.status().toString();

    const RestoreReport &report = (*engine)->coldStartReport().restore;
    EXPECT_TRUE(report.fallback_vanilla);
    EXPECT_EQ(report.restore_attempts, 1u);
    EXPECT_EQ(report.restore_failures, 1u);
    EXPECT_EQ(report.retries, 0u);
    EXPECT_EQ(report.graphs_restored, 0u);
    EXPECT_GT(report.wasted_restore_sec, 0.0);

    // The degraded engine serves with captured graphs.
    auto &rt = (*engine)->runtime();
    EXPECT_GT(rt.graphCount(), 0u);
    auto tokens = rt.generate({1, 2, 3}, 4);
    ASSERT_TRUE(tokens.isOk()) << tokens.status().toString();
    EXPECT_EQ(tokens->size(), 4u);
}

TEST(FaultRestoreTest, RetriesExhaustedDegradeToVanilla)
{
    auto plan = FaultPlan::fromSpec("enumeration");
    ASSERT_TRUE(plan.isOk());
    FaultInjector injector(*plan);

    MedusaEngine::Options eopts;
    eopts.model = tinyModel();
    eopts.restore.pipeline.fault = &injector;
    eopts.restore.fallback.mode = FallbackMode::kRetryThenVanilla;
    eopts.restore.fallback.max_attempts = 3;
    auto engine = MedusaEngine::coldStartFromImage(eopts, tinyImage());
    ASSERT_TRUE(engine.isOk()) << engine.status().toString();

    const RestoreReport &report = (*engine)->coldStartReport().restore;
    EXPECT_EQ(report.restore_attempts, 3u);
    EXPECT_EQ(report.restore_failures, 3u);
    EXPECT_EQ(report.retries, 2u);
    EXPECT_TRUE(report.fallback_vanilla);
}

TEST(FaultRestoreTest, DisabledInjectionIsBitIdentical)
{
    // fault == nullptr must leave latency and report untouched: two
    // runs, one against an engine carrying a non-firing injector.
    auto plan = FaultPlan::fromSpec("seed=3"); // no active rules
    ASSERT_TRUE(plan.isOk());
    EXPECT_FALSE(plan->enabled());
    FaultInjector idle(*plan);

    MedusaEngine::Options eopts;
    eopts.model = tinyModel();
    eopts.aslr_seed = 777;
    eopts.restore.pipeline.validate = true;
    auto plain = MedusaEngine::coldStartFromImage(eopts, tinyImage());
    ASSERT_TRUE(plain.isOk());

    eopts.restore.pipeline.fault = &idle;
    auto hooked = MedusaEngine::coldStartFromImage(eopts, tinyImage());
    ASSERT_TRUE(hooked.isOk());

    EXPECT_EQ((*plain)->coldStartReport().times.loading, (*hooked)->coldStartReport().times.loading);
    EXPECT_EQ((*plain)->coldStartReport().times.coldStart(),
              (*hooked)->coldStartReport().times.coldStart());
    EXPECT_EQ((*plain)->coldStartReport().restore.graphs_restored,
              (*hooked)->coldStartReport().restore.graphs_restored);
    EXPECT_EQ((*plain)->coldStartReport().restore.nodes_restored,
              (*hooked)->coldStartReport().restore.nodes_restored);
    EXPECT_EQ((*hooked)->coldStartReport().restore.restore_attempts, 1u);
    EXPECT_EQ((*hooked)->coldStartReport().restore.restore_failures, 0u);
    EXPECT_EQ((*plain)->runtime().process().stateFingerprint(),
              (*hooked)->runtime().process().stateFingerprint());
}

// ---- ImageCache failure records -----------------------------------------

TEST(FaultCacheTest, RecordsFailureStatusAndBacksOff)
{
    core::ImageCache cache(/*capacity=*/2,
                           /*initial_backoff_ms=*/1.0,
                           /*max_backoff_ms=*/4.0);
    int runs = 0;
    auto failing = [&]() -> StatusOr<core::MaterializedImage> {
        ++runs;
        return internalError("node died");
    };
    auto first = cache.getOrLoad("k", failing);
    ASSERT_FALSE(first.isOk());
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(cache.keyFailure("k").code(), StatusCode::kInternal);
    EXPECT_EQ(cache.metricsSnapshot().counterValue("artifact_cache.failed_loads"), 1u);
    EXPECT_EQ(cache.lastFailure().code(), StatusCode::kInternal);

    // An immediate retry waits out the backoff (counted), then runs
    // the loader again.
    auto second = cache.getOrLoad("k", failing);
    ASSERT_FALSE(second.isOk());
    EXPECT_EQ(runs, 2);
    EXPECT_GE(cache.metricsSnapshot().counterValue("artifact_cache.backoff_waits"), 1u);

    // Success clears the failure record.
    auto ok = cache.getOrLoad("k", [&]() -> StatusOr<core::MaterializedImage> {
        return core::MaterializedImage{};
    });
    ASSERT_TRUE(ok.isOk());
    EXPECT_TRUE(cache.keyFailure("k").isOk());
}

TEST(FaultCacheTest, InjectorFailsLoaderWithoutRunningIt)
{
    auto plan = FaultPlan::fromSpec("cache_loader@1x1");
    ASSERT_TRUE(plan.isOk());
    FaultInjector injector(*plan);

    core::ImageCache cache(2, 0.0, 0.0); // no backoff delay
    cache.setFaultInjector(&injector);
    int runs = 0;
    auto loader = [&]() -> StatusOr<core::MaterializedImage> {
        ++runs;
        return core::MaterializedImage{};
    };
    auto first = cache.getOrLoad("k", loader);
    ASSERT_FALSE(first.isOk());
    EXPECT_EQ(first.status().code(), StatusCode::kFaultInjected);
    EXPECT_EQ(runs, 0); // the fault preempted the fetch
    auto second = cache.getOrLoad("k", loader);
    ASSERT_TRUE(second.isOk()) << second.status().toString();
    EXPECT_EQ(runs, 1);
}

// ---- cluster simulation under launch faults ------------------------------

using serverless::ClusterOptions;
using serverless::ServingProfile;
using serverless::simulateCluster;

ServingProfile
toyProfile()
{
    ServingProfile p;
    p.model_name = "toy";
    p.strategy = llm::Strategy::kVllm;
    p.loading_sec = 2.0;
    p.cold_start_sec = 2.0;
    p.batch_sizes = {1, 10};
    p.decode_step_sec = {0.01, 0.10};
    p.prefill_tokens = {100, 1000};
    p.prefill_sec = {0.1, 1.0};
    return p;
}

/** Sets options.profile and calls the public simulateCluster entry. */
serverless::TraceMetrics
runCluster(ClusterOptions opts, const ServingProfile &profile,
           const std::vector<workload::Request> &trace)
{
    opts.profile = &profile;
    return simulateCluster(opts, trace);
}

std::vector<workload::Request>
simpleTrace(int n, f64 gap)
{
    std::vector<workload::Request> trace;
    for (int i = 0; i < n; ++i) {
        workload::Request r;
        r.arrival_sec = i * gap;
        r.prompt_tokens = 100;
        r.output_tokens = 3;
        trace.push_back(r);
    }
    return trace;
}

TEST(FaultClusterTest, AllRequestsCompleteUnderRetryThenVanilla)
{
    auto plan = FaultPlan::fromSpec("cluster_restore=0.5;seed=11");
    ASSERT_TRUE(plan.isOk());
    FaultInjector injector(*plan);

    ClusterOptions opts;
    opts.pipeline.fault = &injector;
    opts.fallback.mode = FallbackMode::kRetryThenVanilla;
    opts.fallback.max_attempts = 2;
    opts.vanilla_cold_start_sec = 8.0;
    // Spread arrivals so instances idle out and relaunch, exercising
    // many faulted cold starts.
    opts.idle_timeout_sec = 1.0;
    const auto metrics =
        runCluster(opts, toyProfile(), simpleTrace(20, 10.0));
    EXPECT_EQ(metrics.completed, 20u);
    EXPECT_GT(metrics.restore_failures, 0u);
    EXPECT_GT(metrics.wasted_restore_sec, 0.0);
    EXPECT_EQ(metrics.retries + metrics.fallback_cold_starts,
              metrics.restore_failures);
}

TEST(FaultClusterTest, FaultFreeRunMatchesNoInjector)
{
    auto plan = FaultPlan::fromSpec("seed=2"); // nothing fires
    ASSERT_TRUE(plan.isOk());
    FaultInjector idle(*plan);

    ClusterOptions plain;
    const auto a =
        runCluster(plain, toyProfile(), simpleTrace(10, 1.0));

    ClusterOptions hooked;
    hooked.pipeline.fault = &idle;
    const auto b =
        runCluster(hooked, toyProfile(), simpleTrace(10, 1.0));

    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.cold_starts, b.cold_starts);
    EXPECT_DOUBLE_EQ(a.ttft_sec.p50(), b.ttft_sec.p50());
    EXPECT_DOUBLE_EQ(a.makespan_sec, b.makespan_sec);
    EXPECT_EQ(b.restore_failures, 0u);
    EXPECT_EQ(b.fallback_cold_starts, 0u);
}

TEST(FaultClusterTest, FailPolicyStillDrainsTheTrace)
{
    // Probabilistic launch deaths under kFail: dead instances are
    // relaunched by the dispatcher until demand is met, so the trace
    // still completes (at higher latency).
    auto plan = FaultPlan::fromSpec("cluster_restore=0.4;seed=21");
    ASSERT_TRUE(plan.isOk());
    FaultInjector injector(*plan);

    ClusterOptions opts;
    opts.pipeline.fault = &injector;
    opts.fallback.mode = FallbackMode::kFail;
    const auto metrics =
        runCluster(opts, toyProfile(), simpleTrace(10, 1.0));
    EXPECT_EQ(metrics.completed, 10u);
    EXPECT_GT(metrics.restore_failures, 0u);
    EXPECT_EQ(metrics.fallback_cold_starts, 0u);
    EXPECT_EQ(metrics.retries, 0u);
}

} // namespace
} // namespace medusa
