/**
 * @file
 * Tests of the deterministic fault-injection subsystem (common/fault.h)
 * and of the transactional restore behavior it drives: plan parsing,
 * per-point determinism, MedusaEngine fallback policies and the
 * cluster simulator's degraded launches.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "common/fault.h"
#include "llm/model_config.h"
#include "medusa/offline.h"
#include "medusa/restore.h"
#include "serverless/cluster.h"
#include "test_cluster.h"

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
    static const core::OfflineResult result = []() {
        OfflineOptions opts;
        opts.model = tinyModel();
        opts.pipeline.validate = false;
        return materialize(opts).value();
    }();
    return result.artifact;
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

/** Sets an environment variable for one scope, then restores it. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name); old != nullptr) {
            old_ = old;
        }
        ::setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (old_.has_value()) {
            ::setenv(name_, old_->c_str(), 1);
        } else {
            ::unsetenv(name_);
        }
    }
    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name_;
    std::optional<std::string> old_;
};

TEST(FaultPlanTest, RejectsMalformedIntegers)
{
    // A bare strtoull reads these as a seed of 0 or 5, a wrapped hit
    // ordinal, a wrapped fire cap (an inactive rule), a saturated
    // overflow or (base 0) hit 2; a second seed would silently replace
    // the first, and so would a repeated modifier within one entry.
    // Hits count from 1, and decimal "@0x2" is hit 0 followed by a cap.
    for (const char *spec :
         {"seed=zzz", "seed=5junk", "seed=", "seed=-1", "seed= 5",
          "seed=1;seed=2", "seed=18446744073709551616", "dlsym@-1",
          "dlsym@+2", "dlsym@ 2", "dlsymx-1", "dlsym@1x-1",
          "dlsym@18446744073709551616", "dlsym@0", "dlsym@0x2",
          "seed=0x", "dlsym@1@2", "dlsymx1x5", "dlsym=0.5=0.1"}) {
        auto plan = FaultPlan::fromSpec(spec);
        ASSERT_FALSE(plan.isOk()) << spec;
        EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument)
            << spec;
    }

    const struct
    {
        const char *spec;
        u64 seed;
        u64 fire_on_hit;
        u64 max_fires;
    } kAccepted[] = {
        {"seed=0x5eed;dlsym@3", 0x5eed, 3, ~0ull},
        {"seed=18446744073709551615;dlsym@2x1", ~0ull, 2, 1},
        {"dlsym@18446744073709551615x0", 0x5eed, ~0ull, 0},
        // Decimal, never octal: base 0 read these as 8.
        {"seed=010;dlsym@010x010", 10, 10, 10},
    };
    for (const auto &c : kAccepted) {
        auto plan = FaultPlan::fromSpec(c.spec);
        ASSERT_TRUE(plan.isOk()) << c.spec << ": "
                                 << plan.status().toString();
        EXPECT_EQ(plan->seed, c.seed) << c.spec;
        const FaultRule &rule = plan->rule(FaultPoint::kKernelDlsym);
        EXPECT_EQ(rule.fire_on_hit, c.fire_on_hit) << c.spec;
        EXPECT_EQ(rule.max_fires, c.max_fires) << c.spec;
    }
}

TEST(FaultPlanTest, CapAloneMeansAlwaysFireUpToTheCap)
{
    auto spec = FaultPlan::fromSpec("dlsymx3");
    ASSERT_TRUE(spec.isOk()) << spec.status().toString();
    EXPECT_TRUE(spec->enabled());
    const FaultRule &rule = spec->rule(FaultPoint::kKernelDlsym);
    EXPECT_EQ(rule.probability, 1.0);
    EXPECT_EQ(rule.fire_on_hit, 0u);
    EXPECT_EQ(rule.max_fires, 3u);

    // It renders to a spec that parses back to the same rule.
    auto again = FaultPlan::fromSpec(spec->toSpec());
    ASSERT_TRUE(again.isOk()) << spec->toSpec();
    EXPECT_EQ(again->toSpec(), spec->toSpec());
    const FaultRule &back = again->rule(FaultPoint::kKernelDlsym);
    EXPECT_EQ(back.probability, 1.0);
    EXPECT_EQ(back.max_fires, 3u);

    FaultInjector injector(*spec);
    for (int i = 0; i < 5; ++i) {
        (void)injector.check(FaultPoint::kKernelDlsym, "");
    }
    EXPECT_EQ(injector.fires(FaultPoint::kKernelDlsym), 3u);
}

TEST(FaultPlanDeathTest, EnvInjectorAbortsOnAMalformedPlan)
{
    // A re-executed child starts with envFaultInjector() unbuilt.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            ScopedEnv plan("MEDUSA_FAULT_PLAN", "dlsym@zz");
            envFaultInjector();
        },
        "bad hit ordinal");
    EXPECT_DEATH(
        {
            ScopedEnv plan("MEDUSA_FAULT_PLAN", "dlsym@2");
            ScopedEnv seed("MEDUSA_FAULT_SEED", "abc");
            envFaultInjector();
        },
        "MEDUSA_FAULT_SEED");
}

TEST(FaultPlanTest, FromEnvRejectsABadSeedOverride)
{
    ScopedEnv plan_var("MEDUSA_FAULT_PLAN", "dlsym@2");
    const struct
    {
        const char *seed;
        bool ok;
        u64 value;
    } kCases[] = {
        {"42", true, 42},    {"0x10", true, 16},   {"abc", false, 0},
        {"5junk", false, 0}, {"-1", false, 0},     {" 7", false, 0},
        {"18446744073709551616", false, 0},
    };
    for (const auto &c : kCases) {
        ScopedEnv seed_var("MEDUSA_FAULT_SEED", c.seed);
        auto plan = FaultPlan::fromEnv();
        ASSERT_EQ(plan.isOk(), c.ok) << c.seed;
        if (c.ok) {
            ASSERT_TRUE(plan->has_value());
            EXPECT_EQ((**plan).seed, c.value) << c.seed;
        } else {
            EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument)
                << c.seed;
            EXPECT_NE(plan.status().message().find("MEDUSA_FAULT_SEED"),
                      std::string::npos);
        }
    }
}

TEST(FaultPlanTest, RetiredPointNamesAreUnknown)
{
    // The v5 artifact's deserialize and CRC points went with its
    // serializer, and cache_loader with the process-wide image cache;
    // their spec names fail like any unknown point.
    for (const char *spec :
         {"crc=0.1", "deserialize=0.1", "cache_loader@1x1"}) {
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
    // sequence of the plan seed. Retiring the first three points must
    // not shift the others, or every committed plan (e.g. the cluster
    // golden rows arming cluster_restore) would change its schedule.
    // These are the first draws each point made before the retirement.
    const struct
    {
        FaultPoint point;
        f64 first_draw;
    } kPinned[] = {
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

// ---- cluster simulation under launch faults ------------------------------

using serverless::ClusterOptions;
using test::clusterCounter;
using test::clusterGauge;
using test::runCluster;
using test::toyProfile;

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
    EXPECT_GT(clusterCounter(metrics, "cluster.restore_failures"), 0u);
    EXPECT_GT(clusterGauge(metrics, "cluster.wasted_restore_sec"), 0.0);
    EXPECT_EQ(clusterCounter(metrics, "cluster.retries") +
                  clusterCounter(metrics, "cluster.fallback_cold_starts"),
              clusterCounter(metrics, "cluster.restore_failures"));
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
    EXPECT_EQ(clusterCounter(a, "cluster.cold_starts"),
              clusterCounter(b, "cluster.cold_starts"));
    EXPECT_DOUBLE_EQ(a.ttft_sec.p50(), b.ttft_sec.p50());
    EXPECT_DOUBLE_EQ(a.makespan_sec, b.makespan_sec);
    EXPECT_FALSE(b.metrics.has("cluster.restore_failures"));
    EXPECT_FALSE(b.metrics.has("cluster.fallback_cold_starts"));
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
    EXPECT_GT(clusterCounter(metrics, "cluster.restore_failures"), 0u);
    EXPECT_FALSE(metrics.metrics.has("cluster.fallback_cold_starts"));
    EXPECT_FALSE(metrics.metrics.has("cluster.retries"));
}

} // namespace
} // namespace medusa
