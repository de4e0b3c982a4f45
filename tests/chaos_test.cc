/**
 * @file
 * Chaos-layer suite (DESIGN.md §16): ChaosPlan parsing in both forms
 * (spec string, environment), the deterministic failure
 * schedule built from it, and the simulator's behavior under every
 * failure class — instance crashes that requeue in-flight work, node
 * crashes that drop artifact residency, store outages that stall or
 * degrade launches, gray windows that slow fetches — plus the SLO
 * policy knobs (admission control, deadline shedding, bounded retry,
 * degrade-to-vanilla) and the request-conservation invariant that every
 * request ends in exactly one terminal state.
 *
 * The threaded determinism test at the bottom doubles as the TSan
 * target for the crash-requeue path (scripts/check.sh runs this binary
 * under ThreadSanitizer).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>

#include "serverless/chaos.h"
#include "serverless/cluster.h"
#include "test_cluster.h"
#include "workload/trace.h"

namespace medusa::serverless {
namespace {

using test::clusterCounter;
using test::clusterGauge;
using test::runCluster;
using test::toyProfile;

/** n requests, gap seconds apart, cycling over num_models model ids. */
std::vector<workload::Request>
makeTrace(u32 n, f64 gap, u16 num_models = 1, f64 deadline = 0)
{
    std::vector<workload::Request> trace;
    trace.reserve(n);
    for (u32 i = 0; i < n; ++i) {
        workload::Request r;
        r.arrival_sec = i * gap;
        r.prompt_tokens = 100;
        r.output_tokens = 20;
        r.model_id = static_cast<u16>(i % num_models);
        r.ttft_deadline_sec = deadline;
        trace.push_back(r);
    }
    return trace;
}

/** completed + shed + failed must equal the trace size. */
void
expectConserved(const TraceMetrics &m, std::size_t trace_size)
{
    EXPECT_EQ(m.completed + clusterCounter(m, "cluster.slo.shed_admission") +
                  clusterCounter(m, "cluster.slo.shed_deadline") +
                  clusterCounter(m, "cluster.slo.failed_requests"),
              trace_size);
}

// ---- plan parsing --------------------------------------------------------

TEST(ChaosPlanTest, ParsesSpecForm)
{
    auto plan = ChaosPlan::fromSpec(
        "seed=9;node_mtbf=20;node_mttr=4;inst_mtbf=7;store_mtbf=30;"
        "store_mttr=2;gray_mtbf=40;gray_mttr=6;gray_slowdown=8;"
        "horizon=500");
    ASSERT_TRUE(plan.isOk()) << plan.status().message();
    EXPECT_EQ(plan.value().seed, 9u);
    EXPECT_DOUBLE_EQ(plan.value().node_mtbf_sec, 20.0);
    EXPECT_DOUBLE_EQ(plan.value().node_mttr_sec, 4.0);
    EXPECT_DOUBLE_EQ(plan.value().inst_mtbf_sec, 7.0);
    EXPECT_DOUBLE_EQ(plan.value().store_mtbf_sec, 30.0);
    EXPECT_DOUBLE_EQ(plan.value().store_mttr_sec, 2.0);
    EXPECT_DOUBLE_EQ(plan.value().gray_mtbf_sec, 40.0);
    EXPECT_DOUBLE_EQ(plan.value().gray_mttr_sec, 6.0);
    EXPECT_DOUBLE_EQ(plan.value().gray_slowdown, 8.0);
    EXPECT_DOUBLE_EQ(plan.value().horizon_sec, 500.0);
    EXPECT_TRUE(plan.value().enabled());
}

TEST(ChaosPlanTest, DefaultPlanIsDisabled)
{
    const ChaosPlan plan;
    EXPECT_FALSE(plan.enabled());
    // mttr/slowdown knobs alone do not arm anything.
    ChaosPlan knobs;
    knobs.node_mttr_sec = 99;
    knobs.gray_slowdown = 16;
    EXPECT_FALSE(knobs.enabled());
}

TEST(ChaosPlanTest, DuplicateKeyIsAnError)
{
    auto dup = ChaosPlan::fromSpec("node_mtbf=20;node_mtbf=30");
    ASSERT_FALSE(dup.isOk());
    EXPECT_NE(dup.status().message().find("duplicate"),
              std::string::npos);
    EXPECT_NE(dup.status().message().find("node_mtbf"),
              std::string::npos);

    auto dup_seed = ChaosPlan::fromSpec("seed=1;seed=2");
    ASSERT_FALSE(dup_seed.isOk());
    EXPECT_NE(dup_seed.status().message().find("duplicate"),
              std::string::npos);
}

TEST(ChaosPlanTest, UnknownKeyErrorListsValidKeys)
{
    auto bad = ChaosPlan::fromSpec("bogus_knob=1");
    ASSERT_FALSE(bad.isOk());
    const std::string &msg = bad.status().message();
    EXPECT_NE(msg.find("bogus_knob"), std::string::npos);
    // The error enumerates the valid key set so typos self-diagnose.
    EXPECT_NE(msg.find("seed"), std::string::npos);
    EXPECT_NE(msg.find("node_mtbf"), std::string::npos);
    EXPECT_NE(msg.find("gray_slowdown"), std::string::npos);
}

TEST(ChaosPlanTest, RejectsBadValues)
{
    EXPECT_FALSE(ChaosPlan::fromSpec("node_mtbf=-1").isOk());
    EXPECT_FALSE(ChaosPlan::fromSpec("gray_slowdown=0.5").isOk());
    EXPECT_FALSE(ChaosPlan::fromSpec("inst_mtbf=abc").isOk());
    EXPECT_FALSE(ChaosPlan::fromSpec("node_mtbf").isOk());
    EXPECT_FALSE(ChaosPlan::fromSpec("=3").isOk());
    // The seed is a whole unsigned 64-bit integer: no sign, no
    // whitespace, no trailing bytes, no overflow.
    for (const char *spec :
         {"seed=zzz", "seed=-1", "seed=+3", "seed= 7", "seed=5junk",
          "seed=18446744073709551616"}) {
        auto rejected = ChaosPlan::fromSpec(spec);
        ASSERT_FALSE(rejected.isOk()) << spec;
        EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument)
            << spec;
    }
    // NaN fails every comparison, so the range checks must reject it
    // explicitly; an infinite duration or slowdown is as invalid.
    for (const char *spec : {"node_mtbf=nan", "gray_slowdown=nan",
                             "gray_slowdown=inf", "horizon=1e999"}) {
        auto rejected = ChaosPlan::fromSpec(spec);
        ASSERT_FALSE(rejected.isOk()) << spec;
        EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument)
            << spec;
    }
}

TEST(ChaosPlanTest, SpecRoundTrips)
{
    ChaosPlan plan;
    plan.seed = 1234;
    plan.inst_mtbf_sec = 6.5;
    plan.store_mtbf_sec = 90;
    plan.gray_slowdown = 3;
    auto back = ChaosPlan::fromSpec(plan.toSpec());
    ASSERT_TRUE(back.isOk()) << back.status().message();
    EXPECT_EQ(back.value().seed, plan.seed);
    EXPECT_DOUBLE_EQ(back.value().inst_mtbf_sec, plan.inst_mtbf_sec);
    EXPECT_DOUBLE_EQ(back.value().store_mtbf_sec, plan.store_mtbf_sec);
    EXPECT_DOUBLE_EQ(back.value().gray_slowdown, plan.gray_slowdown);
    EXPECT_DOUBLE_EQ(back.value().node_mtbf_sec, 0.0);
}

TEST(ChaosPlanTest, FromEnvReadsSpecAndSeedOverride)
{
    ::unsetenv("MEDUSA_CHAOS_PLAN");
    ::unsetenv("MEDUSA_CHAOS_SEED");
    auto none = ChaosPlan::fromEnv();
    ASSERT_TRUE(none.isOk());
    EXPECT_FALSE(none.value().has_value());

    ::setenv("MEDUSA_CHAOS_PLAN", "seed=5;inst_mtbf=8", 1);
    auto spec = ChaosPlan::fromEnv();
    ASSERT_TRUE(spec.isOk());
    ASSERT_TRUE(spec.value().has_value());
    EXPECT_EQ(spec.value()->seed, 5u);
    EXPECT_DOUBLE_EQ(spec.value()->inst_mtbf_sec, 8.0);

    ::setenv("MEDUSA_CHAOS_SEED", "42", 1);
    auto reseeded = ChaosPlan::fromEnv();
    ASSERT_TRUE(reseeded.isOk());
    ASSERT_TRUE(reseeded.value().has_value());
    EXPECT_DOUBLE_EQ(reseeded.value()->inst_mtbf_sec, 8.0);
    EXPECT_EQ(reseeded.value()->seed, 42u);

    // A seed override that is not a whole unsigned integer is an error
    // naming the variable, not seed 0 or a wrapped value.
    for (const char *seed : {"abc", "5junk", "-1", " 7"}) {
        ::setenv("MEDUSA_CHAOS_SEED", seed, 1);
        auto bad = ChaosPlan::fromEnv();
        ASSERT_FALSE(bad.isOk()) << seed;
        EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
        EXPECT_NE(bad.status().message().find("MEDUSA_CHAOS_SEED"),
                  std::string::npos);
    }
    ::setenv("MEDUSA_CHAOS_SEED", "0x10", 1);
    auto hex = ChaosPlan::fromEnv();
    ASSERT_TRUE(hex.isOk());
    EXPECT_EQ(hex.value()->seed, 16u);

    // The spec is the only plan syntax: a JSON object is a bad entry.
    for (const char *plan : {"garbage", "{\"node_mtbf_sec\": 33}"}) {
        ::setenv("MEDUSA_CHAOS_PLAN", plan, 1);
        EXPECT_FALSE(ChaosPlan::fromEnv().isOk()) << plan;
    }

    ::unsetenv("MEDUSA_CHAOS_PLAN");
    ::unsetenv("MEDUSA_CHAOS_SEED");
}

TEST(ChaosPlanDeathTest, EnvPlanAbortsOnAMalformedPlan)
{
    // A re-executed child starts with envChaosPlan() unbuilt.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            ::setenv("MEDUSA_CHAOS_PLAN", "garbage", 1);
            envChaosPlan();
        },
        "chaos spec");
    EXPECT_DEATH(
        {
            ::setenv("MEDUSA_CHAOS_PLAN", "inst_mtbf=8", 1);
            ::setenv("MEDUSA_CHAOS_SEED", "abc", 1);
            envChaosPlan();
        },
        "MEDUSA_CHAOS_SEED");
}

// ---- failure schedule ----------------------------------------------------

TEST(ChaosScheduleTest, DeterministicAndSorted)
{
    ChaosPlan plan;
    plan.seed = 11;
    plan.node_mtbf_sec = 25;
    plan.inst_mtbf_sec = 9;
    plan.store_mtbf_sec = 60;
    plan.gray_mtbf_sec = 45;
    const auto a = buildChaosSchedule(plan, 600.0);
    const auto b = buildChaosSchedule(plan, 600.0);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].start_sec, b[i].start_sec);
        EXPECT_EQ(a[i].end_sec, b[i].end_sec);
        EXPECT_EQ(a[i].draw, b[i].draw);
        if (i > 0) {
            EXPECT_LE(a[i - 1].start_sec, a[i].start_sec);
        }
        EXPECT_LT(a[i].start_sec, 600.0);
        if (a[i].kind == ChaosEvent::Kind::kInstanceCrash) {
            EXPECT_EQ(a[i].end_sec, a[i].start_sec);
        } else {
            // Failure windows have a strictly positive duration.
            EXPECT_GT(a[i].end_sec, a[i].start_sec);
        }
    }
}

/**
 * Each failure class draws from its own seeded stream, so enabling one
 * class never perturbs another's timeline — the property that makes
 * "same plan plus node crashes" a controlled experiment.
 */
TEST(ChaosScheduleTest, FailureClassStreamsAreIndependent)
{
    ChaosPlan inst_only;
    inst_only.seed = 21;
    inst_only.inst_mtbf_sec = 10;
    ChaosPlan both = inst_only;
    both.node_mtbf_sec = 30;

    const auto a = buildChaosSchedule(inst_only, 400.0);
    auto b = buildChaosSchedule(both, 400.0);
    b.erase(std::remove_if(b.begin(), b.end(),
                           [](const ChaosEvent &e) {
                               return e.kind !=
                                      ChaosEvent::Kind::kInstanceCrash;
                           }),
            b.end());
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].start_sec, b[i].start_sec);
        EXPECT_EQ(a[i].draw, b[i].draw);
    }
}

TEST(ChaosScheduleTest, DisabledPlanOrEmptyHorizonYieldsNothing)
{
    const ChaosPlan disabled;
    EXPECT_TRUE(buildChaosSchedule(disabled, 1000.0).empty());
    ChaosPlan armed;
    armed.inst_mtbf_sec = 5;
    EXPECT_TRUE(buildChaosSchedule(armed, 0.0).empty());
}

// ---- simulation under failure --------------------------------------------

TEST(ChaosSimTest, InstanceCrashesRequeueAndRequestsStillFinish)
{
    ChaosPlan plan;
    plan.seed = 7;
    // Crashes every ~10s against a ~2-4s service time: the cluster
    // loses work but keeps making progress. (At mtbf ~= the batched
    // service time the sim correctly collapses to zero completions —
    // every request dies with its instance before first token.)
    plan.inst_mtbf_sec = 10.0;
    plan.horizon_sec = 200.0;
    ClusterOptions opts;
    opts.num_gpus = 4;
    opts.idle_timeout_sec = 2.0;
    opts.chaos = &plan;
    const auto trace = makeTrace(400, 0.25);
    const TraceMetrics m =
        runCluster(opts, toyProfile(1.0), trace);
    EXPECT_GT(clusterCounter(m, "cluster.chaos.instance_crashes"), 0u);
    EXPECT_GT(clusterCounter(m, "cluster.chaos.requeued_requests"), 0u);
    EXPECT_GT(m.completed, 0u);
    expectConserved(m, trace.size());
}

TEST(ChaosSimTest, NodeCrashDropsResidencyAndRecovers)
{
    ChaosPlan plan;
    plan.seed = 3;
    plan.node_mtbf_sec = 10.0;
    plan.node_mttr_sec = 4.0;
    plan.horizon_sec = 150.0;
    ClusterOptions opts;
    opts.num_gpus = 8;
    opts.gpus_per_node = 2;
    opts.num_models = 2;
    opts.node_artifact_miss_sec = 0.5;
    opts.idle_timeout_sec = 1.0;
    opts.chaos = &plan;
    const auto trace = makeTrace(500, 0.2, /*num_models=*/2);
    const TraceMetrics m =
        runCluster(opts, toyProfile(1.0), trace);
    EXPECT_GT(clusterCounter(m, "cluster.chaos.node_crashes"), 0u);
    EXPECT_GT(clusterCounter(m, "cluster.chaos.node_recoveries"), 0u);
    EXPECT_GT(clusterCounter(m, "cluster.chaos.lost_residency"), 0u);
    expectConserved(m, trace.size());
}

TEST(ChaosSimTest, StoreOutageChargesWaitOnFetches)
{
    ChaosPlan plan;
    plan.seed = 5;
    plan.store_mtbf_sec = 6.0;
    plan.store_mttr_sec = 4.0;
    plan.horizon_sec = 150.0;
    ClusterOptions opts;
    opts.num_gpus = 4;
    opts.gpus_per_node = 2;
    opts.num_models = 2;
    // One artifact slot per node: alternating models evict each other,
    // so nearly every cold start fetches — plenty land inside outages.
    opts.node_artifact_slots = 1;
    opts.node_artifact_miss_sec = 0.5;
    opts.idle_timeout_sec = 0.5;
    opts.chaos = &plan;
    const auto trace = makeTrace(300, 0.5, /*num_models=*/2);
    const TraceMetrics m =
        runCluster(opts, toyProfile(1.0), trace);
    EXPECT_GT(clusterCounter(m, "cluster.chaos.store_outages"), 0u);
    EXPECT_GT(clusterGauge(m, "cluster.chaos.store_outage_delay_sec"),
              0.0);
    expectConserved(m, trace.size());
}

TEST(ChaosSimTest, GrayWindowsSlowFetches)
{
    ChaosPlan plan;
    plan.seed = 13;
    plan.gray_mtbf_sec = 4.0;
    plan.gray_mttr_sec = 6.0;
    plan.gray_slowdown = 10.0;
    plan.horizon_sec = 150.0;
    ClusterOptions opts;
    opts.num_gpus = 4;
    opts.gpus_per_node = 2;
    opts.num_models = 2;
    opts.node_artifact_slots = 1;
    opts.node_artifact_miss_sec = 0.5;
    opts.idle_timeout_sec = 0.5;
    opts.chaos = &plan;
    const auto trace = makeTrace(300, 0.5, /*num_models=*/2);
    const TraceMetrics m =
        runCluster(opts, toyProfile(1.0), trace);
    EXPECT_GT(clusterCounter(m, "cluster.chaos.gray_windows"), 0u);
    EXPECT_GT(clusterCounter(m, "cluster.chaos.gray_fetches"), 0u);
    expectConserved(m, trace.size());
}

TEST(ChaosSimTest, DegradeToVanillaDuringOutage)
{
    ChaosPlan plan;
    plan.seed = 5;
    plan.store_mtbf_sec = 6.0;
    plan.store_mttr_sec = 20.0; // long outages: waiting is hopeless
    plan.horizon_sec = 150.0;
    ClusterOptions opts;
    opts.num_gpus = 4;
    opts.gpus_per_node = 2;
    opts.num_models = 2;
    opts.node_artifact_slots = 1;
    opts.node_artifact_miss_sec = 0.5;
    opts.idle_timeout_sec = 0.5;
    opts.vanilla_cold_start_sec = 1.5;
    opts.chaos = &plan;
    opts.slo.degrade_to_vanilla = true;
    const auto trace = makeTrace(300, 0.5, /*num_models=*/2);
    const TraceMetrics m =
        runCluster(opts, toyProfile(1.0), trace);
    EXPECT_GT(clusterCounter(m, "cluster.slo.degraded_launches"), 0u);
    expectConserved(m, trace.size());
}

TEST(ChaosSimTest, RetryBudgetExhaustionFailsRequests)
{
    ChaosPlan plan;
    plan.seed = 17;
    plan.inst_mtbf_sec = 0.5; // crash storm
    plan.horizon_sec = 300.0;
    ClusterOptions opts;
    opts.num_gpus = 2;
    opts.idle_timeout_sec = 2.0;
    opts.chaos = &plan;
    opts.slo.max_retries = 0; // first crash is terminal
    opts.slo.shed_on_deadline = false;
    const auto trace = makeTrace(300, 0.5);
    const TraceMetrics m =
        runCluster(opts, toyProfile(1.0), trace);
    EXPECT_GT(clusterCounter(m, "cluster.slo.failed_requests"), 0u);
    EXPECT_EQ(clusterCounter(m, "cluster.slo.retries"), 0u);
    expectConserved(m, trace.size());
}

TEST(ChaosSimTest, BoundedRetriesAreCounted)
{
    ChaosPlan plan;
    plan.seed = 17;
    plan.inst_mtbf_sec = 1.0;
    plan.horizon_sec = 200.0;
    ClusterOptions opts;
    opts.num_gpus = 2;
    opts.chaos = &plan;
    opts.slo.max_retries = 5;
    const auto trace = makeTrace(300, 0.5);
    const TraceMetrics m =
        runCluster(opts, toyProfile(1.0), trace);
    EXPECT_GT(clusterCounter(m, "cluster.slo.retries"), 0u);
    EXPECT_GE(clusterCounter(m, "cluster.chaos.requeued_requests"),
              clusterCounter(m, "cluster.slo.retries") +
                  clusterCounter(m, "cluster.slo.failed_requests"));
    expectConserved(m, trace.size());
}

TEST(ChaosSimTest, AdmissionControlShedsDoomedWork)
{
    ClusterOptions opts;
    opts.num_gpus = 1;
    opts.max_seqs_per_instance = 1;
    opts.slo.default_ttft_sec = 0.5; // cold start alone blows it
    opts.slo.admission_control = true;
    const auto trace = makeTrace(100, 0.05);
    const TraceMetrics m =
        runCluster(opts, toyProfile(2.0), trace);
    EXPECT_GT(clusterCounter(m, "cluster.slo.shed_admission"), 0u);
    expectConserved(m, trace.size());
}

TEST(ChaosSimTest, DeadlineSheddingDrainsTheQueue)
{
    ClusterOptions opts;
    opts.num_gpus = 1;
    opts.max_seqs_per_instance = 1;
    opts.slo.default_ttft_sec = 1.0;
    opts.slo.shed_on_deadline = true;
    // A burst far beyond one GPU's capacity: queued requests expire.
    const auto trace = makeTrace(200, 0.01);
    const TraceMetrics m =
        runCluster(opts, toyProfile(1.0), trace);
    EXPECT_GT(clusterCounter(m, "cluster.slo.shed_deadline"), 0u);
    expectConserved(m, trace.size());
}

TEST(ChaosSimTest, DeadlineAccountingAndGoodput)
{
    ClusterOptions opts;
    opts.num_gpus = 4;
    opts.slo.default_ttft_sec = 60.0; // generous: everything meets it
    const auto trace = makeTrace(50, 0.5);
    const TraceMetrics m =
        runCluster(opts, toyProfile(1.0), trace);
    EXPECT_EQ(m.completed, trace.size());
    EXPECT_EQ(clusterCounter(m, "cluster.slo.deadline_met") +
                  clusterCounter(m, "cluster.slo.deadline_missed"),
              m.completed);
    EXPECT_GT(clusterCounter(m, "cluster.slo.deadline_met"), 0u);
    EXPECT_GT(clusterGauge(m, "cluster.slo.goodput_qps"), 0.0);
    expectConserved(m, trace.size());
}

/** Per-request deadlines from the trace override the policy default. */
TEST(ChaosSimTest, TraceDeadlinesOverridePolicyDefault)
{
    ClusterOptions opts;
    opts.num_gpus = 1;
    opts.max_seqs_per_instance = 1;
    opts.slo.default_ttft_sec = 600.0;
    opts.slo.shed_on_deadline = true;
    // Trace-level deadlines are tiny even though the default is huge.
    const auto trace = makeTrace(200, 0.01, 1, /*deadline=*/0.5);
    const TraceMetrics m =
        runCluster(opts, toyProfile(1.0), trace);
    EXPECT_GT(clusterCounter(m, "cluster.slo.shed_deadline"), 0u);
    expectConserved(m, trace.size());
}

/**
 * Two identical armed simulations on separate threads must agree
 * bit-for-bit. Doubles as the TSan pass over the crash-requeue path:
 * both threads share the const profile/trace/plan while exercising
 * instance crashes, requeues and sheds.
 */
TEST(ChaosSimTest, ConcurrentRunsAreBitIdentical)
{
    ChaosPlan plan;
    plan.seed = 29;
    plan.node_mtbf_sec = 15.0;
    plan.node_mttr_sec = 3.0;
    plan.inst_mtbf_sec = 4.0;
    plan.store_mtbf_sec = 20.0;
    plan.gray_mtbf_sec = 18.0;
    plan.horizon_sec = 150.0;
    ClusterOptions opts;
    opts.num_gpus = 8;
    opts.gpus_per_node = 2;
    opts.num_models = 2;
    opts.node_artifact_slots = 1;
    opts.node_artifact_miss_sec = 0.4;
    opts.idle_timeout_sec = 1.0;
    opts.chaos = &plan;
    opts.slo.default_ttft_sec = 20.0;
    opts.slo.admission_control = true;
    opts.slo.shed_on_deadline = true;
    const ServingProfile profile = toyProfile(1.0);
    const auto trace = makeTrace(600, 0.2, /*num_models=*/2);

    TraceMetrics a, b;
    std::thread ta(
        [&] { a = runCluster(opts, profile, trace); });
    std::thread tb(
        [&] { b = runCluster(opts, profile, trace); });
    ta.join();
    tb.join();

    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.metrics.toJson(), b.metrics.toJson());
    EXPECT_EQ(a.ttft_sec.samples(), b.ttft_sec.samples());
    EXPECT_EQ(a.gpu_seconds, b.gpu_seconds);
    EXPECT_EQ(a.makespan_sec, b.makespan_sec);
    expectConserved(a, trace.size());
    expectConserved(b, trace.size());
}

} // namespace
} // namespace medusa::serverless
