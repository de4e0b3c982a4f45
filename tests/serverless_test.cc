/**
 * @file
 * Tests of the serverless layer: serving-profile interpolation and
 * the cluster simulation (cold starts, autoscaling, idle reclaim, TTFT
 * accounting).
 */

#include <gtest/gtest.h>

#include "serverless/cluster.h"
#include "test_cluster.h"

namespace medusa::serverless {
namespace {

using test::clusterCounter;
using test::runCluster;
using test::toyProfile;

TEST(ProfileTest, InterpolatesAndExtrapolates)
{
    const ServingProfile p = toyProfile();
    EXPECT_DOUBLE_EQ(p.decodeStep(1), 0.01);
    EXPECT_DOUBLE_EQ(p.decodeStep(10), 0.10);
    EXPECT_NEAR(p.decodeStep(5), 0.05, 1e-9);
    EXPECT_NEAR(p.decodeStep(20), 0.20, 1e-9); // linear extrapolation
    EXPECT_DOUBLE_EQ(p.decodeStep(0), 0.01);   // clamped low
    EXPECT_NEAR(p.prefill(550), 0.55, 1e-9);
}

std::vector<workload::Request>
simpleTrace(int n, f64 gap, u32 prompt = 100, u32 output = 3)
{
    std::vector<workload::Request> trace;
    for (int i = 0; i < n; ++i) {
        workload::Request r;
        r.arrival_sec = i * gap;
        r.prompt_tokens = prompt;
        r.output_tokens = output;
        trace.push_back(r);
    }
    return trace;
}

TEST(ClusterTest, SingleRequestPaysColdStartPlusPrefill)
{
    ClusterOptions opts;
    const ServingProfile p = toyProfile(2.0);
    const auto metrics = runCluster(opts, p, simpleTrace(1, 1.0));
    EXPECT_EQ(metrics.completed, 1u);
    EXPECT_EQ(clusterCounter(metrics, "cluster.cold_starts"), 1u);
    // TTFT = cold start (2.0) + prefill(100 tokens) = 2.1.
    EXPECT_NEAR(metrics.ttft_sec.p50(), 2.1, 1e-6);
    // E2E adds (output-1) decode steps at bs=1.
    EXPECT_NEAR(metrics.e2e_sec.p50(), 2.1 + 2 * 0.01, 1e-6);
}

TEST(ClusterTest, WarmInstanceServesLaterRequestsQuickly)
{
    ClusterOptions opts;
    opts.idle_timeout_sec = 60.0; // keep the instance warm across gaps
    const ServingProfile p = toyProfile(2.0);
    // Second request arrives long after the first: instance is warm.
    auto trace = simpleTrace(2, 10.0);
    const auto metrics = runCluster(opts, p, trace);
    EXPECT_EQ(metrics.completed, 2u);
    EXPECT_EQ(clusterCounter(metrics, "cluster.cold_starts"), 1u);
    EXPECT_NEAR(metrics.ttft_sec.samples()[1], 0.1, 1e-6);
}

TEST(ClusterTest, IdleInstanceReclaimedThenColdStartsAgain)
{
    ClusterOptions opts;
    opts.idle_timeout_sec = 3.0;
    const ServingProfile p = toyProfile(1.0);
    // Gap of 20 s >> idle timeout: the second request cold-starts anew.
    const auto metrics = runCluster(opts, p, simpleTrace(2, 20.0));
    EXPECT_EQ(clusterCounter(metrics, "cluster.cold_starts"), 2u);
    EXPECT_NEAR(metrics.ttft_sec.samples()[1], 1.1, 1e-6);
}

TEST(ClusterTest, ScalesOutWhenInstanceFull)
{
    ClusterOptions opts;
    opts.max_seqs_per_instance = 4;
    opts.num_gpus = 4;
    const ServingProfile p = toyProfile(1.0);
    // 12 simultaneous requests need 3 instances.
    const auto metrics = runCluster(opts, p, simpleTrace(12, 0.0));
    EXPECT_EQ(metrics.completed, 12u);
    EXPECT_EQ(clusterCounter(metrics, "cluster.cold_starts"), 3u);
}

TEST(ClusterTest, GpuCountCapsScaleOut)
{
    ClusterOptions opts;
    opts.max_seqs_per_instance = 2;
    opts.num_gpus = 2;
    const ServingProfile p = toyProfile(1.0);
    const auto metrics = runCluster(opts, p, simpleTrace(50, 0.0));
    EXPECT_EQ(metrics.completed, 50u);
    // No more cold starts than GPUs.
    EXPECT_EQ(clusterCounter(metrics, "cluster.cold_starts"), 2u);
}

TEST(ClusterTest, FasterColdStartLowersTailTtft)
{
    ClusterOptions opts;
    opts.idle_timeout_sec = 2.0;
    // Requests spaced so each one finds a dead instance.
    const auto trace = simpleTrace(20, 10.0);
    const auto slow = runCluster(opts, toyProfile(3.0), trace);
    const auto fast = runCluster(opts, toyProfile(1.0), trace);
    EXPECT_GT(slow.ttft_sec.p99(), fast.ttft_sec.p99() + 1.5);
}

TEST(ClusterTest, SlowerDecodeRaisesE2eNotTtftWhenWarm)
{
    ClusterOptions opts;
    ServingProfile fast_decode = toyProfile(1.0);
    ServingProfile slow_decode = toyProfile(1.0);
    for (auto &v : slow_decode.decode_step_sec) {
        v *= 10;
    }
    const auto trace = simpleTrace(5, 5.0, 100, 20);
    const auto a = runCluster(opts, fast_decode, trace);
    const auto b = runCluster(opts, slow_decode, trace);
    EXPECT_NEAR(a.ttft_sec.samples()[2], b.ttft_sec.samples()[2], 1e-6);
    EXPECT_GT(b.e2e_sec.p50(), a.e2e_sec.p50());
}

TEST(ClusterTest, ThroughputAccountedOverMakespan)
{
    ClusterOptions opts;
    const ServingProfile p = toyProfile(0.5);
    const auto metrics = runCluster(opts, p, simpleTrace(100, 0.1));
    EXPECT_EQ(metrics.completed, 100u);
    EXPECT_GT(metrics.achieved_qps, 1.0);
    EXPECT_GT(metrics.makespan_sec, 9.0);
}

TEST(ClusterTest, HotSparesEliminateColdStarts)
{
    ClusterOptions opts;
    opts.hot_spares = 1;
    const ServingProfile p = toyProfile(2.0);
    const auto metrics = runCluster(opts, p, simpleTrace(3, 30.0));
    EXPECT_FALSE(metrics.metrics.has("cluster.cold_starts"));
    // Every request is served warm: TTFT = prefill only.
    EXPECT_NEAR(metrics.ttft_sec.p99(), 0.1, 1e-6);
}

TEST(ClusterTest, HotSparesBilledForWholeRun)
{
    const ServingProfile p = toyProfile(1.0);
    const auto trace = simpleTrace(2, 50.0);
    ClusterOptions on_demand;
    on_demand.idle_timeout_sec = 2.0;
    const auto lean = runCluster(on_demand, p, trace);
    ClusterOptions spared;
    spared.hot_spares = 2;
    const auto fat = runCluster(spared, p, trace);
    // Spares occupy GPUs for the whole makespan; on-demand instances
    // die between the widely-spaced requests.
    EXPECT_GT(fat.gpu_seconds, lean.gpu_seconds * 5);
    EXPECT_FALSE(fat.metrics.has("cluster.cold_starts"));
    EXPECT_EQ(clusterCounter(lean, "cluster.cold_starts"), 2u);
}

TEST(ClusterTest, DeferredCapturePenaltyPaidOncePerBucket)
{
    ServingProfile p = toyProfile(1.0);
    p.deferred_capture = true;
    p.capture_penalty_sec = {0.5, 0.5}; // both buckets
    ClusterOptions opts;
    opts.idle_timeout_sec = 100.0;
    // Two sequential single-seq requests on one warm instance: only
    // the first decode pays the bucket-1 capture penalty.
    auto trace = simpleTrace(2, 10.0, 100, 3);
    const auto metrics = runCluster(opts, p, trace);
    ASSERT_EQ(metrics.completed, 2u);
    const f64 e2e_first = metrics.e2e_sec.samples()[0];
    const f64 e2e_second = metrics.e2e_sec.samples()[1];
    // First: cold start 1.0 + prefill 0.1 + capture 0.5 + 2 decodes.
    EXPECT_NEAR(e2e_first, 1.0 + 0.1 + 0.5 + 2 * 0.01, 1e-6);
    // Second: warm instance, bucket already captured.
    EXPECT_NEAR(e2e_second, 0.1 + 2 * 0.01, 1e-6);
}

TEST(ClusterTest, EmptyTrace)
{
    ClusterOptions opts;
    const auto metrics = runCluster(opts, toyProfile(), {});
    EXPECT_EQ(metrics.completed, 0u);
    EXPECT_FALSE(metrics.metrics.has("cluster.cold_starts"));
}

} // namespace
} // namespace medusa::serverless
