/**
 * @file
 * Golden fixture for the cluster simulator (DESIGN.md §15): the exact
 * outputs simulateCluster() produces on the paper's fig10/§7.5 traces
 * and on every feature the simulator models — hot spares, deferred
 * capture, idle reclaim, fault injection with every fallback mode,
 * scheduler policies and an armed chaos/SLO plan —
 * pinned against tests/data/golden_cluster.txt. This is the committed
 * oracle for changes that must not move a single simulated float.
 * Plus: determinism at the million-request scale of the bench, and
 * serve-mode / empty-chaos-plan parity.
 *
 * Each row holds one cell:
 *   cell ttft_crc e2e_crc launch_crc metrics_crc chrome_crc
 *   instances_launched peak_live_instances sim_events
 * where ttft_crc, e2e_crc and launch_crc are the CRC-32 of the
 * TraceMetrics sample bytes (in recording order), metrics_crc the
 * CRC-32 of the run's MetricsRegistry JSON (gauges print at %.17g, so
 * it pins every mirrored float exactly), chrome_crc the CRC-32 of the
 * run's Chrome trace JSON, all in hex; the last three are decimal. On
 * a mismatch the test prints the row it computed; a row may only be
 * replaced when the change is meant to alter simulated behaviour, and
 * CHANGES.md must say why.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "common/crc32.h"
#include "common/fault.h"
#include "serve/scheduler.h"
#include "serverless/cluster.h"
#include "test_cluster.h"
#include "workload/synthetic.h"
#include "workload/trace.h"

namespace medusa::serverless {
namespace {

using test::clusterCounter;
using test::clusterGauge;
using test::toyProfile;

/** One simulator run with its own sinks. */
struct RunResult
{
    TraceMetrics metrics;
    std::string chrome_json;
    std::string metrics_json;
};

/**
 * Run @p trace with fresh sinks and a fresh fault stream from @p plan:
 * the stream is stateful in hit order, so every run must start from
 * the same state.
 */
RunResult
runSim(ClusterOptions opts, const ServingProfile &profile,
          const std::vector<workload::Request> &trace,
          const FaultPlan *plan = nullptr)
{
    TraceRecorder rec;
    MetricsRegistry reg;
    std::optional<FaultInjector> injector;
    if (plan != nullptr) {
        injector.emplace(*plan);
        opts.pipeline.fault = &*injector;
    }
    opts.pipeline.trace = &rec;
    opts.pipeline.metrics = &reg;
    opts.profile = &profile;
    RunResult r;
    r.metrics = simulateCluster(opts, trace);
    r.chrome_json = rec.toChromeJson();
    r.metrics_json = reg.toJson();
    return r;
}

/**
 * Bit-identity between two runs: exact == on every float (no
 * EXPECT_NEAR — results must match to the last ulp).
 */
void
expectBitIdentical(const RunResult &x, const RunResult &y)
{
    const TraceMetrics &a = x.metrics;
    const TraceMetrics &b = y.metrics;
    EXPECT_EQ(a.ttft_sec.samples(), b.ttft_sec.samples());
    EXPECT_EQ(a.e2e_sec.samples(), b.e2e_sec.samples());
    EXPECT_EQ(a.launch_sec.samples(), b.launch_sec.samples());
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.achieved_qps, b.achieved_qps);
    EXPECT_EQ(a.makespan_sec, b.makespan_sec);
    EXPECT_EQ(a.gpu_seconds, b.gpu_seconds);
    EXPECT_EQ(a.instances_launched, b.instances_launched);
    EXPECT_EQ(a.peak_live_instances, b.peak_live_instances);
    EXPECT_EQ(x.metrics_json, y.metrics_json);
    EXPECT_EQ(x.chrome_json, y.chrome_json);
}

struct GoldenRow
{
    u32 ttft_crc = 0;
    u32 e2e_crc = 0;
    u32 launch_crc = 0;
    u32 metrics_crc = 0;
    u32 chrome_crc = 0;
    u64 instances_launched = 0;
    u64 peak_live_instances = 0;
    u64 sim_events = 0;

    bool operator==(const GoldenRow &) const = default;
};

u32
samplesCrc(const PercentileTracker &t)
{
    return crc32(t.samples().data(), t.samples().size() * sizeof(f64));
}

GoldenRow
rowOf(const RunResult &r)
{
    GoldenRow row;
    row.ttft_crc = samplesCrc(r.metrics.ttft_sec);
    row.e2e_crc = samplesCrc(r.metrics.e2e_sec);
    row.launch_crc = samplesCrc(r.metrics.launch_sec);
    row.metrics_crc = crc32(r.metrics_json.data(), r.metrics_json.size());
    row.chrome_crc = crc32(r.chrome_json.data(), r.chrome_json.size());
    row.instances_launched = r.metrics.instances_launched;
    row.peak_live_instances = r.metrics.peak_live_instances;
    row.sim_events = r.metrics.sim_events;
    return row;
}

std::string
formatRow(const std::string &cell, const GoldenRow &r)
{
    std::ostringstream os;
    os << cell << std::hex;
    for (u32 v : {r.ttft_crc, r.e2e_crc, r.launch_crc, r.metrics_crc,
                  r.chrome_crc}) {
        os << " 0x" << v;
    }
    os << std::dec;
    for (u64 v :
         {r.instances_launched, r.peak_live_instances, r.sim_events}) {
        os << ' ' << v;
    }
    return os.str();
}

/** The committed row for @p cell, or nullopt if it has none. */
std::optional<GoldenRow>
committedRow(const std::string &cell)
{
    std::ifstream in(std::string(MEDUSA_TEST_DATA_DIR) +
                     "/golden_cluster.txt");
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') {
            continue;
        }
        std::istringstream is(line);
        std::string name;
        GoldenRow r;
        is >> name >> std::hex >> r.ttft_crc >> r.e2e_crc >>
            r.launch_crc >> r.metrics_crc >> r.chrome_crc >> std::dec >>
            r.instances_launched >> r.peak_live_instances >> r.sim_events;
        if (is && name == cell) {
            return r;
        }
    }
    return std::nullopt;
}

void
expectGolden(const std::string &cell, const RunResult &run)
{
    const GoldenRow got = rowOf(run);
    const std::optional<GoldenRow> want = committedRow(cell);
    ASSERT_TRUE(want.has_value())
        << "no fixture row; computed: " << formatRow(cell, got);
    EXPECT_EQ(*want, got) << "computed: " << formatRow(cell, got)
                          << "\ncommitted: " << formatRow(cell, *want);
}

/** Run one cell and check it against its committed row. */
RunResult
expectCellGolden(const std::string &cell, const ClusterOptions &opts,
                 const ServingProfile &profile,
                 const std::vector<workload::Request> &trace,
                 const FaultPlan *plan = nullptr)
{
    RunResult run = runSim(opts, profile, trace, plan);
    expectGolden(cell, run);
    return run;
}

/** The fig10 bench's trace family (§7.5 replay statistics). */
std::vector<workload::Request>
fig10Trace(f64 rps, u64 seed, f64 duration_sec = 120)
{
    workload::TraceOptions topts;
    topts.requests_per_sec = rps;
    topts.duration_sec = duration_sec;
    topts.seed = seed;
    return workload::generateShareGptTrace(topts);
}

/** A small multi-model synthetic trace for the policy cells. */
std::vector<workload::Request>
multiModelTrace()
{
    workload::SyntheticTraceOptions sopts;
    sopts.seed = 43;
    sopts.duration_sec = 60;
    sopts.requests_per_sec = 6;
    sopts.diurnal_period_sec = 30;
    sopts.mean_output_tokens = 64;
    sopts.max_output_tokens = 256;
    sopts.num_models = 4;
    return workload::generateSyntheticTrace(sopts);
}

/**
 * Cluster sizing shared by the policy cells: 2 nodes of 4 GPUs, one
 * artifact slot each, so 4 models contend for node residency.
 */
ClusterOptions
multiModelOptions()
{
    ClusterOptions opts;
    opts.num_gpus = 8;
    opts.gpus_per_node = 4;
    opts.num_models = 4;
    opts.node_artifact_slots = 1;
    opts.node_artifact_miss_sec = 0.8;
    opts.idle_timeout_sec = 1.0;
    return opts;
}

TEST(ClusterEquivTest, Fig10TracesBitIdentical)
{
    const ServingProfile p = toyProfile(2.0);
    for (const int rps : {2, 10}) {
        for (const u64 seed : {20250330ull, 20250331ull}) {
            expectCellGolden("fig10_rps" + std::to_string(rps) + "_" +
                                 std::to_string(seed),
                             ClusterOptions{}, p, fig10Trace(rps, seed));
        }
    }
}

TEST(ClusterEquivTest, TightIdleTimeoutBitIdentical)
{
    ClusterOptions opts;
    opts.idle_timeout_sec = 0.5; // heavy reclaim/relaunch churn
    opts.num_gpus = 2;
    expectCellGolden("tight_idle", opts, toyProfile(1.0),
                     fig10Trace(6.0, 20250401ull));
}

TEST(ClusterEquivTest, HotSparesBitIdentical)
{
    ClusterOptions opts;
    opts.hot_spares = 2;
    opts.idle_timeout_sec = 2.0;
    expectCellGolden("hot_spares", opts, toyProfile(1.5),
                     fig10Trace(4.0, 20250402ull));
}

TEST(ClusterEquivTest, DeferredCaptureBitIdentical)
{
    ServingProfile p = toyProfile(1.0);
    p.deferred_capture = true;
    p.capture_penalty_sec = {0.5, 0.5};
    ClusterOptions opts;
    opts.max_seqs_per_instance = 8; // varied decode batch sizes
    expectCellGolden("deferred_capture", opts, p,
                     fig10Trace(8.0, 20250403ull));
}

TEST(ClusterEquivTest, SmallBatchBudgetBitIdentical)
{
    ClusterOptions opts;
    opts.max_batched_tokens = 200; // force multi-step prefill queues
    opts.max_seqs_per_instance = 4;
    expectCellGolden("small_batch_budget", opts, toyProfile(1.0),
                     fig10Trace(8.0, 20250404ull));
}

TEST(ClusterEquivTest, FaultRetryThenVanillaBitIdentical)
{
    FaultPlan plan;
    plan.seed = 99;
    plan.rule(FaultPoint::kClusterRestore).probability = 0.4;
    ClusterOptions opts;
    opts.fallback.mode = core::FallbackMode::kRetryThenVanilla;
    opts.fallback.max_attempts = 3;
    opts.fallback.backoff_sec = 0.05;
    opts.vanilla_cold_start_sec = 4.0;
    opts.idle_timeout_sec = 1.0;
    expectCellGolden("retry_then_vanilla", opts, toyProfile(2.0),
                     fig10Trace(5.0, 20250405ull), &plan);
}

TEST(ClusterEquivTest, FaultFailModeBitIdentical)
{
    FaultPlan plan;
    plan.seed = 7;
    plan.rule(FaultPoint::kClusterRestore).probability = 0.5;
    ClusterOptions opts;
    opts.fallback.mode = core::FallbackMode::kFail;
    opts.num_gpus = 2;
    expectCellGolden("fail_mode", opts, toyProfile(1.0),
                     fig10Trace(4.0, 20250406ull), &plan);
}

TEST(ClusterEquivTest, SyntheticTraceBitIdentical)
{
    workload::SyntheticTraceOptions sopts;
    sopts.seed = 42;
    sopts.duration_sec = 60;
    sopts.requests_per_sec = 20;
    const auto trace = workload::generateSyntheticTrace(sopts);
    ASSERT_GT(trace.size(), 500u);
    ClusterOptions opts;
    opts.num_gpus = 8;
    expectCellGolden("synthetic", opts, toyProfile(1.5), trace);
}

TEST(ClusterEquivTest, KeepAlivePolicyBitIdentical)
{
    ClusterOptions opts = multiModelOptions();
    opts.policy = SchedulerPolicy::kKeepAlive;
    opts.keep_alive_instances = 2;
    opts.keep_alive_idle_sec = 3.0;
    const RunResult run = expectCellGolden("keep_alive", opts,
                                           toyProfile(1.0),
                                           multiModelTrace());
    // The cell exercises the policy, not just the baseline autoscaler.
    EXPECT_GT(clusterCounter(run.metrics, "cluster.cold_pool_hits"), 0u);
    EXPECT_GT(clusterGauge(run.metrics, "cluster.keep_alive_gpu_seconds"),
              0.0);
}

TEST(ClusterEquivTest, AffinityPolicyBitIdentical)
{
    ClusterOptions opts = multiModelOptions();
    opts.policy = SchedulerPolicy::kAffinity;
    const RunResult run = expectCellGolden("affinity", opts,
                                           toyProfile(1.0),
                                           multiModelTrace());
    EXPECT_GT(clusterCounter(run.metrics, "cluster.node_warm_launches"), 0u);
    EXPECT_GT(clusterCounter(run.metrics, "cluster.node_artifact_fetches"),
              0u);
    EXPECT_GT(clusterCounter(run.metrics, "cluster.affinity_evictions"), 0u);
}

/**
 * The scale contract: a million-request trace replays
 * deterministically — two runs from the same seed produce byte-equal
 * metric snapshots and identical latency sample streams.
 */
TEST(ClusterEquivTest, MillionRequestRunIsDeterministic)
{
    workload::SyntheticTraceOptions sopts;
    sopts.seed = 20250808;
    sopts.duration_sec = 400;
    sopts.requests_per_sec = 3000;
    sopts.max_requests = 1000000;
    // Short outputs keep the event count (and test wall time) bounded
    // while still exercising batching and reclaim.
    sopts.mean_output_tokens = 8;
    sopts.max_output_tokens = 64;
    const auto trace = workload::generateSyntheticTrace(sopts);
    ASSERT_EQ(trace.size(), 1000000u);

    const ServingProfile p = toyProfile(1.0);
    ClusterOptions opts;
    opts.num_gpus = 2048;
    opts.idle_timeout_sec = 2.0;
    opts.profile = &p;

    TraceMetrics a = simulateCluster(opts, trace);
    TraceMetrics b = simulateCluster(opts, trace);

    EXPECT_EQ(a.completed, 1000000u);
    EXPECT_EQ(a.ttft_sec.samples(), b.ttft_sec.samples());
    EXPECT_EQ(a.e2e_sec.samples(), b.e2e_sec.samples());
    EXPECT_EQ(a.launch_sec.samples(), b.launch_sec.samples());
    EXPECT_EQ(a.gpu_seconds, b.gpu_seconds);
    EXPECT_EQ(a.sim_events, b.sim_events);
    EXPECT_EQ(a.metrics.toJson(), b.metrics.toJson());
    // A million requests on thousands of instances is well past any
    // plausible closure-loop regime. (Events stay close to the request
    // count because continuous batching amortizes step events across
    // the whole batch.)
    EXPECT_GT(a.sim_events, 1000000u);
    EXPECT_GT(a.peak_live_instances, 100u);
}

/**
 * Serve-mode parity (DESIGN.md §17): the same trace driven through the
 * serve-style Scheduler API — explicit submit() + advanceTo() with
 * live RequestHooks observing every token — must stay bit-identical to
 * simulateCluster(). Hooks are pure observations; attaching them may
 * not perturb a single float, span or metric.
 */
TEST(ClusterEquivTest, HookedSchedulerBitIdenticalToSimulateCluster)
{
    const ServingProfile p = toyProfile(2.0);
    const auto trace = fig10Trace(6.0, 20250406ull);

    ClusterOptions opts;
    const RunResult sim = runSim(opts, p, trace);

    TraceRecorder rec;
    MetricsRegistry reg;
    ClusterOptions sopts;
    sopts.pipeline.trace = &rec;
    sopts.pipeline.metrics = &reg;
    sopts.profile = &p;

    u64 tokens = 0;
    u64 firsts = 0;
    u64 dones = 0;
    serve::RequestHooks hooks;
    hooks.on_first_token = [&](u32, f64) { ++firsts; };
    hooks.on_token = [&](u32, u32, f64) { ++tokens; };
    hooks.on_done = [&](u32, serve::RequestOutcome, f64) { ++dones; };

    const f64 horizon = trace.empty() ? 0 : trace.back().arrival_sec;
    serve::Scheduler sched(sopts, &hooks, horizon);
    std::size_t next = 0;
    for (;;) {
        if (next < trace.size() &&
            (sched.idle() ||
             trace[next].arrival_sec <= sched.peekTime())) {
            sched.advanceTo(trace[next].arrival_sec);
            sched.submit(trace[next]);
            ++next;
            continue;
        }
        if (sched.idle()) {
            break;
        }
        sched.step();
    }
    EXPECT_EQ(sched.submitted(), trace.size());
    EXPECT_EQ(sched.inFlight(), 0u);

    RunResult served;
    served.metrics = sched.finish();
    served.chrome_json = rec.toChromeJson();
    served.metrics_json = reg.toJson();
    expectBitIdentical(sim, served);

    // Hook-stream consistency: every request reached a terminal state,
    // every completion emitted a first token, and the token stream
    // carries at least one token per completion.
    EXPECT_EQ(dones, trace.size());
    EXPECT_EQ(firsts, served.metrics.completed);
    EXPECT_GE(tokens, served.metrics.completed);
}

// ---- chaos determinism suite (DESIGN.md §16) -----------------------------

/**
 * An empty (default-constructed) ChaosPlan and a default SloPolicy must
 * leave the simulator BYTE-IDENTICAL to today's fault-free run: same
 * TraceMetrics, same metric-name set, same span stream. This is the
 * contract that lets chaos ship inside the hot path.
 */
TEST(ClusterChaosTest, EmptyPlanIsByteIdenticalToFaultFree)
{
    const ServingProfile p = toyProfile(1.5);
    const auto trace = fig10Trace(6.0, 20250801ull);
    ClusterOptions plain;
    plain.idle_timeout_sec = 1.0;
    ClusterOptions armed = plain;
    const ChaosPlan empty; // all mtbf = 0: enabled() is false
    armed.chaos = &empty;
    const RunResult a = runSim(plain, p, trace);
    const RunResult b = runSim(armed, p, trace);
    expectBitIdentical(a, b);
    EXPECT_EQ(a.metrics.sim_events, b.metrics.sim_events);
    // No chaos/SLO names may leak into the fault-free snapshot.
    EXPECT_EQ(b.metrics_json.find("cluster.chaos."), std::string::npos);
    EXPECT_EQ(b.metrics_json.find("cluster.slo."), std::string::npos);
}

/**
 * Same (trace, plan, seed) ⇒ bit-identical everything, run after run,
 * and equal to the committed row.
 */
TEST(ClusterChaosTest, ArmedPlanIsDeterministic)
{
    const ServingProfile p = toyProfile(1.5);
    const auto trace = fig10Trace(8.0, 20250802ull);
    ChaosPlan plan;
    plan.seed = 77;
    plan.node_mtbf_sec = 20.0;
    plan.node_mttr_sec = 5.0;
    plan.inst_mtbf_sec = 10.0;
    plan.store_mtbf_sec = 30.0;
    plan.gray_mtbf_sec = 25.0;
    ClusterOptions opts;
    opts.num_gpus = 8;
    opts.gpus_per_node = 2;
    opts.node_artifact_miss_sec = 0.4;
    opts.chaos = &plan;
    opts.slo.default_ttft_sec = 15.0;
    opts.slo.admission_control = true;
    opts.slo.shed_on_deadline = true;
    const RunResult a = expectCellGolden("chaos_slo_armed", opts, p, trace);
    const RunResult b = runSim(opts, p, trace);
    EXPECT_EQ(a.metrics_json, b.metrics_json);
    EXPECT_EQ(a.chrome_json, b.chrome_json);
    EXPECT_EQ(a.metrics.ttft_sec.samples(), b.metrics.ttft_sec.samples());
    EXPECT_EQ(a.metrics.e2e_sec.samples(), b.metrics.e2e_sec.samples());
    EXPECT_EQ(a.metrics.gpu_seconds, b.metrics.gpu_seconds);
    // The plan actually fired (otherwise this suite proves nothing) and
    // every request reached exactly one terminal state.
    const TraceMetrics &m = a.metrics;
    EXPECT_GT(clusterCounter(m, "cluster.chaos.instance_crashes") +
                  clusterCounter(m, "cluster.chaos.node_crashes"),
              0u);
    EXPECT_EQ(m.completed + clusterCounter(m, "cluster.slo.shed_admission") +
                  clusterCounter(m, "cluster.slo.shed_deadline") +
                  clusterCounter(m, "cluster.slo.failed_requests"),
              trace.size());
}

/** A different chaos seed must perturb the failure schedule. */
TEST(ClusterChaosTest, SeedChangesSchedule)
{
    ChaosPlan plan;
    plan.node_mtbf_sec = 15.0;
    plan.inst_mtbf_sec = 7.0;
    const auto a = buildChaosSchedule(plan, 300.0);
    plan.seed ^= 0x1234;
    const auto b = buildChaosSchedule(plan, 300.0);
    ASSERT_FALSE(a.empty());
    ASSERT_FALSE(b.empty());
    bool differs = a.size() != b.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i) {
        differs = a[i].start_sec != b[i].start_sec;
    }
    EXPECT_TRUE(differs);
}

/**
 * Policy runs must not disturb baseline metric names or results: the
 * baseline snapshot carries no policy counters, and its row was
 * generated by the engine that predates the policy study.
 */
TEST(ClusterEquivTest, BaselinePolicyMatchesLegacyMetricNames)
{
    const RunResult run =
        expectCellGolden("baseline_rps3", ClusterOptions{},
                         toyProfile(1.0), fig10Trace(3.0, 20250408ull));
    EXPECT_FALSE(run.metrics.metrics.has("cluster.cold_pool_hits"));
    EXPECT_FALSE(run.metrics.metrics.has("cluster.affinity_evictions"));
    EXPECT_EQ(run.metrics_json.find("cluster.cold_pool_hits"),
              std::string::npos);
    EXPECT_EQ(run.metrics_json.find("cluster.node_"), std::string::npos);
}

} // namespace
} // namespace medusa::serverless
