/**
 * @file
 * Cluster-scale scheduling study (DESIGN.md §15): replay a seeded
 * million-request synthetic trace (diurnal arrivals, heavy-tail
 * lengths, Zipf multi-model mix) over thousands of serving instances,
 * and report:
 *
 *  1. Engine throughput — events, wall seconds and events/sec of the
 *     zero-allocation event engine over the single-model trace.
 *  2. Scheduler policies — baseline autoscaler vs keep-alive warm pool
 *     vs artifact-affinity routing, each over the full trace: cold
 *     start P50/P99, cold-start count, GPU-seconds, and the policy
 *     counters (cold-pool hits, keep-alive GPU-seconds, node
 *     warm/fetch/eviction traffic).
 *
 * --json emits one machine-readable object (scripts/bench.sh captures
 * it as BENCH_sim.json; tools/trace_check --sim validates it).
 * --requests / --seed resize the study (check.sh runs a truncated
 * smoke); a --requests that is not a positive integer, or a --seed
 * that is not a non-negative one, is a usage error (exit 2).
 */

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "serverless/cluster.h"
#include "workload/synthetic.h"

using namespace medusa;

namespace {

/**
 * A hand-made Medusa-like serving profile: ~1.4 s loading (the §7.1
 * A100 ballpark), vLLM-shaped step latencies. Hand-made so the bench
 * needs no artifact materialization and starts instantly.
 */
serverless::ServingProfile
scaleProfile()
{
    serverless::ServingProfile p;
    p.model_name = "scale-sim";
    p.strategy = llm::Strategy::kMedusa;
    p.loading_sec = 1.4;
    p.cold_start_sec = 1.4;
    p.batch_sizes = {1, 4, 8, 16};
    p.decode_step_sec = {0.012, 0.016, 0.022, 0.035};
    p.prefill_tokens = {128, 512, 2048};
    p.prefill_sec = {0.045, 0.12, 0.42};
    return p;
}

/** The trace both studies draw from; truncation by max_requests. */
workload::SyntheticTraceOptions
traceOptions(u64 seed, u64 requests, u32 num_models)
{
    workload::SyntheticTraceOptions o;
    o.seed = seed;
    // ~10^4 rps for ~110 s reaches 10^6 requests; max_requests pins
    // the count exactly.
    o.requests_per_sec = 10000;
    o.duration_sec = 1e9;
    o.max_requests = requests;
    o.diurnal_period_sec = 60;
    o.diurnal_amplitude = 0.6;
    // Short-chat shape: enough decode steps to load instances without
    // blowing up the event count per request.
    o.mean_output_tokens = 64;
    o.max_output_tokens = 512;
    o.num_models = num_models;
    return o;
}

/** Cluster sizing shared by every run: thousands of live instances. */
serverless::ClusterOptions
clusterOptions()
{
    serverless::ClusterOptions o;
    o.num_gpus = 4096;
    // Small per-instance batch cap -> the load spreads over thousands
    // of instances (the scheduling regime this study is about).
    o.max_seqs_per_instance = 4;
    o.idle_timeout_sec = 5.0;
    return o;
}

struct RunStats
{
    serverless::TraceMetrics metrics;
    f64 wall_sec = 0;
    f64 events_per_sec = 0;
};

RunStats
timedRun(const serverless::ClusterOptions &opts,
         const serverless::ServingProfile &profile,
         const std::vector<workload::Request> &trace)
{
    RunStats r;
    serverless::ClusterOptions copts = opts;
    copts.profile = &profile;
    const auto t0 = std::chrono::steady_clock::now();
    r.metrics = serverless::simulateCluster(copts, trace);
    const auto t1 = std::chrono::steady_clock::now();
    r.wall_sec =
        std::chrono::duration<f64>(t1 - t0).count();
    r.events_per_sec =
        static_cast<f64>(r.metrics.sim_events) / r.wall_sec;
    return r;
}

struct PolicyRow
{
    const char *name = "";
    RunStats run;
};

/**
 * The decimal number after @p prefix; nullopt unless the rest of @p arg
 * is all digits and fits in a u64 (strtoull alone would accept "", a
 * sign, or trailing junk).
 */
std::optional<u64>
parseCount(const std::string &arg, std::size_t prefix)
{
    const char *text = arg.c_str() + prefix;
    if (*text < '0' || *text > '9') {
        return std::nullopt;
    }
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (*end != '\0' || errno != 0) {
        return std::nullopt;
    }
    return v;
}

unsigned long long
ull(u64 v)
{
    return static_cast<unsigned long long>(v);
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    u64 requests = 1000000;
    u64 seed = 20250808;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        bool ok = true;
        if (arg == "--json") {
            json = true;
        } else if (arg.rfind("--requests=", 0) == 0) {
            const std::optional<u64> n = parseCount(arg, 11);
            ok = n.has_value() && *n > 0;
            requests = n.value_or(0);
        } else if (arg.rfind("--seed=", 0) == 0) {
            const std::optional<u64> n = parseCount(arg, 7);
            ok = n.has_value();
            seed = n.value_or(0);
        } else {
            ok = false;
        }
        if (!ok) {
            std::fprintf(stderr,
                         "usage: %s [--json] [--requests=N] "
                         "[--seed=N]\n",
                         argv[0]);
            return 2;
        }
    }

    const serverless::ServingProfile profile = scaleProfile();

    // ---- 1. engine throughput over the single-model trace -----------
    const auto engine_trace = workload::generateSyntheticTrace(
        traceOptions(seed, requests, 1));
    const RunStats engine =
        timedRun(clusterOptions(), profile, engine_trace);

    // ---- 2. policy study over the full multi-model trace ------------
    const u32 kNumModels = 8;
    const auto policy_trace = workload::generateSyntheticTrace(
        traceOptions(seed, requests, kNumModels));

    std::vector<PolicyRow> rows;
    {
        serverless::ClusterOptions o = clusterOptions();
        o.policy = serverless::SchedulerPolicy::kBaseline;
        o.num_models = kNumModels;
        o.gpus_per_node = 8;
        o.node_artifact_slots = 2;
        o.node_artifact_miss_sec = 8.0; // remote checkpoint fetch
        rows.push_back({"baseline", timedRun(o, profile, policy_trace)});

        o.policy = serverless::SchedulerPolicy::kKeepAlive;
        o.keep_alive_instances = 256;
        o.keep_alive_idle_sec = 30.0;
        rows.push_back(
            {"keep_alive", timedRun(o, profile, policy_trace)});

        o.policy = serverless::SchedulerPolicy::kAffinity;
        o.keep_alive_instances = 0;
        o.keep_alive_idle_sec = -1.0;
        rows.push_back({"affinity", timedRun(o, profile, policy_trace)});
    }

    if (json) {
        std::printf("{\n");
        std::printf("  \"schema_version\": 1,\n");
        std::printf("  \"requests\": %llu,\n", ull(requests));
        std::printf("  \"seed\": %llu,\n", ull(seed));
        std::printf("  \"engine\": {\n");
        std::printf("    \"fast\": {\"events\": %llu, "
                    "\"wall_sec\": %.4f, \"events_per_sec\": %.0f}\n",
                    ull(engine.metrics.sim_events), engine.wall_sec,
                    engine.events_per_sec);
        std::printf("  },\n");
        std::printf("  \"policies\": [\n");
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const PolicyRow &r = rows[i];
            const serverless::TraceMetrics &m = r.run.metrics;
            const MetricsSnapshot &s = m.metrics;
            std::printf(
                "    {\"policy\": \"%s\", \"completed\": %llu, "
                "\"events\": %llu, \"wall_sec\": %.4f, "
                "\"events_per_sec\": %.0f, "
                "\"peak_live_instances\": %llu, "
                "\"cold_starts\": %llu, "
                "\"cold_start_p50_sec\": %.4f, "
                "\"cold_start_p99_sec\": %.4f, "
                "\"ttft_p50_sec\": %.4f, \"ttft_p99_sec\": %.4f, "
                "\"gpu_seconds\": %.1f, "
                "\"cold_pool_hits\": %llu, "
                "\"keep_alive_gpu_seconds\": %.1f, "
                "\"node_warm_launches\": %llu, "
                "\"node_artifact_fetches\": %llu, "
                "\"affinity_evictions\": %llu}%s\n",
                r.name, ull(m.completed), ull(m.sim_events),
                r.run.wall_sec, r.run.events_per_sec,
                ull(m.peak_live_instances),
                ull(s.counterValue("cluster.cold_starts")),
                m.launch_sec.p50(), m.launch_sec.p99(),
                m.ttft_sec.p50(), m.ttft_sec.p99(), m.gpu_seconds,
                ull(s.counterValue("cluster.cold_pool_hits")),
                s.gaugeValue("cluster.keep_alive_gpu_seconds"),
                ull(s.counterValue("cluster.node_warm_launches")),
                ull(s.counterValue("cluster.node_artifact_fetches")),
                ull(s.counterValue("cluster.affinity_evictions")),
                i + 1 < rows.size() ? "," : "");
        }
        std::printf("  ]\n}\n");
    } else {
        std::printf("=== cluster scale: %llu requests, %u models, "
                    "%u GPUs ===\n\n",
                    ull(requests), kNumModels,
                    clusterOptions().num_gpus);
        std::printf("--- engine throughput (single-model trace) ---\n");
        std::printf("%llu events in %.3f s  (%.0f ev/s)\n\n",
                    ull(engine.metrics.sim_events), engine.wall_sec,
                    engine.events_per_sec);
        std::printf("--- scheduler policies (full trace) ---\n");
        std::printf("%-10s %9s %8s %7s %10s %10s %10s %12s %9s\n",
                    "policy", "events", "wall(s)", "peak", "colds",
                    "p50 cold", "p99 cold", "gpu-sec", "p99 ttft");
        for (const PolicyRow &r : rows) {
            const serverless::TraceMetrics &m = r.run.metrics;
            std::printf("%-10s %9llu %8.3f %7llu %10llu %10.3f "
                        "%10.3f %12.0f %9.3f\n",
                        r.name, ull(m.sim_events), r.run.wall_sec,
                        ull(m.peak_live_instances),
                        ull(m.metrics.counterValue("cluster.cold_starts")),
                        m.launch_sec.p50(), m.launch_sec.p99(),
                        m.gpu_seconds, m.ttft_sec.p99());
        }
        std::printf("\npolicy counters:\n");
        for (const PolicyRow &r : rows) {
            const MetricsSnapshot &s = r.run.metrics.metrics;
            std::printf("  %-10s pool_hits=%llu keep_alive_gpu_sec=%.0f "
                        "node_warm=%llu node_fetch=%llu evict=%llu\n",
                        r.name, ull(s.counterValue("cluster.cold_pool_hits")),
                        s.gaugeValue("cluster.keep_alive_gpu_seconds"),
                        ull(s.counterValue("cluster.node_warm_launches")),
                        ull(s.counterValue("cluster.node_artifact_fetches")),
                        ull(s.counterValue("cluster.affinity_evictions")));
        }
    }
    return 0;
}
