/**
 * @file
 * Chaos / SLO study (DESIGN.md §16): replay a seeded 10^5-request
 * synthetic trace (diurnal arrivals, Zipf multi-model mix, per-request
 * TTFT deadlines) through the cluster simulator under a SchedulerPolicy x
 * chaos-intensity matrix, and report per cell: SLO attainment and
 * goodput, shed / retry / requeue counts, crash and outage activity,
 * and the usual latency and cost columns.
 *
 * Three invariants are hard-checked on every run (non-zero exit on
 * violation, whatever the output mode):
 *
 *  1. Request conservation — completed + shed + failed == trace size
 *     in EVERY matrix cell (the terminal-state lattice).
 *  2. Determinism — the heaviest cell replayed twice produces
 *     bit-identical counters and samples.
 *  3. Identity — a disabled ChaosPlan leaves the simulation
 *     bit-identical to a run with no plan at all.
 *
 * --json emits one machine-readable object (scripts/bench.sh captures
 * it as BENCH_chaos.json; tools/trace_check --sim validates it).
 * --requests / --seed resize the study (check.sh runs a truncated
 * smoke).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "serverless/chaos.h"
#include "serverless/cluster.h"
#include "workload/synthetic.h"

using namespace medusa;

namespace {

/** The scale bench's hand-made Medusa-like profile (§7.1 ballpark). */
serverless::ServingProfile
chaosProfile()
{
    serverless::ServingProfile p;
    p.model_name = "chaos-sim";
    p.strategy = llm::Strategy::kMedusa;
    p.loading_sec = 1.4;
    p.cold_start_sec = 1.4;
    p.batch_sizes = {1, 4, 8, 16};
    p.decode_step_sec = {0.012, 0.016, 0.022, 0.035};
    p.prefill_tokens = {128, 512, 2048};
    p.prefill_sec = {0.045, 0.12, 0.42};
    return p;
}

/**
 * The study trace: lower rps than the scale bench so the default
 * 10^5 requests span ~50 s of simulated time — enough room for mtbf
 * schedules to fire repeatedly. Every request carries a TTFT deadline.
 */
workload::SyntheticTraceOptions
traceOptions(u64 seed, u64 requests)
{
    workload::SyntheticTraceOptions o;
    o.seed = seed;
    o.requests_per_sec = 2000;
    o.duration_sec = 1e9;
    o.max_requests = requests;
    o.diurnal_period_sec = 60;
    o.diurnal_amplitude = 0.6;
    o.mean_output_tokens = 64;
    o.max_output_tokens = 512;
    o.num_models = 8;
    o.slo_ttft_sec = 15.0;
    return o;
}

/** Cluster sizing shared by every cell (the scale bench's regime). */
serverless::ClusterOptions
clusterOptions()
{
    serverless::ClusterOptions o;
    o.num_gpus = 4096;
    o.max_seqs_per_instance = 4;
    o.idle_timeout_sec = 5.0;
    o.num_models = 8;
    o.gpus_per_node = 8;
    o.node_artifact_slots = 2;
    o.node_artifact_miss_sec = 8.0; // remote checkpoint fetch
    o.vanilla_cold_start_sec = 10.0;
    return o;
}

/** Deadline-aware scheduling armed identically in every cell. */
serverless::SloPolicy
sloPolicy()
{
    serverless::SloPolicy s;
    s.default_ttft_sec = 15.0;
    s.admission_control = true;
    s.shed_on_deadline = true;
    s.max_retries = 2;
    s.retry_backoff_sec = 0.05;
    s.degrade_to_vanilla = true;
    return s;
}

struct Intensity
{
    const char *name = "";
    serverless::ChaosPlan plan;
};

/** none / light / moderate / heavy — mtbf halves at each step. */
std::vector<Intensity>
intensities(u64 seed)
{
    std::vector<Intensity> out;
    out.push_back({"none", {}});
    serverless::ChaosPlan light;
    light.seed = seed;
    light.node_mtbf_sec = 40.0;
    light.node_mttr_sec = 5.0;
    light.inst_mtbf_sec = 10.0;
    light.store_mtbf_sec = 60.0;
    light.store_mttr_sec = 3.0;
    light.gray_mtbf_sec = 45.0;
    light.gray_mttr_sec = 8.0;
    light.gray_slowdown = 4.0;
    out.push_back({"light", light});
    serverless::ChaosPlan moderate = light;
    moderate.node_mtbf_sec /= 2;
    moderate.inst_mtbf_sec /= 2;
    moderate.store_mtbf_sec /= 2;
    moderate.gray_mtbf_sec /= 2;
    out.push_back({"moderate", moderate});
    serverless::ChaosPlan heavy = moderate;
    heavy.node_mtbf_sec /= 2;
    heavy.inst_mtbf_sec /= 2;
    heavy.store_mtbf_sec /= 2;
    heavy.gray_mtbf_sec /= 2;
    out.push_back({"heavy", heavy});
    return out;
}

struct Cell
{
    const char *policy = "";
    const char *intensity = "";
    serverless::TraceMetrics m;
    f64 wall_sec = 0;
};

serverless::TraceMetrics
timedRun(const serverless::ClusterOptions &opts,
         const serverless::ServingProfile &profile,
         const std::vector<workload::Request> &trace, f64 *wall_sec)
{
    serverless::ClusterOptions copts = opts;
    copts.profile = &profile;
    const auto t0 = std::chrono::steady_clock::now();
    auto m = serverless::simulateCluster(copts, trace);
    const auto t1 = std::chrono::steady_clock::now();
    *wall_sec = std::chrono::duration<f64>(t1 - t0).count();
    return m;
}

unsigned long long
ull(u64 v)
{
    return static_cast<unsigned long long>(v);
}

f64
attainment(const serverless::TraceMetrics &m)
{
    return m.completed > 0
               ? static_cast<f64>(m.metrics.counterValue(
                     "cluster.slo.deadline_met")) /
                     static_cast<f64>(m.completed)
               : 0.0;
}

/** Requests shed at admission or at their deadline. */
u64
shed(const MetricsSnapshot &s)
{
    return s.counterValue("cluster.slo.shed_admission") +
           s.counterValue("cluster.slo.shed_deadline");
}

bool
conserved(const serverless::TraceMetrics &m, u64 trace_size)
{
    return m.completed + shed(m.metrics) +
               m.metrics.counterValue("cluster.slo.failed_requests") ==
           trace_size;
}

/** Every counter and gauge, the event count and the TTFT samples. */
bool
sameCounters(const serverless::TraceMetrics &a,
             const serverless::TraceMetrics &b)
{
    return a.metrics.toJson() == b.metrics.toJson() &&
           a.sim_events == b.sim_events &&
           a.ttft_sec.samples() == b.ttft_sec.samples();
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    u64 requests = 100000;
    u64 seed = 20250808;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg.rfind("--requests=", 0) == 0) {
            requests = std::strtoull(arg.c_str() + 11, nullptr, 10);
        } else if (arg.rfind("--seed=", 0) == 0) {
            seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
        } else {
            std::fprintf(stderr,
                         "usage: %s [--json] [--requests=N] "
                         "[--seed=N]\n",
                         argv[0]);
            return 2;
        }
    }

    const serverless::ServingProfile profile = chaosProfile();
    const auto trace =
        workload::generateSyntheticTrace(traceOptions(seed, requests));

    // ---- invariant 3: disabled plan == no plan, bit for bit --------
    const serverless::ChaosPlan disabled;
    {
        serverless::ClusterOptions plain = clusterOptions();
        f64 w;
        const auto a = timedRun(plain, profile, trace, &w);
        serverless::ClusterOptions armed = plain;
        armed.chaos = &disabled;
        const auto b = timedRun(armed, profile, trace, &w);
        if (!sameCounters(a, b)) {
            std::fprintf(
                stderr,
                "FAIL: disabled ChaosPlan perturbed the simulation\n");
            return 1;
        }
    }

    // ---- the policy x intensity matrix ------------------------------
    const char *policy_names[] = {"baseline", "keep_alive", "affinity"};
    const serverless::SchedulerPolicy policies[] = {
        serverless::SchedulerPolicy::kBaseline,
        serverless::SchedulerPolicy::kKeepAlive,
        serverless::SchedulerPolicy::kAffinity,
    };
    const auto levels = intensities(seed);

    std::vector<Cell> cells;
    for (std::size_t pi = 0; pi < 3; ++pi) {
        for (const Intensity &level : levels) {
            serverless::ClusterOptions o = clusterOptions();
            o.policy = policies[pi];
            if (o.policy == serverless::SchedulerPolicy::kKeepAlive) {
                o.keep_alive_instances = 256;
                o.keep_alive_idle_sec = 30.0;
            }
            o.slo = sloPolicy();
            if (level.plan.enabled()) {
                o.chaos = &level.plan;
            }
            Cell c;
            c.policy = policy_names[pi];
            c.intensity = level.name;
            c.m = timedRun(o, profile, trace, &c.wall_sec);
            // ---- invariant 1: conservation in EVERY cell ----------
            if (!conserved(c.m, trace.size())) {
                std::fprintf(stderr,
                             "FAIL: request conservation violated in "
                             "cell %s/%s\n",
                             c.policy, c.intensity);
                return 1;
            }
            cells.push_back(std::move(c));
        }
    }

    // ---- invariant 2: heaviest cell is deterministic ----------------
    {
        serverless::ClusterOptions o = clusterOptions();
        o.policy = serverless::SchedulerPolicy::kAffinity;
        o.slo = sloPolicy();
        o.chaos = &levels.back().plan;
        f64 w;
        const auto rerun = timedRun(o, profile, trace, &w);
        if (!sameCounters(cells.back().m, rerun)) {
            std::fprintf(stderr,
                         "FAIL: heaviest cell not deterministic "
                         "across reruns\n");
            return 1;
        }
    }

    if (json) {
        std::printf("{\n");
        std::printf("  \"schema_version\": 1,\n");
        std::printf("  \"requests\": %llu,\n", ull(requests));
        std::printf("  \"seed\": %llu,\n", ull(seed));
        std::printf("  \"empty_plan_bit_identical\": true,\n");
        std::printf("  \"rerun_deterministic\": true,\n");
        std::printf("  \"cells\": [\n");
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Cell &c = cells[i];
            const serverless::TraceMetrics &m = c.m;
            const MetricsSnapshot &s = m.metrics;
            std::printf(
                "    {\"policy\": \"%s\", \"intensity\": \"%s\", "
                "\"completed\": %llu, "
                "\"shed_admission\": %llu, \"shed_deadline\": %llu, "
                "\"failed_requests\": %llu, "
                "\"requeued_requests\": %llu, \"slo_retries\": %llu, "
                "\"instance_crashes\": %llu, \"node_crashes\": %llu, "
                "\"node_recoveries\": %llu, \"lost_residency\": %llu, "
                "\"store_outages\": %llu, \"gray_windows\": %llu, "
                "\"degraded_launches\": %llu, "
                "\"deadline_met\": %llu, \"deadline_missed\": %llu, "
                "\"slo_attainment\": %.4f, \"goodput_qps\": %.1f, "
                "\"ttft_p50_sec\": %.4f, \"ttft_p99_sec\": %.4f, "
                "\"gpu_seconds\": %.1f, \"wall_sec\": %.4f}%s\n",
                c.policy, c.intensity, ull(m.completed),
                ull(s.counterValue("cluster.slo.shed_admission")),
                ull(s.counterValue("cluster.slo.shed_deadline")),
                ull(s.counterValue("cluster.slo.failed_requests")),
                ull(s.counterValue("cluster.chaos.requeued_requests")),
                ull(s.counterValue("cluster.slo.retries")),
                ull(s.counterValue("cluster.chaos.instance_crashes")),
                ull(s.counterValue("cluster.chaos.node_crashes")),
                ull(s.counterValue("cluster.chaos.node_recoveries")),
                ull(s.counterValue("cluster.chaos.lost_residency")),
                ull(s.counterValue("cluster.chaos.store_outages")),
                ull(s.counterValue("cluster.chaos.gray_windows")),
                ull(s.counterValue("cluster.slo.degraded_launches")),
                ull(s.counterValue("cluster.slo.deadline_met")),
                ull(s.counterValue("cluster.slo.deadline_missed")),
                attainment(m), s.gaugeValue("cluster.slo.goodput_qps"),
                m.ttft_sec.p50(), m.ttft_sec.p99(), m.gpu_seconds,
                c.wall_sec,
                i + 1 < cells.size() ? "," : "");
        }
        std::printf("  ]\n}\n");
    } else {
        std::printf("=== chaos / SLO study: %llu requests, 8 models, "
                    "%u GPUs ===\n\n",
                    ull(requests), clusterOptions().num_gpus);
        std::printf("invariants: empty-plan identity OK, per-cell "
                    "conservation OK, rerun determinism OK\n\n");
        std::printf("%-10s %-9s %9s %7s %7s %7s %8s %8s %7s %9s\n",
                    "policy", "chaos", "done", "shed", "fail",
                    "requeue", "crashes", "attain", "goodput",
                    "p99 ttft");
        for (const Cell &c : cells) {
            const serverless::TraceMetrics &m = c.m;
            const MetricsSnapshot &s = m.metrics;
            std::printf(
                "%-10s %-9s %9llu %7llu %7llu %7llu %8llu %7.1f%% "
                "%7.0f %9.3f\n",
                c.policy, c.intensity, ull(m.completed), ull(shed(s)),
                ull(s.counterValue("cluster.slo.failed_requests")),
                ull(s.counterValue("cluster.chaos.requeued_requests")),
                ull(s.counterValue("cluster.chaos.instance_crashes") +
                    s.counterValue("cluster.chaos.node_crashes")),
                100.0 * attainment(m),
                s.gaugeValue("cluster.slo.goodput_qps"),
                m.ttft_sec.p99());
        }
    }
    return 0;
}
