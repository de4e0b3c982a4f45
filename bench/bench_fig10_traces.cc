/**
 * @file
 * Figure 10: 99th-percentile TTFT under real-world-like traces
 * (ShareGPT statistics, Poisson arrivals) at RPS 2 and RPS 10, for
 * Llama2 7B and Qwen1.5 4B, across the four strategies. Paper anchors:
 * Medusa reduces p99 TTFT by 50.5% (Llama2 7B, RPS 2) and 53.0%
 * (RPS 10) vs vLLM, and also beats w/o-CUDA-GRAPH both because its
 * cold start is shorter and because eager serving is slower.
 */

#include <cstdio>

#include "bench/bench_util.h"
#include "serverless/cluster.h"

using namespace medusa;

int
main()
{
    std::printf("=== Figure 10: p99 TTFT under ShareGPT-like traces "
                "===\n\n");

    const llm::Strategy strategies[] = {
        llm::Strategy::kVllm,
        llm::Strategy::kVllmAsync,
        llm::Strategy::kNoCudaGraph,
        llm::Strategy::kMedusa,
    };

    for (const char *name : {"Llama2-7B", "Qwen1.5-4B"}) {
        auto model = bench::unwrap(llm::findModel(name), "findModel");
        const auto m = bench::unwrap(
            core::materialize(bench::offlineOptions(model)), "materialize");

        // Build the per-strategy serving profiles once.
        std::vector<serverless::ServingProfile> profiles;
        for (llm::Strategy s : strategies) {
            serverless::ProfileOptions popts;
            popts.model = model;
            popts.strategy = s;
            popts.artifact = &m.artifact;
            profiles.push_back(bench::unwrap(
                serverless::buildServingProfile(popts), "profile"));
        }

        for (f64 rps : {2.0, 10.0}) {
            // Several trace seeds; TTFT samples are aggregated so the
            // tail reflects many burst/cold-start realizations.
            const int kSeeds = 5;
            std::vector<std::vector<workload::Request>> traces;
            std::size_t total_requests = 0;
            for (int seed = 0; seed < kSeeds; ++seed) {
                workload::TraceOptions topts;
                topts.requests_per_sec = rps;
                topts.duration_sec = 600;
                topts.seed = 20250330 + static_cast<u64>(seed);
                traces.push_back(workload::generateShareGptTrace(topts));
                total_requests += traces.back().size();
            }

            std::printf("--- %s, RPS %.0f (%zu requests over %d seeds, "
                        "mean prompt %.0f, mean output %.0f) ---\n",
                        name, rps, total_requests, kSeeds,
                        workload::meanPromptLength(traces[0]),
                        workload::meanOutputLength(traces[0]));
            std::printf("%-16s %10s %10s %10s %8s %6s\n", "strategy",
                        "p50 (s)", "p99 (s)", "mean (s)", "qps",
                        "colds");

            f64 vllm_p99 = 0;
            for (const auto &profile : profiles) {
                PercentileTracker ttft;
                f64 qps_sum = 0;
                u64 colds = 0;
                for (const auto &trace : traces) {
                    serverless::ClusterOptions copts;
                    copts.profile = &profile;
                    auto metrics =
                        serverless::simulateCluster(copts, trace);
                    for (f64 v : metrics.ttft_sec.samples()) {
                        ttft.add(v);
                    }
                    qps_sum += metrics.achieved_qps;
                    colds += metrics.cold_starts;
                }
                if (profile.strategy == llm::Strategy::kVllm) {
                    vllm_p99 = ttft.p99();
                }
                std::printf("%-16s %10.3f %10.3f %10.3f %8.2f %6llu",
                            llm::strategyName(profile.strategy),
                            ttft.p50(), ttft.p99(), ttft.mean(),
                            qps_sum / kSeeds,
                            static_cast<unsigned long long>(colds));
                if (profile.strategy == llm::Strategy::kMedusa &&
                    vllm_p99 > 0) {
                    std::printf("   (p99 -%.1f%% vs vLLM)",
                                100.0 * (1.0 - ttft.p99() / vllm_p99));
                }
                std::printf("\n");
            }
            std::printf("\n");
        }
    }
    std::printf("paper: Medusa p99 TTFT -50.5%% (Llama2 7B, RPS 2) and "
                "-53.0%% (RPS 10) vs vLLM\n");
    return 0;
}
