/**
 * @file
 * Figure 11: p99 TTFT as a function of the achieved system throughput,
 * sweeping the offered request rate, for Llama2 7B and Qwen1.5 4B
 * across the four strategies. Paper anchor: at ~4.5 QPS on Llama2 7B,
 * Medusa's p99 TTFT is 43.0% / 29.9% / 27.0% lower than vLLM /
 * vLLM+ASYNC / w-o-CUDA-GRAPH; beyond the capacity knee, queueing
 * dominates every strategy.
 */

#include <cstdio>

#include "bench/bench_util.h"
#include "serverless/cluster.h"

using namespace medusa;

int
main()
{
    std::printf("=== Figure 11: p99 TTFT vs achieved throughput ===\n\n");

    const llm::Strategy strategies[] = {
        llm::Strategy::kVllm,
        llm::Strategy::kVllmAsync,
        llm::Strategy::kNoCudaGraph,
        llm::Strategy::kMedusa,
    };

    for (const char *name : {"Llama2-7B", "Qwen1.5-4B"}) {
        auto model = bench::unwrap(llm::findModel(name), "findModel");
        const auto m = bench::unwrap(bench::materializeCached(model),
                                     "materialize");

        std::vector<serverless::ServingProfile> profiles;
        for (llm::Strategy s : strategies) {
            serverless::ProfileOptions popts;
            popts.model = model;
            popts.strategy = s;
            popts.artifact = &m.artifact;
            profiles.push_back(bench::unwrap(
                serverless::buildServingProfile(popts), "profile"));
        }

        std::printf("--- %s ---\n", name);
        std::printf("%-16s", "offered RPS:");
        const f64 rates[] = {1, 2, 3, 4, 5, 6, 8, 10, 12};
        for (f64 r : rates) {
            std::printf(" %11.0f", r);
        }
        std::printf("\n");

        for (const auto &profile : profiles) {
            std::printf("%-16s", llm::strategyName(profile.strategy));
            for (f64 rps : rates) {
                // Aggregate TTFT samples over several trace seeds so
                // the tail is not dominated by one burst realization.
                PercentileTracker ttft;
                f64 qps_sum = 0;
                const int kSeeds = 5;
                for (int seed = 0; seed < kSeeds; ++seed) {
                    workload::TraceOptions topts;
                    topts.requests_per_sec = rps;
                    topts.duration_sec = 400;
                    topts.seed = 20250403 + static_cast<u64>(rps) * 97 +
                                 static_cast<u64>(seed);
                    const auto trace =
                        workload::generateShareGptTrace(topts);
                    serverless::ClusterOptions copts;
                    copts.profile = &profile;
                    auto metrics =
                        serverless::simulateCluster(copts, trace);
                    for (f64 v : metrics.ttft_sec.samples()) {
                        ttft.add(v);
                    }
                    qps_sum += metrics.achieved_qps;
                }
                std::printf(" %5.2fq/%5.2fs", qps_sum / kSeeds,
                            ttft.p99());
            }
            std::printf("\n");
        }
        std::printf("\n");
    }
    std::printf("each cell: achieved-QPS / p99-TTFT-seconds. paper: at "
                "~4.5 QPS (Llama2 7B) Medusa p99 is -43.0%% vs vLLM, "
                "-29.9%% vs ASYNC, -27.0%% vs w/o-graph\n");
    return 0;
}
