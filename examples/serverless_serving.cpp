/**
 * @file
 * A serverless serving scenario: a bursty ShareGPT-like request stream
 * hits a 4-GPU cluster; instances cold-start on demand and are
 * reclaimed when idle. Compares the four strategies of the paper's §7
 * and prints the TTFT distribution each one delivers.
 *
 * Usage:
 *   ./build/examples/serverless_serving [model-name] [rps] [seconds]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "medusa/offline.h"
#include "serverless/cluster.h"

using namespace medusa;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "Qwen1.5-1.8B";
    const f64 rps = argc > 2 ? std::atof(argv[2]) : 4.0;
    const f64 duration = argc > 3 ? std::atof(argv[3]) : 600.0;

    auto model = llm::findModel(name);
    if (!model.isOk()) {
        std::fprintf(stderr, "unknown model %s\n", name.c_str());
        return 1;
    }

    std::printf("materializing %s for the Medusa strategy ...\n",
                name.c_str());
    core::OfflineOptions oopts;
    oopts.model = *model;
    oopts.pipeline.validate = false;
    auto offline = core::materialize(oopts);
    if (!offline.isOk()) {
        std::fprintf(stderr, "offline phase failed: %s\n",
                     offline.status().toString().c_str());
        return 1;
    }

    workload::TraceOptions topts;
    topts.requests_per_sec = rps;
    topts.duration_sec = duration;
    topts.seed = 42;
    const auto trace = workload::generateShareGptTrace(topts);
    std::printf("trace: %zu requests over %.0f s (mean prompt %.0f, "
                "mean output %.0f tokens), bursty arrivals\n\n",
                trace.size(), duration,
                workload::meanPromptLength(trace),
                workload::meanOutputLength(trace));

    std::printf("%-16s %9s %9s %9s %9s %7s\n", "strategy", "load(s)",
                "p50(s)", "p99(s)", "mean(s)", "colds");
    for (llm::Strategy strategy :
         {llm::Strategy::kVllm, llm::Strategy::kVllmAsync,
          llm::Strategy::kNoCudaGraph, llm::Strategy::kMedusa}) {
        serverless::ProfileOptions popts;
        popts.model = *model;
        popts.strategy = strategy;
        popts.artifact = &offline->artifact;
        auto profile = serverless::buildServingProfile(popts);
        if (!profile.isOk()) {
            std::fprintf(stderr, "profile failed: %s\n",
                         profile.status().toString().c_str());
            return 1;
        }
        serverless::ClusterOptions copts;
        copts.profile = &*profile;
        const auto metrics = serverless::simulateCluster(copts, trace);
        std::printf("%-16s %9.2f %9.3f %9.3f %9.3f %7llu\n",
                    llm::strategyName(strategy), profile->loading_sec,
                    metrics.ttft_sec.p50(), metrics.ttft_sec.p99(),
                    metrics.ttft_sec.mean(),
                    static_cast<unsigned long long>(
                        metrics.metrics.counterValue("cluster.cold_starts")));
    }
    std::printf("\nTTFT = time to first token, including queueing and "
                "any cold start the request waited on.\n");
    return 0;
}
