/**
 * @file
 * Figure 9: the overhead of Medusa's offline phase (capturing stage +
 * analysis stage) for all ten models. Paper anchors: 39.2 s average
 * total, ~9.7 s capturing, analysis dominating, everything under one
 * minute.
 */

#include <cstdio>

#include "bench/bench_util.h"
#include "common/stats.h"

using namespace medusa;

int
main()
{
    std::printf("=== Figure 9: offline phase overhead (10 models) "
                "===\n\n");
    std::printf("%-14s %12s %12s %10s %12s\n", "model", "capturing(s)",
                "analysis(s)", "total(s)", "image");
    bench::printRule();

    f64 sum_capture = 0, sum_analysis = 0;
    int count = 0;
    for (const llm::ModelConfig &model : llm::modelZoo()) {
        core::OfflineOptions opts;
        opts.model = model;
        opts.pipeline.validate = false; // Figure 9 measures capture + analysis
        auto result = bench::unwrap(core::materialize(opts),
                                    model.name.c_str());
        sum_capture += result.capture_stage_sec;
        sum_analysis += result.analysis_stage_sec;
        ++count;
        std::printf("%-14s %12.1f %12.1f %10.1f %12s\n",
                    model.name.c_str(), result.capture_stage_sec,
                    result.analysis_stage_sec, result.totalOffline(),
                    formatBytes(result.image_bytes.size()).c_str());
    }
    bench::printRule();
    std::printf("average: capturing %.1f s (paper ~9.7), analysis %.1f "
                "s, total %.1f s (paper 39.2)\n",
                sum_capture / count, sum_analysis / count,
                (sum_capture + sum_analysis) / count);
    return 0;
}
