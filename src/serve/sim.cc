/**
 * @file
 * Sim-mode driver: the public simulateCluster() entry, expressed over
 * serve::Scheduler. The sorted trace is an external cursor whose
 * entries win ties at equal times: conceptually every arrival is
 * scheduled up front, before any dynamic event, so under the engine's
 * (time, seq) FIFO order it precedes them. cluster_equiv_test pins the
 * outputs against tests/data/golden_cluster.txt.
 */

#include "serve/scheduler.h"

namespace medusa::serverless {

TraceMetrics
simulateCluster(const ClusterOptions &options,
                const std::vector<workload::Request> &trace)
{
    MEDUSA_CHECK(options.profile != nullptr,
                 "ClusterOptions::profile must be set");
    ClusterOptions opts = options;
    if (opts.chaos == nullptr) {
        opts.chaos = envChaosPlan();
    }
    const f64 horizon = trace.empty() ? 0 : trace.back().arrival_sec;
    serve::Scheduler sched(opts, /*hooks=*/nullptr, horizon);
    std::size_t next_arrival = 0;
    for (;;) {
        if (next_arrival < trace.size() &&
            (sched.idle() || trace[next_arrival].arrival_sec <=
                                 sched.peekTime())) {
            sched.advanceTo(trace[next_arrival].arrival_sec);
            sched.submit(trace[next_arrival]);
            ++next_arrival;
            continue;
        }
        if (sched.idle()) {
            break;
        }
        sched.step();
    }
    return sched.finish();
}

} // namespace medusa::serverless
