/**
 * @file
 * Test helpers for the cluster simulator: a hand-made serving profile
 * with easy arithmetic, a one-call simulation, and checked reads of
 * the run's `cluster.*` metrics.
 */

#ifndef MEDUSA_TESTS_TEST_CLUSTER_H
#define MEDUSA_TESTS_TEST_CLUSTER_H

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "serverless/cluster.h"

namespace medusa::test {

/**
 * Cold start @p cold_start seconds; decode 0.01 s/step at batch 1 and
 * 0.10 s at batch 10; prefill 0.1 s per 100 tokens.
 */
inline serverless::ServingProfile
toyProfile(f64 cold_start = 2.0)
{
    serverless::ServingProfile p;
    p.model_name = "toy";
    p.strategy = llm::Strategy::kVllm;
    p.loading_sec = cold_start;
    p.cold_start_sec = cold_start;
    p.batch_sizes = {1, 10};
    p.decode_step_sec = {0.01, 0.10};
    p.prefill_tokens = {100, 1000};
    p.prefill_sec = {0.1, 1.0};
    return p;
}

/** Sets options.profile and calls the public simulateCluster entry. */
inline serverless::TraceMetrics
runCluster(serverless::ClusterOptions opts,
           const serverless::ServingProfile &profile,
           const std::vector<workload::Request> &trace)
{
    opts.profile = &profile;
    return serverless::simulateCluster(opts, trace);
}

/**
 * The run's counter @p name. Fails the test when the run exported no
 * such metric, so a misspelled name cannot read a silent 0.
 */
inline u64
clusterCounter(const serverless::TraceMetrics &m, std::string_view name)
{
    if (!m.metrics.has(name)) {
        ADD_FAILURE() << "run exported no metric '" << name << "'";
        return 0;
    }
    return m.metrics.counterValue(name);
}

/** The run's gauge @p name, checked like clusterCounter. */
inline f64
clusterGauge(const serverless::TraceMetrics &m, std::string_view name)
{
    if (!m.metrics.has(name)) {
        ADD_FAILURE() << "run exported no metric '" << name << "'";
        return 0.0;
    }
    return m.metrics.gaugeValue(name);
}

} // namespace medusa::test

#endif // MEDUSA_TESTS_TEST_CLUSTER_H
