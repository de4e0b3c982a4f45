/**
 * @file
 * Statistics used by the evaluation harness: exact percentile
 * tracking and byte/second formatting. Named histograms live in
 * common/metrics.h (HistogramMetric).
 */

#ifndef MEDUSA_COMMON_STATS_H
#define MEDUSA_COMMON_STATS_H

#include <algorithm>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/types.h"

namespace medusa {

/**
 * Exact percentile tracker. Stores all samples; adequate for the trace
 * experiments (tens of thousands of requests).
 */
class PercentileTracker
{
  public:
    void add(f64 v) { samples_.push_back(v); }

    u64 count() const { return samples_.size(); }

    /**
     * The q-th percentile using nearest-rank on the sorted samples.
     * @param q percentile in [0, 100].
     */
    f64
    percentile(f64 q) const
    {
        MEDUSA_CHECK(!samples_.empty(), "percentile of empty tracker");
        MEDUSA_CHECK(q >= 0.0 && q <= 100.0, "bad percentile " << q);
        std::vector<f64> sorted = samples_;
        std::sort(sorted.begin(), sorted.end());
        if (q <= 0.0) {
            return sorted.front();
        }
        const auto n = sorted.size();
        auto rank = static_cast<std::size_t>(
            std::max<long long>(1, static_cast<long long>(
                                       (q / 100.0) * static_cast<f64>(n) +
                                       0.999999)));
        rank = std::min(rank, n);
        return sorted[rank - 1];
    }

    f64 p50() const { return percentile(50.0); }
    f64 p90() const { return percentile(90.0); }
    f64 p99() const { return percentile(99.0); }

    f64
    mean() const
    {
        if (samples_.empty()) {
            return 0;
        }
        f64 sum = 0;
        for (f64 v : samples_) {
            sum += v;
        }
        return sum / static_cast<f64>(samples_.size());
    }

    const std::vector<f64> &samples() const { return samples_; }

  private:
    std::vector<f64> samples_;
};

/** Format a byte count with binary units, e.g. "7.4GiB". */
std::string formatBytes(u64 bytes);

/** Format virtual nanoseconds as seconds with fixed precision. */
std::string formatSeconds(SimTimeNs ns);

} // namespace medusa

#endif // MEDUSA_COMMON_STATS_H
