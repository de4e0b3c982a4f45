/**
 * @file
 * Named-metric registry for the unified observability layer
 * (DESIGN.md §12): counters, gauges and fixed-bucket histograms keyed
 * by dotted lowercase names ("artifact_cache.hits",
 * "restore.wasted_sec"). The registry unifies the scattered
 * per-subsystem stats: `ImageCache` (medusa/artifact_cache.h)
 * publishes its `artifact_cache.*` counters straight into it, and the
 * remaining structs (`serverless::TraceMetrics`, `AnalysisStats`,
 * `RestoreReport` counters) survive as thin views built from a
 * registry snapshot. The JSON export streams through
 * `appendJsonString` (common/json.h); it builds no Json tree.
 *
 * Naming convention: `subsystem.noun`, lowercase with underscores
 * inside a segment; unit-bearing metrics carry a `_sec` / `_bytes` /
 * `_us` suffix. Counters are monotonic u64; gauges are f64 set/add.
 *
 * Concurrency: metric handles returned by the registry are stable for
 * the registry's lifetime and individually thread-safe (atomics for
 * counter/gauge, a mutex for histogram), so hot paths hold a
 * `Counter &` and never re-lookup by name.
 */

#ifndef MEDUSA_COMMON_METRICS_H
#define MEDUSA_COMMON_METRICS_H

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace medusa {

/** Schema version stamped into exported metrics JSON. */
inline constexpr u32 kMetricsJsonSchemaVersion = 1;

/** Monotonic counter (thread-safe). */
class Counter
{
  public:
    void add(u64 delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
    u64 value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<u64> value_{0};
};

/** Last-write-wins floating-point gauge (thread-safe). */
class Gauge
{
  public:
    void set(f64 value) { value_.store(value, std::memory_order_relaxed); }

    void
    add(f64 delta)
    {
        f64 cur = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(cur, cur + delta,
                                             std::memory_order_relaxed)) {
        }
    }

    f64 value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<f64> value_{0.0};
};

/**
 * Fixed-range linear histogram; out-of-range samples clamp to the
 * first/last bucket (same contract as stats.h's Histogram).
 */
class HistogramMetric
{
  public:
    HistogramMetric(f64 lo, f64 hi, u32 buckets);

    void record(f64 value);

    u64 count() const;
    f64 sum() const;
    std::vector<u64> bucketCounts() const;
    f64 lo() const { return lo_; }
    f64 hi() const { return hi_; }

  private:
    f64 lo_;
    f64 hi_;
    mutable std::mutex mu_;
    std::vector<u64> buckets_;
    u64 count_ = 0;
    f64 sum_ = 0.0;
};

/** A point-in-time copy of one registry entry. */
struct MetricsEntry
{
    enum class Kind : u8
    {
        kCounter = 0,
        kGauge,
        kHistogram,
    };

    std::string name;
    Kind kind = Kind::kCounter;
    u64 counter = 0;
    f64 gauge = 0.0;
    /** Histogram payload (kind == kHistogram only). */
    f64 histo_lo = 0.0;
    f64 histo_hi = 0.0;
    std::vector<u64> histo_buckets;
    u64 histo_count = 0;
    f64 histo_sum = 0.0;
};

/**
 * Immutable snapshot of a registry, sorted by name. This is what a
 * ColdStartReport embeds and what the flat metrics JSON serializes.
 */
class MetricsSnapshot
{
  public:
    MetricsSnapshot() = default;
    explicit MetricsSnapshot(std::vector<MetricsEntry> entries);

    const std::vector<MetricsEntry> &entries() const { return entries_; }
    bool empty() const { return entries_.empty(); }

    /** Counter value by name; 0 when absent. */
    u64 counterValue(std::string_view name) const;

    /** Gauge value by name; 0.0 when absent. */
    f64 gaugeValue(std::string_view name) const;

    bool has(std::string_view name) const;

    /** {"schema_version":1,"metrics":{name:value,...}}. */
    std::string toJson() const;

  private:
    const MetricsEntry *find(std::string_view name) const;

    std::vector<MetricsEntry> entries_;
};

/**
 * The registry: name -> metric, creating on first use. Handles are
 * stable references; see file comment for the naming convention.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    Counter &counter(std::string_view name);
    Gauge &gauge(std::string_view name);

    /**
     * Histogram with fixed buckets; lo/hi/buckets are fixed by the
     * first caller (later calls with a different shape get the
     * existing histogram — names own their shape).
     */
    HistogramMetric &histogram(std::string_view name, f64 lo, f64 hi,
                               u32 buckets);

    MetricsSnapshot snapshot() const;

    /** Fold a snapshot in: counters add, gauges add, histograms merge. */
    void mergeFrom(const MetricsSnapshot &snap);

    /** snapshot().toJson() convenience. */
    std::string toJson() const;

  private:
    struct Slot
    {
        MetricsEntry::Kind kind;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<HistogramMetric> histogram;
    };

    mutable std::mutex mu_;
    std::map<std::string, Slot, std::less<>> slots_;
};

} // namespace medusa

#endif // MEDUSA_COMMON_METRICS_H
