/**
 * @file
 * MetricsRegistry tests: counter/gauge/histogram semantics, handle
 * stability under concurrent writers, snapshot/export, and
 * cross-registry merging (DESIGN.md §12).
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "common/types.h"

namespace medusa {
namespace {

TEST(MetricsTest, CounterAndGaugeBasics)
{
    MetricsRegistry registry;
    registry.counter("restore.nodes").add(3);
    registry.counter("restore.nodes").add(2);
    registry.gauge("restore.wasted_sec").set(1.5);
    registry.gauge("restore.wasted_sec").add(0.25);

    const MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counterValue("restore.nodes"), 5u);
    EXPECT_DOUBLE_EQ(snap.gaugeValue("restore.wasted_sec"), 1.75);
    EXPECT_TRUE(snap.has("restore.nodes"));
    EXPECT_FALSE(snap.has("restore.absent"));
    EXPECT_EQ(snap.counterValue("restore.absent"), 0u);
}

TEST(MetricsTest, HistogramBucketsAndClamping)
{
    MetricsRegistry registry;
    HistogramMetric &h =
        registry.histogram("restore.attempt_sec", 0.0, 10.0, 5);
    h.record(1.0);   // bucket 0
    h.record(3.0);   // bucket 1
    h.record(-4.0);  // clamps into bucket 0
    h.record(99.0);  // clamps into bucket 4
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 99.0);
    const std::vector<u64> buckets = h.bucketCounts();
    ASSERT_EQ(buckets.size(), 5u);
    EXPECT_EQ(buckets[0], 2u);
    EXPECT_EQ(buckets[1], 1u);
    EXPECT_EQ(buckets[4], 1u);
    // The first caller owns the shape; a later mismatched request gets
    // the existing histogram.
    HistogramMetric &again =
        registry.histogram("restore.attempt_sec", 0.0, 100.0, 50);
    EXPECT_EQ(&again, &h);
}

TEST(MetricsTest, HandlesAreStableAndThreadSafe)
{
    MetricsRegistry registry;
    Counter &hot = registry.counter("cache.hits");
    constexpr std::size_t kPerWorker = 10000;
    std::vector<std::thread> workers;
    for (int w = 0; w < 8; ++w) {
        workers.emplace_back([&]() {
            // Each add goes once through the cached handle and once
            // through a re-lookup: both must land on the same counter.
            for (std::size_t i = 0; i < kPerWorker; ++i) {
                hot.add(1);
                registry.counter("cache.hits").add(1);
            }
        });
    }
    for (std::thread &w : workers) {
        w.join();
    }
    EXPECT_EQ(registry.snapshot().counterValue("cache.hits"),
              8u * kPerWorker * 2u);
}

TEST(MetricsTest, SnapshotSortedAndJsonCarriesSchemaVersion)
{
    MetricsRegistry registry;
    registry.counter("b.second").add(1);
    registry.counter("a.first").add(2);
    registry.gauge("c.third_sec").set(0.5);

    const MetricsSnapshot snap = registry.snapshot();
    ASSERT_EQ(snap.entries().size(), 3u);
    EXPECT_EQ(snap.entries()[0].name, "a.first");
    EXPECT_EQ(snap.entries()[1].name, "b.second");
    EXPECT_EQ(snap.entries()[2].name, "c.third_sec");

    const std::string json = snap.toJson();
    ASSERT_TRUE(Json::parse(json).isOk()) << json;
    EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
    EXPECT_NE(json.find("\"a.first\":2"), std::string::npos);
    EXPECT_NE(json.find("\"c.third_sec\":0.5"), std::string::npos);
}

TEST(MetricsTest, MergeFromAddsCountersAndGauges)
{
    MetricsRegistry inner;
    inner.counter("restore.attempts").add(2);
    inner.gauge("restore.wasted_sec").set(0.5);
    inner.histogram("restore.attempt_sec", 0.0, 10.0, 5).record(4.0);

    MetricsRegistry outer;
    outer.counter("restore.attempts").add(1);
    outer.mergeFrom(inner.snapshot());
    outer.mergeFrom(inner.snapshot());

    const MetricsSnapshot snap = outer.snapshot();
    EXPECT_EQ(snap.counterValue("restore.attempts"), 5u);
    EXPECT_DOUBLE_EQ(snap.gaugeValue("restore.wasted_sec"), 1.0);
    for (const MetricsEntry &entry : snap.entries()) {
        if (entry.name == "restore.attempt_sec") {
            EXPECT_EQ(entry.kind, MetricsEntry::Kind::kHistogram);
            EXPECT_EQ(entry.histo_count, 2u);
        }
    }
}

TEST(MetricsTest, EmptyRegistryExportsCleanly)
{
    MetricsRegistry registry;
    const MetricsSnapshot snap = registry.snapshot();
    EXPECT_TRUE(snap.empty());
    EXPECT_EQ(snap.toJson(),
              "{\"schema_version\":1,\"metrics\":{}}");
}

} // namespace
} // namespace medusa
