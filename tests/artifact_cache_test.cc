/**
 * @file
 * The process-wide image cache: single-flight loading, shared
 * immutable entries, LRU eviction and failed-load retry semantics.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <span>
#include <thread>

#include "llm/model_config.h"
#include "medusa/artifact_cache.h"
#include "medusa/offline.h"

namespace medusa {
namespace {

using core::ImageCache;
using core::MaterializedImage;

MaterializedImage
namedImage(const std::string &name)
{
    MaterializedImage image;
    image.model_name = name;
    image.model_seed = 7;
    return image;
}

TEST(ArtifactCache, MissLoadsThenHitsShareThePointer)
{
    ImageCache cache;
    int loads = 0;
    auto loader = [&loads]() -> StatusOr<MaterializedImage> {
        ++loads;
        return namedImage("m");
    };
    bool hit = true;
    auto first = cache.getOrLoad("k", loader, &hit);
    ASSERT_TRUE(first.isOk());
    EXPECT_FALSE(hit);
    EXPECT_EQ((*first)->model_name, "m");

    auto second = cache.getOrLoad("k", loader, &hit);
    ASSERT_TRUE(second.isOk());
    EXPECT_TRUE(hit);
    EXPECT_EQ(loads, 1);
    EXPECT_EQ(first->get(), second->get());

    const MetricsSnapshot stats = cache.metricsSnapshot();
    EXPECT_EQ(stats.counterValue("artifact_cache.misses"), 1u);
    EXPECT_EQ(stats.counterValue("artifact_cache.hits"), 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(ArtifactCache, SingleFlightRunsTheLoaderOnce)
{
    ImageCache cache;
    std::atomic<int> loads{0};
    auto loader = [&loads]() -> StatusOr<MaterializedImage> {
        ++loads;
        // Hold the load open so every other thread has to wait on it.
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        return namedImage("m");
    };

    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    std::vector<std::shared_ptr<const MaterializedImage>> got(kThreads);
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i]() {
            auto result = cache.getOrLoad("k", loader);
            ASSERT_TRUE(result.isOk());
            got[i] = *result;
        });
    }
    for (std::thread &t : threads) {
        t.join();
    }
    EXPECT_EQ(loads.load(), 1);
    for (int i = 1; i < kThreads; ++i) {
        EXPECT_EQ(got[0].get(), got[i].get());
    }
    const MetricsSnapshot stats = cache.metricsSnapshot();
    EXPECT_EQ(stats.counterValue("artifact_cache.misses"), 1u);
    EXPECT_EQ(stats.counterValue("artifact_cache.hits"),
              static_cast<u64>(kThreads - 1));
}

TEST(ArtifactCache, EvictsLeastRecentlyUsed)
{
    ImageCache cache(/*capacity=*/2);
    int b_loads = 0;
    auto loadNamed = [](const std::string &name) {
        return [name]() -> StatusOr<MaterializedImage> {
            return namedImage(name);
        };
    };
    ASSERT_TRUE(cache.getOrLoad("a", loadNamed("a")).isOk());
    ASSERT_TRUE(cache
                    .getOrLoad("b",
                               [&b_loads]() -> StatusOr<MaterializedImage> {
                                   ++b_loads;
                                   return namedImage("b");
                               })
                    .isOk());
    // Touch a so b becomes the LRU entry, then overflow with c.
    ASSERT_TRUE(cache.getOrLoad("a", loadNamed("a")).isOk());
    ASSERT_TRUE(cache.getOrLoad("c", loadNamed("c")).isOk());
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.metricsSnapshot().counterValue("artifact_cache.evictions"), 1u);

    // b was evicted: fetching it again re-runs its loader. An evicted
    // artifact held elsewhere stays alive via its shared_ptr.
    bool hit = true;
    ASSERT_TRUE(cache
                    .getOrLoad("b",
                               [&b_loads]() -> StatusOr<MaterializedImage> {
                                   ++b_loads;
                                   return namedImage("b");
                               },
                               &hit)
                    .isOk());
    EXPECT_FALSE(hit);
    EXPECT_EQ(b_loads, 2);
}

TEST(ArtifactCache, FailedLoadPropagatesAndRetries)
{
    ImageCache cache;
    int attempts = 0;
    auto flaky = [&attempts]() -> StatusOr<MaterializedImage> {
        if (++attempts == 1) {
            return internalError("transient artifact read failure");
        }
        return namedImage("m");
    };
    auto first = cache.getOrLoad("k", flaky);
    ASSERT_FALSE(first.isOk());
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.metricsSnapshot().counterValue("artifact_cache.failed_loads"), 1u);

    auto second = cache.getOrLoad("k", flaky);
    ASSERT_TRUE(second.isOk());
    EXPECT_EQ((*second)->model_name, "m");
    EXPECT_EQ(attempts, 2);
}

TEST(ArtifactCache, NegativeEntryExpiresAfterBackoff)
{
    // A failure record is a negative cache entry with TTL = its
    // backoff deadline. Inside the backoff keyFailure reports the
    // recorded Status; once the deadline passes it must report ok()
    // again — serving the stale Status to later single-flight waiters
    // would claim a failure state that no longer gates anything.
    ImageCache cache(/*capacity=*/8, /*initial_backoff_ms=*/20.0,
                        /*max_backoff_ms=*/20.0);
    auto failing = []() -> StatusOr<MaterializedImage> {
        return internalError("persistent artifact read failure");
    };
    ASSERT_FALSE(cache.getOrLoad("k", failing).isOk());

    const Status during = cache.keyFailure("k");
    ASSERT_FALSE(during.isOk());
    EXPECT_NE(during.message().find("persistent"), std::string::npos);
    EXPECT_TRUE(cache.keyFailure("other").isOk());

    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_TRUE(cache.keyFailure("k").isOk())
        << "negative entry served after its backoff expired";
}

TEST(ArtifactCache, ImageCacheSharesTheTemplate)
{
    // Real images opened over materialized bytes share one resident
    // entry, under the artifact_cache.* metric names.
    ImageCache cache;
    core::OfflineOptions opts;
    opts.model = llm::findModel("Qwen1.5-0.5B").value();
    opts.model.num_layers = 2;
    opts.pipeline.validate = false;
    const auto offline = core::materialize(opts);
    ASSERT_TRUE(offline.isOk()) << offline.status().toString();
    const std::vector<u8> &bytes = offline->image_bytes;

    int loads = 0;
    auto loader = [&]() {
        ++loads;
        return core::MaterializedImage::openView(
            std::span<const u8>(bytes));
    };
    bool hit = true;
    auto first = cache.getOrLoad("img", loader, &hit);
    ASSERT_TRUE(first.isOk()) << first.status().toString();
    EXPECT_FALSE(hit);
    auto second = cache.getOrLoad("img", loader, &hit);
    ASSERT_TRUE(second.isOk());
    EXPECT_TRUE(hit);
    EXPECT_EQ(loads, 1);
    EXPECT_EQ(first->get(), second->get());
    EXPECT_EQ((*first)->model_name, opts.model.name);
    EXPECT_EQ(cache.metricsSnapshot().counterValue("artifact_cache.hits"), 1u);
    EXPECT_EQ(cache.metricsSnapshot().counterValue("artifact_cache.misses"), 1u);
}

TEST(ArtifactCache, FailedLoadUnblocksWaitersWhoRetry)
{
    ImageCache cache;
    std::atomic<int> attempts{0};
    auto flaky = [&attempts]() -> StatusOr<MaterializedImage> {
        const int n = ++attempts;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        if (n == 1) {
            return internalError("first load fails");
        }
        return namedImage("m");
    };
    constexpr int kThreads = 4;
    std::atomic<int> ok{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&]() {
            // Whoever ran the failing load sees the error; waiters
            // retry the load themselves, so each thread succeeds on
            // its first or second attempt.
            for (int tries = 0; tries < 2; ++tries) {
                if (cache.getOrLoad("k", flaky).isOk()) {
                    ++ok;
                    return;
                }
            }
        });
    }
    for (std::thread &t : threads) {
        t.join();
    }
    EXPECT_EQ(ok.load(), kThreads);
    EXPECT_EQ(cache.metricsSnapshot().counterValue("artifact_cache.failed_loads"), 1u);
}

TEST(ArtifactCache, ClearDropsResidentEntries)
{
    ImageCache cache;
    ASSERT_TRUE(cache
                    .getOrLoad("k",
                               []() -> StatusOr<MaterializedImage> {
                                   return namedImage("m");
                               })
                    .isOk());
    EXPECT_EQ(cache.size(), 1u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
}

} // namespace
} // namespace medusa
