/**
 * @file
 * A process-wide cache of opened materialized images.
 *
 * Serverless platforms run many instances of the same <GPU type, model>
 * pair per node, and every Medusa cold start begins by loading that
 * pair's v6 image (§3). The cache makes the load pay once per node:
 * entries are shared immutably (shared_ptr<const MaterializedImage>),
 * a miss is single-flight — concurrent requests for one key run the
 * loader exactly once while the rest block for the result — and
 * capacity is bounded with least-recently-used eviction (an evicted
 * entry stays alive for engines still holding it).
 *
 * A failed load is not cached as a value, but it is *recorded*: the
 * per-key failure keeps the full Status (not just a counter) and an
 * exponential-backoff deadline. Blocked single-flight callers do not
 * hot-loop the loader — the next caller to retry waits out the backoff
 * first, and each consecutive failure doubles it (up to a cap). A
 * successful load clears the key's failure record, and the record is a
 * negative cache entry with TTL = its backoff deadline: once the
 * deadline passes, keyFailure() reports ok() again instead of serving
 * the stale Status to later callers.
 *
 * The cache publishes under the `artifact_cache.*` metric names
 * (DESIGN.md §12).
 */

#ifndef MEDUSA_MEDUSA_ARTIFACT_CACHE_H
#define MEDUSA_MEDUSA_ARTIFACT_CACHE_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "medusa/image.h"

namespace medusa::core {

/** Thread-safe, single-flight, LRU-bounded image store. */
class ImageCache
{
  public:
    /** Produces the image on a miss (runs outside the cache lock). */
    using Loader = std::function<StatusOr<MaterializedImage>()>;

    /**
     * @param capacity max resident entries (floored at 1).
     * @param initial_backoff_ms pause before retrying a failed key;
     *        doubles per consecutive failure up to @p max_backoff_ms.
     */
    explicit ImageCache(std::size_t capacity = 8,
                        f64 initial_backoff_ms = 1.0,
                        f64 max_backoff_ms = 100.0)
        : capacity_(std::max<std::size_t>(1, capacity)),
          initial_backoff_ms_(std::max(0.0, initial_backoff_ms)),
          max_backoff_ms_(std::max(initial_backoff_ms, max_backoff_ms))
    {
    }

    /**
     * Inject deterministic loader faults (FaultPoint::kCacheLoader —
     * checked before each loader run). Null disables.
     */
    void
    setFaultInjector(FaultInjector *fault)
    {
        std::unique_lock<std::mutex> lock(mu_);
        fault_ = fault;
    }

    /**
     * Stream cache events into @p trace: a `cache.load` span around
     * each loader run, `cache.hit` / `cache.evict` instants. Null
     * disables, at zero cost.
     */
    void
    setTraceRecorder(TraceRecorder *trace)
    {
        std::unique_lock<std::mutex> lock(mu_);
        trace_ = trace;
    }

    /**
     * The recorded failure Status for @p key: the last loader error
     * while the key is still inside its failure backoff, ok()
     * otherwise. An expired record no longer gates anything — the next
     * getOrLoad may run the loader immediately — so reporting its stale
     * Status would claim a failure state that no longer exists.
     */
    Status
    keyFailure(const std::string &key) const
    {
        std::unique_lock<std::mutex> lock(mu_);
        auto it = failures_.find(key);
        if (it == failures_.end()) {
            return Status::ok();
        }
        if (std::chrono::steady_clock::now() >= it->second.not_before) {
            return Status::ok();
        }
        return it->second.last;
    }

    /**
     * The value for @p key, loading it via @p loader on a miss.
     * Concurrent callers with the same key share one loader run.
     * @param[out] was_hit if non-null, set to whether the value was
     *             already resident (waiting on an in-flight load counts
     *             as a hit).
     */
    StatusOr<std::shared_ptr<const MaterializedImage>>
    getOrLoad(const std::string &key, const Loader &loader,
              bool *was_hit = nullptr)
    {
        std::unique_lock<std::mutex> lock(mu_);
        for (;;) {
            auto it = slots_.find(key);
            if (it != slots_.end()) {
                if (it->second.loading) {
                    // Single-flight: block until the in-flight load
                    // resolves. A failed load erases the slot, so the
                    // loop re-enters the loader path and retries.
                    cv_.wait(lock);
                    continue;
                }
                it->second.last_used = ++tick_;
                metrics_.counter("artifact_cache.hits").add(1);
                if (trace_ != nullptr) {
                    trace_->instant("cache.hit", "cache");
                }
                if (was_hit != nullptr) {
                    *was_hit = true;
                }
                return it->second.value;
            }
            // Failure backoff: do not hot-loop a key whose loader just
            // failed — wait out the exponential-backoff deadline first
            // (a concurrent success wakes us early via notify_all).
            auto fit = failures_.find(key);
            if (fit != failures_.end() &&
                std::chrono::steady_clock::now() <
                    fit->second.not_before) {
                metrics_.counter("artifact_cache.backoff_waits").add(1);
                cv_.wait_until(lock, fit->second.not_before);
                continue;
            }
            break; // this caller becomes the loader
        }

        slots_.emplace(key, Slot{});
        metrics_.counter("artifact_cache.misses").add(1);
        FaultInjector *fault = fault_;
        TraceRecorder *trace = trace_;
        lock.unlock();
        Span load_span(trace, "cache.load", "cache");
        load_span.arg("key", key);
        using Loaded = StatusOr<MaterializedImage>;
        Loaded loaded = [&]() -> Loaded {
            if (fault != nullptr) {
                const Status injected =
                    fault->check(FaultPoint::kCacheLoader, key);
                if (!injected.isOk()) {
                    return injected;
                }
            }
            return loader();
        }();
        load_span.end();
        lock.lock();
        if (!loaded.isOk()) {
            slots_.erase(key);
            metrics_.counter("artifact_cache.failed_loads").add(1);
            last_failure_ = loaded.status();
            Failure &failure = failures_[key];
            failure.last = loaded.status();
            ++failure.consecutive;
            const f64 delay_ms = std::min(
                max_backoff_ms_,
                initial_backoff_ms_ *
                    std::pow(2.0, static_cast<f64>(
                                      failure.consecutive - 1)));
            failure.not_before =
                std::chrono::steady_clock::now() +
                std::chrono::microseconds(
                    static_cast<long>(delay_ms * 1e3));
            cv_.notify_all();
            return loaded.status();
        }
        Slot &slot = slots_[key];
        slot.loading = false;
        slot.value = std::make_shared<const MaterializedImage>(
            std::move(loaded).value());
        slot.last_used = ++tick_;
        std::shared_ptr<const MaterializedImage> value = slot.value;
        failures_.erase(key);
        evictOverCapacity();
        cv_.notify_all();
        if (was_hit != nullptr) {
            *was_hit = false;
        }
        return value;
    }

    /** The cache's counters as a registry snapshot (DESIGN.md §12):
     *  `artifact_cache.{hits,misses,evictions,failed_loads,
     *  backoff_waits}`. */
    MetricsSnapshot metricsSnapshot() const { return metrics_.snapshot(); }

    /** The most recent loader failure (ok() when none ever). */
    Status
    lastFailure() const
    {
        std::unique_lock<std::mutex> lock(mu_);
        return last_failure_;
    }

    /** Resident (fully loaded) entries. */
    std::size_t
    size() const
    {
        std::unique_lock<std::mutex> lock(mu_);
        std::size_t n = 0;
        for (const auto &[key, slot] : slots_) {
            n += slot.loading ? 0 : 1;
        }
        return n;
    }

    /** Drop every resident entry (in-flight loads are unaffected). */
    void
    clear()
    {
        std::unique_lock<std::mutex> lock(mu_);
        for (auto it = slots_.begin(); it != slots_.end();) {
            it = it->second.loading ? std::next(it) : slots_.erase(it);
        }
    }

  private:
    struct Slot
    {
        /** True while the loading caller is off running the loader. */
        bool loading = true;
        std::shared_ptr<const MaterializedImage> value;
        u64 last_used = 0;
    };

    /** Per-key failure record (erased by the next successful load). */
    struct Failure
    {
        Status last = Status::ok();
        u64 consecutive = 0;
        /** No retry before this deadline (exponential backoff). */
        std::chrono::steady_clock::time_point not_before;
    };

    /** Evict LRU resident slots down to capacity. Caller holds mu_. */
    void
    evictOverCapacity()
    {
        auto resident = [this]() {
            std::size_t n = 0;
            for (const auto &[key, slot] : slots_) {
                n += slot.loading ? 0 : 1;
            }
            return n;
        };
        while (resident() > capacity_) {
            auto victim = slots_.end();
            for (auto it = slots_.begin(); it != slots_.end(); ++it) {
                if (it->second.loading) {
                    continue;
                }
                if (victim == slots_.end() ||
                    it->second.last_used < victim->second.last_used) {
                    victim = it;
                }
            }
            slots_.erase(victim);
            metrics_.counter("artifact_cache.evictions").add(1);
            if (trace_ != nullptr) {
                trace_->instant("cache.evict", "cache");
            }
        }
    }

    const std::size_t capacity_;
    const f64 initial_backoff_ms_;
    const f64 max_backoff_ms_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::unordered_map<std::string, Slot> slots_;
    std::unordered_map<std::string, Failure> failures_;
    FaultInjector *fault_ = nullptr;
    TraceRecorder *trace_ = nullptr;
    u64 tick_ = 0;
    /** Counters (artifact_cache.*); its own lock, safe under mu_. */
    MetricsRegistry metrics_;
    /** Guarded by mu_ (Status is not atomic, unlike the counters). */
    Status last_failure_ = Status::ok();
};

} // namespace medusa::core

#endif // MEDUSA_MEDUSA_ARTIFACT_CACHE_H
