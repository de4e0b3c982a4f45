/**
 * @file
 * medusa-trace: the hierarchical span recorder behind the unified
 * observability layer (DESIGN.md §12).
 *
 * A TraceRecorder collects timestamped events — nested spans, instants
 * and pre-timed complete events — against an *injected clock*, so the
 * same recorder type serves both the simulated clock (SimClock, the
 * default throughout the reproduction) and host wall time. Recorders
 * are thread-safe; events may be appended from any thread.
 *
 * Two disciplines keep the layer honest:
 *
 *  - zero cost when disabled: every instrumentation site holds a
 *    `TraceRecorder *` that is null in production. The RAII Span
 *    compiles to a single pointer test and performs NO allocation and
 *    NO clock read when the recorder is null (same contract as the
 *    fault hooks, verified by trace_test).
 *
 *  - deterministic export: exporters emit events in a canonical order
 *    (start time, track, name) independent of the append order, so
 *    events appended concurrently from several threads export
 *    byte-identically for every interleaving.
 *
 * Export formats: Chrome trace_event JSON (load in chrome://tracing or
 * https://ui.perfetto.dev) and the raw event list that ColdStartReport
 * embeds.
 */

#ifndef MEDUSA_COMMON_TRACE_H
#define MEDUSA_COMMON_TRACE_H

#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/types.h"

namespace medusa {

/** Schema version stamped into exported trace JSON. */
inline constexpr u32 kTraceJsonSchemaVersion = 1;

/** One recorded event. Durations are meaningful for kComplete only. */
struct TraceEvent
{
    enum class Phase : u8
    {
        /** A closed span: [start_ns, start_ns + dur_ns). */
        kComplete = 0,
        /** A point-in-time marker (fault fired, cache hit, ...). */
        kInstant,
    };

    std::string name;
    /** Dot-free grouping label ("stage", "restore", "cache", ...). */
    std::string category;
    Phase phase = Phase::kComplete;
    /** Logical track (Chrome tid): 0 = main, TP rank, instance id... */
    u32 track = 0;
    i64 start_ns = 0;
    i64 dur_ns = 0;
    /** Optional key/value annotations (exported as Chrome args). */
    std::vector<std::pair<std::string, std::string>> args;
};

/**
 * Thread-safe event collector with an injected clock; see file comment.
 */
class TraceRecorder
{
  public:
    using ClockFn = std::function<i64()>;

    /** A recorder with no live clock (a merge/export sink): now() = 0. */
    TraceRecorder() = default;

    /** Record against an arbitrary nanosecond clock. */
    explicit TraceRecorder(ClockFn clock) : clock_(std::move(clock)) {}

    /**
     * Record against a SimClock. The clock must outlive the recorder;
     * reads go through SimClock::now() at begin/end time.
     */
    explicit TraceRecorder(const SimClock *clock)
        : clock_([clock]() { return clock->now(); })
    {
    }

    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    /**
     * Open a span at the current clock; returns a handle for endSpan.
     * Spans left open are dropped by events()/export (never half-emitted).
     */
    u64 beginSpan(std::string_view name, std::string_view category = "",
                  u32 track = 0);

    /** Close a span, measuring its duration on the injected clock. */
    void endSpan(u64 handle);

    /** Attach a key/value annotation to an open or closed span. */
    void setArg(u64 handle, std::string_view key, std::string_view value);

    /** Record a point-in-time marker at the current clock. */
    void instant(std::string_view name, std::string_view category = "",
                 u32 track = 0);

    /** Record a pre-timed complete event (event-loop style callers). */
    void complete(std::string_view name, std::string_view category,
                  u32 track, i64 start_ns, i64 dur_ns);

    /** Append one foreign event verbatim (merging sinks). */
    void append(TraceEvent event);

    /**
     * Append a batch of foreign events, shifting each track by
     * @p track_offset — how per-engine or per-rank sub-traces are laid
     * out side by side in one timeline.
     */
    void appendAll(std::span<const TraceEvent> events,
                   u32 track_offset = 0);

    /** Name a track in the exported timeline (Chrome thread_name). */
    void setTrackName(u32 track, std::string name);

    /** Events recorded so far (open spans excluded). */
    std::size_t eventCount() const;

    /** Snapshot of all closed events, in canonical export order. */
    std::vector<TraceEvent> events() const;

    /**
     * Snapshot of closed events appended at index >= @p first (indices
     * follow append order; use eventCount() as the slice mark). The
     * slice is returned in canonical order.
     */
    std::vector<TraceEvent> eventsFrom(std::size_t first) const;

    /** Chrome trace_event JSON of every closed event. */
    std::string toChromeJson() const;

    /** Drop all events (track names are kept). */
    void clear();

  private:
    i64 readClock() const { return clock_ ? clock_() : 0; }

    ClockFn clock_;
    mutable std::mutex mu_;
    std::vector<TraceEvent> events_;
    /** Open-span count per handle slot; handle = index into events_. */
    std::vector<bool> open_;
    std::map<u32, std::string> track_names_;
};

/**
 * Sort events into the canonical export order: (start, track, name,
 * longer-span-first). Deterministic for any append interleaving.
 */
void canonicalizeEventOrder(std::vector<TraceEvent> &events);

/**
 * Serialize events to Chrome trace_event JSON:
 * {"displayTimeUnit":"ms","medusa":{"schema_version":1},
 *  "traceEvents":[...]}. Timestamps are emitted in microseconds.
 */
std::string
traceEventsToChromeJson(std::span<const TraceEvent> events,
                        const std::map<u32, std::string> &track_names = {});

/**
 * RAII span against a *nullable* recorder. With a null recorder the
 * constructor and destructor are a pointer test each: no allocation,
 * no clock read, no locking.
 */
class Span
{
  public:
    Span() = default;

    Span(TraceRecorder *recorder, std::string_view name,
         std::string_view category = "", u32 track = 0)
    {
        if (recorder != nullptr) {
            recorder_ = recorder;
            handle_ = recorder->beginSpan(name, category, track);
        }
    }

    ~Span() { end(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    Span(Span &&other) noexcept
        : recorder_(other.recorder_), handle_(other.handle_)
    {
        other.recorder_ = nullptr;
    }

    Span &
    operator=(Span &&other) noexcept
    {
        if (this != &other) {
            end();
            recorder_ = other.recorder_;
            handle_ = other.handle_;
            other.recorder_ = nullptr;
        }
        return *this;
    }

    /** Annotate the span (no-op when disabled). */
    void
    arg(std::string_view key, std::string_view value)
    {
        if (recorder_ != nullptr) {
            recorder_->setArg(handle_, key, value);
        }
    }

    /** Close early (idempotent; the destructor then does nothing). */
    void
    end()
    {
        if (recorder_ != nullptr) {
            recorder_->endSpan(handle_);
            recorder_ = nullptr;
        }
    }

  private:
    TraceRecorder *recorder_ = nullptr;
    u64 handle_ = 0;
};

} // namespace medusa

#endif // MEDUSA_COMMON_TRACE_H
