/**
 * @file
 * medusa-trace recorder tests: span timing against the injected clock,
 * the zero-cost-when-disabled contract, deterministic export under
 * concurrent appends, and the Chrome trace_event golden format
 * (DESIGN.md §12).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/trace.h"
#include "common/types.h"

namespace medusa {
namespace {

/** Global allocation counter for the zero-allocation test. */
std::atomic<u64> g_allocs{0};

} // namespace
} // namespace medusa

// The full replaceable set must be overridden together: libstdc++'s
// stable_sort temporary buffer goes through the nothrow forms, and a
// partial override would pair the library's new with our free (an
// alloc-dealloc mismatch under ASan).
//
// GCC cannot see that the replaced operator new also mallocs, so it
// flags every new/free pairing in this TU; the pairing is consistent.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void *
operator new(std::size_t size)
{
    ++medusa::g_allocs;
    void *p = std::malloc(size);
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    ++medusa::g_allocs;
    return std::malloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &tag) noexcept
{
    return operator new(size, tag);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace medusa {
namespace {

TEST(TraceTest, SpanRecordsSimTime)
{
    SimClock clock;
    TraceRecorder rec(&clock);
    clock.advance(units::secToNs(1.0));
    {
        Span s(&rec, "cold_start.weights", "stage");
        clock.advance(units::secToNs(2.5));
    }
    const auto events = rec.events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].name, "cold_start.weights");
    EXPECT_EQ(events[0].category, "stage");
    EXPECT_EQ(events[0].phase, TraceEvent::Phase::kComplete);
    EXPECT_EQ(events[0].start_ns, units::secToNs(1.0));
    EXPECT_EQ(events[0].dur_ns, units::secToNs(2.5));
}

TEST(TraceTest, NestedSpansAndInstants)
{
    SimClock clock;
    TraceRecorder rec(&clock);
    {
        Span outer(&rec, "restore.attempt", "restore");
        outer.arg("attempt", "1");
        clock.advance(100);
        {
            Span inner(&rec, "restore.rebind", "restore");
            clock.advance(50);
        }
        rec.instant("restore.attempt_failed", "restore");
        clock.advance(25);
    }
    const auto events = rec.events();
    ASSERT_EQ(events.size(), 3u);
    // Canonical order: outer (starts first), inner, then the instant.
    EXPECT_EQ(events[0].name, "restore.attempt");
    EXPECT_EQ(events[0].dur_ns, 175);
    ASSERT_EQ(events[0].args.size(), 1u);
    EXPECT_EQ(events[0].args[0].first, "attempt");
    EXPECT_EQ(events[1].name, "restore.rebind");
    EXPECT_EQ(events[1].start_ns, 100);
    EXPECT_EQ(events[1].dur_ns, 50);
    EXPECT_EQ(events[2].name, "restore.attempt_failed");
    EXPECT_EQ(events[2].phase, TraceEvent::Phase::kInstant);
    EXPECT_EQ(events[2].start_ns, 150);
}

TEST(TraceTest, OpenSpansAreNeverExported)
{
    SimClock clock;
    TraceRecorder rec(&clock);
    const u64 open = rec.beginSpan("left.open", "stage");
    rec.instant("marker", "stage");
    EXPECT_EQ(rec.events().size(), 1u);
    EXPECT_EQ(rec.events()[0].name, "marker");
    rec.endSpan(open);
    EXPECT_EQ(rec.events().size(), 2u);
    rec.endSpan(open); // idempotent
    EXPECT_EQ(rec.events().size(), 2u);
}

TEST(TraceTest, DisabledRecorderZeroAllocation)
{
    // The production discipline: a null recorder must cost a pointer
    // test — no allocation, no clock read (Span holds no clock at all).
    const u64 before = g_allocs.load();
    for (int i = 0; i < 1000; ++i) {
        Span s(nullptr, "cold_start.weights", "stage");
        s.arg("ignored", "ignored");
        s.end();
    }
    EXPECT_EQ(g_allocs.load(), before);
}

TEST(TraceTest, DeterministicExportUnderConcurrentAppends)
{
    // Pre-timed events appended from several threads in a racy order must
    // export byte-identically to a serial append: the exporter sorts
    // into canonical (start, track, dur, name) order.
    auto make_event = [](std::size_t i) {
        TraceEvent ev;
        ev.name = "restore.graphs.build." + std::to_string(i % 7);
        ev.category = "restore";
        ev.track = static_cast<u32>(i % 3);
        ev.start_ns = static_cast<i64>((i * 37) % 11) * 1000;
        ev.dur_ns = static_cast<i64>(i % 5 + 1) * 100;
        return ev;
    };
    constexpr std::size_t kEvents = 200;

    TraceRecorder serial;
    for (std::size_t i = 0; i < kEvents; ++i) {
        serial.append(make_event(i));
    }
    const std::string golden = serial.toChromeJson();

    for (u32 threads : {2u, 5u}) {
        TraceRecorder racy;
        std::vector<std::thread> workers;
        for (u32 t = 0; t < threads; ++t) {
            workers.emplace_back([&racy, &make_event, t, threads]() {
                for (std::size_t i = t; i < kEvents; i += threads) {
                    racy.append(make_event(i));
                }
            });
        }
        for (std::thread &w : workers) {
            w.join();
        }
        EXPECT_EQ(racy.toChromeJson(), golden)
            << "trace export depends on thread count " << threads;
    }
}

TEST(TraceTest, ChromeExportGolden)
{
    TraceRecorder rec;
    rec.setTrackName(0, "main");
    rec.complete("cold_start.weights", "stage", 0, 1500, 2000000);
    TraceEvent instant;
    instant.name = "cache.hit";
    instant.category = "cache";
    instant.phase = TraceEvent::Phase::kInstant;
    instant.start_ns = 2500;
    instant.args.emplace_back("key", "llama-7b");
    rec.append(std::move(instant));

    const std::string expected =
        "{\"displayTimeUnit\":\"ms\",\"medusa\":{\"schema_version\":1},"
        "\"traceEvents\":["
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"main\"}},"
        "{\"name\":\"cold_start.weights\",\"cat\":\"stage\",\"ph\":\"X\","
        "\"pid\":0,\"tid\":0,\"ts\":1.500,\"dur\":2000},"
        "{\"name\":\"cache.hit\",\"cat\":\"cache\",\"ph\":\"i\","
        "\"pid\":0,\"tid\":0,\"ts\":2.500,\"s\":\"t\","
        "\"args\":{\"key\":\"llama-7b\"}}"
        "]}";
    EXPECT_EQ(rec.toChromeJson(), expected);
}

TEST(TraceTest, EventsFromSlicesAtMark)
{
    SimClock clock;
    TraceRecorder rec(&clock);
    rec.instant("before", "stage");
    const std::size_t mark = rec.eventCount();
    clock.advance(10);
    rec.instant("after", "stage");
    const auto tail = rec.eventsFrom(mark);
    ASSERT_EQ(tail.size(), 1u);
    EXPECT_EQ(tail[0].name, "after");
}

TEST(TraceTest, AppendAllShiftsTracks)
{
    TraceRecorder rank;
    rank.complete("tp.rank_restore", "restore", 0, 0, 100);
    TraceRecorder merged;
    merged.appendAll(rank.events(), /*track_offset=*/3);
    const auto events = merged.events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].track, 3u);
}

TEST(TraceTest, ClearDropsEventsKeepsTrackNames)
{
    TraceRecorder rec;
    rec.setTrackName(0, "main");
    rec.complete("x", "stage", 0, 0, 1);
    rec.clear();
    EXPECT_EQ(rec.eventCount(), 0u);
    EXPECT_NE(rec.toChromeJson().find("\"main\""), std::string::npos);
}

} // namespace
} // namespace medusa
