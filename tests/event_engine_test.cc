/**
 * @file
 * Tests of the zero-allocation EventEngine (DESIGN.md §15): (time, seq)
 * dispatch order, O(log n) cancellation and reschedule, slab recycling
 * with generation-guarded handles, and a randomized stress run checked
 * against a stable-sort reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/rng.h"
#include "serverless/event_engine.h"

namespace medusa::serverless {
namespace {

/** The payload every test uses: an id to record dispatch order. */
struct Tag
{
    int id = 0;
};

using Engine = EventEngine<Tag>;

std::vector<int>
drain(Engine &engine)
{
    std::vector<int> order;
    engine.run([&](const Tag &t) { order.push_back(t.id); });
    return order;
}

TEST(EventEngineTest, RunsInTimeOrder)
{
    Engine engine;
    engine.schedule(3.0, Tag{3});
    engine.schedule(1.0, Tag{1});
    engine.schedule(2.0, Tag{2});
    EXPECT_EQ(drain(engine), (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(engine.now(), 3.0);
    EXPECT_EQ(engine.dispatched(), 3u);
}

TEST(EventEngineTest, SameTimeIsFifo)
{
    Engine engine;
    for (int i = 0; i < 16; ++i) {
        engine.schedule(1.0, Tag{i});
    }
    std::vector<int> expect;
    for (int i = 0; i < 16; ++i) {
        expect.push_back(i);
    }
    EXPECT_EQ(drain(engine), expect);
}

TEST(EventEngineTest, HandlersCanScheduleMore)
{
    Engine engine;
    std::vector<int> order;
    engine.schedule(1.0, Tag{1});
    engine.run([&](const Tag &t) {
        order.push_back(t.id);
        if (t.id == 1) {
            engine.scheduleAfter(0.5, Tag{2});
        }
    });
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_DOUBLE_EQ(engine.now(), 1.5);
}

TEST(EventEngineTest, CancelRemovesPendingEvent)
{
    Engine engine;
    engine.schedule(1.0, Tag{1});
    const EventHandle h = engine.schedule(2.0, Tag{2});
    engine.schedule(3.0, Tag{3});
    EXPECT_TRUE(engine.alive(h));
    EXPECT_TRUE(engine.cancel(h));
    EXPECT_FALSE(engine.alive(h));
    EXPECT_FALSE(engine.cancel(h)); // second cancel is a no-op
    EXPECT_EQ(drain(engine), (std::vector<int>{1, 3}));
}

TEST(EventEngineTest, CancelDefaultHandleIsNoop)
{
    Engine engine;
    EXPECT_FALSE(engine.cancel(EventHandle{}));
    EXPECT_FALSE(engine.alive(EventHandle{}));
}

TEST(EventEngineTest, StaleHandleAfterSlotRecycleIsNoop)
{
    Engine engine;
    const EventHandle h = engine.schedule(1.0, Tag{1});
    EXPECT_TRUE(engine.cancel(h));
    // The slot is recycled by the next schedule; the old handle's
    // generation no longer matches and must not cancel the new event.
    engine.schedule(2.0, Tag{2});
    EXPECT_FALSE(engine.cancel(h));
    EXPECT_EQ(drain(engine), (std::vector<int>{2}));
}

TEST(EventEngineTest, HandleGoesStaleAfterDispatch)
{
    Engine engine;
    const EventHandle h = engine.schedule(1.0, Tag{1});
    EXPECT_EQ(drain(engine), (std::vector<int>{1}));
    EXPECT_FALSE(engine.alive(h));
    EXPECT_FALSE(engine.cancel(h));
}

TEST(EventEngineTest, ReschedulePreservesSeqRank)
{
    Engine engine;
    // a scheduled first (lower seq), then b; moving a to b's time must
    // keep a ahead of b (FIFO by original seq, the decrease-key
    // contract).
    const EventHandle a = engine.schedule(5.0, Tag{1});
    engine.schedule(2.0, Tag{2});
    EXPECT_TRUE(engine.reschedule(a, 2.0));
    EXPECT_EQ(drain(engine), (std::vector<int>{1, 2}));
    // Rescheduling a dispatched event is a no-op.
    EXPECT_FALSE(engine.reschedule(a, 9.0));
}

TEST(EventEngineTest, SlabReusesSlots)
{
    Engine engine;
    for (int round = 0; round < 100; ++round) {
        engine.schedule(round + 1.0, Tag{round});
        engine.run([](const Tag &) {});
    }
    // One pending event at a time: the slab never grows past the
    // high-water mark of concurrently pending events.
    EXPECT_EQ(engine.slabSize(), 1u);
}

TEST(EventEngineTest, AdvanceToMovesClockWithoutDispatch)
{
    Engine engine;
    engine.advanceTo(4.0);
    EXPECT_DOUBLE_EQ(engine.now(), 4.0);
    engine.schedule(5.0, Tag{1});
    EXPECT_DOUBLE_EQ(engine.peekTime(), 5.0);
    EXPECT_EQ(engine.pending(), 1u);
    EXPECT_EQ(drain(engine), (std::vector<int>{1}));
}

/**
 * Randomized oracle test: a mixed schedule/cancel workload must
 * dispatch the surviving events in (time, seq) order. Ids are issued in
 * schedule order, so the reference is the surviving (time, id) pairs
 * stable-sorted by time. Whole-second times make ties common, so the
 * FIFO tie-break is exercised too.
 */
TEST(EventEngineTest, StressMatchesStableSortReference)
{
    Rng rng(20250808);
    Engine engine;
    std::vector<std::pair<f64, int>> scheduled;
    std::vector<EventHandle> handles;
    std::vector<bool> cancelled;

    for (int id = 0; id < 1000; ++id) {
        const f64 at = std::floor(rng.nextDouble() * 100.0);
        scheduled.emplace_back(at, id);
        handles.push_back(engine.schedule(at, Tag{id}));
        cancelled.push_back(false);
    }
    // Cancel a random subset before running.
    for (int i = 0; i < 300; ++i) {
        const u64 pick = rng.nextBounded(handles.size());
        if (engine.cancel(handles[pick])) {
            cancelled[pick] = true;
        }
    }

    std::vector<std::pair<f64, int>> survivors;
    for (const auto &event : scheduled) {
        if (!cancelled[static_cast<std::size_t>(event.second)]) {
            survivors.push_back(event);
        }
    }
    std::stable_sort(survivors.begin(), survivors.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    std::vector<int> want;
    for (const auto &event : survivors) {
        want.push_back(event.second);
    }
    EXPECT_GT(want.size(), 700u);
    EXPECT_EQ(drain(engine), want);
}

} // namespace
} // namespace medusa::serverless
