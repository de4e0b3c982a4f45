/**
 * @file
 * The zero-allocation discrete-event engine behind the scaled cluster
 * simulator (DESIGN.md §15).
 *
 * A std::function per event inside a std::priority_queue would let
 * every schedule() heap-allocate a closure, move a 48-byte element
 * through every sift, and cancel only by tombstoning (stale events
 * fire and no-op). At 10^7 events that overhead dominates the run.
 *
 * EventEngine uses plain data instead:
 *
 *  - events are a POD payload (a typed tag + a few words, dispatched
 *    by `switch` in the caller's handler) stored in a slab with a
 *    LIFO free-list — steady-state scheduling allocates nothing;
 *  - the ready queue is an *indexed* 4-ary min-heap keyed by
 *    (time, seq): 4-ary halves the sift depth vs binary and keeps the
 *    hot path inside one cache line per level, and the slab's
 *    heap-position back-pointers give O(log n) cancel() and
 *    reschedule() (decrease-key) instead of tombstone closures;
 *  - handles carry a generation counter, so cancelling an event whose
 *    slot was already recycled is a safe no-op.
 *
 * Determinism contract: events fire in strictly non-decreasing time,
 * FIFO among equal times (seq order) — the cluster simulator's golden
 * outputs (cluster_equiv_test) rely on it.
 */

#ifndef MEDUSA_SERVERLESS_EVENT_ENGINE_H
#define MEDUSA_SERVERLESS_EVENT_ENGINE_H

#include <vector>

#include "common/logging.h"
#include "common/types.h"

namespace medusa::serverless {

/**
 * A scheduled-event handle: slab slot + generation. Default-constructed
 * handles are invalid; handles of fired or cancelled events go stale
 * (their slot's generation moved on) and cancel() on them is a no-op.
 */
struct EventHandle
{
    static constexpr u32 kInvalidSlot = 0xffffffffu;

    u32 slot = kInvalidSlot;
    u32 gen = 0;

    bool valid() const { return slot != kInvalidSlot; }
};

/**
 * The engine, templated over the caller's POD payload (the typed event
 * tag + its arguments). See file comment.
 */
template <typename Payload>
class EventEngine
{
  public:
    /** Schedule @p payload at absolute virtual time @p at_sec (>= now). */
    EventHandle
    schedule(f64 at_sec, const Payload &payload)
    {
        MEDUSA_CHECK(at_sec >= now_ - 1e-12,
                     "event scheduled in the past");
        u32 slot;
        if (!free_.empty()) {
            slot = free_.back();
            free_.pop_back();
        } else {
            slot = static_cast<u32>(slots_.size());
            slots_.emplace_back();
        }
        Slot &s = slots_[slot];
        s.time = at_sec;
        s.seq = next_seq_++;
        s.payload = payload;
        s.heap_pos = static_cast<u32>(heap_.size());
        heap_.push_back(slot);
        siftUp(s.heap_pos);
        return EventHandle{slot, s.gen};
    }

    /** Schedule after a non-negative delay. */
    EventHandle
    scheduleAfter(f64 delay_sec, const Payload &payload)
    {
        return schedule(now_ + delay_sec, payload);
    }

    /**
     * Remove a pending event in O(log n). Returns false (and does
     * nothing) when the handle is stale — the event already fired, was
     * cancelled, or its slot was recycled.
     */
    bool
    cancel(EventHandle h)
    {
        if (!alive(h)) {
            return false;
        }
        removeAt(slots_[h.slot].heap_pos);
        release(h.slot);
        return true;
    }

    /**
     * Move a pending event to a new absolute time in O(log n),
     * preserving its seq (and hence its FIFO rank among equal times).
     * Returns false when the handle is stale.
     */
    bool
    reschedule(EventHandle h, f64 at_sec)
    {
        if (!alive(h)) {
            return false;
        }
        MEDUSA_CHECK(at_sec >= now_ - 1e-12,
                     "event rescheduled into the past");
        Slot &s = slots_[h.slot];
        const f64 old = s.time;
        s.time = at_sec;
        if (at_sec < old) {
            siftUp(s.heap_pos);
        } else {
            siftDown(s.heap_pos);
        }
        return true;
    }

    /** True when @p h names a still-pending event. */
    bool
    alive(EventHandle h) const
    {
        return h.slot < slots_.size() && slots_[h.slot].gen == h.gen &&
               slots_[h.slot].heap_pos != kNotQueued;
    }

    /**
     * Drain the queue: pop the minimum (time, seq) event, advance the
     * clock, recycle the slot, and hand the payload to @p fn — which may
     * schedule or cancel freely. Returns the final time.
     */
    template <typename Fn>
    f64
    run(Fn &&fn)
    {
        while (!heap_.empty()) {
            const u32 slot = heap_[0];
            Slot &s = slots_[slot];
            now_ = s.time;
            const Payload payload = s.payload;
            removeAt(0);
            release(slot);
            ++dispatched_;
            fn(payload);
        }
        return now_;
    }

    /**
     * Pop-and-dispatch a single event (callers that merge an external
     * sorted event source — e.g. a trace's arrival stream — into the
     * loop). Precondition: !empty().
     */
    template <typename Fn>
    void
    step(Fn &&fn)
    {
        MEDUSA_CHECK(!heap_.empty(), "step() on an empty engine");
        const u32 slot = heap_[0];
        Slot &s = slots_[slot];
        now_ = s.time;
        const Payload payload = s.payload;
        removeAt(0);
        release(slot);
        ++dispatched_;
        fn(payload);
    }

    /** Advance the clock without dispatching (external event sources). */
    void
    advanceTo(f64 at_sec)
    {
        MEDUSA_CHECK(at_sec >= now_ - 1e-12, "clock moved backwards");
        now_ = at_sec;
    }

    f64 now() const { return now_; }
    bool empty() const { return heap_.empty(); }
    std::size_t pending() const { return heap_.size(); }
    /** (time, seq) of the earliest pending event; empty() must be false. */
    f64 peekTime() const { return slots_[heap_[0]].time; }
    u64 peekSeq() const { return slots_[heap_[0]].seq; }
    /** Events dispatched so far (for events/sec accounting). */
    u64 dispatched() const { return dispatched_; }
    /** Slab capacity (high-water mark of concurrently pending events). */
    std::size_t slabSize() const { return slots_.size(); }

  private:
    static constexpr u32 kNotQueued = 0xffffffffu;

    struct Slot
    {
        f64 time = 0;
        u64 seq = 0;
        u32 gen = 0;
        u32 heap_pos = kNotQueued;
        Payload payload{};
    };

    /** Strict (time, seq) ordering between two queued slots. */
    bool
    before(u32 a, u32 b) const
    {
        const Slot &sa = slots_[a];
        const Slot &sb = slots_[b];
        if (sa.time != sb.time) {
            return sa.time < sb.time;
        }
        return sa.seq < sb.seq;
    }

    void
    place(u32 pos, u32 slot)
    {
        heap_[pos] = slot;
        slots_[slot].heap_pos = pos;
    }

    void
    siftUp(u32 pos)
    {
        const u32 slot = heap_[pos];
        while (pos > 0) {
            const u32 parent = (pos - 1) / 4;
            if (!before(slot, heap_[parent])) {
                break;
            }
            place(pos, heap_[parent]);
            pos = parent;
        }
        place(pos, slot);
    }

    void
    siftDown(u32 pos)
    {
        const u32 slot = heap_[pos];
        const u32 n = static_cast<u32>(heap_.size());
        for (;;) {
            const u32 first = pos * 4 + 1;
            if (first >= n) {
                break;
            }
            u32 best = first;
            const u32 last = first + 4 < n ? first + 4 : n;
            for (u32 c = first + 1; c < last; ++c) {
                if (before(heap_[c], heap_[best])) {
                    best = c;
                }
            }
            if (!before(heap_[best], slot)) {
                break;
            }
            place(pos, heap_[best]);
            pos = best;
        }
        place(pos, slot);
    }

    /** Detach the heap entry at @p pos (the slot stays allocated). */
    void
    removeAt(u32 pos)
    {
        const u32 slot = heap_[pos];
        const u32 last = heap_.back();
        heap_.pop_back();
        slots_[slot].heap_pos = kNotQueued;
        if (slot == last) {
            return;
        }
        place(pos, last);
        // The displaced element may need to travel either direction.
        siftUp(pos);
        siftDown(slots_[last].heap_pos);
    }

    /** Return a slot to the free list, invalidating outstanding handles. */
    void
    release(u32 slot)
    {
        ++slots_[slot].gen;
        free_.push_back(slot);
    }

    std::vector<Slot> slots_;
    std::vector<u32> heap_;
    std::vector<u32> free_;
    f64 now_ = 0;
    u64 next_seq_ = 0;
    u64 dispatched_ = 0;
};

} // namespace medusa::serverless

#endif // MEDUSA_SERVERLESS_EVENT_ENGINE_H
