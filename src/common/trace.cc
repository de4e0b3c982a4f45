#include "common/trace.h"

#include <algorithm>
#include <cstdio>

#include "common/json.h"
#include "common/logging.h"

namespace medusa {

namespace {

/**
 * Emit a nanosecond count as a microsecond decimal with three fraction
 * digits, without going through floating point (keeps export
 * byte-identical across libc printf implementations).
 */
void
appendMicros(std::string &out, i64 ns)
{
    if (ns < 0) {
        out += '-';
        ns = -ns;
    }
    out += std::to_string(ns / 1000);
    const i64 frac = ns % 1000;
    if (frac != 0) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), ".%03d", static_cast<int>(frac));
        out += buf;
    }
}

} // namespace

u64
TraceRecorder::beginSpan(std::string_view name, std::string_view category,
                         u32 track)
{
    const i64 now = readClock();
    std::lock_guard<std::mutex> lock(mu_);
    const u64 handle = events_.size();
    TraceEvent ev;
    ev.name = std::string(name);
    ev.category = std::string(category);
    ev.phase = TraceEvent::Phase::kComplete;
    ev.track = track;
    ev.start_ns = now;
    events_.push_back(std::move(ev));
    open_.push_back(true);
    return handle;
}

void
TraceRecorder::endSpan(u64 handle)
{
    const i64 now = readClock();
    std::lock_guard<std::mutex> lock(mu_);
    MEDUSA_CHECK(handle < events_.size(), "bad span handle");
    if (!open_[handle]) {
        return;
    }
    open_[handle] = false;
    events_[handle].dur_ns = now - events_[handle].start_ns;
}

void
TraceRecorder::setArg(u64 handle, std::string_view key,
                      std::string_view value)
{
    std::lock_guard<std::mutex> lock(mu_);
    MEDUSA_CHECK(handle < events_.size(), "bad span handle");
    events_[handle].args.emplace_back(std::string(key), std::string(value));
}

void
TraceRecorder::instant(std::string_view name, std::string_view category,
                       u32 track)
{
    const i64 now = readClock();
    std::lock_guard<std::mutex> lock(mu_);
    TraceEvent ev;
    ev.name = std::string(name);
    ev.category = std::string(category);
    ev.phase = TraceEvent::Phase::kInstant;
    ev.track = track;
    ev.start_ns = now;
    events_.push_back(std::move(ev));
    open_.push_back(false);
}

void
TraceRecorder::complete(std::string_view name, std::string_view category,
                        u32 track, i64 start_ns, i64 dur_ns)
{
    std::lock_guard<std::mutex> lock(mu_);
    TraceEvent ev;
    ev.name = std::string(name);
    ev.category = std::string(category);
    ev.phase = TraceEvent::Phase::kComplete;
    ev.track = track;
    ev.start_ns = start_ns;
    ev.dur_ns = dur_ns;
    events_.push_back(std::move(ev));
    open_.push_back(false);
}

void
TraceRecorder::append(TraceEvent event)
{
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(std::move(event));
    open_.push_back(false);
}

void
TraceRecorder::appendAll(std::span<const TraceEvent> events,
                         u32 track_offset)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const TraceEvent &ev : events) {
        events_.push_back(ev);
        events_.back().track += track_offset;
        open_.push_back(false);
    }
}

void
TraceRecorder::setTrackName(u32 track, std::string name)
{
    std::lock_guard<std::mutex> lock(mu_);
    track_names_[track] = std::move(name);
}

std::size_t
TraceRecorder::eventCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
}

std::vector<TraceEvent>
TraceRecorder::events() const
{
    return eventsFrom(0);
}

std::vector<TraceEvent>
TraceRecorder::eventsFrom(std::size_t first) const
{
    std::vector<TraceEvent> out;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (std::size_t i = first; i < events_.size(); ++i) {
            if (open_[i]) {
                continue; // Never export half-open spans.
            }
            out.push_back(events_[i]);
        }
    }
    canonicalizeEventOrder(out);
    return out;
}

std::string
TraceRecorder::toChromeJson() const
{
    std::map<u32, std::string> names;
    {
        std::lock_guard<std::mutex> lock(mu_);
        names = track_names_;
    }
    return traceEventsToChromeJson(events(), names);
}

void
TraceRecorder::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
    open_.clear();
}

void
canonicalizeEventOrder(std::vector<TraceEvent> &events)
{
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         if (a.start_ns != b.start_ns) {
                             return a.start_ns < b.start_ns;
                         }
                         if (a.track != b.track) {
                             return a.track < b.track;
                         }
                         // Longer span first so parents precede children
                         // that start at the same instant.
                         if (a.dur_ns != b.dur_ns) {
                             return a.dur_ns > b.dur_ns;
                         }
                         return a.name < b.name;
                     });
}

std::string
traceEventsToChromeJson(std::span<const TraceEvent> events,
                        const std::map<u32, std::string> &track_names)
{
    std::string out;
    out.reserve(256 + events.size() * 96);
    out += "{\"displayTimeUnit\":\"ms\",\"medusa\":{\"schema_version\":";
    out += std::to_string(kTraceJsonSchemaVersion);
    out += "},\"traceEvents\":[";
    bool first = true;
    for (const auto &[track, name] : track_names) {
        if (!first) {
            out += ',';
        }
        first = false;
        out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":";
        out += std::to_string(track);
        out += ",\"args\":{\"name\":";
        appendJsonString(out, name);
        out += "}}";
    }
    for (const TraceEvent &ev : events) {
        if (!first) {
            out += ',';
        }
        first = false;
        out += "{\"name\":";
        appendJsonString(out, ev.name);
        if (!ev.category.empty()) {
            out += ",\"cat\":";
            appendJsonString(out, ev.category);
        }
        out += ",\"ph\":\"";
        out += ev.phase == TraceEvent::Phase::kComplete ? 'X' : 'i';
        out += "\",\"pid\":0,\"tid\":";
        out += std::to_string(ev.track);
        out += ",\"ts\":";
        appendMicros(out, ev.start_ns);
        if (ev.phase == TraceEvent::Phase::kComplete) {
            out += ",\"dur\":";
            appendMicros(out, ev.dur_ns);
        } else {
            out += ",\"s\":\"t\"";
        }
        if (!ev.args.empty()) {
            out += ",\"args\":{";
            bool first_arg = true;
            for (const auto &[key, value] : ev.args) {
                if (!first_arg) {
                    out += ',';
                }
                first_arg = false;
                appendJsonString(out, key);
                out += ':';
                appendJsonString(out, value);
            }
            out += '}';
        }
        out += '}';
    }
    out += "]}";
    return out;
}

} // namespace medusa
