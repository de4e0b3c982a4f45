#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/json.h"
#include "common/logging.h"

namespace medusa {

namespace {

/** Shortest-round-trip double formatting; NaN/inf become null. */
void
appendJsonNumber(std::string &out, f64 v)
{
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    // Prefer a shorter form when it round-trips.
    for (int prec = 1; prec < 17; ++prec) {
        char probe[64];
        std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
        if (std::strtod(probe, nullptr) == v) {
            std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
            break;
        }
    }
    out += buf;
}

} // namespace

HistogramMetric::HistogramMetric(f64 lo, f64 hi, u32 buckets)
    : lo_(lo), hi_(hi), buckets_(std::max<u32>(buckets, 1), 0)
{
    MEDUSA_CHECK(hi > lo, "histogram range must be non-empty");
}

void
HistogramMetric::record(f64 value)
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto n = static_cast<f64>(buckets_.size());
    auto idx = static_cast<i64>((value - lo_) / (hi_ - lo_) * n);
    idx = std::clamp<i64>(idx, 0, static_cast<i64>(buckets_.size()) - 1);
    ++buckets_[static_cast<std::size_t>(idx)];
    ++count_;
    sum_ += value;
}

u64
HistogramMetric::count() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
}

f64
HistogramMetric::sum() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return sum_;
}

std::vector<u64>
HistogramMetric::bucketCounts() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return buckets_;
}

MetricsSnapshot::MetricsSnapshot(std::vector<MetricsEntry> entries)
    : entries_(std::move(entries))
{
    std::sort(entries_.begin(), entries_.end(),
              [](const MetricsEntry &a, const MetricsEntry &b) {
                  return a.name < b.name;
              });
}

const MetricsEntry *
MetricsSnapshot::find(std::string_view name) const
{
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), name,
        [](const MetricsEntry &e, std::string_view n) { return e.name < n; });
    if (it == entries_.end() || it->name != name) {
        return nullptr;
    }
    return &*it;
}

u64
MetricsSnapshot::counterValue(std::string_view name) const
{
    const MetricsEntry *e = find(name);
    return e != nullptr ? e->counter : 0;
}

f64
MetricsSnapshot::gaugeValue(std::string_view name) const
{
    const MetricsEntry *e = find(name);
    return e != nullptr ? e->gauge : 0.0;
}

bool
MetricsSnapshot::has(std::string_view name) const
{
    return find(name) != nullptr;
}

std::string
MetricsSnapshot::toJson() const
{
    std::string out;
    out += "{\"schema_version\":";
    out += std::to_string(kMetricsJsonSchemaVersion);
    out += ",\"metrics\":{";
    bool first = true;
    for (const MetricsEntry &e : entries_) {
        if (!first) {
            out += ',';
        }
        first = false;
        appendJsonString(out, e.name);
        out += ':';
        switch (e.kind) {
        case MetricsEntry::Kind::kCounter:
            out += std::to_string(e.counter);
            break;
        case MetricsEntry::Kind::kGauge:
            appendJsonNumber(out, e.gauge);
            break;
        case MetricsEntry::Kind::kHistogram:
            out += "{\"count\":";
            out += std::to_string(e.histo_count);
            out += ",\"sum\":";
            appendJsonNumber(out, e.histo_sum);
            out += ",\"lo\":";
            appendJsonNumber(out, e.histo_lo);
            out += ",\"hi\":";
            appendJsonNumber(out, e.histo_hi);
            out += ",\"buckets\":[";
            for (std::size_t i = 0; i < e.histo_buckets.size(); ++i) {
                if (i != 0) {
                    out += ',';
                }
                out += std::to_string(e.histo_buckets[i]);
            }
            out += "]}";
            break;
        }
    }
    out += "}}";
    return out;
}

Counter &
MetricsRegistry::counter(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(name);
    if (it == slots_.end()) {
        Slot slot;
        slot.kind = MetricsEntry::Kind::kCounter;
        slot.counter = std::make_unique<Counter>();
        it = slots_.emplace(std::string(name), std::move(slot)).first;
    }
    MEDUSA_CHECK(it->second.kind == MetricsEntry::Kind::kCounter, "metric re-registered with a different kind");
    return *it->second.counter;
}

Gauge &
MetricsRegistry::gauge(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(name);
    if (it == slots_.end()) {
        Slot slot;
        slot.kind = MetricsEntry::Kind::kGauge;
        slot.gauge = std::make_unique<Gauge>();
        it = slots_.emplace(std::string(name), std::move(slot)).first;
    }
    MEDUSA_CHECK(it->second.kind == MetricsEntry::Kind::kGauge, "metric re-registered with a different kind");
    return *it->second.gauge;
}

HistogramMetric &
MetricsRegistry::histogram(std::string_view name, f64 lo, f64 hi, u32 buckets)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(name);
    if (it == slots_.end()) {
        Slot slot;
        slot.kind = MetricsEntry::Kind::kHistogram;
        slot.histogram = std::make_unique<HistogramMetric>(lo, hi, buckets);
        it = slots_.emplace(std::string(name), std::move(slot)).first;
    }
    MEDUSA_CHECK(it->second.kind == MetricsEntry::Kind::kHistogram, "metric re-registered with a different kind");
    return *it->second.histogram;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::vector<MetricsEntry> entries;
    std::lock_guard<std::mutex> lock(mu_);
    entries.reserve(slots_.size());
    for (const auto &[name, slot] : slots_) {
        MetricsEntry e;
        e.name = name;
        e.kind = slot.kind;
        switch (slot.kind) {
        case MetricsEntry::Kind::kCounter:
            e.counter = slot.counter->value();
            break;
        case MetricsEntry::Kind::kGauge:
            e.gauge = slot.gauge->value();
            break;
        case MetricsEntry::Kind::kHistogram:
            e.histo_lo = slot.histogram->lo();
            e.histo_hi = slot.histogram->hi();
            e.histo_buckets = slot.histogram->bucketCounts();
            e.histo_count = slot.histogram->count();
            e.histo_sum = slot.histogram->sum();
            break;
        }
        entries.push_back(std::move(e));
    }
    return MetricsSnapshot(std::move(entries));
}

void
MetricsRegistry::mergeFrom(const MetricsSnapshot &snap)
{
    for (const MetricsEntry &e : snap.entries()) {
        switch (e.kind) {
        case MetricsEntry::Kind::kCounter:
            counter(e.name).add(e.counter);
            break;
        case MetricsEntry::Kind::kGauge:
            gauge(e.name).add(e.gauge);
            break;
        case MetricsEntry::Kind::kHistogram: {
            HistogramMetric &h = histogram(
                e.name, e.histo_lo, e.histo_hi,
                static_cast<u32>(e.histo_buckets.size()));
            // Replay bucket midpoints; count/sum stay faithful because
            // the shapes match for same-named histograms.
            const f64 width =
                (e.histo_hi - e.histo_lo) /
                static_cast<f64>(e.histo_buckets.size());
            for (std::size_t i = 0; i < e.histo_buckets.size(); ++i) {
                const f64 mid =
                    e.histo_lo + (static_cast<f64>(i) + 0.5) * width;
                for (u64 n = 0; n < e.histo_buckets[i]; ++n) {
                    h.record(mid);
                }
            }
            break;
        }
        }
    }
}

std::string
MetricsRegistry::toJson() const
{
    return snapshot().toJson();
}

} // namespace medusa
