#include "common/cold_start_report.h"

namespace medusa {

f64
ColdStartReport::spanSec(std::string_view name) const
{
    i64 total_ns = 0;
    for (const TraceEvent &ev : spans) {
        if (ev.name == name && ev.phase == TraceEvent::Phase::kComplete) {
            total_ns += ev.dur_ns;
        }
    }
    return units::nsToSec(total_ns);
}

u64
ColdStartReport::spanCount(std::string_view name) const
{
    u64 n = 0;
    for (const TraceEvent &ev : spans) {
        if (ev.name == name) {
            ++n;
        }
    }
    return n;
}

void
publishRestoreMetrics(const RestoreReport &report, MetricsRegistry &registry)
{
    registry.counter("restore.nodes").add(report.nodes_restored);
    registry.counter("restore.graphs").add(report.graphs_restored);
    registry.counter("restore.kernels_via_dlsym")
        .add(report.kernels_via_dlsym);
    registry.counter("restore.kernels_via_enumeration")
        .add(report.kernels_via_enumeration);
    registry.counter("restore.replayed_allocs").add(report.replayed_allocs);
    registry.counter("restore.replayed_frees").add(report.replayed_frees);
    registry.counter("restore.content_bytes")
        .add(report.restored_content_bytes);
    registry.counter("restore.indirect_pointers_fixed")
        .add(report.indirect_pointers_fixed);
    registry.counter("restore.relocations_applied")
        .add(report.relocations_applied);
    registry.counter("restore.kernels_resolved")
        .add(report.kernels_resolved);
    registry.counter("restore.graphs_patched").add(report.graphs_patched);
    registry.counter("restore.attempts").add(report.restore_attempts);
    registry.counter("restore.failures").add(report.restore_failures);
    registry.counter("restore.retries").add(report.retries);
    if (report.fallback_vanilla) {
        registry.counter("restore.fallback_vanilla").add(1);
    }
    if (report.validated) {
        registry.counter("restore.validated").add(1);
    }
    registry.gauge("restore.wasted_sec").add(report.wasted_restore_sec);
    registry.gauge("restore.backoff_sec").add(report.backoff_sec);
}

void
handOffColdStart(ColdStartReport &report, std::vector<TraceEvent> spans,
                 MetricsRegistry &registry, TraceRecorder *trace,
                 MetricsRegistry *metrics)
{
    report.spans = std::move(spans);
    if (trace != nullptr) {
        trace->appendAll(report.spans);
    }
    publishRestoreMetrics(report.restore, registry);
    report.metrics = registry.snapshot();
    if (metrics != nullptr) {
        metrics->mergeFrom(report.metrics);
    }
}

} // namespace medusa
