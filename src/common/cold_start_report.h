/**
 * @file
 * The consolidated cold-start reporting schema (DESIGN.md §12). Every
 * cold-start driver — the baseline strategies (llm::BaselineEngine),
 * the single-GPU Medusa restore (core::MedusaEngine) and the
 * tensor-parallel driver (core::TpMedusaEngine) — fills one
 * ColdStartReport: outcome, per-stage times, restore counters,
 * the run's spans and a metrics snapshot. Benches and the cluster
 * simulator consume this one schema instead of five per-subsystem
 * structs.
 *
 * StageTimes and RestoreReport (they predate the unified report) are
 * defined here too, in namespace medusa.
 */

#ifndef MEDUSA_COMMON_COLD_START_REPORT_H
#define MEDUSA_COMMON_COLD_START_REPORT_H

#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "common/types.h"

namespace medusa {

/** Measured per-stage latencies and the composed visible latencies. */
struct StageTimes
{
    // Raw per-stage durations (virtual seconds).
    f64 struct_init = 0;
    f64 weights = 0;
    f64 tokenizer = 0;
    f64 kv_init = 0;
    f64 capture = 0;

    /** Runtime (container/Python) initialization before loading. */
    f64 runtime_init = 0;
    /** Composed, visible loading-phase latency for the strategy. */
    f64 loading = 0;

    f64 coldStart() const { return runtime_init + loading; }
    /** Sum of the raw stage durations (the fully-serial lower bound). */
    f64
    serialSum() const
    {
        return struct_init + weights + tokenizer + kv_init + capture;
    }
};

/** What the restoration did (for benches and tests). */
struct RestoreReport
{
    u64 nodes_restored = 0;
    u64 graphs_restored = 0;
    u64 kernels_via_dlsym = 0;
    u64 kernels_via_enumeration = 0;
    u64 replayed_allocs = 0;
    u64 replayed_frees = 0;
    u64 restored_content_bytes = 0;
    /** Indirect pointer words rewritten after replay (§8 extension). */
    u64 indirect_pointers_fixed = 0;
    bool validated = false;

    // ---- v6 relocation-patch counters ---------------------------------
    /** Relocation entries applied by the in-place patch pass. */
    u64 relocations_applied = 0;
    /** Distinct kernels resolved for the image's kernel table. */
    u64 kernels_resolved = 0;
    /** Graphs instantiated directly from the patched image. */
    u64 graphs_patched = 0;

    // ---- transactional-restore outcome (all zero without faults) -----
    /** Restore attempts started (1 for a clean first-try success). */
    u64 restore_attempts = 0;
    /** Attempts that failed and were rolled back. */
    u64 restore_failures = 0;
    /** Failed attempts that were retried (kRetryThenVanilla). */
    u64 retries = 0;
    /** True when the engine degraded to the vanilla cold start. */
    bool fallback_vanilla = false;
    /** Simulated seconds burned in failed restore attempts. */
    f64 wasted_restore_sec = 0;
    /** Simulated seconds slept in retry backoff. */
    f64 backoff_sec = 0;
    /** toString() of the last attempt failure (empty when none). */
    std::string last_failure;
};

/** How the cold start concluded. */
enum class ColdStartOutcome : u8
{
    /** A plain (baseline or vanilla-offline) cold start. */
    kColdStart = 0,
    /** Medusa restore succeeded on the first attempt. */
    kRestored,
    /** Medusa restore succeeded after >= 1 rolled-back retry. */
    kRestoredAfterRetry,
    /** Restore failed; the engine degraded to the vanilla path. */
    kFellBack,
};

/** See file comment. */
struct ColdStartReport
{
    ColdStartOutcome outcome = ColdStartOutcome::kColdStart;
    /** strategyName() of the path that produced the live engine. */
    std::string strategy;
    StageTimes times;
    /** Restore counters (default-initialized for baseline engines). */
    RestoreReport restore;
    /** The run's spans/instants, in canonical order, simulated time. */
    std::vector<TraceEvent> spans;
    MetricsSnapshot metrics;

    /** Total virtual seconds spent in spans named @p name. */
    f64 spanSec(std::string_view name) const;
    /** Number of events (spans or instants) named @p name. */
    u64 spanCount(std::string_view name) const;
    bool hasSpan(std::string_view name) const { return spanCount(name) > 0; }

    f64 loadingSec() const { return times.loading; }
    f64 coldStartSec() const { return times.coldStart(); }
};

/**
 * Publish the RestoreReport counters under the canonical `restore.*`
 * metric names (DESIGN.md §12 naming table).
 */
void publishRestoreMetrics(const RestoreReport &report,
                           MetricsRegistry &registry);

/**
 * The one hand-off every cold-start engine makes on every exit, success
 * or failure, once its local recorder exists: @p spans become
 * report.spans and are appended to @p trace; report.restore is
 * published (next to whatever @p registry already holds) into
 * report.metrics, which is merged into @p metrics. Either sink may be
 * null.
 */
void handOffColdStart(ColdStartReport &report,
                      std::vector<TraceEvent> spans,
                      MetricsRegistry &registry, TraceRecorder *trace,
                      MetricsRegistry *metrics);

} // namespace medusa

#endif // MEDUSA_COMMON_COLD_START_REPORT_H
