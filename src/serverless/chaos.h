/**
 * @file
 * Deterministic cluster-level chaos for the serverless simulator
 * (DESIGN.md §16).
 *
 * Where common/fault.h injects failures into the *restore stack* (a
 * single cold start's operations), a ChaosPlan injects failures into
 * the *cluster*: whole nodes crash and recover, serving instances die
 * mid-request, the shared artifact store goes dark or gray-slow. The
 * plan is a schedule, not a hook set — from one seed it pre-generates
 * every crash time, victim draw and outage window before the
 * simulation starts, so a given (trace, plan, seed) replays
 * bit-identically run after run (cluster_equiv_test's chaos suite).
 *
 * Event semantics inside the simulator (src/serve/scheduler.cc):
 *
 *  - node crash: every instance on the node dies instantly; their
 *    in-flight requests are requeued (bounded by SloPolicy retries);
 *    the node's artifact residency is wiped, so affinity routing must
 *    re-fetch after recovery; the node's GPUs are unavailable until
 *    the recovery event.
 *  - instance crash: one live instance (seeded draw over the live
 *    set) dies mid-serving; same requeue rules.
 *  - store outage: artifact fetches started inside the window hang
 *    until the store recovers (the full remaining window is charged
 *    on top of the fetch).
 *  - gray failure: fetches inside the window complete but run
 *    `gray_slowdown` times slower — the partial-failure mode that
 *    health checks miss.
 *
 * Plans come from code, a compact spec, JSON, or the environment
 * (mirroring MEDUSA_FAULT_PLAN; the spec splits through
 * common/plan_spec.h, the JSON form parses through common/json.h):
 *
 *   MEDUSA_CHAOS_PLAN='node_mtbf=120;node_mttr=20;inst_mtbf=30'
 *   MEDUSA_CHAOS_PLAN='{"seed":7,"node_mtbf_sec":120,...}'
 *   MEDUSA_CHAOS_SEED=7
 *
 * Spec keys are the field names below without the `_sec` suffix:
 * `seed`, `node_mtbf`, `node_mttr`, `inst_mtbf`, `store_mtbf`,
 * `store_mttr`, `gray_mtbf`, `gray_mttr`, `gray_slowdown`, `horizon`.
 * A key may appear only once; unknown keys are errors listing the
 * valid set. JSON keys keep the `_sec` suffix; the JSON `seed` must be
 * an integer in [0, 2^53]. In either form every duration and
 * `gray_slowdown` must be finite (NaN and infinity are rejected).
 */

#ifndef MEDUSA_SERVERLESS_CHAOS_H
#define MEDUSA_SERVERLESS_CHAOS_H

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace medusa::serverless {

/**
 * A deterministic cluster-failure schedule. All rates are mean times
 * between events across the whole cluster (exponentially distributed
 * gaps); 0 disables that failure class. Durations are exponential
 * with the given mean, floored at 1 ms.
 */
struct ChaosPlan
{
    u64 seed = 0xc4a05;

    /** Mean time between node crashes (whole cluster); 0 = off. */
    f64 node_mtbf_sec = 0;
    /** Mean node down time before recovery. */
    f64 node_mttr_sec = 10.0;

    /** Mean time between single-instance crashes; 0 = off. */
    f64 inst_mtbf_sec = 0;

    /** Mean time between artifact-store outages; 0 = off. */
    f64 store_mtbf_sec = 0;
    /** Mean outage duration. */
    f64 store_mttr_sec = 5.0;

    /** Mean time between gray-failure windows; 0 = off. */
    f64 gray_mtbf_sec = 0;
    /** Mean gray-window duration. */
    f64 gray_mttr_sec = 15.0;
    /** Fetch slowdown inside a gray window (>= 1). */
    f64 gray_slowdown = 4.0;

    /**
     * Schedule horizon: failures are generated on [0, horizon). 0
     * means "up to the trace's last arrival" — the simulator
     * substitutes the bound once it sees the trace.
     */
    f64 horizon_sec = 0;

    /** True if any failure class can ever fire. */
    bool enabled() const;

    /** Parse the compact spec form (see file comment). */
    static StatusOr<ChaosPlan> fromSpec(const std::string &spec);

    /** Parse the flat JSON-object form (field names as keys). */
    static StatusOr<ChaosPlan> fromJson(const std::string &json);

    /**
     * Build a plan from MEDUSA_CHAOS_PLAN (spec or JSON, picked by a
     * leading '{') with MEDUSA_CHAOS_SEED overriding the seed.
     * Returns nullopt when the variable is unset or empty.
     */
    static StatusOr<std::optional<ChaosPlan>> fromEnv();

    /** Render back to the compact spec form (logs and reports). */
    std::string toSpec() const;
};

/**
 * The process-wide plan from MEDUSA_CHAOS_PLAN, or null when unset,
 * empty, disabled, or malformed (the envFaultInjector() contract).
 * simulateCluster consults it when ClusterOptions::chaos is null, so
 * an exported plan chaos-hardens any simulation in the process.
 */
const ChaosPlan *envChaosPlan();

/**
 * One scheduled failure. `end_sec` closes the affected window (node
 * recovery / store restoration); instance crashes are instantaneous
 * and leave it equal to `start_sec`. `draw` is a raw 64-bit value
 * fixed at schedule-build time; the simulator reduces it against
 * run-time state (e.g. victim = draw % live_instances) so the
 * schedule stays independent of how the cluster evolves.
 */
struct ChaosEvent
{
    enum class Kind : u8
    {
        kNodeCrash = 0,
        kInstanceCrash,
        kStoreOutage,
        kGrayWindow,
    };

    Kind kind = Kind::kNodeCrash;
    f64 start_sec = 0;
    f64 end_sec = 0;
    u64 draw = 0;
};

/**
 * Expand @p plan into the concrete, time-sorted failure schedule over
 * [0, horizon). Each failure class draws from its own SplitMix64-split
 * stream, so enabling one class never perturbs another's timeline.
 */
std::vector<ChaosEvent> buildChaosSchedule(const ChaosPlan &plan,
                                           f64 horizon_sec);

} // namespace medusa::serverless

#endif // MEDUSA_SERVERLESS_CHAOS_H
