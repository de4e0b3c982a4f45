/**
 * @file
 * The serverless cluster simulator (§7.5's application-trace setup):
 * a pool of GPUs, serving instances with vLLM-style continuous
 * batching, an autoscaler that cold-starts new instances when demand
 * exceeds capacity, and idle scale-down.
 *
 * Instances run a step loop — prefill admitted requests (emitting their
 * first token: the TTFT event), otherwise decode all running sequences
 * — using the measured ServingProfile latencies. Cold starts take the
 * strategy's loading latency (runtime init is absorbed by the warm
 * container pool, as in the paper).
 */

#ifndef MEDUSA_SERVERLESS_CLUSTER_H
#define MEDUSA_SERVERLESS_CLUSTER_H

#include <vector>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/pipeline_options.h"
#include "common/stats.h"
#include "medusa/restore_options.h"
#include "serverless/chaos.h"
#include "serverless/profile.h"
#include "workload/trace.h"

namespace medusa::serverless {

/**
 * Scheduler policy for the cluster-scale placement study. kBaseline
 * is the paper's §7.5 autoscaler: scale up on demand, reclaim after
 * idle_timeout_sec. kKeepAlive adds a warm pool: a floor of live
 * instances is never reclaimed and idle instances linger longer,
 * trading GPU-seconds for fewer cold starts (the §2.4 trade-off, now
 * measurable per policy). kAffinity routes instance
 * launches to nodes whose artifact store already holds the model —
 * ServerlessLLM-style startup-time-optimized placement / Tangram-style
 * memory-reuse affinity (PAPERS.md) — so a launch pays the artifact
 * fetch only on a true node miss.
 */
enum class SchedulerPolicy : u8
{
    kBaseline = 0,
    kKeepAlive,
    kAffinity,
};

/**
 * Service-level-objective policy (DESIGN.md §16).
 * Requests carry a TTFT deadline (workload::Request::ttft_deadline_sec,
 * with default_ttft_sec as the fallback); the scheduler treats the
 * deadline as a first-class dimension: it sheds work it cannot serve in
 * time instead of queueing it forever, bounds how often a crashed
 * request is retried, and prefers a degraded-but-on-time launch over a
 * fast-path launch that would blow the deadline.
 *
 * Every request still reaches exactly one terminal state — completed,
 * shed, or failed-after-retries — whatever mix of knobs is armed
 * (the request-conservation invariant, MEDUSA_CHECKed at end of run).
 */
struct SloPolicy
{
    /** TTFT deadline for requests without their own; 0 = none. */
    f64 default_ttft_sec = 0;
    /**
     * Shed a request at arrival when the projected queue delay (live
     * capacity, pending launches, store outages) already exceeds its
     * deadline — admission control instead of queueing doomed work.
     */
    bool admission_control = false;
    /** Shed a queued request the moment its deadline passes. */
    bool shed_on_deadline = false;
    /**
     * Crash-requeue budget: a request whose instance died is retried
     * at most this many times before it fails terminally.
     */
    u32 max_retries = 2;
    /** Delay before a requeued request re-enters (doubles per retry). */
    f64 retry_backoff_sec = 0.05;
    /**
     * During an artifact-store outage, launch via the vanilla cold
     * start when that is faster than waiting out the outage — trading
     * materialization's speedup for deadline attainment.
     */
    bool degrade_to_vanilla = false;

    /** True if any SLO behavior beyond crash-retry bounding is armed. */
    bool
    enabled() const
    {
        return default_ttft_sec > 0 || admission_control ||
               shed_on_deadline || degrade_to_vanilla;
    }
};

/**
 * Cluster and autoscaler configuration — the single request-path
 * options surface shared by the discrete-event simulator
 * (simulateCluster) and the serving control plane
 * (serve::ServeOptions embeds one of these verbatim). Knobs here are
 * never duplicated into serve-side structs; serve adds only
 * front-end concerns (socket, pacing, limits) on top.
 */
struct ClusterOptions
{
    /**
     * Measured engine latencies driving the step model (cold start,
     * prefill, decode, capture penalties). Required by
     * simulateCluster and serve::Server; must outlive the run.
     */
    const ServingProfile *profile = nullptr;
    /** GPUs available (the paper's trace platform has 4 A100s). */
    u32 num_gpus = 4;
    /** Max concurrently running sequences per instance. */
    u32 max_seqs_per_instance = 64;
    /** Max real tokens per prefill step (vLLM's batched-token budget). */
    u32 max_batched_tokens = 2048;
    /** Idle duration before an instance is reclaimed. */
    f64 idle_timeout_sec = 5.0;
    /**
     * §2.4 hot spares: instances pre-provisioned at t=0, always kept
     * alive. They eliminate their cold starts but occupy GPUs for the
     * whole run — the resource wastage the paper argues against.
     */
    u32 hot_spares = 0;
    /**
     * Shared pipeline knobs (DESIGN.md §12). The simulator consumes:
     *  - pipeline.fault: deterministic fault injection for instance
     *    launches (FaultPoint::kClusterRestore). When a launch's
     *    restore attempt fails, the fraction of the restore that ran
     *    before the fault is charged as wasted latency, the process
     *    rolls back, and the fallback policy decides what happens next.
     *    Null disables. Cluster-level failures (node/instance crashes,
     *    store outages, gray fetches) are NOT fault points — they come
     *    from the ChaosPlan below, which schedules them ahead of time
     *    instead of hooking individual operations.
     *  - pipeline.trace: receives the whole run's span stream —
     *    instance.launch / restore.attempt / fallback.vanilla_cold_start
     *    completes, restore.attempt_failed instants, one
     *    `request` complete per finished request, and — with chaos/SLO
     *    armed — chaos.* completes for failure windows plus slo.shed /
     *    slo.requeue instants.
     *  - pipeline.metrics: the run's `cluster.*` counters are merged
     *    in, including `cluster.chaos.*` / `cluster.slo.*` when armed.
     * The lint/validate knobs are inert here (nothing to lint in the
     * discrete-event model).
     */
    PipelineOptions pipeline;
    /** Degrade policy for failed restores (mirrors RestoreOptions). */
    core::FallbackPolicy fallback;
    /**
     * Loading latency of the classic profile+capture cold start,
     * charged when a launch degrades to vanilla. 0 means "as slow as
     * the profiled cold start" (the fallback buys no speedup).
     */
    f64 vanilla_cold_start_sec = 0.0;

    // ---- cluster-scale scheduling study (DESIGN.md §15) ----

    /** Placement / keep-alive policy; see SchedulerPolicy. */
    SchedulerPolicy policy = SchedulerPolicy::kBaseline;
    /**
     * kKeepAlive: never reclaim below this many live instances (the
     * warm pool floor), and use keep_alive_idle_sec (when >= 0) as the
     * idle timeout instead of idle_timeout_sec.
     */
    u32 keep_alive_instances = 0;
    f64 keep_alive_idle_sec = -1.0;
    /**
     * Distinct models served by the cluster (requests carry
     * workload::Request::model_id < num_models). An instance serves
     * exactly one model. num_models > 1 (or policy == kAffinity)
     * activates node-level artifact residency modeling below.
     */
    u32 num_models = 1;
    /** GPUs per node; nodes share an artifact store. */
    u32 gpus_per_node = 1;
    /**
     * Model artifacts resident per node before LRU eviction
     * (cluster.affinity_evictions counts evictions).
     */
    u32 node_artifact_slots = 1;
    /**
     * Extra launch latency when the node must fetch the model's
     * artifact (not resident). Warm-node launches skip it — the
     * latency gap the affinity policy exists to exploit.
     */
    f64 node_artifact_miss_sec = 0.0;

    // ---- chaos + SLO study (DESIGN.md §16) ----

    /**
     * Deterministic cluster-failure schedule; null or a disabled plan
     * leaves the simulation byte-identical to the fault-free run
     * (cluster_equiv_test pins this). Node crashes force node-level
     * modeling on (as if num_models > 1).
     */
    const ChaosPlan *chaos = nullptr;
    /** Deadline-aware scheduling; see SloPolicy. */
    SloPolicy slo;
};

/**
 * Simulation output: the latency trackers and run totals finish()
 * computes from the scheduler's per-request and per-instance tables,
 * plus @ref metrics, the only record of what was counted while events
 * ran (and what ClusterOptions::pipeline.metrics receives). Read
 * `m.metrics.counterValue("cluster.…")`, or gaugeValue() for (g).
 *
 * Always present: `cluster.completed` and (g) `.makespan_sec`,
 * `.achieved_qps`, `.gpu_seconds`, the totals below. Present once
 * counted (absent means never):
 *  - `cluster.cold_starts`: launches that paid a cold start;
 *  - `.restore_failures`: restore attempts failed and rolled back;
 *  - `.retries`: failed attempts retried with backoff;
 *  - `.fallback_cold_starts`: launches degraded to vanilla;
 *  - (g) `.wasted_restore_sec`: latency burned in failed attempts.
 * Present with node-level modeling (node, affinity) or any policy but
 * kBaseline (pool, keep-alive):
 *  - `cluster.cold_pool_hits`: work absorbed by instances a baseline
 *    would have killed;
 *  - (g) `.keep_alive_gpu_seconds`: idle seconds past the baseline
 *    timeout;
 *  - `.affinity_evictions`: node artifact-store LRU evictions;
 *  - `.node_warm_launches`, `.node_artifact_fetches`: launches that
 *    found the model's artifact on the node, or fetched it.
 * All present (zeros included) under an armed ChaosPlan or an active
 * SloPolicy:
 *  - `cluster.chaos.node_crashes`, `.node_recoveries`: node crashes,
 *    and those whose window closed in the run;
 *  - `.instance_crashes`: instances killed (node or instance crash);
 *  - `.requeued_requests`: in-flight requests a crash threw back;
 *  - `.store_outages`, (g) `.store_outage_delay_sec`: store outage
 *    windows, and launch latency spent waiting them out;
 *  - `.gray_windows`, `.gray_fetches`: gray-failure windows, and the
 *    fetches they slowed;
 *  - `.lost_residency`: node-resident artifacts lost to crashes;
 *  - `cluster.slo.shed_admission`, `.shed_deadline`: shed at arrival,
 *    or queued past the deadline;
 *  - `.failed_requests`: requests out of crash retries;
 *  - `.retries`: crash-requeue retries granted;
 *  - `.degraded_launches`: launches sent to vanilla to dodge an outage;
 *  - `.deadline_met`, `.deadline_missed`: completions by TTFT against
 *    their deadline;
 *  - (g) `.goodput_qps`: deadline-met completions per second over the
 *    busy makespan.
 *
 * Request conservation, checked by finish() under chaos or SLO:
 * completed + shed_admission + shed_deadline + failed_requests ==
 * trace size.
 */
struct TraceMetrics
{
    PercentileTracker ttft_sec;
    PercentileTracker e2e_sec;
    /**
     * Per-launch cold-start latency (fetch + restore + fallback) —
     * the distribution the scheduling study reports P50/P99 of.
     */
    PercentileTracker launch_sec;
    u64 completed = 0;
    f64 makespan_sec = 0;
    /** Completed requests per second over the busy makespan. */
    f64 achieved_qps = 0;
    /**
     * GPU occupancy cost: instance-lifetime seconds summed over all
     * instances (cold-start time included) — the pay-as-you-go bill.
     */
    f64 gpu_seconds = 0;
    /** Instances ever created (autoscaled launches + hot spares). */
    u64 instances_launched = 0;
    /** High-water mark of concurrently live instances. */
    u64 peak_live_instances = 0;
    /**
     * Events the engine dispatched (arrivals included). NOT in
     * @ref metrics: it counts the event core's work, not anything the
     * simulated cluster does, so a change to the core (e.g.
     * cancelling a pending idle timer instead of letting a stale one
     * fire) may move it while every simulated output stays the same.
     * Benches divide by wall time for events/sec.
     */
    u64 sim_events = 0;
    /** The run's counters under their `cluster.*` names (above). */
    MetricsSnapshot metrics;
};

/**
 * Replay a trace against a cluster running the profiled engine. The
 * one public entry point; options.profile must be set. Implemented in
 * src/serve/sim.cc: serve::Scheduler on the EventEngine, driven in sim
 * mode.
 */
TraceMetrics simulateCluster(const ClusterOptions &options,
                             const std::vector<workload::Request> &trace);

} // namespace medusa::serverless

#endif // MEDUSA_SERVERLESS_CLUSTER_H
