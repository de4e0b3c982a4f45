/**
 * @file
 * The cluster scheduling core (DESIGN.md §15–§17), extracted out of
 * the simulator so one implementation drives both worlds:
 *
 *  - **sim mode** — src/serve/sim.cc merges a pre-recorded trace into
 *    the event loop as an external sorted cursor and calls finish()
 *    (outputs pinned by cluster_equiv_test against
 *    tests/data/golden_cluster.txt);
 *  - **serve mode** — serve::Server submits live HTTP requests with
 *    submit(), paces the engine against a wall→virtual clock with
 *    pumpUntil(), and receives per-token callbacks through
 *    RequestHooks for SSE streaming.
 *
 * Everything §7.5 is here: the demand autoscaler, continuous-batching
 * step model over the captured-graph batch sizes, keep-alive /
 * artifact-affinity placement policies, admission control via
 * projectedWaitSec, deadline shedding, bounded crash retry, and the
 * chaos layer. The implementation is a struct-of-arrays state machine
 * on the zero-allocation EventEngine (event_engine.h); only the
 * driving loop lives outside, in sim.cc or serve::Server.
 *
 * Not thread-safe: serve mode serializes all calls (including hook
 * re-entry) under the server's engine mutex.
 */

#ifndef MEDUSA_SERVE_SCHEDULER_H
#define MEDUSA_SERVE_SCHEDULER_H

#include <functional>
#include <vector>

#include "serverless/cluster.h"
#include "serverless/event_engine.h"

namespace medusa::serve {

/** Terminal state of a submitted request (DESIGN.md §16 lattice). */
enum class RequestOutcome : u8
{
    kCompleted = 0,
    /** Shed at (re-)admission: projected wait exceeded the deadline. */
    kShedAdmission,
    /** Shed in the queue when its TTFT deadline passed. */
    kShedDeadline,
    /** Crash-retry budget exhausted. */
    kFailed,
};

/**
 * Streaming callbacks for serve mode; every field may be empty. Null
 * hooks (sim mode) cost nothing and change nothing — the scheduler's
 * observable state is identical with or without them.
 *
 * A crash-requeued request re-prefills and re-emits its tokens;
 * on_token's @p count (1-based) restarts from 1, so a streaming
 * consumer must dedup by keeping the high-water count per request.
 */
struct RequestHooks
{
    /** First token of @p req emitted at virtual time @p t_sec (TTFT). */
    std::function<void(u32 req, f64 t_sec)> on_first_token;
    /** Token number @p count (1-based) of @p req emitted. */
    std::function<void(u32 req, u32 count, f64 t_sec)> on_token;
    /** @p req reached a terminal state. */
    std::function<void(u32 req, RequestOutcome outcome, f64 t_sec)>
        on_done;
};

/**
 * The scheduler itself. Construct, submit() requests in
 * non-decreasing virtual time, drive the event loop (step /
 * pumpUntil / drain), then finish() exactly once for the run's
 * TraceMetrics. options.profile must be non-null and every referenced
 * pointer (profile, chaos) must outlive the instance.
 */
class Scheduler
{
  public:
    /**
     * @param chaos_horizon_sec horizon for a ChaosPlan whose own
     *        horizon_sec is unset (sim mode passes the trace's last
     *        arrival; serve mode its configured run horizon).
     */
    explicit Scheduler(const serverless::ClusterOptions &options,
                       const RequestHooks *hooks = nullptr,
                       f64 chaos_horizon_sec = 0);

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /**
     * Admit a request at the current virtual time (advanceTo /
     * pumpUntil there first). Returns the request id hooks report.
     */
    u32 submit(const workload::Request &r);

    /** Current virtual time. */
    f64 now() const { return engine_.now(); }

    /** True when no events are pending. */
    bool idle() const { return engine_.empty(); }

    /** Time of the earliest pending event; engine must not be idle. */
    f64 peekTime() const { return engine_.peekTime(); }

    /** Dispatch the single earliest pending event. */
    void step();

    /** Advance the clock with no pending event due before @p t_sec. */
    void advanceTo(f64 t_sec);

    /** Dispatch every event due at or before @p t_sec, then advance
     *  the clock to @p t_sec (serve mode's pacing primitive). */
    void pumpUntil(f64 t_sec);

    /** Dispatch until no events remain (graceful drain). */
    void drain();

    /** Requests submitted so far. */
    std::size_t submitted() const { return req_arrival_.size(); }

    /** Submitted requests not yet in a terminal state. */
    std::size_t
    inFlight() const
    {
        return req_arrival_.size() - terminal_count_;
    }

    /**
     * Close the run: compute TraceMetrics over every submitted
     * request, bill keep-alive idle time, export spans/metrics to
     * options.pipeline, and hard-check request conservation. Call
     * exactly once, after drain() (or an equivalent empty engine).
     */
    serverless::TraceMetrics finish();

  private:
    static constexpr u32 kNil = 0xffffffffu;
    static constexpr u16 kNoModel = 0xffffu;

    /** The typed event payload. 8 bytes. */
    struct Ev
    {
        enum class Kind : u8
        {
            kArrival = 0,
            kStepDone,
            kLaunchDone,
            kIdleReclaim,
            /** inst = index into the pre-generated chaos schedule. */
            kChaos,
            /** inst = node id whose crash window closes. */
            kNodeRecover,
            /** inst = request id; lazy TTFT-deadline check. */
            kDeadline,
            /** inst = request id; re-enqueue after crash backoff. */
            kRetryAdmit,
        };

        Kind kind = Kind::kArrival;
        /** kLaunchDone: 1 = instance comes alive, 0 = it dies. */
        u8 flag = 0;
        u32 inst = 0;
    };

    /**
     * Per-model dispatch index: for each load value, a bitset of the
     * live instance ids currently at that load. bestBelow(cap)
     * answers "max load among live instances with load < cap, ties to
     * the lowest id" in O(cap + instances/64).
     */
    class LoadIndex
    {
      public:
        void init(u32 num_loads);
        void add(u32 load, u32 inst);
        void remove(u32 load, u32 inst);
        void move(u32 from, u32 to, u32 inst);
        /** Highest non-empty load < cap, lowest id; kNil if none. */
        u32 bestBelow(u32 cap) const;

      private:
        void grow();

        u32 stride_ = 1;
        std::vector<u32> counts_;
        std::vector<u64> words_;
    };

    using Engine = serverless::EventEngine<Ev>;

    // ---- event loop plumbing ----
    void dispatchEvent(const Ev &ev);

    // ---- request/instance bookkeeping ----
    u32 instLoad(u32 inst) const;
    void setLoad(u32 inst, u32 old_load, u32 new_load);
    u32 newInstance(u16 model, u32 node);
    void killInstance(u32 inst);

    // ---- dispatch (assignment + autoscale) ----
    void dispatch();
    u32 popWaiting(u16 m);
    void assignTo(u32 inst, u32 req);

    // ---- instance launch ----
    void traceLaunchSpan(std::string_view name,
                         std::string_view category, f64 start_sec,
                         f64 dur_sec);
    bool nodeDown(u32 n) const;
    u32 chooseNode(u16 m);
    f64 nodeFetch(u32 node, u16 m);
    bool launchInstance(u16 m);

    // ---- event handlers ----
    void onArrival(u32 req);
    void enqueueWaiting(u32 req);
    void onLaunchDone(u32 inst, bool alive);
    void onStepDone(u32 inst);
    void onIdleReclaim(u32 inst);

    // ---- the step loop ----
    void startStep(u32 inst);
    void finishStep(u32 inst);
    void armIdleTimeout(u32 inst);

    // ---- chaos + SLO ----
    void traceInstant(std::string_view name, std::string_view category);
    void onChaosEvent(u32 idx);
    void crashNode(u32 node, f64 recover_at);
    void onNodeRecover(u32 node);
    void crashInstance(u32 inst);
    void requeueChain(u32 head);
    void requeueRequest(u32 req);
    void onRetryAdmit(u32 req);
    void onDeadline(u32 req);
    void shedRequest(u32 req, bool admission);
    f64 projectedWaitSec(u16 m);
    f64 expectedLaunchSec();

    // ---- hook plumbing (no-ops when hooks_ is null) ----
    void markTerminal(u32 req, RequestOutcome outcome);
    void emitToken(u32 req, u32 count);

    enum : u8
    {
        kColdStarting = 0,
        kLive = 1,
        kDead = 2,
    };

    /** Request terminal-state lattice (DESIGN.md §16). */
    enum : u8
    {
        kStWaiting = 0,
        kStAssigned,
        kStDone,
        kStShed,
        kStFailed,
        kStRetryWait,
    };

    serverless::ClusterOptions options_;
    const serverless::ServingProfile &profile_;
    const RequestHooks *hooks_ = nullptr;
    Engine engine_;
    /** Run-local recorder on the engine clock (exported at end). */
    TraceRecorder rec_;
    /** &rec_ when the caller asked for tracing, else null. */
    TraceRecorder *trace_ = nullptr;
    /** The `cluster.*` counters; finish() snapshots them into TraceMetrics. */
    MetricsRegistry metrics_;
    bool nodes_on_ = false;
    bool chaos_on_ = false;
    bool slo_on_ = false;
    bool finished_ = false;

    // Request table (struct-of-arrays, submission order).
    std::vector<f64> req_arrival_;
    std::vector<u32> req_prompt_;
    std::vector<u32> req_output_;
    std::vector<u32> req_generated_;
    std::vector<f64> req_first_token_;
    std::vector<f64> req_finished_;
    std::vector<u32> req_next_;
    std::vector<u16> req_model_;
    std::vector<f64> req_deadline_;
    std::vector<u32> req_retries_;
    std::vector<u8> req_state_;

    // Instance table (struct-of-arrays, creation order).
    std::vector<u8> inst_state_;
    std::vector<u8> inst_hot_spare_;
    std::vector<u8> inst_stepping_;
    std::vector<u8> inst_step_is_prefill_;
    std::vector<u16> inst_model_;
    std::vector<u32> inst_node_;
    std::vector<u32> inst_prefill_head_;
    std::vector<u32> inst_prefill_tail_;
    std::vector<u32> inst_prefill_count_;
    std::vector<u32> inst_batch_head_;
    std::vector<u32> inst_running_head_;
    std::vector<u32> inst_running_tail_;
    std::vector<u32> inst_running_count_;
    std::vector<f64> inst_launched_at_;
    std::vector<f64> inst_died_at_;
    std::vector<f64> inst_idle_since_;
    std::vector<serverless::EventHandle> inst_idle_timer_;
    std::vector<serverless::EventHandle> inst_step_timer_;
    std::vector<serverless::EventHandle> inst_launch_timer_;
    std::vector<u64> inst_warmed_;
    std::size_t warmed_stride_ = 0;

    // Waiting FIFOs and the dispatch index, per model.
    std::vector<u32> wait_head_;
    std::vector<u32> wait_tail_;
    std::vector<u64> wait_count_;
    std::vector<u32> pending_;
    std::vector<LoadIndex> by_load_;

    // Node-level artifact residency (affinity study).
    std::vector<u32> node_free_;
    std::vector<u16> node_models_;
    std::vector<u64> node_stamp_;
    u64 lru_tick_ = 0;

    // Chaos state (empty / zero when no plan is armed).
    std::vector<serverless::ChaosEvent> chaos_sched_;
    std::vector<u8> node_down_;
    std::vector<u32> node_cap_;
    u32 down_gpus_ = 0;
    f64 store_until_ = 0;
    f64 gray_until_ = 0;

    u32 busy_gpus_ = 0;
    u64 live_count_ = 0;
    u64 peak_live_ = 0;
    u64 arrival_events_ = 0;
    std::size_t terminal_count_ = 0;
    PercentileTracker launch_sec_;
};

} // namespace medusa::serve

#endif // MEDUSA_SERVE_SCHEDULER_H
