/**
 * @file
 * Shared types of the end-to-end benchmark (see main.cc): the workload
 * table, the wall-clock span log every layer call is recorded into, and
 * the per-layer results the three stages of the chain hand back.
 *
 * The chain is the system's request path, one layer per stage:
 *
 *   setup      materialize the model offline (artifact + v6 image) and
 *              measure its ServingProfile with buildServingProfile
 *              (virtual clock);
 *   coldstart  open the image and cold-start an engine from it, over
 *              and over (host wall clock);
 *   cluster    replay the workload's ShareGPT-like trace through
 *              simulateCluster with that profile: virtual TTFT, and the
 *              simulator's own host cost per request;
 *   serve      stream OpenAI-style completions through serve::Server on
 *              loopback from closed-loop clients (host wall clock).
 */

#ifndef MEDUSA_PERFBENCH_PERFBENCH_H
#define MEDUSA_PERFBENCH_PERFBENCH_H

#include <chrono>
#include <cstdint>
#include <ctime>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "serverless/cluster.h"
#include "serverless/profile.h"
#include "workload/trace.h"

namespace perfbench {

using medusa::f64;
using medusa::u32;
using medusa::u64;

/** Monotonic host nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU nanoseconds consumed on @p clock (a process or thread clock). */
inline std::int64_t
cpuNs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/**
 * The model every workload materializes, profiles and restores: the
 * smaller of the two the paper's trace study (§7.5) runs.
 */
inline constexpr const char *kModel = "Qwen1.5-4B";

/**
 * One traffic mix, served by the default cluster (ClusterOptions{}: the
 * paper's four GPUs, baseline scheduler, 5 s idle timeout).
 */
struct Workload
{
    /** As listed in BENCHMARK.json, which says why each exists. */
    std::string name;
    /** ShareGPT-like trace shape; the seed is set per run. */
    medusa::workload::TraceOptions trace;
};

/** The workload called @p name, or null. */
const Workload *findWorkload(std::string_view name);

/** Names of every workload, for the usage message. */
std::vector<std::string> workloadNames();

/**
 * Wall-clock spans recorded by the benchmark around each call into a
 * layer. Thread-safe; kept in memory and written out at the end of a
 * traced run. Deliberately not the program's TraceRecorder: the
 * benchmark must time the same way while the program's tracing changes.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t start_ns = 0;
        std::int64_t dur_ns = 0;
        /** Client thread for serve spans, 0 elsewhere. */
        u32 track = 0;
    };

    void
    add(std::string_view name, std::int64_t start_ns, std::int64_t end_ns,
        u32 track = 0)
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back({std::string(name), start_ns, end_ns - start_ns,
                          track});
    }

    /** Durations (seconds) of every span called @p name. */
    std::vector<f64> seconds(std::string_view name) const;

    /** Chrome trace_event JSON of every span. */
    std::string toChromeJson() const;

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** Median of @p v (NaN when empty). */
f64 median(std::vector<f64> v);

/** The q-quantile (0..1) of @p v, interpolated (NaN when empty). */
f64 quantile(std::vector<f64> v, f64 q);

/** Samples grouped by the round of the run they were taken in. */
using Rounds = std::vector<std::vector<f64>>;

/**
 * The q-quantile of the least-contended round: the lowest of the
 * per-round q-quantiles. Neighbours on a shared host slow memory-bound
 * code by a third for seconds at a time; a round is short enough to
 * sit inside one such stretch, so the best round measures the program
 * rather than its neighbours.
 */
f64 bestRound(const Rounds &rounds, f64 q);

/** Operations tried and failed, plus the first failure seen. */
struct Tally
{
    u64 attempted = 0;
    u64 failed = 0;
    std::string first_error;

    /** Record @p n failed operations described by @p what. */
    void
    fail(const std::string &what, u64 n = 1)
    {
        failed += n;
        if (first_error.empty()) {
            first_error = what;
        }
    }
};

/** What the offline set-up leaves behind for the online stages. */
struct SetupResult
{
    medusa::llm::ModelConfig model;
    std::vector<medusa::u8> image_bytes;
    medusa::serverless::ServingProfile profile;
    /** Wall seconds of each set-up repetition. */
    std::vector<f64> setup_sec;
    /**
     * Wall seconds of a fixed calibration workload run just before and
     * just after each set-up repetition (their mean), a measure of how
     * fast the host is at the time.
     */
    std::vector<f64> calib_sec;
};

/**
 * One timed set-up repetition: materialize kModel and measure its
 * serving profile. The first repetition fills @p out; later ones must
 * reproduce it byte for byte.
 */
void runSetup(SetupResult &out, SpanLog &spans, Tally &tally);

struct ColdstartResult
{
    /** Open + restore wall seconds per cold start. */
    Rounds restore_sec;
    f64 virtual_loading_sec = 0;
    u64 relocations = 0;
    u64 kernels_resolved = 0;
};

/** Cold-starts engines from the set-up's image. */
class ColdstartStage
{
  public:
    /** Runs one untimed reference restore and checks its fidelity. */
    ColdstartStage(const SetupResult &setup, SpanLog &spans, Tally &tally);

    /** One round: restore over and over for @p budget_sec. */
    void run(f64 budget_sec);

    const ColdstartResult &result() const { return out_; }

  private:
    const SetupResult &setup_;
    SpanLog &spans_;
    Tally &tally_;
    u64 reference_ = 0;
    ColdstartResult out_;
};

struct ClusterResult
{
    u64 requests = 0;
    /** Wall seconds per simulateCluster call over the whole trace. */
    Rounds sim_sec;
    f64 ttft_p50_sec = 0;
    f64 ttft_p99_sec = 0;
    f64 ttft_p999_sec = 0;
    u64 cold_starts = 0;
    u64 sim_events = 0;
    f64 gpu_seconds = 0;
};

/**
 * Per-layer figures of one simulation, taken from the scheduler's own
 * spans (request, instance.launch, restore.attempt) and counters.
 */
struct ClusterTrace
{
    /** Arrival to last token of each request (virtual seconds). */
    std::vector<f64> request_sec;
    /** Launch latency of each instance (virtual seconds). */
    std::vector<f64> launch_sec;
    u64 restore_attempts = 0;
    u64 cold_starts = 0;
    /** The scheduler's spans as Chrome trace JSON. */
    std::string chrome_json;
};

/** Replays the workload's ShareGPT-like trace through simulateCluster. */
class ClusterStage
{
  public:
    /**
     * Generates the trace from @p seed and simulates it once; that run
     * fixes the results every later repetition must reproduce.
     */
    ClusterStage(const Workload &w, const SetupResult &setup, u64 seed,
                 Tally &tally);

    /** One round: simulate the trace over and over for @p budget_sec. */
    void run(f64 budget_sec);

    /**
     * Simulates once more with the scheduler's trace and metric sinks
     * armed; the result must match the untraced runs.
     */
    ClusterTrace traced();

    const ClusterResult &result() const { return out_; }

  private:
    medusa::serverless::TraceMetrics
    simulate(const medusa::serverless::ClusterOptions &opts);
    /** Fails the run when @p tm differs from the first simulation. */
    void checkRepeat(const medusa::serverless::TraceMetrics &tm);

    medusa::serverless::ClusterOptions options_;
    std::vector<medusa::workload::Request> trace_;
    Tally &tally_;
    ClusterResult out_;
};

struct ServeResult
{
    u64 requests = 0;
    u64 tokens = 0;
    /** Send → first SSE data frame, wall seconds, per request. */
    Rounds ttft_sec;
    /** Wall seconds the clients were streaming. */
    f64 busy_sec = 0;
    /** CPU seconds the server spent meanwhile (clients' own excluded). */
    f64 server_cpu_sec = 0;
    /** Highest number of requests in flight in one server. */
    u64 active_peak = 0;
};

/** Streams completions through serve::Server from closed-loop clients. */
class ServeStage
{
  public:
    /** Draws the client requests from @p seed. */
    ServeStage(const Workload &w, const SetupResult &setup, u64 seed,
               SpanLog &spans, Tally &tally);

    /**
     * One round: serve for @p budget_sec, one server per kServerRequests
     * requests.
     */
    void run(f64 budget_sec);

    const ServeResult &result() const { return out_; }

  private:
    /** One request as the clients send it. */
    struct Call
    {
        std::string http;
        u32 max_tokens = 0;
    };

    /** One server lifetime: start, stream, drain, check the books. */
    void serveOnce(std::int64_t deadline_ns);

    const SetupResult &setup_;
    SpanLog &spans_;
    Tally &tally_;
    std::vector<Call> calls_;
    std::size_t next_call_ = 0;
    /** Completion id → the server's request number. */
    std::unordered_map<std::string, u32> ids_;
    ServeResult out_;
};

} // namespace perfbench

#endif // MEDUSA_PERFBENCH_PERFBENCH_H
