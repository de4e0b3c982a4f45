/**
 * @file
 * The serving control plane (DESIGN.md §17): an OpenAI-style HTTP
 * front end driven by the same serve::Scheduler that powers the
 * cluster simulator.
 *
 * Threading model — three kinds of threads share one Scheduler under
 * a single engine mutex:
 *
 *  - the **engine thread** advances virtual time: free-running when
 *    time_scale == 0 (every pending event dispatches as soon as it
 *    exists — completions stream out at compute speed), or paced
 *    against the wall clock (virtual = wall × time_scale) otherwise;
 *  - **connection threads** (one per accepted socket) parse HTTP,
 *    validate the OpenAI call, submit() at the current virtual time
 *    and then block on their request's token stream; the accept
 *    thread joins the finished ones before it starts the next;
 *  - scheduler **hooks** fire on whichever thread is stepping the
 *    engine and publish tokens / terminal outcomes into per-request
 *    streams (dedup by high-water token count — a crash-requeued
 *    request re-emits from 1).
 *
 * Graceful drain: requestStop() stops accepting, in-flight requests
 * run to completion (bounded by drain_timeout_sec), then stop()
 * drains the event loop and returns the run's TraceMetrics — the same
 * struct a simulation returns, so serve-mode runs drop into the
 * existing analysis tooling.
 */

#ifndef MEDUSA_SERVE_SERVER_H
#define MEDUSA_SERVE_SERVER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/http.h"
#include "serve/openai.h"
#include "serve/scheduler.h"

namespace medusa::serve {

/**
 * Serve-mode configuration. The request-path knobs live in `cluster`
 * — the SAME ClusterOptions the simulator consumes (one options
 * surface, no duplicated fields); serve adds only the front-end
 * plumbing around it.
 */
struct ServeOptions
{
    /** Scheduler configuration; cluster.profile must be non-null. */
    serverless::ClusterOptions cluster;

    std::string host = "127.0.0.1";
    /** 0 = pick an ephemeral port (see Server::port()). */
    u16 port = 0;
    /**
     * Virtual seconds per wall second. 0 free-runs the virtual clock:
     * every pending event dispatches immediately, so responses return
     * at compute speed (smoke tests, benches). 1.0 serves in real
     * time.
     */
    f64 time_scale = 0;
    /** Wall-clock bound on the graceful drain in stop(). */
    f64 drain_timeout_sec = 30;
    /** Request validation limits. */
    ApiLimits limits;
    /**
     * Served model names; index == ClusterOptions model_id. Requests
     * naming anything else are rejected with 404. Empty = accept any
     * name as model 0.
     */
    std::vector<std::string> model_names;
    /** Chaos horizon handed to the Scheduler (plans without one). */
    f64 chaos_horizon_sec = 0;
};

/** The HTTP server. Construct, start(), eventually stop(). */
class Server
{
  public:
    explicit Server(ServeOptions options);
    ~Server();
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen and spawn the engine + acceptor threads. */
    Status start();

    /** The bound port (valid after start()). */
    u16 port() const { return listener_.port(); }

    /** Submitted requests not yet terminal. */
    std::size_t inFlight();

    /** Stop accepting new requests (first half of graceful drain). */
    void requestStop();

    /**
     * Graceful shutdown: requestStop(), wait for in-flight requests
     * (up to drain_timeout_sec), drain the event loop and finish()
     * the scheduler. Returns the run's TraceMetrics. Idempotent after
     * the first call.
     */
    serverless::TraceMetrics stop();

    /** Front-end (`server.*`) counters; scheduler metrics come out of
     *  stop()'s TraceMetrics / the cluster pipeline sinks. */
    MetricsSnapshot metricsSnapshot() const;

  private:
    /** Per-request token stream filled by hooks, drained by one
     *  connection thread. */
    struct RequestStream
    {
        std::mutex mu;
        std::condition_variable cv;
        /** Token texts not yet taken by the connection thread. */
        std::deque<std::string> pending;
        /** Highest token count seen (dedup across crash replays). */
        u32 high_water = 0;
        bool done = false;
        RequestOutcome outcome = RequestOutcome::kCompleted;
        f64 arrival_vt = 0;
        f64 first_token_vt = -1;
        f64 done_vt = 0;
    };

    /** One connection thread; done is its last write before exit. */
    struct Connection
    {
        std::thread thread;
        std::atomic<bool> done{false};
    };

    void engineLoop();
    void acceptLoop();
    void handleConnection(int fd);
    /** One parsed request → full response bytes written to @p fd.
     *  Returns false when the connection must close. */
    bool handleRequest(int fd, const HttpRequest &req);
    bool handleCompletion(int fd, const HttpRequest &req, bool chat);
    bool streamCompletion(int fd, const CompletionCall &call, u32 req_id,
                          const std::shared_ptr<RequestStream> &stream);
    bool respondOnce(int fd, const CompletionCall &call, u32 req_id,
                     const std::shared_ptr<RequestStream> &stream);

    // Hook bodies (run with engine_mu_ held by the stepping thread).
    void onToken(u32 req, u32 count, f64 t_sec);
    void onDone(u32 req, RequestOutcome outcome, f64 t_sec);

    std::shared_ptr<RequestStream> findStream(u32 req);
    void eraseStream(u32 req);

    /** Wall seconds since start(). */
    f64 wallSec() const;

    ServeOptions options_;
    RequestHooks hooks_;
    MetricsRegistry metrics_;
    /** server.request spans, exported to cluster.pipeline.trace. */
    TraceRecorder spans_;

    mutable std::mutex engine_mu_;
    std::condition_variable engine_cv_;
    std::unique_ptr<Scheduler> sched_;
    bool draining_ = false;
    bool engine_stop_ = false;

    std::mutex streams_mu_;
    std::unordered_map<u32, std::shared_ptr<RequestStream>> streams_;
    u64 active_peak_ = 0;

    HttpListener listener_;
    std::thread engine_thread_;
    std::thread accept_thread_;
    std::mutex conns_mu_;
    /** Unjoined connection threads; a list keeps each one in place. */
    std::list<Connection> conns_;

    std::chrono::steady_clock::time_point wall0_;
    bool started_ = false;
    bool stopped_ = false;
    serverless::TraceMetrics final_metrics_;
};

} // namespace medusa::serve

#endif // MEDUSA_SERVE_SERVER_H
