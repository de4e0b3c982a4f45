/**
 * @file
 * Serving-path study (DESIGN.md §17): replay a seeded synthetic
 * diurnal trace through the REAL control plane — medusa_serve's
 * HTTP front end on loopback, paced against the wall clock — and
 * report achieved QPS and the virtual-time TTFT / E2E percentiles the
 * simulator reports for the same scheduling core.
 *
 * Unlike the pure simulation benches, every request here crosses the
 * full production path: JSON body → HTTP parse → OpenAI validation →
 * Scheduler::submit() under the engine mutex → per-token hooks →
 * response bytes on a socket. What stays identical is the scheduling
 * core, so the virtual metrics remain comparable with BENCH_sim.
 *
 * Hard-checked on every run (non-zero exit on violation):
 *
 *  1. Request conservation — every submitted request completes
 *     (chaos and SLO shedding are off) and the front-end counter
 *     agrees: server.completions == requests.
 *  2. Token conservation — server.tokens_streamed equals the sum of
 *     requested max_tokens over the trace.
 *
 * --json emits one machine-readable object (scripts/bench.sh captures
 * it as BENCH_serve.json); --metrics-out writes the server.* counter
 * snapshot (tools/trace_check --metrics validates the closed
 * namespace).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/http.h"
#include "serve/server.h"
#include "workload/synthetic.h"

using namespace medusa;

namespace {

/** The scale/chaos benches' hand-made Medusa-like profile (§7.1). */
serverless::ServingProfile
serveProfile()
{
    serverless::ServingProfile p;
    p.model_name = "serve-bench";
    p.strategy = llm::Strategy::kMedusa;
    p.loading_sec = 1.4;
    p.cold_start_sec = 1.4;
    p.batch_sizes = {1, 4, 8, 16};
    p.decode_step_sec = {0.012, 0.016, 0.022, 0.035};
    p.prefill_tokens = {128, 512, 2048};
    p.prefill_sec = {0.045, 0.12, 0.42};
    return p;
}

/** Blocking loopback connection issuing keep-alive POSTs. */
class Client
{
  public:
    explicit Client(u16 port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    ~Client()
    {
        if (fd_ >= 0) {
            ::close(fd_);
        }
    }

    bool ok() const { return fd_ >= 0; }

    /**
     * POST @p body to @p path and read one full response. Returns the
     * HTTP status code, or 0 on a transport error.
     */
    int
    post(const std::string &path, const std::string &body)
    {
        const std::string request =
            "POST " + path + " HTTP/1.1\r\nHost: bench\r\n" +
            "Content-Type: application/json\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\n\r\n" + body;
        if (!serve::writeAll(fd_, request)) {
            return 0;
        }
        // HttpParser parses requests, not responses; read the status
        // line, headers and Content-Length body by hand.
        std::string buf;
        std::size_t header_end = std::string::npos;
        while ((header_end = buf.find("\r\n\r\n")) ==
               std::string::npos) {
            if (serve::readInto(fd_, buf) <= 0) {
                return 0;
            }
        }
        int status = 0;
        std::sscanf(buf.c_str(), "HTTP/1.1 %d", &status);
        const std::size_t body_start = header_end + 4;
        std::size_t content_length = 0;
        const char *cl = std::strstr(buf.c_str(), "Content-Length:");
        if (cl != nullptr) {
            content_length = static_cast<std::size_t>(
                std::strtoull(cl + 15, nullptr, 10));
        }
        while (buf.size() - body_start < content_length) {
            if (serve::readInto(fd_, buf) <= 0) {
                return 0;
            }
        }
        return status;
    }

  private:
    int fd_ = -1;
};

struct Options
{
    bool json = false;
    u64 requests = 2000;
    u32 conns = 8;
    u64 seed = 42;
    /** Virtual seconds per wall second while arrivals replay. */
    f64 time_scale = 50;
    std::string metrics_out;
};

std::string
formatF64(f64 v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            opt.json = true;
        } else if (arg.rfind("--requests=", 0) == 0) {
            opt.requests = std::strtoull(arg.c_str() + 11, nullptr, 10);
        } else if (arg.rfind("--conns=", 0) == 0) {
            opt.conns = static_cast<u32>(
                std::strtoul(arg.c_str() + 8, nullptr, 10));
        } else if (arg.rfind("--seed=", 0) == 0) {
            opt.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
        } else if (arg.rfind("--time-scale=", 0) == 0) {
            opt.time_scale = std::strtod(arg.c_str() + 13, nullptr);
        } else if (arg.rfind("--metrics-out=", 0) == 0) {
            opt.metrics_out = arg.substr(14);
        } else {
            std::fprintf(stderr,
                         "usage: bench_serve [--json] [--requests=N] "
                         "[--conns=C] [--seed=S] [--time-scale=X] "
                         "[--metrics-out=PATH]\n");
            return 2;
        }
    }
    opt.conns = std::max<u32>(1, opt.conns);

    // The synthetic diurnal trace (same generator as BENCH_sim), sized
    // so the default run finishes in a few wall seconds. Outputs are
    // kept short — every token crosses the hook path and the counters.
    workload::SyntheticTraceOptions topt;
    topt.seed = opt.seed;
    topt.requests_per_sec = 100;
    topt.duration_sec = 1e9;
    topt.max_requests = opt.requests;
    topt.mean_output_tokens = 48;
    topt.max_output_tokens = 256;
    topt.max_prompt_tokens = 2048;
    const std::vector<workload::Request> trace =
        workload::generateSyntheticTrace(topt);

    const serverless::ServingProfile profile = serveProfile();
    serve::ServeOptions sopts;
    sopts.cluster.profile = &profile;
    sopts.cluster.num_gpus = 8;
    sopts.time_scale = opt.time_scale;
    sopts.model_names = {profile.model_name};
    sopts.drain_timeout_sec = 120;

    serve::Server server(std::move(sopts));
    const Status started = server.start();
    if (!started.isOk()) {
        std::fprintf(stderr, "bench_serve: start failed: %s\n",
                     started.toString().c_str());
        return 1;
    }
    const u16 port = server.port();

    // Round-robin the trace over opt.conns keep-alive connections;
    // each thread paces its own requests against the shared wall
    // clock (virtual arrival / time_scale).
    const auto wall0 = std::chrono::steady_clock::now();
    std::atomic<u64> completions{0};
    std::atomic<u64> transport_errors{0};
    std::vector<std::thread> workers;
    workers.reserve(opt.conns);
    for (u32 c = 0; c < opt.conns; ++c) {
        workers.emplace_back([&, c]() {
            Client client(port);
            if (!client.ok()) {
                transport_errors.fetch_add(1);
                return;
            }
            for (std::size_t i = c; i < trace.size();
                 i += opt.conns) {
                const workload::Request &r = trace[i];
                const f64 due_wall =
                    r.arrival_sec / std::max(1e-9, opt.time_scale);
                for (;;) {
                    const f64 wall =
                        std::chrono::duration<f64>(
                            std::chrono::steady_clock::now() - wall0)
                            .count();
                    if (wall >= due_wall) {
                        break;
                    }
                    std::this_thread::sleep_for(
                        std::chrono::duration<f64>(
                            std::min(0.01, due_wall - wall)));
                }
                // ~4 bytes/token keeps approxTokenCount exact.
                const std::string prompt(
                    static_cast<std::size_t>(r.prompt_tokens) * 4,
                    'p');
                const std::string body =
                    "{\"model\":\"" + profile.model_name +
                    "\",\"prompt\":\"" + prompt +
                    "\",\"max_tokens\":" +
                    std::to_string(r.output_tokens) + "}";
                const int status =
                    client.post("/v1/completions", body);
                if (status == 200) {
                    completions.fetch_add(1);
                } else {
                    transport_errors.fetch_add(1);
                }
            }
        });
    }
    for (std::thread &t : workers) {
        t.join();
    }
    const f64 wall_sec = std::chrono::duration<f64>(
                             std::chrono::steady_clock::now() - wall0)
                             .count();

    const serverless::TraceMetrics tm = server.stop();
    const MetricsSnapshot snap = server.metricsSnapshot();
    if (!opt.metrics_out.empty()) {
        std::ofstream out(opt.metrics_out);
        out << snap.toJson();
    }

    u64 want_tokens = 0;
    for (const workload::Request &r : trace) {
        want_tokens += r.output_tokens;
    }

    // Hard checks: conservation through the full HTTP path.
    bool ok = true;
    if (completions.load() != trace.size() ||
        tm.completed != trace.size() ||
        snap.counterValue("server.completions") != trace.size()) {
        std::fprintf(stderr,
                     "bench_serve: CONSERVATION VIOLATION: trace=%zu "
                     "http200=%llu completed=%llu counter=%llu\n",
                     trace.size(),
                     static_cast<unsigned long long>(
                         completions.load()),
                     static_cast<unsigned long long>(tm.completed),
                     static_cast<unsigned long long>(
                         snap.counterValue("server.completions")));
        ok = false;
    }
    if (snap.counterValue("server.tokens_streamed") != want_tokens) {
        std::fprintf(
            stderr,
            "bench_serve: TOKEN CONSERVATION VIOLATION: want=%llu "
            "got=%llu\n",
            static_cast<unsigned long long>(want_tokens),
            static_cast<unsigned long long>(
                snap.counterValue("server.tokens_streamed")));
        ok = false;
    }
    if (transport_errors.load() != 0) {
        std::fprintf(stderr, "bench_serve: %llu transport errors\n",
                     static_cast<unsigned long long>(
                         transport_errors.load()));
        ok = false;
    }

    const f64 ttft_p50 = tm.completed > 0 ? tm.ttft_sec.p50() : 0.0;
    const f64 ttft_p99 = tm.completed > 0 ? tm.ttft_sec.p99() : 0.0;
    const f64 e2e_p50 = tm.completed > 0 ? tm.e2e_sec.p50() : 0.0;
    const f64 e2e_p99 = tm.completed > 0 ? tm.e2e_sec.p99() : 0.0;
    const u64 cold_starts = tm.metrics.counterValue("cluster.cold_starts");

    if (opt.json) {
        std::string out = "{\"schema_version\":1,\"study\":\"serve\",";
        out += "\"requests\":" + std::to_string(trace.size()) + ",";
        out += "\"completed\":" + std::to_string(tm.completed) + ",";
        out += "\"cold_starts\":" + std::to_string(cold_starts) + ",";
        out += "\"tokens_streamed\":" +
               std::to_string(
                   snap.counterValue("server.tokens_streamed")) +
               ",";
        out += "\"wall_sec\":" + formatF64(wall_sec) + ",";
        out += "\"qps_wall\":" +
               formatF64(static_cast<f64>(tm.completed) /
                              std::max(1e-9, wall_sec)) +
               ",";
        out += "\"achieved_qps_virtual\":" +
               formatF64(tm.achieved_qps) + ",";
        out += "\"ttft_p50_sec\":" + formatF64(ttft_p50) + ",";
        out += "\"ttft_p99_sec\":" + formatF64(ttft_p99) + ",";
        out += "\"e2e_p50_sec\":" + formatF64(e2e_p50) + ",";
        out += "\"e2e_p99_sec\":" + formatF64(e2e_p99) + ",";
        out += "\"ok\":";
        out += ok ? "true" : "false";
        out += "}";
        std::printf("%s\n", out.c_str());
    } else {
        std::printf("bench_serve: %zu requests over %u conns in "
                    "%.2fs wall (%.1f rps wall, %.1f qps virtual)\n",
                    trace.size(), opt.conns, wall_sec,
                    static_cast<f64>(tm.completed) /
                        std::max(1e-9, wall_sec),
                    tm.achieved_qps);
        std::printf("  ttft p50/p99 = %.3f / %.3f s (virtual), "
                    "e2e p50/p99 = %.3f / %.3f s, cold starts = %llu\n",
                    ttft_p50, ttft_p99, e2e_p50, e2e_p99,
                    static_cast<unsigned long long>(cold_starts));
    }
    return ok ? 0 : 1;
}
