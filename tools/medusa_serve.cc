/**
 * @file
 * medusa_serve — the OpenAI-style serving front end over the cluster
 * scheduler (DESIGN.md §17).
 *
 * Two modes:
 *
 *  - **serve** (default): bind the configured port and serve
 *    /v1/completions, /v1/chat/completions, /v1/models, /healthz and
 *    /metrics until SIGINT (or --duration elapses), then drain
 *    gracefully and print the run's cluster metrics.
 *  - **--smoke**: bind an ephemeral port, run an in-process loopback
 *    client through the streaming, non-streaming and error paths,
 *    print a JSON verdict and exit non-zero on any failure (wired
 *    into scripts/check.sh).
 *
 * By default the serving profile is measured the honest way — one
 * real materialization + cold start of --model through the functional
 * engine. --toy-profile substitutes the hand-made Medusa-shaped
 * profile the scale benches use, skipping the (few-second) measure.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/json.h"
#include "medusa/offline.h"
#include "serve/server.h"
#include "serverless/profile.h"

using namespace medusa;

namespace {

std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop.store(true);
}

/** The hand-made Medusa-like profile (same shape as the benches). */
serverless::ServingProfile
toyProfile()
{
    serverless::ServingProfile p;
    p.model_name = "toy";
    p.strategy = llm::Strategy::kMedusa;
    p.loading_sec = 1.4;
    p.cold_start_sec = 1.4;
    p.batch_sizes = {1, 4, 8, 16};
    p.decode_step_sec = {0.012, 0.016, 0.022, 0.035};
    p.prefill_tokens = {128, 512, 2048};
    p.prefill_sec = {0.045, 0.12, 0.42};
    return p;
}

/** Materialize --model and measure its Medusa serving profile. */
StatusOr<serverless::ServingProfile>
measuredProfile(const std::string &model_name)
{
    MEDUSA_ASSIGN_OR_RETURN(llm::ModelConfig model,
                            llm::findModel(model_name));
    core::OfflineOptions oopts;
    oopts.model = model;
    MEDUSA_ASSIGN_OR_RETURN(core::OfflineResult offline,
                            core::materialize(oopts));
    serverless::ProfileOptions popts;
    popts.model = model;
    popts.strategy = llm::Strategy::kMedusa;
    popts.artifact = &offline.artifact;
    return serverless::buildServingProfile(popts);
}

// ---------------------------------------------------------------------
// Loopback smoke client (raw sockets; no external curl dependency).
// ---------------------------------------------------------------------

/** Connect, send @p request, read until peer close; returns bytes. */
StatusOr<std::string>
roundTrip(u16 port, const std::string &request)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        return internalError("socket() failed");
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return internalError("connect() failed: " +
                             std::string(std::strerror(errno)));
    }
    if (!serve::writeAll(fd, request)) {
        ::close(fd);
        return internalError("send failed");
    }
    ::shutdown(fd, SHUT_WR);
    std::string out;
    for (;;) {
        const i64 n = serve::readInto(fd, out);
        if (n <= 0) {
            break;
        }
    }
    ::close(fd);
    return out;
}

std::string
postRequest(const std::string &path, const std::string &body)
{
    return "POST " + path + " HTTP/1.1\r\nHost: localhost\r\n" +
           "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n\r\n" + body;
}

/** Count `data: ` SSE frames, excluding the [DONE] terminator. */
u64
countSseDataFrames(const std::string &response, bool *saw_done)
{
    u64 frames = 0;
    *saw_done = false;
    std::size_t pos = 0;
    while ((pos = response.find("data: ", pos)) != std::string::npos) {
        pos += 6;
        if (response.compare(pos, 6, "[DONE]") == 0) {
            *saw_done = true;
        } else {
            ++frames;
        }
    }
    return frames;
}

struct SmokeResult
{
    bool ok = true;
    std::string failure;
    u64 stream_frames = 0;
    u64 completion_tokens = 0;
};

void
expect(SmokeResult *r, bool cond, const std::string &what)
{
    if (r->ok && !cond) {
        r->ok = false;
        r->failure = what;
    }
}

SmokeResult
runSmokeClient(u16 port)
{
    SmokeResult r;

    // 1. Streamed completion: SSE frames then [DONE].
    auto streamed = roundTrip(
        port, postRequest("/v1/completions",
                          R"({"model":"toy","prompt":"hello cold )"
                          R"(start world","max_tokens":8,)"
                          R"("stream":true})"));
    expect(&r, streamed.isOk(), "stream round-trip failed");
    if (streamed.isOk()) {
        expect(&r,
               streamed->rfind("HTTP/1.1 200", 0) == 0 &&
                   streamed->find("text/event-stream") !=
                       std::string::npos,
               "streamed response is not SSE: " + *streamed);
        bool saw_done = false;
        r.stream_frames = countSseDataFrames(*streamed, &saw_done);
        // 8 token chunks + 1 finish_reason chunk.
        expect(&r, r.stream_frames == 9,
               "expected 9 SSE frames, got " +
                   std::to_string(r.stream_frames));
        expect(&r, saw_done, "missing [DONE] terminator");
    }

    // 2. Non-streaming chat completion with usage accounting.
    auto chat = roundTrip(
        port, postRequest("/v1/chat/completions",
                          R"({"model":"toy","messages":[{"role":)"
                          R"("user","content":"say something"}],)"
                          R"("max_tokens":4})"));
    expect(&r, chat.isOk(), "chat round-trip failed");
    if (chat.isOk()) {
        expect(&r, chat->rfind("HTTP/1.1 200", 0) == 0,
               "chat completion failed: " + *chat);
        expect(&r,
               chat->find("\"completion_tokens\":4") !=
                   std::string::npos,
               "bad usage accounting: " + *chat);
        expect(&r,
               chat->find("\"role\":\"assistant\"") !=
                   std::string::npos,
               "missing assistant message: " + *chat);
        r.completion_tokens = 4;
    }

    // 3. Validation: bad body is a 400 with an OpenAI error envelope.
    auto bad = roundTrip(port, postRequest("/v1/completions",
                                           R"({"model":42})"));
    expect(&r, bad.isOk(), "bad-request round-trip failed");
    if (bad.isOk()) {
        expect(&r,
               bad->rfind("HTTP/1.1 400", 0) == 0 &&
                   bad->find("invalid_request_error") !=
                       std::string::npos,
               "expected a 400 error envelope: " + *bad);
    }

    // 4. Unknown model → 404.
    auto unknown = roundTrip(
        port, postRequest("/v1/completions",
                          R"({"model":"nope","prompt":"x"})"));
    expect(&r, unknown.isOk(), "unknown-model round-trip failed");
    if (unknown.isOk()) {
        expect(&r, unknown->rfind("HTTP/1.1 404", 0) == 0,
               "expected 404 for unknown model: " + *unknown);
    }

    // 5. Liveness + models listing.
    auto health = roundTrip(
        port, "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n");
    expect(&r,
           health.isOk() &&
               health->find("\"status\":\"ok\"") != std::string::npos,
           "healthz failed");
    auto models = roundTrip(
        port, "GET /v1/models HTTP/1.1\r\nHost: localhost\r\n\r\n");
    expect(&r,
           models.isOk() &&
               models->find("\"id\":\"toy\"") != std::string::npos,
           "models listing failed");
    return r;
}

int
runSmoke(const std::string &metrics_out)
{
    const serverless::ServingProfile profile = toyProfile();
    serve::ServeOptions sopts;
    sopts.cluster.profile = &profile;
    sopts.cluster.num_gpus = 2;
    sopts.time_scale = 0; // free-run: responses at compute speed
    sopts.model_names = {"toy"};

    serve::Server server(std::move(sopts));
    const Status st = server.start();
    if (!st.isOk()) {
        std::fprintf(stderr, "start failed: %s\n",
                     st.toString().c_str());
        return 1;
    }

    const SmokeResult r = runSmokeClient(server.port());
    const serverless::TraceMetrics tm = server.stop();
    const MetricsSnapshot snap = server.metricsSnapshot();

    if (!metrics_out.empty()) {
        std::ofstream out(metrics_out);
        out << snap.toJson() << "\n";
    }

    Json verdict = Json::object();
    verdict.set("ok", Json::boolean(r.ok));
    if (!r.ok) {
        verdict.set("failure", Json::string(r.failure));
    }
    verdict.set("stream_frames",
                Json::number(static_cast<f64>(r.stream_frames)));
    verdict.set("completed",
                Json::number(static_cast<f64>(tm.completed)));
    verdict.set(
        "tokens_streamed",
        Json::number(static_cast<f64>(
            snap.counterValue("server.tokens_streamed"))));
    verdict.set("requests",
                Json::number(static_cast<f64>(
                    snap.counterValue("server.requests"))));
    std::printf("%s\n", verdict.dump().c_str());
    return r.ok ? 0 : 1;
}

u64
parseCount(const std::string &arg, std::size_t prefix)
{
    return std::strtoull(arg.c_str() + prefix, nullptr, 10);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string model = "Qwen1.5-1.8B";
    std::string host = "127.0.0.1";
    std::string metrics_out;
    u16 port = 8080;
    u32 gpus = 4;
    f64 time_scale = 1.0;
    f64 duration = 0;
    bool toy = false;
    bool smoke = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--toy-profile") {
            toy = true;
        } else if (arg.rfind("--model=", 0) == 0) {
            model = arg.substr(8);
        } else if (arg.rfind("--host=", 0) == 0) {
            host = arg.substr(7);
        } else if (arg.rfind("--metrics-out=", 0) == 0) {
            metrics_out = arg.substr(14);
        } else if (arg.rfind("--port=", 0) == 0) {
            port = static_cast<u16>(parseCount(arg, 7));
        } else if (arg.rfind("--gpus=", 0) == 0) {
            gpus = static_cast<u32>(parseCount(arg, 7));
        } else if (arg.rfind("--time-scale=", 0) == 0) {
            time_scale = std::atof(arg.c_str() + 13);
        } else if (arg.rfind("--duration=", 0) == 0) {
            duration = std::atof(arg.c_str() + 11);
        } else {
            std::fprintf(
                stderr,
                "usage: %s [--smoke] [--toy-profile] [--model=NAME]\n"
                "          [--host=ADDR] [--port=P] [--gpus=N]\n"
                "          [--time-scale=X] [--duration=SEC]\n"
                "          [--metrics-out=PATH]\n",
                argv[0]);
            return 2;
        }
    }

    if (smoke) {
        return runSmoke(metrics_out);
    }

    serverless::ServingProfile profile;
    if (toy) {
        profile = toyProfile();
    } else {
        std::fprintf(stderr, "measuring serving profile for %s ...\n",
                     model.c_str());
        auto measured = measuredProfile(model);
        if (!measured.isOk()) {
            std::fprintf(stderr, "profile failed: %s\n",
                         measured.status().toString().c_str());
            return 1;
        }
        profile = std::move(measured).value();
    }

    serve::ServeOptions sopts;
    sopts.cluster.profile = &profile;
    sopts.cluster.num_gpus = gpus;
    sopts.time_scale = time_scale;
    sopts.host = host;
    sopts.port = port;
    sopts.model_names = {toy ? "toy" : model};

    serve::Server server(std::move(sopts));
    const Status st = server.start();
    if (!st.isOk()) {
        std::fprintf(stderr, "start failed: %s\n",
                     st.toString().c_str());
        return 1;
    }
    std::fprintf(stderr,
                 "serving %s on http://%s:%u (time-scale %.2g); "
                 "Ctrl-C drains\n",
                 model.c_str(), host.c_str(),
                 static_cast<unsigned>(server.port()), time_scale);

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    const auto t0 = std::chrono::steady_clock::now();
    while (!g_stop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        if (duration > 0 &&
            std::chrono::duration<f64>(
                std::chrono::steady_clock::now() - t0)
                    .count() >= duration) {
            break;
        }
    }

    std::fprintf(stderr, "draining ...\n");
    const serverless::TraceMetrics tm = server.stop();
    const u64 shed = tm.shed_admission + tm.shed_deadline;
    std::fprintf(stderr,
                 "served %llu requests (%llu completed, %llu shed, "
                 "%llu failed), TTFT p50 %.3fs p99 %.3fs\n",
                 static_cast<unsigned long long>(
                     tm.completed + shed + tm.failed_requests),
                 static_cast<unsigned long long>(tm.completed),
                 static_cast<unsigned long long>(shed),
                 static_cast<unsigned long long>(tm.failed_requests),
                 tm.completed > 0 ? tm.ttft_sec.p50() : 0.0,
                 tm.completed > 0 ? tm.ttft_sec.p99() : 0.0);
    if (!metrics_out.empty()) {
        std::ofstream out(metrics_out);
        out << server.metricsSnapshot().toJson() << "\n";
    }
    return 0;
}
