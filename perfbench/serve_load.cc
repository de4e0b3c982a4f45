/**
 * @file
 * The serve stage: closed-loop clients streaming OpenAI-style
 * completions through serve::Server on loopback.
 *
 * The server free-runs its virtual clock (time_scale 0), so every
 * wall-clock microsecond a request takes is the control plane's own
 * cost: connection accept, HTTP parse, validation, scheduling under the
 * engine mutex, the token hooks and the SSE writes. Each server lives
 * for one round of requests and is then drained, so a run also measures
 * start-up and graceful drain.
 *
 * Every response is checked: HTTP 200, one SSE data frame per requested
 * token carrying exactly the deterministic token text the server owes
 * that request, a finish chunk and the [DONE] terminator; after the
 * drain the server's own counters must account for every request and
 * token.
 */

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "perfbench.h"
#include "serve/http.h"
#include "serve/json.h"
#include "serve/openai.h"
#include "serve/server.h"

namespace perfbench {

using namespace medusa;

namespace {

/**
 * Closed-loop clients. Eight keep four cores busy, so the server's
 * threads rarely wait for an idle core to wake: on a shared host that
 * wake-up jitter, not the server, would set the latency.
 */
constexpr u32 kClients = 8;

/**
 * Requests per server lifetime. The server joins its per-connection
 * threads only when it stops, so a lifetime must stay bounded.
 */
constexpr u32 kServerRequests = 1000;

/** Distinct requests drawn from the trace; the clients cycle them. */
constexpr std::size_t kCalls = 4096;

/** One streamed exchange on a fresh connection. */
struct Exchange
{
    std::string response;
    /** When the first SSE data frame arrived (0 = never). */
    std::int64_t first_data_ns = 0;
};

bool
exchange(u16 port, const std::string &request, Exchange &out)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    bool ok = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)) == 0 &&
              serve::writeAll(fd, request);
    // The server closes an SSE response after [DONE].
    while (ok && serve::readInto(fd, out.response) > 0) {
        if (out.first_data_ns == 0 &&
            out.response.find("\ndata: ") != std::string::npos) {
            out.first_data_ns = nowNs();
        }
    }
    ::close(fd);
    return ok;
}

/**
 * Check a streamed response against what the server owes a request
 * for @p max_tokens tokens of @p model; @p ids maps completion ids back
 * to the server's request number.
 * Returns an empty string when the response is right.
 */
std::string
verify(u32 max_tokens, const std::string &model,
       const std::string &response,
       const std::unordered_map<std::string, u32> &ids)
{
    if (response.rfind("HTTP/1.1 200", 0) != 0) {
        return "status: " + response.substr(0, response.find('\r'));
    }
    std::vector<std::string_view> frames;
    const std::string_view all(response);
    std::size_t pos = all.find("\r\n\r\n");
    while ((pos = all.find("data: ", pos)) != std::string_view::npos) {
        pos += 6;
        const std::size_t end = all.find("\n\n", pos);
        if (end == std::string_view::npos) {
            return "unterminated SSE frame";
        }
        frames.push_back(all.substr(pos, end - pos));
        pos = end;
    }
    // max_tokens token frames, the finish chunk, then [DONE].
    if (frames.size() != max_tokens + 2 || frames.back() != "[DONE]") {
        return "expected " + std::to_string(max_tokens + 2) +
               " SSE frames, got " + std::to_string(frames.size());
    }
    u32 req = 0;
    for (u32 k = 0; k <= max_tokens; ++k) {
        auto chunk = serve::Json::parse(frames[k]);
        if (!chunk.isOk()) {
            return "bad chunk JSON: " + chunk.status().toString();
        }
        const serve::Json *id = chunk->find("id");
        const serve::Json *chunk_model = chunk->find("model");
        const serve::Json *choices = chunk->find("choices");
        if (id == nullptr || chunk_model == nullptr || choices == nullptr ||
            !choices->isArray() || choices->items().size() != 1 ||
            chunk_model->asString() != model) {
            return "malformed chunk: " + std::string(frames[k]);
        }
        const auto known = ids.find(id->asString());
        if (known == ids.end() || (k > 0 && known->second != req)) {
            return "unexpected completion id " + id->asString();
        }
        req = known->second;
        const serve::Json &choice = choices->items().front();
        const serve::Json *text = choice.find("text");
        const serve::Json *finish = choice.find("finish_reason");
        if (k < max_tokens) {
            if (text == nullptr ||
                text->asString() != serve::tokenText(req, k)) {
                return "wrong token " + std::to_string(k);
            }
        } else if (finish == nullptr || finish->asString() != "length") {
            return "missing finish_reason";
        }
    }
    return {};
}

} // namespace

ServeStage::ServeStage(const Workload &w, const SetupResult &setup,
                       u64 seed, SpanLog &spans, Tally &tally)
    : setup_(setup), spans_(spans), tally_(tally)
{
    workload::TraceOptions topts = w.trace;
    topts.seed = seed;
    std::vector<workload::Request> trace =
        workload::generateShareGptTrace(topts);
    trace.resize(std::min<std::size_t>(trace.size(), kCalls));
    for (const workload::Request &r : trace) {
        Call c;
        c.max_tokens = std::max<u32>(1, r.output_tokens);
        // ~4 bytes per token keeps the server's prompt estimate exact.
        const std::string body =
            "{\"model\":\"" + setup_.profile.model_name +
            "\",\"prompt\":\"" +
            std::string(static_cast<std::size_t>(r.prompt_tokens) * 4,
                        'p') +
            "\",\"max_tokens\":" + std::to_string(c.max_tokens) +
            ",\"stream\":true}";
        c.http = "POST /v1/completions HTTP/1.1\r\nHost: perfbench\r\n"
                 "Content-Type: application/json\r\nContent-Length: " +
                 std::to_string(body.size()) + "\r\n\r\n" + body;
        calls_.push_back(std::move(c));
    }
    for (u32 i = 0; i < kServerRequests; ++i) {
        ids_.emplace(serve::completionId(false, i), i);
    }
}

void
ServeStage::run(f64 budget_sec)
{
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(budget_sec * 1e9);
    out_.ttft_sec.emplace_back();
    do {
        serveOnce(deadline);
    } while (nowNs() < deadline);
}

void
ServeStage::serveOnce(std::int64_t deadline_ns)
{
    serve::ServeOptions sopts;
    sopts.cluster.profile = &setup_.profile;
    sopts.time_scale = 0;
    sopts.model_names = {setup_.profile.model_name};
    const std::int64_t t0 = nowNs();
    serve::Server server(std::move(sopts));
    const Status started = server.start();
    const std::int64_t t1 = nowNs();
    const std::int64_t cpu1 = cpuNs(CLOCK_PROCESS_CPUTIME_ID);
    spans_.add("serve.start", t0, t1);
    if (!started.isOk()) {
        tally_.fail("server start: " + started.toString());
        return;
    }

    // Closed loop: each client sends its next request when the previous
    // one has completed, until the round is full or time is up. Every
    // round serves at least one request. Responses are checked after
    // the clients stop, so checking costs no serving CPU.
    std::mutex mu; // guards everything below and out_, tally_, next_call_
    u64 sent = 0;
    std::int64_t client_cpu_ns = 0;
    std::vector<std::pair<const Call *, Exchange>> done;
    std::vector<std::thread> clients;
    for (u32 c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            const std::int64_t cpu0 = cpuNs(CLOCK_THREAD_CPUTIME_ID);
            for (;;) {
                const Call *call = nullptr;
                {
                    std::lock_guard<std::mutex> lock(mu);
                    if (sent == kServerRequests ||
                        (sent > 0 && nowNs() >= deadline_ns)) {
                        client_cpu_ns +=
                            cpuNs(CLOCK_THREAD_CPUTIME_ID) - cpu0;
                        return;
                    }
                    call = &calls_[next_call_++ % calls_.size()];
                    ++sent;
                    ++out_.requests;
                    ++tally_.attempted;
                }
                Exchange ex;
                const std::int64_t r0 = nowNs();
                if (!exchange(server.port(), call->http, ex)) {
                    ex.response = std::string("transport: ") +
                                  std::strerror(errno);
                }
                const std::int64_t r1 = nowNs();
                spans_.add("serve.request", r0, r1, c + 1);
                std::lock_guard<std::mutex> lock(mu);
                if (ex.first_data_ns != 0) {
                    spans_.add("serve.first_token", r0, ex.first_data_ns,
                               c + 1);
                    out_.ttft_sec.back().push_back(
                        static_cast<f64>(ex.first_data_ns - r0) * 1e-9);
                }
                done.emplace_back(call, std::move(ex));
            }
        });
    }
    for (std::thread &t : clients) {
        t.join();
    }
    const std::int64_t t2 = nowNs();
    // The server's CPU: the process's, less what the clients spent.
    out_.server_cpu_sec +=
        static_cast<f64>(cpuNs(CLOCK_PROCESS_CPUTIME_ID) - cpu1 -
                         client_cpu_ns) *
        1e-9;
    out_.busy_sec += static_cast<f64>(t2 - t1) * 1e-9;
    const serverless::TraceMetrics tm = server.stop();
    const std::int64_t t3 = nowNs();
    spans_.add("serve.drain", t2, t3);
    u64 tokens = 0;
    for (const auto &[call, ex] : done) {
        const std::string error =
            verify(call->max_tokens, setup_.profile.model_name,
                   ex.response, ids_);
        if (!error.empty()) {
            tally_.fail("serve: " + error);
        }
        tokens += call->max_tokens;
    }
    out_.tokens += tokens;

    // The server's own books must balance with what the clients saw.
    const MetricsSnapshot snap = server.metricsSnapshot();
    out_.active_peak = std::max<u64>(
        out_.active_peak,
        static_cast<u64>(snap.gaugeValue("server.active_peak")));
    if (tm.completed != sent ||
        snap.counterValue("server.completions") != sent ||
        snap.counterValue("server.tokens_streamed") != tokens) {
        tally_.fail("serve: server counters disagree with the clients "
                    "(sent " +
                    std::to_string(sent) + ", completed " +
                    std::to_string(tm.completed) + ")");
    }
}

} // namespace perfbench
