#include "serve/server.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/json.h"

namespace medusa::serve {

namespace {

using std::chrono::steady_clock;

/** Wait (≤ timeout_ms) for @p fd to become readable. */
bool
pollIn(int fd, int timeout_ms)
{
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    return ::poll(&p, 1, timeout_ms) > 0;
}

} // namespace

Server::Server(ServeOptions options) : options_(std::move(options))
{
    // Eager counter creation pins the registry's iteration order so
    // /metrics output is layout-stable across runs.
    metrics_.counter("server.requests");
    metrics_.counter("server.completions");
    metrics_.counter("server.chat_completions");
    metrics_.counter("server.streams");
    metrics_.counter("server.rejected");
    metrics_.counter("server.shed");
    metrics_.counter("server.failed");
    metrics_.counter("server.tokens_streamed");
    metrics_.gauge("server.active_peak");
    metrics_.gauge("server.drain_sec");

    hooks_.on_token = [this](u32 req, u32 count, f64 t) {
        onToken(req, count, t);
    };
    hooks_.on_done = [this](u32 req, RequestOutcome outcome, f64 t) {
        onDone(req, outcome, t);
    };
}

Server::~Server()
{
    if (started_ && !stopped_) {
        (void)stop();
    }
}

Status
Server::start()
{
    MEDUSA_CHECK(!started_, "Server::start called twice");
    MEDUSA_CHECK(options_.cluster.profile != nullptr,
                 "ServeOptions::cluster.profile must be set");
    MEDUSA_CHECK(options_.model_names.size() <=
                     options_.cluster.num_models,
                 "more model names than cluster.num_models");
    sched_ = std::make_unique<Scheduler>(options_.cluster, &hooks_,
                                         options_.chaos_horizon_sec);
    MEDUSA_RETURN_IF_ERROR(listener_.bind(options_.host, options_.port));
    wall0_ = steady_clock::now();
    started_ = true;
    engine_thread_ = std::thread([this] { engineLoop(); });
    accept_thread_ = std::thread([this] { acceptLoop(); });
    return Status::ok();
}

f64
Server::wallSec() const
{
    return std::chrono::duration<f64>(steady_clock::now() - wall0_)
        .count();
}

std::size_t
Server::inFlight()
{
    std::lock_guard<std::mutex> lk(engine_mu_);
    return sched_ ? sched_->inFlight() : 0;
}

void
Server::engineLoop()
{
    std::unique_lock<std::mutex> lk(engine_mu_);
    while (!engine_stop_) {
        if (options_.time_scale > 0) {
            sched_->pumpUntil(wallSec() * options_.time_scale);
            engine_cv_.wait_for(lk, std::chrono::milliseconds(1));
        } else {
            // Free-run: dispatch everything pending, but cap the lock
            // hold so connection threads can interleave submits.
            int budget = 4096;
            while (!sched_->idle() && budget-- > 0) {
                sched_->step();
            }
            if (sched_->idle()) {
                engine_cv_.wait_for(lk, std::chrono::milliseconds(1));
            }
        }
    }
}

void
Server::acceptLoop()
{
    for (;;) {
        const int fd = listener_.acceptFd(100);
        if (fd == -2) {
            return; // listener closed
        }
        if (fd < 0) {
            std::lock_guard<std::mutex> lk(engine_mu_);
            if (draining_) {
                return;
            }
            continue;
        }
        std::lock_guard<std::mutex> lk(conns_mu_);
        conns_.emplace_back([this, fd] { handleConnection(fd); });
    }
}

void
Server::handleConnection(int fd)
{
    HttpParser parser;
    std::string buf;
    bool alive = true;
    while (alive) {
        while (!parser.complete()) {
            if (!pollIn(fd, 100)) {
                std::lock_guard<std::mutex> lk(engine_mu_);
                if (draining_) {
                    alive = false;
                }
                if (!alive) {
                    break;
                }
                continue;
            }
            buf.clear();
            const i64 n = readInto(fd, buf);
            if (n <= 0) {
                alive = false;
                break;
            }
            if (!parser.feed(buf).isOk()) {
                metrics_.counter("server.rejected").add();
                writeAll(fd, httpResponse(
                                 400, "application/json",
                                 errorJson(400, "invalid_request_error",
                                           "malformed HTTP request")));
                alive = false;
                break;
            }
        }
        if (!alive) {
            break;
        }
        alive = handleRequest(fd, parser.request());
        parser.reset();
    }
    ::shutdown(fd, 2 /* SHUT_RDWR */);
    ::close(fd);
}

bool
Server::handleRequest(int fd, const HttpRequest &req)
{
    metrics_.counter("server.requests").add();

    if (req.target == "/v1/completions" ||
        req.target == "/v1/chat/completions") {
        if (req.method != "POST") {
            metrics_.counter("server.rejected").add();
            return writeAll(
                fd, httpResponse(405, "application/json",
                                 errorJson(405, "invalid_request_error",
                                           "use POST")));
        }
        return handleCompletion(fd, req,
                                req.target == "/v1/chat/completions");
    }
    if (req.target == "/healthz" && req.method == "GET") {
        Json body = Json::object();
        body.set("status", Json::string("ok"));
        body.set("in_flight",
                 Json::number(static_cast<f64>(inFlight())));
        return writeAll(
            fd, httpResponse(200, "application/json", body.dump()));
    }
    if (req.target == "/v1/models" && req.method == "GET") {
        Json data = Json::array();
        for (const std::string &name : options_.model_names) {
            Json m = Json::object();
            m.set("id", Json::string(name));
            m.set("object", Json::string("model"));
            data.push(std::move(m));
        }
        Json body = Json::object();
        body.set("object", Json::string("list"));
        body.set("data", std::move(data));
        return writeAll(
            fd, httpResponse(200, "application/json", body.dump()));
    }
    if (req.target == "/metrics" && req.method == "GET") {
        return writeAll(fd, httpResponse(200, "application/json",
                                         metrics_.toJson()));
    }
    metrics_.counter("server.rejected").add();
    return writeAll(
        fd, httpResponse(404, "application/json",
                         errorJson(404, "invalid_request_error",
                                   "unknown endpoint " + req.target)));
}

bool
Server::handleCompletion(int fd, const HttpRequest &req, bool chat)
{
    auto body = Json::parse(req.body);
    if (!body.isOk()) {
        metrics_.counter("server.rejected").add();
        return writeAll(
            fd, httpResponse(400, "application/json",
                             errorJson(400, "invalid_request_error",
                                       body.status().message())));
    }
    auto parsed = parseCompletionCall(*body, chat, options_.limits);
    if (!parsed.isOk()) {
        metrics_.counter("server.rejected").add();
        return writeAll(
            fd, httpResponse(400, "application/json",
                             errorJson(400, "invalid_request_error",
                                       parsed.status().message())));
    }
    const CompletionCall &call = *parsed;

    u16 model_id = 0;
    if (!options_.model_names.empty()) {
        const auto it =
            std::find(options_.model_names.begin(),
                      options_.model_names.end(), call.model);
        if (it == options_.model_names.end()) {
            metrics_.counter("server.rejected").add();
            return writeAll(
                fd,
                httpResponse(404, "application/json",
                             errorJson(404, "model_not_found",
                                       "unknown model " + call.model)));
        }
        model_id = static_cast<u16>(
            std::distance(options_.model_names.begin(), it));
    }

    workload::Request r;
    r.model_id = model_id;
    r.prompt_tokens = call.prompt_tokens;
    r.output_tokens = call.max_tokens;

    auto stream = std::make_shared<RequestStream>();
    u32 req_id = 0;
    {
        std::lock_guard<std::mutex> lk(engine_mu_);
        if (draining_) {
            metrics_.counter("server.rejected").add();
            return writeAll(
                fd, httpResponse(503, "application/json",
                                 errorJson(503, "server_draining",
                                           "server is shutting down")));
        }
        if (options_.time_scale > 0) {
            sched_->pumpUntil(wallSec() * options_.time_scale);
        }
        r.arrival_sec = sched_->now();
        stream->arrival_vt = r.arrival_sec;
        req_id = static_cast<u32>(sched_->submitted());
        {
            std::lock_guard<std::mutex> sg(streams_mu_);
            streams_[req_id] = stream;
            active_peak_ =
                std::max<u64>(active_peak_, streams_.size());
            metrics_.gauge("server.active_peak")
                .set(static_cast<f64>(active_peak_));
        }
        // submit() may shed synchronously — the stream must already be
        // registered so the on_done hook finds it.
        sched_->submit(r);
        metrics_
            .counter(chat ? "server.chat_completions"
                          : "server.completions")
            .add();
    }
    engine_cv_.notify_all();

    const bool keep = call.stream
                          ? streamCompletion(fd, call, req_id, stream)
                          : respondOnce(fd, call, req_id, stream);
    eraseStream(req_id);
    return keep;
}

bool
Server::streamCompletion(int fd, const CompletionCall &call, u32 req_id,
                         const std::shared_ptr<RequestStream> &stream)
{
    // First event decides the response shape: a token opens the SSE
    // stream; a terminal outcome with no tokens becomes an error body.
    {
        std::unique_lock<std::mutex> lk(stream->mu);
        stream->cv.wait(lk, [&] {
            return !stream->pending.empty() || stream->done;
        });
        if (stream->done && stream->high_water == 0) {
            lk.unlock();
            const bool shed =
                stream->outcome != RequestOutcome::kFailed;
            return writeAll(
                fd,
                httpResponse(
                    shed ? 503 : 500, "application/json",
                    errorJson(shed ? 503 : 500,
                              shed ? "server_overloaded"
                                   : "server_error",
                              shed ? "request shed by admission "
                                     "control or deadline policy"
                                   : "instance failed; retries "
                                     "exhausted")));
        }
    }

    if (!writeAll(fd, sseResponseHead())) {
        return false;
    }
    metrics_.counter("server.streams").add();
    const std::string id = completionId(call.chat, req_id);
    bool first = true;
    for (;;) {
        std::deque<std::string> batch;
        bool done = false;
        {
            std::unique_lock<std::mutex> lk(stream->mu);
            stream->cv.wait(lk, [&] {
                return !stream->pending.empty() || stream->done;
            });
            batch.swap(stream->pending);
            done = stream->done;
        }
        for (const std::string &tok : batch) {
            if (!writeAll(fd, sseEvent(completionChunkJson(
                                  call, id, tok, first)))) {
                return false; // client went away; engine finishes alone
            }
            first = false;
        }
        if (done) {
            break;
        }
    }
    writeAll(fd, sseEvent(completionDoneJson(call, id, "length")));
    writeAll(fd, sseEvent("[DONE]"));
    return false; // SSE responses close the connection
}

bool
Server::respondOnce(int fd, const CompletionCall &call, u32 req_id,
                    const std::shared_ptr<RequestStream> &stream)
{
    std::unique_lock<std::mutex> lk(stream->mu);
    stream->cv.wait(lk, [&] { return stream->done; });
    if (stream->high_water == 0) {
        const bool shed = stream->outcome != RequestOutcome::kFailed;
        lk.unlock();
        return writeAll(
            fd,
            httpResponse(
                shed ? 503 : 500, "application/json",
                errorJson(shed ? 503 : 500,
                          shed ? "server_overloaded" : "server_error",
                          shed ? "request shed by admission control "
                                 "or deadline policy"
                               : "instance failed; retries "
                                 "exhausted")));
    }
    std::string text;
    for (const std::string &tok : stream->pending) {
        text += tok;
    }
    const u32 n_tokens = stream->high_water;
    lk.unlock();
    return writeAll(
        fd, httpResponse(200, "application/json",
                         completionResponseJson(
                             call, completionId(call.chat, req_id),
                             text, n_tokens, "length")));
}

std::shared_ptr<Server::RequestStream>
Server::findStream(u32 req)
{
    std::lock_guard<std::mutex> lk(streams_mu_);
    const auto it = streams_.find(req);
    return it == streams_.end() ? nullptr : it->second;
}

void
Server::eraseStream(u32 req)
{
    std::lock_guard<std::mutex> lk(streams_mu_);
    streams_.erase(req);
}

void
Server::onToken(u32 req, u32 count, f64 t_sec)
{
    const auto stream = findStream(req);
    if (stream == nullptr) {
        return;
    }
    std::lock_guard<std::mutex> lk(stream->mu);
    // A crash-requeued request re-emits from count 1; only tokens
    // above the high-water mark are new.
    if (count <= stream->high_water) {
        return;
    }
    stream->high_water = count;
    if (count == 1) {
        stream->first_token_vt = t_sec;
    }
    stream->pending.push_back(tokenText(req, count - 1));
    metrics_.counter("server.tokens_streamed").add();
    stream->cv.notify_all();
}

void
Server::onDone(u32 req, RequestOutcome outcome, f64 t_sec)
{
    switch (outcome) {
    case RequestOutcome::kCompleted:
        break;
    case RequestOutcome::kShedAdmission:
    case RequestOutcome::kShedDeadline:
        metrics_.counter("server.shed").add();
        break;
    case RequestOutcome::kFailed:
        metrics_.counter("server.failed").add();
        break;
    }
    const auto stream = findStream(req);
    if (stream == nullptr) {
        return;
    }
    f64 arrival = 0;
    {
        std::lock_guard<std::mutex> lk(stream->mu);
        stream->done = true;
        stream->outcome = outcome;
        stream->done_vt = t_sec;
        arrival = stream->arrival_vt;
        stream->cv.notify_all();
    }
    spans_.complete("server.request", "server", 0,
                    units::secToNs(arrival),
                    units::secToNs(t_sec - arrival));
}

void
Server::requestStop()
{
    {
        std::lock_guard<std::mutex> lk(engine_mu_);
        draining_ = true;
    }
    listener_.close();
}

serverless::TraceMetrics
Server::stop()
{
    MEDUSA_CHECK(started_, "Server::stop before start");
    if (stopped_) {
        return final_metrics_;
    }
    const f64 drain_start = wallSec();
    requestStop();
    if (accept_thread_.joinable()) {
        accept_thread_.join();
    }

    // Let in-flight requests run to completion on the engine thread.
    const auto deadline =
        steady_clock::now() +
        std::chrono::duration_cast<steady_clock::duration>(
            std::chrono::duration<f64>(options_.drain_timeout_sec));
    while (steady_clock::now() < deadline && inFlight() > 0) {
        engine_cv_.notify_all();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    {
        std::lock_guard<std::mutex> lk(engine_mu_);
        engine_stop_ = true;
    }
    engine_cv_.notify_all();
    if (engine_thread_.joinable()) {
        engine_thread_.join();
    }

    {
        std::lock_guard<std::mutex> lk(engine_mu_);
        // Anything still pending (keep-alive timers, stragglers past
        // the drain timeout) dispatches here; hooks mark the last
        // streams done so their connection threads can exit.
        sched_->drain();
        final_metrics_ = sched_->finish();
    }
    engine_cv_.notify_all();

    {
        std::lock_guard<std::mutex> lk(conns_mu_);
        for (std::thread &t : conns_) {
            if (t.joinable()) {
                t.join();
            }
        }
        conns_.clear();
    }

    metrics_.gauge("server.drain_sec").set(wallSec() - drain_start);
    if (options_.cluster.pipeline.trace != nullptr) {
        options_.cluster.pipeline.trace->appendAll(spans_.events());
    }
    if (options_.cluster.pipeline.metrics != nullptr) {
        options_.cluster.pipeline.metrics->mergeFrom(
            metrics_.snapshot());
    }
    stopped_ = true;
    return final_metrics_;
}

MetricsSnapshot
Server::metricsSnapshot() const
{
    return metrics_.snapshot();
}

} // namespace medusa::serve
