/**
 * @file
 * Serving-front-end suite (DESIGN.md §17): the JSON parser, the
 * incremental HTTP request parser, OpenAI request validation, the
 * serve-mode Scheduler drain contract, and a real loopback
 * end-to-end pass through Server — streamed SSE completion,
 * non-streaming chat completion, validation errors and graceful-drain
 * request conservation.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/http.h"
#include "common/json.h"
#include "serve/openai.h"
#include "serve/server.h"

namespace medusa::serve {
namespace {

// ---- JSON ---------------------------------------------------------------

TEST(ServeJsonTest, ParsesNestedDocument)
{
    auto v = Json::parse(R"({"a":[1,2.5,-3],"b":{"c":true,"d":null},)"
                         R"("e":"x\n\"yé"})");
    ASSERT_TRUE(v.isOk()) << v.status().toString();
    ASSERT_TRUE(v->isObject());
    const Json *a = v->find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->items().size(), 3u);
    EXPECT_EQ(a->items()[0].asNumber(), 1.0);
    EXPECT_EQ(a->items()[1].asNumber(), 2.5);
    EXPECT_EQ(a->items()[2].asNumber(), -3.0);
    const Json *c = v->find("b")->find("c");
    ASSERT_NE(c, nullptr);
    EXPECT_TRUE(c->asBool());
    EXPECT_TRUE(v->find("b")->find("d")->isNull());
    EXPECT_EQ(v->find("e")->asString(), "x\n\"y\xc3\xa9");
}

TEST(ServeJsonTest, RejectsMalformedInput)
{
    EXPECT_FALSE(Json::parse("{").isOk());
    EXPECT_FALSE(Json::parse("{\"a\":}").isOk());
    EXPECT_FALSE(Json::parse("[1,]").isOk());
    EXPECT_FALSE(Json::parse("tru").isOk());
    EXPECT_FALSE(Json::parse("\"unterminated").isOk());
    EXPECT_FALSE(Json::parse("{} trailing").isOk());
    EXPECT_FALSE(Json::parse("").isOk());
}

TEST(ServeJsonTest, DumpRoundTrips)
{
    const std::string doc =
        R"({"s":"a\"b","n":-2,"f":1.5,"b":false,"l":[1,{"x":null}]})";
    auto v = Json::parse(doc);
    ASSERT_TRUE(v.isOk());
    // dump() preserves member order, so the compact form round-trips.
    EXPECT_EQ(v->dump(), doc);
    auto again = Json::parse(v->dump());
    ASSERT_TRUE(again.isOk());
    EXPECT_EQ(again->dump(), doc);
}

TEST(ServeJsonTest, EscapedStringRoundTripsEveryControlByte)
{
    // appendJsonString is the one escaper behind every writer (Chrome
    // trace, metrics, lint JSON and SARIF, responses); what it emits
    // must parse back to the same bytes.
    std::string raw;
    for (int c = 0x01; c <= 0x1f; ++c) {
        raw.push_back(static_cast<char>(c));
    }
    raw += "\"\\";
    std::string quoted;
    appendJsonString(quoted, raw);
    auto back = Json::parse(quoted);
    ASSERT_TRUE(back.isOk()) << quoted;
    ASSERT_TRUE(back->isString());
    EXPECT_EQ(back->asString(), raw);
}

// ---- HTTP parser --------------------------------------------------------

TEST(ServeHttpTest, ParsesRequestWithBody)
{
    HttpParser p;
    ASSERT_TRUE(p.feed("POST /v1/completions HTTP/1.1\r\n"
                       "Host: x\r\nContent-Type: application/json\r\n"
                       "Content-Length: 7\r\n\r\n{\"a\":1}")
                    .isOk());
    ASSERT_TRUE(p.complete());
    EXPECT_EQ(p.request().method, "POST");
    EXPECT_EQ(p.request().target, "/v1/completions");
    EXPECT_EQ(p.request().body, "{\"a\":1}");
    ASSERT_NE(p.request().header("content-type"), nullptr);
    EXPECT_EQ(*p.request().header("content-type"), "application/json");
}

TEST(ServeHttpTest, AssemblesByteAtATime)
{
    const std::string raw = "GET /healthz HTTP/1.1\r\nHost: a\r\n\r\n";
    HttpParser p;
    for (const char c : raw) {
        ASSERT_TRUE(p.feed(std::string_view(&c, 1)).isOk());
    }
    ASSERT_TRUE(p.complete());
    EXPECT_EQ(p.request().method, "GET");
    EXPECT_EQ(p.request().target, "/healthz");
    EXPECT_TRUE(p.request().body.empty());
}

TEST(ServeHttpTest, HandlesPipelinedRequests)
{
    HttpParser p;
    ASSERT_TRUE(p.feed("POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi"
                       "GET /b HTTP/1.1\r\n\r\n")
                    .isOk());
    ASSERT_TRUE(p.complete());
    EXPECT_EQ(p.request().target, "/a");
    EXPECT_EQ(p.request().body, "hi");
    p.reset();
    ASSERT_TRUE(p.feed("").isOk());
    ASSERT_TRUE(p.complete());
    EXPECT_EQ(p.request().target, "/b");
}

TEST(ServeHttpTest, RejectsGarbage)
{
    HttpParser bad_line;
    EXPECT_FALSE(bad_line.feed("NOT-HTTP\r\n\r\n").isOk());
    HttpParser bad_len;
    EXPECT_FALSE(bad_len
                     .feed("POST / HTTP/1.1\r\n"
                           "Content-Length: banana\r\n\r\n")
                     .isOk());
    HttpParser chunked;
    EXPECT_FALSE(chunked
                     .feed("POST / HTTP/1.1\r\n"
                           "Transfer-Encoding: chunked\r\n\r\n")
                     .isOk());
}

// ---- OpenAI request validation ------------------------------------------

ApiLimits
testLimits()
{
    ApiLimits l;
    l.max_prompt_tokens = 100;
    l.max_output_tokens = 32;
    l.default_max_tokens = 16;
    return l;
}

TEST(ServeOpenAiTest, ParsesCompletionRequest)
{
    auto body = Json::parse(
        R"({"model":"m","prompt":"hello world","max_tokens":4,)"
        R"("stream":true})");
    ASSERT_TRUE(body.isOk());
    auto call = parseCompletionCall(*body, /*chat=*/false, testLimits());
    ASSERT_TRUE(call.isOk()) << call.status().toString();
    EXPECT_EQ(call->model, "m");
    EXPECT_EQ(call->prompt, "hello world");
    EXPECT_EQ(call->prompt_tokens, approxTokenCount("hello world"));
    EXPECT_EQ(call->max_tokens, 4u);
    EXPECT_TRUE(call->stream);
    EXPECT_FALSE(call->chat);
}

TEST(ServeOpenAiTest, FlattensChatMessages)
{
    auto body = Json::parse(
        R"({"model":"m","messages":[)"
        R"({"role":"system","content":"be terse"},)"
        R"({"role":"user","content":"hi"}]})");
    ASSERT_TRUE(body.isOk());
    auto call = parseCompletionCall(*body, /*chat=*/true, testLimits());
    ASSERT_TRUE(call.isOk()) << call.status().toString();
    EXPECT_TRUE(call->chat);
    EXPECT_EQ(call->prompt, "system: be terse\nuser: hi");
    EXPECT_EQ(call->max_tokens, 16u); // default_max_tokens
}

TEST(ServeOpenAiTest, RejectsInvalidRequests)
{
    const ApiLimits limits = testLimits();
    auto check = [&](const char *doc, bool chat) {
        auto body = Json::parse(doc);
        ASSERT_TRUE(body.isOk()) << doc;
        EXPECT_FALSE(parseCompletionCall(*body, chat, limits).isOk())
            << doc;
    };
    check(R"({"prompt":"x"})", false);               // missing model
    check(R"({"model":42,"prompt":"x"})", false);    // model not string
    check(R"({"model":"m"})", false);                // missing prompt
    check(R"({"model":"m","prompt":""})", false);    // empty prompt
    check(R"({"model":"m","messages":[]})", true);   // empty messages
    check(R"({"model":"m","messages":[{"role":"u"}]})", true);
    check(R"({"model":"m","prompt":"x","max_tokens":0})", false);
    check(R"({"model":"m","prompt":"x","max_tokens":33})", false);
    check(R"({"model":"m","prompt":"x","max_tokens":1.5})", false);
    check(R"({"model":"m","prompt":"x","stream":1})", false);
    check(R"({"model":"m","prompt":"x","n":2})", false);
    // Prompt over the token limit (100 tokens ≈ 400 bytes).
    const std::string long_prompt(500, 'a');
    auto body = Json::parse(R"({"model":"m","prompt":")" + long_prompt +
                            R"("})");
    ASSERT_TRUE(body.isOk());
    EXPECT_FALSE(parseCompletionCall(*body, false, limits).isOk());
}

TEST(ServeOpenAiTest, TokenTextIsDeterministic)
{
    for (u32 i = 0; i < 32; ++i) {
        EXPECT_EQ(tokenText(7, i), tokenText(7, i));
        EXPECT_FALSE(tokenText(7, i).empty());
    }
    // Later tokens carry a separating space; the first does not.
    EXPECT_EQ(tokenText(7, 1)[0], ' ');
    EXPECT_NE(tokenText(7, 0)[0], ' ');
    // Different requests draw different streams (overwhelmingly).
    int diff = 0;
    for (u32 i = 0; i < 16; ++i) {
        diff += tokenText(1, i) != tokenText(2, i) ? 1 : 0;
    }
    EXPECT_GT(diff, 0);
}

// ---- Scheduler serve-mode drain contract --------------------------------

serverless::ServingProfile
toyProfile()
{
    serverless::ServingProfile p;
    p.model_name = "toy";
    p.strategy = llm::Strategy::kVllm;
    p.loading_sec = 1.0;
    p.cold_start_sec = 1.0;
    p.batch_sizes = {1, 10};
    p.decode_step_sec = {0.01, 0.10};
    p.prefill_tokens = {100, 1000};
    p.prefill_sec = {0.1, 1.0};
    return p;
}

TEST(ServeSchedulerTest, SubmitPumpDrainConservesRequests)
{
    const serverless::ServingProfile profile = toyProfile();
    serverless::ClusterOptions opts;
    opts.profile = &profile;

    u64 dones = 0;
    RequestHooks hooks;
    hooks.on_done = [&](u32, RequestOutcome, f64) { ++dones; };
    Scheduler sched(opts, &hooks);

    for (int i = 0; i < 20; ++i) {
        sched.pumpUntil(0.05 * i);
        workload::Request r;
        r.arrival_sec = sched.now();
        r.prompt_tokens = 100;
        r.output_tokens = 5;
        const u32 id = sched.submit(r);
        EXPECT_EQ(id, static_cast<u32>(i));
    }
    EXPECT_EQ(sched.submitted(), 20u);
    EXPECT_GT(sched.inFlight(), 0u);

    sched.drain();
    EXPECT_EQ(sched.inFlight(), 0u);
    EXPECT_EQ(dones, 20u);

    const serverless::TraceMetrics tm = sched.finish();
    EXPECT_EQ(tm.completed, 20u);
    EXPECT_EQ(tm.ttft_sec.count(), 20u);
}

// ---- loopback end-to-end ------------------------------------------------

/** Connect to 127.0.0.1:@p port, send @p request, read until close. */
std::string
roundTrip(u16 port, const std::string &request)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0)
        << std::strerror(errno);
    EXPECT_TRUE(writeAll(fd, request));
    ::shutdown(fd, SHUT_WR);
    std::string out;
    while (readInto(fd, out) > 0) {
    }
    ::close(fd);
    return out;
}

std::string
postJson(const std::string &path, const std::string &body)
{
    return "POST " + path + " HTTP/1.1\r\nHost: t\r\n" +
           "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n\r\n" + body;
}

TEST(ServeServerTest, LoopbackEndToEnd)
{
    const serverless::ServingProfile profile = toyProfile();
    ServeOptions sopts;
    sopts.cluster.profile = &profile;
    sopts.cluster.num_gpus = 2;
    sopts.time_scale = 0; // free-run: finish at compute speed
    sopts.model_names = {"toy"};

    Server server(std::move(sopts));
    ASSERT_TRUE(server.start().isOk());
    const u16 port = server.port();
    ASSERT_NE(port, 0);

    // Streamed completion: token frames, a finish_reason frame, DONE.
    const std::string streamed = roundTrip(
        port, postJson("/v1/completions",
                       R"({"model":"toy","prompt":"the quick brown )"
                       R"(fox","max_tokens":5,"stream":true})"));
    EXPECT_EQ(streamed.rfind("HTTP/1.1 200", 0), 0u) << streamed;
    EXPECT_NE(streamed.find("text/event-stream"), std::string::npos);
    u64 frames = 0;
    bool saw_done = false;
    for (std::size_t pos = 0;
         (pos = streamed.find("data: ", pos)) != std::string::npos;) {
        pos += 6;
        if (streamed.compare(pos, 6, "[DONE]") == 0) {
            saw_done = true;
        } else {
            ++frames;
        }
    }
    EXPECT_EQ(frames, 6u); // 5 tokens + finish_reason chunk
    EXPECT_TRUE(saw_done);
    EXPECT_NE(streamed.find("\"finish_reason\":\"length\""),
              std::string::npos);

    // Non-streaming chat completion with usage accounting.
    const std::string chat = roundTrip(
        port, postJson("/v1/chat/completions",
                       R"({"model":"toy","messages":[{"role":"user",)"
                       R"("content":"hello"}],"max_tokens":3})"));
    EXPECT_EQ(chat.rfind("HTTP/1.1 200", 0), 0u) << chat;
    EXPECT_NE(chat.find("\"object\":\"chat.completion\""),
              std::string::npos);
    EXPECT_NE(chat.find("\"completion_tokens\":3"), std::string::npos);

    // Validation and routing errors.
    const std::string bad =
        roundTrip(port, postJson("/v1/completions", "{nope"));
    EXPECT_EQ(bad.rfind("HTTP/1.1 400", 0), 0u) << bad;
    const std::string missing = roundTrip(
        port, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
    EXPECT_EQ(missing.rfind("HTTP/1.1 404", 0), 0u) << missing;
    const std::string unknown_model = roundTrip(
        port,
        postJson("/v1/completions", R"({"model":"x","prompt":"y"})"));
    EXPECT_EQ(unknown_model.rfind("HTTP/1.1 404", 0), 0u)
        << unknown_model;

    // Graceful drain: the two accepted requests are conserved into
    // the run's TraceMetrics, and the front-end counters agree.
    const serverless::TraceMetrics tm = server.stop();
    EXPECT_EQ(tm.completed, 2u);
    const MetricsSnapshot snap = server.metricsSnapshot();
    EXPECT_EQ(snap.counterValue("server.completions"), 1u);
    EXPECT_EQ(snap.counterValue("server.chat_completions"), 1u);
    EXPECT_EQ(snap.counterValue("server.streams"), 1u);
    EXPECT_EQ(snap.counterValue("server.tokens_streamed"), 8u);
    EXPECT_EQ(snap.counterValue("server.rejected"), 3u);
    EXPECT_EQ(snap.counterValue("server.failed"), 0u);
}

TEST(ServeServerTest, RejectsSubmissionsWhileDraining)
{
    const serverless::ServingProfile profile = toyProfile();
    ServeOptions sopts;
    sopts.cluster.profile = &profile;
    sopts.time_scale = 0;
    sopts.model_names = {"toy"};

    Server server(std::move(sopts));
    ASSERT_TRUE(server.start().isOk());
    const u16 port = server.port();
    server.requestStop();

    // The listener is closed; new connections must fail outright.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_NE(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    ::close(fd);

    const serverless::TraceMetrics tm = server.stop();
    EXPECT_EQ(tm.completed, 0u);
}

} // namespace
} // namespace medusa::serve
