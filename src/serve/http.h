/**
 * @file
 * A deliberately small HTTP/1.1 layer for the serving front end:
 *
 *  - HttpParser — incremental request parser (request line, headers,
 *    Content-Length body) that can be fed arbitrary byte chunks, so it
 *    unit-tests without sockets;
 *  - HttpListener / writeAll / readInto — thin POSIX socket plumbing
 *    (loopback-oriented; no TLS, no chunked request bodies);
 *  - response builders, including the Server-Sent-Events framing the
 *    OpenAI streaming API uses (`data: {...}\n\n`, `data: [DONE]`).
 *
 * Only what /v1/completions needs — this is a research serving stack,
 * not a general web server.
 */

#ifndef MEDUSA_SERVE_HTTP_H
#define MEDUSA_SERVE_HTTP_H

#include <atomic>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace medusa::serve {

/** One parsed HTTP request. */
struct HttpRequest
{
    std::string method;
    std::string target;
    /** Header names are lower-cased at parse time; values trimmed. */
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;

    /** Case-insensitive lookup (@p name must be lower-case). */
    const std::string *header(std::string_view name) const;
};

/**
 * Incremental HTTP/1.1 request parser. feed() bytes as they arrive;
 * once complete() the parsed request() is available. reset() to reuse
 * the parser for the next request on a keep-alive connection.
 */
class HttpParser
{
  public:
    /** Upper bound on header block + body (request smashing guard). */
    static constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
    static constexpr std::size_t kMaxBodyBytes = 4 * 1024 * 1024;

    /**
     * Consume @p bytes. Returns an error on malformed input; complete()
     * flips to true once the full request (including body) is in.
     * Bytes past the end of the current request are buffered for the
     * next reset()+feed("") cycle.
     */
    Status feed(std::string_view bytes);

    bool complete() const { return state_ == State::kDone; }
    const HttpRequest &request() const { return req_; }

    /** Drop the parsed request, keep any buffered pipelined bytes. */
    void reset();

  private:
    enum class State : u8
    {
        kHeaders = 0,
        kBody,
        kDone,
    };

    Status parseHeaderBlock();
    Status tryFinishBody();

    State state_ = State::kHeaders;
    std::string buf_;
    std::size_t body_needed_ = 0;
    HttpRequest req_;
};

/** A bound + listening TCP socket. */
class HttpListener
{
  public:
    HttpListener() = default;
    ~HttpListener();
    HttpListener(const HttpListener &) = delete;
    HttpListener &operator=(const HttpListener &) = delete;

    /** Bind and listen; @p port 0 picks an ephemeral port. */
    Status bind(const std::string &host, u16 port);

    /** The actually-bound port (after an ephemeral bind). */
    u16 port() const { return port_; }

    /**
     * Accept one connection, waiting at most @p timeout_ms. Returns
     * the connected fd, -1 on timeout, -2 once the listener is closed.
     */
    int acceptFd(int timeout_ms);

    /** Stop listening: connects are refused, acceptFd() returns -2.
     *  Safe during acceptFd(), as only the destructor frees the fd. */
    void close();

  private:
    /** Set by bind(); only the destructor closes it. */
    int fd_ = -1;
    std::atomic<bool> closed_{false};
    u16 port_ = 0;
};

/** Write all of @p data to @p fd; false on error / peer close. */
bool writeAll(int fd, std::string_view data);

/**
 * Read once into @p buf (appending, up to @p max_chunk bytes).
 * Returns bytes read, 0 on orderly close, -1 on error.
 */
i64 readInto(int fd, std::string &buf, std::size_t max_chunk = 16384);

/** Serialize a complete (non-streaming) response. */
std::string httpResponse(int status, std::string_view content_type,
                         std::string_view body);

/** The header block that opens a text/event-stream response. */
std::string sseResponseHead();

/** One SSE frame: `data: <payload>\n\n`. */
std::string sseEvent(std::string_view payload);

/** Reason phrase for the handful of status codes the server emits. */
const char *httpStatusText(int status);

} // namespace medusa::serve

#endif // MEDUSA_SERVE_HTTP_H
