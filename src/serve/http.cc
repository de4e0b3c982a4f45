#include "serve/http.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace medusa::serve {

namespace {

std::string
toLower(std::string_view s)
{
    std::string out(s);
    std::transform(out.begin(), out.end(), out.begin(), [](char c) {
        return static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    });
    return out;
}

std::string_view
trim(std::string_view s)
{
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
        s.remove_prefix(1);
    }
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                          s.back() == '\r')) {
        s.remove_suffix(1);
    }
    return s;
}

} // namespace

const std::string *
HttpRequest::header(std::string_view name) const
{
    for (const auto &[k, v] : headers) {
        if (k == name) {
            return &v;
        }
    }
    return nullptr;
}

Status
HttpParser::feed(std::string_view bytes)
{
    buf_.append(bytes);
    if (state_ == State::kHeaders) {
        MEDUSA_RETURN_IF_ERROR(parseHeaderBlock());
    }
    if (state_ == State::kBody) {
        MEDUSA_RETURN_IF_ERROR(tryFinishBody());
    }
    return Status::ok();
}

Status
HttpParser::parseHeaderBlock()
{
    const std::size_t end = buf_.find("\r\n\r\n");
    if (end == std::string::npos) {
        if (buf_.size() > kMaxHeaderBytes) {
            return invalidArgument("http: header block too large");
        }
        return Status::ok();
    }

    std::string_view head(buf_.data(), end);
    // Request line: METHOD SP TARGET SP VERSION.
    const std::size_t line_end = head.find("\r\n");
    const std::string_view line =
        head.substr(0, line_end == std::string_view::npos ? head.size()
                                                          : line_end);
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
        return invalidArgument("http: malformed request line");
    }
    req_.method = std::string(line.substr(0, sp1));
    req_.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
    const std::string_view version = line.substr(sp2 + 1);
    if (version.substr(0, 7) != "HTTP/1.") {
        return invalidArgument("http: unsupported protocol version");
    }

    std::size_t pos =
        line_end == std::string_view::npos ? head.size() : line_end + 2;
    while (pos < head.size()) {
        std::size_t eol = head.find("\r\n", pos);
        if (eol == std::string_view::npos) {
            eol = head.size();
        }
        const std::string_view hline = head.substr(pos, eol - pos);
        const std::size_t colon = hline.find(':');
        if (colon == std::string_view::npos) {
            return invalidArgument("http: malformed header line");
        }
        req_.headers.emplace_back(
            toLower(trim(hline.substr(0, colon))),
            std::string(trim(hline.substr(colon + 1))));
        pos = eol + 2;
    }

    body_needed_ = 0;
    if (const std::string *cl = req_.header("content-length")) {
        char *endp = nullptr;
        const unsigned long long n =
            std::strtoull(cl->c_str(), &endp, 10);
        if (endp != cl->c_str() + cl->size() || n > kMaxBodyBytes) {
            return invalidArgument("http: bad content-length");
        }
        body_needed_ = static_cast<std::size_t>(n);
    } else if (req_.header("transfer-encoding") != nullptr) {
        return invalidArgument(
            "http: chunked request bodies are not supported");
    }

    buf_.erase(0, end + 4);
    state_ = State::kBody;
    return Status::ok();
}

Status
HttpParser::tryFinishBody()
{
    if (buf_.size() < body_needed_) {
        return Status::ok();
    }
    req_.body = buf_.substr(0, body_needed_);
    buf_.erase(0, body_needed_);
    state_ = State::kDone;
    return Status::ok();
}

void
HttpParser::reset()
{
    req_ = HttpRequest{};
    body_needed_ = 0;
    state_ = State::kHeaders;
    // buf_ keeps any pipelined bytes; re-parse them immediately.
    if (!buf_.empty()) {
        (void)feed("");
    }
}

HttpListener::~HttpListener()
{
    if (fd_ >= 0) {
        ::close(fd_);
    }
}

Status
HttpListener::bind(const std::string &host, u16 port)
{
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
        return internalError("socket() failed: " +
                             std::string(std::strerror(errno)));
    }
    const int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        return invalidArgument("bad listen address: " + host);
    }
    if (::bind(fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        return internalError("bind(" + host + ") failed: " +
                             std::string(std::strerror(errno)));
    }
    if (::listen(fd_, 64) != 0) {
        return internalError("listen() failed: " +
                             std::string(std::strerror(errno)));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd_, reinterpret_cast<sockaddr *>(&bound),
                      &len) != 0) {
        return internalError("getsockname() failed");
    }
    port_ = ntohs(bound.sin_port);
    return Status::ok();
}

int
HttpListener::acceptFd(int timeout_ms)
{
    if (fd_ < 0 || closed_.load()) {
        return -2;
    }
    pollfd p{};
    p.fd = fd_;
    p.events = POLLIN;
    const int r = ::poll(&p, 1, timeout_ms);
    if (r <= 0) {
        return -1;
    }
    const int c = ::accept(fd_, nullptr, nullptr);
    if (c < 0) {
        return closed_.load() ? -2 : -1;
    }
    const int one = 1;
    ::setsockopt(c, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return c;
}

void
HttpListener::close()
{
    if (fd_ >= 0 && !closed_.exchange(true)) {
        ::shutdown(fd_, SHUT_RDWR);
    }
}

bool
writeAll(int fd, std::string_view data)
{
    while (!data.empty()) {
        const auto n =
            ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR) {
                continue;
            }
            return false;
        }
        data.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
}

i64
readInto(int fd, std::string &buf, std::size_t max_chunk)
{
    const std::size_t old = buf.size();
    buf.resize(old + max_chunk);
    const auto n = ::recv(fd, buf.data() + old, max_chunk, 0);
    buf.resize(old + (n > 0 ? static_cast<std::size_t>(n) : 0));
    if (n < 0 && errno == EINTR) {
        return readInto(fd, buf, max_chunk);
    }
    return n;
}

const char *
httpStatusText(int status)
{
    switch (status) {
    case 200:
        return "OK";
    case 400:
        return "Bad Request";
    case 404:
        return "Not Found";
    case 405:
        return "Method Not Allowed";
    case 429:
        return "Too Many Requests";
    case 500:
        return "Internal Server Error";
    case 503:
        return "Service Unavailable";
    default:
        return "Unknown";
    }
}

std::string
httpResponse(int status, std::string_view content_type,
             std::string_view body)
{
    std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                      httpStatusText(status) + "\r\n";
    out += "Content-Type: ";
    out += content_type;
    out += "\r\nContent-Length: " + std::to_string(body.size());
    out += "\r\nConnection: keep-alive\r\n\r\n";
    out += body;
    return out;
}

std::string
sseResponseHead()
{
    return "HTTP/1.1 200 OK\r\n"
           "Content-Type: text/event-stream\r\n"
           "Cache-Control: no-cache\r\n"
           "Connection: close\r\n\r\n";
}

std::string
sseEvent(std::string_view payload)
{
    std::string out = "data: ";
    out += payload;
    out += "\n\n";
    return out;
}

} // namespace medusa::serve
