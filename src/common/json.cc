#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace medusa {

namespace {

/** Recursive-descent parser over a string_view cursor. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    StatusOr<Json>
    run()
    {
        MEDUSA_ASSIGN_OR_RETURN(Json v, value(0));
        skipWs();
        if (pos_ != text_.size()) {
            return fail("trailing characters after JSON value");
        }
        return v;
    }

  private:
    static constexpr int kMaxDepth = 64;

    Status
    fail(const std::string &msg) const
    {
        return invalidArgument("json: " + msg + " at offset " +
                               std::to_string(pos_));
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    consumeWord(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) == word) {
            pos_ += word.size();
            return true;
        }
        return false;
    }

    StatusOr<Json>
    value(int depth)
    {
        if (depth > kMaxDepth) {
            return fail("nesting too deep");
        }
        skipWs();
        if (pos_ >= text_.size()) {
            return fail("unexpected end of input");
        }
        const char c = text_[pos_];
        switch (c) {
        case '{':
            return parseObject(depth);
        case '[':
            return parseArray(depth);
        case '"': {
            MEDUSA_ASSIGN_OR_RETURN(std::string s, parseString());
            return Json::string(std::move(s));
        }
        case 't':
            if (consumeWord("true")) {
                return Json::boolean(true);
            }
            return fail("bad literal");
        case 'f':
            if (consumeWord("false")) {
                return Json::boolean(false);
            }
            return fail("bad literal");
        case 'n':
            if (consumeWord("null")) {
                return Json::null();
            }
            return fail("bad literal");
        default:
            return parseNumber();
        }
    }

    StatusOr<Json>
    parseObject(int depth)
    {
        consume('{');
        Json obj = Json::object();
        skipWs();
        if (consume('}')) {
            return obj;
        }
        for (;;) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                return fail("expected object key");
            }
            MEDUSA_ASSIGN_OR_RETURN(std::string key, parseString());
            skipWs();
            if (!consume(':')) {
                return fail("expected ':'");
            }
            MEDUSA_ASSIGN_OR_RETURN(Json v, value(depth + 1));
            obj.set(std::move(key), std::move(v));
            skipWs();
            if (consume(',')) {
                continue;
            }
            if (consume('}')) {
                return obj;
            }
            return fail("expected ',' or '}'");
        }
    }

    StatusOr<Json>
    parseArray(int depth)
    {
        consume('[');
        Json arr = Json::array();
        skipWs();
        if (consume(']')) {
            return arr;
        }
        for (;;) {
            MEDUSA_ASSIGN_OR_RETURN(Json v, value(depth + 1));
            arr.push(std::move(v));
            skipWs();
            if (consume(',')) {
                continue;
            }
            if (consume(']')) {
                return arr;
            }
            return fail("expected ',' or ']'");
        }
    }

    StatusOr<u32>
    parseHex4()
    {
        if (pos_ + 4 > text_.size()) {
            return fail("truncated \\u escape");
        }
        u32 v = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_ + static_cast<std::size_t>(i)];
            v <<= 4;
            if (c >= '0' && c <= '9') {
                v |= static_cast<u32>(c - '0');
            } else if (c >= 'a' && c <= 'f') {
                v |= static_cast<u32>(c - 'a' + 10);
            } else if (c >= 'A' && c <= 'F') {
                v |= static_cast<u32>(c - 'A' + 10);
            } else {
                return fail("bad \\u escape");
            }
        }
        pos_ += 4;
        return v;
    }

    static void
    appendUtf8(std::string &out, u32 cp)
    {
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        } else if (cp < 0x10000) {
            out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        } else {
            out.push_back(static_cast<char>(0xf0 | (cp >> 18)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        }
    }

    StatusOr<std::string>
    parseString()
    {
        consume('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size()) {
                return fail("unterminated string");
            }
            const char c = text_[pos_++];
            if (c == '"') {
                return out;
            }
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size()) {
                return fail("unterminated escape");
            }
            const char e = text_[pos_++];
            switch (e) {
            case '"':
            case '\\':
            case '/':
                out.push_back(e);
                break;
            case 'b':
                out.push_back('\b');
                break;
            case 'f':
                out.push_back('\f');
                break;
            case 'n':
                out.push_back('\n');
                break;
            case 'r':
                out.push_back('\r');
                break;
            case 't':
                out.push_back('\t');
                break;
            case 'u': {
                MEDUSA_ASSIGN_OR_RETURN(u32 cp, parseHex4());
                if (cp >= 0xd800 && cp < 0xdc00 &&
                    text_.substr(pos_, 2) == "\\u") {
                    pos_ += 2;
                    MEDUSA_ASSIGN_OR_RETURN(u32 lo, parseHex4());
                    if (lo >= 0xdc00 && lo < 0xe000) {
                        cp = 0x10000 + ((cp - 0xd800) << 10) +
                             (lo - 0xdc00);
                    } else {
                        return fail("bad surrogate pair");
                    }
                }
                appendUtf8(out, cp);
                break;
            }
            default:
                return fail("bad escape");
            }
        }
    }

    StatusOr<Json>
    parseNumber()
    {
        const std::size_t start = pos_;
        consume('-');
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) !=
                    0 ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start) {
            return fail("expected a value");
        }
        const std::string tok(text_.substr(start, pos_ - start));
        char *end = nullptr;
        const f64 v = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size()) {
            return fail("bad number");
        }
        return Json::number(v);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

} // namespace

Json
Json::boolean(bool v)
{
    Json j;
    j.type_ = Type::kBool;
    j.bool_ = v;
    return j;
}

Json
Json::number(f64 v)
{
    Json j;
    j.type_ = Type::kNumber;
    j.num_ = v;
    return j;
}

Json
Json::string(std::string v)
{
    Json j;
    j.type_ = Type::kString;
    j.str_ = std::move(v);
    return j;
}

Json
Json::array()
{
    Json j;
    j.type_ = Type::kArray;
    return j;
}

Json
Json::object()
{
    Json j;
    j.type_ = Type::kObject;
    return j;
}

StatusOr<Json>
Json::parse(std::string_view text)
{
    return Parser(text).run();
}

const Json *
Json::find(std::string_view key) const
{
    if (type_ != Type::kObject) {
        return nullptr;
    }
    for (const auto &[k, v] : obj_) {
        if (k == key) {
            return &v;
        }
    }
    return nullptr;
}

Json &
Json::push(Json v)
{
    MEDUSA_CHECK(type_ == Type::kArray, "push on non-array Json");
    arr_.push_back(std::move(v));
    return *this;
}

Json &
Json::set(std::string key, Json v)
{
    MEDUSA_CHECK(type_ == Type::kObject, "set on non-object Json");
    obj_.emplace_back(std::move(key), std::move(v));
    return *this;
}

void
appendJsonString(std::string &out, std::string_view text)
{
    out.push_back('"');
    for (const char c : text) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
}

void
Json::dumpTo(std::string &out) const
{
    switch (type_) {
    case Type::kNull:
        out += "null";
        break;
    case Type::kBool:
        out += bool_ ? "true" : "false";
        break;
    case Type::kNumber: {
        if (std::isfinite(num_) &&
            num_ == static_cast<f64>(static_cast<i64>(num_)) &&
            std::abs(num_) < 1e15) {
            out += std::to_string(static_cast<i64>(num_));
        } else {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.17g", num_);
            out += buf;
        }
        break;
    }
    case Type::kString:
        appendJsonString(out, str_);
        break;
    case Type::kArray: {
        out.push_back('[');
        bool first = true;
        for (const Json &v : arr_) {
            if (!first) {
                out.push_back(',');
            }
            first = false;
            v.dumpTo(out);
        }
        out.push_back(']');
        break;
    }
    case Type::kObject: {
        out.push_back('{');
        bool first = true;
        for (const auto &[k, v] : obj_) {
            if (!first) {
                out.push_back(',');
            }
            first = false;
            appendJsonString(out, k);
            out.push_back(':');
            v.dumpTo(out);
        }
        out.push_back('}');
        break;
    }
    }
}

std::string
Json::dump() const
{
    std::string out;
    dumpTo(out);
    return out;
}

} // namespace medusa
