/**
 * @file
 * The tree's one JSON reader and one JSON string escaper.
 *
 * Json::parse is a depth-limited recursive-descent parser (objects,
 * arrays, strings with \uXXXX escapes, numbers, bools, null) that
 * rejects trailing bytes. It reads every untrusted JSON input: client
 * request bodies (serve/openai.h) and the exports tools/trace_check
 * validates. Json::dump serializes responses and SSE chunks.
 *
 * appendJsonString is the escaper every writer shares: the streaming
 * Chrome-trace, metrics and lint exporters call it directly and build
 * no Json tree.
 *
 * Deliberately tiny — no DOM mutation beyond building, no number
 * round-trip guarantees beyond what responses need. Object member
 * order is preserved (insertion order), which keeps serialized
 * responses deterministic for the smoke tests. Duplicate keys are kept
 * as separate members; find() returns the first.
 */

#ifndef MEDUSA_COMMON_JSON_H
#define MEDUSA_COMMON_JSON_H

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace medusa {

/** One JSON value (null / bool / number / string / array / object). */
class Json
{
  public:
    enum class Type : u8
    {
        kNull = 0,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject,
    };

    Json() = default;

    /** Parse @p text; trailing non-whitespace is an error. */
    static StatusOr<Json> parse(std::string_view text);

    static Json null() { return Json(); }
    static Json boolean(bool v);
    static Json number(f64 v);
    static Json string(std::string v);
    static Json array();
    static Json object();

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::kNull; }
    bool isBool() const { return type_ == Type::kBool; }
    bool isNumber() const { return type_ == Type::kNumber; }
    bool isString() const { return type_ == Type::kString; }
    bool isArray() const { return type_ == Type::kArray; }
    bool isObject() const { return type_ == Type::kObject; }

    /** Value accessors; call only after checking the type. */
    bool asBool() const { return bool_; }
    f64 asNumber() const { return num_; }
    const std::string &asString() const { return str_; }
    const std::vector<Json> &items() const { return arr_; }
    const std::vector<std::pair<std::string, Json>> &
    members() const
    {
        return obj_;
    }

    /** Object member lookup; null when absent or not an object. */
    const Json *find(std::string_view key) const;

    /** Append to an array value. */
    Json &push(Json v);
    /** Set an object member (appends; keys are not deduplicated). */
    Json &set(std::string key, Json v);

    /** Compact serialization (no whitespace). */
    std::string dump() const;
    void dumpTo(std::string &out) const;

  private:
    Type type_ = Type::kNull;
    bool bool_ = false;
    f64 num_ = 0;
    std::string str_;
    std::vector<Json> arr_;
    std::vector<std::pair<std::string, Json>> obj_;
};

/** Append @p text to @p out as a quoted, escaped JSON string. */
void appendJsonString(std::string &out, std::string_view text);

} // namespace medusa

#endif // MEDUSA_COMMON_JSON_H
