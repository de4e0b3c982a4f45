/**
 * @file
 * Spec-form tokenization shared by the deterministic "plan" configs —
 * the restore-stack FaultPlan (common/fault.h) and the cluster
 * ChaosPlan (serverless/chaos.h). Both accept a compact
 * `key=value;key@N` spec form from an environment variable and want
 * identical entry splitting. Their JSON forms parse through
 * common/json.h.
 */

#ifndef MEDUSA_COMMON_PLAN_SPEC_H
#define MEDUSA_COMMON_PLAN_SPEC_H

#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace medusa {

/**
 * Split a compact spec on ';' or ',' into whitespace-trimmed entries;
 * empty entries are dropped ("a;;b" yields {"a", "b"}).
 */
std::vector<std::string> splitSpecEntries(const std::string &spec);

/**
 * Parse the unsigned integer that starts at @p begin the way
 * strtoull(base 0) reads it (decimal, 0x hex, 0 octal), but only when
 * it starts with a digit and fits in 64 bits: strtoull would skip
 * whitespace, wrap a '-' sign ("-1" as 2^64-1) and saturate an
 * overflow. On success *@p end points just past the number.
 */
std::optional<u64> parseSpecUintPrefix(const char *begin, char **end);

/**
 * @p text as a whole unsigned integer (see parseSpecUintPrefix);
 * trailing characters ("5junk") or an empty string yield nullopt.
 * Seeds in the spec forms and the *_SEED environment overrides use it.
 */
std::optional<u64> parseSpecUint(const std::string &text);

} // namespace medusa

#endif // MEDUSA_COMMON_PLAN_SPEC_H
