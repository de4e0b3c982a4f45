/**
 * @file
 * Spec-form tokenization shared by the deterministic "plan" configs —
 * the restore-stack FaultPlan (common/fault.h) and the cluster
 * ChaosPlan (serverless/chaos.h). Both accept a compact
 * `key=value;key@N` spec form from an environment variable and want
 * identical entry splitting, seed parsing and environment reading.
 */

#ifndef MEDUSA_COMMON_PLAN_SPEC_H
#define MEDUSA_COMMON_PLAN_SPEC_H

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace medusa {

/**
 * Split a compact spec on ';' or ',' into whitespace-trimmed entries;
 * empty entries are dropped ("a;;b" yields {"a", "b"}).
 */
std::vector<std::string> splitSpecEntries(const std::string &spec);

/**
 * Parse the decimal unsigned integer that starts at @p begin, only when
 * it starts with a digit and fits in 64 bits: a bare strtoull would
 * skip whitespace, wrap a '-' sign ("-1" as 2^64-1), saturate an
 * overflow, and in base 0 read "010" as 8 and "0x2" as 2. Decimal only,
 * so "@010" is hit 10 and "@0x2" stops after the "0". On success
 * *@p end points just past the number. Hit ordinals and fire caps use
 * it.
 */
std::optional<u64> parseSpecUintPrefix(const char *begin, char **end);

/**
 * @p text as a whole unsigned integer: decimal as parseSpecUintPrefix
 * reads it, or hex after a "0x"/"0X" prefix ("0x5eed"); there is no
 * octal form. Trailing characters ("5junk") or an empty string yield
 * nullopt. Seeds in the spec forms and the *_SEED environment
 * overrides use it.
 */
std::optional<u64> parseSpecUint(const std::string &text);

/**
 * The plan in environment variable @p plan_var, parsed by
 * Plan::fromSpec, with its seed replaced by @p seed_var when that is
 * set (parseSpecUint). A malformed plan or seed is an error, a seed's
 * naming @p seed_var; nullopt when @p plan_var is unset or empty.
 */
template <typename Plan>
StatusOr<std::optional<Plan>>
planFromEnv(const char *plan_var, const char *seed_var)
{
    const char *spec = std::getenv(plan_var);
    if (spec == nullptr || spec[0] == '\0') {
        return std::optional<Plan>{};
    }
    MEDUSA_ASSIGN_OR_RETURN(Plan plan, Plan::fromSpec(spec));
    if (const char *seed = std::getenv(seed_var);
        seed != nullptr && seed[0] != '\0') {
        const std::optional<u64> value = parseSpecUint(seed);
        if (!value.has_value()) {
            return invalidArgument(std::string(seed_var) + ": bad seed \"" +
                                   seed + "\"");
        }
        plan.seed = *value;
    }
    return std::optional<Plan>(std::move(plan));
}

} // namespace medusa

#endif // MEDUSA_COMMON_PLAN_SPEC_H
