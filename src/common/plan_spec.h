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

#include <string>
#include <vector>

namespace medusa {

/**
 * Split a compact spec on ';' or ',' into whitespace-trimmed entries;
 * empty entries are dropped ("a;;b" yields {"a", "b"}).
 */
std::vector<std::string> splitSpecEntries(const std::string &spec);

} // namespace medusa

#endif // MEDUSA_COMMON_PLAN_SPEC_H
