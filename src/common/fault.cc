#include "common/fault.h"

#include <cctype>
#include <cstdlib>
#include <memory>

#include "common/json.h"
#include "common/plan_spec.h"

namespace medusa {

namespace {

struct PointName
{
    FaultPoint point;
    const char *name;
};

constexpr PointName kPointNames[] = {
    {FaultPoint::kCacheLoader, "cache_loader"},
    {FaultPoint::kReplayPrefix, "replay_prefix"},
    {FaultPoint::kReplayAlloc, "replay_alloc"},
    {FaultPoint::kKernelDlsym, "dlsym"},
    {FaultPoint::kKernelEnumeration, "enumeration"},
    {FaultPoint::kGraphInstantiate, "instantiate"},
    {FaultPoint::kTpRankRestore, "tp_rank"},
    {FaultPoint::kTpLockstep, "tp_lockstep"},
    {FaultPoint::kClusterRestore, "cluster_restore"},
    {FaultPoint::kImageOpen, "image_open"},
    {FaultPoint::kImagePatch, "image_patch"},
};

static_assert(sizeof(kPointNames) / sizeof(kPointNames[0]) ==
                  kFaultPointCount,
              "every FaultPoint needs a spec name");

/** Comma-separated list of every registered point name (for errors). */
std::string
validPointNames()
{
    std::string out;
    for (const PointName &pn : kPointNames) {
        if (!out.empty()) {
            out += ", ";
        }
        out += pn.name;
    }
    return out;
}

/**
 * True for a probability in [0, 1]; written so that NaN, which fails
 * every comparison, is rejected rather than silently never firing.
 */
bool
validProbability(f64 p)
{
    return p >= 0 && p <= 1;
}

} // namespace

const char *
faultPointName(FaultPoint point)
{
    for (const PointName &pn : kPointNames) {
        if (pn.point == point) {
            return pn.name;
        }
    }
    return "?";
}

StatusOr<FaultPoint>
faultPointFromName(const std::string &name)
{
    for (const PointName &pn : kPointNames) {
        if (name == pn.name) {
            return pn.point;
        }
    }
    return invalidArgument("unknown fault point \"" + name +
                           "\" (valid: " + validPointNames() + ")");
}

Status
faultInjected(std::string msg)
{
    return Status(StatusCode::kFaultInjected, std::move(msg));
}

bool
FaultPlan::enabled() const
{
    for (const FaultRule &r : rules) {
        if (r.active()) {
            return true;
        }
    }
    return false;
}

// --------------------------------------------------------------- spec form

StatusOr<FaultPlan>
FaultPlan::fromSpec(const std::string &spec)
{
    FaultPlan plan;
    // A point may appear only once: a second rule would silently
    // overwrite the first, which is how fault schedules go stale
    // unnoticed in long env-var specs.
    std::array<bool, kFaultPointCount> seen{};
    for (const std::string &entry : splitSpecEntries(spec)) {
        // The point name is the longest registered name (or "seed")
        // prefixing the entry; modifiers follow. A plain scan for the
        // first modifier character would mis-split names that contain
        // one ("replay_prefix" ends in 'x').
        std::size_t name_len = 0;
        for (const PointName &pn : kPointNames) {
            const std::size_t n =
                std::char_traits<char>::length(pn.name);
            if (n > name_len && entry.compare(0, n, pn.name) == 0) {
                name_len = n;
            }
        }
        if (name_len < 4 && entry.compare(0, 4, "seed") == 0) {
            name_len = 4;
        }
        const std::size_t mod =
            name_len == 0 ? entry.find_first_of("=@x")
            : name_len < entry.size() ? name_len
                                      : std::string::npos;
        const std::string name =
            entry.substr(0, name_len == 0 ? mod : name_len);
        if (name == "seed") {
            if (mod == std::string::npos || entry[mod] != '=') {
                return invalidArgument("fault spec: seed needs =VALUE");
            }
            plan.seed = std::strtoull(entry.c_str() + mod + 1, nullptr,
                                      0);
            continue;
        }
        MEDUSA_ASSIGN_OR_RETURN(FaultPoint point,
                                faultPointFromName(name));
        if (seen[static_cast<std::size_t>(point)]) {
            return invalidArgument(
                "fault spec: duplicate rule for point \"" +
                std::string(faultPointName(point)) + "\"");
        }
        seen[static_cast<std::size_t>(point)] = true;
        FaultRule &rule = plan.rule(point);
        std::size_t i = mod;
        bool any = false;
        while (i != std::string::npos && i < entry.size()) {
            const char kind = entry[i];
            const char *begin = entry.c_str() + i + 1;
            char *after = nullptr;
            if (kind == '=') {
                rule.probability = std::strtod(begin, &after);
                if (after == begin || !validProbability(rule.probability)) {
                    return invalidArgument(
                        "fault spec: bad probability in \"" + entry +
                        "\"");
                }
            } else if (kind == '@') {
                rule.fire_on_hit = std::strtoull(begin, &after, 0);
                if (after == begin || rule.fire_on_hit == 0) {
                    return invalidArgument(
                        "fault spec: bad hit ordinal in \"" + entry +
                        "\"");
                }
            } else { // 'x'
                rule.max_fires = std::strtoull(begin, &after, 0);
                if (after == begin) {
                    return invalidArgument(
                        "fault spec: bad fire cap in \"" + entry + "\"");
                }
            }
            any = true;
            i = static_cast<std::size_t>(after - entry.c_str());
            if (i >= entry.size()) {
                break;
            }
            if (entry[i] != '=' && entry[i] != '@' && entry[i] != 'x') {
                return invalidArgument("fault spec: trailing junk in \"" +
                                       entry + "\"");
            }
        }
        if (!any) {
            // A bare point name means "always fire".
            rule.probability = 1.0;
        }
    }
    return plan;
}

std::string
FaultPlan::toSpec() const
{
    std::string out = "seed=" + std::to_string(seed);
    for (std::size_t i = 0; i < kFaultPointCount; ++i) {
        const FaultRule &r = rules[i];
        if (!r.active()) {
            continue;
        }
        out += ";";
        out += faultPointName(static_cast<FaultPoint>(i));
        if (r.probability > 0) {
            out += "=" + std::to_string(r.probability);
        }
        if (r.fire_on_hit != 0) {
            out += "@" + std::to_string(r.fire_on_hit);
        }
        if (r.max_fires != ~0ull) {
            out += "x" + std::to_string(r.max_fires);
        }
    }
    return out;
}

// --------------------------------------------------------------- JSON form

namespace {

/** @p v as an integer in [0, 2^53], or an error naming @p key. */
StatusOr<u64>
jsonPlanInteger(const Json &v, const std::string &key)
{
    const std::optional<u64> n = v.asUint();
    if (!n.has_value()) {
        return invalidArgument("fault json: \"" + key +
                               "\" must be an integer in [0, 2^53]");
    }
    return *n;
}

Status
parseRuleObject(const Json &obj, FaultPlan &plan,
                std::array<bool, kFaultPointCount> &seen)
{
    if (!obj.isObject()) {
        return invalidArgument("fault json: expected rule object");
    }
    std::optional<FaultPoint> point;
    FaultRule rule;
    for (const auto &[key, v] : obj.members()) {
        if (key == "point") {
            if (!v.isString()) {
                return invalidArgument(
                    "fault json: \"point\" must be a string");
            }
            MEDUSA_ASSIGN_OR_RETURN(point,
                                    faultPointFromName(v.asString()));
        } else if (key == "probability") {
            if (!v.isNumber() || !validProbability(v.asNumber())) {
                return invalidArgument(
                    "fault json: probability out of [0, 1]");
            }
            rule.probability = v.asNumber();
        } else if (key == "fire_on_hit") {
            MEDUSA_ASSIGN_OR_RETURN(rule.fire_on_hit,
                                    jsonPlanInteger(v, key));
            if (rule.fire_on_hit == 0) {
                return invalidArgument(
                    "fault json: fire_on_hit must be >= 1");
            }
        } else if (key == "max_fires") {
            MEDUSA_ASSIGN_OR_RETURN(rule.max_fires,
                                    jsonPlanInteger(v, key));
        } else {
            return invalidArgument("fault json: unknown rule key \"" +
                                   key + "\"");
        }
    }
    if (!point.has_value()) {
        return invalidArgument("fault json: rule missing \"point\"");
    }
    if (seen[static_cast<std::size_t>(*point)]) {
        return invalidArgument(
            "fault json: duplicate rule for point \"" +
            std::string(faultPointName(*point)) + "\"");
    }
    seen[static_cast<std::size_t>(*point)] = true;
    plan.rule(*point) = rule;
    return Status::ok();
}

} // namespace

StatusOr<FaultPlan>
FaultPlan::fromJson(const std::string &json)
{
    MEDUSA_ASSIGN_OR_RETURN(const Json root, Json::parse(json));
    if (!root.isObject()) {
        return invalidArgument("fault json: expected top-level object");
    }
    FaultPlan plan;
    std::array<bool, kFaultPointCount> seen{};
    for (const auto &[key, v] : root.members()) {
        if (key == "seed") {
            MEDUSA_ASSIGN_OR_RETURN(plan.seed, jsonPlanInteger(v, key));
        } else if (key == "rules") {
            if (!v.isArray()) {
                return invalidArgument(
                    "fault json: \"rules\" must be an array");
            }
            for (const Json &rule : v.items()) {
                MEDUSA_RETURN_IF_ERROR(parseRuleObject(rule, plan, seen));
            }
        } else {
            return invalidArgument("fault json: unknown key \"" + key +
                                   "\"");
        }
    }
    return plan;
}

StatusOr<std::optional<FaultPlan>>
FaultPlan::fromEnv()
{
    const char *spec = std::getenv("MEDUSA_FAULT_PLAN");
    if (spec == nullptr || spec[0] == '\0') {
        return std::optional<FaultPlan>{};
    }
    const std::string text = spec;
    auto parsed = text.front() == '{' ? fromJson(text) : fromSpec(text);
    if (!parsed.isOk()) {
        return parsed.status();
    }
    FaultPlan plan = std::move(parsed).value();
    if (const char *seed = std::getenv("MEDUSA_FAULT_SEED");
        seed != nullptr && seed[0] != '\0') {
        plan.seed = std::strtoull(seed, nullptr, 0);
    }
    return std::optional<FaultPlan>(plan);
}

// ------------------------------------------------------------ FaultInjector

namespace {

/**
 * Seed draws once taken by fault points that no longer exist (the v5
 * artifact's deserialize and CRC checks, formerly points 0 and 1).
 * Point i has always been seeded with the (i+1)-th SplitMix64 draw of
 * the plan seed; skipping the retired draws keeps every surviving
 * point on the stream it had, so a (plan, seed) pair keeps producing
 * the same failures (e.g. committed cluster golden rows that arm
 * cluster_restore with a probability).
 */
constexpr std::size_t kRetiredSeedDraws = 2;

} // namespace

FaultInjector::FaultInjector(const FaultPlan &plan) : plan_(plan)
{
    seedStreams();
}

void
FaultInjector::seedStreams()
{
    streams_.clear();
    streams_.reserve(kFaultPointCount);
    SplitMix64 sm(plan_.seed);
    for (std::size_t i = 0; i < kRetiredSeedDraws; ++i) {
        sm.next();
    }
    for (std::size_t i = 0; i < kFaultPointCount; ++i) {
        streams_.emplace_back(sm.next());
    }
}

Status
FaultInjector::check(FaultPoint point, const std::string &detail)
{
    const std::size_t i = static_cast<std::size_t>(point);
    const FaultRule &rule = plan_.rules[i];
    std::lock_guard<std::mutex> lock(mu_);
    const u64 hit = ++hits_[i];
    if (fires_[i] >= rule.max_fires) {
        return Status::ok();
    }
    bool fire = rule.fire_on_hit != 0 && hit == rule.fire_on_hit;
    if (!fire && rule.probability > 0) {
        fire = streams_[i].nextDouble() < rule.probability;
    }
    if (!fire) {
        return Status::ok();
    }
    ++fires_[i];
    std::string msg = "[fault] injected failure at ";
    msg += faultPointName(point);
    msg += " (hit " + std::to_string(hit) + ")";
    if (!detail.empty()) {
        msg += ": " + detail;
    }
    return faultInjected(std::move(msg));
}

f64
FaultInjector::drawFraction(FaultPoint point)
{
    const std::size_t i = static_cast<std::size_t>(point);
    std::lock_guard<std::mutex> lock(mu_);
    return streams_[i].nextDouble();
}

u64
FaultInjector::hits(FaultPoint point) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return hits_[static_cast<std::size_t>(point)];
}

u64
FaultInjector::fires(FaultPoint point) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return fires_[static_cast<std::size_t>(point)];
}

u64
FaultInjector::totalFires() const
{
    std::lock_guard<std::mutex> lock(mu_);
    u64 total = 0;
    for (u64 f : fires_) {
        total += f;
    }
    return total;
}

void
FaultInjector::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    hits_.fill(0);
    fires_.fill(0);
    seedStreams();
}

FaultInjector *
envFaultInjector()
{
    static FaultInjector *injector = []() -> FaultInjector * {
        auto plan = FaultPlan::fromEnv();
        if (!plan.isOk() || !plan->has_value() || !(**plan).enabled()) {
            return nullptr;
        }
        static FaultInjector instance(**plan);
        return &instance;
    }();
    return injector;
}

} // namespace medusa
