#include "serverless/chaos.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>

#include "common/plan_spec.h"
#include "common/rng.h"

namespace medusa::serverless {

namespace {

/** Spec key table; a key drops its field's `_sec` suffix. */
struct ChaosKey
{
    const char *spec_key;
    f64 ChaosPlan::*field;
};

constexpr ChaosKey kChaosKeys[] = {
    {"node_mtbf", &ChaosPlan::node_mtbf_sec},
    {"node_mttr", &ChaosPlan::node_mttr_sec},
    {"inst_mtbf", &ChaosPlan::inst_mtbf_sec},
    {"store_mtbf", &ChaosPlan::store_mtbf_sec},
    {"store_mttr", &ChaosPlan::store_mttr_sec},
    {"gray_mtbf", &ChaosPlan::gray_mtbf_sec},
    {"gray_mttr", &ChaosPlan::gray_mttr_sec},
    {"gray_slowdown", &ChaosPlan::gray_slowdown},
    {"horizon", &ChaosPlan::horizon_sec},
};

constexpr std::size_t kChaosKeyCount =
    sizeof(kChaosKeys) / sizeof(kChaosKeys[0]);

std::string
validChaosKeys()
{
    std::string out = "seed";
    for (const ChaosKey &k : kChaosKeys) {
        out += ", ";
        out += k.spec_key;
    }
    return out;
}

Status
validatePlan(const ChaosPlan &plan)
{
    for (const ChaosKey &k : kChaosKeys) {
        // The negated form also rejects NaN, which fails every
        // comparison; an infinite duration or slowdown is as invalid.
        const f64 v = plan.*(k.field);
        if (!(v >= 0 && std::isfinite(v))) {
            return invalidArgument(std::string("chaos plan: ") +
                                   k.spec_key +
                                   " must be finite and >= 0");
        }
    }
    if (plan.gray_slowdown < 1.0) {
        return invalidArgument("chaos plan: gray_slowdown must be >= 1");
    }
    return Status::ok();
}

} // namespace

bool
ChaosPlan::enabled() const
{
    return node_mtbf_sec > 0 || inst_mtbf_sec > 0 ||
           store_mtbf_sec > 0 || gray_mtbf_sec > 0;
}

StatusOr<ChaosPlan>
ChaosPlan::fromSpec(const std::string &spec)
{
    ChaosPlan plan;
    std::array<bool, kChaosKeyCount> seen{};
    bool seed_seen = false;
    for (const std::string &entry : splitSpecEntries(spec)) {
        const std::size_t eq = entry.find('=');
        if (eq == std::string::npos || eq == 0) {
            return invalidArgument("chaos spec: entry \"" + entry +
                                   "\" is not key=value");
        }
        const std::string key = entry.substr(0, eq);
        const char *begin = entry.c_str() + eq + 1;
        char *after = nullptr;
        if (key == "seed") {
            if (seed_seen) {
                return invalidArgument(
                    "chaos spec: duplicate key \"seed\"");
            }
            seed_seen = true;
            const std::optional<u64> seed = parseSpecUint(begin);
            if (!seed.has_value()) {
                return invalidArgument("chaos spec: bad seed in \"" +
                                       entry + "\"");
            }
            plan.seed = *seed;
            continue;
        }
        bool matched = false;
        for (std::size_t i = 0; i < kChaosKeyCount; ++i) {
            if (key != kChaosKeys[i].spec_key) {
                continue;
            }
            if (seen[i]) {
                return invalidArgument(
                    "chaos spec: duplicate key \"" + key + "\"");
            }
            seen[i] = true;
            plan.*(kChaosKeys[i].field) = std::strtod(begin, &after);
            if (after == begin || *after != '\0') {
                return invalidArgument("chaos spec: bad value in \"" +
                                       entry + "\"");
            }
            matched = true;
            break;
        }
        if (!matched) {
            return invalidArgument("chaos spec: unknown key \"" + key +
                                   "\" (valid: " + validChaosKeys() +
                                   ")");
        }
    }
    MEDUSA_RETURN_IF_ERROR(validatePlan(plan));
    return plan;
}

StatusOr<std::optional<ChaosPlan>>
ChaosPlan::fromEnv()
{
    return planFromEnv<ChaosPlan>("MEDUSA_CHAOS_PLAN", "MEDUSA_CHAOS_SEED");
}

std::string
ChaosPlan::toSpec() const
{
    std::string out = "seed=" + std::to_string(seed);
    const ChaosPlan defaults;
    for (const ChaosKey &k : kChaosKeys) {
        if (this->*(k.field) == defaults.*(k.field)) {
            continue;
        }
        out += ";";
        out += k.spec_key;
        out += "=" + std::to_string(this->*(k.field));
    }
    return out;
}

const ChaosPlan *
envChaosPlan()
{
    static const ChaosPlan *plan = []() -> const ChaosPlan * {
        auto parsed = ChaosPlan::fromEnv();
        // A malformed plan must not quietly run chaos-free.
        MEDUSA_CHECK(parsed.isOk(), parsed.status().toString());
        if (!parsed->has_value() || !(**parsed).enabled()) {
            return nullptr;
        }
        static const ChaosPlan instance = **parsed;
        return &instance;
    }();
    return plan;
}

std::vector<ChaosEvent>
buildChaosSchedule(const ChaosPlan &plan, f64 horizon_sec)
{
    // Floor on any failure window: a zero-length window would make
    // "now < window end" checks degenerate.
    constexpr f64 kMinWindowSec = 1e-3;

    std::vector<ChaosEvent> schedule;
    if (!plan.enabled() || horizon_sec <= 0) {
        return schedule;
    }

    // One independent stream per failure class, split from the plan
    // seed in kind order — the same scheme FaultInjector uses for its
    // per-point streams.
    SplitMix64 sm(plan.seed);
    Rng node_rng(sm.next());
    Rng inst_rng(sm.next());
    Rng store_rng(sm.next());
    Rng gray_rng(sm.next());

    const auto window_class =
        [&](ChaosEvent::Kind kind, Rng &rng, f64 mtbf, f64 mttr,
            bool with_draw) {
            if (mtbf <= 0) {
                return;
            }
            f64 t = 0;
            for (;;) {
                t += rng.nextExponential(1.0 / mtbf);
                if (t >= horizon_sec) {
                    break;
                }
                ChaosEvent ev;
                ev.kind = kind;
                ev.start_sec = t;
                ev.end_sec =
                    kind == ChaosEvent::Kind::kInstanceCrash
                        ? t
                        : t + std::max(rng.nextExponential(1.0 / mttr),
                                       kMinWindowSec);
                ev.draw = with_draw ? rng.nextU64() : 0;
                schedule.push_back(ev);
            }
        };

    window_class(ChaosEvent::Kind::kNodeCrash, node_rng,
                 plan.node_mtbf_sec,
                 std::max(plan.node_mttr_sec, kMinWindowSec),
                 /*with_draw=*/true);
    window_class(ChaosEvent::Kind::kInstanceCrash, inst_rng,
                 plan.inst_mtbf_sec, 0, /*with_draw=*/true);
    window_class(ChaosEvent::Kind::kStoreOutage, store_rng,
                 plan.store_mtbf_sec,
                 std::max(plan.store_mttr_sec, kMinWindowSec),
                 /*with_draw=*/false);
    window_class(ChaosEvent::Kind::kGrayWindow, gray_rng,
                 plan.gray_mtbf_sec,
                 std::max(plan.gray_mttr_sec, kMinWindowSec),
                 /*with_draw=*/false);

    // Merge the per-class timelines; ties resolve by kind order so the
    // schedule is a pure function of (plan, horizon).
    std::stable_sort(schedule.begin(), schedule.end(),
                     [](const ChaosEvent &a, const ChaosEvent &b) {
                         if (a.start_sec != b.start_sec) {
                             return a.start_sec < b.start_sec;
                         }
                         return static_cast<u8>(a.kind) <
                                static_cast<u8>(b.kind);
                     });
    return schedule;
}

} // namespace medusa::serverless
