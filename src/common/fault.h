/**
 * @file
 * Deterministic fault injection for the restore stack.
 *
 * A FaultPlan names the restore-stack operations (FaultPoint) that may
 * fail and how: with a per-hit probability, on a specific hit ordinal,
 * or both, capped by a maximum fire count. A FaultInjector executes the
 * plan with one seeded Rng stream per point, so a given (plan, seed)
 * produces the same failures run after run regardless of which other
 * points are exercised in between.
 *
 * Call sites hold a `FaultInjector *` that is null in production —
 * MEDUSA_FAULT_POINT compiles to a single pointer test when injection
 * is disabled, keeping the default restore path bit-identical.
 *
 * Plans come from code, from a compact spec string, or from the
 * environment:
 *
 *   MEDUSA_FAULT_PLAN='dlsym@3;image_open=0.05' spec form
 *   MEDUSA_FAULT_SEED=7                        seed override
 *
 * Spec entries are separated by ';' or ',': `point=P` fires with
 * probability P per hit; `point@N` fires deterministically on the N-th
 * hit (1-based); `pointxM` caps total fires at M and combines with
 * either form (`dlsym@2x1`). A bare `point` fires on every hit, and
 * `pointxM` alone on every hit up to M fires. `seed=S` sets the plan
 * seed. N, M, S and MEDUSA_FAULT_SEED are unsigned 64-bit decimal
 * integers (no sign; S and the variable may also be 0x hex, and take
 * no trailing characters). Naming the same point, or
 * the seed, twice is an error (the second entry would silently
 * overwrite the first), as is an unknown point name — the error lists
 * every valid name. N is at least 1, and a probability must lie in
 * [0, 1] (NaN is rejected).
 */

#ifndef MEDUSA_COMMON_FAULT_H
#define MEDUSA_COMMON_FAULT_H

#include <array>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"

namespace medusa {

/** Restore-stack operations that can be made to fail. */
enum class FaultPoint : u8 {
    /** Organic allocation-prefix verification after structure init. */
    kReplayPrefix = 0,
    /** One replayed (de)allocation of the recorded sequence. */
    kReplayAlloc,
    /** Kernel resolution through dlsym + cudaGetFuncBySymbol. */
    kKernelDlsym,
    /** Kernel resolution through module enumeration (§5 name table). */
    kKernelEnumeration,
    /** cudaGraphInstantiate of one rebuilt graph. */
    kGraphInstantiate,
    /** One tensor-parallel rank's restore (the rank dies). */
    kTpRankRestore,
    /** Tensor-parallel lockstep validation replay. */
    kTpLockstep,
    /** Cluster-simulator coarse per-cold-start restore outcome. */
    kClusterRestore,
    /** v6 image open (structure decode + whole-image CRC). */
    kImageOpen,
    /** One relocation batch of the in-place patch pass (torn patch). */
    kImagePatch,
};

/** Number of distinct fault points. */
inline constexpr std::size_t kFaultPointCount =
    static_cast<std::size_t>(FaultPoint::kImagePatch) + 1;

/** Stable short name ("dlsym", "image_open", ...) for specs and reports. */
const char *faultPointName(FaultPoint point);

/** Reverse of faultPointName; kInvalidArgument on unknown names. */
StatusOr<FaultPoint> faultPointFromName(const std::string &name);

/** How one fault point misbehaves. */
struct FaultRule
{
    /** Per-hit Bernoulli failure probability in [0, 1]. */
    f64 probability = 0;
    /** Fire deterministically on this 1-based hit ordinal (0 = off). */
    u64 fire_on_hit = 0;
    /** Cap on total fires at this point. */
    u64 max_fires = ~0ull;

    bool
    active() const
    {
        return (probability > 0 || fire_on_hit != 0) && max_fires > 0;
    }
};

/** A complete, deterministic failure schedule. */
struct FaultPlan
{
    u64 seed = 0x5eed;
    std::array<FaultRule, kFaultPointCount> rules;

    FaultRule &
    rule(FaultPoint point)
    {
        return rules[static_cast<std::size_t>(point)];
    }
    const FaultRule &
    rule(FaultPoint point) const
    {
        return rules[static_cast<std::size_t>(point)];
    }

    /** True if any rule can ever fire. */
    bool enabled() const;

    /** Parse the compact spec form (see file comment). */
    static StatusOr<FaultPlan> fromSpec(const std::string &spec);

    /**
     * Build a plan from the MEDUSA_FAULT_PLAN spec with
     * MEDUSA_FAULT_SEED overriding the seed (planFromEnv,
     * common/plan_spec.h).
     */
    static StatusOr<std::optional<FaultPlan>> fromEnv();

    /** Render back to the compact spec form (for logs and reports). */
    std::string toSpec() const;
};

/**
 * Executes a FaultPlan. Thread-safe; deterministic per point in
 * hit-order (each point draws from its own seeded stream).
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultPlan &plan);

    /**
     * Register one hit at @p point: returns kFaultInjected when the
     * plan fires there, OK otherwise. @p detail names the operation for
     * the error message.
     */
    Status check(FaultPoint point, const std::string &detail = "");

    /**
     * A deterministic uniform draw in [0, 1) from @p point's stream —
     * used by coarse models (e.g. the cluster simulator's wasted-time
     * fraction) so their randomness replays with the plan.
     */
    f64 drawFraction(FaultPoint point);

    u64 hits(FaultPoint point) const;
    u64 fires(FaultPoint point) const;
    u64 totalFires() const;
    const FaultPlan &plan() const { return plan_; }

    /** Rewind hit counters and rng streams to the plan seed. */
    void reset();

  private:
    /** (Re)build one seeded stream per point from plan_.seed. */
    void seedStreams();

    FaultPlan plan_;
    mutable std::mutex mu_;
    /** One independent stream per point (Rng is not default-constructible). */
    std::vector<Rng> streams_;
    std::array<u64, kFaultPointCount> hits_{};
    std::array<u64, kFaultPointCount> fires_{};
};

/**
 * The process-wide injector configured from the environment, or null
 * when MEDUSA_FAULT_PLAN is unset, empty or enables no rule. Built once
 * on first use, so engines can honor the env vars without explicit
 * wiring. A malformed MEDUSA_FAULT_PLAN or MEDUSA_FAULT_SEED prints
 * the parse error and aborts the process, so a typo cannot turn a
 * fault-injected run into a fault-free one.
 */
FaultInjector *envFaultInjector();

/** Build an error for an injected fault (kFaultInjected). */
Status faultInjected(std::string msg);

} // namespace medusa

/**
 * Register a hit at @p point on @p injector (may be null) and return
 * the injected error from the enclosing function when the plan fires.
 */
#define MEDUSA_FAULT_POINT(injector, point, detail)                          \
    do {                                                                     \
        if ((injector) != nullptr) {                                         \
            ::medusa::Status medusa_fault_st =                               \
                (injector)->check((point), (detail));                        \
            if (!medusa_fault_st.isOk()) {                                   \
                return medusa_fault_st;                                      \
            }                                                                \
        }                                                                    \
    } while (0)

#endif // MEDUSA_COMMON_FAULT_H
