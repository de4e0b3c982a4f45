/**
 * @file
 * Serving profiles: the per-(model, strategy) latency numbers the
 * cluster simulator consumes.
 *
 * Rather than hand-writing analytic formulas, the profile is *measured*
 * from the functional engine on the virtual clock: one real cold start
 * under the strategy (Medusa restores the v6 image that materialize
 * already opened — no re-emission, no second open), then decode-step
 * and prefill latencies sampled at several batch sizes/token counts
 * and interpolated.
 */

#ifndef MEDUSA_SERVERLESS_PROFILE_H
#define MEDUSA_SERVERLESS_PROFILE_H

#include <string>
#include <vector>

#include "llm/engine.h"
#include "medusa/image.h"

namespace medusa::serverless {

/** Measured serving latencies of one (model, strategy) pair. */
struct ServingProfile
{
    std::string model_name;
    llm::Strategy strategy = llm::Strategy::kVllm;

    /** Visible loading-phase latency (virtual seconds). */
    f64 loading_sec = 0;
    /** Full cold start (runtime init + loading). */
    f64 cold_start_sec = 0;

    /** Measured decode-step latencies at batch_sizes[i]. */
    std::vector<u32> batch_sizes;
    std::vector<f64> decode_step_sec;

    /** Measured prefill latencies at prefill_tokens[i] real tokens. */
    std::vector<u32> prefill_tokens;
    std::vector<f64> prefill_sec;

    /**
     * §2.4 deferred capture: the first decode step at each batch-size
     * bucket additionally pays warm-up + capture + instantiate.
     */
    bool deferred_capture = false;
    /** Per-bucket lazy-capture penalty (parallel to batch_sizes). */
    std::vector<f64> capture_penalty_sec;

    /** One decode step over bs running sequences (interpolated). */
    f64 decodeStep(u32 bs) const;

    /** The lazy-capture penalty for the bucket covering bs. */
    f64 capturePenalty(u32 bs) const;

    /** The batch-size bucket index covering bs (for warm tracking). */
    std::size_t bucketIndex(u32 bs) const;

    /** One prefill of n real tokens (interpolated). */
    f64 prefill(u32 n_tokens) const;
};

/** Profile construction options. */
struct ProfileOptions
{
    llm::ModelConfig model;
    llm::Strategy strategy = llm::Strategy::kVllm;
    const CostModel *cost = nullptr;
    /**
     * Required when strategy == kMedusa: the materialized image to
     * cold-start from (core::OfflineResult::artifact). It must outlive
     * the call.
     */
    const core::MaterializedImage *artifact = nullptr;
    u64 aslr_seed = 21;
    /** Warm container pool (eliminates runtime init), as in §7.5. */
    bool warm_container = true;
};

/** Cold-start once and measure the serving latencies. */
StatusOr<ServingProfile> buildServingProfile(const ProfileOptions &opts);

} // namespace medusa::serverless

#endif // MEDUSA_SERVERLESS_PROFILE_H
