#include "serverless/profile.h"

#include <algorithm>

#include "medusa/image.h"
#include "medusa/restore.h"

namespace medusa::serverless {

namespace {

/** Piecewise-linear interpolation over sorted (x, y) samples. */
f64
interpolate(const std::vector<u32> &xs, const std::vector<f64> &ys, u32 x)
{
    MEDUSA_CHECK(!xs.empty() && xs.size() == ys.size(),
                 "empty interpolation table");
    if (x <= xs.front()) {
        return ys.front();
    }
    if (x >= xs.back()) {
        // Extrapolate linearly from the last segment.
        const std::size_t n = xs.size();
        if (n == 1) {
            return ys.back();
        }
        const f64 slope = (ys[n - 1] - ys[n - 2]) /
                          static_cast<f64>(xs[n - 1] - xs[n - 2]);
        return ys[n - 1] + slope * static_cast<f64>(x - xs[n - 1]);
    }
    for (std::size_t i = 1; i < xs.size(); ++i) {
        if (x <= xs[i]) {
            const f64 w = static_cast<f64>(x - xs[i - 1]) /
                          static_cast<f64>(xs[i] - xs[i - 1]);
            return ys[i - 1] + w * (ys[i] - ys[i - 1]);
        }
    }
    return ys.back();
}

} // namespace

f64
ServingProfile::decodeStep(u32 bs) const
{
    return interpolate(batch_sizes, decode_step_sec, std::max<u32>(bs, 1));
}

f64
ServingProfile::prefill(u32 n_tokens) const
{
    return interpolate(prefill_tokens, prefill_sec,
                       std::max<u32>(n_tokens, 1));
}

std::size_t
ServingProfile::bucketIndex(u32 bs) const
{
    for (std::size_t i = 0; i < batch_sizes.size(); ++i) {
        if (bs <= batch_sizes[i]) {
            return i;
        }
    }
    return batch_sizes.empty() ? 0 : batch_sizes.size() - 1;
}

f64
ServingProfile::capturePenalty(u32 bs) const
{
    if (!deferred_capture || capture_penalty_sec.empty()) {
        return 0;
    }
    return capture_penalty_sec.at(bucketIndex(bs));
}

StatusOr<ServingProfile>
buildServingProfile(const ProfileOptions &opts)
{
    ServingProfile profile;
    profile.model_name = opts.model.name;
    profile.strategy = opts.strategy;

    // ---- one real cold start under the strategy -------------------------
    std::unique_ptr<llm::BaselineEngine> baseline;
    std::unique_ptr<core::MedusaEngine> medusa;
    llm::ModelRuntime *rt = nullptr;
    if (opts.strategy == llm::Strategy::kMedusa) {
        if (opts.artifact == nullptr) {
            return invalidArgument(
                "Medusa profile requires a materialized artifact");
        }
        // Restore through the one online path, from the image the
        // caller holds (it outlives the engine restored from it).
        core::MedusaEngine::Options mopts;
        mopts.model = opts.model;
        mopts.aslr_seed = opts.aslr_seed;
        mopts.cost = opts.cost;
        mopts.warm_container = opts.warm_container;
        MEDUSA_ASSIGN_OR_RETURN(
            medusa,
            core::MedusaEngine::coldStartFromImage(mopts, *opts.artifact));
        profile.loading_sec = medusa->coldStartReport().times.loading;
        profile.cold_start_sec = medusa->coldStartReport().times.coldStart();
        rt = &medusa->runtime();
    } else {
        llm::BaselineEngine::Options bopts;
        bopts.model = opts.model;
        bopts.strategy = opts.strategy;
        bopts.aslr_seed = opts.aslr_seed;
        bopts.cost = opts.cost;
        bopts.warm_container = opts.warm_container;
        MEDUSA_ASSIGN_OR_RETURN(baseline,
                                llm::BaselineEngine::coldStart(bopts));
        profile.loading_sec = baseline->coldStartReport().times.loading;
        profile.cold_start_sec = baseline->coldStartReport().times.coldStart();
        rt = &baseline->runtime();
    }

    // Every measurement below is a virtual-clock charge computed on the
    // host before a kernel body runs, and the engine dies at return, so
    // its device contents are never read again: skip the arithmetic.
    rt->process().discardContents();

    // ---- measure decode steps ----------------------------------------
    const bool graphs = opts.strategy != llm::Strategy::kNoCudaGraph;
    const bool deferred =
        opts.strategy == llm::Strategy::kDeferredCapture;
    profile.deferred_capture = deferred;
    for (u32 bs : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 192u, 256u}) {
        if (deferred) {
            // The lazily-paid warm-up + capture + instantiate of this
            // batch size (charged to the first serving step that needs
            // it — §2.4's "merely delays and disperses" cost).
            const f64 before = rt->clock().nowSec();
            MEDUSA_RETURN_IF_ERROR(rt->warmupDecode(bs));
            MEDUSA_ASSIGN_OR_RETURN(auto graph, rt->captureDecode(bs));
            MEDUSA_RETURN_IF_ERROR(rt->instantiateGraph(bs, graph));
            profile.capture_penalty_sec.push_back(rt->clock().nowSec() -
                                                  before);
        }
        MEDUSA_ASSIGN_OR_RETURN(f64 sec,
                                rt->measureDecodeStepSec(bs, graphs));
        profile.batch_sizes.push_back(bs);
        profile.decode_step_sec.push_back(sec);
    }

    // ---- measure prefill -------------------------------------------------
    for (u32 n : {32u, 161u, 512u, 1024u, 2048u}) {
        MEDUSA_ASSIGN_OR_RETURN(f64 sec, rt->measurePrefillSec(n));
        profile.prefill_tokens.push_back(n);
        profile.prefill_sec.push_back(sec);
    }
    return profile;
}

} // namespace medusa::serverless
