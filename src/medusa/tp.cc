#include "medusa/tp.h"

#include <algorithm>

#include "llm/engine.h"
#include "medusa/lint/lint.h"
#include "medusa/offline.h"

namespace medusa::core {

using llm::ModelRuntime;
using llm::TpCluster;

StatusOr<TpOfflineResult>
materializeTp(const TpOfflineOptions &opts)
{
    TpOfflineResult result;
    std::vector<u32> batch_sizes = opts.batch_sizes;
    if (batch_sizes.empty()) {
        batch_sizes = llm::captureBatchSizes();
        std::sort(batch_sizes.begin(), batch_sizes.end(),
                  std::greater<>());
    }

    // One recorder per rank, wired into the cluster at creation.
    std::vector<std::unique_ptr<Recorder>> recorders;
    TpCluster::Options copts;
    copts.model = opts.model;
    copts.world = opts.world;
    copts.aslr_seed = opts.aslr_seed;
    copts.cost = opts.cost;
    for (u32 r = 0; r < opts.world; ++r) {
        recorders.push_back(std::make_unique<Recorder>());
        copts.alloc_observers.push_back(recorders.back().get());
        copts.launch_observers.push_back(recorders.back().get());
        copts.engine_observers.push_back(recorders.back().get());
    }
    MEDUSA_ASSIGN_OR_RETURN(auto cluster, TpCluster::create(copts));

    // ---- per rank: capturing stage, analysis stage, v6 image ----------
    // Ranks are independent processes, so running each rank's offline
    // phase in turn leaves every rank as a stage-interleaved run would.
    for (u32 r = 0; r < opts.world; ++r) {
        ModelRuntime &rank = cluster->rank(r);
        MEDUSA_ASSIGN_OR_RETURN(
            CapturedStage captured,
            runCaptureStage(rank, *recorders[r], batch_sizes, nullptr));
        // Each stage's wall time is the slowest rank's.
        const f64 captured_at = rank.clock().nowSec();
        result.capture_stage_sec =
            std::max(result.capture_stage_sec, captured_at);

        MEDUSA_ASSIGN_OR_RETURN(
            AnalysisResult analysis,
            analyze(*recorders[r], rank.process(), opts.model.name,
                    opts.model.seed, captured.graphs, captured.free_bytes,
                    AnalyzeOptions{}));
        result.analysis_stage_sec = std::max(
            result.analysis_stage_sec, rank.clock().nowSec() - captured_at);

        result.rank_images.push_back(
            analysis.image.finish(rank.tokenizer().merges()));
    }
    return result;
}

StatusOr<std::vector<MaterializedImage>>
openRankImages(const std::vector<std::vector<u8>> &rank_images)
{
    std::vector<MaterializedImage> images;
    images.reserve(rank_images.size());
    for (const std::vector<u8> &bytes : rank_images) {
        MEDUSA_ASSIGN_OR_RETURN(
            auto image,
            MaterializedImage::openView(std::span<const u8>(bytes)));
        images.push_back(std::move(image));
    }
    return images;
}

StatusOr<std::unique_ptr<TpMedusaEngine>>
TpMedusaEngine::coldStartFromImages(
    const Options &caller_opts,
    const std::vector<MaterializedImage> &rank_images)
{
    // As in MedusaEngine::coldStartFromImage: the environment's fault
    // plan applies when no injector was wired explicitly.
    Options opts = caller_opts;
    if (opts.restore.pipeline.fault == nullptr) {
        opts.restore.pipeline.fault = envFaultInjector();
    }
    TraceRecorder *user_trace = opts.restore.pipeline.trace;

    if (rank_images.size() != opts.world) {
        return invalidArgument("one image per rank required");
    }
    for (const MaterializedImage &image : rank_images) {
        if (image.model_name != opts.model.name ||
            image.model_seed != opts.model.seed) {
            return validationFailure(
                "rank image was materialized for model " +
                image.model_name);
        }
    }

    // Optional static pre-restore check: per-rank image rules plus the
    // cross-rank MDL6xx family (topology, batch sets, collective
    // ordering) — a divergent rank would deadlock lockstep replay.
    if (opts.restore.pipeline.lint) {
        const lint::LintReport lint_report =
            lint::lintTpImages(rank_images);
        if (!lint_report.replaySafe()) {
            return validationFailure(
                "rank images failed pre-restore lint: " +
                lint_report.firstError());
        }
    }

    std::unique_ptr<TpMedusaEngine> engine(new TpMedusaEngine());
    TpCluster::Options copts;
    copts.model = opts.model;
    copts.world = opts.world;
    copts.aslr_seed = opts.aslr_seed;
    copts.cost = opts.cost;
    MEDUSA_ASSIGN_OR_RETURN(engine->cluster_,
                            TpCluster::create(copts));
    TpCluster &cluster = *engine->cluster_;

    // Per-rank recorders bound to each rank's clock; merged into the
    // consolidated report on track = rank at the end.
    std::vector<std::unique_ptr<TraceRecorder>> recs;
    for (u32 r = 0; r < opts.world; ++r) {
        recs.push_back(
            std::make_unique<TraceRecorder>(&cluster.rank(r).clock()));
    }

    FaultInjector *fault = opts.restore.pipeline.fault;
    // The rank whose clock sets the loading latency: the slowest, ties
    // to the lower rank.
    auto slowestRank = [&cluster, &opts]() {
        u32 slowest = 0;
        for (u32 r = 1; r < opts.world; ++r) {
            if (cluster.rank(r).clock().now() >
                cluster.rank(slowest).clock().now()) {
                slowest = r;
            }
        }
        return slowest;
    };

    // Per-rank stage laps of the last restore attempt or the fallback.
    std::vector<StageTimes> rank_times(opts.world);
    // The slowest rank at the end of the successful attempt's restore,
    // taken before the validation pass (validation advances the rank
    // clocks but is not part of the visible loading phase).
    u32 restored_slowest = 0;
    f64 restored_loading = 0;
    // The vanilla-captured reference cluster for lockstep validation.
    // It does not depend on the attempt, so the first attempt that
    // reaches validation builds it and later attempts reuse it.
    std::unique_ptr<TpCluster> reference;
    u64 reference_builds = 0;

    // One restore attempt: the single-GPU step list on each rank in
    // turn, then the optional lockstep validation — a validation
    // mismatch is an attempt failure like any other.
    auto attempt = [&](std::span<const std::unique_ptr<ReplayTable>> tables,
                       std::span<RestoreReport> reports) -> Status {
        for (u32 r = 0; r < opts.world; ++r) {
            Span rank_span(recs[r].get(), "tp.rank_restore", "restore");
            rank_span.arg("rank", std::to_string(r));
            MEDUSA_FAULT_POINT(fault, FaultPoint::kTpRankRestore,
                               "rank " + std::to_string(r));
            RestoreOptions rank_restore = opts.restore;
            rank_restore.pipeline.trace = recs[r].get();
            MEDUSA_RETURN_IF_ERROR(runRestoreSteps(
                rank_images[r], cluster.rank(r), *tables[r], rank_restore,
                rank_times[r], reports[r]));
        }
        restored_slowest = slowestRank();
        restored_loading = cluster.rank(restored_slowest).clock().nowSec();

        // Optional validation: restored lockstep replay must match a
        // reference (vanilla-captured) cluster bit for bit.
        if (opts.restore.pipeline.validate) {
            std::vector<u32> sizes;
            for (u32 bs : opts.restore.pipeline.validate_batch_sizes) {
                if (cluster.rank(0).hasGraph(bs)) {
                    sizes.push_back(bs);
                }
            }
            if (reference == nullptr) {
                TpCluster::Options vopts;
                vopts.model = opts.model;
                vopts.world = opts.world;
                vopts.aslr_seed = opts.aslr_seed + 9999;
                vopts.cost = opts.cost;
                MEDUSA_ASSIGN_OR_RETURN(
                    reference, TpCluster::createCaptured(vopts, sizes));
                ++reference_builds;
            }
            for (u32 bs : sizes) {
                MEDUSA_FAULT_POINT(fault, FaultPoint::kTpLockstep,
                                   "lockstep bs=" + std::to_string(bs));
                MEDUSA_RETURN_IF_ERROR(
                    reference->stageValidationState(bs));
                MEDUSA_ASSIGN_OR_RETURN(
                    auto expected, reference->lockstepDecodeLogits(bs));
                MEDUSA_RETURN_IF_ERROR(cluster.stageValidationState(bs));
                auto got = cluster.lockstepDecodeLogits(bs);
                if (!got.isOk()) {
                    return validationFailure(
                        "restored TP graphs bs=" + std::to_string(bs) +
                        " failed to replay: " + got.status().toString());
                }
                if (*got != expected) {
                    return validationFailure(
                        "restored TP graphs bs=" + std::to_string(bs) +
                        " mismatch the reference cluster");
                }
                for (RestoreReport &report : reports) {
                    report.validated = true;
                }
            }
        }
        return Status::ok();
    };

    // The shared attempt loop over every rank: the ranks degrade
    // coherently — one failure rolls back and falls back ALL of them.
    std::vector<RestoreTarget> targets;
    for (u32 r = 0; r < opts.world; ++r) {
        targets.push_back({&cluster.rank(r), &rank_images[r], recs[r].get()});
    }
    ColdStartReport &cs = engine->report_;
    StatusOr<ColdStartOutcome> outcome =
        runRestoreAttempts(targets, opts.restore.fallback, attempt,
                           engine->tables_, engine->reports_);
    Status st = outcome.status();
    if (st.isOk()) {
        cs.outcome = *outcome;
    }
    const bool fallback_vanilla = cs.outcome == ColdStartOutcome::kFellBack;
    if (fallback_vanilla) {
        // Degraded mode: the vanilla cold start on each clean rank
        // process, in rank order.
        for (u32 r = 0; r < opts.world && st.isOk(); ++r) {
            Span fb(recs[r].get(), "fallback.vanilla_cold_start",
                    "fallback");
            st = llm::runLoadingStages(cluster.rank(r), /*capture=*/true,
                                       rank_times[r], recs[r].get());
        }
    }

    // ---- consolidated whole-cluster report ---------------------------
    cs.strategy = llm::strategyName(fallback_vanilla
                                        ? llm::Strategy::kVllm
                                        : llm::Strategy::kMedusa);
    // The slowest rank gates readiness; its clock already includes the
    // wasted attempts and the backoff pauses. Validation time (when it
    // ran) is excluded. The stage times are that rank's.
    const u32 slowest = fallback_vanilla ? slowestRank() : restored_slowest;
    cs.times = rank_times[slowest];
    cs.times.loading = fallback_vanilla
                           ? cluster.rank(slowest).clock().nowSec()
                           : restored_loading;
    // Counters summed over ranks; the shared attempt accounting (the
    // same on every rank) is kept once, not multiplied by world size.
    cs.restore = engine->reports_.front();
    for (u32 i = 1; i < opts.world; ++i) {
        const RestoreReport &r = engine->reports_[i];
        cs.restore.nodes_restored += r.nodes_restored;
        cs.restore.graphs_restored += r.graphs_restored;
        cs.restore.kernels_via_dlsym += r.kernels_via_dlsym;
        cs.restore.kernels_via_enumeration += r.kernels_via_enumeration;
        cs.restore.replayed_allocs += r.replayed_allocs;
        cs.restore.replayed_frees += r.replayed_frees;
        cs.restore.restored_content_bytes += r.restored_content_bytes;
        cs.restore.indirect_pointers_fixed += r.indirect_pointers_fixed;
        cs.restore.relocations_applied += r.relocations_applied;
        cs.restore.kernels_resolved += r.kernels_resolved;
        cs.restore.graphs_patched += r.graphs_patched;
        cs.restore.validated = cs.restore.validated || r.validated;
    }

    TraceRecorder merged;
    for (u32 r = 0; r < opts.world; ++r) {
        merged.appendAll(recs[r]->events(), /*track_offset=*/r);
    }
    MetricsRegistry registry;
    registry.counter("tp.ranks").add(opts.world);
    registry.counter("tp.reference_builds").add(reference_builds);
    handOffColdStart(cs, merged.events(), registry, user_trace,
                     opts.restore.pipeline.metrics);
    MEDUSA_RETURN_IF_ERROR(st);
    return engine;
}

} // namespace medusa::core
