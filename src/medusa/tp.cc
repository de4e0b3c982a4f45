#include "medusa/tp.h"

#include <algorithm>

#include "llm/engine.h"
#include "medusa/analyze.h"
#include "medusa/lint/lint.h"
#include "medusa/record.h"

namespace medusa::core {

using llm::ModelRuntime;
using llm::TpCluster;
using simcuda::CudaGraph;

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

    // ---- capturing stage, rank-interleaved per stage -----------------
    std::vector<u64> free_bytes(opts.world, 0);
    for (u32 r = 0; r < opts.world; ++r) {
        MEDUSA_RETURN_IF_ERROR(cluster->rank(r).initStructure());
        recorders[r]->markOrganicBoundary();
    }
    for (u32 r = 0; r < opts.world; ++r) {
        MEDUSA_RETURN_IF_ERROR(cluster->rank(r).loadWeights());
        MEDUSA_RETURN_IF_ERROR(cluster->rank(r).loadTokenizer());
    }
    for (u32 r = 0; r < opts.world; ++r) {
        MEDUSA_ASSIGN_OR_RETURN(free_bytes[r],
                                cluster->rank(r).profileFreeMemory());
        MEDUSA_RETURN_IF_ERROR(
            cluster->rank(r).initKvCache(free_bytes[r]));
        recorders[r]->markCaptureStageBegin();
    }

    std::vector<std::vector<std::pair<u32, CudaGraph>>> graphs(
        opts.world);
    u64 total_nodes = 0;
    for (u32 bs : batch_sizes) {
        for (u32 r = 0; r < opts.world; ++r) {
            ModelRuntime &rank = cluster->rank(r);
            MEDUSA_RETURN_IF_ERROR(rank.warmupDecode(bs));
            recorders[r]->beginGraph(bs);
            auto graph = rank.captureDecode(bs);
            recorders[r]->endGraph();
            if (!graph.isOk()) {
                return graph.status();
            }
            total_nodes += graph->nodeCount();
            graphs[r].emplace_back(bs, std::move(graph).value());
        }
    }
    for (u32 r = 0; r < opts.world; ++r) {
        const CostModel &cost = cluster->rank(r).process().cost();
        cluster->rank(r).clock().advance(units::usToNs(
            cost.offline_save_per_node_us *
            static_cast<f64>(total_nodes) / opts.world));
    }
    // The capturing stage's wall time is the slowest rank's clock.
    for (u32 r = 0; r < opts.world; ++r) {
        result.capture_stage_sec = std::max(
            result.capture_stage_sec,
            cluster->rank(r).clock().nowSec());
    }

    // ---- analysis stage, per rank -----------------------------------
    for (u32 r = 0; r < opts.world; ++r) {
        const f64 before = cluster->rank(r).clock().nowSec();
        AnalyzeOptions aopts;
        MEDUSA_ASSIGN_OR_RETURN(
            AnalysisResult analysis,
            analyze(*recorders[r], cluster->rank(r).process(),
                    opts.model.name, opts.model.seed, graphs[r],
                    free_bytes[r], aopts));
        result.analysis_stage_sec = std::max(
            result.analysis_stage_sec,
            cluster->rank(r).clock().nowSec() - before);
        result.rank_artifacts.push_back(std::move(analysis.artifact));
    }

    // ---- per-rank v6 image emission ----------------------------------
    for (u32 r = 0; r < opts.world; ++r) {
        MEDUSA_ASSIGN_OR_RETURN(
            auto image_bytes,
            buildImageBytes(result.rank_artifacts[r],
                            cluster->rank(r).tokenizer().merges()));
        result.rank_images.push_back(std::move(image_bytes));
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
    auto maxClockSec = [&cluster, &opts]() {
        f64 m = 0;
        for (u32 r = 0; r < opts.world; ++r) {
            m = std::max(m, cluster.rank(r).clock().nowSec());
        }
        return m;
    };

    // Loading latency of the successful attempt, measured before the
    // validation pass (validation advances the rank clocks but is not
    // part of the visible loading phase).
    f64 restored_loading = 0;

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
            // Per-rank stage times are not reported: TP loading is the
            // slowest rank's clock.
            StageTimes rank_times;
            MEDUSA_RETURN_IF_ERROR(runRestoreSteps(
                rank_images[r], cluster.rank(r), *tables[r], rank_restore,
                rank_times, reports[r]));
        }
        restored_loading = maxClockSec();

        // Optional validation: restored lockstep replay must match a
        // reference (vanilla-captured) cluster bit for bit.
        if (opts.restore.pipeline.validate) {
            TpCluster::Options vopts;
            vopts.model = opts.model;
            vopts.world = opts.world;
            vopts.aslr_seed = opts.aslr_seed + 9999;
            vopts.cost = opts.cost;
            MEDUSA_ASSIGN_OR_RETURN(auto reference,
                                    TpCluster::create(vopts));
            MEDUSA_RETURN_IF_ERROR(reference->loadAll());
            for (u32 bs : opts.restore.pipeline.validate_batch_sizes) {
                if (!cluster.rank(0).hasGraph(bs)) {
                    continue;
                }
                MEDUSA_FAULT_POINT(fault, FaultPoint::kTpLockstep,
                                   "lockstep bs=" + std::to_string(bs));
                MEDUSA_RETURN_IF_ERROR(reference->captureAll({bs}));
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
    MEDUSA_ASSIGN_OR_RETURN(
        const ColdStartOutcome outcome,
        runRestoreAttempts(targets, opts.restore.fallback, attempt,
                           engine->tables_, engine->reports_));

    const bool fallback_vanilla = outcome == ColdStartOutcome::kFellBack;
    if (fallback_vanilla) {
        // Degraded mode: the classic profile+capture TP cold start on
        // the clean processes (all ranks together).
        std::vector<Span> fb_spans;
        fb_spans.reserve(opts.world);
        for (u32 r = 0; r < opts.world; ++r) {
            fb_spans.emplace_back(recs[r].get(),
                                  "fallback.vanilla_cold_start",
                                  "fallback");
        }
        MEDUSA_RETURN_IF_ERROR(cluster.loadAll());
        std::vector<u32> sizes = llm::captureBatchSizes();
        std::sort(sizes.begin(), sizes.end(), std::greater<>());
        MEDUSA_RETURN_IF_ERROR(cluster.captureAll(sizes));
        for (Span &s : fb_spans) {
            s.end();
        }
    }

    // ---- consolidated whole-cluster report ---------------------------
    ColdStartReport &cs = engine->report_;
    cs.outcome = outcome;
    cs.strategy = llm::strategyName(fallback_vanilla
                                        ? llm::Strategy::kVllm
                                        : llm::Strategy::kMedusa);
    // The slowest rank gates readiness; its clock already includes the
    // wasted attempts and the backoff pauses. Validation time (when it
    // ran) is excluded.
    cs.times.loading = fallback_vanilla ? maxClockSec() : restored_loading;
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
    cs.spans = merged.events();
    if (user_trace != nullptr) {
        user_trace->appendAll(cs.spans);
    }

    MetricsRegistry registry;
    publishRestoreMetrics(cs.restore, registry);
    registry.counter("tp.ranks").add(opts.world);
    cs.metrics = registry.snapshot();
    if (caller_opts.restore.pipeline.metrics != nullptr) {
        caller_opts.restore.pipeline.metrics->mergeFrom(cs.metrics);
    }
    return engine;
}

} // namespace medusa::core
