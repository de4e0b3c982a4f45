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
    engine->reports_.resize(opts.world);

    // Per-rank recorders bound to each rank's clock; merged into the
    // consolidated report on track = rank at the end.
    std::vector<std::unique_ptr<TraceRecorder>> recs;
    for (u32 r = 0; r < opts.world; ++r) {
        recs.push_back(
            std::make_unique<TraceRecorder>(&cluster.rank(r).clock()));
    }

    FaultInjector *fault = opts.restore.pipeline.fault;
    const FallbackPolicy &fb = opts.restore.fallback;
    const u32 max_attempts =
        fb.mode == FallbackMode::kRetryThenVanilla
            ? std::max<u32>(1, fb.max_attempts)
            : 1;
    f64 backoff = fb.backoff_sec;

    // Attempt-level accounting. Shared by every rank: the ranks degrade
    // coherently — one failure rolls back and falls back ALL of them.
    u64 attempts = 0;
    u64 failures = 0;
    u64 retries = 0;
    f64 wasted_sec = 0;
    f64 backoff_total = 0;
    std::string last_failure;

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

    // One restore attempt across all ranks (stage-interleaved), ending
    // with the optional lockstep validation — a validation mismatch is
    // an attempt failure like any other.
    auto runAttempt = [&]() -> Status {
        for (u32 r = 0; r < opts.world; ++r) {
            MEDUSA_RETURN_IF_ERROR(cluster.rank(r).initStructure());
            MEDUSA_RETURN_IF_ERROR(engine->tables_[r]->organicStatus());
        }
        for (u32 r = 0; r < opts.world; ++r) {
            TraceRecorder *rec = recs[r].get();
            const MaterializedImage &image = rank_images[r];
            ModelRuntime &rank = cluster.rank(r);
            ReplayTable &table = *engine->tables_[r];
            RestoreReport &report = engine->reports_[r];
            Span rank_span(rec, "tp.rank_restore", "restore");
            rank_span.arg("rank", std::to_string(r));
            MEDUSA_FAULT_POINT(fault, FaultPoint::kTpRankRestore,
                               "rank " + std::to_string(r));
            {
                Span s(rec, "cold_start.tokenizer", "stage");
                MEDUSA_ASSIGN_OR_RETURN(
                    auto tok,
                    llm::BpeTokenizer::fromMerges(image.tokenizer_merges));
                MEDUSA_RETURN_IF_ERROR(rank.adoptTokenizer(std::move(tok)));
            }
            {
                Span s(rec, "restore.replay_alloc_seq", "restore");
                MEDUSA_RETURN_IF_ERROR(replayAllocSequence(
                    std::span<const AllocOp>(image.ops),
                    image.organic_op_count, rank, table, report, fault));
            }
            llm::ModelConfig rank_model = opts.model;
            rank_model.tp_world = opts.world;
            rank_model.tp_rank = r;
            MEDUSA_RETURN_IF_ERROR(rebindEngineBuffers(
                image.tags, image.free_gpu_memory, rank_model, table,
                rank));
            {
                Span s(rec, "cold_start.weights", "stage");
                MEDUSA_RETURN_IF_ERROR(rank.loadWeights());
            }
            if (opts.restore.restore_contents) {
                Span s(rec, "restore.contents", "restore");
                MEDUSA_RETURN_IF_ERROR(
                    restoreContents(image, rank, table, report));
            }
            std::unordered_map<std::string, KernelAddr> name_table;
            if (opts.restore.use_triggering_kernels) {
                Span s(rec, "restore.kernel_table", "restore");
                MEDUSA_ASSIGN_OR_RETURN(name_table,
                                        buildKernelNameTable(rank, fault));
            }
            RestoreOptions rank_restore = opts.restore;
            rank_restore.pipeline.trace = rec;
            MEDUSA_RETURN_IF_ERROR(patchGraphs(image, table, name_table,
                                               rank, rank_restore, report));
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
                for (auto &report : engine->reports_) {
                    report.validated = true;
                }
            }
        }
        return Status::ok();
    };

    bool restored = false;
    for (u32 attempt = 1; attempt <= max_attempts; ++attempt) {
        ++attempts;
        // Fresh interceptors per attempt: sequence numbering restarts
        // with each rank's reconstructed allocator.
        engine->tables_.clear();
        for (u32 r = 0; r < opts.world; ++r) {
            engine->tables_.push_back(std::make_unique<ReplayTable>(
                std::span<const AllocOp>(rank_images[r].ops),
                rank_images[r].organic_alloc_count));
            cluster.rank(r).allocator().setObserver(
                engine->tables_[r].get());
            cluster.rank(r).process().beginJournal();
        }
        std::fill(engine->reports_.begin(), engine->reports_.end(),
                  RestoreReport{});

        const f64 start = maxClockSec();
        const Status st = runAttempt();
        if (st.isOk()) {
            for (u32 r = 0; r < opts.world; ++r) {
                cluster.rank(r).process().endJournal();
            }
            restored = true;
            break;
        }

        // Coherent degrade: every rank rolls back to pristine, even
        // the ones whose own restore succeeded.
        ++failures;
        wasted_sec += maxClockSec() - start;
        last_failure = st.toString();
        for (u32 r = 0; r < opts.world; ++r) {
            recs[r]->instant("restore.attempt_failed", "restore");
            Span s(recs[r].get(), "restore.rollback", "restore");
            cluster.rank(r).rollbackToPristine();
            s.end();
            cluster.rank(r).process().endJournal();
        }
        std::fill(engine->reports_.begin(), engine->reports_.end(),
                  RestoreReport{});
        if (fb.mode == FallbackMode::kFail) {
            return st;
        }
        if (attempt < max_attempts) {
            ++retries;
            for (u32 r = 0; r < opts.world; ++r) {
                Span s(recs[r].get(), "restore.backoff", "restore");
                cluster.rank(r).clock().advance(units::secToNs(backoff));
            }
            backoff_total += backoff;
            backoff *= fb.backoff_multiplier;
        }
    }

    bool fallback_vanilla = false;
    if (!restored) {
        // Degraded mode: the classic profile+capture TP cold start on
        // the clean processes (all ranks together).
        fallback_vanilla = true;
        engine->tables_.clear();
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

    // The slowest rank gates readiness; its clock already includes the
    // wasted attempts and the backoff pauses. Validation time (when it
    // ran) is excluded, as before.
    const f64 loading = restored ? restored_loading : maxClockSec();
    for (auto &report : engine->reports_) {
        report.restore_attempts = attempts;
        report.restore_failures = failures;
        report.retries = retries;
        report.fallback_vanilla = fallback_vanilla;
        report.wasted_restore_sec = wasted_sec;
        report.backoff_sec = backoff_total;
        report.last_failure = last_failure;
    }

    // ---- consolidated whole-cluster report ---------------------------
    ColdStartReport &cs = engine->report_;
    cs.strategy = llm::strategyName(fallback_vanilla
                                        ? llm::Strategy::kVllm
                                        : llm::Strategy::kMedusa);
    if (fallback_vanilla) {
        cs.outcome = ColdStartOutcome::kFellBack;
    } else {
        cs.outcome = retries > 0 ? ColdStartOutcome::kRestoredAfterRetry
                                 : ColdStartOutcome::kRestored;
    }
    cs.times.loading = loading;
    // Counters summed over ranks; shared attempt accounting kept
    // per-cluster (not multiplied by world size).
    for (const RestoreReport &r : engine->reports_) {
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
    cs.restore.restore_attempts = attempts;
    cs.restore.restore_failures = failures;
    cs.restore.retries = retries;
    cs.restore.fallback_vanilla = fallback_vanilla;
    cs.restore.wasted_restore_sec = wasted_sec;
    cs.restore.backoff_sec = backoff_total;
    cs.restore.last_failure = last_failure;

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
