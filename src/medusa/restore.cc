#include "medusa/restore.h"

#include <algorithm>

#include "medusa/lint/lint.h"
#include "medusa/replay.h"

namespace medusa::core {

using llm::ModelRuntime;

namespace {

/**
 * Optional output validation (§4): replayed-graph logits must match an
 * eager forwarding from identical staged state.
 */
Status
validateOutputs(const MedusaEngine::Options &opts, ModelRuntime &rt,
                RestoreReport &report)
{
    Span s(opts.restore.pipeline.trace, "restore.validate", "restore");
    for (u32 bs : opts.restore.pipeline.validate_batch_sizes) {
        if (!rt.hasGraph(bs)) {
            continue;
        }
        MEDUSA_RETURN_IF_ERROR(rt.stageValidationState(bs));
        MEDUSA_ASSIGN_OR_RETURN(auto eager, rt.eagerDecodeLogits(bs));
        MEDUSA_RETURN_IF_ERROR(rt.stageValidationState(bs));
        auto replayed = rt.graphDecodeLogits(bs);
        if (!replayed.isOk()) {
            return validationFailure(
                "restored graph bs=" + std::to_string(bs) +
                " failed to replay: " + replayed.status().toString());
        }
        if (*replayed != eager) {
            return validationFailure(
                "restored graph bs=" + std::to_string(bs) +
                " output mismatches eager forwarding");
        }
        report.validated = true;
    }
    return Status::ok();
}

} // namespace

Status
runRestoreSteps(const MaterializedImage &image, ModelRuntime &rt,
                ReplayTable &table, const RestoreOptions &options,
                StageTimes &t, RestoreReport &report)
{
    const CostModel &cost = rt.process().cost();
    FaultInjector *fault = options.pipeline.fault;
    TraceRecorder *rec = options.pipeline.trace;

    SimClock &clock = rt.clock();
    // Laps are taken on the integer clock, so each stage time equals
    // its span's duration exactly.
    SimTimeNs mark = clock.now();
    auto lap = [&clock, &mark]() {
        const SimTimeNs now = clock.now();
        const f64 d = units::nsToSec(now - mark);
        mark = now;
        return d;
    };

    // 1. Structure init (organic; verified against the image).
    {
        Span s(rec, "cold_start.struct_init", "stage");
        MEDUSA_RETURN_IF_ERROR(rt.initStructure());
        MEDUSA_RETURN_IF_ERROR(table.organicStatus());
        if (table.allocCount() != image.organic_alloc_count) {
            return validationFailure(
                "structure init produced a different allocation count "
                "than the materialized sequence");
        }
    }
    t.struct_init = lap();

    // 2. Tokenizer: rebuilt from the image's materialized merge list —
    //    no corpus re-training. Simulated charge matches loadTokenizer.
    {
        Span s(rec, "cold_start.tokenizer", "stage");
        MEDUSA_ASSIGN_OR_RETURN(
            auto tok, llm::BpeTokenizer::fromMerges(image.tokenizer_merges));
        MEDUSA_RETURN_IF_ERROR(rt.adoptTokenizer(std::move(tok)));
    }
    t.tokenizer = lap();

    Span kv_span(rec, "cold_start.kv_init", "stage");
    // 3. KV-init restoration: read the image (decoded zero-copy, so the
    //    read is the whole parse cost) and adopt the materialized
    //    free-memory value (no profiling forwarding).
    {
        Span s(rec, "restore.image_open", "restore");
        clock.advance(
            units::usToNs(static_cast<f64>(image.serialized_size) /
                          (cost.artifact_read_gbps * 1e3)));
    }

    // 4. Replay the recorded (de)allocation sequence (§4.2).
    {
        Span s(rec, "restore.replay_alloc_seq", "restore");
        MEDUSA_RETURN_IF_ERROR(replayAllocSequence(
            std::span<const AllocOp>(image.ops), image.organic_op_count,
            rt, table, report, fault));
    }
    {
        Span s(rec, "restore.rebind", "restore");
        MEDUSA_RETURN_IF_ERROR(rebindEngineBuffers(
            image.tags, image.free_gpu_memory, table, rt));
    }
    kv_span.end();
    t.kv_init = lap();

    // 5. Weights.
    {
        Span s(rec, "cold_start.weights", "stage");
        MEDUSA_RETURN_IF_ERROR(rt.loadWeights());
    }
    t.weights = lap();

    Span cap_span(rec, "cold_start.capture", "stage");
    // 6. Permanent-buffer contents (§4.3 copy-free restoration) and
    //    indirect pointer words (§8 extension).
    if (options.restore_contents) {
        Span s(rec, "restore.contents", "restore");
        MEDUSA_RETURN_IF_ERROR(restoreContents(image, rt, table, report));
    }

    // 7. Triggering-kernels + the §5 name table, then ONE resolution
    //    per unique kernel in first-occurrence order.
    std::unordered_map<std::string, KernelAddr> name_table;
    if (options.use_triggering_kernels) {
        Span s(rec, "restore.kernel_table", "restore");
        MEDUSA_ASSIGN_OR_RETURN(name_table,
                                buildKernelNameTable(rt, fault));
    }
    // 8. The patch pass + direct instantiation from the patched image.
    MEDUSA_RETURN_IF_ERROR(
        patchGraphs(image, table, name_table, rt, options, report));
    cap_span.end();
    t.capture = lap();

    return Status::ok();
}

StatusOr<ColdStartOutcome>
runRestoreAttempts(std::span<const RestoreTarget> targets,
                   const FallbackPolicy &policy,
                   const RestoreAttemptFn &attempt,
                   std::vector<std::unique_ptr<ReplayTable>> &tables,
                   std::vector<RestoreReport> &reports)
{
    const u32 max_attempts =
        policy.mode == FallbackMode::kRetryThenVanilla
            ? std::max<u32>(1, policy.max_attempts)
            : 1;
    f64 backoff = policy.backoff_sec;
    // The attempt accounting, shared by every target: one failure
    // rolls back (and eventually falls back) all of them together.
    RestoreReport shared;
    // The slowest target gates the attempt, so wasted time is measured
    // on the latest clock.
    auto latestSec = [targets]() {
        f64 latest = 0;
        for (const RestoreTarget &target : targets) {
            latest = std::max(latest, target.rt->clock().nowSec());
        }
        return latest;
    };

    for (u32 n = 1; n <= max_attempts; ++n) {
        ++shared.restore_attempts;
        // Fresh interceptors per attempt: the replay tables' sequence
        // numbering restarts with each reconstructed allocator.
        tables.clear();
        reports.assign(targets.size(), RestoreReport{});
        for (const RestoreTarget &target : targets) {
            tables.push_back(std::make_unique<ReplayTable>(
                std::span<const AllocOp>(target.image->ops),
                target.image->organic_alloc_count));
            target.rt->allocator().setObserver(tables.back().get());
            target.rt->process().beginJournal();
        }

        const f64 start = latestSec();
        std::vector<Span> attempt_spans;
        attempt_spans.reserve(targets.size());
        for (const RestoreTarget &target : targets) {
            attempt_spans.emplace_back(target.trace, "restore.attempt",
                                       "restore");
            attempt_spans.back().arg("attempt", std::to_string(n));
        }
        const Status st = attempt(tables, reports);
        attempt_spans.clear();
        if (st.isOk()) {
            for (const RestoreTarget &target : targets) {
                target.rt->process().endJournal();
            }
            // Fold the accumulated failure accounting into this
            // attempt's reports.
            for (RestoreReport &report : reports) {
                report.restore_attempts = shared.restore_attempts;
                report.restore_failures = shared.restore_failures;
                report.retries = shared.retries;
                report.wasted_restore_sec = shared.wasted_restore_sec;
                report.backoff_sec = shared.backoff_sec;
                report.last_failure = shared.last_failure;
            }
            return n == 1 ? ColdStartOutcome::kRestored
                          : ColdStartOutcome::kRestoredAfterRetry;
        }

        // Transactional failure path: the attempt burned real time but
        // must leave no device state behind. Roll every process back
        // to pristine, even those whose own steps succeeded (the
        // clocks keep running).
        ++shared.restore_failures;
        shared.wasted_restore_sec += latestSec() - start;
        shared.last_failure = st.toString();
        for (const RestoreTarget &target : targets) {
            target.trace->instant("restore.attempt_failed", "restore");
            {
                Span s(target.trace, "restore.rollback", "restore");
                target.rt->rollbackToPristine();
            }
            target.rt->process().endJournal();
        }
        tables.clear();

        if (policy.mode == FallbackMode::kFail) {
            reports.assign(targets.size(), shared);
            return st;
        }
        if (n < max_attempts) {
            ++shared.retries;
            for (const RestoreTarget &target : targets) {
                Span s(target.trace, "restore.backoff", "restore");
                target.rt->clock().advance(units::secToNs(backoff));
            }
            shared.backoff_sec += backoff;
            backoff *= policy.backoff_multiplier;
        }
    }
    shared.fallback_vanilla = true;
    reports.assign(targets.size(), shared);
    return ColdStartOutcome::kFellBack;
}

StatusOr<std::unique_ptr<MedusaEngine>>
MedusaEngine::coldStartFromImage(const Options &caller_opts,
                                 const MaterializedImage &image)
{
    // MEDUSA_FAULT_PLAN applies to any engine that was not handed an
    // explicit injector, so whole test suites can run fault-hooked
    // without per-call-site wiring.
    Options opts = caller_opts;
    if (opts.restore.pipeline.fault == nullptr) {
        opts.restore.pipeline.fault = envFaultInjector();
    }
    // Spans always land in the engine-local recorder (and thus the
    // ColdStartReport); the caller's sink, when set, gets a copy.
    TraceRecorder *user_trace = opts.restore.pipeline.trace;

    if (image.model_name != opts.model.name ||
        image.model_seed != opts.model.seed) {
        return validationFailure("image was materialized for model " +
                                 image.model_name);
    }
    // Static pre-restore gate: run the MDL7xx/MDL8xx image rules before
    // any journaled attempt starts, so a defective image is rejected
    // with the journal untouched and zero patches applied. Open-time
    // checks (CRC, relocation bounds, slot layout) prove the bytes
    // decode; the rules prove the decoded image replays safely — the
    // coverage proof in particular catches an unpatched address slot
    // that would replay a capture-time pointer verbatim.
    if (opts.restore.pipeline.lint) {
        // The engine always drives device 0, which is also the lint
        // default for the MDL705 pointer-window heuristic.
        const lint::LintReport lint_report = lint::lintImage(image);
        if (!lint_report.replaySafe()) {
            return validationFailure("image failed pre-restore lint: " +
                                     lint_report.firstError());
        }
    }

    ModelRuntime::Options ropts;
    ropts.model = opts.model;
    ropts.aslr_seed = opts.aslr_seed;
    ropts.cost = opts.cost;
    auto runtime = std::make_unique<ModelRuntime>(ropts);
    ModelRuntime &rt = *runtime;
    const CostModel &cost = rt.process().cost();

    std::unique_ptr<MedusaEngine> engine(new MedusaEngine());
    ColdStartReport &cs = engine->report_;
    cs.strategy = llm::strategyName(llm::Strategy::kMedusa);
    StageTimes t;
    t.runtime_init = opts.warm_container
                         ? cost.runtime_init_warm_ms / 1e3
                         : cost.runtime_init_cold_ms / 1e3;

    TraceRecorder rec(&rt.clock());
    MetricsRegistry *user_metrics = opts.restore.pipeline.metrics;
    opts.restore.pipeline.trace = &rec;

    // The shared attempt loop over this one runtime; an attempt is the
    // step list plus the optional eager-logits validation (used by the
    // offline dry-run).
    auto attempt = [&](std::span<const std::unique_ptr<ReplayTable>> tables,
                       std::span<RestoreReport> reports) -> Status {
        MEDUSA_RETURN_IF_ERROR(runRestoreSteps(image, rt, *tables[0],
                                               opts.restore, t, reports[0]));
        if (opts.restore.pipeline.validate) {
            MEDUSA_RETURN_IF_ERROR(validateOutputs(opts, rt, reports[0]));
        }
        return Status::ok();
    };
    const RestoreTarget target{&rt, &image, &rec};
    std::vector<std::unique_ptr<ReplayTable>> tables;
    std::vector<RestoreReport> reports;
    StatusOr<ColdStartOutcome> outcome =
        runRestoreAttempts(std::span<const RestoreTarget>(&target, 1),
                           opts.restore.fallback, attempt, tables,
                           reports);
    Status st = outcome.status();
    cs.restore = std::move(reports[0]);
    if (st.isOk()) {
        cs.outcome = *outcome;
    }
    if (cs.outcome == ColdStartOutcome::kFellBack) {
        // Degraded mode: the vanilla cold start on the clean process.
        Span s(&rec, "fallback.vanilla_cold_start", "fallback");
        st = llm::runLoadingStages(rt, /*capture=*/true, t, &rec);
        t.loading = llm::composeLoading(llm::Strategy::kVllm, t, cost);
        cs.strategy = llm::strategyName(llm::Strategy::kVllm);
    } else if (st.isOk()) {
        // Visible loading latency (Figure 8(c)'s timeline): the
        // tokenizer, the KV restore and the overlappable front of the
        // capture/restore stage run concurrently with the weights
        // loading; the rest of the restoration is serial. Structure
        // init precedes everything.
        const f64 overlappable = cost.restore_overlap_fraction * t.capture;
        t.loading = t.struct_init +
                    std::max(t.weights,
                             t.tokenizer + t.kv_init + overlappable) +
                    (t.capture - overlappable);
        engine->interceptor_ = std::move(tables[0]);
    }
    // The wasted restore time and backoff pauses precede the
    // successful attempt (or the fallback) serially, so they land in
    // the visible loading latency.
    t.loading += cs.restore.wasted_restore_sec + cs.restore.backoff_sec;
    cs.times = t;

    MetricsRegistry registry;
    handOffColdStart(cs, rec.events(), registry, user_trace, user_metrics);
    MEDUSA_RETURN_IF_ERROR(st);
    engine->runtime_ = std::move(runtime);
    return engine;
}

} // namespace medusa::core
