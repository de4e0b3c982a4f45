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

/**
 * One restore attempt: steps 1-8 of the online phase plus optional
 * output validation. Steps 7-8 resolve the first-occurrence kernel
 * table, apply the relocation table to a copy of the patch template,
 * and instantiate executable graphs straight from the patched arrays.
 * Fills @p t (including the overlap-composed t.loading) and @p report.
 * On error the caller rolls the runtime back; nothing here needs to
 * clean up.
 */
Status
runRestoreAttempt(const MedusaEngine::Options &opts,
                       const MaterializedImage &image, ModelRuntime &rt,
                       ReplayTable &table, StageTimes &t,
                       RestoreReport &report)
{
    const CostModel &cost = rt.process().cost();
    FaultInjector *fault = opts.restore.pipeline.fault;
    TraceRecorder *rec = opts.restore.pipeline.trace;

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
            image.tags, image.free_gpu_memory, opts.model, table, rt));
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
    if (opts.restore.restore_contents) {
        Span s(rec, "restore.contents", "restore");
        MEDUSA_RETURN_IF_ERROR(restoreContents(image, rt, table, report));
    }

    // 7. Triggering-kernels + the §5 name table, then ONE resolution
    //    per unique kernel in first-occurrence order.
    std::unordered_map<std::string, KernelAddr> name_table;
    if (opts.restore.use_triggering_kernels) {
        Span s(rec, "restore.kernel_table", "restore");
        MEDUSA_ASSIGN_OR_RETURN(name_table,
                                buildKernelNameTable(rt, fault));
    }
    // 8. The patch pass + direct instantiation from the patched image.
    MEDUSA_RETURN_IF_ERROR(
        patchGraphs(image, table, name_table, rt, opts.restore, report));
    cap_span.end();
    t.capture = lap();

    // Visible loading latency (Figure 8(c)'s timeline): the tokenizer,
    // the KV restore and the overlappable front of the capture/restore
    // stage run concurrently with the weights loading; the rest of the
    // restoration is serial. Structure init precedes everything.
    const f64 overlappable = cost.restore_overlap_fraction * t.capture;
    t.loading = t.struct_init +
                std::max(t.weights,
                         t.tokenizer + t.kv_init + overlappable) +
                (t.capture - overlappable);

    // Optional output validation (used by the offline dry-run).
    if (opts.restore.pipeline.validate) {
        MEDUSA_RETURN_IF_ERROR(validateOutputs(opts, rt, report));
    }
    return Status::ok();
}

/**
 * The classic profile+capture cold start (§2.1), run on a pristine
 * process after the restore path was rolled back. Serial vLLM
 * composition; no Medusa machinery touches the runtime.
 */
Status
runVanillaColdStart(ModelRuntime &rt, StageTimes &t, TraceRecorder *rec)
{
    SimClock &clock = rt.clock();
    SimTimeNs mark = clock.now();
    auto lap = [&clock, &mark]() {
        const SimTimeNs now = clock.now();
        const f64 d = units::nsToSec(now - mark);
        mark = now;
        return d;
    };

    Span vanilla_span(rec, "fallback.vanilla_cold_start", "fallback");
    {
        Span s(rec, "cold_start.struct_init", "stage");
        MEDUSA_RETURN_IF_ERROR(rt.initStructure());
    }
    t.struct_init = lap();
    {
        Span s(rec, "cold_start.weights", "stage");
        MEDUSA_RETURN_IF_ERROR(rt.loadWeights());
    }
    t.weights = lap();
    {
        Span s(rec, "cold_start.tokenizer", "stage");
        MEDUSA_RETURN_IF_ERROR(rt.loadTokenizer());
    }
    t.tokenizer = lap();
    {
        Span s(rec, "cold_start.kv_init", "stage");
        MEDUSA_ASSIGN_OR_RETURN(u64 free_bytes, rt.profileFreeMemory());
        MEDUSA_RETURN_IF_ERROR(rt.initKvCache(free_bytes));
    }
    t.kv_init = lap();
    {
        Span s(rec, "cold_start.capture", "stage");
        MEDUSA_RETURN_IF_ERROR(rt.captureDecodeGraphs());
    }
    t.capture = lap();
    t.loading = llm::composeLoading(llm::Strategy::kVllm, t,
                                    rt.process().cost());
    return Status::ok();
}

} // namespace

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

    // The transactional attempt loop: journalled attempts,
    // rollback-on-failure, retry backoff and the vanilla fallback tail.
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
    RestoreReport &report = cs.restore;
    const f64 runtime_init = opts.warm_container
                                 ? cost.runtime_init_warm_ms / 1e3
                                 : cost.runtime_init_cold_ms / 1e3;

    const FallbackPolicy &fb = opts.restore.fallback;
    const u32 max_attempts =
        fb.mode == FallbackMode::kRetryThenVanilla
            ? std::max<u32>(1, fb.max_attempts)
            : 1;
    f64 backoff = fb.backoff_sec;
    SimClock &clock = rt.clock();

    TraceRecorder rec(&clock);
    MetricsRegistry *user_metrics = opts.restore.pipeline.metrics;
    opts.restore.pipeline.trace = &rec;

    // On every exit path: snapshot spans/metrics into the report and
    // propagate them to the caller's sinks.
    auto finishReport = [&]() {
        MetricsRegistry registry;
        publishRestoreMetrics(report, registry);
        cs.metrics = registry.snapshot();
        cs.spans = rec.events();
        if (user_trace != nullptr) {
            user_trace->appendAll(cs.spans);
        }
        if (user_metrics != nullptr) {
            user_metrics->mergeFrom(cs.metrics);
        }
    };

    for (u32 attempt = 1; attempt <= max_attempts; ++attempt) {
        ++report.restore_attempts;
        // Fresh interceptor per attempt: the replay table's sequence
        // numbering restarts with the reconstructed allocator.
        auto table = std::make_unique<ReplayTable>(
            std::span<const AllocOp>(image.ops), image.organic_alloc_count);
        rt.allocator().setObserver(table.get());
        rt.process().beginJournal();

        StageTimes t;
        t.runtime_init = runtime_init;
        RestoreReport working;
        const f64 start = clock.nowSec();
        Span attempt_span(&rec, "restore.attempt", "restore");
        attempt_span.arg("attempt", std::to_string(attempt));
        const Status st =
            runRestoreAttempt(opts, image, rt, *table, t, working);
        attempt_span.end();
        if (st.isOk()) {
            rt.process().endJournal();
            // Fold the accumulated failure accounting into this
            // attempt's report.
            working.restore_attempts = report.restore_attempts;
            working.restore_failures = report.restore_failures;
            working.retries = report.retries;
            working.wasted_restore_sec = report.wasted_restore_sec;
            working.backoff_sec = report.backoff_sec;
            working.last_failure = report.last_failure;
            report = std::move(working);
            t.loading += report.wasted_restore_sec + report.backoff_sec;
            cs.times = t;
            cs.outcome = attempt == 1
                             ? ColdStartOutcome::kRestored
                             : ColdStartOutcome::kRestoredAfterRetry;
            finishReport();
            engine->interceptor_ = std::move(table);
            engine->runtime_ = std::move(runtime);
            return engine;
        }

        // Transactional failure path: the attempt burned real time but
        // must leave no device state behind. Roll the whole simulated
        // process back to pristine (the clock keeps running).
        ++report.restore_failures;
        report.wasted_restore_sec += clock.nowSec() - start;
        report.last_failure = st.toString();
        rec.instant("restore.attempt_failed", "restore");
        {
            Span s(&rec, "restore.rollback", "restore");
            rt.rollbackToPristine();
        }
        rt.process().endJournal();

        if (fb.mode == FallbackMode::kFail) {
            return st;
        }
        if (attempt < max_attempts) {
            ++report.retries;
            Span s(&rec, "restore.backoff", "restore");
            clock.advance(units::secToNs(backoff));
            report.backoff_sec += backoff;
            backoff *= fb.backoff_multiplier;
        }
    }

    // Degraded mode: the classic cold start on the clean process. The
    // wasted restore time and backoff pauses precede it serially, so
    // they land in the visible loading latency.
    report.fallback_vanilla = true;
    StageTimes t;
    t.runtime_init = runtime_init;
    MEDUSA_RETURN_IF_ERROR(runVanillaColdStart(rt, t, &rec));
    t.loading += report.wasted_restore_sec + report.backoff_sec;
    cs.times = t;
    cs.outcome = ColdStartOutcome::kFellBack;
    cs.strategy = llm::strategyName(llm::Strategy::kVllm);
    finishReport();
    engine->runtime_ = std::move(runtime);
    return engine;
}

} // namespace medusa::core
