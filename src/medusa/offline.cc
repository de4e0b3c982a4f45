#include "medusa/offline.h"

#include <algorithm>

#include "medusa/lint/lint.h"
#include "medusa/record.h"
#include "medusa/restore.h"

namespace medusa::core {

using llm::ModelRuntime;

StatusOr<CapturedStage>
runCaptureStage(ModelRuntime &rt, Recorder &recorder,
                std::span<const u32> batch_sizes, TraceRecorder *rec)
{
    // The offline phase records structure, never a computed value:
    // skip every kernel body (profiling forwarding, warm-ups) and let
    // the taint keep the undefined bytes from the analysis stage.
    rt.process().discardContents();
    CapturedStage out;
    {
        Span s(rec, "cold_start.struct_init", "stage");
        MEDUSA_RETURN_IF_ERROR(rt.initStructure());
    }
    recorder.markOrganicBoundary();
    {
        Span s(rec, "cold_start.weights", "stage");
        MEDUSA_RETURN_IF_ERROR(rt.loadWeights());
    }
    {
        Span s(rec, "cold_start.tokenizer", "stage");
        MEDUSA_RETURN_IF_ERROR(rt.loadTokenizer());
    }
    {
        Span s(rec, "cold_start.kv_init", "stage");
        MEDUSA_ASSIGN_OR_RETURN(out.free_bytes, rt.profileFreeMemory());
        MEDUSA_RETURN_IF_ERROR(rt.initKvCache(out.free_bytes));
    }

    u64 total_nodes = 0;
    {
        Span s(rec, "cold_start.capture", "stage");
        recorder.markCaptureStageBegin();
        for (u32 bs : batch_sizes) {
            MEDUSA_RETURN_IF_ERROR(rt.warmupDecode(bs));
            recorder.beginGraph(bs);
            auto graph = rt.captureDecode(bs);
            recorder.endGraph();
            if (!graph.isOk()) {
                return graph.status();
            }
            total_nodes += graph->nodeCount();
            out.graphs.emplace_back(bs, std::move(graph).value());
        }
    }
    // Saving the captured graph state is part of the capturing stage.
    {
        Span s(rec, "offline.save", "offline");
        rt.clock().advance(
            units::usToNs(rt.process().cost().offline_save_per_node_us *
                          static_cast<f64>(total_nodes)));
    }
    return out;
}

StatusOr<OfflineResult>
materialize(const OfflineOptions &opts)
{
    OfflineResult result;

    // ---- capturing stage -----------------------------------------------
    Recorder recorder;
    ModelRuntime::Options ropts;
    ropts.model = opts.model;
    ropts.aslr_seed = opts.aslr_seed;
    ropts.cost = opts.cost;
    ropts.observer = &recorder;
    ropts.alloc_observer = &recorder;
    ropts.launch_observer = &recorder;
    ModelRuntime rt(ropts);
    SimClock &clock = rt.clock();
    TraceRecorder rec(&clock);

    auto sizes = llm::captureBatchSizes();
    std::sort(sizes.begin(), sizes.end(), std::greater<>());
    Span capture_span(&rec, "offline.capture_stage", "offline");
    MEDUSA_ASSIGN_OR_RETURN(CapturedStage captured,
                            runCaptureStage(rt, recorder, sizes, &rec));
    capture_span.end();
    result.capture_stage_sec = clock.nowSec();

    // ---- analysis stage -----------------------------------------------
    Span analysis_span(&rec, "offline.analysis_stage", "offline");
    MEDUSA_ASSIGN_OR_RETURN(
        AnalysisResult analysis,
        analyze(recorder, rt.process(), opts.model.name,
                opts.model.seed, captured.graphs, captured.free_bytes,
                opts.analyze));
    analysis_span.end();
    result.analysis_stage_sec = clock.nowSec() - result.capture_stage_sec;
    result.stats = analysis.stats;

    // ---- emit -> open -> lint -> validate ------------------------------
    // One emission, embedding the merges the capture stage's tokenizer
    // learned (the online phase rebuilds the tokenizer from them instead
    // of re-training), and one open of exactly those bytes: lint,
    // validation and the caller's serving profile all read that view.
    {
        Span s(&rec, "offline.emit_image", "offline");
        result.image_bytes = analysis.image.finish(rt.tokenizer().merges());
        s.arg("bytes", std::to_string(result.image_bytes.size()));
    }
    MEDUSA_ASSIGN_OR_RETURN(result.artifact,
                            MaterializedImage::openView(
                                std::span<const u8>(result.image_bytes)));

    // Static lint gate: executes nothing, proves replay-safety
    // properties of the emitted image, using the raw trace for exact
    // per-launch liveness (MDL702) and capture-window allocation order
    // (MDL803).
    if (opts.pipeline.lint) {
        lint::LintOptions lopts;
        lopts.trace = &recorder;
        const lint::LintReport report =
            lint::lintImage(result.artifact, lopts);
        if (!report.replaySafe()) {
            return validationFailure("image failed lint: " +
                                     report.firstError());
        }
    }

    // Validation dry-run on the emitted image, in a fresh process.
    if (opts.pipeline.validate) {
        MedusaEngine::Options vopts;
        vopts.model = opts.model;
        vopts.aslr_seed = opts.aslr_seed + 7777;
        vopts.cost = opts.cost;
        vopts.restore.pipeline.validate = true;
        vopts.restore.pipeline.validate_batch_sizes =
            opts.pipeline.validate_batch_sizes;
        auto engine = MedusaEngine::coldStartFromImage(vopts, result.artifact);
        if (!engine.isOk()) {
            return Status(engine.status().code(),
                          "offline validation failed: " +
                              engine.status().message());
        }
        result.validation_sec = (*engine)->runtime().clock().nowSec();
        // The dry-run executes on a fresh process with its own clock;
        // charge it as a pre-timed span at the materializer's clock.
        rec.complete("offline.validation", "offline", 0, clock.now(),
                     units::secToNs(result.validation_sec));
    }

    result.spans = rec.events();
    if (opts.pipeline.trace != nullptr) {
        opts.pipeline.trace->appendAll(result.spans);
    }
    if (opts.pipeline.metrics != nullptr) {
        result.stats.publishTo(*opts.pipeline.metrics);
    }
    return result;
}

} // namespace medusa::core
