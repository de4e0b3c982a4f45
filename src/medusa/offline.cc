#include "medusa/offline.h"

#include <algorithm>

#include "medusa/lint/lint.h"
#include "medusa/record.h"
#include "medusa/restore.h"

namespace medusa::core {

using llm::ModelRuntime;
using simcuda::CudaGraph;

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
    const CostModel &cost = rt.process().cost();
    SimClock &clock = rt.clock();
    StageTimes &t = result.capture_cold_start;

    TraceRecorder rec(&clock);
    f64 mark = clock.nowSec();
    auto lap = [&clock, &mark]() {
        const f64 now = clock.nowSec();
        const f64 d = now - mark;
        mark = now;
        return d;
    };

    Span capture_span(&rec, "offline.capture_stage", "offline");
    {
        Span s(&rec, "cold_start.struct_init", "stage");
        MEDUSA_RETURN_IF_ERROR(rt.initStructure());
    }
    recorder.markOrganicBoundary();
    t.struct_init = lap();

    {
        Span s(&rec, "cold_start.weights", "stage");
        MEDUSA_RETURN_IF_ERROR(rt.loadWeights());
    }
    t.weights = lap();

    {
        Span s(&rec, "cold_start.tokenizer", "stage");
        MEDUSA_RETURN_IF_ERROR(rt.loadTokenizer());
    }
    t.tokenizer = lap();

    Span kv_span(&rec, "cold_start.kv_init", "stage");
    MEDUSA_ASSIGN_OR_RETURN(u64 free_bytes, rt.profileFreeMemory());
    MEDUSA_RETURN_IF_ERROR(rt.initKvCache(free_bytes));
    kv_span.end();
    t.kv_init = lap();

    Span cap_span(&rec, "cold_start.capture", "stage");
    recorder.markCaptureStageBegin();
    std::vector<std::pair<u32, CudaGraph>> graphs;
    auto sizes = llm::captureBatchSizes();
    std::sort(sizes.begin(), sizes.end(), std::greater<>());
    u64 total_nodes = 0;
    for (u32 bs : sizes) {
        MEDUSA_RETURN_IF_ERROR(rt.warmupDecode(bs));
        recorder.beginGraph(bs);
        auto graph = rt.captureDecode(bs);
        recorder.endGraph();
        if (!graph.isOk()) {
            return graph.status();
        }
        total_nodes += graph->nodeCount();
        graphs.emplace_back(bs, std::move(graph).value());
    }
    cap_span.end();
    t.capture = lap();
    t.loading = t.serialSum();
    // Saving the captured graph state is part of the capturing stage.
    {
        Span s(&rec, "offline.save", "offline");
        clock.advance(units::usToNs(cost.offline_save_per_node_us *
                                    static_cast<f64>(total_nodes)));
    }
    mark = clock.nowSec();
    capture_span.end();
    result.capture_stage_sec = clock.nowSec();

    // ---- analysis stage -----------------------------------------------
    Span analysis_span(&rec, "offline.analysis_stage", "offline");
    MEDUSA_ASSIGN_OR_RETURN(
        AnalysisResult analysis,
        analyze(recorder, rt.process(), opts.model.name,
                opts.model.seed, graphs, free_bytes, opts.analyze));
    analysis_span.end();
    result.analysis_stage_sec = clock.nowSec() - result.capture_stage_sec;
    result.artifact = std::move(analysis.artifact);

    // ---- emit -> lint -> validate, with the repair loop ----------------
    // Each round flattens the (possibly repaired) artifact into the v6
    // image, proves those bytes replay-safe and dry-runs the online
    // phase on exactly them. A failed dry-run demotes the next risky
    // pointer classification to a constant and goes round again.
    MedusaEngine::Options vopts;
    vopts.model = opts.model;
    vopts.aslr_seed = opts.aslr_seed + 7777;
    vopts.cost = opts.cost;
    vopts.restore.pipeline.validate = true;
    vopts.restore.pipeline.validate_batch_sizes =
        opts.pipeline.validate_batch_sizes;
    std::size_t next_repair = 0;
    for (u32 attempt = 0;; ++attempt) {
        // v6 image emission, embedding the merges the capture stage's
        // tokenizer learned — the online phase rebuilds the tokenizer
        // from them instead of re-training.
        {
            Span s(&rec, "offline.emit_image", "offline");
            MEDUSA_ASSIGN_OR_RETURN(
                result.image_bytes,
                buildImageBytes(result.artifact, rt.tokenizer().merges()));
            s.arg("bytes", std::to_string(result.image_bytes.size()));
        }
        if (!opts.pipeline.lint && !opts.pipeline.validate) {
            break;
        }
        MEDUSA_ASSIGN_OR_RETURN(
            const MaterializedImage image,
            MaterializedImage::openView(
                std::span<const u8>(result.image_bytes)));

        // Static lint gate: executes nothing, proves replay-safety
        // properties of the emitted image, using the raw trace for
        // exact per-launch liveness (MDL702) and capture-window
        // allocation order (MDL803).
        if (opts.pipeline.lint) {
            lint::LintOptions lopts;
            lopts.trace = &recorder;
            const lint::LintReport report = lint::lintImage(image, lopts);
            if (!report.replaySafe()) {
                return validationFailure("image failed lint: " +
                                         report.firstError());
            }
        }
        if (!opts.pipeline.validate) {
            break;
        }

        // Validation dry-run on the emitted image, in a fresh process.
        auto engine = MedusaEngine::coldStartFromImage(vopts, image);
        if (engine.isOk()) {
            result.validation_sec = (*engine)->runtime().clock().nowSec();
            // The dry-run executes on a fresh process with its own
            // clock; charge it as a pre-timed span at the
            // materializer's clock.
            rec.complete("offline.validation", "offline", 0, clock.now(),
                         units::secToNs(result.validation_sec));
            break;
        }
        if (attempt >= opts.max_repair_attempts ||
            next_repair >= analysis.risky_params.size()) {
            return Status(engine.status().code(),
                          "offline validation failed beyond repair: " +
                              engine.status().message());
        }
        // Demote the next risky pointer classification to a constant,
        // restoring the original captured bytes.
        const ParamRef ref = analysis.risky_params[next_repair++];
        const CudaGraph *graph = nullptr;
        for (const auto &[bs, g] : graphs) {
            if (bs == ref.batch_size) {
                graph = &g;
                break;
            }
        }
        MEDUSA_CHECK(graph != nullptr, "risky param in unknown graph");
        GraphBlueprint *bp = nullptr;
        for (auto &g : result.artifact.graphs) {
            if (g.batch_size == ref.batch_size) {
                bp = &g;
                break;
            }
        }
        MEDUSA_CHECK(bp != nullptr, "blueprint missing for repair");
        ParamSpec &spec = bp->nodes.at(ref.node).params.at(ref.param);
        spec.kind = ParamSpec::kConstant;
        spec.constant_bytes = graph->node(ref.node).params.at(ref.param);
        ++result.artifact.stats.validation_repairs;
    }

    result.spans = rec.events();
    if (opts.pipeline.trace != nullptr) {
        opts.pipeline.trace->appendAll(result.spans);
    }
    if (opts.pipeline.metrics != nullptr) {
        result.artifact.stats.publishTo(*opts.pipeline.metrics);
    }
    return result;
}

} // namespace medusa::core
