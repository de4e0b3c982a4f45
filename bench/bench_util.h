/**
 * @file
 * Shared helpers for the experiment harness binaries (one per table /
 * figure of the paper; see DESIGN.md §5 and EXPERIMENTS.md).
 */

#ifndef MEDUSA_BENCH_BENCH_UTIL_H
#define MEDUSA_BENCH_BENCH_UTIL_H

#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/serialize.h"
#include "common/trace.h"
#include "medusa/image.h"
#include "medusa/offline.h"

namespace medusa::bench {

/**
 * Shared `--trace-out PATH` / `--metrics-out PATH` handling for the
 * experiment binaries (DESIGN.md §12). Construct it first thing in
 * main(): it strips the flags it owns from argv so the bench's own
 * argument handling never sees them. When a flag was given, trace() /
 * metrics() return live sinks to plug into PipelineOptions (or to feed
 * via addSpans()); finish() writes the Chrome trace and the flat
 * metrics JSON. Without the flags every hook is null — the bench runs
 * untraced at zero cost.
 */
class Reporter
{
  public:
    Reporter(int &argc, char **argv)
    {
        int kept = 1;
        for (int i = 1; i < argc; ++i) {
            if (matchFlag("--trace-out", i, argc, argv, trace_path_) ||
                matchFlag("--metrics-out", i, argc, argv,
                          metrics_path_)) {
                continue;
            }
            argv[kept++] = argv[i];
        }
        argc = kept;
    }

    /** Span sink for PipelineOptions::trace; null when not requested. */
    TraceRecorder *
    trace()
    {
        return trace_path_.empty() ? nullptr : &recorder_;
    }

    /** Metrics sink for PipelineOptions::metrics; null when off. */
    MetricsRegistry *
    metrics()
    {
        return metrics_path_.empty() ? nullptr : &registry_;
    }

    /** Merge already-collected spans (e.g. a ColdStartReport's). */
    void
    addSpans(std::span<const TraceEvent> spans, u32 track_offset = 0)
    {
        if (!trace_path_.empty()) {
            recorder_.appendAll(spans, track_offset);
        }
    }

    void
    setTrackName(u32 track, std::string name)
    {
        recorder_.setTrackName(track, std::move(name));
    }

    /** Write the requested files; call once before the bench exits. */
    void
    finish()
    {
        if (!trace_path_.empty()) {
            writeText(trace_path_, recorder_.toChromeJson(),
                      "--trace-out");
            std::fprintf(stderr, "trace written to %s\n",
                         trace_path_.c_str());
        }
        if (!metrics_path_.empty()) {
            writeText(metrics_path_, registry_.toJson(),
                      "--metrics-out");
            std::fprintf(stderr, "metrics written to %s\n",
                         metrics_path_.c_str());
        }
    }

  private:
    static bool
    matchFlag(std::string_view flag, int &i, int argc, char **argv,
              std::string &out)
    {
        const std::string_view arg = argv[i];
        if (arg == flag) {
            if (i + 1 < argc) {
                out = argv[++i];
            }
            return true;
        }
        if (arg.size() > flag.size() + 1 &&
            arg.substr(0, flag.size()) == flag &&
            arg[flag.size()] == '=') {
            out = std::string(arg.substr(flag.size() + 1));
            return true;
        }
        return false;
    }

    static void
    writeText(const std::string &path, const std::string &text,
              const char *what)
    {
        const std::vector<u8> bytes(text.begin(), text.end());
        const Status status = writeFile(path, bytes);
        if (!status.isOk()) {
            std::fprintf(stderr, "%s failed: %s\n", what,
                         status.toString().c_str());
            std::exit(1);
        }
    }

    std::string trace_path_;
    std::string metrics_path_;
    /** Sink recorder: events arrive pre-timed from engine reports. */
    TraceRecorder recorder_;
    MetricsRegistry registry_;
};

/** The offline-phase options every bench materializes a model with. */
inline core::OfflineOptions
offlineOptions(const llm::ModelConfig &model)
{
    core::OfflineOptions opts;
    opts.model = model;
    opts.pipeline.validate = true;
    opts.pipeline.validate_batch_sizes = {1, 64};
    return opts;
}

/**
 * Materialize a model and return its v6 image bytes, caching the image
 * on disk as ./artifacts/<model>.mdsi so experiment binaries can share
 * offline phases. A stale or corrupt cache entry is re-materialized.
 * Benches that need the in-memory artifact (analysis stats, serving
 * profiles) call core::materialize(offlineOptions(model)) instead.
 */
inline StatusOr<std::vector<u8>>
materializeCached(const llm::ModelConfig &model)
{
    const std::string path = "artifacts/" + model.name + ".mdsi";
    if (auto bytes = readFile(path); bytes.isOk()) {
        auto image =
            core::MaterializedImage::openView(std::span<const u8>(*bytes));
        if (image.isOk() && image->model_name == model.name &&
            image->model_seed == model.seed) {
            return std::move(*bytes);
        }
        // Stale or corrupt cache: fall through and rebuild.
    }
    MEDUSA_ASSIGN_OR_RETURN(core::OfflineResult result,
                            core::materialize(offlineOptions(model)));
    MEDUSA_RETURN_IF_ERROR(writeFile(path, result.image_bytes));
    return std::move(result.image_bytes);
}

/** Abort the bench with a message if a status is an error. */
inline void
checkOk(const Status &status, const char *what)
{
    if (!status.isOk()) {
        std::fprintf(stderr, "%s failed: %s\n", what,
                     status.toString().c_str());
        std::exit(1);
    }
}

template <typename T>
inline T
unwrap(StatusOr<T> value, const char *what)
{
    if (!value.isOk()) {
        std::fprintf(stderr, "%s failed: %s\n", what,
                     value.status().toString().c_str());
        std::exit(1);
    }
    return std::move(value).value();
}

/**
 * Open @p bytes as a zero-copy image (the caller keeps the bytes
 * alive); aborts the bench on a decode failure.
 */
inline core::MaterializedImage
openImage(const std::vector<u8> &bytes)
{
    return unwrap(core::MaterializedImage::openView(std::span<const u8>(bytes)),
                  "image open");
}

inline void
printRule(char c = '-', int width = 78)
{
    for (int i = 0; i < width; ++i) {
        std::putchar(c);
    }
    std::putchar('\n');
}

} // namespace medusa::bench

#endif // MEDUSA_BENCH_BENCH_UTIL_H
