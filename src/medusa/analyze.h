/**
 * @file
 * The offline analysis stage (paper §3/§4): synthesizes the recorder's
 * output into the v6 image's sections, appending node by node into an
 * ImageBuilder (image.h) — the kernel name table keyed by kernel
 * address in first-occurrence order, params as prefilled constants or
 * data relocations, permanent contents copied straight off the device.
 *
 * Pointer-vs-constant classification: 8-byte parameters whose value
 * falls in the device address range are pointer *candidates* (the
 * paper's "high address prefix" heuristic). Candidates are resolved by
 * trace-based backward matching against the allocation sequence
 * (§4.1): the latest allocation containing the value that is still
 * live at the launch's trace position wins. Candidates that match no
 * allocation are demoted to constants (rare false positives; validated
 * later). A naive matching mode (first containing allocation, ignoring
 * liveness) is provided as the ablation that reproduces Figure 6's
 * data-corruption hazard.
 */

#ifndef MEDUSA_MEDUSA_ANALYZE_H
#define MEDUSA_MEDUSA_ANALYZE_H

#include <string>
#include <vector>

#include "medusa/image.h"
#include "medusa/record.h"
#include "simcuda/gpu_process.h"
#include "simcuda/graph.h"

namespace medusa {
class MetricsRegistry;
}

namespace medusa::core {

/** Analysis configuration (ablation switches of DESIGN.md §7). */
struct AnalyzeOptions
{
    /**
     * true: backward trace-based matching (the paper's §4.1).
     * false: naive earliest-containing-allocation matching (the Figure
     * 6 false-positive ablation).
     */
    bool trace_based_matching = true;
    /**
     * §8 extension: scan materialized buffer contents for device
     * pointers (e.g. batched-GEMM operand arrays) and record them as
     * PointerWordFixes so the online phase rewrites them after replay.
     * Off = base-paper behaviour: such contents are copied verbatim and
     * dereference stale addresses (caught by validation).
     */
    bool handle_indirect_pointers = true;
};

/** Statistics the analysis stage reports (used by benches and tests). */
struct AnalysisStats
{
    u64 total_nodes = 0;
    u64 total_params = 0;
    u64 pointer_params = 0;
    u64 constant_params = 0;
    /** Pointer candidates rejected because no allocation matched. */
    u64 decoy_candidates = 0;
    /** Nodes whose kernels are visible to dlsym(). */
    u64 dlsym_visible_nodes = 0;
    /** Nodes requiring module enumeration (hidden kernels). */
    u64 hidden_kernel_nodes = 0;
    /** Buffers classified as model parameters (contents skipped). */
    u64 model_param_buffers = 0;
    /** Buffers classified as temporary (contents skipped). */
    u64 temp_buffers = 0;
    /** Buffers whose contents are materialized. */
    u64 permanent_buffers = 0;
    /**
     * Permanent buffers the shape-only capture left undefined and every
     * graph rewrites before reading (contents skipped).
     */
    u64 rewritten_buffers = 0;
    /** Indirect pointer words found inside materialized buffers (§8). */
    u64 indirect_pointer_words = 0;
    /** Bytes of buffer contents materialized (copy-free keeps this tiny). */
    u64 materialized_content_bytes = 0;
    /** Bytes that a full (non-copy-free) dump would have materialized. */
    u64 full_dump_bytes = 0;

    /**
     * Publish every counter under the canonical `analysis.*` metric
     * names (DESIGN.md §12). The struct itself stays the in-memory
     * view; registries are how benches and pipelines consume it.
     */
    void publishTo(MetricsRegistry &registry) const;
};

/** The analysis output: the image's sections, ready to finish(). */
struct AnalysisResult
{
    ImageBuilder image;
    AnalysisStats stats;
};

/**
 * Run the analysis over one recorded capturing-stage cold start.
 *
 * @param recorder the offline recorder (alloc/launch traces, tags).
 * @param process the offline process (for name/module lookups and for
 *        reading permanent-buffer contents off the device). A tainted
 *        permanent buffer (see simcuda::AllocationRecord) whose first
 *        touch in every graph is a direct, offset-0 kWrite gets no
 *        contents, since every replay rewrites it before reading it;
 *        any other tainted permanent buffer fails the analysis with
 *        kFailedPrecondition.
 * @param model_name / @param model_seed image identity.
 * @param graphs the captured graphs, one per batch size.
 * @param free_gpu_memory the profiled KV-init value to materialize.
 */
StatusOr<AnalysisResult>
analyze(const Recorder &recorder, simcuda::GpuProcess &process,
        const std::string &model_name, u64 model_seed,
        const std::vector<std::pair<u32, simcuda::CudaGraph>> &graphs,
        u64 free_gpu_memory, const AnalyzeOptions &options);

/** Whether an 8-byte value looks like a device pointer (heuristic). */
bool looksLikeDevicePointer(u64 value);

} // namespace medusa::core

#endif // MEDUSA_MEDUSA_ANALYZE_H
