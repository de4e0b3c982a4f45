/**
 * @file
 * The offline analysis stage (paper §3/§4): synthesizes the recorder's
 * output into a materialized Artifact.
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

#include "medusa/record.h"
#include "simcuda/gpu_process.h"
#include "simcuda/graph.h"

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

/** Identifies one parameter of one node of one graph. */
struct ParamRef
{
    u32 batch_size = 0;
    u32 node = 0;
    u32 param = 0;
};

/** The analysis output: the artifact plus repair metadata. */
struct AnalysisResult
{
    Artifact artifact;
    /**
     * Pointer-classified params whose match was ambiguous (multiple
     * same-address allocations in the trace window) — the candidates
     * the validation/repair loop flips first on mismatch.
     */
    std::vector<ParamRef> risky_params;
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
 * @param model_name / @param model_seed artifact identity.
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
