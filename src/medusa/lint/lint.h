/**
 * @file
 * medusa-lint: static analysis of the materialized v6 image.
 *
 * The image is a long-lived cross-process contract: the online phase
 * instantiates graphs from it *without* re-deriving any of the recorded
 * state, so a corrupt (or wrongly analyzed) image silently corrupts a
 * replay — the paper's Figure 6 failure mode. The linter proves
 * replay-safety properties of an image WITHOUT executing the online
 * phase, and reports violations as rule-tagged diagnostics. It checks
 * the same bytes the restore path opens, the way a linker checks the
 * object file it links; the in-memory Artifact is never linted.
 *
 * Rule families (see DESIGN.md §9 for the paper mapping):
 *  - MDL1xx  allocation-sequence well-formedness (double-free, free of
 *            an unknown index, replay-boundary violations, impossible
 *            sizes),
 *  - MDL3xx  kernel-name-table completeness against the module
 *            registry's symbol set (incl. hidden symbols reachable
 *            only via triggering-kernels) and graph topology sanity
 *            (edge endpoints and the precomputed execution order,
 *            duplicate batch sizes),
 *  - MDL4xx  permanent-buffer content safety: pointer-shaped words not
 *            covered by a PointerWordFix, and fix-table validity,
 *  - MDL5xx  free-memory-number consistency: the materialized KV-init
 *            figure must be reproducible from the allocation sequence
 *            within the device memory model,
 *  - MDL6xx  cross-rank tensor-parallel consistency (topology, batch
 *            sets, collective-kernel ordering),
 *  - MDL7xx  relocation verification (DESIGN.md §14): relocation
 *            bounds/liveness against the replayed allocation table and
 *            kernel name table — the static detector for Figure 6's
 *            naive-matching hazard, at each launch's exact trace
 *            position when the recorder trace is supplied — duplicate
 *            patch targets, first-occurrence kernel-table ordering, and
 *            the coverage proof: every run-specific address slot of
 *            the patch template must be covered by exactly one
 *            relocation (an uncovered slot replays a capture-time
 *            address verbatim),
 *  - MDL8xx  determinism / race analysis over captured graphs: the
 *            capture's stream/event edges form the happens-before
 *            relation; unordered node pairs touching one buffer with a
 *            write are capture-order-dependent (write-write MDL801,
 *            read-write MDL802), and alloc/free ops interleaving a
 *            capture window make the replayed allocation order
 *            data-dependent (MDL803, the MoE conditional-kernel
 *            hazard).
 *
 * The retired MDL2xx indirect-index family is covered by MDL7xx: an
 * index beyond the sequence or an offset outside its allocation is
 * MDL701, a stale pointer is MDL702.
 *
 * Severity: kError rules make instantiation unsafe (replay would fault
 * or corrupt); kWarning rules flag suspicious-but-possibly-benign
 * state; kInfo is advisory. An image produced by the default offline
 * pipeline lints clean (zero diagnostics).
 */

#ifndef MEDUSA_MEDUSA_LINT_LINT_H
#define MEDUSA_MEDUSA_LINT_LINT_H

#include <span>
#include <string>
#include <vector>

#include "medusa/artifact.h"
#include "simcuda/caching_allocator.h"
#include "simcuda/memory.h"

namespace medusa::core {

class Recorder;          // record.h; only needed for trace-exact liveness
class MaterializedImage; // image.h; what every rule checks

namespace lint {

/** Schema version stamped into LintReport::toJson() output. */
inline constexpr u32 kLintJsonSchemaVersion = 1;

/** How bad a finding is for replay safety. */
enum class Severity : u8 {
    kInfo = 0,
    kWarning = 1,
    kError = 2,
};

const char *severityName(Severity s);

/** One rule violation. */
struct Diagnostic
{
    /** Rule tag, e.g. "MDL202". */
    std::string rule;
    Severity severity = Severity::kError;
    /** Image coordinates, e.g. "graph[bs=4].node[3].param[1]". */
    std::string location;
    /** What is wrong. */
    std::string message;
    /** How to repair the image (or the pipeline that produced it). */
    std::string fix_hint;
};

/** Linter configuration. */
struct LintOptions
{
    /**
     * Device capacity of the memory model the image was recorded
     * against (rule MDL5xx). Images do not record it; defaults to the
     * simulator's device size.
     */
    u64 device_memory_bytes =
        simcuda::DeviceMemoryManager::kDefaultDeviceBytes;
    /**
     * Free-list size-class rounding of the caching allocator, used to
     * reproduce the free-memory figure from logical sizes.
     */
    u64 alloc_round_bytes = simcuda::CachingAllocator::kRoundBytes;
    /**
     * Check kernel names against the in-process KernelRegistry
     * (MDL3xx). Disable when linting an image for a foreign kernel
     * zoo.
     */
    bool check_kernel_registry = true;
    /** Module whose kernels are collectives (MDL604 ordering). */
    std::string collective_module = "libsimnccl.so";
    /**
     * Device the image was captured on. The MDL705 coverage heuristic
     * classifies an 8-byte prefilled constant as a leaked capture-time
     * pointer only when its value falls inside THIS device's VA window
     * — tagged constants that merely look pointer-shaped (e.g. stream
     * tags in another window) stay silent.
     */
    u32 device_index = 0;
    /**
     * Optional raw offline recorder trace. When present, MDL702 uses
     * each captured launch's exact trace position instead of the
     * per-graph inferred lower bound, and MDL803 checks the capture
     * windows for interleaved allocation ops.
     */
    const Recorder *trace = nullptr;
};

/** The linter's output. */
struct LintReport
{
    std::vector<Diagnostic> diagnostics;

    u64 errorCount() const;
    u64 warningCount() const;
    /** True iff no error-severity diagnostics (warnings allowed). */
    bool replaySafe() const { return errorCount() == 0; }
    /** True iff there are no diagnostics at all. */
    bool clean() const { return diagnostics.empty(); }

    /** Render one line per diagnostic, "severity rule location: ...". */
    std::string toText() const;
    /** Render as a JSON object for tooling. */
    std::string toJson() const;
    /**
     * Render as a SARIF 2.1.0 log (one run, driver "medusa-lint") for
     * code-scanning ingestion. Diagnostic locations map to SARIF
     * logical locations; rule metadata comes from the rule catalog.
     */
    std::string toSarif() const;
    /** The first error's "rule location: message", or "". */
    std::string firstError() const;

    void merge(LintReport other);
};

/**
 * Run every single-image rule family (MDL1xx-MDL5xx, MDL7xx, MDL8xx)
 * over a decoded v6 image. When options.trace is set, MDL702 judges
 * liveness at each launch's exact trace position and MDL803
 * additionally checks the raw capture trace for allocation-order
 * nondeterminism.
 */
LintReport lintImage(const MaterializedImage &image,
                     const LintOptions &options = {});

/**
 * Run the image rules on every rank's image (locations prefixed with
 * "rank[i].") PLUS the cross-rank tensor-parallel rules (MDL6xx).
 */
LintReport lintTpImages(const std::vector<MaterializedImage> &rank_images,
                        const LintOptions &options = {});

/**
 * Decode serialized v6 image bytes (CRC-checked, relocation bounds
 * checks deferred to the rules so corruption is diagnosed precisely)
 * and run lintImage. A failure to decode at all is itself reported as
 * rule MDL700.
 */
LintReport lintImageBytes(std::span<const u8> bytes,
                          const LintOptions &options = {});

/** One-line summary of a rule tag for report metadata ("" if unknown). */
const char *ruleSummary(const std::string &rule);

} // namespace lint
} // namespace medusa::core

#endif // MEDUSA_MEDUSA_LINT_LINT_H
