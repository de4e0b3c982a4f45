/**
 * @file
 * Internal analyses shared by the medusa-lint rule families: allocation
 * lifetime reconstruction (used by the MDL4xx and MDL7xx rules), the
 * happens-before relation of a captured graph, and the
 * per-node buffer access sets the determinism rules (MDL8xx) compare.
 * Not part of the public lint API.
 */

#ifndef MEDUSA_MEDUSA_LINT_ANALYSIS_H
#define MEDUSA_MEDUSA_LINT_ANALYSIS_H

#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "medusa/image.h"
#include "simcuda/graph.h"
#include "simcuda/kernel.h"

namespace medusa::core {
class Recorder; // record.h
namespace lint {
struct LintReport;
struct LintOptions;

namespace detail {

/** One allocation's reconstructed lifetime in op positions. */
struct AllocLife
{
    u64 logical = 0;
    u64 backing = 0;
    /** Position of the kAlloc op in the sequence. */
    u64 op_alloc = 0;
    /** Position of the (first) kFree op, or -1 if never freed. */
    i64 op_free = -1;
};

/**
 * Rebuild every allocation's [alloc, free) lifetime from the op
 * sequence. Tolerant of malformed sequences (the well-formedness rules
 * report those); the first free wins, unknown indexes are ignored.
 */
std::vector<AllocLife> reconstructLifetimes(std::span<const AllocOp> ops);

/**
 * The happens-before relation of one captured graph. The capture
 * machinery materializes every stream/event ordering as a dependency
 * edge (program order on a stream chains through the capture frontier;
 * recordEvent/waitEvent fork and join frontiers), so graph reachability
 * IS the happens-before partial order of the capture. Every edge must
 * be forward (isForwardEdge); callers pass only graphs without an
 * MDL303 defect, and a non-forward edge aborts.
 */
class HappensBefore
{
  public:
    HappensBefore(std::size_t node_count,
                  std::span<const simcuda::GraphEdge> edges);

    /** True iff @p a is ordered strictly before @p b. */
    bool
    before(u32 a, u32 b) const
    {
        return a < n_ && b < n_ &&
               (bits_[static_cast<std::size_t>(a) * words_ + b / 64] >>
                (b % 64)) &
                   1u;
    }

    /** True iff the pair is ordered either way (never racing). */
    bool
    ordered(u32 a, u32 b) const
    {
        return before(a, b) || before(b, a);
    }

    /**
     * True when the graph is a total order (a single-stream capture
     * chain) — the common case, letting race checks exit early.
     */
    bool totalOrder() const { return total_order_; }

  private:
    std::size_t n_ = 0;
    std::size_t words_ = 0;
    /** n_ x words_ bitmap; row a holds the set of nodes after a. */
    std::vector<u64> bits_;
    bool total_order_ = true;
};

/** One statically-derived buffer access of a node. */
struct BufferAccess
{
    u64 alloc_index = 0;
    simcuda::ParamAccess access = simcuda::ParamAccess::kNone;
    /** Parameter position the access came from (for diagnostics). */
    u64 param = 0;
};

/** One node of a graph under race analysis. */
struct NodeAccess
{
    std::string kernel_name;
    /**
     * False when the kernel could not be resolved against the registry
     * (or carries no access metadata): its effects are unknown and any
     * unordered pair involving it is flagged as unprovable (MDL804).
     */
    bool known = false;
    /** Kernel dereferences pointer words stored inside buffers. */
    bool indirect = false;
    std::vector<BufferAccess> buffers;
};

/** One captured graph in the shape the race rules consume. */
struct RaceGraph
{
    u32 batch_size = 0;
    std::size_t node_count = 0;
    std::vector<simcuda::GraphEdge> edges;
    std::vector<NodeAccess> nodes;
};

/**
 * MDL801/MDL802/MDL804: vector-clock-style race detection over one
 * captured graph. Diagnostic locations are prefixed with
 * @p location_prefix (e.g. "graph[bs=4]").
 */
void checkGraphRaces(const RaceGraph &graph,
                     const std::string &location_prefix,
                     LintReport &report);

/**
 * MDL803: allocation-order determinism of the captured trace — flag
 * alloc/free ops that interleave a graph's capture window, the
 * MoE-style conditional-kernel hazard (a data-dependent allocation
 * inside a capture makes the replayed op order diverge from the
 * captured one).
 */
void checkCaptureWindowAllocs(const Recorder &trace, LintReport &report);

/**
 * MDL101-MDL105: allocation-sequence well-formedness of @p ops and its
 * organic boundary.
 */
void checkAllocSequence(std::span<const AllocOp> ops, u64 organic_op_count,
                        u64 organic_alloc_count, u64 device_memory_bytes,
                        LintReport &report);

/** What the cross-rank rules compare of one rank's image. */
struct RankShape
{
    struct Graph
    {
        u64 node_count = 0;
        std::vector<std::pair<u32, u32>> edges;
        /** Collective-module kernel names, in node order. */
        std::vector<std::string> collectives;
    };

    std::string model_name;
    u64 model_seed = 0;
    /** Captured graphs by batch size. */
    std::map<u32, Graph> graphs;
};

/**
 * Fold @p rank's per-rank diagnostics into @p report with every
 * location prefixed "rank[r].".
 */
void mergeRankReport(u64 r, LintReport rank, LintReport &report);

/**
 * MDL601-MDL604: cross-rank identity, batch-size set, topology and
 * collective ordering, rank 0 as the reference.
 */
void checkCrossRank(const std::vector<RankShape> &ranks,
                    LintReport &report);

} // namespace detail
} // namespace lint
} // namespace medusa::core

#endif // MEDUSA_MEDUSA_LINT_ANALYSIS_H
