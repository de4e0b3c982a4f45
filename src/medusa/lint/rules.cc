/**
 * @file
 * The MDL1xx allocation-sequence checks and the MDL6xx cross-rank
 * comparison, which lintImage and lintTpImages (image_rules.cc) call;
 * see lint.h for the rule-family overview and DESIGN.md §9 for the
 * mapping to paper failure modes.
 */

#include "medusa/lint/lint.h"

#include <algorithm>
#include <string>

#include "medusa/lint/analysis.h"

namespace medusa::core::lint {

namespace {

std::string
opLoc(u64 pos)
{
    return "ops[" + std::to_string(pos) + "]";
}

std::string
graphLoc(u32 batch_size)
{
    return "graph[bs=" + std::to_string(batch_size) + "]";
}

} // namespace

namespace detail {

void
checkAllocSequence(std::span<const AllocOp> ops, u64 organic_op_count,
                   u64 organic_alloc_count, u64 device_memory_bytes,
                   LintReport &report)
{
    auto emit = [&report](const char *rule, Severity severity,
                          std::string location, std::string message,
                          std::string fix_hint) {
        report.diagnostics.push_back({rule, severity, std::move(location),
                                      std::move(message),
                                      std::move(fix_hint)});
    };
    std::vector<bool> freed;
    u64 alloc_count = 0;
    for (u64 pos = 0; pos < ops.size(); ++pos) {
        const AllocOp &op = ops[pos];
        if (op.kind == AllocOp::kAlloc) {
            ++alloc_count;
            freed.push_back(false);
            if (op.logical_size == 0) {
                emit("MDL104", Severity::kError, opLoc(pos),
                     "allocation of zero logical bytes (the "
                     "allocator rejects it; replay would abort)",
                     "re-run the offline analysis; the recorded "
                     "sequence is corrupt");
            } else if (op.logical_size > device_memory_bytes) {
                emit("MDL104", Severity::kError, opLoc(pos),
                     "logical size " +
                         std::to_string(op.logical_size) +
                         " exceeds the device capacity " +
                         std::to_string(device_memory_bytes),
                     "check for a size-field overflow or a "
                     "wrong-device image");
            }
            if (op.backing_size > op.logical_size) {
                emit("MDL104", Severity::kError, opLoc(pos),
                     "backing size " +
                         std::to_string(op.backing_size) +
                         " exceeds the logical size " +
                         std::to_string(op.logical_size),
                     "backing bytes are a functional subset of the "
                     "accounted footprint; the op is corrupt");
            }
            continue;
        }
        // kFree.
        if (op.freed_alloc_index >= alloc_count) {
            emit("MDL102", Severity::kError, opLoc(pos),
                 "free of allocation index " +
                     std::to_string(op.freed_alloc_index) +
                     " which does not exist yet (only " +
                     std::to_string(alloc_count) +
                     " allocations precede this op)",
                 "the replay would have no address for this index; "
                 "re-emit the image");
            continue;
        }
        if (freed[op.freed_alloc_index]) {
            emit("MDL101", Severity::kError, opLoc(pos),
                 "double free of allocation index " +
                     std::to_string(op.freed_alloc_index),
                 "the replayed allocator would reject the second "
                 "free; re-emit the image");
            continue;
        }
        freed[op.freed_alloc_index] = true;
        if (pos >= organic_op_count &&
            op.freed_alloc_index < organic_alloc_count) {
            emit("MDL103", Severity::kWarning, opLoc(pos),
                 "replayed free of organic allocation index " +
                     std::to_string(op.freed_alloc_index) +
                     " (created by structure init, which still "
                     "references it)",
                 "verify the recorder's organic boundary; the "
                 "replay frees a buffer the runtime owns");
        }
    }
    if (organic_op_count > ops.size()) {
        emit("MDL105", Severity::kError, "image",
             "organic_op_count " + std::to_string(organic_op_count) +
                 " exceeds the op sequence length " +
                 std::to_string(ops.size()),
             "the replay boundary is out of range; "
             "re-emit the image");
    } else {
        u64 organic_allocs = 0;
        for (u64 pos = 0; pos < organic_op_count; ++pos) {
            if (ops[pos].kind == AllocOp::kAlloc) {
                ++organic_allocs;
            }
        }
        if (organic_allocs != organic_alloc_count) {
            emit("MDL105", Severity::kError, "image",
                 "organic_alloc_count " +
                     std::to_string(organic_alloc_count) +
                     " disagrees with the " +
                     std::to_string(organic_allocs) +
                     " alloc ops before the replay boundary",
                 "the online interceptor would mis-verify the "
                 "organic prefix; re-emit the image");
        }
    }
}

void
mergeRankReport(u64 r, LintReport rank, LintReport &report)
{
    for (Diagnostic &d : rank.diagnostics) {
        d.location = "rank[" + std::to_string(r) + "]." + d.location;
    }
    report.merge(std::move(rank));
}

void
checkCrossRank(const std::vector<RankShape> &ranks, LintReport &report)
{
    auto emit = [&report](const char *rule, std::string location,
                          std::string message, std::string hint) {
        report.diagnostics.push_back({rule, Severity::kError,
                                      std::move(location),
                                      std::move(message),
                                      std::move(hint)});
    };
    if (ranks.size() < 2) {
        return;
    }
    const RankShape &ref = ranks[0];
    for (u64 r = 1; r < ranks.size(); ++r) {
        const RankShape &a = ranks[r];
        const std::string rank_loc = "rank[" + std::to_string(r) + "]";
        if (a.model_name != ref.model_name ||
            a.model_seed != ref.model_seed) {
            emit("MDL601", rank_loc,
                 "image identity (" + a.model_name + ", seed " +
                     std::to_string(a.model_seed) +
                     ") diverges from rank 0 (" + ref.model_name +
                     ", seed " + std::to_string(ref.model_seed) + ")",
                 "all ranks must be materialized from one "
                 "capturing-stage run");
            continue;
        }
        if (a.graphs.size() != ref.graphs.size() ||
            !std::equal(a.graphs.begin(), a.graphs.end(),
                        ref.graphs.begin(),
                        [](const auto &x, const auto &y) {
                            return x.first == y.first;
                        })) {
            emit("MDL602", rank_loc,
                 "captured batch-size set diverges from rank 0 (" +
                     std::to_string(a.graphs.size()) + " vs " +
                     std::to_string(ref.graphs.size()) + " sizes)",
                 "a decode on a size one rank lacks would deadlock "
                 "the collective; re-capture all ranks together");
            continue;
        }
        for (const auto &[bs, g] : a.graphs) {
            const RankShape::Graph &rg = ref.graphs.at(bs);
            const std::string gloc = rank_loc + "." + graphLoc(bs);
            if (g.node_count != rg.node_count || g.edges != rg.edges) {
                emit("MDL603", gloc,
                     "graph topology diverges from rank 0 (" +
                         std::to_string(g.node_count) + " nodes, " +
                         std::to_string(g.edges.size()) +
                         " edges vs " + std::to_string(rg.node_count) +
                         "/" + std::to_string(rg.edges.size()) + ")",
                     "lockstep replay requires rank-identical "
                     "structure; re-capture all ranks together");
                continue;
            }
            if (g.collectives != rg.collectives) {
                emit("MDL604", gloc,
                     "collective-kernel ordering diverges from rank "
                     "0; lockstep replay would mismatch all-reduce "
                     "steps across ranks",
                     "the ranks were captured from different model "
                     "revisions; re-capture all ranks together");
            }
        }
    }
}

} // namespace detail

} // namespace medusa::core::lint
