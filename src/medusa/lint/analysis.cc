#include "medusa/lint/analysis.h"

#include <algorithm>

#include "common/logging.h"

namespace medusa::core::lint::detail {

std::vector<AllocLife>
reconstructLifetimes(std::span<const AllocOp> ops)
{
    std::vector<AllocLife> lives;
    for (u64 pos = 0; pos < ops.size(); ++pos) {
        const AllocOp &op = ops[pos];
        if (op.kind == AllocOp::kAlloc) {
            AllocLife life;
            life.logical = op.logical_size;
            life.backing = op.backing_size;
            life.op_alloc = pos;
            lives.push_back(life);
        } else if (op.freed_alloc_index < lives.size() &&
                   lives[op.freed_alloc_index].op_free < 0) {
            lives[op.freed_alloc_index].op_free = static_cast<i64>(pos);
        }
    }
    return lives;
}

HappensBefore::HappensBefore(std::size_t node_count,
                             std::span<const simcuda::GraphEdge> edges)
    : n_(node_count), words_((node_count + 63) / 64)
{
    bits_.assign(n_ * words_, 0);
    // Group each node's successors; every edge points forward, so a
    // reverse sweep sees every successor's closure already complete:
    // reach(u) = U over edges (u,v) of ({v} U reach(v)).
    std::vector<std::vector<u32>> succ(n_);
    std::vector<bool> chain_edge(n_ > 0 ? n_ - 1 : 0, false);
    for (const simcuda::GraphEdge &e : edges) {
        MEDUSA_CHECK(isForwardEdge(e, n_), "happens-before over edge "
                                               << e.src << "->" << e.dst
                                               << " of a " << n_
                                               << "-node graph");
        succ[e.src].push_back(e.dst);
        if (e.dst == e.src + 1) {
            chain_edge[e.src] = true;
        }
    }
    total_order_ = std::all_of(chain_edge.begin(), chain_edge.end(),
                               [](bool b) { return b; });
    for (std::size_t u = n_; u-- > 0;) {
        u64 *row = bits_.data() + u * words_;
        for (u32 v : succ[u]) {
            row[v / 64] |= 1ull << (v % 64);
            const u64 *vrow = bits_.data() +
                              static_cast<std::size_t>(v) * words_;
            for (std::size_t w = 0; w < words_; ++w) {
                row[w] |= vrow[w];
            }
        }
    }
}

} // namespace medusa::core::lint::detail
