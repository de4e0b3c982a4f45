/**
 * @file
 * Simulated CUDA graphs.
 *
 * A CudaGraph is a DAG of kernel nodes whose node ids are the execution
 * order: addKernelNode() only accepts dependencies on earlier nodes, so
 * every edge points forward and running ids 0..n-1 respects them all.
 * Each node records exactly what a real cudaGraphKernelNodeParams
 * exposes: the kernel's (per-process, randomized) function address, and
 * the raw bytes of every launch parameter. The parameters of all nodes live in one flat ParamBlob
 * array with nodeCount()+1 prefix offsets — the layout GraphExec and
 * the materialized image use — so capture appends inline values and
 * instantiation copies the array whole. Graphs are built either by
 * stream capture (gpu_process.h) or explicitly via addKernelNode().
 */

#ifndef MEDUSA_SIMCUDA_GRAPH_H
#define MEDUSA_SIMCUDA_GRAPH_H

#include <vector>

#include "common/logging.h"
#include "simcuda/kernel.h"
#include "simtime/cost_model.h"

namespace medusa::simcuda {

/** Node index within one graph. */
using NodeId = u32;

/**
 * One kernel node: function address plus the logical-work metadata the
 * timing model consumes (an intrinsic property of the kernel
 * invocation, not a launch parameter — Medusa never inspects it). Its
 * parameters are CudaGraph::params(id).
 */
struct GraphNode
{
    KernelAddr fn = 0;
    TimingInfo timing;
};

/** A directed dependency edge: dst may only run after src. */
struct GraphEdge
{
    NodeId src = 0;
    NodeId dst = 0;
};

/**
 * The graph under construction / inspection. Mirrors the mutation and
 * inspection API of the CUDA graph (cudaGraphAddKernelNode,
 * cudaGraphKernelNodeGetParams/SetParams, cudaGraphGetEdges).
 */
class CudaGraph
{
  public:
    CudaGraph() = default;

    /**
     * Add a kernel node.
     * @param deps nodes this one depends on (must already exist; a
     *        dependency on a future node aborts).
     */
    NodeId
    addKernelNode(KernelAddr fn, ParamView params, const TimingInfo &timing,
                  const std::vector<NodeId> &deps)
    {
        const NodeId id = static_cast<NodeId>(nodes_.size());
        nodes_.push_back(GraphNode{fn, timing});
        blobs_.insert(blobs_.end(), params.begin(), params.end());
        param_begin_.push_back(static_cast<u32>(blobs_.size()));
        for (NodeId d : deps) {
            MEDUSA_CHECK(d < id, "graph dependency on future node " << d);
            edges_.push_back(GraphEdge{d, id});
        }
        return id;
    }

    std::size_t nodeCount() const { return nodes_.size(); }
    std::size_t edgeCount() const { return edges_.size(); }

    const GraphNode &node(NodeId id) const { return nodes_.at(id); }
    const std::vector<GraphNode> &nodes() const { return nodes_; }
    const std::vector<GraphEdge> &edges() const { return edges_; }

    /** The parameters of node @p id (cudaGraphKernelNodeGetParams). */
    ParamView
    params(NodeId id) const
    {
        const u32 begin = param_begin_.at(id);
        return ParamView(blobs_.data() + begin,
                         param_begin_.at(id + 1) - begin);
    }

    /** nodeCount()+1 prefix offsets into paramBlobs(), node-id order. */
    const std::vector<u32> &paramBegin() const { return param_begin_; }
    /** Every node's parameters, concatenated in node-id order. */
    const std::vector<ParamBlob> &paramBlobs() const { return blobs_; }

    /** Replace one parameter's value (cudaGraphKernelNodeSetParams). */
    void
    setNodeParam(NodeId id, std::size_t param_index, ParamBlob value)
    {
        MEDUSA_CHECK(param_index < params(id).size(),
                     "param index out of range");
        blobs_[param_begin_[id] + param_index] = value;
    }

    /** Replace a node's function address (for address restoration). */
    void
    setNodeKernel(NodeId id, KernelAddr fn)
    {
        nodes_.at(id).fn = fn;
    }

  private:
    std::vector<GraphNode> nodes_;
    std::vector<u32> param_begin_ = {0};
    std::vector<ParamBlob> blobs_;
    std::vector<GraphEdge> edges_;
};

} // namespace medusa::simcuda

#endif // MEDUSA_SIMCUDA_GRAPH_H
