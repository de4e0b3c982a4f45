#include "llm/tensor_parallel.h"

#include "llm/engine.h"

namespace medusa::llm {

StatusOr<std::unique_ptr<TpCluster>>
TpCluster::create(const Options &o)
{
    if (o.world < 2 || o.world > 4) {
        return invalidArgument("tp world must be in [2, 4]");
    }
    if (o.model.heads % o.world != 0 ||
        o.model.func.heads % o.world != 0 ||
        o.model.intermediate % o.world != 0 ||
        o.model.func.intermediate % o.world != 0) {
        return invalidArgument(
            "model dimensions are not divisible by the tp world size");
    }
    std::unique_ptr<TpCluster> cluster(new TpCluster());
    for (u32 r = 0; r < o.world; ++r) {
        ModelRuntime::Options ropts;
        ropts.model = o.model;
        ropts.model.tp_world = o.world;
        ropts.model.tp_rank = r;
        ropts.aslr_seed = o.aslr_seed * 131 + r;
        ropts.device_index = r;
        ropts.cost = o.cost;
        if (r < o.alloc_observers.size()) {
            ropts.alloc_observer = o.alloc_observers[r];
        }
        if (r < o.launch_observers.size()) {
            ropts.launch_observer = o.launch_observers[r];
        }
        if (r < o.engine_observers.size()) {
            ropts.observer = o.engine_observers[r];
        }
        cluster->ranks_.push_back(
            std::make_unique<ModelRuntime>(ropts));
    }
    return cluster;
}

StatusOr<std::unique_ptr<TpCluster>>
TpCluster::createCaptured(const Options &o,
                          const std::vector<u32> &batch_sizes)
{
    MEDUSA_ASSIGN_OR_RETURN(auto cluster, create(o));
    MEDUSA_RETURN_IF_ERROR(cluster->loadAll());
    MEDUSA_RETURN_IF_ERROR(cluster->captureAll(batch_sizes));
    return cluster;
}

Status
TpCluster::loadAll()
{
    for (auto &rank : ranks_) {
        StageTimes t;
        MEDUSA_RETURN_IF_ERROR(
            runLoadingStages(*rank, /*capture=*/false, t, nullptr));
    }
    return Status::ok();
}

Status
TpCluster::captureAll(const std::vector<u32> &batch_sizes)
{
    for (u32 bs : batch_sizes) {
        for (auto &rank : ranks_) {
            MEDUSA_RETURN_IF_ERROR(rank->warmupDecode(bs));
            MEDUSA_ASSIGN_OR_RETURN(auto graph, rank->captureDecode(bs));
            MEDUSA_RETURN_IF_ERROR(rank->instantiateGraph(bs, graph));
        }
    }
    return Status::ok();
}

Status
TpCluster::stageValidationState(u32 bs)
{
    for (auto &rank : ranks_) {
        MEDUSA_RETURN_IF_ERROR(rank->stageValidationState(bs));
    }
    return Status::ok();
}

StatusOr<std::vector<f32>>
TpCluster::lockstepDecodeLogits(u32 bs)
{
    std::vector<const simcuda::GraphExec *> execs;
    for (auto &rank : ranks_) {
        MEDUSA_ASSIGN_OR_RETURN(const simcuda::GraphExec *exec,
                                rank->graphExec(bs));
        execs.push_back(exec);
    }
    return lockstepDecodeLogits(bs, execs);
}

StatusOr<std::vector<f32>>
TpCluster::lockstepDecodeLogits(
    u32 bs, const std::vector<const simcuda::GraphExec *> &execs)
{
    if (execs.size() != ranks_.size()) {
        return invalidArgument("one graph per rank required");
    }
    std::vector<simcuda::LockstepRank> lockstep;
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
        lockstep.push_back(
            simcuda::LockstepRank{&ranks_[r]->process(), execs[r]});
    }
    MEDUSA_RETURN_IF_ERROR(simcuda::lockstepLaunch(lockstep));
    // Logits are replicated (every rank computes the full LM head over
    // the all-reduced hidden state); read rank 0's.
    const u32 vocab = ranks_[0]->model().func.vocab;
    std::vector<f32> out(static_cast<std::size_t>(bs) * vocab);
    MEDUSA_RETURN_IF_ERROR(ranks_[0]->process().memcpyD2H(
        out.data(), ranks_[0]->buffers().logits,
        out.size() * sizeof(f32), out.size() * 2));
    return out;
}

} // namespace medusa::llm
