#include "simcuda/lockstep.h"

#include <cstring>

#include "simcuda/kernels/builtin.h"

namespace medusa::simcuda {

Status
lockstepLaunch(const std::vector<LockstepRank> &ranks,
               const InterconnectModel &interconnect)
{
    if (ranks.empty()) {
        return invalidArgument("lockstep launch with no ranks");
    }
    const std::size_t steps = ranks[0].exec->nodeCount();
    for (const LockstepRank &rank : ranks) {
        if (rank.process == nullptr || rank.exec == nullptr) {
            return invalidArgument("lockstep rank missing process/graph");
        }
        if (rank.exec->nodeCount() != steps) {
            return invalidArgument(
                "tensor-parallel graphs are not symmetric");
        }
    }
    const KernelId all_reduce = BuiltinKernels::get().all_reduce_sum;
    const auto &reg = KernelRegistry::instance();

    // One CPU launch per rank's graph.
    std::vector<SimTimeNs> gpu_time(ranks.size(), 0);
    for (const LockstepRank &rank : ranks) {
        rank.process->clock().advance(
            units::usToNs(rank.process->cost().graph_launch_us));
    }

    std::vector<f32> reduced;
    std::vector<std::vector<f32>> contributions(ranks.size());
    for (NodeId step = 0; step < steps; ++step) {
        // Symmetry check: every rank runs the same kernel at a step.
        const KernelId kernel = ranks[0].exec->kernel(step);
        for (const LockstepRank &rank : ranks) {
            if (rank.exec->kernel(step) != kernel) {
                return invalidArgument(
                    "rank graphs diverge at step " +
                    std::to_string(step) + " (" +
                    reg.def(kernel).mangled_name + " vs " +
                    reg.def(rank.exec->kernel(step)).mangled_name +
                    ")");
            }
        }

        if (kernel == all_reduce) {
            // Play NCCL: gather every rank's buffer, sum, scatter back.
            const auto &kinds = reg.def(kernel).params;
            i32 count = 0;
            for (std::size_t r = 0; r < ranks.size(); ++r) {
                const ParamView params = ranks[r].exec->params(step);
                KernelArgs args(params, kinds);
                if (r == 0) {
                    count = args.i32At(1);
                } else if (args.i32At(1) != count) {
                    // A collective must move the same element count on
                    // every rank; divergent graphs would otherwise
                    // read past the shorter contributions below.
                    return invalidArgument(
                        "all-reduce element count mismatch at step " +
                        std::to_string(step));
                }
                if (args.i32At(3) != static_cast<i32>(ranks.size())) {
                    return invalidArgument(
                        "all-reduce world size mismatch");
                }
                contributions[r].resize(static_cast<std::size_t>(count));
                MEDUSA_RETURN_IF_ERROR(
                    ranks[r].process->memory().read(
                        args.ptrAt(0), contributions[r].data(),
                        static_cast<u64>(count) * 4));
            }
            reduced.assign(static_cast<std::size_t>(count), 0.0f);
            for (const auto &c : contributions) {
                for (std::size_t i = 0; i < reduced.size(); ++i) {
                    reduced[i] += c[i];
                }
            }
            for (std::size_t r = 0; r < ranks.size(); ++r) {
                const ParamView params = ranks[r].exec->params(step);
                KernelArgs args(params, kinds);
                MEDUSA_RETURN_IF_ERROR(
                    ranks[r].process->memory().write(
                        args.ptrAt(0), reduced.data(),
                        static_cast<u64>(count) * 4));
            }
            // Collective cost: ring all-reduce moves 2(N-1)/N of the
            // logical payload per link; charge every rank equally and
            // synchronize their GPU timelines (a collective is a
            // barrier).
            const TimingInfo &t = ranks[0].exec->timing(step);
            const f64 payload =
                t.bytes * 2.0 *
                (static_cast<f64>(ranks.size()) - 1.0) /
                static_cast<f64>(ranks.size());
            const SimTimeNs comm = units::usToNs(
                interconnect.collective_latency_us +
                payload / (interconnect.link_gbps * 1e3));
            SimTimeNs frontier = 0;
            for (SimTimeNs gt : gpu_time) {
                frontier = std::max(frontier, gt);
            }
            frontier += comm;
            for (auto &gt : gpu_time) {
                gt = frontier;
            }
            continue;
        }

        for (std::size_t r = 0; r < ranks.size(); ++r) {
            MEDUSA_RETURN_IF_ERROR(ranks[r].process->executeKernel(
                kernel, ranks[r].exec->params(step)));
            gpu_time[r] +=
                ranks[r].process->cost().kernelExecTime(
                    ranks[r].exec->timing(step),
                    ranks[r].process->cost().steady_efficiency) +
                units::usToNs(
                    ranks[r].process->cost().graph_node_dispatch_us);
        }
    }

    // Advance every rank's clock to its completion time (the engines
    // share one virtual timeline via their own clocks).
    for (std::size_t r = 0; r < ranks.size(); ++r) {
        ranks[r].process->clock().advance(gpu_time[r]);
    }
    return Status::ok();
}

} // namespace medusa::simcuda
