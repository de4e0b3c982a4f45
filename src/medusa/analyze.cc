#include "medusa/analyze.h"

#include <cstring>
#include <set>

namespace medusa::core {

using simcuda::CudaGraph;

bool
looksLikeDevicePointer(u64 value)
{
    // The device address range plus generous slack: a "high address
    // prefix" test, deliberately broad so that constants can produce
    // false-positive candidates (as the paper observes).
    return value >= 0x7f0000000000ull && value < 0x800000000000ull;
}

namespace {

/** Backward trace-based match (§4.1); see analyze.h. */
const AllocRecord *
matchTraceBased(const std::vector<const AllocRecord *> &candidates,
                u64 launch_op_pos, bool *ambiguous)
{
    const AllocRecord *live_match = nullptr;
    const AllocRecord *latest_before = nullptr;
    u32 before_count = 0;
    for (const AllocRecord *rec : candidates) {
        if (rec->op_pos_alloc >= launch_op_pos) {
            continue; // allocated after the launch
        }
        ++before_count;
        if (latest_before == nullptr ||
            rec->op_pos_alloc > latest_before->op_pos_alloc) {
            latest_before = rec;
        }
        const bool live = rec->op_pos_free < 0 ||
                          static_cast<u64>(rec->op_pos_free) >
                              launch_op_pos;
        if (live && (live_match == nullptr ||
                     rec->op_pos_alloc > live_match->op_pos_alloc)) {
            live_match = rec;
        }
    }
    // Kernels always use buffers that are still allocated at launch
    // time, so the live match is authoritative. Falling back to the
    // latest earlier allocation (a freed one) is possible but risky.
    if (live_match != nullptr) {
        *ambiguous = before_count > 1 && live_match != latest_before;
        return live_match;
    }
    *ambiguous = latest_before != nullptr;
    return latest_before;
}

/** Naive match: earliest containing allocation (the Fig. 6 hazard). */
const AllocRecord *
matchNaive(const std::vector<const AllocRecord *> &candidates,
           u64 launch_op_pos, bool *ambiguous)
{
    const AllocRecord *first = nullptr;
    u32 count = 0;
    for (const AllocRecord *rec : candidates) {
        if (rec->op_pos_alloc >= launch_op_pos) {
            continue;
        }
        ++count;
        if (first == nullptr ||
            rec->op_pos_alloc < first->op_pos_alloc) {
            first = rec;
        }
    }
    *ambiguous = count > 1;
    return first;
}

/**
 * Whether an indirect-access launch may reach @p target through the
 * operand words stored in its parameter buffers (as read off the
 * capture process). A tainted parameter buffer may hold any word.
 */
bool
operandWordsReach(const AllocRecord &target, const simcuda::GraphNode &node,
                  const simcuda::KernelDef &def,
                  const simcuda::DeviceMemoryManager &memory)
{
    for (std::size_t p = 0; p < node.params.size(); ++p) {
        if (def.params[p] != simcuda::ParamKind::kPointer) {
            continue;
        }
        u64 ptr = 0;
        std::memcpy(&ptr, node.params[p].data(), sizeof(ptr));
        const simcuda::AllocationRecord *buf = memory.findContaining(ptr);
        if (buf == nullptr) {
            continue;
        }
        if (buf->tainted) {
            return true;
        }
        std::vector<u64> words(buf->backing.size() / sizeof(u64));
        if (!memory.read(buf->base, words.data(), words.size() * 8).isOk()) {
            return true;
        }
        for (u64 word : words) {
            if (word >= target.addr &&
                word - target.addr < target.logical_size) {
                return true;
            }
        }
    }
    return false;
}

/**
 * Whether replay rewrites @p target before reading it: in every graph,
 * the first node that touches it names it only through pointer params
 * at offset 0 with kWrite access. An indirect-access node touches every
 * buffer its operand words reach, and never as a plain write.
 */
StatusOr<bool>
rewrittenBeforeRead(const AllocRecord &target,
                    const std::vector<std::pair<u32, CudaGraph>> &graphs,
                    const std::vector<GraphBlueprint> &blueprints,
                    simcuda::GpuProcess &process)
{
    const auto &registry = simcuda::KernelRegistry::instance();
    for (std::size_t g = 0; g < graphs.size(); ++g) {
        const CudaGraph &graph = graphs[g].second;
        const GraphBlueprint &bp = blueprints[g];
        for (u32 n = 0; n < bp.nodes.size(); ++n) {
            const simcuda::GraphNode &node =
                graph.node(static_cast<simcuda::NodeId>(n));
            MEDUSA_ASSIGN_OR_RETURN(simcuda::KernelId kernel,
                                    process.modules().kernelAt(node.fn));
            const simcuda::KernelDef &def = registry.def(kernel);
            if (def.indirect_access &&
                operandWordsReach(target, node, def, process.memory())) {
                return false;
            }
            bool touched = false;
            const std::vector<ParamSpec> &params = bp.nodes[n].params;
            for (std::size_t p = 0; p < params.size(); ++p) {
                if (params[p].kind != ParamSpec::kIndirect ||
                    params[p].alloc_index != target.alloc_index) {
                    continue;
                }
                if (params[p].offset != 0 || def.access.empty() ||
                    def.access[p] != simcuda::ParamAccess::kWrite) {
                    return false;
                }
                touched = true;
            }
            if (touched) {
                break;
            }
        }
    }
    return true;
}

} // namespace

StatusOr<AnalysisResult>
analyze(const Recorder &recorder, simcuda::GpuProcess &process,
        const std::string &model_name, u64 model_seed,
        const std::vector<std::pair<u32, CudaGraph>> &graphs,
        u64 free_gpu_memory, const AnalyzeOptions &options)
{
    AnalysisResult result;
    Artifact &artifact = result.artifact;
    AnalysisStats &stats = artifact.stats;

    artifact.model_name = model_name;
    artifact.model_seed = model_seed;
    artifact.free_gpu_memory = free_gpu_memory;
    artifact.ops = recorder.ops();
    artifact.organic_op_count = recorder.organicOpCount();
    artifact.organic_alloc_count = recorder.organicAllocCount();
    artifact.tags = recorder.tags();

    /** Allocation indexes referenced by at least one node pointer. */
    std::set<u64> referenced;

    for (const auto &[batch_size, graph] : graphs) {
        auto launches_it = recorder.graphLaunches().find(batch_size);
        if (launches_it == recorder.graphLaunches().end()) {
            return internalError("no recorded launches for graph bs=" +
                                 std::to_string(batch_size));
        }
        const auto &launches = launches_it->second;
        if (launches.size() != graph.nodeCount()) {
            return internalError(
                "captured launch count does not match graph nodes");
        }

        GraphBlueprint bp;
        bp.batch_size = batch_size;
        bp.nodes.reserve(graph.nodeCount());
        for (const auto &edge : graph.edges()) {
            bp.edges.emplace_back(edge.src, edge.dst);
        }

        for (u32 node_idx = 0; node_idx < graph.nodeCount(); ++node_idx) {
            const simcuda::GraphNode &node =
                graph.node(static_cast<simcuda::NodeId>(node_idx));
            const CapturedLaunch &launch = launches[node_idx];

            NodeBlueprint nb;
            nb.timing = node.timing;
            // Kernel name + library (the kernel name table of §5).
            MEDUSA_ASSIGN_OR_RETURN(nb.kernel_name,
                                    process.cuFuncGetName(node.fn));
            MEDUSA_ASSIGN_OR_RETURN(nb.module_name,
                                    process.cuFuncGetModule(node.fn));
            if (process.dlsym(nb.module_name, nb.kernel_name).isOk()) {
                ++stats.dlsym_visible_nodes;
            } else {
                ++stats.hidden_kernel_nodes;
            }

            nb.params.reserve(node.params.size());
            for (u32 pi = 0; pi < node.params.size(); ++pi) {
                const std::vector<u8> &bytes = node.params[pi];
                ++stats.total_params;
                ParamSpec spec;
                bool is_pointer = false;
                if (bytes.size() == 8) {
                    u64 value = 0;
                    std::memcpy(&value, bytes.data(), 8);
                    if (looksLikeDevicePointer(value)) {
                        const auto candidates =
                            recorder.recordsContaining(value);
                        bool ambiguous = false;
                        const AllocRecord *match =
                            options.trace_based_matching
                                ? matchTraceBased(candidates,
                                                  launch.op_pos,
                                                  &ambiguous)
                                : matchNaive(candidates, launch.op_pos,
                                             &ambiguous);
                        if (match != nullptr) {
                            spec.kind = ParamSpec::kIndirect;
                            spec.alloc_index = match->alloc_index;
                            spec.offset = value - match->addr;
                            is_pointer = true;
                            referenced.insert(match->alloc_index);
                            if (ambiguous) {
                                result.risky_params.push_back(
                                    {batch_size, node_idx, pi});
                            }
                        } else {
                            // A high-prefix constant that matched no
                            // allocation: the decoy/false-positive case.
                            ++stats.decoy_candidates;
                        }
                    }
                }
                if (!is_pointer) {
                    spec.kind = ParamSpec::kConstant;
                    spec.constant_bytes = bytes;
                    ++stats.constant_params;
                } else {
                    ++stats.pointer_params;
                }
                nb.params.push_back(std::move(spec));
            }
            bp.nodes.push_back(std::move(nb));
            ++stats.total_nodes;
        }
        artifact.graphs.push_back(std::move(bp));
    }

    // ---- §4.3 buffer-content classification ----------------------------
    const u64 capture_op = recorder.captureStageOpPos();
    for (const AllocRecord &rec : recorder.allocs()) {
        if (referenced.count(rec.alloc_index) == 0) {
            continue;
        }
        const bool freed = rec.op_pos_free >= 0;
        const bool before_capture = rec.op_pos_alloc < capture_op;
        if (!freed) {
            stats.full_dump_bytes += rec.backing_size;
        }
        if (freed) {
            // Temporary: contents are produced by earlier graph nodes
            // on every replay.
            ++stats.temp_buffers;
            continue;
        }
        if (before_capture) {
            // Model parameters / engine I/O: restored by the weights
            // loader or rewritten by the engine before each replay.
            ++stats.model_param_buffers;
            continue;
        }
        // Permanent buffer: materialize its contents — unless the
        // shape-only capture left them undefined and every replay
        // rewrites them before reading, like a temporary's.
        const simcuda::AllocationRecord *live =
            process.memory().findContaining(rec.addr);
        if (live != nullptr && live->tainted) {
            MEDUSA_ASSIGN_OR_RETURN(
                const bool rewritten,
                rewrittenBeforeRead(rec, graphs, artifact.graphs,
                                    process));
            if (!rewritten) {
                return failedPrecondition(
                    "permanent buffer (allocation " +
                    std::to_string(rec.alloc_index) +
                    ") is read before a graph rewrites it, but the "
                    "shape-only capture left its contents undefined");
            }
            ++stats.rewritten_buffers;
            continue;
        }
        PermanentBuffer pb;
        pb.alloc_index = rec.alloc_index;
        pb.contents.resize(rec.backing_size);
        if (rec.backing_size > 0) {
            MEDUSA_RETURN_IF_ERROR(process.memory().read(
                rec.addr, pb.contents.data(), rec.backing_size));
        }
        if (options.handle_indirect_pointers) {
            // §8 extension: 8-byte-aligned words inside the contents
            // that hold live device addresses are indirect pointers
            // (e.g. a batched-GEMM operand array). Record a rewrite
            // for each so the online phase points them at the
            // replayed buffers instead of stale offline addresses.
            for (u64 off = 0; off + 8 <= pb.contents.size(); off += 8) {
                u64 word = 0;
                std::memcpy(&word, pb.contents.data() + off, 8);
                if (!looksLikeDevicePointer(word)) {
                    continue;
                }
                const auto candidates =
                    recorder.recordsContaining(word);
                // Liveness at end-of-capture: the pointed-to buffer
                // must still exist when the contents were dumped.
                const AllocRecord *live = nullptr;
                for (const AllocRecord *cand : candidates) {
                    if (cand->op_pos_free < 0 &&
                        (live == nullptr ||
                         cand->op_pos_alloc > live->op_pos_alloc)) {
                        live = cand;
                    }
                }
                if (live == nullptr) {
                    continue; // dangling or coincidental: copy as-is
                }
                PointerWordFix fix;
                fix.buffer_alloc_index = rec.alloc_index;
                fix.byte_offset = off;
                fix.target_alloc_index = live->alloc_index;
                fix.target_offset = word - live->addr;
                artifact.pointer_fixes.push_back(fix);
                ++stats.indirect_pointer_words;
            }
        }
        stats.materialized_content_bytes += pb.contents.size();
        ++stats.permanent_buffers;
        artifact.permanent.push_back(std::move(pb));
    }

    // Charge the analysis-stage cost (host-side trace synthesis).
    process.clock().advance(
        units::usToNs(process.cost().analysis_per_node_us *
                      static_cast<f64>(stats.total_nodes)));
    return result;
}

} // namespace medusa::core
