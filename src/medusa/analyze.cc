#include "medusa/analyze.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "common/metrics.h"

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
                u64 launch_op_pos)
{
    const AllocRecord *live_match = nullptr;
    const AllocRecord *latest_before = nullptr;
    for (const AllocRecord *rec : candidates) {
        if (rec->op_pos_alloc >= launch_op_pos) {
            continue; // allocated after the launch
        }
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
    return live_match != nullptr ? live_match : latest_before;
}

/** Naive match: earliest containing allocation (the Fig. 6 hazard). */
const AllocRecord *
matchNaive(const std::vector<const AllocRecord *> &candidates,
           u64 launch_op_pos)
{
    const AllocRecord *first = nullptr;
    for (const AllocRecord *rec : candidates) {
        if (rec->op_pos_alloc >= launch_op_pos) {
            continue;
        }
        if (first == nullptr ||
            rec->op_pos_alloc < first->op_pos_alloc) {
            first = rec;
        }
    }
    return first;
}

/**
 * Whether an indirect-access launch may reach @p target through the
 * operand words stored in its parameter buffers (as read off the
 * capture process). A tainted parameter buffer may hold any word.
 */
bool
operandWordsReach(const AllocRecord &target, simcuda::ParamView params,
                  const simcuda::KernelDef &def,
                  const simcuda::DeviceMemoryManager &memory)
{
    for (std::size_t p = 0; p < params.size(); ++p) {
        if (def.params[p] != simcuda::ParamKind::kPointer) {
            continue;
        }
        const simcuda::AllocationRecord *buf =
            memory.findContaining(params.at(p).bits);
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
 * buffer its operand words reach, and never as a plain write. Walks
 * each graph's param slots in @p image with its data relocations,
 * which are in slot order.
 */
StatusOr<bool>
rewrittenBeforeRead(const AllocRecord &target,
                    const std::vector<std::pair<u32, CudaGraph>> &graphs,
                    const ImageBuilder &image, simcuda::GpuProcess &process)
{
    const auto &registry = simcuda::KernelRegistry::instance();
    const auto &relocs = image.data_relocs;
    std::size_t graph_pb = 0; // the graph's first param_begin entry
    for (std::size_t g = 0; g < graphs.size(); ++g) {
        const CudaGraph &graph = graphs[g].second;
        const ImageBuilder::GraphMeta &meta = image.graphs[g];
        auto rel = std::lower_bound(
            relocs.begin(), relocs.end(), meta.param_slot_begin,
            [](const MaterializedImage::DataReloc &r, u64 slot) {
                return r.slot < slot;
            });
        bool touched = false;
        for (u32 n = 0; n < meta.node_count && !touched; ++n) {
            MEDUSA_ASSIGN_OR_RETURN(
                simcuda::KernelId kernel,
                process.modules().kernelAt(graph.node(n).fn));
            const simcuda::KernelDef &def = registry.def(kernel);
            if (def.indirect_access &&
                operandWordsReach(target, graph.params(n), def,
                                  process.memory())) {
                return false;
            }
            const u64 first_slot =
                meta.param_slot_begin + image.param_begin[graph_pb + n];
            const u64 end_slot =
                meta.param_slot_begin + image.param_begin[graph_pb + n + 1];
            for (; rel != relocs.end() && rel->slot < end_slot; ++rel) {
                if (rel->alloc_index != target.alloc_index) {
                    continue;
                }
                const std::size_t p = rel->slot - first_slot;
                if (rel->addend != 0 || def.access.empty() ||
                    def.access[p] != simcuda::ParamAccess::kWrite) {
                    return false;
                }
                touched = true;
            }
        }
        graph_pb += meta.node_count + 1;
    }
    return true;
}

} // namespace

void
AnalysisStats::publishTo(MetricsRegistry &registry) const
{
    registry.counter("analysis.total_nodes").add(total_nodes);
    registry.counter("analysis.total_params").add(total_params);
    registry.counter("analysis.pointer_params").add(pointer_params);
    registry.counter("analysis.constant_params").add(constant_params);
    registry.counter("analysis.decoy_candidates").add(decoy_candidates);
    registry.counter("analysis.dlsym_visible_nodes")
        .add(dlsym_visible_nodes);
    registry.counter("analysis.hidden_kernel_nodes")
        .add(hidden_kernel_nodes);
    registry.counter("analysis.model_param_buffers")
        .add(model_param_buffers);
    registry.counter("analysis.temp_buffers").add(temp_buffers);
    registry.counter("analysis.permanent_buffers").add(permanent_buffers);
    registry.counter("analysis.rewritten_buffers").add(rewritten_buffers);
    registry.counter("analysis.indirect_pointer_words")
        .add(indirect_pointer_words);
    registry.counter("analysis.materialized_content_bytes")
        .add(materialized_content_bytes);
    registry.counter("analysis.full_dump_bytes").add(full_dump_bytes);
}

StatusOr<AnalysisResult>
analyze(const Recorder &recorder, simcuda::GpuProcess &process,
        const std::string &model_name, u64 model_seed,
        const std::vector<std::pair<u32, CudaGraph>> &graphs,
        u64 free_gpu_memory, const AnalyzeOptions &options)
{
    AnalysisResult result;
    ImageBuilder &image = result.image;
    AnalysisStats &stats = result.stats;

    image.model_name = model_name;
    image.model_seed = model_seed;
    image.free_gpu_memory = free_gpu_memory;
    image.ops = recorder.ops();
    image.organic_op_count = recorder.organicOpCount();
    image.organic_alloc_count = recorder.organicAllocCount();
    image.tags = recorder.tags();

    // Only a pointer-shaped param can become a data relocation; the
    // rest (most of them) are constants.
    auto pointer_shaped = [](const simcuda::ParamBlob &blob) {
        return blob.len == 8 && looksLikeDevicePointer(blob.bits);
    };
    std::size_t node_total = 0;
    std::size_t edge_total = 0;
    std::size_t param_total = 0;
    std::size_t pointer_total = 0;
    for (const auto &[batch_size, graph] : graphs) {
        node_total += graph.nodeCount();
        edge_total += graph.edges().size();
        param_total += graph.paramBlobs().size();
        pointer_total += static_cast<std::size_t>(
            std::count_if(graph.paramBlobs().begin(),
                          graph.paramBlobs().end(), pointer_shaped));
    }
    image.reserve(graphs.size(), node_total, edge_total, param_total,
                  pointer_total);

    // The kernel name table (§5), keyed by kernel address in
    // first-occurrence order. Only a first occurrence asks the process
    // for the name, module and dlsym visibility; every later node of the
    // same kernel is charged what those lookups cost.
    struct KernelRow
    {
        u64 index = 0;
        bool visible = false;
        SimTimeNs lookup_ns = 0;
    };
    std::unordered_map<KernelAddr, KernelRow> kernels;
    /** Allocation indexes referenced by at least one node pointer. */
    std::vector<bool> referenced(recorder.allocs().size());
    std::vector<const AllocRecord *> candidates;

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
        MEDUSA_RETURN_IF_ERROR(image.beginGraph(
            batch_size, static_cast<u32>(graph.nodeCount()), graph.edges()));

        for (u32 node_idx = 0; node_idx < graph.nodeCount(); ++node_idx) {
            const simcuda::GraphNode &node =
                graph.node(static_cast<simcuda::NodeId>(node_idx));
            const CapturedLaunch &launch = launches[node_idx];

            auto [row, inserted] = kernels.try_emplace(node.fn);
            if (inserted) {
                const SimTimeNs before = process.clock().now();
                MEDUSA_ASSIGN_OR_RETURN(std::string name,
                                        process.cuFuncGetName(node.fn));
                MEDUSA_ASSIGN_OR_RETURN(std::string module,
                                        process.cuFuncGetModule(node.fn));
                row->second.visible = process.dlsym(module, name).isOk();
                row->second.lookup_ns = process.clock().now() - before;
                row->second.index =
                    image.addKernel(std::move(name), std::move(module));
            } else {
                process.clock().advance(row->second.lookup_ns);
            }
            if (row->second.visible) {
                ++stats.dlsym_visible_nodes;
            } else {
                ++stats.hidden_kernel_nodes;
            }
            image.addNode(row->second.index, node.timing);

            const simcuda::ParamView params = graph.params(node_idx);
            for (std::size_t p = 0; p < params.size(); ++p) {
                const simcuda::ParamBlob &blob = params.at(p);
                const AllocRecord *match = nullptr;
                const u64 value = blob.bits;
                if (pointer_shaped(blob)) {
                    recorder.recordsContaining(value, candidates);
                    match = options.trace_based_matching
                                ? matchTraceBased(candidates, launch.op_pos)
                                : matchNaive(candidates, launch.op_pos);
                    if (match == nullptr) {
                        // A high-prefix constant that matched no
                        // allocation: the decoy/false-positive case.
                        ++stats.decoy_candidates;
                    }
                }
                if (match != nullptr) {
                    image.addPointer(match->alloc_index, value - match->addr);
                    referenced[match->alloc_index] = true;
                    ++stats.pointer_params;
                } else {
                    image.addConstant(std::span<const u8>(
                        reinterpret_cast<const u8 *>(&blob.bits), blob.len));
                    ++stats.constant_params;
                }
            }
            stats.total_params += params.size();
            ++stats.total_nodes;
        }
    }

    // ---- §4.3 buffer-content classification ----------------------------
    const u64 capture_op = recorder.captureStageOpPos();
    for (const AllocRecord &rec : recorder.allocs()) {
        if (!referenced[rec.alloc_index]) {
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
                rewrittenBeforeRead(rec, graphs, image, process));
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
        const std::span<u8> contents =
            image.addPermanent(rec.alloc_index, rec.backing_size);
        if (rec.backing_size > 0) {
            MEDUSA_RETURN_IF_ERROR(process.memory().read(
                rec.addr, contents.data(), rec.backing_size));
        }
        if (options.handle_indirect_pointers) {
            // §8 extension: 8-byte-aligned words inside the contents
            // that hold live device addresses are indirect pointers
            // (e.g. a batched-GEMM operand array). Record a rewrite
            // for each so the online phase points them at the
            // replayed buffers instead of stale offline addresses.
            for (u64 off = 0; off + 8 <= contents.size(); off += 8) {
                u64 word = 0;
                std::memcpy(&word, contents.data() + off, 8);
                if (!looksLikeDevicePointer(word)) {
                    continue;
                }
                recorder.recordsContaining(word, candidates);
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
                image.pointer_fixes.push_back(fix);
                ++stats.indirect_pointer_words;
            }
        }
        stats.materialized_content_bytes += contents.size();
        ++stats.permanent_buffers;
    }

    // Charge the analysis-stage cost (host-side trace synthesis).
    process.clock().advance(
        units::usToNs(process.cost().analysis_per_node_us *
                      static_cast<f64>(stats.total_nodes)));
    return result;
}

} // namespace medusa::core
