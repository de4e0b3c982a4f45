#include "medusa/replay.h"

#include <algorithm>

namespace medusa::core {

using llm::ModelRuntime;
using simcuda::CudaGraph;

ReplayTable::ReplayTable(std::span<const AllocOp> ops,
                         u64 organic_alloc_count)
    : organic_alloc_count_(organic_alloc_count)
{
    alloc_ops_.reserve(ops.size());
    for (const AllocOp &op : ops) {
        if (op.kind == AllocOp::kAlloc) {
            alloc_ops_.push_back(&op);
        }
    }
}

void
ReplayTable::onAlloc(u64 seq_index, DeviceAddr addr, u64 logical_size,
                     u64 backing_size)
{
    (void)backing_size;
    MEDUSA_CHECK(seq_index == addr_of_.size(),
                 "online allocation sequence out of step");
    addr_of_.push_back(addr);
    if (!mismatch_.empty()) {
        return;
    }
    if (seq_index < organic_alloc_count_) {
        if (seq_index >= alloc_ops_.size() ||
            alloc_ops_[seq_index]->logical_size != logical_size) {
            mismatch_ = "organic allocation " +
                        std::to_string(seq_index) +
                        " diverges from the materialized sequence";
        }
    }
}

StatusOr<DeviceAddr>
ReplayTable::addrOf(u64 alloc_index) const
{
    if (alloc_index >= addr_of_.size()) {
        return internalError("indirect index " +
                             std::to_string(alloc_index) +
                             " beyond replayed sequence");
    }
    return addr_of_[alloc_index];
}

Status
ReplayTable::organicStatus() const
{
    if (!mismatch_.empty()) {
        return validationFailure(mismatch_);
    }
    return Status::ok();
}

Status
replayAllocSequence(std::span<const AllocOp> ops, u64 organic_op_count,
                    ModelRuntime &rt, const ReplayTable &table,
                    RestoreReport &report, FaultInjector *fault)
{
    MEDUSA_FAULT_POINT(fault, FaultPoint::kReplayPrefix,
                       "organic prefix handoff at op " +
                           std::to_string(organic_op_count));
    simcuda::CachingAllocator &alloc = rt.allocator();
    for (u64 pos = organic_op_count; pos < ops.size(); ++pos) {
        const AllocOp &op = ops[pos];
        if (op.kind == AllocOp::kAlloc) {
            MEDUSA_FAULT_POINT(fault, FaultPoint::kReplayAlloc,
                               "replayed op " + std::to_string(pos));
            MEDUSA_ASSIGN_OR_RETURN(
                DeviceAddr addr,
                alloc.allocate(op.logical_size, op.backing_size));
            (void)addr; // the interceptor records it by index
            ++report.replayed_allocs;
            rt.clock().advance(units::usToNs(
                rt.process().cost().restore_replay_alloc_us));
        } else {
            MEDUSA_ASSIGN_OR_RETURN(DeviceAddr addr,
                                    table.addrOf(op.freed_alloc_index));
            MEDUSA_RETURN_IF_ERROR(alloc.free(addr));
            ++report.replayed_frees;
        }
    }
    return Status::ok();
}

Status
rebindEngineBuffers(const std::map<std::string, u64> &tags,
                    u64 free_gpu_memory, const ReplayTable &table,
                    ModelRuntime &rt)
{
    const llm::ModelConfig &m = rt.model();
    auto tagged = [&](const std::string &tag) -> StatusOr<DeviceAddr> {
        auto it = tags.find(tag);
        if (it == tags.end()) {
            return validationFailure("artifact missing buffer tag " +
                                     tag);
        }
        return table.addrOf(it->second);
    };

    llm::ForwardBuffers bufs;
    const llm::FuncDims &f = m.func;
    bufs.max_bs = 256;
    bufs.max_tokens = f.max_batched_tokens;
    bufs.max_blocks_per_seq = (f.max_seq + f.block_size - 1) /
                              f.block_size;
    MEDUSA_ASSIGN_OR_RETURN(bufs.token_ids, tagged("token_ids"));
    MEDUSA_ASSIGN_OR_RETURN(bufs.positions, tagged("positions"));
    MEDUSA_ASSIGN_OR_RETURN(bufs.seq_starts, tagged("seq_starts"));
    MEDUSA_ASSIGN_OR_RETURN(bufs.slot_mapping, tagged("slot_mapping"));
    MEDUSA_ASSIGN_OR_RETURN(bufs.block_tables, tagged("block_tables"));
    MEDUSA_ASSIGN_OR_RETURN(bufs.seq_lens, tagged("seq_lens"));
    MEDUSA_ASSIGN_OR_RETURN(bufs.logits, tagged("logits"));
    MEDUSA_ASSIGN_OR_RETURN(bufs.sampled, tagged("sampled"));

    llm::KvCache kv;
    for (u32 l = 0; l < m.num_layers; ++l) {
        MEDUSA_ASSIGN_OR_RETURN(DeviceAddr k,
                                tagged("kv.k." + std::to_string(l)));
        MEDUSA_ASSIGN_OR_RETURN(DeviceAddr v,
                                tagged("kv.v." + std::to_string(l)));
        kv.k_layers.push_back(k);
        kv.v_layers.push_back(v);
    }
    // Rederive the accounting from the materialized free-memory value —
    // the §6 restoration that replaces the profiling forwarding.
    const u64 budget = static_cast<u64>(
        static_cast<f64>(free_gpu_memory) * 0.9);
    kv.real_num_blocks = budget / m.kvBlockBytes();
    kv.logical_bytes = kv.real_num_blocks * m.kvBlockBytes();
    kv.blocks = llm::BlockManager(f.num_blocks);
    return rt.adoptBuffers(bufs, std::move(kv));
}

StatusOr<std::unordered_map<std::string, KernelAddr>>
buildKernelNameTable(ModelRuntime &rt, FaultInjector *fault)
{
    std::unordered_map<std::string, KernelAddr> name_table;
    MEDUSA_ASSIGN_OR_RETURN(CudaGraph first_layer,
                            rt.captureFirstLayer());
    (void)first_layer; // its purpose is the module loads it forced
    for (const std::string &module :
         rt.process().modules().loadedModules()) {
        MEDUSA_FAULT_POINT(fault, FaultPoint::kKernelEnumeration,
                           "enumerating " + module);
        MEDUSA_ASSIGN_OR_RETURN(
            auto addrs, rt.process().cuModuleEnumerateFunctions(module));
        for (KernelAddr addr : addrs) {
            MEDUSA_ASSIGN_OR_RETURN(std::string name,
                                    rt.process().cuFuncGetName(addr));
            name_table[name] = addr;
        }
    }
    return name_table;
}

namespace {

/**
 * Restore one kernel's address (§5): dlsym where visible, else the
 * enumeration-built name table. Mutates process state (clock, module
 * loads) and the report.
 */
StatusOr<KernelAddr>
resolveKernel(const std::string &kernel_name,
              const std::string &module_name, ModelRuntime &rt,
              const std::unordered_map<std::string, KernelAddr>
                  &name_table,
              const RestoreOptions &options, RestoreReport &report)
{
    if (options.use_dlsym) {
        MEDUSA_FAULT_POINT(options.pipeline.fault, FaultPoint::kKernelDlsym,
                           "dlsym " + kernel_name);
        auto sym = rt.process().dlsym(module_name, kernel_name);
        if (sym.isOk()) {
            auto addr = rt.process().cudaGetFuncBySymbol(*sym);
            if (addr.isOk()) {
                ++report.kernels_via_dlsym;
                return *addr;
            }
        }
    }
    auto it = name_table.find(kernel_name);
    if (it == name_table.end()) {
        return notFound("cannot restore kernel address for " +
                        kernel_name +
                        (options.use_triggering_kernels
                             ? " (not in any loaded module)"
                             : " (hidden; triggering-kernels disabled)"));
    }
    ++report.kernels_via_enumeration;
    return it->second;
}

/**
 * Resolve the image's kernel table to addresses, in table order (once
 * per unique kernel).
 */
StatusOr<std::vector<KernelAddr>>
resolveImageKernels(const MaterializedImage &image, ModelRuntime &rt,
                    const std::unordered_map<std::string, KernelAddr>
                        &name_table,
                    const RestoreOptions &options, RestoreReport &report)
{
    std::vector<KernelAddr> addrs(image.kernel_table.size());
    for (std::size_t k = 0; k < image.kernel_table.size(); ++k) {
        const MaterializedImage::KernelEntry &entry =
            image.kernel_table[k];
        MEDUSA_ASSIGN_OR_RETURN(
            addrs[k], resolveKernel(entry.name, entry.module, rt,
                                    name_table, options, report));
        ++report.kernels_resolved;
    }
    return addrs;
}

/**
 * The patch pass: lay each graph's template slots out as its executable
 * arrays (node function addresses and parameter blobs), write every
 * relocation straight into them, and charge the per-node patch cost.
 * Returns one patched graph per image graph, in image order.
 */
StatusOr<std::vector<simcuda::GpuProcess::PatchedGraphDesc>>
applyImageRelocations(const MaterializedImage &image,
                      const ReplayTable &table,
                      const std::vector<KernelAddr> &kernel_addrs,
                      ModelRuntime &rt, const RestoreOptions &options,
                      RestoreReport &report)
{
    Span span(options.pipeline.trace, "restore.patch_pass", "restore");
    FaultInjector *fault = options.pipeline.fault;
    const std::span<const MaterializedImage::GraphView> views =
        image.graphs;
    std::vector<simcuda::GpuProcess::PatchedGraphDesc> graphs(
        views.size());
    for (std::size_t g = 0; g < views.size(); ++g) {
        const MaterializedImage::GraphView &gv = views[g];
        simcuda::GpuProcess::PatchedGraphDesc &desc = graphs[g];
        const u64 *fn = image.patch_template.data() + gv.fn_slot_begin;
        desc.node_fn.assign(fn, fn + gv.node_count);
        const u64 *bits =
            image.patch_template.data() + gv.param_slot_begin;
        const u8 *len = gv.param_len.data();
        desc.params.resize(gv.param_len.size());
        simcuda::ParamBlob *out = desc.params.data();
        for (std::size_t j = 0; j < gv.param_len.size(); ++j) {
            out[j].bits = bits[j];
            out[j].len = len[j];
        }
        desc.param_begin = gv.param_begin;
        desc.timing = gv.timings;
    }

    // The patched cell of a template slot, through a window over one
    // graph's slots. openView checked that the graphs' slot ranges tile
    // the template in order, and relocations come in slot order, so the
    // window moves about once per graph. It lives in locals, which the
    // cell stores cannot alias.
    u64 fn_begin = 0;
    u64 param_begin = 0;
    u64 end = 0;
    u64 *fn = nullptr;
    simcuda::ParamBlob *params = nullptr;
    auto cell = [&](u64 slot) -> u64 & {
        if (slot - fn_begin >= end - fn_begin) [[unlikely]] {
            const std::size_t g = static_cast<std::size_t>(
                std::upper_bound(views.begin(), views.end(), slot,
                                 [](u64 s, const auto &v) {
                                     return s < v.fn_slot_begin;
                                 }) -
                views.begin() - 1);
            fn_begin = views[g].fn_slot_begin;
            param_begin = views[g].param_slot_begin;
            end = param_begin + views[g].param_len.size();
            fn = graphs[g].node_fn.data();
            params = graphs[g].params.data();
        }
        return slot < param_begin ? fn[slot - fn_begin]
                                  : params[slot - param_begin].bits;
    };

    // openView bounded every alloc index by the image's kAlloc count
    // and every slot by the template; once the table holds the last
    // allocation of the sequence, both sweeps run unchecked.
    if (table.sequenceAllocCount() > 0) {
        MEDUSA_RETURN_IF_ERROR(
            table.addrOf(table.sequenceAllocCount() - 1).status());
    }
    const std::span<const DeviceAddr> addrs = table.addresses();
    MEDUSA_FAULT_POINT(fault, FaultPoint::kImagePatch,
                       "data relocation batch of " +
                           std::to_string(image.data_relocs.size()));
    for (const MaterializedImage::DataReloc &rel : image.data_relocs) {
        cell(rel.slot) = addrs[rel.alloc_index] + rel.addend;
    }
    MEDUSA_FAULT_POINT(fault, FaultPoint::kImagePatch,
                       "kernel relocation batch of " +
                           std::to_string(image.kernel_relocs.size()));
    if (kernel_addrs.size() != image.kernel_table.size()) {
        return internalError("kernel address table size mismatch");
    }
    for (const MaterializedImage::KernelReloc &rel :
         image.kernel_relocs) {
        cell(rel.slot) = kernel_addrs[rel.kernel_index];
    }
    const u64 applied =
        image.data_relocs.size() + image.kernel_relocs.size();
    report.relocations_applied += applied;
    rt.clock().advance(
        units::usToNs(rt.process().cost().restore_per_node_us *
                      static_cast<f64>(image.total_nodes)));
    span.arg("relocations", std::to_string(applied));
    return graphs;
}

/**
 * Instantiate every graph from its patched arrays, which the
 * executables adopt; they copy what they keep of the image's columns.
 */
Status
instantiatePatched(const MaterializedImage &image,
                   std::vector<simcuda::GpuProcess::PatchedGraphDesc> patched,
                   ModelRuntime &rt, const RestoreOptions &options,
                   RestoreReport &report)
{
    TraceRecorder *rec = options.pipeline.trace;
    const std::size_t n = image.graphs.size();

    // Pairing each patched graph with its batch size moves the arrays;
    // the whole "build" is O(graphs), not O(nodes), which is the point
    // of the format.
    Span patch_span(rec, "restore.graphs.patch", "restore");
    patch_span.arg("graphs", std::to_string(n));
    std::vector<std::pair<u32, simcuda::GpuProcess::PatchedGraphDesc>>
        ordered;
    ordered.reserve(n);
    for (std::size_t g = 0; g < n; ++g) {
        ordered.emplace_back(image.graphs[g].batch_size,
                             std::move(patched[g]));
    }
    patch_span.end();

    Span inst_span(rec, "restore.graphs.instantiate", "restore");
    MEDUSA_RETURN_IF_ERROR(rt.instantiatePatchedGraphs(
        std::move(ordered), options.pipeline.fault));
    report.graphs_patched += n;
    report.graphs_restored += n;
    report.nodes_restored += image.total_nodes;
    return Status::ok();
}

} // namespace

Status
restoreContents(const MaterializedImage &image, ModelRuntime &rt,
                const ReplayTable &table, RestoreReport &report)
{
    for (const MaterializedImage::PermanentView &pb : image.permanent) {
        MEDUSA_ASSIGN_OR_RETURN(DeviceAddr addr,
                                table.addrOf(pb.alloc_index));
        if (!pb.contents.empty()) {
            MEDUSA_RETURN_IF_ERROR(rt.process().memcpyH2D(
                addr, pb.contents.data(), pb.contents.size(),
                pb.contents.size()));
        }
        report.restored_content_bytes += pb.contents.size();
    }
    // §8 extension: rewrite indirect pointer words inside restored
    // buffers to the replayed addresses of their targets.
    for (const PointerWordFix &fix : image.pointer_fixes) {
        MEDUSA_ASSIGN_OR_RETURN(DeviceAddr buffer,
                                table.addrOf(fix.buffer_alloc_index));
        MEDUSA_ASSIGN_OR_RETURN(DeviceAddr target,
                                table.addrOf(fix.target_alloc_index));
        const u64 word = target + fix.target_offset;
        MEDUSA_RETURN_IF_ERROR(rt.process().memcpyH2D(
            buffer + fix.byte_offset, &word, sizeof(word),
            sizeof(word)));
        ++report.indirect_pointers_fixed;
    }
    return Status::ok();
}

Status
patchGraphs(const MaterializedImage &image, const ReplayTable &table,
            const std::unordered_map<std::string, KernelAddr> &name_table,
            ModelRuntime &rt, const RestoreOptions &options,
            RestoreReport &report)
{
    std::vector<KernelAddr> kernel_addrs;
    {
        Span s(options.pipeline.trace, "restore.graphs.resolve", "restore");
        MEDUSA_ASSIGN_OR_RETURN(
            kernel_addrs,
            resolveImageKernels(image, rt, name_table, options, report));
    }
    MEDUSA_ASSIGN_OR_RETURN(
        auto patched, applyImageRelocations(image, table, kernel_addrs, rt,
                                            options, report));
    return instantiatePatched(image, std::move(patched), rt, options,
                              report);
}

} // namespace medusa::core
