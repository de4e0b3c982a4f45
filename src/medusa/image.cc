#include "medusa/image.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>

#include "common/crc32.h"

namespace medusa::core {

namespace {

static_assert(sizeof(MaterializedImage::DataReloc) == 24 &&
                  std::is_trivially_copyable_v<MaterializedImage::DataReloc>,
              "DataReloc must be a packed POD (it is viewed in place)");
static_assert(sizeof(MaterializedImage::KernelReloc) == 16 &&
                  std::is_trivially_copyable_v<
                      MaterializedImage::KernelReloc>,
              "KernelReloc must be a packed POD (it is viewed in place)");
static_assert(sizeof(simcuda::GraphEdge) == 8 &&
                  std::is_trivially_copyable_v<simcuda::GraphEdge>,
              "GraphEdge must be a packed POD (it is viewed in place)");
static_assert(sizeof(TimingInfo) == 16 &&
                  std::is_trivially_copyable_v<TimingInfo>,
              "TimingInfo must be a packed POD (it is viewed in place)");

/** Pad the payload writer so the next array starts 8-byte aligned. */
void
alignTo8(BinaryWriter &w)
{
    while (w.size() % 8 != 0) {
        w.writeU8(0);
    }
}

/** Skip the padding alignTo8 wrote. */
Status
skipAlign8(BinaryReader &r)
{
    const std::size_t pad = (8 - r.position() % 8) % 8;
    return r.skipBytes(pad);
}

/** Append a POD array as raw bytes, 8-aligned. */
template <typename T>
void
writePodArray(BinaryWriter &w, const std::vector<T> &items)
{
    alignTo8(w);
    w.writeBytesRaw(items.data(), items.size() * sizeof(T));
}

/** View @p count packed PODs in place at the (aligned) cursor. */
template <typename T>
StatusOr<std::span<const T>>
viewPodArray(BinaryReader &r, u64 count)
{
    MEDUSA_RETURN_IF_ERROR(skipAlign8(r));
    if (count > r.remaining() / sizeof(T)) {
        return internalError("image array count exceeds data");
    }
    MEDUSA_ASSIGN_OR_RETURN(
        auto raw, r.viewBytes(static_cast<std::size_t>(count) * sizeof(T)));
    return std::span<const T>(reinterpret_cast<const T *>(raw.data()),
                              static_cast<std::size_t>(count));
}

void
writeAllocOp(BinaryWriter &w, const AllocOp &op)
{
    w.writeU8(static_cast<u8>(op.kind));
    w.writeU64(op.logical_size);
    w.writeU64(op.backing_size);
    w.writeU64(op.freed_alloc_index);
}

StatusOr<AllocOp>
readAllocOp(BinaryReader &r)
{
    AllocOp op;
    MEDUSA_ASSIGN_OR_RETURN(u8 kind, r.readU8());
    if (kind > AllocOp::kFree) {
        return internalError("bad AllocOp kind");
    }
    op.kind = static_cast<AllocOp::Kind>(kind);
    MEDUSA_ASSIGN_OR_RETURN(op.logical_size, r.readU64());
    MEDUSA_ASSIGN_OR_RETURN(op.backing_size, r.readU64());
    MEDUSA_ASSIGN_OR_RETURN(op.freed_alloc_index, r.readU64());
    return op;
}

/** Per-graph wire metadata; the big columns live in the POD arrays. */
struct GraphMeta
{
    u32 batch_size = 0;
    u32 node_count = 0;
    u32 edge_count = 0;
    u32 param_count = 0;
    u64 fn_slot_begin = 0;
    u64 param_slot_begin = 0;
};

} // namespace

StatusOr<std::vector<u8>>
buildImageBytes(const Artifact &artifact,
                const std::vector<std::pair<i32, i32>> &tokenizer_merges)
{
    // ---- flatten the blueprints into SoA columns + patch template ----
    std::vector<MaterializedImage::KernelEntry> kernel_table;
    std::map<std::pair<std::string, std::string>, u64> kernel_index;
    std::vector<GraphMeta> graph_meta;
    std::vector<u32> param_begin;
    std::vector<u32> order;
    std::vector<simcuda::GraphEdge> edges;
    std::vector<TimingInfo> timings;
    std::vector<u8> param_len;
    std::vector<u64> slots;
    std::vector<MaterializedImage::DataReloc> data_relocs;
    std::vector<MaterializedImage::KernelReloc> kernel_relocs;
    u64 total_nodes = 0;

    for (std::size_t gi = 0; gi < artifact.graphs.size(); ++gi) {
        const GraphBlueprint &g = artifact.graphs[gi];
        const std::size_t n = g.nodes.size();
        total_nodes += n;
        GraphMeta meta;
        meta.batch_size = g.batch_size;
        meta.node_count = static_cast<u32>(n);
        meta.edge_count = static_cast<u32>(g.edges.size());

        // Kernel slots first, then param slots — one contiguous range
        // per graph so the patched template carves directly into a
        // PatchedGraphDesc.
        meta.fn_slot_begin = slots.size();
        for (std::size_t ni = 0; ni < n; ++ni) {
            const NodeBlueprint &node = g.nodes[ni];
            const std::pair<std::string, std::string> key{
                node.kernel_name, node.module_name};
            auto [it, inserted] =
                kernel_index.try_emplace(key, kernel_table.size());
            if (inserted) {
                kernel_table.push_back({node.kernel_name,
                                        node.module_name});
            }
            kernel_relocs.push_back({slots.size(), it->second});
            slots.push_back(0);
        }

        meta.param_slot_begin = slots.size();
        u32 params_in_graph = 0;
        param_begin.push_back(0);
        for (const NodeBlueprint &node : g.nodes) {
            for (const ParamSpec &p : node.params) {
                if (p.kind == ParamSpec::kConstant) {
                    if (p.constant_bytes.size() > sizeof(u64)) {
                        return invalidArgument(
                            "constant param wider than 8 bytes in graph "
                            "bs=" +
                            std::to_string(g.batch_size));
                    }
                    u64 bits = 0;
                    std::memcpy(&bits, p.constant_bytes.data(),
                                p.constant_bytes.size());
                    slots.push_back(bits);
                    param_len.push_back(
                        static_cast<u8>(p.constant_bytes.size()));
                } else {
                    data_relocs.push_back(
                        {slots.size(), p.alloc_index, p.offset});
                    slots.push_back(0);
                    param_len.push_back(sizeof(u64));
                }
                ++params_in_graph;
            }
            param_begin.push_back(params_in_graph);
        }
        meta.param_count = params_in_graph;

        // Validate + precompute the execution order offline, so the
        // online phase never walks the graph.
        std::vector<simcuda::GraphEdge> graph_edges;
        graph_edges.reserve(g.edges.size());
        for (const auto &[src, dst] : g.edges) {
            if (dst >= n || src >= dst) {
                return internalError("corrupt edge in artifact");
            }
            graph_edges.push_back({src, dst});
        }
        auto topo = simcuda::topoOrderOf(n, graph_edges);
        if (!topo.isOk()) {
            return topo.status();
        }
        order.insert(order.end(), topo.value().begin(),
                     topo.value().end());
        edges.insert(edges.end(), graph_edges.begin(), graph_edges.end());
        for (const NodeBlueprint &node : g.nodes) {
            timings.push_back(node.timing);
        }
        graph_meta.push_back(meta);
    }

    u64 contents_total = 0;
    for (const PermanentBuffer &p : artifact.permanent) {
        contents_total += p.contents.size();
    }

    // ---- serialize: decoded metadata first, POD columns after --------
    BinaryWriter w;
    w.writeString(artifact.model_name);
    w.writeU64(artifact.model_seed);
    w.writeU64(artifact.free_gpu_memory);
    w.writeU64(artifact.organic_op_count);
    w.writeU64(artifact.organic_alloc_count);
    w.writeU64(total_nodes);
    w.writeVector(artifact.ops, writeAllocOp);
    w.writeU64(artifact.tags.size());
    for (const auto &[tag, index] : artifact.tags) {
        w.writeString(tag);
        w.writeU64(index);
    }
    w.writeU64(kernel_table.size());
    for (const MaterializedImage::KernelEntry &e : kernel_table) {
        w.writeString(e.name);
        w.writeString(e.module);
    }
    w.writeU64(tokenizer_merges.size());
    for (const auto &[left, right] : tokenizer_merges) {
        w.writeU32(static_cast<u32>(left));
        w.writeU32(static_cast<u32>(right));
    }
    w.writeU64(artifact.permanent.size());
    for (const PermanentBuffer &p : artifact.permanent) {
        w.writeU64(p.alloc_index);
        w.writeU64(p.contents.size());
    }
    w.writeU64(artifact.pointer_fixes.size());
    w.writeU64(graph_meta.size());
    for (const GraphMeta &m : graph_meta) {
        w.writeU32(m.batch_size);
        w.writeU32(m.node_count);
        w.writeU32(m.edge_count);
        w.writeU32(m.param_count);
        w.writeU64(m.fn_slot_begin);
        w.writeU64(m.param_slot_begin);
    }
    w.writeU64(slots.size());
    w.writeU64(data_relocs.size());
    w.writeU64(kernel_relocs.size());
    w.writeU64(contents_total);

    writePodArray(w, param_begin);
    writePodArray(w, order);
    writePodArray(w, edges);
    writePodArray(w, timings);
    writePodArray(w, param_len);
    writePodArray(w, slots);
    writePodArray(w, data_relocs);
    writePodArray(w, kernel_relocs);
    {
        std::vector<PointerWordFix> fixes = artifact.pointer_fixes;
        writePodArray(w, fixes);
    }
    alignTo8(w);
    for (const PermanentBuffer &p : artifact.permanent) {
        w.writeBytesRaw(p.contents.data(), p.contents.size());
    }

    const std::vector<u8> &payload = w.bytes();
    BinaryWriter header;
    header.writeU32(MaterializedImage::kMagic);
    header.writeU32(MaterializedImage::kVersion);
    header.writeU64(payload.size());
    header.writeU32(crc32(payload.data(), payload.size()));
    header.writeU32(0); // pad: keeps the payload 8-byte aligned
    MEDUSA_CHECK(header.size() == MaterializedImage::kHeaderBytes,
                 "image header drifted from kHeaderBytes");

    std::vector<u8> out;
    out.reserve(MaterializedImage::kHeaderBytes + payload.size());
    out.insert(out.end(), header.bytes().begin(), header.bytes().end());
    out.insert(out.end(), payload.begin(), payload.end());

    return out;
}

StatusOr<MaterializedImage>
MaterializedImage::openView(std::span<const u8> bytes,
                            const ImageReadOptions &options)
{
    Span span(options.trace, "image.open", "image");
    span.arg("bytes", std::to_string(bytes.size()));
    MEDUSA_FAULT_POINT(options.fault, FaultPoint::kImageOpen,
                       "open of " + std::to_string(bytes.size()) +
                           " bytes");
    if (reinterpret_cast<std::uintptr_t>(bytes.data()) % 8 != 0) {
        return invalidArgument("image buffer must be 8-byte aligned");
    }
    BinaryReader hr(bytes);
    MEDUSA_ASSIGN_OR_RETURN(u32 magic, hr.readU32());
    if (magic != kMagic) {
        return internalError("image magic mismatch");
    }
    MEDUSA_ASSIGN_OR_RETURN(u32 version, hr.readU32());
    if (version != kVersion) {
        return internalError("image version mismatch");
    }
    MEDUSA_ASSIGN_OR_RETURN(u64 payload_size, hr.readU64());
    MEDUSA_ASSIGN_OR_RETURN(u32 crc, hr.readU32());
    MEDUSA_RETURN_IF_ERROR(hr.skipBytes(4)); // pad
    if (payload_size != bytes.size() - kHeaderBytes) {
        return internalError("image truncated");
    }
    const std::span<const u8> payload = bytes.subspan(kHeaderBytes);
    if (options.verify_crc &&
        crc32(payload.data(), payload.size()) != crc) {
        return internalError("image failed its CRC32 check");
    }

    MaterializedImage img;
    img.serialized_size = bytes.size();
    BinaryReader r(payload);
    MEDUSA_ASSIGN_OR_RETURN(img.model_name, r.readString());
    MEDUSA_ASSIGN_OR_RETURN(img.model_seed, r.readU64());
    MEDUSA_ASSIGN_OR_RETURN(img.free_gpu_memory, r.readU64());
    MEDUSA_ASSIGN_OR_RETURN(img.organic_op_count, r.readU64());
    MEDUSA_ASSIGN_OR_RETURN(img.organic_alloc_count, r.readU64());
    MEDUSA_ASSIGN_OR_RETURN(img.total_nodes, r.readU64());
    {
        auto ops = r.readVector<AllocOp>(readAllocOp);
        if (!ops.isOk()) {
            return ops.status();
        }
        img.ops = std::move(ops).value();
    }
    {
        MEDUSA_ASSIGN_OR_RETURN(u64 tag_count, r.readU64());
        for (u64 i = 0; i < tag_count; ++i) {
            MEDUSA_ASSIGN_OR_RETURN(std::string tag, r.readString());
            MEDUSA_ASSIGN_OR_RETURN(u64 index, r.readU64());
            img.tags[tag] = index;
        }
    }
    {
        MEDUSA_ASSIGN_OR_RETURN(u64 kernel_count, r.readU64());
        if (kernel_count > r.remaining()) {
            return internalError("image kernel-table count exceeds data");
        }
        img.kernel_table.reserve(static_cast<std::size_t>(kernel_count));
        for (u64 i = 0; i < kernel_count; ++i) {
            KernelEntry e;
            MEDUSA_ASSIGN_OR_RETURN(e.name, r.readString());
            MEDUSA_ASSIGN_OR_RETURN(e.module, r.readString());
            img.kernel_table.push_back(std::move(e));
        }
    }
    {
        MEDUSA_ASSIGN_OR_RETURN(u64 merge_count, r.readU64());
        if (merge_count > r.remaining() / 8) {
            return internalError("image merge count exceeds data");
        }
        img.tokenizer_merges.reserve(
            static_cast<std::size_t>(merge_count));
        for (u64 i = 0; i < merge_count; ++i) {
            MEDUSA_ASSIGN_OR_RETURN(u32 left, r.readU32());
            MEDUSA_ASSIGN_OR_RETURN(u32 right, r.readU32());
            img.tokenizer_merges.emplace_back(static_cast<i32>(left),
                                              static_cast<i32>(right));
        }
    }
    std::vector<u64> permanent_sizes;
    {
        MEDUSA_ASSIGN_OR_RETURN(u64 perm_count, r.readU64());
        if (perm_count > r.remaining() / 16) {
            return internalError("image permanent count exceeds data");
        }
        img.permanent.resize(static_cast<std::size_t>(perm_count));
        permanent_sizes.resize(static_cast<std::size_t>(perm_count));
        for (u64 i = 0; i < perm_count; ++i) {
            MEDUSA_ASSIGN_OR_RETURN(img.permanent[i].alloc_index,
                                    r.readU64());
            MEDUSA_ASSIGN_OR_RETURN(permanent_sizes[i], r.readU64());
        }
    }
    MEDUSA_ASSIGN_OR_RETURN(u64 fix_count, r.readU64());
    std::vector<GraphMeta> graph_meta;
    u64 sum_pb = 0;
    u64 sum_nodes = 0;
    u64 sum_edges = 0;
    u64 sum_params = 0;
    {
        MEDUSA_ASSIGN_OR_RETURN(u64 graph_count, r.readU64());
        if (graph_count > r.remaining() / 32) {
            return internalError("image graph count exceeds data");
        }
        graph_meta.resize(static_cast<std::size_t>(graph_count));
        for (GraphMeta &m : graph_meta) {
            MEDUSA_ASSIGN_OR_RETURN(m.batch_size, r.readU32());
            MEDUSA_ASSIGN_OR_RETURN(m.node_count, r.readU32());
            MEDUSA_ASSIGN_OR_RETURN(m.edge_count, r.readU32());
            MEDUSA_ASSIGN_OR_RETURN(m.param_count, r.readU32());
            MEDUSA_ASSIGN_OR_RETURN(m.fn_slot_begin, r.readU64());
            MEDUSA_ASSIGN_OR_RETURN(m.param_slot_begin, r.readU64());
            sum_pb += m.node_count + 1;
            sum_nodes += m.node_count;
            sum_edges += m.edge_count;
            sum_params += m.param_count;
        }
    }
    MEDUSA_ASSIGN_OR_RETURN(u64 slot_count, r.readU64());
    MEDUSA_ASSIGN_OR_RETURN(u64 data_reloc_count, r.readU64());
    MEDUSA_ASSIGN_OR_RETURN(u64 kernel_reloc_count, r.readU64());
    MEDUSA_ASSIGN_OR_RETURN(u64 contents_total, r.readU64());
    if (sum_nodes != img.total_nodes) {
        return internalError("image node totals disagree");
    }

    MEDUSA_ASSIGN_OR_RETURN(auto all_param_begin,
                            viewPodArray<u32>(r, sum_pb));
    MEDUSA_ASSIGN_OR_RETURN(auto all_order,
                            viewPodArray<u32>(r, sum_nodes));
    MEDUSA_ASSIGN_OR_RETURN(auto all_edges,
                            viewPodArray<simcuda::GraphEdge>(r, sum_edges));
    MEDUSA_ASSIGN_OR_RETURN(auto all_timings,
                            viewPodArray<TimingInfo>(r, sum_nodes));
    MEDUSA_ASSIGN_OR_RETURN(auto all_param_len,
                            viewPodArray<u8>(r, sum_params));
    MEDUSA_ASSIGN_OR_RETURN(img.patch_template,
                            viewPodArray<u64>(r, slot_count));
    MEDUSA_ASSIGN_OR_RETURN(img.data_relocs,
                            viewPodArray<DataReloc>(r, data_reloc_count));
    MEDUSA_ASSIGN_OR_RETURN(
        img.kernel_relocs,
        viewPodArray<KernelReloc>(r, kernel_reloc_count));
    MEDUSA_ASSIGN_OR_RETURN(img.pointer_fixes,
                            viewPodArray<PointerWordFix>(r, fix_count));
    {
        MEDUSA_RETURN_IF_ERROR(skipAlign8(r));
        MEDUSA_ASSIGN_OR_RETURN(
            auto blob, r.viewBytes(static_cast<std::size_t>(contents_total)));
        std::size_t off = 0;
        for (std::size_t i = 0; i < img.permanent.size(); ++i) {
            const auto sz =
                static_cast<std::size_t>(permanent_sizes[i]);
            if (sz > blob.size() - off) {
                return internalError(
                    "image permanent contents exceed their blob");
            }
            img.permanent[i].contents = blob.subspan(off, sz);
            off += sz;
        }
    }

    // ---- carve per-graph views + validate the slot layout ------------
    u64 pb_off = 0;
    u64 node_off = 0;
    u64 edge_off = 0;
    u64 param_off = 0;
    u64 slot_cursor = 0;
    img.graphs.reserve(graph_meta.size());
    for (const GraphMeta &m : graph_meta) {
        if (m.fn_slot_begin != slot_cursor ||
            m.param_slot_begin != slot_cursor + m.node_count) {
            return internalError("image slot layout is inconsistent");
        }
        slot_cursor = m.param_slot_begin + m.param_count;
        GraphView gv;
        gv.batch_size = m.batch_size;
        gv.node_count = m.node_count;
        gv.fn_slot_begin = m.fn_slot_begin;
        gv.param_slot_begin = m.param_slot_begin;
        gv.param_begin = all_param_begin.subspan(
            static_cast<std::size_t>(pb_off), m.node_count + 1u);
        gv.order = all_order.subspan(static_cast<std::size_t>(node_off),
                                     m.node_count);
        gv.timings = all_timings.subspan(
            static_cast<std::size_t>(node_off), m.node_count);
        gv.edges = all_edges.subspan(static_cast<std::size_t>(edge_off),
                                     m.edge_count);
        gv.param_len = all_param_len.subspan(
            static_cast<std::size_t>(param_off), m.param_count);
        pb_off += m.node_count + 1u;
        node_off += m.node_count;
        edge_off += m.edge_count;
        param_off += m.param_count;
        img.graphs.push_back(gv);
    }
    if (slot_cursor != slot_count) {
        return internalError("image slot layout is inconsistent");
    }
    img.payload_decoded_bytes = r.position();

    // Relocations are applied with unchecked indexing on the hot path;
    // reject out-of-bounds records once, here. medusa-lint disables
    // this to diagnose a corrupt table record-by-record instead.
    if (options.validate_relocations) {
        u64 alloc_count = 0;
        for (const AllocOp &op : img.ops) {
            if (op.kind == AllocOp::kAlloc) {
                ++alloc_count;
            }
        }
        for (const DataReloc &rel : img.data_relocs) {
            if (rel.slot >= slot_count || rel.alloc_index >= alloc_count) {
                return internalError("image data relocation out of bounds");
            }
        }
        for (const KernelReloc &rel : img.kernel_relocs) {
            if (rel.slot >= slot_count ||
                rel.kernel_index >= img.kernel_table.size()) {
                return internalError(
                    "image kernel relocation out of bounds");
            }
        }
    }
    return img;
}

StatusOr<MaterializedImage>
MaterializedImage::open(std::vector<u8> bytes,
                        const ImageReadOptions &options)
{
    // Decode as a view first, then adopt the buffer: the vector's heap
    // storage (and thus every span) survives the move below.
    std::vector<u8> adopted = std::move(bytes);
    auto img = openView(std::span<const u8>(adopted), options);
    if (!img.isOk()) {
        return img.status();
    }
    MaterializedImage out = std::move(img).value();
    out.owned_ = std::move(adopted);
    return out;
}

StatusOr<MaterializedImage>
MaterializedImage::openFile(const std::string &path,
                            const ImageReadOptions &options)
{
    if (options.use_mmap) {
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd >= 0) {
            struct stat st = {};
            if (::fstat(fd, &st) == 0 && st.st_size > 0) {
                const auto size = static_cast<std::size_t>(st.st_size);
                void *map =
                    ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
                // The descriptor is not needed once mapped (POSIX keeps
                // the mapping alive independently).
                ::close(fd);
                if (map != MAP_FAILED) {
                    std::shared_ptr<const void> holder(
                        map, [size](const void *p) {
                            ::munmap(const_cast<void *>(p), size);
                        });
                    auto img = openView(
                        std::span<const u8>(
                            static_cast<const u8 *>(map), size),
                        options);
                    if (!img.isOk()) {
                        return img.status();
                    }
                    MaterializedImage out = std::move(img).value();
                    out.mapping_ = std::move(holder);
                    return out;
                }
            } else {
                ::close(fd);
            }
        }
        // Fall through to the read-based path: a filesystem without
        // mmap support (or an unreadable stat) should not change the
        // caller-visible contract, only the backing.
    }
    MEDUSA_ASSIGN_OR_RETURN(std::vector<u8> bytes, readFile(path));
    return open(std::move(bytes), options);
}

} // namespace medusa::core
