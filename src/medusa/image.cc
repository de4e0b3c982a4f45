#include "medusa/image.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>

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

/** The first @p count items of @p column, which then starts after them. */
template <typename T>
std::span<const T>
takeFront(std::span<const T> &column, u64 count)
{
    const std::span<const T> head =
        column.first(static_cast<std::size_t>(count));
    column = column.subspan(head.size());
    return head;
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

/** Encoded AllocOp: the kind byte and three u64s. */
constexpr std::size_t kAllocOpBytes = 1 + 3 * sizeof(u64);
/** Smallest encoded KernelEntry: two empty strings' length prefixes. */
constexpr std::size_t kKernelEntryBytes = 2 * sizeof(u64);

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

StatusOr<MaterializedImage::KernelEntry>
readKernelEntry(BinaryReader &r)
{
    MaterializedImage::KernelEntry e;
    MEDUSA_ASSIGN_OR_RETURN(e.name, r.readString());
    MEDUSA_ASSIGN_OR_RETURN(e.module, r.readString());
    return e;
}

/**
 * Per StructuralDefect::Kind: its lint rule, and the words around a and
 * b in its message.
 */
constexpr struct
{
    const char *rule;
    const char *before_a;
    const char *before_b;
    const char *after_b;
} kDefectText[] = {
    {"MDL303", "edge ", "->", " does not point forward inside its graph"},
    {"MDL303", "order[", "] is ", ", not node-id order"},
    {"MDL707", "param_begin[", "] is ",
     ", so the per-node param ramp does not rise from 0 to the param "
     "count"},
    {"MDL703", "slot ", " is beyond the ", "-slot patch template"},
    {"MDL703", "kernel index ", " is beyond the ", "-entry kernel table"},
    {"MDL701", "slot ", " is beyond the ", "-slot patch template"},
    {"MDL701", "allocation index ", " is beyond the ",
     "-allocation replay table"},
};
static_assert(std::size(kDefectText) == StructuralDefect::kDataRelocAlloc + 1);

} // namespace

const char *
StructuralDefect::rule() const
{
    return kDefectText[kind].rule;
}

std::string
StructuralDefect::location(const MaterializedImage &image) const
{
    if (kind > kParamRamp) {
        return (kind > kKernelIndex ? "data_relocs[" : "kernel_relocs[") +
               std::to_string(index) + "]";
    }
    std::string loc =
        "graph[bs=" + std::to_string(image.graphs[index].batch_size) + "]";
    if (kind == kEdge) {
        loc += ".edge[" + std::to_string(a) + "->" + std::to_string(b) + "]";
    } else if (kind == kOrder) {
        loc += ".order[" + std::to_string(a) + "]";
    }
    return loc;
}

std::string
StructuralDefect::message() const
{
    const auto &text = kDefectText[kind];
    return text.before_a + std::to_string(a) + text.before_b +
           std::to_string(b) + text.after_b;
}

namespace {

/**
 * The OR of @p bits over every index below @p n: a reduction with no
 * branch in its body, so a sound column is accepted at streaming speed
 * and only a column it flags is walked record by record.
 */
template <typename Bits>
u64
orOver(u64 n, Bits bits)
{
    u64 acc = 0;
    for (u64 i = 0; i < n; ++i) {
        acc |= bits(i);
    }
    return acc;
}

} // namespace

std::vector<StructuralDefect>
findStructuralDefects(const MaterializedImage &image)
{
    using D = StructuralDefect;
    // Each predicate below is written once, as beyondBound-style bits,
    // and used twice: by its column's reduction, and by the enumerating
    // pass that runs only when that reduction flags a defect.
    std::vector<D> defects;
    for (u64 gi = 0; gi < image.graphs.size(); ++gi) {
        const MaterializedImage::GraphView &gv = image.graphs[gi];
        const u64 node_count = gv.node_count;
        const std::span<const simcuda::GraphEdge> edges = gv.edges;
        auto edge_bits = [&](u64 i) {
            return edgeDefectBits(edges[i], node_count);
        };
        if (flagged(orOver(edges.size(), edge_bits))) [[unlikely]] {
            for (u64 i = 0; i < edges.size(); ++i) {
                if (flagged(edge_bits(i))) {
                    defects.push_back(
                        {D::kEdge, gi, edges[i].src, edges[i].dst});
                }
            }
        }
        // Nonzero where order[i] is not the identity.
        const std::span<const u32> order = gv.order;
        auto order_bits = [&](u64 i) { return u64{order[i]} ^ i; };
        if (orOver(node_count, order_bits) != 0) [[unlikely]] {
            u64 id = 0;
            while (order_bits(id) == 0) {
                ++id;
            }
            defects.push_back({D::kOrder, gi, id, order[id]});
        }
        // Decode carves node_count + 1 ramp entries; they must rise
        // from 0 to the graph's param count and never fall. The first
        // broken entry is reported: a nonzero start, else the first
        // fall, else the wrong end.
        const std::span<const u32> ramp = gv.param_begin;
        auto falls_after = [&](u64 i) {
            return beyondBound(ramp[i], u64{ramp[i + 1]} + 1);
        };
        const bool ends_broken =
            ramp[0] != 0 || ramp.back() != gv.param_len.size();
        if (ends_broken || flagged(orOver(ramp.size() - 1, falls_after)))
            [[unlikely]] {
            u64 at = 0;
            if (ramp[0] == 0) {
                while (at + 1 < ramp.size() && !flagged(falls_after(at))) {
                    ++at;
                }
                at = std::min<u64>(at + 1, ramp.size() - 1);
            }
            defects.push_back({D::kParamRamp, gi, at, ramp[at]});
        }
    }
    // A record reports the first bound it breaks.
    const u64 slot_count = image.patch_template.size();
    const u64 kernel_count = image.kernel_table.size();
    const auto kernel_relocs = image.kernel_relocs; // locals: not reloaded
    auto kernel_slot_bits = [&](u64 i) {
        return beyondBound(kernel_relocs[i].slot, slot_count);
    };
    auto kernel_index_bits = [&](u64 i) {
        return beyondBound(kernel_relocs[i].kernel_index, kernel_count);
    };
    if (flagged(orOver(kernel_relocs.size(), [&](u64 i) {
            return kernel_slot_bits(i) | kernel_index_bits(i);
        }))) [[unlikely]] {
        for (u64 ri = 0; ri < kernel_relocs.size(); ++ri) {
            const MaterializedImage::KernelReloc &rel = kernel_relocs[ri];
            if (flagged(kernel_slot_bits(ri))) {
                defects.push_back(
                    {D::kKernelRelocSlot, ri, rel.slot, slot_count});
            } else if (flagged(kernel_index_bits(ri))) {
                defects.push_back(
                    {D::kKernelIndex, ri, rel.kernel_index, kernel_count});
            }
        }
    }
    const u64 alloc_count = static_cast<u64>(std::count_if(
        image.ops.begin(), image.ops.end(),
        [](const AllocOp &op) { return op.kind == AllocOp::kAlloc; }));
    const auto data_relocs = image.data_relocs;
    auto data_slot_bits = [&](u64 i) {
        return beyondBound(data_relocs[i].slot, slot_count);
    };
    auto data_alloc_bits = [&](u64 i) {
        return beyondBound(data_relocs[i].alloc_index, alloc_count);
    };
    if (flagged(orOver(data_relocs.size(), [&](u64 i) {
            return data_slot_bits(i) | data_alloc_bits(i);
        }))) [[unlikely]] {
        for (u64 ri = 0; ri < data_relocs.size(); ++ri) {
            const MaterializedImage::DataReloc &rel = data_relocs[ri];
            if (flagged(data_slot_bits(ri))) {
                defects.push_back(
                    {D::kDataRelocSlot, ri, rel.slot, slot_count});
            } else if (flagged(data_alloc_bits(ri))) {
                defects.push_back(
                    {D::kDataRelocAlloc, ri, rel.alloc_index, alloc_count});
            }
        }
    }
    return defects;
}

void
ImageBuilder::reserve(std::size_t graph_count, std::size_t node_count,
                      std::size_t edge_count, std::size_t param_count,
                      std::size_t pointer_count)
{
    graphs.reserve(graph_count);
    param_begin.reserve(node_count + graph_count);
    order.reserve(node_count);
    edges.reserve(edge_count);
    timings.reserve(node_count);
    param_len.reserve(param_count);
    slots.reserve(node_count + param_count);
    data_relocs.reserve(pointer_count);
    kernel_relocs.reserve(node_count);
}

u64
ImageBuilder::addKernel(std::string name, std::string module)
{
    kernel_table.push_back({std::move(name), std::move(module)});
    return kernel_table.size() - 1;
}

Status
ImageBuilder::beginGraph(u32 batch_size, u32 node_count,
                         const std::vector<simcuda::GraphEdge> &graph_edges)
{
    checkLastGraphComplete();
    // Node ids are the execution order, so every edge must point
    // forward; the order column is then the identity.
    for (const simcuda::GraphEdge &e : graph_edges) {
        if (!isForwardEdge(e, node_count)) {
            return internalError("corrupt edge in graph bs=" +
                                 std::to_string(batch_size));
        }
    }
    for (u32 id = 0; id < node_count; ++id) {
        order.push_back(id);
    }
    edges.insert(edges.end(), graph_edges.begin(), graph_edges.end());

    // Kernel slots first, then param slots — one contiguous range per
    // graph, so each graph's slots lay out directly as its
    // PatchedGraphDesc arrays.
    GraphMeta meta;
    meta.batch_size = batch_size;
    meta.node_count = node_count;
    meta.edge_count = static_cast<u32>(graph_edges.size());
    meta.fn_slot_begin = slots.size();
    meta.param_slot_begin = meta.fn_slot_begin + node_count;
    graphs.push_back(meta);
    slots.resize(slots.size() + node_count);
    param_begin.push_back(0);
    graph_nodes_ = 0;
    return Status::ok();
}

void
ImageBuilder::addNode(u64 kernel_index, const TimingInfo &timing)
{
    GraphMeta &meta = graphs.back();
    MEDUSA_CHECK(graph_nodes_ < meta.node_count,
                 "graph bs=" << meta.batch_size << " has only "
                             << meta.node_count << " nodes");
    kernel_relocs.push_back({meta.fn_slot_begin + graph_nodes_,
                             kernel_index});
    timings.push_back(timing);
    // The node's param range ends where it begins until params arrive.
    param_begin.push_back(meta.param_count);
    ++graph_nodes_;
}

std::span<u8>
ImageBuilder::addPermanent(u64 alloc_index, u64 size)
{
    permanent.push_back({alloc_index, size});
    const std::size_t at = contents.size();
    contents.resize(at + static_cast<std::size_t>(size));
    return std::span<u8>(contents).subspan(at);
}

void
ImageBuilder::checkLastGraphComplete() const
{
    MEDUSA_CHECK(graphs.empty() || graph_nodes_ == graphs.back().node_count,
                 "graph bs=" << graphs.back().batch_size
                             << " ended before its last node");
}

std::vector<u8>
ImageBuilder::finish(
    const std::vector<std::pair<i32, i32>> &tokenizer_merges) const
{
    checkLastGraphComplete();
    // The header goes first with a zero size and CRC, patched in place
    // once the payload is written. kHeaderBytes is a multiple of 8, so
    // alignTo8 pads the payload as if it started at offset 0.
    static_assert(MaterializedImage::kHeaderBytes % 8 == 0);
    BinaryWriter w;
    w.writeU32(MaterializedImage::kMagic);
    w.writeU32(MaterializedImage::kVersion);
    const std::size_t size_at = w.size();
    w.writeU64(0); // payload bytes
    const std::size_t crc_at = w.size();
    w.writeU32(0); // payload CRC-32
    w.writeU32(0); // pad: keeps the payload 8-byte aligned
    MEDUSA_CHECK(w.size() == MaterializedImage::kHeaderBytes,
                 "image header drifted from kHeaderBytes");
    w.writeString(model_name);
    w.writeU64(model_seed);
    w.writeU64(free_gpu_memory);
    w.writeU64(organic_op_count);
    w.writeU64(organic_alloc_count);
    w.writeU64(totalNodes());
    w.writeVector(ops, writeAllocOp);
    w.writeU64(tags.size());
    for (const auto &[tag, index] : tags) {
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
    w.writeU64(permanent.size());
    for (const PermanentEntry &p : permanent) {
        w.writeU64(p.alloc_index);
        w.writeU64(p.size);
    }
    w.writeU64(pointer_fixes.size());
    w.writeU64(graphs.size());
    for (const GraphMeta &m : graphs) {
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
    w.writeU64(contents.size());

    // The POD columns and the contents make up nearly all the bytes:
    // grow the buffer once for them (each of the 10 aligns pads < 8).
    auto podBytes = [](const auto &v) {
        return v.size() * sizeof(v.front());
    };
    w.reserve(w.size() + podBytes(param_begin) + podBytes(order) +
              podBytes(edges) + podBytes(timings) + podBytes(param_len) +
              podBytes(slots) + podBytes(data_relocs) +
              podBytes(kernel_relocs) + podBytes(pointer_fixes) +
              contents.size() + 10 * 8);
    writePodArray(w, param_begin);
    writePodArray(w, order);
    writePodArray(w, edges);
    writePodArray(w, timings);
    writePodArray(w, param_len);
    writePodArray(w, slots);
    writePodArray(w, data_relocs);
    writePodArray(w, kernel_relocs);
    writePodArray(w, pointer_fixes);
    writePodArray(w, contents);

    const std::size_t payload_bytes =
        w.size() - MaterializedImage::kHeaderBytes;
    w.patchU64(size_at, payload_bytes);
    w.patchU32(crc_at, crc32(w.bytes().data() +
                                 MaterializedImage::kHeaderBytes,
                             payload_bytes));
    return w.takeBytes();
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
    if (crc32(payload.data(), payload.size()) != crc) {
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
    MEDUSA_ASSIGN_OR_RETURN(img.ops,
                            r.readVector<AllocOp>(kAllocOpBytes, readAllocOp));
    {
        MEDUSA_ASSIGN_OR_RETURN(u64 tag_count, r.readU64());
        for (u64 i = 0; i < tag_count; ++i) {
            MEDUSA_ASSIGN_OR_RETURN(std::string tag, r.readString());
            MEDUSA_ASSIGN_OR_RETURN(u64 index, r.readU64());
            img.tags[tag] = index;
        }
    }
    MEDUSA_ASSIGN_OR_RETURN(
        img.kernel_table,
        r.readVector<KernelEntry>(kKernelEntryBytes, readKernelEntry));
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
    std::vector<ImageBuilder::GraphMeta> graph_meta;
    u64 sum_nodes = 0;
    u64 sum_edges = 0;
    u64 sum_params = 0;
    {
        MEDUSA_ASSIGN_OR_RETURN(u64 graph_count, r.readU64());
        if (graph_count > r.remaining() / 32) {
            return internalError("image graph count exceeds data");
        }
        graph_meta.resize(static_cast<std::size_t>(graph_count));
        for (ImageBuilder::GraphMeta &m : graph_meta) {
            MEDUSA_ASSIGN_OR_RETURN(m.batch_size, r.readU32());
            MEDUSA_ASSIGN_OR_RETURN(m.node_count, r.readU32());
            MEDUSA_ASSIGN_OR_RETURN(m.edge_count, r.readU32());
            MEDUSA_ASSIGN_OR_RETURN(m.param_count, r.readU32());
            MEDUSA_ASSIGN_OR_RETURN(m.fn_slot_begin, r.readU64());
            MEDUSA_ASSIGN_OR_RETURN(m.param_slot_begin, r.readU64());
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

    MEDUSA_ASSIGN_OR_RETURN(
        auto all_param_begin,
        viewPodArray<u32>(r, sum_nodes + graph_meta.size()));
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
    MEDUSA_ASSIGN_OR_RETURN(auto contents,
                            viewPodArray<u8>(r, contents_total));
    for (std::size_t i = 0; i < img.permanent.size(); ++i) {
        if (permanent_sizes[i] > contents.size()) {
            return internalError("image permanent contents exceed their blob");
        }
        img.permanent[i].contents = takeFront(contents, permanent_sizes[i]);
    }

    // ---- carve per-graph views + validate the slot layout ------------
    u64 slot_cursor = 0;
    img.graphs.reserve(graph_meta.size());
    for (const ImageBuilder::GraphMeta &m : graph_meta) {
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
        gv.param_begin = takeFront(all_param_begin, m.node_count + 1u);
        gv.order = takeFront(all_order, m.node_count);
        gv.timings = takeFront(all_timings, m.node_count);
        gv.edges = takeFront(all_edges, m.edge_count);
        gv.param_len = takeFront(all_param_len, m.param_count);
        img.graphs.push_back(gv);
    }
    if (slot_cursor != slot_count) {
        return internalError("image slot layout is inconsistent");
    }
    img.payload_decoded_bytes = r.position();

    // The restore path indexes by the structural facts unchecked;
    // refuse the first broken one here, once.
    if (options.validate_indices) {
        const std::vector<StructuralDefect> defects =
            findStructuralDefects(img);
        if (!defects.empty()) {
            const StructuralDefect &d = defects[0];
            return internalError("image " + d.location(img) + ": " +
                                 d.message() + " (" + d.rule() + ")");
        }
    }
    return img;
}

} // namespace medusa::core
