/**
 * @file
 * The v6 materialized image (DESIGN.md §13): the offline phase's one
 * IR and the one serialized format — what medusa-lint verifies and
 * what the online phase restores from.
 *
 * Per the paper (§3), one image is produced per <GPU type, model> pair
 * and holds the profiled free GPU memory (§6), the buffer
 * (de)allocation sequence to replay (§4.2), the captured graphs with
 * their indirect index pointer table (§4.1) and kernel name table
 * (§5), the contents of permanent buffers (§4.3), nested pointer words
 * to rewrite (§8), and the engine's buffer tags.
 *
 * Restoring a graph from per-node kernel names and (allocation index,
 * offset) pairs would mean rebuilding a CudaGraph object and
 * re-resolving every node's kernel online. The v6 layout moves that
 * work offline, the way a dynamic linker moves symbol binding into a
 * precomputed relocation table:
 *
 *  - graph topology, timings and param widths are structure-of-arrays
 *    POD sections that the reader *views* in place (zero-copy spans
 *    over the file bytes); node ids are the execution order, so every
 *    edge points forward and the order column is the identity, both
 *    checked at open;
 *  - every kernel/param cell that needs a run-specific address is a u64
 *    slot in a "patch template", with constants prefilled offline;
 *  - a relocation table lists (slot, index, addend) records: data
 *    relocations resolve against the replayed allocation table, kernel
 *    relocations against the first-occurrence kernel name table.
 *
 * The analysis stage appends straight into those sections through an
 * ImageBuilder, whose members are the sections themselves; finish()
 * writes the header and columns once and seals them with one CRC.
 * Restore lays the template out as each graph's executable arrays,
 * applies the relocations to them in one linear pass, and instantiates
 * executable graphs that adopt those arrays
 * (GpuProcess::instantiatePatched) — no CudaGraph reconstruction, no
 * per-node name lookups, no second copy. The kernel name table is
 * in first-occurrence order (graph order, then node order) so
 * resolving it loads modules in the order the capture first launched
 * them, keeping ASLR draws — and therefore restore fingerprints —
 * deterministic.
 *
 * The image also embeds the tokenizer's learned merge list so the
 * online phase can rebuild the tokenizer without re-training over the
 * corpus (llm::BpeTokenizer::fromMerges).
 */

#ifndef MEDUSA_MEDUSA_IMAGE_H
#define MEDUSA_MEDUSA_IMAGE_H

#include <cstring>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/trace.h"
#include "common/types.h"
#include "simcuda/graph.h"
#include "simtime/cost_model.h"

namespace medusa::core {

/** One operation of the recorded buffer (de)allocation sequence. */
struct AllocOp
{
    enum Kind : u8 { kAlloc = 0, kFree = 1 };

    Kind kind = kAlloc;
    /** kAlloc: accounted size. */
    u64 logical_size = 0;
    /** kAlloc: functional backing size. */
    u64 backing_size = 0;
    /** kFree: the allocation index (kAlloc ordinal) being freed. */
    u64 freed_alloc_index = 0;
};

/**
 * One *indirect pointer* word (§8): a device-pointer value stored
 * INSIDE a materialized buffer (e.g. a batched-GEMM operand array).
 * The online phase rewrites the 8 bytes at
 * (buffer_alloc_index, byte_offset) with the replayed address of
 * (target_alloc_index) + target_offset after contents restoration.
 */
struct PointerWordFix
{
    u64 buffer_alloc_index = 0;
    u64 byte_offset = 0;
    u64 target_alloc_index = 0;
    u64 target_offset = 0;
};

/** Options for opening a serialized image. */
struct ImageReadOptions
{
    /**
     * Refuse, at open time, the first structural defect
     * (findStructuralDefects): what the restore path indexes
     * unchecked. medusa-lint opens with this off and reports every
     * defect at its record (MDL303/MDL701/MDL703/MDL707) instead of
     * one generic open failure.
     */
    bool validate_indices = true;
    /** Inject FaultPoint::kImageOpen before decoding, when set. */
    FaultInjector *fault = nullptr;
    TraceRecorder *trace = nullptr;
};

/**
 * A decoded view over a serialized v6 image. Small metadata (counts,
 * names, tags, the alloc-op sequence, tokenizer merges) is copied out;
 * the large arrays — graph SoA columns, the patch template and the
 * relocation tables — are zero-copy spans into bytes the caller owns
 * and keeps alive for the image's lifetime (OfflineResult holds both).
 */
class MaterializedImage
{
  public:
    static constexpr u32 kMagic = 0x4d445349; // "MDSI"
    static constexpr u32 kVersion = 6;
    /** magic + version + payload size + payload crc + pad. */
    static constexpr std::size_t kHeaderBytes = 24;

    /** One kernel-name-table entry, in first-occurrence order. */
    struct KernelEntry
    {
        std::string name;
        std::string module;
    };

    /**
     * One data relocation: write the replayed device address of
     * allocation @c alloc_index plus @c addend into template slot
     * @c slot. POD; stored as a packed on-disk array.
     */
    struct DataReloc
    {
        u64 slot = 0;
        u64 alloc_index = 0;
        u64 addend = 0;
    };

    /**
     * One kernel relocation: write the resolved address of kernel-table
     * entry @c kernel_index into template slot @c slot.
     */
    struct KernelReloc
    {
        u64 slot = 0;
        u64 kernel_index = 0;
    };

    /** Zero-copy view of one graph's SoA columns. */
    struct GraphView
    {
        u32 batch_size = 0;
        u32 node_count = 0;
        /**
         * Per-node param-blob prefix: node_count + 1 entries, from 0,
         * never decreasing, ending at param_len.size().
         */
        std::span<const u32> param_begin;
        /** Per-param byte widths. */
        std::span<const u8> param_len;
        /** Per-node kernel timings. */
        std::span<const TimingInfo> timings;
        /** Dependency edges, each src < dst < node_count. */
        std::span<const simcuda::GraphEdge> edges;
        /**
         * The execution order column: always the identity 0..n-1,
         * since node ids are the execution order. Kept only so v6
         * image bytes do not change.
         */
        std::span<const u32> order;
        /** First template slot of this graph's node fn addresses. */
        u64 fn_slot_begin = 0;
        /** First template slot of this graph's param values. */
        u64 param_slot_begin = 0;
    };

    /** Zero-copy view of one permanent buffer's materialized bytes. */
    struct PermanentView
    {
        u64 alloc_index = 0;
        std::span<const u8> contents;
    };

    // ---- metadata (decoded copies) ------------------------------------
    std::string model_name;
    u64 model_seed = 0;
    u64 free_gpu_memory = 0;
    u64 organic_op_count = 0;
    u64 organic_alloc_count = 0;
    u64 total_nodes = 0;
    std::vector<AllocOp> ops;
    std::map<std::string, u64> tags;
    std::vector<KernelEntry> kernel_table;
    std::vector<std::pair<i32, i32>> tokenizer_merges;
    std::vector<GraphView> graphs;
    std::vector<PermanentView> permanent;

    // ---- large arrays (zero-copy views) -------------------------------
    /** All template slots: per graph, [node fn slots][param slots]. */
    std::span<const u64> patch_template;
    std::span<const DataReloc> data_relocs;
    std::span<const KernelReloc> kernel_relocs;
    std::span<const PointerWordFix> pointer_fixes;

    /** Size of the serialized image (for read-bandwidth charging). */
    u64 serialized_size = 0;
    /**
     * Bytes of the payload the decoder actually consumed. Trailing
     * payload bytes beyond this are CRC-covered but semantically dead —
     * medusa-lint flags the gap (MDL708).
     */
    u64 payload_decoded_bytes = 0;

    /**
     * Open an image over caller-owned bytes (zero-copy; the caller
     * keeps @p bytes alive and 8-byte aligned for the image's
     * lifetime). Injects FaultPoint::kImageOpen when options.fault is
     * set; always verifies the whole-image CRC.
     */
    static StatusOr<MaterializedImage>
    openView(std::span<const u8> bytes, const ImageReadOptions &options = {});

    // Move-only: a copy would duplicate the decoded metadata and make
    // one more view that must not outlive the bytes.
    MaterializedImage() = default;
    MaterializedImage(const MaterializedImage &) = delete;
    MaterializedImage &operator=(const MaterializedImage &) = delete;
    MaterializedImage(MaterializedImage &&) = default;
    MaterializedImage &operator=(MaterializedImage &&) = default;
};

/**
 * Bit 63 of the result is set iff @p x >= @p bound (for any @p bound up
 * to 2^63). Made of a subtraction and an OR, with no branch, so a
 * column's "any defect?" reduction can OR these and vectorize.
 */
constexpr u64
beyondBound(u64 x, u64 bound)
{
    return (bound - 1 - x) | x;
}

/** Whether a beyondBound result (or an OR of them) flags a defect. */
constexpr bool
flagged(u64 bits)
{
    return (bits >> 63) != 0;
}

/**
 * beyondBound bits of @p edge in a graph of @p node_count nodes: set
 * unless the edge points forward and stays inside its graph.
 */
constexpr u64
edgeDefectBits(const simcuda::GraphEdge &edge, u64 node_count)
{
    return beyondBound(edge.src, u64{edge.dst}) |
           beyondBound(edge.dst, node_count);
}

/**
 * Whether @p edge may appear in a graph of @p node_count nodes: node
 * ids are the execution order, so every edge points forward and stays
 * inside its graph.
 */
constexpr bool
isForwardEdge(const simcuda::GraphEdge &edge, u64 node_count)
{
    return !flagged(edgeDefectBits(edge, node_count));
}

/**
 * One structural defect of a decoded image: a broken fact that the
 * restore path indexes by without checking. @c index is the graph
 * (kEdge, kOrder, kParamRamp) or the relocation record; @c a and @c b
 * are the offending integers, as each kind says.
 */
struct StructuralDefect
{
    enum Kind : u8 {
        /** Edge a -> b breaks isForwardEdge. */
        kEdge,
        /** order[a] = b, not the identity. */
        kOrder,
        /**
         * param_begin[a] = b breaks the ramp: it must start at 0, never
         * decrease and end at the graph's param count.
         */
        kParamRamp,
        /** Kernel relocation slot a is not below the b template slots. */
        kKernelRelocSlot,
        /** Kernel index a is not below the b kernel-table entries. */
        kKernelIndex,
        /** Data relocation slot a is not below the b template slots. */
        kDataRelocSlot,
        /** Alloc index a is not below the b kAlloc ops. */
        kDataRelocAlloc,
    };

    Kind kind = kEdge;
    u64 index = 0;
    u64 a = 0;
    u64 b = 0;

    /** The medusa-lint rule that reports this kind ("MDL303", ...). */
    const char *rule() const;
    /** Where it is, as lint names it ("graph[bs=1].edge[1->0]"). */
    std::string location(const MaterializedImage &image) const;
    /** What is broken, with the offending integers. */
    std::string message() const;
};

/**
 * Every structural defect of @p image: per graph its non-forward edges,
 * its first non-identity order entry and its first broken param ramp
 * entry (MDL303, MDL707), then per relocation record the first bound it
 * breaks (MDL703 for kernel, MDL701 for data relocations). The one
 * check of these facts: openView refuses the first defect and
 * medusa-lint reports each. Allocates nothing for a sound image.
 */
std::vector<StructuralDefect>
findStructuralDefects(const MaterializedImage &image);

/**
 * A v6 image under construction: the offline IR. Its members are the
 * image's sections themselves, in the layout MaterializedImage views,
 * so emission is one serialization pass with no flattening. Graphs are
 * appended node by node: beginGraph(), then per node addNode()
 * followed by its params (addConstant / addPointer) in order. Each
 * graph's template range is [node fn slots][param slots]; relocation
 * records are appended in slot order. Hand-built specimens may also
 * edit the members directly — finish() serializes whatever they hold,
 * and lint judges it.
 */
class ImageBuilder
{
  public:
    /** Per-graph section metadata; the columns hold the rest. */
    struct GraphMeta
    {
        u32 batch_size = 0;
        u32 node_count = 0;
        u32 edge_count = 0;
        u32 param_count = 0;
        u64 fn_slot_begin = 0;
        u64 param_slot_begin = 0;
    };

    /** One permanent buffer; its bytes are the next @c size of contents. */
    struct PermanentEntry
    {
        u64 alloc_index = 0;
        u64 size = 0;
    };

    // ---- header facts --------------------------------------------------
    std::string model_name;
    u64 model_seed = 0;
    /** §6: the profiled free GPU memory for KV-cache initialization. */
    u64 free_gpu_memory = 0;
    /**
     * Number of leading ops that the online phase produces organically
     * (structure initialization); replay starts at this op index.
     */
    u64 organic_op_count = 0;
    /** Number of alloc (not free) events within the organic prefix. */
    u64 organic_alloc_count = 0;
    /** The full recorded (de)allocation sequence, process-start order. */
    std::vector<AllocOp> ops;
    /** Engine buffer tag -> allocation index. */
    std::map<std::string, u64> tags;
    std::vector<MaterializedImage::KernelEntry> kernel_table;
    std::vector<GraphMeta> graphs;
    std::vector<PermanentEntry> permanent;

    // ---- columns (MaterializedImage's zero-copy sections) ---------------
    /** Per graph: node_count + 1 param-prefix entries. */
    std::vector<u32> param_begin;
    /** Per graph: the identity 0..node_count-1 (see GraphView::order). */
    std::vector<u32> order;
    std::vector<simcuda::GraphEdge> edges;
    std::vector<TimingInfo> timings;
    std::vector<u8> param_len;
    /** The patch template. */
    std::vector<u64> slots;
    std::vector<MaterializedImage::DataReloc> data_relocs;
    std::vector<MaterializedImage::KernelReloc> kernel_relocs;
    std::vector<PointerWordFix> pointer_fixes;
    /** Every permanent buffer's bytes, back to back. */
    std::vector<u8> contents;

    /**
     * Reserve the columns for the given totals. @p pointer_count bounds
     * the data relocations: the params that may be pointers, not all
     * params.
     */
    void reserve(std::size_t graph_count, std::size_t node_count,
                 std::size_t edge_count, std::size_t param_count,
                 std::size_t pointer_count);

    /** Append a kernel-table entry; returns its index. */
    u64 addKernel(std::string name, std::string module);

    /**
     * Start a graph of @p node_count nodes: validates @p graph_edges
     * (forward, in range), appends the identity order and reserves the
     * graph's node fn slots.
     */
    Status beginGraph(u32 batch_size, u32 node_count,
                      const std::vector<simcuda::GraphEdge> &graph_edges);

    /** Append the current graph's next node. */
    void addNode(u64 kernel_index, const TimingInfo &timing);

    /**
     * Append a constant param (at most 8 bytes, prefilled). Inline, like
     * addPointer: the analysis appends one per captured param.
     */
    void
    addConstant(std::span<const u8> bytes)
    {
        MEDUSA_CHECK(bytes.size() <= sizeof(u64),
                     "constant param wider than 8 bytes");
        u64 bits = 0;
        std::memcpy(&bits, bytes.data(), bytes.size());
        slots.push_back(bits);
        param_len.push_back(static_cast<u8>(bytes.size()));
        ++graphs.back().param_count;
        ++param_begin.back();
    }

    /** Append a data-pointer param: a relocation against an allocation. */
    void
    addPointer(u64 alloc_index, u64 offset)
    {
        data_relocs.push_back({slots.size(), alloc_index, offset});
        slots.push_back(0);
        param_len.push_back(sizeof(u64));
        ++graphs.back().param_count;
        ++param_begin.back();
    }

    /**
     * Append a permanent buffer of @p size bytes; returns where its
     * contents go (valid until the next addPermanent).
     */
    std::span<u8> addPermanent(u64 alloc_index, u64 size);

    /** Total graph nodes appended. */
    u64 totalNodes() const { return timings.size(); }

    /**
     * Serialize the sections into image bytes: header, metadata, then
     * the POD columns, with one CRC over the payload. @p
     * tokenizer_merges is the model tokenizer's learned merge list
     * (llm::BpeTokenizer::merges()). Verification is a separate step
     * (lint::lintImage over the opened bytes).
     */
    std::vector<u8>
    finish(const std::vector<std::pair<i32, i32>> &tokenizer_merges) const;

  private:
    /** Aborts when the last graph got fewer nodes than it declared. */
    void checkLastGraphComplete() const;

    /** Nodes appended to the current (last) graph. */
    u32 graph_nodes_ = 0;
};

} // namespace medusa::core

#endif // MEDUSA_MEDUSA_IMAGE_H
