/**
 * @file
 * The v6 materialized image: a memory-mappable, relocation-patchable
 * flattening of the in-memory artifact (DESIGN.md §13), and the one
 * serialized format — what medusa-lint verifies and what the online
 * phase restores from.
 *
 * The artifact stores graph *blueprints* — per-node kernel names and
 * per-param indirect (alloc_index, offset) pairs. Turning those back
 * into executable graphs online would mean rebuilding a CudaGraph
 * object per blueprint and re-resolving every node's kernel. The v6
 * image moves that work offline, the way a dynamic linker moves symbol
 * binding into a precomputed relocation table:
 *
 *  - graph topology, execution order, timings and param widths are
 *    stored as structure-of-arrays POD sections that the reader *views*
 *    in place (zero-copy spans over the file bytes);
 *  - every kernel/param cell that needs a run-specific address is a u64
 *    slot in a "patch template", with constants prefilled offline;
 *  - a relocation table lists (slot, index, addend) records: data
 *    relocations resolve against the replayed allocation table, kernel
 *    relocations against the first-occurrence kernel name table.
 *
 * Restore then copies the template, applies the relocations in one
 * linear pass, and instantiates executable graphs directly from the
 * patched arrays (GpuProcess::instantiatePatched) — no CudaGraph
 * reconstruction, no per-node name lookups. The kernel name table is
 * emitted in first-occurrence order (graph order, then node order) so
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

#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/trace.h"
#include "common/types.h"
#include "medusa/artifact.h"
#include "simcuda/graph.h"

namespace medusa::core {

/** Options for opening a serialized image. */
struct ImageReadOptions
{
    /** Verify the whole-image CRC32 (covers everything after header). */
    bool verify_crc = true;
    /**
     * Reject out-of-bounds relocation records at open time (the patch
     * pass indexes them unchecked). medusa-lint opens with this off so
     * a corrupt relocation table decodes far enough to be diagnosed
     * precisely (MDL701/MDL703) instead of as a generic open failure.
     */
    bool validate_relocations = true;
    /**
     * openFile(): map the file read-only instead of reading it into
     * memory. Falls back to the read path when mapping fails.
     */
    bool use_mmap = true;
    /** Inject FaultPoint::kImageOpen before decoding, when set. */
    FaultInjector *fault = nullptr;
    TraceRecorder *trace = nullptr;
};

/**
 * A decoded view over a serialized v6 image. Small metadata (counts,
 * names, tags, the alloc-op sequence, tokenizer merges) is copied out;
 * the large arrays — graph SoA columns, the patch template and the
 * relocation tables — are zero-copy spans into the backing bytes. The
 * backing is either owned by the image (open) or by the caller
 * (openView), in which case it must outlive the image.
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
        /** Per-node param-blob prefix (node_count + 1 entries). */
        std::span<const u32> param_begin;
        /** Per-param byte widths. */
        std::span<const u8> param_len;
        /** Per-node kernel timings. */
        std::span<const TimingInfo> timings;
        /** Dependency edges. */
        std::span<const simcuda::GraphEdge> edges;
        /** Precomputed topological execution order. */
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
     * set; verifies the whole-image CRC unless disabled.
     */
    static StatusOr<MaterializedImage>
    openView(std::span<const u8> bytes, const ImageReadOptions &options = {});

    /** Open an image adopting @p bytes (kept alive inside the image). */
    static StatusOr<MaterializedImage>
    open(std::vector<u8> bytes, const ImageReadOptions &options = {});

    /**
     * Open an image file. With options.use_mmap (the default) the file
     * is mapped read-only and the image views the mapping in place — the
     * kernel pages graph columns in on first touch, which is what makes
     * a multi-model image cache cheap to hold open. Falls back to the
     * read-based path (open) when mapping is unavailable.
     */
    static StatusOr<MaterializedImage>
    openFile(const std::string &path, const ImageReadOptions &options = {});

    /** True when the backing bytes are a live file mapping. */
    bool isMapped() const { return mapping_ != nullptr; }

    // Spans point into owned_; copying would leave them dangling, and
    // moving a vector keeps its heap buffer stable, so moves are safe.
    MaterializedImage() = default;
    MaterializedImage(const MaterializedImage &) = delete;
    MaterializedImage &operator=(const MaterializedImage &) = delete;
    MaterializedImage(MaterializedImage &&) = default;
    MaterializedImage &operator=(MaterializedImage &&) = default;

  private:
    /** Backing bytes when opened via open(); empty for openView(). */
    std::vector<u8> owned_;
    /** Backing mapping when opened via openFile() with mmap. */
    std::shared_ptr<const void> mapping_;
};

/**
 * Flatten an artifact into the serialized v6 image — the offline
 * emission step. Precomputes each graph's topological order, builds the
 * first-occurrence kernel name table, prefills constant params into the
 * patch template and emits the relocation table. @p tokenizer_merges is
 * the learned merge list of the model's tokenizer
 * (llm::BpeTokenizer::merges()). Verification is a separate step
 * (lint::lintImage over the opened bytes).
 */
StatusOr<std::vector<u8>>
buildImageBytes(const Artifact &artifact,
                const std::vector<std::pair<i32, i32>> &tokenizer_merges);

} // namespace medusa::core

#endif // MEDUSA_MEDUSA_IMAGE_H
