/**
 * @file
 * The materialized artifact: the offline phase's in-memory IR of
 * everything the online phase restores. It is never written to disk as
 * such; buildImageBytes (image.h) flattens it into the v6 image, the
 * one serialized format, which is what gets linted and restored.
 *
 * Per the paper (§3), one artifact is produced per <GPU type, model>
 * pair and contains:
 *  - the available free GPU memory for KV-cache initialization (§6),
 *  - the buffer (de)allocation sequence to replay (§4.2), with the
 *    boundary after which online replay takes over from organic
 *    execution,
 *  - per-batch-size graph blueprints: node kernel *names* (addresses
 *    are process-specific; §5), parameter specs (constants verbatim,
 *    pointers as indirect index pointers = (allocation index, offset);
 *    §4.1), and edges,
 *  - the contents of permanent buffers (§4.3's copy-free restoration
 *    keeps only these — e.g. 4-byte GEMM semaphores),
 *  - buffer tags so the engine can re-bind its I/O and KV-cache buffers
 *    after replay.
 */

#ifndef MEDUSA_MEDUSA_ARTIFACT_H
#define MEDUSA_MEDUSA_ARTIFACT_H

#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "simtime/cost_model.h"

namespace medusa {
class MetricsRegistry;
}

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
    /** kFree: the allocation index (see below) being freed. */
    u64 freed_alloc_index = 0;
};

/**
 * How one kernel parameter is materialized.
 */
struct ParamSpec
{
    enum Kind : u8 {
        /** Verbatim bytes (plain constants). */
        kConstant = 0,
        /** Data pointer: the (allocation index, byte offset) pair. */
        kIndirect = 1,
    };

    Kind kind = kConstant;
    std::vector<u8> constant_bytes;
    u64 alloc_index = 0;
    u64 offset = 0;
};

/** One materialized CUDA graph node. */
struct NodeBlueprint
{
    /** Mangled kernel name (the address is restored online, §5). */
    std::string kernel_name;
    /** The kernel's module / dynamic-link library. */
    std::string module_name;
    TimingInfo timing;
    std::vector<ParamSpec> params;
};

/** One materialized CUDA graph (for one batch size). */
struct GraphBlueprint
{
    u32 batch_size = 0;
    std::vector<NodeBlueprint> nodes;
    /** Dependency edges (source node index, destination node index). */
    std::vector<std::pair<u32, u32>> edges;
};

/** Saved contents of a permanent buffer (§4.3). */
struct PermanentBuffer
{
    u64 alloc_index = 0;
    std::vector<u8> contents;
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

/** Statistics the analysis stage reports (used by benches and tests). */
struct AnalysisStats
{
    u64 total_nodes = 0;
    u64 total_params = 0;
    u64 pointer_params = 0;
    u64 constant_params = 0;
    /** Pointer candidates rejected because no allocation matched. */
    u64 decoy_candidates = 0;
    /** Params corrected from pointer to constant by validation. */
    u64 validation_repairs = 0;
    /** Nodes whose kernels are visible to dlsym(). */
    u64 dlsym_visible_nodes = 0;
    /** Nodes requiring module enumeration (hidden kernels). */
    u64 hidden_kernel_nodes = 0;
    /** Buffers classified as model parameters (contents skipped). */
    u64 model_param_buffers = 0;
    /** Buffers classified as temporary (contents skipped). */
    u64 temp_buffers = 0;
    /** Buffers whose contents are materialized. */
    u64 permanent_buffers = 0;
    /** Indirect pointer words found inside materialized buffers (§8). */
    u64 indirect_pointer_words = 0;
    /** Bytes of buffer contents materialized (copy-free keeps this tiny). */
    u64 materialized_content_bytes = 0;
    /** Bytes that a full (non-copy-free) dump would have materialized. */
    u64 full_dump_bytes = 0;

    /**
     * Publish every counter under the canonical `analysis.*` metric
     * names (DESIGN.md §12). The struct itself stays the in-memory
     * view; registries are how benches and pipelines consume it.
     */
    void publishTo(MetricsRegistry &registry) const;
};

/** The complete materialized state. */
struct Artifact
{
    std::string model_name;
    u64 model_seed = 0;

    /** §6: the profiled free GPU memory for KV-cache initialization. */
    u64 free_gpu_memory = 0;

    /** The full recorded (de)allocation sequence, process-start order. */
    std::vector<AllocOp> ops;
    /**
     * Number of leading ops that the online phase produces organically
     * (structure initialization); replay starts at this op index.
     */
    u64 organic_op_count = 0;
    /** Number of alloc (not free) events within the organic prefix. */
    u64 organic_alloc_count = 0;

    std::vector<GraphBlueprint> graphs;
    std::vector<PermanentBuffer> permanent;
    /** Nested pointer words to rewrite after replay (§8 extension). */
    std::vector<PointerWordFix> pointer_fixes;
    /** Engine buffer tag -> allocation index. */
    std::map<std::string, u64> tags;

    AnalysisStats stats;

    /** Total graph nodes across batch sizes. */
    u64 totalNodes() const;
};

} // namespace medusa::core

#endif // MEDUSA_MEDUSA_ARTIFACT_H
