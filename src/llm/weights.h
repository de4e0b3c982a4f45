/**
 * @file
 * Model tensor inventory, structure initialization, and weight loading.
 *
 * Stage ❶ (structure init) instantiates every weight tensor in a strict,
 * deterministic order — the property Medusa's indirect-index analysis
 * relies on. Stage ❷ (weights loading) fills the functional contents
 * from the model's seed (identical across process launches, as real
 * weight files are) and charges the simulated SSD-array read time of the
 * *real* byte sizes.
 */

#ifndef MEDUSA_LLM_WEIGHTS_H
#define MEDUSA_LLM_WEIGHTS_H

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "llm/model_config.h"
#include "simcuda/caching_allocator.h"

namespace medusa::llm {

/** What kind of values a tensor holds (decides synthetic content). */
enum class TensorContent {
    kMatrix,    ///< projection weights ~ U(-1,1)/sqrt(fan_in)
    kNormWeight,///< ~1.0
    kBias,      ///< ~0
    kEmbedding, ///< ~U(-0.5, 0.5)
};

/**
 * How a tensor-parallel rank's shard is cut out of the full functional
 * matrix (row-major [full_rows x full_cols]): the union of row_ranges,
 * restricted to [col_begin, col_end). Every rank gathers its slice from
 * the one full tensor the process synthesized from the tensor's seed,
 * so shards compose exactly into the single-GPU weights.
 */
struct ShardSpec
{
    u64 full_rows = 0;
    u64 full_cols = 0;
    std::vector<std::pair<u64, u64>> row_ranges;
    u64 col_begin = 0;
    u64 col_end = 0;
};

/** Static description of one weight tensor. */
struct TensorSpec
{
    std::string name;
    /** -1 for global tensors, else layer index. */
    i32 layer = -1;
    /** Real bytes (fp16) — accounting and load timing. */
    u64 logical_bytes = 0;
    /** Functional f32 element count actually stored. */
    u64 func_elems = 0;
    /** Fan-in of the functional matrix (for init scaling). */
    u64 func_fan_in = 1;
    TensorContent content = TensorContent::kMatrix;
    /** Present when the tensor is a tensor-parallel shard. */
    std::optional<ShardSpec> shard;
};

/** Device addresses of one decoder layer's tensors (0 = absent). */
struct LayerWeights
{
    DeviceAddr input_norm = 0;
    DeviceAddr input_norm_bias = 0; // Falcon only
    DeviceAddr qkv_w = 0;
    DeviceAddr qkv_b = 0; // Qwen only
    DeviceAddr o_proj = 0;
    DeviceAddr post_norm = 0; // Llama/Qwen only
    DeviceAddr gate_up = 0;   // Llama/Qwen
    DeviceAddr down = 0;      // Llama/Qwen
    DeviceAddr mlp_up = 0;    // Falcon
    DeviceAddr mlp_down = 0;  // Falcon
};

/** The whole model's tensors, in allocation order. */
struct ModelWeights
{
    DeviceAddr embed = 0;
    DeviceAddr final_norm = 0;
    DeviceAddr final_norm_bias = 0; // Falcon only
    DeviceAddr lm_head = 0;
    std::vector<LayerWeights> layers;

    /** Flat views parallel to buildTensorSpecs() order. */
    std::vector<TensorSpec> specs;
    std::vector<DeviceAddr> addrs;

    u64 total_logical_bytes = 0;
    u32 tensorCount() const { return static_cast<u32>(specs.size()); }
};

/** The deterministic tensor inventory of a model. */
std::vector<TensorSpec> buildTensorSpecs(const ModelConfig &config);

/**
 * Stage ❶: allocate every tensor (in spec order) through the caching
 * allocator and wire up the role pointers.
 */
StatusOr<ModelWeights> initModelStructure(simcuda::CachingAllocator &alloc,
                                          const ModelConfig &config);

/**
 * Stage ❷: copy each tensor's deterministic functional contents to the
 * device, charging SSD read time for the real byte sizes. A tensor's
 * full contents are synthesized on its first load in the process and
 * copied from the process-wide store after that (llm/synthetic_store.h);
 * the charges are the same either way. On a process after
 * GpuProcess::discardContents() the contents are neither synthesized
 * nor copied: each tensor gets the same charges, a charge-only H2D copy
 * and a taint, so any read of it refuses.
 */
Status loadModelWeights(simcuda::GpuProcess &process,
                        const ModelConfig &config, ModelWeights &weights);

} // namespace medusa::llm

#endif // MEDUSA_LLM_WEIGHTS_H
