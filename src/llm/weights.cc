#include "llm/weights.h"

#include <cmath>

#include "common/rng.h"
#include "llm/synthetic_store.h"

namespace medusa::llm {

namespace {

constexpr u64 kFp16 = 2; // real weights are fp16

/** Append one spec with both real and functional sizing. */
void
addSpec(std::vector<TensorSpec> &specs, const std::string &name, i32 layer,
        u64 real_elems, u64 func_elems, u64 func_fan_in,
        TensorContent content,
        std::optional<ShardSpec> shard = std::nullopt)
{
    TensorSpec s;
    s.name = name;
    s.layer = layer;
    s.logical_bytes = real_elems * kFp16;
    s.func_elems = func_elems;
    s.func_fan_in = func_fan_in;
    s.content = content;
    s.shard = std::move(shard);
    specs.push_back(std::move(s));
}

/** Element count selected by a shard spec. */
u64
shardElems(const ShardSpec &shard)
{
    u64 rows = 0;
    for (const auto &[begin, end] : shard.row_ranges) {
        rows += end - begin;
    }
    return rows * (shard.col_end - shard.col_begin);
}

/** Column-parallel shard: this rank's row ranges, all columns. */
ShardSpec
rowShard(u64 full_rows, u64 full_cols,
         std::vector<std::pair<u64, u64>> ranges)
{
    ShardSpec s;
    s.full_rows = full_rows;
    s.full_cols = full_cols;
    s.row_ranges = std::move(ranges);
    s.col_begin = 0;
    s.col_end = full_cols;
    return s;
}

/** Row-parallel shard: all rows, this rank's column range. */
ShardSpec
colShard(u64 full_rows, u64 full_cols, u64 col_begin, u64 col_end)
{
    ShardSpec s;
    s.full_rows = full_rows;
    s.full_cols = full_cols;
    s.row_ranges = {{0, full_rows}};
    s.col_begin = col_begin;
    s.col_end = col_end;
    return s;
}

/**
 * The fused-QKV row ranges of one rank: its query heads, plus its KV
 * head slice (or the full replicated KV for MQA).
 */
std::vector<std::pair<u64, u64>>
qkvRowRanges(u64 q_full, u64 kv_full, u64 q_local, u64 kv_local,
             u32 rank, bool kv_sharded)
{
    std::vector<std::pair<u64, u64>> ranges;
    ranges.emplace_back(rank * q_local, (rank + 1) * q_local);
    if (kv_sharded) {
        ranges.emplace_back(q_full + rank * kv_local,
                            q_full + (rank + 1) * kv_local);
        ranges.emplace_back(q_full + kv_full + rank * kv_local,
                            q_full + kv_full + (rank + 1) * kv_local);
    } else {
        ranges.emplace_back(q_full, q_full + kv_full);
        ranges.emplace_back(q_full + kv_full, q_full + 2 * kv_full);
    }
    return ranges;
}

} // namespace

std::vector<TensorSpec>
buildTensorSpecs(const ModelConfig &m)
{
    std::vector<TensorSpec> specs;
    const FuncDims &f = m.func;
    const u64 h_r = m.hidden;
    const u64 kv_r = m.kvDim();
    const u64 h_f = f.hidden;
    const u64 kv_f = f.kvDim();

    const bool tp = m.tp_world > 1;
    MEDUSA_CHECK(m.heads % m.tp_world == 0 &&
                     m.func.heads % m.tp_world == 0 &&
                     m.intermediate % m.tp_world == 0 &&
                     m.func.intermediate % m.tp_world == 0,
                 "model dimensions not divisible by tp_world");
    const bool kv_sharded = m.kv_heads >= m.tp_world;
    // Per-rank (local) dimensions, real and functional.
    const u64 q_r_l = m.localQDim();
    const u64 kv_r_l = m.localKvDim();
    const u64 inter_r_l = m.localIntermediate();
    const u64 q_f_l = m.funcLocalQDim();
    const u64 kv_f_l = m.funcLocalKvDim();
    const u64 inter_f_l = m.funcLocalIntermediate();

    addSpec(specs, "embed_tokens", -1,
            static_cast<u64>(m.vocab) * h_r,
            static_cast<u64>(f.vocab) * h_f, h_f,
            TensorContent::kEmbedding);

    for (u32 l = 0; l < m.num_layers; ++l) {
        const std::string p = "layers." + std::to_string(l) + ".";
        const i32 li = static_cast<i32>(l);
        // Shards for the attention/MLP projections of this rank.
        std::optional<ShardSpec> qkv_shard, qkv_b_shard, o_shard,
            gate_up_shard, down_shard, mlp_up_shard;
        if (tp) {
            auto qkv_rows = qkvRowRanges(h_f, kv_f, q_f_l, kv_f_l,
                                         m.tp_rank, kv_sharded);
            qkv_shard = rowShard(h_f + 2 * kv_f, h_f, qkv_rows);
            qkv_b_shard = rowShard(h_f + 2 * kv_f, 1, qkv_rows);
            o_shard = colShard(h_f, h_f, m.tp_rank * q_f_l,
                               (m.tp_rank + 1) * q_f_l);
            gate_up_shard = rowShard(
                2ull * f.intermediate, h_f,
                {{m.tp_rank * inter_f_l, (m.tp_rank + 1) * inter_f_l},
                 {f.intermediate + m.tp_rank * inter_f_l,
                  f.intermediate + (m.tp_rank + 1) * inter_f_l}});
            down_shard = colShard(h_f, f.intermediate,
                                  m.tp_rank * inter_f_l,
                                  (m.tp_rank + 1) * inter_f_l);
            mlp_up_shard = rowShard(
                f.intermediate, h_f,
                {{m.tp_rank * inter_f_l,
                  (m.tp_rank + 1) * inter_f_l}});
        }
        const u64 qkv_real =
            tp ? (q_r_l + 2 * kv_r_l) * h_r : (h_r + 2 * kv_r) * h_r;
        const u64 qkv_func = tp ? shardElems(*qkv_shard)
                                : (h_f + 2 * kv_f) * h_f;
        const u64 o_real = tp ? h_r * q_r_l : h_r * h_r;
        const u64 o_func = tp ? shardElems(*o_shard) : h_f * h_f;
        switch (m.arch) {
          case ModelArch::kLlama:
          case ModelArch::kQwen:
            addSpec(specs, p + "input_norm", li, h_r, h_f, 1,
                    TensorContent::kNormWeight);
            addSpec(specs, p + "qkv_w", li, qkv_real * 1, qkv_func, h_f,
                    TensorContent::kMatrix, qkv_shard);
            if (m.arch == ModelArch::kQwen) {
                addSpec(specs, p + "qkv_b", li,
                        tp ? q_r_l + 2 * kv_r_l : h_r + 2 * kv_r,
                        tp ? shardElems(*qkv_b_shard)
                           : h_f + 2 * kv_f,
                        1, TensorContent::kBias, qkv_b_shard);
            }
            addSpec(specs, p + "o_proj", li, o_real, o_func, h_f,
                    TensorContent::kMatrix, o_shard);
            addSpec(specs, p + "post_norm", li, h_r, h_f, 1,
                    TensorContent::kNormWeight);
            addSpec(specs, p + "gate_up", li,
                    tp ? 2ull * inter_r_l * h_r
                       : 2ull * m.intermediate * h_r,
                    tp ? shardElems(*gate_up_shard)
                       : 2ull * f.intermediate * h_f,
                    h_f, TensorContent::kMatrix, gate_up_shard);
            addSpec(specs, p + "down", li,
                    tp ? static_cast<u64>(h_r) * inter_r_l
                       : static_cast<u64>(h_r) * m.intermediate,
                    tp ? shardElems(*down_shard)
                       : static_cast<u64>(h_f) * f.intermediate,
                    f.intermediate, TensorContent::kMatrix, down_shard);
            break;
          case ModelArch::kFalcon:
            addSpec(specs, p + "ln_w", li, h_r, h_f, 1,
                    TensorContent::kNormWeight);
            addSpec(specs, p + "ln_b", li, h_r, h_f, 1,
                    TensorContent::kBias);
            addSpec(specs, p + "qkv_w", li, qkv_real, qkv_func, h_f,
                    TensorContent::kMatrix, qkv_shard);
            addSpec(specs, p + "dense", li, o_real, o_func, h_f,
                    TensorContent::kMatrix, o_shard);
            addSpec(specs, p + "mlp_up", li,
                    tp ? static_cast<u64>(inter_r_l) * h_r
                       : static_cast<u64>(m.intermediate) * h_r,
                    tp ? shardElems(*mlp_up_shard)
                       : static_cast<u64>(f.intermediate) * h_f,
                    h_f, TensorContent::kMatrix, mlp_up_shard);
            addSpec(specs, p + "mlp_down", li,
                    tp ? static_cast<u64>(h_r) * inter_r_l
                       : static_cast<u64>(h_r) * m.intermediate,
                    tp ? shardElems(*down_shard)
                       : static_cast<u64>(h_f) * f.intermediate,
                    f.intermediate, TensorContent::kMatrix, down_shard);
            break;
        }
    }

    addSpec(specs, "final_norm", -1, h_r, h_f, 1,
            TensorContent::kNormWeight);
    if (m.arch == ModelArch::kFalcon) {
        addSpec(specs, "final_norm_bias", -1, h_r, h_f, 1,
                TensorContent::kBias);
    }
    addSpec(specs, "lm_head", -1, static_cast<u64>(m.vocab) * h_r,
            static_cast<u64>(f.vocab) * h_f, h_f, TensorContent::kMatrix);
    return specs;
}

StatusOr<ModelWeights>
initModelStructure(simcuda::CachingAllocator &alloc, const ModelConfig &m)
{
    ModelWeights weights;
    weights.specs = buildTensorSpecs(m);
    weights.layers.resize(m.num_layers);
    weights.addrs.reserve(weights.specs.size());

    for (const TensorSpec &spec : weights.specs) {
        MEDUSA_ASSIGN_OR_RETURN(
            DeviceAddr addr,
            alloc.allocate(spec.logical_bytes,
                           spec.func_elems * sizeof(f32)));
        weights.addrs.push_back(addr);
        weights.total_logical_bytes += spec.logical_bytes;

        // Wire the role pointer.
        const std::string &n = spec.name;
        if (spec.layer < 0) {
            if (n == "embed_tokens") {
                weights.embed = addr;
            } else if (n == "final_norm") {
                weights.final_norm = addr;
            } else if (n == "final_norm_bias") {
                weights.final_norm_bias = addr;
            } else if (n == "lm_head") {
                weights.lm_head = addr;
            }
            continue;
        }
        LayerWeights &lw = weights.layers.at(
            static_cast<std::size_t>(spec.layer));
        const std::string leaf = n.substr(n.rfind('.') + 1);
        if (leaf == "input_norm" || leaf == "ln_w") {
            lw.input_norm = addr;
        } else if (leaf == "ln_b") {
            lw.input_norm_bias = addr;
        } else if (leaf == "qkv_w") {
            lw.qkv_w = addr;
        } else if (leaf == "qkv_b") {
            lw.qkv_b = addr;
        } else if (leaf == "o_proj" || leaf == "dense") {
            lw.o_proj = addr;
        } else if (leaf == "post_norm") {
            lw.post_norm = addr;
        } else if (leaf == "gate_up") {
            lw.gate_up = addr;
        } else if (leaf == "down") {
            lw.down = addr;
        } else if (leaf == "mlp_up") {
            lw.mlp_up = addr;
        } else if (leaf == "mlp_down") {
            lw.mlp_down = addr;
        } else {
            return internalError("unknown tensor leaf name " + leaf);
        }
    }
    return weights;
}

namespace {

/**
 * Every input the synthesis of one full (unsharded) tensor reads: the
 * same key yields the same "weight file" bytes in every process launch.
 */
struct TensorKey
{
    u64 model_seed = 0;
    u64 index = 0;
    TensorContent content = TensorContent::kMatrix;
    u64 fan_in = 1;
    u64 elems = 0;

    auto operator<=>(const TensorKey &) const = default;
};

/** Synthesize tensor @p key's deterministic contents. */
std::vector<f32>
synthesizeTensor(const TensorKey &key)
{
    Rng rng(key.model_seed * 0x10001ull + key.index * 7919ull);
    std::vector<f32> full(key.elems);
    const f32 matrix_scale =
        1.0f / std::sqrt(static_cast<f32>(key.fan_in));
    for (auto &v : full) {
        switch (key.content) {
          case TensorContent::kMatrix:
            v = rng.nextSymmetricFloat() * matrix_scale;
            break;
          case TensorContent::kNormWeight:
            v = 1.0f + 0.05f * rng.nextSymmetricFloat();
            break;
          case TensorContent::kBias:
            v = 0.01f * rng.nextSymmetricFloat();
            break;
          case TensorContent::kEmbedding:
            v = 0.5f * rng.nextSymmetricFloat();
            break;
        }
    }
    return full;
}

/**
 * Tensor @p index's full contents, synthesized once per process: every
 * load, and every tensor-parallel rank, reads the one stored copy.
 */
const std::vector<f32> &
fullTensor(const ModelConfig &m, const TensorSpec &spec, std::size_t index)
{
    static SyntheticStore<TensorKey, std::vector<f32>> store;
    const TensorKey key{
        m.seed, index, spec.content, spec.func_fan_in,
        spec.shard ? spec.shard->full_rows * spec.shard->full_cols
                   : spec.func_elems};
    return store.get(key, [&] { return synthesizeTensor(key); });
}

/**
 * Gather a tensor-parallel rank's slice of @p full into @p staging, so
 * shards compose exactly into the single-GPU weights.
 */
void
gatherShard(const TensorSpec &spec, const std::vector<f32> &full,
            std::vector<f32> &staging)
{
    const ShardSpec &sh = *spec.shard;
    staging.clear();
    staging.reserve(spec.func_elems);
    for (const auto &[row_begin, row_end] : sh.row_ranges) {
        for (u64 row = row_begin; row < row_end; ++row) {
            const f32 *src = full.data() + row * sh.full_cols;
            staging.insert(staging.end(), src + sh.col_begin,
                           src + sh.col_end);
        }
    }
    MEDUSA_CHECK(staging.size() == spec.func_elems,
                 "shard gather size mismatch for " << spec.name);
}

} // namespace

Status
loadModelWeights(simcuda::GpuProcess &process, const ModelConfig &m,
                 ModelWeights &weights)
{
    // A process whose contents nobody reads (the shape-only capture)
    // gets the same charges without the bytes: each tensor is tainted,
    // so a read of a weight there refuses instead of seeing zeros. It
    // neither reads nor fills the synthetic store.
    const bool charge_only = process.contentsDiscarded();
    std::vector<f32> staging;
    for (std::size_t i = 0; i < weights.specs.size(); ++i) {
        const TensorSpec &spec = weights.specs[i];
        // Charge the storage read of the *real* bytes. The SSD-array
        // bandwidth constant subsumes the PCIe hop (the paper's observed
        // effective ~19 GB/s end-to-end path), so the device copy below
        // charges nothing extra.
        process.clock().advance(process.cost().ssdReadTime(
            static_cast<f64>(spec.logical_bytes)));
        if (charge_only) {
            MEDUSA_RETURN_IF_ERROR(
                process.memcpyH2D(weights.addrs[i], nullptr, 0, 0));
            process.memory().taint(weights.addrs[i]);
            continue;
        }
        const std::vector<f32> &full = fullTensor(m, spec, i);
        const f32 *contents = full.data();
        if (spec.shard) {
            gatherShard(spec, full, staging);
            contents = staging.data();
        }
        MEDUSA_RETURN_IF_ERROR(process.memcpyH2D(
            weights.addrs[i], contents, spec.func_elems * sizeof(f32),
            /*logical_bytes=*/0));
    }
    return Status::ok();
}

} // namespace medusa::llm
