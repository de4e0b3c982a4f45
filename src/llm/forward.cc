#include "llm/forward.h"

#include <cmath>

#include "simcuda/kernels/builtin.h"

namespace medusa::llm {

using simcuda::BuiltinKernels;
using simcuda::ParamsBuilder;
using simcuda::Stream;

namespace {

constexpr f32 kNormEps = 1e-5f;
constexpr f32 kRopeTheta = 10000.0f;
/** Representative real context length for decode-attention timing. */
constexpr f64 kRepresentativeCtx = 256.0;

/** Timing of a GEMM with real dims [n x k] x [k x out]. */
TimingInfo
gemmTiming(f64 n, f64 out, f64 k)
{
    TimingInfo t;
    t.flops = 2.0 * n * out * k;
    t.bytes = 2.0 * out * k + 2.0 * n * (k + out);
    return t;
}

/** Timing of an elementwise/norm op touching n x width reals twice. */
TimingInfo
elementwiseTiming(f64 n, f64 width)
{
    TimingInfo t;
    t.flops = 8.0 * n * width;
    t.bytes = 2.0 * 2.0 * n * width;
    return t;
}

} // namespace

StatusOr<ForwardBuffers>
allocateForwardBuffers(simcuda::CachingAllocator &alloc,
                       const ModelConfig &m, EngineObserver *observer)
{
    ForwardBuffers b;
    const FuncDims &f = m.func;
    b.max_bs = 256;
    b.max_tokens = f.max_batched_tokens;
    b.max_blocks_per_seq = (f.max_seq + f.block_size - 1) / f.block_size;

    const u32 max_n = std::max(b.max_bs, b.max_tokens);
    auto tag = [&](const char *name,
                   StatusOr<DeviceAddr> addr) -> StatusOr<DeviceAddr> {
        if (addr.isOk() && observer != nullptr) {
            observer->onTagBuffer(name, *addr);
        }
        return addr;
    };

    // i32 inputs: logical size is the real 4-byte element count; the
    // functional backing matches (these buffers are not scaled).
    MEDUSA_ASSIGN_OR_RETURN(
        b.token_ids,
        tag("token_ids", alloc.allocate(max_n * 4ull, max_n * 4ull)));
    MEDUSA_ASSIGN_OR_RETURN(
        b.positions,
        tag("positions", alloc.allocate(max_n * 4ull, max_n * 4ull)));
    MEDUSA_ASSIGN_OR_RETURN(
        b.seq_starts, tag("seq_starts", alloc.allocate((b.max_bs + 1) * 4ull,
                                                       (b.max_bs + 1) * 4ull)));
    MEDUSA_ASSIGN_OR_RETURN(
        b.slot_mapping,
        tag("slot_mapping", alloc.allocate(max_n * 4ull, max_n * 4ull)));
    const u64 table_elems =
        static_cast<u64>(b.max_bs) * b.max_blocks_per_seq;
    MEDUSA_ASSIGN_OR_RETURN(
        b.block_tables, tag("block_tables", alloc.allocate(
                                table_elems * 4, table_elems * 4)));
    MEDUSA_ASSIGN_OR_RETURN(
        b.seq_lens,
        tag("seq_lens", alloc.allocate(b.max_bs * 4ull, b.max_bs * 4ull)));
    // Logits: real vocab x fp16 logically, functional vocab x f32.
    MEDUSA_ASSIGN_OR_RETURN(
        b.logits,
        tag("logits",
            alloc.allocate(static_cast<u64>(max_n) * m.vocab * 2,
                           static_cast<u64>(max_n) * f.vocab * 4)));
    MEDUSA_ASSIGN_OR_RETURN(
        b.sampled,
        tag("sampled", alloc.allocate(b.max_bs * 4ull, b.max_bs * 4ull)));
    return b;
}

ForwardPass::ForwardPass(const Env &env)
    : process_(env.process),
      alloc_(env.alloc),
      model_(env.model),
      weights_(env.weights),
      kv_(env.kv),
      bufs_(env.bufs),
      semaphores_(env.semaphores),
      lm_workspace_(env.lm_workspace)
{
    MEDUSA_CHECK(process_ && alloc_ && model_ && weights_ && kv_ && bufs_ &&
                     semaphores_,
                 "ForwardPass env incomplete");
    MEDUSA_CHECK(!model_->batched_lm_head || lm_workspace_ != nullptr,
                 "batched LM head requires a workspace map");
}

StatusOr<DeviceAddr>
ForwardPass::temp(u64 func_bytes, u64 logical_bytes)
{
    MEDUSA_ASSIGN_OR_RETURN(DeviceAddr addr,
                            alloc_->allocate(logical_bytes, func_bytes));
    temps_.push_back(addr);
    return addr;
}

Status
ForwardPass::releaseTemps()
{
    while (!temps_.empty()) {
        MEDUSA_RETURN_IF_ERROR(alloc_->free(temps_.back()));
        temps_.pop_back();
    }
    return Status::ok();
}

StatusOr<std::pair<DeviceAddr, DeviceAddr>>
ForwardPass::semaphores(u32 layer)
{
    auto it = semaphores_->find(layer);
    if (it != semaphores_->end()) {
        return it->second;
    }
    if (process_->captureActive()) {
        return failedPrecondition(
            "split-K semaphores must be created by warm-up, not capture");
    }
    // Lazily create the layer's two 4-byte semaphore workspaces and
    // initialize them with the magic (the cuBLAS-workspace analogue).
    // These are never freed: Medusa classifies them as permanent buffers
    // and must materialize their 4-byte contents (§4.3).
    std::pair<DeviceAddr, DeviceAddr> sems;
    MEDUSA_ASSIGN_OR_RETURN(sems.first, alloc_->allocate(4, 4));
    MEDUSA_ASSIGN_OR_RETURN(sems.second, alloc_->allocate(4, 4));
    const u32 magic = simcuda::kGemmWorkspaceMagic;
    MEDUSA_RETURN_IF_ERROR(
        process_->memcpyH2D(sems.first, &magic, sizeof(magic), 4));
    MEDUSA_RETURN_IF_ERROR(
        process_->memcpyH2D(sems.second, &magic, sizeof(magic), 4));
    (*semaphores_)[layer] = sems;
    return sems;
}

StatusOr<std::pair<DeviceAddr, DeviceAddr>>
ForwardPass::lmWorkspace(u32 bs)
{
    auto it = lm_workspace_->find(bs);
    if (it != lm_workspace_->end()) {
        return it->second;
    }
    if (process_->captureActive()) {
        return failedPrecondition(
            "LM-head workspace must be created by warm-up, not capture");
    }
    // A persistent final-norm output and a device pointer array holding
    // [norm_buf, lm_head weights, logits]. Both live forever; the array
    // holds *pointers*, which is the §8 indirect-pointer restoration
    // case: Medusa must rewrite these words, not just copy them.
    const ModelConfig &m = *model_;
    std::pair<DeviceAddr, DeviceAddr> ws;
    MEDUSA_ASSIGN_OR_RETURN(
        ws.first,
        alloc_->allocate(static_cast<u64>(bs) * m.hidden * 2,
                         static_cast<u64>(bs) * m.func.hidden * 4));
    MEDUSA_ASSIGN_OR_RETURN(ws.second, alloc_->allocate(24, 24));
    const u64 operands[3] = {ws.first, weights_->lm_head,
                             bufs_->logits};
    MEDUSA_RETURN_IF_ERROR(process_->memcpyH2D(
        ws.second, operands, sizeof(operands), sizeof(operands)));
    (*lm_workspace_)[bs] = ws;
    return ws;
}

Status
ForwardPass::decode(Stream &stream, u32 bs, u32 layer_begin, u32 layer_end,
                    bool with_embed_head)
{
    const BuiltinKernels &k = BuiltinKernels::get();
    const ModelConfig &m = *model_;
    const FuncDims &f = m.func;
    const u32 h_f = f.hidden;
    // Per-rank (tensor-parallel) attention/MLP widths; equal to the
    // full widths when tp_world == 1.
    const u32 world = m.tp_world;
    const u32 q_f = m.funcLocalQDim();
    const u32 kv_f = m.funcLocalKvDim();
    const u32 heads_l = m.funcLocalHeads();
    const u32 kvh_l = m.funcLocalKvHeads();
    const u32 inter_f = m.funcLocalIntermediate();
    const u32 stride = q_f + 2 * kv_f; // fused QKV row stride
    const f64 h_r = m.hidden;
    const f64 q_r = m.localQDim();
    const f64 kv_r = m.localKvDim();
    const f64 s_r = q_r + 2 * kv_r;
    const f64 inter_r = m.localIntermediate();
    const bool split = usesAttnSplit(bs);

    // ---- temps, in a strict deterministic order -----------------------
    const u64 row_f = static_cast<u64>(bs) * h_f * 4;
    const u64 row_r = static_cast<u64>(bs) * static_cast<u64>(h_r) * 2;
    const u64 qrow_f = static_cast<u64>(bs) * q_f * 4;
    const u64 qrow_r = static_cast<u64>(bs) * static_cast<u64>(q_r) * 2;
    MEDUSA_ASSIGN_OR_RETURN(DeviceAddr hidden, temp(row_f, row_r));
    MEDUSA_ASSIGN_OR_RETURN(DeviceAddr normed, temp(row_f, row_r));
    MEDUSA_ASSIGN_OR_RETURN(
        DeviceAddr qkv,
        temp(static_cast<u64>(bs) * stride * 4,
             static_cast<u64>(bs) * static_cast<u64>(s_r) * 2));
    MEDUSA_ASSIGN_OR_RETURN(DeviceAddr attn_out, temp(qrow_f, qrow_r));
    DeviceAddr attn_partial = 0;
    if (split) {
        MEDUSA_ASSIGN_OR_RETURN(attn_partial, temp(qrow_f, qrow_r));
    }
    MEDUSA_ASSIGN_OR_RETURN(DeviceAddr o_out, temp(row_f, row_r));
    const bool is_falcon = m.arch == ModelArch::kFalcon;
    const u64 gu_width = is_falcon ? inter_f : 2 * inter_f;
    const f64 gu_width_r = is_falcon ? inter_r : 2.0 * inter_r;
    MEDUSA_ASSIGN_OR_RETURN(
        DeviceAddr gu,
        temp(static_cast<u64>(bs) * gu_width * 4,
             static_cast<u64>(bs) * static_cast<u64>(gu_width_r) * 2));
    MEDUSA_ASSIGN_OR_RETURN(
        DeviceAddr act,
        temp(static_cast<u64>(bs) * inter_f * 4,
             static_cast<u64>(bs) * static_cast<u64>(inter_r) * 2));
    MEDUSA_ASSIGN_OR_RETURN(DeviceAddr mlp_out, temp(row_f, row_r));

    const DeviceAddr q_ptr = qkv;
    const DeviceAddr k_ptr = qkv + static_cast<u64>(q_f) * 4;
    const DeviceAddr v_ptr = qkv + (static_cast<u64>(q_f) + kv_f) * 4;
    const f32 scale = 1.0f / std::sqrt(static_cast<f32>(f.head_dim));

    auto launch = [&](simcuda::KernelId id, ParamsBuilder &pb,
                      TimingInfo t) {
        return stream.launch(id, pb.view(), t);
    };
    // The tensor-parallel collective: sum partial projections across
    // ranks (payload: the fp16 activation row block).
    auto all_reduce = [&](DeviceAddr buf) -> Status {
        if (world == 1) {
            return Status::ok();
        }
        TimingInfo t;
        t.bytes = static_cast<f64>(bs) * h_r * 2.0;
        ParamsBuilder pb;
        pb.ptr(buf)
            .i32(static_cast<i32>(bs * h_f))
            .i32(static_cast<i32>(m.tp_rank))
            .i32(static_cast<i32>(world));
        return launch(k.all_reduce_sum, pb, t);
    };

    // ---- embedding -----------------------------------------------------
    if (with_embed_head) {
        ParamsBuilder pb;
        pb.ptr(weights_->embed)
            .ptr(bufs_->token_ids)
            .ptr(hidden)
            .i32(static_cast<i32>(bs))
            .i32(static_cast<i32>(h_f))
            .i32(static_cast<i32>(f.vocab));
        MEDUSA_RETURN_IF_ERROR(
            launch(k.embedding_lookup, pb, elementwiseTiming(bs, h_r)));
    }

    // ---- decoder layers --------------------------------------------------
    for (u32 l = layer_begin; l < layer_end; ++l) {
        const LayerWeights &lw = weights_->layers.at(l);

        // Pre-attention normalization.
        if (is_falcon) {
            ParamsBuilder pb;
            pb.ptr(hidden)
                .ptr(lw.input_norm)
                .ptr(lw.input_norm_bias)
                .ptr(normed)
                .i32(static_cast<i32>(bs))
                .i32(static_cast<i32>(h_f))
                .f32(kNormEps);
            MEDUSA_RETURN_IF_ERROR(
                launch(k.layernorm, pb, elementwiseTiming(bs, h_r)));
        } else {
            ParamsBuilder pb;
            pb.ptr(hidden)
                .ptr(lw.input_norm)
                .ptr(normed)
                .i32(static_cast<i32>(bs))
                .i32(static_cast<i32>(h_f))
                .f32(kNormEps);
            MEDUSA_RETURN_IF_ERROR(
                launch(k.rmsnorm, pb, elementwiseTiming(bs, h_r)));
        }

        // Fused QKV projection.
        {
            ParamsBuilder pb;
            pb.ptr(normed)
                .ptr(lw.qkv_w)
                .ptr(qkv)
                .i32(static_cast<i32>(bs))
                .i32(static_cast<i32>(stride))
                .i32(static_cast<i32>(h_f));
            MEDUSA_RETURN_IF_ERROR(
                launch(k.gemm_128x128, pb, gemmTiming(bs, s_r, h_r)));
        }
        if (m.arch == ModelArch::kQwen) {
            ParamsBuilder pb;
            pb.ptr(qkv)
                .ptr(lw.qkv_b)
                .i32(static_cast<i32>(bs))
                .i32(static_cast<i32>(stride));
            MEDUSA_RETURN_IF_ERROR(
                launch(k.bias_add, pb, elementwiseTiming(bs, s_r)));
        }

        // Rotary embedding on q and k (interior pointers into qkv).
        {
            ParamsBuilder pb;
            pb.ptr(q_ptr)
                .ptr(k_ptr)
                .ptr(bufs_->positions)
                .i32(static_cast<i32>(bs))
                .i32(static_cast<i32>(heads_l))
                .i32(static_cast<i32>(kvh_l))
                .i32(static_cast<i32>(f.head_dim))
                .i32(static_cast<i32>(stride))
                .i32(static_cast<i32>(stride))
                .f32(kRopeTheta);
            MEDUSA_RETURN_IF_ERROR(
                launch(k.rope, pb, elementwiseTiming(bs, q_r + kv_r)));
        }

        // Append K/V to the paged cache.
        {
            ParamsBuilder pb;
            pb.ptr(k_ptr)
                .ptr(v_ptr)
                .ptr(kv_->k_layers.at(l))
                .ptr(kv_->v_layers.at(l))
                .ptr(bufs_->slot_mapping)
                .i32(static_cast<i32>(bs))
                .i32(static_cast<i32>(kvh_l))
                .i32(static_cast<i32>(f.head_dim))
                .i32(static_cast<i32>(stride));
            MEDUSA_RETURN_IF_ERROR(
                launch(k.kv_write, pb, elementwiseTiming(bs, 2 * kv_r)));
        }

        // Paged decode attention (split into two kernels at large bs).
        {
            TimingInfo t;
            t.flops = 4.0 * bs * kRepresentativeCtx * q_r;
            t.bytes = 2.0 * bs * kRepresentativeCtx * kv_r * 2.0;
            ParamsBuilder pb;
            pb.ptr(q_ptr)
                .ptr(kv_->k_layers.at(l))
                .ptr(kv_->v_layers.at(l))
                .ptr(bufs_->block_tables)
                .ptr(bufs_->seq_lens)
                .ptr(split ? attn_partial : attn_out)
                .i32(static_cast<i32>(bs))
                .i32(static_cast<i32>(heads_l))
                .i32(static_cast<i32>(kvh_l))
                .i32(static_cast<i32>(f.head_dim))
                .i32(static_cast<i32>(f.block_size))
                .i32(static_cast<i32>(bufs_->max_blocks_per_seq))
                .i32(static_cast<i32>(stride))
                .i64(static_cast<i64>(simcuda::kStreamTagPrefix | bs))
                .f32(scale);
            MEDUSA_RETURN_IF_ERROR(
                launch(k.paged_attention_decode, pb, t));
            if (split) {
                ParamsBuilder pb2;
                pb2.ptr(attn_partial)
                    .ptr(attn_out)
                    .i32(static_cast<i32>(bs * q_f));
                MEDUSA_RETURN_IF_ERROR(launch(k.paged_attention_reduce,
                                              pb2,
                                              elementwiseTiming(bs, q_r)));
            }
        }

        // Attention output projection — the split-K GEMM with the
        // persistent semaphore workspaces.
        {
            MEDUSA_ASSIGN_OR_RETURN(auto sems, semaphores(l));
            ParamsBuilder pb;
            pb.ptr(sems.first)
                .ptr(sems.second)
                .ptr(attn_out)
                .ptr(lw.o_proj)
                .ptr(o_out)
                .i32(static_cast<i32>(bs))
                .i32(static_cast<i32>(h_f))
                .i32(static_cast<i32>(q_f));
            MEDUSA_RETURN_IF_ERROR(
                launch(k.gemm_splitk, pb, gemmTiming(bs, h_r, q_r)));
        }
        // TP: sum the partial attention projections across ranks.
        MEDUSA_RETURN_IF_ERROR(all_reduce(o_out));

        if (is_falcon) {
            // Parallel MLP off the same normed input.
            {
                ParamsBuilder pb;
                pb.ptr(normed)
                    .ptr(lw.mlp_up)
                    .ptr(gu)
                    .i32(static_cast<i32>(bs))
                    .i32(static_cast<i32>(inter_f))
                    .i32(static_cast<i32>(h_f));
                MEDUSA_RETURN_IF_ERROR(launch(
                    k.gemm_64x64, pb,
                    gemmTiming(bs, inter_r, h_r)));
            }
            {
                ParamsBuilder pb;
                pb.ptr(gu).ptr(act).i32(
                    static_cast<i32>(bs * inter_f));
                MEDUSA_RETURN_IF_ERROR(launch(
                    k.gelu, pb, elementwiseTiming(bs, inter_r)));
            }
            {
                ParamsBuilder pb;
                pb.ptr(act)
                    .ptr(lw.mlp_down)
                    .ptr(mlp_out)
                    .i32(static_cast<i32>(bs))
                    .i32(static_cast<i32>(h_f))
                    .i32(static_cast<i32>(inter_f));
                MEDUSA_RETURN_IF_ERROR(launch(
                    k.gemm_64x64, pb,
                    gemmTiming(bs, h_r, inter_r)));
            }
            // TP: sum the partial MLP projections across ranks.
            MEDUSA_RETURN_IF_ERROR(all_reduce(mlp_out));
            ParamsBuilder pb_a;
            pb_a.ptr(hidden).ptr(o_out).i32(static_cast<i32>(bs * h_f));
            MEDUSA_RETURN_IF_ERROR(
                launch(k.residual_add, pb_a, elementwiseTiming(bs, h_r)));
            ParamsBuilder pb_b;
            pb_b.ptr(hidden).ptr(mlp_out).i32(
                static_cast<i32>(bs * h_f));
            MEDUSA_RETURN_IF_ERROR(
                launch(k.residual_add, pb_b, elementwiseTiming(bs, h_r)));
        } else {
            ParamsBuilder pb_a;
            pb_a.ptr(hidden).ptr(o_out).i32(static_cast<i32>(bs * h_f));
            MEDUSA_RETURN_IF_ERROR(
                launch(k.residual_add, pb_a, elementwiseTiming(bs, h_r)));
            {
                ParamsBuilder pb;
                pb.ptr(hidden)
                    .ptr(lw.post_norm)
                    .ptr(normed)
                    .i32(static_cast<i32>(bs))
                    .i32(static_cast<i32>(h_f))
                    .f32(kNormEps);
                MEDUSA_RETURN_IF_ERROR(
                    launch(k.rmsnorm, pb, elementwiseTiming(bs, h_r)));
            }
            {
                ParamsBuilder pb;
                pb.ptr(normed)
                    .ptr(lw.gate_up)
                    .ptr(gu)
                    .i32(static_cast<i32>(bs))
                    .i32(static_cast<i32>(2 * inter_f))
                    .i32(static_cast<i32>(h_f));
                MEDUSA_RETURN_IF_ERROR(launch(
                    k.gemm_64x64, pb,
                    gemmTiming(bs, 2.0 * inter_r, h_r)));
            }
            {
                ParamsBuilder pb;
                pb.ptr(gu)
                    .ptr(act)
                    .i32(static_cast<i32>(bs))
                    .i32(static_cast<i32>(inter_f));
                MEDUSA_RETURN_IF_ERROR(launch(
                    k.silu_mul, pb,
                    elementwiseTiming(bs, inter_r)));
            }
            {
                ParamsBuilder pb;
                pb.ptr(act)
                    .ptr(lw.down)
                    .ptr(mlp_out)
                    .i32(static_cast<i32>(bs))
                    .i32(static_cast<i32>(h_f))
                    .i32(static_cast<i32>(inter_f));
                MEDUSA_RETURN_IF_ERROR(launch(
                    k.gemm_64x64, pb,
                    gemmTiming(bs, h_r, inter_r)));
            }
            // TP: sum the partial MLP projections across ranks.
            MEDUSA_RETURN_IF_ERROR(all_reduce(mlp_out));
            ParamsBuilder pb_b;
            pb_b.ptr(hidden).ptr(mlp_out).i32(
                static_cast<i32>(bs * h_f));
            MEDUSA_RETURN_IF_ERROR(
                launch(k.residual_add, pb_b, elementwiseTiming(bs, h_r)));
        }
    }

    // ---- final norm + LM head ------------------------------------------
    if (with_embed_head) {
        // With the batched LM head (§8 indirect-pointer variant), the
        // final norm writes into a persistent workspace so the device
        // pointer array can reference a stable buffer across replays.
        DeviceAddr norm_out = normed;
        DeviceAddr ptr_array = 0;
        if (m.batched_lm_head) {
            MEDUSA_ASSIGN_OR_RETURN(auto ws, lmWorkspace(bs));
            norm_out = ws.first;
            ptr_array = ws.second;
        }
        if (is_falcon) {
            ParamsBuilder pb;
            pb.ptr(hidden)
                .ptr(weights_->final_norm)
                .ptr(weights_->final_norm_bias)
                .ptr(norm_out)
                .i32(static_cast<i32>(bs))
                .i32(static_cast<i32>(h_f))
                .f32(kNormEps);
            MEDUSA_RETURN_IF_ERROR(
                launch(k.layernorm, pb, elementwiseTiming(bs, h_r)));
        } else {
            ParamsBuilder pb;
            pb.ptr(hidden)
                .ptr(weights_->final_norm)
                .ptr(norm_out)
                .i32(static_cast<i32>(bs))
                .i32(static_cast<i32>(h_f))
                .f32(kNormEps);
            MEDUSA_RETURN_IF_ERROR(
                launch(k.rmsnorm, pb, elementwiseTiming(bs, h_r)));
        }
        if (m.batched_lm_head) {
            ParamsBuilder pb;
            pb.ptr(ptr_array)
                .i32(static_cast<i32>(bs))
                .i32(static_cast<i32>(f.vocab))
                .i32(static_cast<i32>(h_f));
            MEDUSA_RETURN_IF_ERROR(launch(k.gemm_batched, pb,
                                          gemmTiming(bs, m.vocab, h_r)));
        } else {
            ParamsBuilder pb;
            pb.ptr(norm_out)
                .ptr(weights_->lm_head)
                .ptr(bufs_->logits)
                .i32(static_cast<i32>(bs))
                .i32(static_cast<i32>(f.vocab))
                .i32(static_cast<i32>(h_f));
            MEDUSA_RETURN_IF_ERROR(
                launch(k.gemm_lmhead, pb, gemmTiming(bs, m.vocab, h_r)));
        }
    }

    return releaseTemps();
}

Status
ForwardPass::prefill(Stream &stream, u32 bs, u32 n_func, u32 n_real)
{
    const BuiltinKernels &k = BuiltinKernels::get();
    const ModelConfig &m = *model_;
    const FuncDims &f = m.func;
    const u32 h_f = f.hidden;
    const u32 world = m.tp_world;
    const u32 q_f = m.funcLocalQDim();
    const u32 kv_f = m.funcLocalKvDim();
    const u32 heads_l = m.funcLocalHeads();
    const u32 kvh_l = m.funcLocalKvHeads();
    const u32 inter_f = m.funcLocalIntermediate();
    const u32 stride = q_f + 2 * kv_f;
    const f64 h_r = m.hidden;
    const f64 q_r = m.localQDim();
    const f64 kv_r = m.localKvDim();
    const f64 s_r = q_r + 2 * kv_r;
    const f64 inter_r = m.localIntermediate();
    const f64 n_r = n_real;
    const u32 n = n_func;
    const bool is_falcon = m.arch == ModelArch::kFalcon;

    const u64 row_f = static_cast<u64>(n) * h_f * 4;
    const u64 row_r = static_cast<u64>(n_r) * static_cast<u64>(h_r) * 2;
    MEDUSA_ASSIGN_OR_RETURN(DeviceAddr hidden, temp(row_f, row_r));
    MEDUSA_ASSIGN_OR_RETURN(DeviceAddr normed, temp(row_f, row_r));
    MEDUSA_ASSIGN_OR_RETURN(
        DeviceAddr qkv,
        temp(static_cast<u64>(n) * stride * 4,
             static_cast<u64>(n_r) * static_cast<u64>(s_r) * 2));
    MEDUSA_ASSIGN_OR_RETURN(
        DeviceAddr attn_out,
        temp(static_cast<u64>(n) * q_f * 4,
             static_cast<u64>(n_r) * static_cast<u64>(q_r) * 2));
    const u64 gu_width = is_falcon ? inter_f : 2 * inter_f;
    const f64 gu_width_r = is_falcon ? inter_r : 2.0 * inter_r;
    MEDUSA_ASSIGN_OR_RETURN(
        DeviceAddr gu,
        temp(static_cast<u64>(n) * gu_width * 4,
             static_cast<u64>(n_r) * static_cast<u64>(gu_width_r) * 2));
    MEDUSA_ASSIGN_OR_RETURN(
        DeviceAddr act,
        temp(static_cast<u64>(n) * inter_f * 4,
             static_cast<u64>(n_r) * static_cast<u64>(inter_r) * 2));
    MEDUSA_ASSIGN_OR_RETURN(DeviceAddr mlp_out, temp(row_f, row_r));

    const DeviceAddr q_ptr = qkv;
    const DeviceAddr k_ptr = qkv + static_cast<u64>(q_f) * 4;
    const DeviceAddr v_ptr = qkv + (static_cast<u64>(q_f) + kv_f) * 4;
    const f32 scale = 1.0f / std::sqrt(static_cast<f32>(f.head_dim));

    auto launch = [&](simcuda::KernelId id, ParamsBuilder &pb,
                      TimingInfo t) {
        return stream.launch(id, pb.view(), t);
    };
    // TP collective (a rank-local no-op when launched eagerly; prefill
    // is eager only for warm-up/profiling, whose outputs are
    // discarded).
    auto all_reduce = [&](DeviceAddr buf) -> Status {
        if (world == 1) {
            return Status::ok();
        }
        TimingInfo t;
        t.bytes = static_cast<f64>(n_r) * h_r * 2.0;
        ParamsBuilder pb;
        pb.ptr(buf)
            .i32(static_cast<i32>(n * h_f))
            .i32(static_cast<i32>(m.tp_rank))
            .i32(static_cast<i32>(world));
        return launch(k.all_reduce_sum, pb, t);
    };

    {
        ParamsBuilder pb;
        pb.ptr(weights_->embed)
            .ptr(bufs_->token_ids)
            .ptr(hidden)
            .i32(static_cast<i32>(n))
            .i32(static_cast<i32>(h_f))
            .i32(static_cast<i32>(f.vocab));
        MEDUSA_RETURN_IF_ERROR(
            launch(k.embedding_lookup, pb, elementwiseTiming(n_r, h_r)));
    }

    for (u32 l = 0; l < m.num_layers; ++l) {
        const LayerWeights &lw = weights_->layers.at(l);
        if (is_falcon) {
            ParamsBuilder pb;
            pb.ptr(hidden)
                .ptr(lw.input_norm)
                .ptr(lw.input_norm_bias)
                .ptr(normed)
                .i32(static_cast<i32>(n))
                .i32(static_cast<i32>(h_f))
                .f32(kNormEps);
            MEDUSA_RETURN_IF_ERROR(
                launch(k.layernorm, pb, elementwiseTiming(n_r, h_r)));
        } else {
            ParamsBuilder pb;
            pb.ptr(hidden)
                .ptr(lw.input_norm)
                .ptr(normed)
                .i32(static_cast<i32>(n))
                .i32(static_cast<i32>(h_f))
                .f32(kNormEps);
            MEDUSA_RETURN_IF_ERROR(
                launch(k.rmsnorm, pb, elementwiseTiming(n_r, h_r)));
        }
        {
            ParamsBuilder pb;
            pb.ptr(normed)
                .ptr(lw.qkv_w)
                .ptr(qkv)
                .i32(static_cast<i32>(n))
                .i32(static_cast<i32>(stride))
                .i32(static_cast<i32>(h_f));
            MEDUSA_RETURN_IF_ERROR(
                launch(k.gemm_128x128, pb, gemmTiming(n_r, s_r, h_r)));
        }
        if (m.arch == ModelArch::kQwen) {
            ParamsBuilder pb;
            pb.ptr(qkv)
                .ptr(lw.qkv_b)
                .i32(static_cast<i32>(n))
                .i32(static_cast<i32>(stride));
            MEDUSA_RETURN_IF_ERROR(
                launch(k.bias_add, pb, elementwiseTiming(n_r, s_r)));
        }
        {
            ParamsBuilder pb;
            pb.ptr(q_ptr)
                .ptr(k_ptr)
                .ptr(bufs_->positions)
                .i32(static_cast<i32>(n))
                .i32(static_cast<i32>(heads_l))
                .i32(static_cast<i32>(kvh_l))
                .i32(static_cast<i32>(f.head_dim))
                .i32(static_cast<i32>(stride))
                .i32(static_cast<i32>(stride))
                .f32(kRopeTheta);
            MEDUSA_RETURN_IF_ERROR(
                launch(k.rope, pb, elementwiseTiming(n_r, q_r + kv_r)));
        }
        {
            ParamsBuilder pb;
            pb.ptr(k_ptr)
                .ptr(v_ptr)
                .ptr(kv_->k_layers.at(l))
                .ptr(kv_->v_layers.at(l))
                .ptr(bufs_->slot_mapping)
                .i32(static_cast<i32>(n))
                .i32(static_cast<i32>(kvh_l))
                .i32(static_cast<i32>(f.head_dim))
                .i32(static_cast<i32>(stride));
            MEDUSA_RETURN_IF_ERROR(
                launch(k.kv_write, pb, elementwiseTiming(n_r, 2 * kv_r)));
        }
        {
            // Varlen causal attention: flops ~ n * avg_ctx.
            TimingInfo t;
            const f64 avg_ctx = n_r / std::max<u32>(bs, 1) / 2.0;
            t.flops = 4.0 * n_r * avg_ctx * q_r;
            t.bytes = 2.0 * n_r * (q_r + 2 * kv_r) * 2.0;
            ParamsBuilder pb;
            pb.ptr(q_ptr)
                .ptr(k_ptr)
                .ptr(v_ptr)
                .ptr(bufs_->seq_starts)
                .ptr(attn_out)
                .i32(static_cast<i32>(bs))
                .i32(static_cast<i32>(heads_l))
                .i32(static_cast<i32>(kvh_l))
                .i32(static_cast<i32>(f.head_dim))
                .i32(static_cast<i32>(stride))
                .f32(scale);
            MEDUSA_RETURN_IF_ERROR(launch(k.attention_prefill, pb, t));
        }
        {
            // Prefill uses the plain GEMM variant for the output
            // projection (different shape regime than decode).
            ParamsBuilder pb;
            pb.ptr(attn_out)
                .ptr(lw.o_proj)
                .ptr(mlp_out)
                .i32(static_cast<i32>(n))
                .i32(static_cast<i32>(h_f))
                .i32(static_cast<i32>(q_f));
            MEDUSA_RETURN_IF_ERROR(
                launch(k.gemm_128x128, pb, gemmTiming(n_r, h_r, q_r)));
        }
        MEDUSA_RETURN_IF_ERROR(all_reduce(mlp_out));
        ParamsBuilder pb_add;
        pb_add.ptr(hidden).ptr(mlp_out).i32(static_cast<i32>(n * h_f));
        MEDUSA_RETURN_IF_ERROR(
            launch(k.residual_add, pb_add, elementwiseTiming(n_r, h_r)));

        if (is_falcon) {
            {
                ParamsBuilder pb;
                pb.ptr(normed)
                    .ptr(lw.mlp_up)
                    .ptr(gu)
                    .i32(static_cast<i32>(n))
                    .i32(static_cast<i32>(inter_f))
                    .i32(static_cast<i32>(h_f));
                MEDUSA_RETURN_IF_ERROR(launch(
                    k.gemm_64x64, pb,
                    gemmTiming(n_r, inter_r, h_r)));
            }
            {
                ParamsBuilder pb;
                pb.ptr(gu).ptr(act).i32(
                    static_cast<i32>(n * inter_f));
                MEDUSA_RETURN_IF_ERROR(launch(
                    k.gelu, pb, elementwiseTiming(n_r, inter_r)));
            }
            {
                ParamsBuilder pb;
                pb.ptr(act)
                    .ptr(lw.mlp_down)
                    .ptr(mlp_out)
                    .i32(static_cast<i32>(n))
                    .i32(static_cast<i32>(h_f))
                    .i32(static_cast<i32>(inter_f));
                MEDUSA_RETURN_IF_ERROR(launch(
                    k.gemm_64x64, pb,
                    gemmTiming(n_r, h_r, inter_r)));
            }
            MEDUSA_RETURN_IF_ERROR(all_reduce(mlp_out));
        } else {
            {
                ParamsBuilder pb;
                pb.ptr(hidden)
                    .ptr(lw.post_norm)
                    .ptr(normed)
                    .i32(static_cast<i32>(n))
                    .i32(static_cast<i32>(h_f))
                    .f32(kNormEps);
                MEDUSA_RETURN_IF_ERROR(
                    launch(k.rmsnorm, pb, elementwiseTiming(n_r, h_r)));
            }
            {
                ParamsBuilder pb;
                pb.ptr(normed)
                    .ptr(lw.gate_up)
                    .ptr(gu)
                    .i32(static_cast<i32>(n))
                    .i32(static_cast<i32>(2 * inter_f))
                    .i32(static_cast<i32>(h_f));
                MEDUSA_RETURN_IF_ERROR(launch(
                    k.gemm_64x64, pb,
                    gemmTiming(n_r, 2.0 * inter_r, h_r)));
            }
            {
                ParamsBuilder pb;
                pb.ptr(gu)
                    .ptr(act)
                    .i32(static_cast<i32>(n))
                    .i32(static_cast<i32>(inter_f));
                MEDUSA_RETURN_IF_ERROR(launch(
                    k.silu_mul, pb,
                    elementwiseTiming(n_r, inter_r)));
            }
            {
                ParamsBuilder pb;
                pb.ptr(act)
                    .ptr(lw.down)
                    .ptr(mlp_out)
                    .i32(static_cast<i32>(n))
                    .i32(static_cast<i32>(h_f))
                    .i32(static_cast<i32>(inter_f));
                MEDUSA_RETURN_IF_ERROR(launch(
                    k.gemm_64x64, pb,
                    gemmTiming(n_r, h_r, inter_r)));
            }
            MEDUSA_RETURN_IF_ERROR(all_reduce(mlp_out));
        }
        ParamsBuilder pb_add2;
        pb_add2.ptr(hidden).ptr(mlp_out).i32(static_cast<i32>(n * h_f));
        MEDUSA_RETURN_IF_ERROR(
            launch(k.residual_add, pb_add2, elementwiseTiming(n_r, h_r)));
    }

    if (is_falcon) {
        ParamsBuilder pb;
        pb.ptr(hidden)
            .ptr(weights_->final_norm)
            .ptr(weights_->final_norm_bias)
            .ptr(normed)
            .i32(static_cast<i32>(n))
            .i32(static_cast<i32>(h_f))
            .f32(kNormEps);
        MEDUSA_RETURN_IF_ERROR(
            launch(k.layernorm, pb, elementwiseTiming(n_r, h_r)));
    } else {
        ParamsBuilder pb;
        pb.ptr(hidden)
            .ptr(weights_->final_norm)
            .ptr(normed)
            .i32(static_cast<i32>(n))
            .i32(static_cast<i32>(h_f))
            .f32(kNormEps);
        MEDUSA_RETURN_IF_ERROR(
            launch(k.rmsnorm, pb, elementwiseTiming(n_r, h_r)));
    }
    {
        ParamsBuilder pb;
        pb.ptr(normed)
            .ptr(weights_->lm_head)
            .ptr(bufs_->logits)
            .i32(static_cast<i32>(n))
            .i32(static_cast<i32>(f.vocab))
            .i32(static_cast<i32>(h_f));
        MEDUSA_RETURN_IF_ERROR(
            launch(k.gemm_lmhead, pb, gemmTiming(n_r, m.vocab, h_r)));
    }

    return releaseTemps();
}

u64
ForwardPass::decodeNodeCount(const ModelConfig &m, u32 bs)
{
    u64 per_layer = 0;
    switch (m.arch) {
      case ModelArch::kLlama:
        // norm, qkv, rope, kv_write, attn, o_proj, add, norm, gate_up,
        // silu, down, add
        per_layer = 12;
        break;
      case ModelArch::kQwen:
        per_layer = 13; // + qkv bias
        break;
      case ModelArch::kFalcon:
        // ln, qkv, rope, kv_write, attn, dense, mlp_up, gelu, mlp_down,
        // add, add
        per_layer = 11;
        break;
    }
    if (usesAttnSplit(bs)) {
        ++per_layer; // split-K attention reduce node
    }
    if (m.tp_world > 1) {
        per_layer += 2; // the two all-reduce collectives per layer
    }
    return static_cast<u64>(m.num_layers) * per_layer +
           3; // embed + final norm + lm head
}

} // namespace medusa::llm
