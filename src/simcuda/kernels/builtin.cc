#include "simcuda/kernels/builtin.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "simcuda/memory.h"

namespace medusa::simcuda {

namespace {

using PK = ParamKind;

/** Shorthand to fetch a mutable float span or propagate the error. */
#define SPAN_F32(var, addr, count)                                           \
    MEDUSA_ASSIGN_OR_RETURN(f32 *var, mem.f32Span((addr), (count)))

#define SPAN_I32(var, addr, count)                                           \
    MEDUSA_ASSIGN_OR_RETURN(i32 *var, mem.i32Span((addr), (count)))

/** Independent sum chains one interleaved pass advances together. */
constexpr i32 kChains = 8;

/**
 * sums[i] = +0.0f; for d in 0..len-1: sums[i] = sums[i] + term(i, d),
 * for every i < kChains. Each chain keeps the serial order and
 * rounding of the one-at-a-time loop; interleaving only overlaps the
 * latency of chains that never mix (DESIGN.md, "Functional kernel
 * arithmetic contract").
 */
template <typename Term>
std::array<f32, kChains>
chainSums(i32 len, const Term &term)
{
    std::array<f32, kChains> sums{};
    for (i32 d = 0; d < len; ++d) {
#pragma GCC unroll 8
        for (i32 i = 0; i < kChains; ++i) {
            sums[i] = sums[i] + term(i, d);
        }
    }
    return sums;
}

/**
 * Chain i of the block starting at @p first takes index first + i, or
 * @p first again once that reaches @p end, so a ragged last block
 * reads only valid rows; its extra sums are discarded.
 */
inline i32
chainIndex(i32 first, i32 i, i32 end)
{
    return first + i < end ? first + i : first;
}

/** The @p a_count floats at @p a and @p b_count at @p b share no byte. */
bool
disjoint(const f32 *a, u64 a_count, const f32 *b, u64 b_count)
{
    const auto x = reinterpret_cast<std::uintptr_t>(a);
    const auto y = reinterpret_cast<std::uintptr_t>(b);
    return x + a_count * sizeof(f32) <= y || y + b_count * sizeof(f32) <= x;
}

/**
 * The rows a row-wise kernel computes, ascending (DESIGN.md, "Duplicate
 * rows"). Row t of the @p n contiguous @p width-float input rows at
 * @p in is left out when @p reuse holds and its bytes equal row t - 1's;
 * memcmp keeps -0.0 apart from +0.0 and one NaN payload from another.
 * Empty rows are all kept.
 */
std::vector<u64>
distinctRows(const f32 *in, u64 n, u64 width, bool reuse)
{
    const bool compare = reuse && width > 0;
    std::vector<u64> rows;
    rows.reserve(n);
    for (u64 t = 0; t < n; ++t) {
        const f32 *row = in + t * width;
        // The inlined first-float compare tells most distinct rows
        // apart without a memcmp call.
        if (!compare || t == 0 ||
            std::memcmp(row, row - width, sizeof(f32)) != 0 ||
            std::memcmp(row, row - width, width * sizeof(f32)) != 0) {
            rows.push_back(t);
        }
    }
    return rows;
}

/**
 * Gives every row distinctRows() left out the output of the computed
 * row its run starts with: out rows are @p width floats, @p n of them.
 */
void
copyDuplicateRows(f32 *out, u64 width, u64 n, const std::vector<u64> &rows)
{
    for (std::size_t j = 0; j < rows.size(); ++j) {
        const u64 end = j + 1 < rows.size() ? rows[j + 1] : n;
        const f32 *src = out + rows[j] * width;
        for (u64 t = rows[j] + 1; t < end; ++t) {
            std::copy_n(src, width, out + t * width);
        }
    }
}

// ---------------------------------------------------------------- torch

/**
 * out[t, :] = weight[ids[t] % vocab, :]
 * params: weight*, ids*, out*, n_tokens, hidden, vocab
 */
Status
embeddingLookup(DeviceMemoryManager &mem, const KernelArgs &args)
{
    const i32 n = args.i32At(3);
    const i32 h = args.i32At(4);
    const i32 vocab = args.i32At(5);
    if (n <= 0 || h <= 0 || vocab <= 0) {
        return invalidArgument("bad embedding dims");
    }
    SPAN_F32(weight, args.ptrAt(0), static_cast<u64>(vocab) * h);
    SPAN_I32(ids, args.ptrAt(1), static_cast<u64>(n));
    SPAN_F32(out, args.ptrAt(2), static_cast<u64>(n) * h);
    for (i32 t = 0; t < n; ++t) {
        const i32 id = ((ids[t] % vocab) + vocab) % vocab;
        for (i32 d = 0; d < h; ++d) {
            out[t * h + d] = weight[id * h + d];
        }
    }
    return Status::ok();
}

/**
 * RMS normalization. params: in*, weight*, out*, n, h, eps
 */
Status
rmsNorm(DeviceMemoryManager &mem, const KernelArgs &args)
{
    const i32 n = args.i32At(3);
    const i32 h = args.i32At(4);
    const f32 eps = args.f32At(5);
    if (n < 0 || h < 0) {
        return invalidArgument("rmsnorm: bad dims");
    }
    const u64 size = static_cast<u64>(n) * h;
    SPAN_F32(in, args.ptrAt(0), size);
    SPAN_F32(weight, args.ptrAt(1), static_cast<u64>(h));
    SPAN_F32(out, args.ptrAt(2), size);
    const bool reuse =
        disjoint(out, size, in, size) && disjoint(out, size, weight, h);
    const auto rows = distinctRows(in, n, h, reuse);
    const i32 m = static_cast<i32>(rows.size());
    for (i32 j0 = 0; j0 < m; j0 += kChains) {
        const f32 *xs[kChains];
        for (i32 i = 0; i < kChains; ++i) {
            xs[i] = in + rows[chainIndex(j0, i, m)] * h;
        }
        const auto ss = chainSums(
            h, [&](i32 i, i32 d) { return xs[i][d] * xs[i][d]; });
        for (i32 i = 0; i < std::min(kChains, m - j0); ++i) {
            const f32 *x = xs[i];
            f32 *y = out + rows[j0 + i] * h;
            const f32 inv =
                1.0f / std::sqrt(ss[i] / static_cast<f32>(h) + eps);
            for (i32 d = 0; d < h; ++d) {
                y[d] = x[d] * inv * weight[d];
            }
        }
    }
    copyDuplicateRows(out, h, n, rows);
    return Status::ok();
}

/**
 * LayerNorm with bias (Falcon). params: in*, weight*, bias*, out*, n, h,
 * eps
 */
Status
layerNorm(DeviceMemoryManager &mem, const KernelArgs &args)
{
    const i32 n = args.i32At(4);
    const i32 h = args.i32At(5);
    const f32 eps = args.f32At(6);
    if (n < 0 || h < 0) {
        return invalidArgument("layernorm: bad dims");
    }
    const u64 size = static_cast<u64>(n) * h;
    SPAN_F32(in, args.ptrAt(0), size);
    SPAN_F32(weight, args.ptrAt(1), static_cast<u64>(h));
    SPAN_F32(bias, args.ptrAt(2), static_cast<u64>(h));
    SPAN_F32(out, args.ptrAt(3), size);
    const bool reuse = disjoint(out, size, in, size) &&
                       disjoint(out, size, weight, h) &&
                       disjoint(out, size, bias, h);
    const auto rows = distinctRows(in, n, h, reuse);
    const i32 m = static_cast<i32>(rows.size());
    for (i32 j0 = 0; j0 < m; j0 += kChains) {
        const f32 *xs[kChains];
        for (i32 i = 0; i < kChains; ++i) {
            xs[i] = in + rows[chainIndex(j0, i, m)] * h;
        }
        auto mean = chainSums(h, [&](i32 i, i32 d) { return xs[i][d]; });
        for (f32 &mu : mean) {
            mu /= static_cast<f32>(h);
        }
        const auto sq = chainSums(h, [&](i32 i, i32 d) {
            const f32 c = xs[i][d] - mean[i];
            return c * c;
        });
        for (i32 i = 0; i < std::min(kChains, m - j0); ++i) {
            const f32 *x = xs[i];
            f32 *y = out + rows[j0 + i] * h;
            const f32 var = sq[i] / static_cast<f32>(h);
            const f32 inv = 1.0f / std::sqrt(var + eps);
            for (i32 d = 0; d < h; ++d) {
                y[d] = (x[d] - mean[i]) * inv * weight[d] + bias[d];
            }
        }
    }
    copyDuplicateRows(out, h, n, rows);
    return Status::ok();
}

/** params: inout*, bias*, n, dim */
Status
biasAdd(DeviceMemoryManager &mem, const KernelArgs &args)
{
    const i32 n = args.i32At(2);
    const i32 dim = args.i32At(3);
    if (n < 0 || dim < 0) {
        return invalidArgument("bias_add: bad dims");
    }
    SPAN_F32(inout, args.ptrAt(0), static_cast<u64>(n) * dim);
    SPAN_F32(bias, args.ptrAt(1), static_cast<u64>(dim));
    for (i32 t = 0; t < n; ++t) {
        for (i32 d = 0; d < dim; ++d) {
            inout[t * dim + d] += bias[d];
        }
    }
    return Status::ok();
}

/**
 * SwiGLU activation: out = silu(gate) * up where the input packs
 * [gate | up] along the feature dim. params: gate_up*, out*, n, inter
 */
Status
siluMul(DeviceMemoryManager &mem, const KernelArgs &args)
{
    const i32 n = args.i32At(2);
    const i32 inter = args.i32At(3);
    if (n < 0 || inter < 0) {
        return invalidArgument("silu_mul: bad dims");
    }
    const u64 in_row = 2ull * inter;
    const u64 out_size = static_cast<u64>(n) * inter;
    SPAN_F32(gu, args.ptrAt(0), n * in_row);
    SPAN_F32(out, args.ptrAt(1), out_size);
    const bool reuse = disjoint(out, out_size, gu, n * in_row);
    const auto rows = distinctRows(gu, n, in_row, reuse);
    for (u64 t : rows) {
        const f32 *gate = gu + t * in_row;
        const f32 *up = gate + inter;
        f32 *y = out + t * inter;
        for (i32 d = 0; d < inter; ++d) {
            const f32 g = gate[d];
            const f32 silu = g / (1.0f + std::exp(-g));
            y[d] = silu * up[d];
        }
    }
    copyDuplicateRows(out, inter, n, rows);
    return Status::ok();
}

/** params: in*, out*, count (tanh-approx GELU) */
Status
gelu(DeviceMemoryManager &mem, const KernelArgs &args)
{
    const i32 count = args.i32At(2);
    if (count < 0) {
        return invalidArgument("gelu: bad dims");
    }
    SPAN_F32(in, args.ptrAt(0), static_cast<u64>(count));
    SPAN_F32(out, args.ptrAt(1), static_cast<u64>(count));
    for (i32 i = 0; i < count; ++i) {
        const f32 x = in[i];
        const f32 c = 0.7978845608f * (x + 0.044715f * x * x * x);
        out[i] = 0.5f * x * (1.0f + std::tanh(c));
    }
    return Status::ok();
}

/** params: inout*, residual*, count */
Status
residualAdd(DeviceMemoryManager &mem, const KernelArgs &args)
{
    const i32 count = args.i32At(2);
    if (count < 0) {
        return invalidArgument("residual_add: bad dims");
    }
    SPAN_F32(inout, args.ptrAt(0), static_cast<u64>(count));
    SPAN_F32(res, args.ptrAt(1), static_cast<u64>(count));
    for (i32 i = 0; i < count; ++i) {
        inout[i] += res[i];
    }
    return Status::ok();
}

/** params: logits*, out_ids*, bs, vocab (greedy sampling) */
Status
sampleArgmax(DeviceMemoryManager &mem, const KernelArgs &args)
{
    const i32 bs = args.i32At(2);
    const i32 vocab = args.i32At(3);
    if (bs < 0 || vocab < 0) {
        return invalidArgument("sample_argmax: bad dims");
    }
    SPAN_F32(logits, args.ptrAt(0), static_cast<u64>(bs) * vocab);
    SPAN_I32(out, args.ptrAt(1), static_cast<u64>(bs));
    for (i32 b = 0; b < bs; ++b) {
        i32 best = 0;
        f32 best_v = -std::numeric_limits<f32>::infinity();
        for (i32 v = 0; v < vocab; ++v) {
            const f32 x = logits[b * vocab + v];
            if (x > best_v) {
                best_v = x;
                best = v;
            }
        }
        out[b] = best;
    }
    return Status::ok();
}

/** params: src*, dst*, count */
Status
copyF32(DeviceMemoryManager &mem, const KernelArgs &args)
{
    const i32 count = args.i32At(2);
    if (count < 0) {
        return invalidArgument("copy_f32: bad dims");
    }
    SPAN_F32(src, args.ptrAt(0), static_cast<u64>(count));
    SPAN_F32(dst, args.ptrAt(1), static_cast<u64>(count));
    for (i32 i = 0; i < count; ++i) {
        dst[i] = src[i];
    }
    return Status::ok();
}

// ----------------------------------------------------------------- attn

/**
 * Rotary position embedding applied in-place to q and k. The q/k
 * pointers may point *into* a fused QKV buffer; @p q_stride/@p k_stride
 * give the row stride in floats.
 * params: q*, k*, pos*, n, q_heads, kv_heads, head_dim, q_stride,
 *         k_stride, theta
 *
 * q and k are each resolved once, over the whole strided extent of
 * their n rows. freq(d) is computed once per launch and cos/sin once
 * per (token, d), then shared by every q and k head: the same
 * expressions on the same float arguments as evaluating them per
 * element, so the results are bit-identical. A token whose position
 * equals the previous token's copies that token's cos/sin row.
 */
Status
rope(DeviceMemoryManager &mem, const KernelArgs &args)
{
    const i32 n = args.i32At(3);
    const i32 qh = args.i32At(4);
    const i32 kvh = args.i32At(5);
    const i32 hd = args.i32At(6);
    const i32 q_stride = args.i32At(7);
    const i32 k_stride = args.i32At(8);
    const f32 theta = args.f32At(9);
    if (n < 0 || qh <= 0 || kvh <= 0 || hd <= 0 || q_stride < 0 ||
        k_stride < 0) {
        return invalidArgument("rope: bad dims");
    }
    SPAN_I32(pos, args.ptrAt(2), static_cast<u64>(n));
    if (n == 0) {
        return Status::ok();
    }
    const u64 last = static_cast<u64>(n - 1);
    SPAN_F32(q, args.ptrAt(0),
             last * q_stride + static_cast<u64>(qh) * hd);
    SPAN_F32(k, args.ptrAt(1),
             last * k_stride + static_cast<u64>(kvh) * hd);
    const i32 half = hd / 2;
    std::vector<f32> freq(static_cast<std::size_t>(half));
    for (i32 d = 0; d < half; ++d) {
        freq[d] = std::pow(theta, -2.0f * static_cast<f32>(d) /
                                      static_cast<f32>(hd));
    }
    // Token t's (cos, sin) pairs start at cos_sin[t * half * 2].
    std::vector<f32> cos_sin(static_cast<std::size_t>(n) * half * 2);
    for (i32 t = 0; t < n; ++t) {
        f32 *cs = cos_sin.data() + static_cast<std::size_t>(t) * half * 2;
        if (t > 0 && pos[t] == pos[t - 1]) {
            std::copy_n(cs - half * 2, half * 2, cs);
            continue;
        }
        for (i32 d = 0; d < half; ++d) {
            const f32 angle = static_cast<f32>(pos[t]) * freq[d];
            cs[2 * d] = std::cos(angle);
            cs[2 * d + 1] = std::sin(angle);
        }
    }
    auto rotate = [&](f32 *base, i32 heads, i32 stride) {
        for (i32 t = 0; t < n; ++t) {
            const f32 *cs =
                cos_sin.data() + static_cast<std::size_t>(t) * half * 2;
            for (i32 head = 0; head < heads; ++head) {
                f32 *v = base + static_cast<u64>(t) * stride +
                         static_cast<u64>(head) * hd;
                for (i32 d = 0; d < half; ++d) {
                    const f32 c = cs[2 * d];
                    const f32 s = cs[2 * d + 1];
                    const f32 x = v[d];
                    const f32 y = v[half + d];
                    v[d] = x * c - y * s;
                    v[half + d] = x * s + y * c;
                }
            }
        }
    };
    rotate(q, qh, q_stride);
    rotate(k, kvh, k_stride);
    return Status::ok();
}

/**
 * Scatter new K/V vectors into the paged cache. k/v point into a fused
 * QKV buffer with @p kv_stride floats between token rows.
 * Cache layout: [slot, kv_heads, head_dim] where
 * slot = block_id * block_size + in-block offset.
 * params: k*, v*, k_cache*, v_cache*, slots*, n, kv_heads, head_dim,
 *         kv_stride
 *
 * k and v are resolved once over their strided extent and the caches
 * once to the end of their backing; each slot is then checked against
 * the cache extent before its row is written.
 */
Status
kvWrite(DeviceMemoryManager &mem, const KernelArgs &args)
{
    const i32 n = args.i32At(5);
    const i32 kvh = args.i32At(6);
    const i32 hd = args.i32At(7);
    const i32 stride = args.i32At(8);
    if (n < 0 || kvh <= 0 || hd <= 0 || stride < 0) {
        return invalidArgument("kv_write: bad dims");
    }
    SPAN_I32(slots, args.ptrAt(4), static_cast<u64>(n));
    if (n == 0) {
        return Status::ok();
    }
    const u64 width = static_cast<u64>(kvh) * hd;
    const u64 last_row = static_cast<u64>(n - 1) * stride;
    SPAN_F32(k, args.ptrAt(0), last_row + width);
    SPAN_F32(v, args.ptrAt(1), last_row + width);
    MEDUSA_ASSIGN_OR_RETURN(std::span<f32> k_cache,
                            mem.f32Tail(args.ptrAt(2)));
    MEDUSA_ASSIGN_OR_RETURN(std::span<f32> v_cache,
                            mem.f32Tail(args.ptrAt(3)));
    const u64 cache_slots =
        std::min(k_cache.size(), v_cache.size()) / width;
    for (i32 t = 0; t < n; ++t) {
        const i32 slot = slots[t];
        if (slot < 0) {
            return invalidArgument("negative KV slot");
        }
        if (static_cast<u64>(slot) >= cache_slots) {
            return invalidArgument("kv_write: KV slot beyond cache extent");
        }
        const f32 *kr = k + static_cast<u64>(t) * stride;
        const f32 *vr = v + static_cast<u64>(t) * stride;
        f32 *kc = k_cache.data() + static_cast<u64>(slot) * width;
        f32 *vc = v_cache.data() + static_cast<u64>(slot) * width;
        for (u64 i = 0; i < width; ++i) {
            kc[i] = kr[i];
            vc[i] = vr[i];
        }
    }
    return Status::ok();
}

/**
 * One query head's attention over @p ctx >= 1 keys:
 *
 *     s_j = (q . key(j)) * scale,  w_j = exp(s_j - max s) / sum exp,
 *     ov[d] = sum_j w_j * value(j)[d]
 *
 * key(j) and value(j) return the head's K and V rows (@p hd floats).
 * Every dot and every ov[d] is a serial chain (over d and over j
 * respectively), eight of them advanced together; the max, the exps
 * and their sum stay one serial pass over j. @p scores holds ctx
 * floats of scratch.
 */
template <typename KeyRow, typename ValueRow>
void
attendHead(const f32 *qv, i32 hd, i32 ctx, f32 scale, const KeyRow &key,
           const ValueRow &value, f32 *scores, f32 *ov)
{
    f32 max_s = -std::numeric_limits<f32>::infinity();
    for (i32 j0 = 0; j0 < ctx; j0 += kChains) {
        const f32 *keys[kChains];
        for (i32 i = 0; i < kChains; ++i) {
            keys[i] = key(chainIndex(j0, i, ctx));
        }
        const auto dots =
            chainSums(hd, [&](i32 i, i32 d) { return qv[d] * keys[i][d]; });
        for (i32 i = 0; i < std::min(kChains, ctx - j0); ++i) {
            scores[j0 + i] = dots[i] * scale;
            max_s = std::max(max_s, scores[j0 + i]);
        }
    }
    f32 denom = 0;
    for (i32 j = 0; j < ctx; ++j) {
        scores[j] = std::exp(scores[j] - max_s);
        denom += scores[j];
    }
    for (i32 j = 0; j < ctx; ++j) {
        scores[j] = scores[j] / denom;
    }
    for (i32 d0 = 0; d0 < hd; d0 += kChains) {
        const auto sums = chainSums(ctx, [&](i32 i, i32 j) {
            return scores[j] * value(j)[chainIndex(d0, i, hd)];
        });
        for (i32 i = 0; i < std::min(kChains, hd - d0); ++i) {
            ov[d0 + i] = sums[i];
        }
    }
}

/**
 * Varlen causal attention over fresh q/k/v rows living in a fused QKV
 * buffer with a shared row stride (in floats).
 * params: q*, k*, v*, seq_starts*, out*, bs, q_heads, kv_heads,
 *         head_dim, stride, scale
 *
 * q, k and v are each resolved once, over the whole strided extent of
 * rows [0, total), where total = seq_starts[bs]. Non-negative,
 * non-decreasing seq_starts keep every sequence inside those rows.
 */
Status
attentionPrefill(DeviceMemoryManager &mem, const KernelArgs &args)
{
    const i32 bs = args.i32At(5);
    const i32 qh = args.i32At(6);
    const i32 kvh = args.i32At(7);
    const i32 hd = args.i32At(8);
    const i32 stride = args.i32At(9);
    const f32 scale = args.f32At(10);
    if (bs < 0 || qh <= 0 || kvh <= 0 || hd <= 0 || stride < 0) {
        return invalidArgument("attention_prefill: bad dims");
    }
    SPAN_I32(starts, args.ptrAt(3), static_cast<u64>(bs) + 1);
    if (starts[0] < 0) {
        return invalidArgument("attention_prefill: negative seq_starts");
    }
    for (i32 b = 0; b < bs; ++b) {
        if (starts[b] > starts[b + 1]) {
            return invalidArgument(
                "attention_prefill: seq_starts not monotone");
        }
    }
    const i32 total = starts[bs];
    const u64 q_width = static_cast<u64>(qh) * hd;
    const u64 kv_width = static_cast<u64>(kvh) * hd;
    SPAN_F32(out, args.ptrAt(4), static_cast<u64>(total) * q_width);
    if (total == 0) {
        return Status::ok();
    }
    const u64 row_stride = static_cast<u64>(stride);
    const u64 last_row = static_cast<u64>(total - 1) * row_stride;
    SPAN_F32(q, args.ptrAt(0), last_row + q_width);
    SPAN_F32(k, args.ptrAt(1), last_row + kv_width);
    SPAN_F32(v, args.ptrAt(2), last_row + kv_width);
    std::vector<f32> scores;
    for (i32 b = 0; b < bs; ++b) {
        const i32 s0 = starts[b];
        const i32 s1 = starts[b + 1];
        scores.resize(static_cast<std::size_t>(s1 - s0));
        for (i32 t = s0; t < s1; ++t) {
            for (i32 head = 0; head < qh; ++head) {
                const u64 kv_off = static_cast<u64>(head * kvh / qh) * hd;
                const auto row = [&](const f32 *base, i32 j) {
                    return base + static_cast<u64>(s0 + j) * row_stride +
                           kv_off;
                };
                attendHead(
                    q + static_cast<u64>(t) * row_stride +
                        static_cast<u64>(head) * hd,
                    hd, t - s0 + 1, scale,
                    [&](i32 j) { return row(k, j); },
                    [&](i32 j) { return row(v, j); }, scores.data(),
                    out + (static_cast<u64>(t) * qh + head) * hd);
            }
        }
    }
    return Status::ok();
}

/**
 * Single-token decode attention over the paged KV cache.
 * params: q*, k_cache*, v_cache*, block_tables*, seq_lens*, out*,
 *         bs, q_heads, kv_heads, head_dim, block_size, max_blocks,
 *         stream_tag (i64), scale
 *
 * stream_tag is an 8-byte *constant* whose value begins with a
 * high-address-like prefix — a deliberate pointer-classification decoy
 * (the "false positive candidates" of the paper's §4). The kernel
 * validates its prefix, so a wrong restoration is caught functionally.
 *
 * The k/v caches are resolved once, on the first live sequence, and
 * every slot a block table names is checked against their extent
 * before any of it is read.
 */
Status
pagedAttentionDecode(DeviceMemoryManager &mem, const KernelArgs &args)
{
    const i32 bs = args.i32At(6);
    const i32 qh = args.i32At(7);
    const i32 kvh = args.i32At(8);
    const i32 hd = args.i32At(9);
    const i32 block_size = args.i32At(10);
    const i32 max_blocks = args.i32At(11);
    const i32 q_stride = args.i32At(12);
    const i64 stream_tag = args.i64At(13);
    const f32 scale = args.f32At(14);
    if ((static_cast<u64>(stream_tag) >> 32) != kStreamTagPrefix >> 32) {
        return invalidArgument("paged_attention: corrupted stream tag");
    }
    if (bs < 0 || qh <= 0 || kvh <= 0 || hd <= 0 || block_size <= 0 ||
        max_blocks < 0 || q_stride < 0) {
        return invalidArgument("paged_attention: bad dims");
    }
    SPAN_I32(tables, args.ptrAt(3),
             static_cast<u64>(bs) * max_blocks);
    SPAN_I32(lens, args.ptrAt(4), static_cast<u64>(bs));
    SPAN_F32(out, args.ptrAt(5), static_cast<u64>(bs) * qh * hd);
    const u64 slot_width = static_cast<u64>(kvh) * hd;
    bool caches_resolved = false;
    std::span<f32> k_cache;
    std::span<f32> v_cache;
    u64 cache_slots = 0;
    std::vector<u64> slot_of;
    std::vector<f32> scores;
    for (i32 b = 0; b < bs; ++b) {
        const i32 len = lens[b];
        if (len <= 0) {
            // Padding slot in a fixed-batch graph replay: emit zeros.
            std::fill_n(out + static_cast<u64>(b) * qh * hd,
                        static_cast<u64>(qh) * hd, 0.0f);
            continue;
        }
        if ((static_cast<i64>(len) + block_size - 1) / block_size >
            max_blocks) {
            return invalidArgument("sequence overflows block table");
        }
        if (!caches_resolved) {
            MEDUSA_ASSIGN_OR_RETURN(k_cache, mem.f32Tail(args.ptrAt(1)));
            MEDUSA_ASSIGN_OR_RETURN(v_cache, mem.f32Tail(args.ptrAt(2)));
            cache_slots =
                std::min(k_cache.size(), v_cache.size()) / slot_width;
            caches_resolved = true;
        }
        slot_of.resize(static_cast<std::size_t>(len));
        for (i32 t = 0; t < len; ++t) {
            const i32 block = tables[b * max_blocks + t / block_size];
            if (block < 0) {
                return invalidArgument("unmapped block in table");
            }
            const u64 slot = static_cast<u64>(block) * block_size +
                             static_cast<u64>(t % block_size);
            if (slot >= cache_slots) {
                return invalidArgument(
                    "paged_attention: KV slot beyond cache extent");
            }
            slot_of[t] = slot;
        }
        SPAN_F32(q_row,
                 args.ptrAt(0) +
                     static_cast<u64>(b) * q_stride * sizeof(f32),
                 static_cast<u64>(qh) * hd);
        scores.resize(static_cast<std::size_t>(len));
        for (i32 head = 0; head < qh; ++head) {
            const u64 kv_off = static_cast<u64>(head * kvh / qh) * hd;
            const auto row = [&](const f32 *cache, i32 t) {
                return cache + slot_of[t] * slot_width + kv_off;
            };
            attendHead(q_row + static_cast<u64>(head) * hd, hd, len, scale,
                       [&](i32 t) { return row(k_cache.data(), t); },
                       [&](i32 t) { return row(v_cache.data(), t); },
                       scores.data(),
                       out + (static_cast<u64>(b) * qh + head) * hd);
        }
    }
    return Status::ok();
}

/**
 * Split-K reduction stage of large-batch decode attention (models the
 * two-kernel split vLLM uses for big batches).
 * params: partial*, out*, count
 */
Status
pagedAttentionReduce(DeviceMemoryManager &mem, const KernelArgs &args)
{
    return copyF32(mem, args);
}

// --------------------------------------------------------------- cublas

/*
 * f32 lanes via GCC vector extensions, one type per x86-64 vector
 * width: SSE2 (the baseline ISA), AVX2 and AVX-512F. A wide type is
 * only operated on inside a function compiled for its ISA, and no
 * vector is ever passed or returned by value, so no call between
 * differently-targeted functions depends on a vector calling
 * convention.
 */
using F32x4 = f32 __attribute__((vector_size(16)));
using F32x8 = f32 __attribute__((vector_size(32)));
using F32x16 = f32 __attribute__((vector_size(64)));

template <typename V>
constexpr u64 kLanes = sizeof(V) / sizeof(f32);

/** Output rows of one register tile; its columns are two vectors. */
constexpr u64 kTileRows = 4;

/** The packed W panel is aligned to the widest vector. */
constexpr std::align_val_t kPanelAlign{sizeof(F32x16)};

/** acc = acc + x * w, lane-wise: one rounded product, one rounded sum. */
template <typename V>
[[gnu::always_inline]] inline void
macInto(V &lo, V &hi, f32 x, const V &w_lo, const V &w_hi)
{
    lo = lo + x * w_lo;
    hi = hi + x * w_hi;
}

/** Stores the first @p cols lanes of [lo | hi] to @p row. */
template <typename V>
[[gnu::always_inline]] inline void
storeCols(const V &lo, const V &hi, u64 cols, f32 *row)
{
    constexpr u64 kL = kLanes<V>;
    if (cols == 2 * kL) {
        std::memcpy(row, &lo, sizeof(V));
        std::memcpy(row + kL, &hi, sizeof(V));
        return;
    }
    f32 lanes[2 * kL];
    std::memcpy(lanes, &lo, sizeof(V));
    std::memcpy(lanes + kL, &hi, sizeof(V));
    std::memcpy(row, lanes, cols * sizeof(f32));
}

/**
 * Outputs C[r, j] for r < R (1 or kTileRows) rows of A starting at
 * @p a and the @p cols <= 2 * kLanes<V> columns packed in @p panel
 * (d-major: two vectors per d, zero-padded past @p cols). Every output
 * owns one accumulator lane and takes its products in order
 * d = 0..k-1. The accumulators are named locals, not an array, so
 * they stay in registers.
 */
template <typename V, u64 R>
[[gnu::always_inline]] inline void
matmulTile(const f32 *a, u64 k, const f32 *panel, u64 cols, f32 *c,
           u64 c_stride)
{
    static_assert(R == 1 || R == kTileRows);
    constexpr u64 kL = kLanes<V>;
    V c00 = {}, c01 = {}, c10 = {}, c11 = {};
    V c20 = {}, c21 = {}, c30 = {}, c31 = {};
    for (u64 d = 0; d < k; ++d) {
        V w_lo;
        V w_hi;
        std::memcpy(&w_lo, panel + 2 * kL * d, sizeof(V));
        std::memcpy(&w_hi, panel + 2 * kL * d + kL, sizeof(V));
        macInto(c00, c01, a[d], w_lo, w_hi);
        if constexpr (R == kTileRows) {
            macInto(c10, c11, a[k + d], w_lo, w_hi);
            macInto(c20, c21, a[2 * k + d], w_lo, w_hi);
            macInto(c30, c31, a[3 * k + d], w_lo, w_hi);
        }
    }
    storeCols(c00, c01, cols, c);
    if constexpr (R == kTileRows) {
        storeCols(c10, c11, cols, c + c_stride);
        storeCols(c20, c21, cols, c + 2 * c_stride);
        storeCols(c30, c31, cols, c + 3 * c_stride);
    }
}

struct PanelFree
{
    void operator()(f32 *p) const { ::operator delete(p, kPanelAlign); }
};

/**
 * matmulF32 over vector type V: W is packed 2 * kLanes<V> rows at a
 * time into one aligned panel, which kTileRows x (2 * kLanes<V>)
 * register tiles then sweep down A.
 */
template <typename V>
[[gnu::always_inline]] inline void
matmulLanes(const f32 *a, const f32 *w, f32 *c, u64 n, u64 out, u64 k)
{
    constexpr u64 kCols = 2 * kLanes<V>;
    // With no rows of A or W nothing bounds k, so size no panel by it.
    if (n == 0 || out == 0) {
        return;
    }
    const std::unique_ptr<f32, PanelFree> panel(static_cast<f32 *>(
        ::operator new(kCols * k * sizeof(f32), kPanelAlign)));
    f32 *p = panel.get();
    for (u64 o0 = 0; o0 < out; o0 += kCols) {
        const u64 cols = std::min(kCols, out - o0);
        // Panel column j holds W row o0 + j; columns past the last
        // row hold zeros.
        for (u64 j = 0; j < cols; ++j) {
            const f32 *wr = w + (o0 + j) * k;
            for (u64 d = 0; d < k; ++d) {
                p[d * kCols + j] = wr[d];
            }
        }
        for (u64 j = cols; j < kCols; ++j) {
            for (u64 d = 0; d < k; ++d) {
                p[d * kCols + j] = 0.0f;
            }
        }
        u64 t = 0;
        for (; t + kTileRows <= n; t += kTileRows) {
            matmulTile<V, kTileRows>(a + t * k, k, p, cols,
                                     c + t * out + o0, out);
        }
        for (; t < n; ++t) {
            matmulTile<V, 1>(a + t * k, k, p, cols, c + t * out + o0, out);
        }
    }
}

void
matmulSse2(const f32 *a, const f32 *w, f32 *c, u64 n, u64 out, u64 k)
{
    matmulLanes<F32x4>(a, w, c, n, out, k);
}

[[gnu::target("avx2")]] void
matmulAvx2(const f32 *a, const f32 *w, f32 *c, u64 n, u64 out, u64 k)
{
    matmulLanes<F32x8>(a, w, c, n, out, k);
}

[[gnu::target("avx512f")]] void
matmulAvx512(const f32 *a, const f32 *w, f32 *c, u64 n, u64 out, u64 k)
{
    matmulLanes<F32x16>(a, w, c, n, out, k);
}

/**
 * C[n, out] = A[n, k] x W[out, k]^T — the shared GEMM body.
 * params: A*, W*, C*, n, out, k  (+ sem0*, sem1* for split-K)
 */
Status
gemmBody(DeviceMemoryManager &mem, const KernelArgs &args, bool splitk)
{
    const std::size_t base = splitk ? 2 : 0;
    const i32 n = args.i32At(base + 3);
    const i32 out_dim = args.i32At(base + 4);
    const i32 k = args.i32At(base + 5);
    if (n < 0 || out_dim < 0 || k < 0) {
        return invalidArgument("bad GEMM dims");
    }
    if (splitk) {
        // Verify the persistent semaphore workspaces hold the magic —
        // this is what makes permanent-buffer content restoration
        // functionally necessary (paper §4.3).
        for (std::size_t s = 0; s < 2; ++s) {
            u32 magic = 0;
            MEDUSA_RETURN_IF_ERROR(
                mem.read(args.ptrAt(s), &magic, sizeof(magic)));
            if (magic != kGemmWorkspaceMagic) {
                return invalidArgument(
                    "split-K GEMM: corrupted semaphore workspace");
            }
        }
    }
    SPAN_F32(a, args.ptrAt(base + 0), static_cast<u64>(n) * k);
    SPAN_F32(w, args.ptrAt(base + 1), static_cast<u64>(out_dim) * k);
    SPAN_F32(c, args.ptrAt(base + 2), static_cast<u64>(n) * out_dim);
    matmulF32(a, w, c, static_cast<u64>(n), static_cast<u64>(out_dim),
              static_cast<u64>(k));
    return Status::ok();
}

Status
gemmPlain(DeviceMemoryManager &mem, const KernelArgs &args)
{
    return gemmBody(mem, args, false);
}

Status
gemmSplitK(DeviceMemoryManager &mem, const KernelArgs &args)
{
    return gemmBody(mem, args, true);
}

/**
 * Batched GEMM: the first param points to a device array holding the
 * three operand pointers [A, W, C] (cublasGemmBatchedEx-style). The
 * indirection means restoring the *param* is not enough — the pointer
 * words INSIDE the array buffer must be restored too (paper §8).
 * params: ptr_array*, n, out, k
 */
Status
gemmBatched(DeviceMemoryManager &mem, const KernelArgs &args)
{
    const i32 n = args.i32At(1);
    const i32 out_dim = args.i32At(2);
    const i32 k = args.i32At(3);
    if (n < 0 || out_dim < 0 || k < 0) {
        return invalidArgument("bad GEMM dims");
    }
    u64 operands[3];
    MEDUSA_RETURN_IF_ERROR(
        mem.read(args.ptrAt(0), operands, sizeof(operands)));
    SPAN_F32(a, operands[0], static_cast<u64>(n) * k);
    SPAN_F32(w, operands[1], static_cast<u64>(out_dim) * k);
    SPAN_F32(c, operands[2], static_cast<u64>(n) * out_dim);
    matmulF32(a, w, c, static_cast<u64>(n), static_cast<u64>(out_dim),
              static_cast<u64>(k));
    return Status::ok();
}

#undef SPAN_F32
#undef SPAN_I32

} // namespace

namespace detail {

std::span<const MatmulVariant>
matmulVariants()
{
    static const MatmulVariant kVariants[] = {
        {"sse2", matmulSse2, true},
        {"avx2", matmulAvx2, __builtin_cpu_supports("avx2") != 0},
        {"avx512f", matmulAvx512, __builtin_cpu_supports("avx512f") != 0},
    };
    return kVariants;
}

void
matmulDistinctRows(MatmulFn fn, const f32 *a, const f32 *w, f32 *c, u64 n,
                   u64 out, u64 k)
{
    const bool reuse = disjoint(c, n * out, a, n * k) &&
                       disjoint(c, n * out, w, out * k);
    const auto rows = distinctRows(a, n, k, reuse);
    if (rows.size() == n) {
        fn(a, w, c, n, out, k);
        return;
    }
    // Pack the distinct A rows and compute their C rows into the first
    // m rows of C. Then spread each over its run, last run first: run j
    // starts at row rows[j] >= j, so it only overwrites C rows whose
    // runs are already spread.
    const u64 m = rows.size();
    std::vector<f32> packed(m * k);
    for (u64 j = 0; j < m; ++j) {
        std::copy_n(a + rows[j] * k, k, packed.data() + j * k);
    }
    fn(packed.data(), w, c, m, out, k);
    for (u64 j = m; j-- > 0;) {
        const u64 end = j + 1 < m ? rows[j + 1] : n;
        for (u64 t = rows[j]; t < end; ++t) {
            if (t != j) {
                std::copy_n(c + j * out, out, c + t * out);
            }
        }
    }
}

} // namespace detail

void
matmulF32(const f32 *a, const f32 *w, f32 *c, u64 n, u64 out, u64 k)
{
    static const detail::MatmulFn widest = [] {
        detail::MatmulFn fn = nullptr;
        for (const detail::MatmulVariant &v : detail::matmulVariants()) {
            if (v.host_supported) {
                fn = v.fn;
            }
        }
        return fn;
    }();
    detail::matmulDistinctRows(widest, a, w, c, n, out, k);
}

void
registerBuiltinKernels(KernelRegistry &reg)
{
    // PA entries mirror the mangled signature's const-ness: PKf -> kRead,
    // Pf -> kWrite or kReadWrite (in-place ops), scalar -> kNone; the
    // split-K GEMM's semaphore workspaces are kSemaphore.
    using PA = ParamAccess;
    constexpr PA kNA = PA::kNone;
    constexpr PA kR = PA::kRead;
    constexpr PA kW = PA::kWrite;
    constexpr PA kRW = PA::kReadWrite;
    constexpr PA kSem = PA::kSemaphore;
    auto add = [&reg](const char *name, const char *module, bool visible,
                      std::vector<PK> params, std::vector<PA> access,
                      KernelFn fn, bool indirect = false) {
        KernelDef def;
        def.mangled_name = name;
        def.module_name = module;
        def.in_symbol_table = visible;
        def.params = std::move(params);
        def.access = std::move(access);
        def.indirect_access = indirect;
        def.fn = std::move(fn);
        reg.registerKernel(std::move(def));
    };

    // libsimtorch.so — visible elementwise / norm / sampling kernels.
    add("_ZN8simtorch16embedding_lookupEPKfPKiPfiii", kTorchModule, true,
        {PK::kPointer, PK::kPointer, PK::kPointer, PK::kI32, PK::kI32,
         PK::kI32},
        {kR, kR, kW, kNA, kNA, kNA}, embeddingLookup);
    add("_ZN8simtorch7rmsnormEPKfS1_Pfiif", kTorchModule, true,
        {PK::kPointer, PK::kPointer, PK::kPointer, PK::kI32, PK::kI32,
         PK::kF32},
        {kR, kR, kW, kNA, kNA, kNA}, rmsNorm);
    add("_ZN8simtorch9layernormEPKfS1_S1_Pfiif", kTorchModule, true,
        {PK::kPointer, PK::kPointer, PK::kPointer, PK::kPointer, PK::kI32,
         PK::kI32, PK::kF32},
        {kR, kR, kR, kW, kNA, kNA, kNA}, layerNorm);
    add("_ZN8simtorch8bias_addEPfPKfii", kTorchModule, true,
        {PK::kPointer, PK::kPointer, PK::kI32, PK::kI32},
        {kRW, kR, kNA, kNA}, biasAdd);
    add("_ZN8simtorch8silu_mulEPKfPfii", kTorchModule, true,
        {PK::kPointer, PK::kPointer, PK::kI32, PK::kI32},
        {kR, kW, kNA, kNA}, siluMul);
    add("_ZN8simtorch4geluEPKfPfi", kTorchModule, true,
        {PK::kPointer, PK::kPointer, PK::kI32}, {kR, kW, kNA}, gelu);
    add("_ZN8simtorch12residual_addEPfPKfi", kTorchModule, true,
        {PK::kPointer, PK::kPointer, PK::kI32}, {kRW, kR, kNA},
        residualAdd);
    add("_ZN8simtorch13sample_argmaxEPKfPiii", kTorchModule, true,
        {PK::kPointer, PK::kPointer, PK::kI32, PK::kI32},
        {kR, kW, kNA, kNA}, sampleArgmax);
    add("_ZN8simtorch8copy_f32EPKfPfi", kTorchModule, true,
        {PK::kPointer, PK::kPointer, PK::kI32}, {kR, kW, kNA}, copyF32);

    // libsimattn.so — visible custom attention ops.
    add("_ZN7simattn4ropeEPfS0_PKiiiiiiif", kAttnModule, true,
        {PK::kPointer, PK::kPointer, PK::kPointer, PK::kI32, PK::kI32,
         PK::kI32, PK::kI32, PK::kI32, PK::kI32, PK::kF32},
        {kRW, kRW, kR, kNA, kNA, kNA, kNA, kNA, kNA, kNA}, rope);
    add("_ZN7simattn8kv_writeEPKfS1_PfS2_PKiiiii", kAttnModule, true,
        {PK::kPointer, PK::kPointer, PK::kPointer, PK::kPointer,
         PK::kPointer, PK::kI32, PK::kI32, PK::kI32, PK::kI32},
        {kR, kR, kW, kW, kR, kNA, kNA, kNA, kNA}, kvWrite);
    add("_ZN7simattn16attention_prefilEPKfS1_S1_PKiPfiiiiif", kAttnModule,
        true,
        {PK::kPointer, PK::kPointer, PK::kPointer, PK::kPointer,
         PK::kPointer, PK::kI32, PK::kI32, PK::kI32, PK::kI32, PK::kI32,
         PK::kF32},
        {kR, kR, kR, kR, kW, kNA, kNA, kNA, kNA, kNA, kNA},
        attentionPrefill);
    add("_ZN7simattn21paged_attention_v1_decEPKfS1_S1_PKiS3_Pfiiiiiiilf",
        kAttnModule, true,
        {PK::kPointer, PK::kPointer, PK::kPointer, PK::kPointer,
         PK::kPointer, PK::kPointer, PK::kI32, PK::kI32, PK::kI32,
         PK::kI32, PK::kI32, PK::kI32, PK::kI32, PK::kI64, PK::kF32},
        {kR, kR, kR, kR, kR, kW, kNA, kNA, kNA, kNA, kNA, kNA, kNA, kNA,
         kNA},
        pagedAttentionDecode);
    add("_ZN7simattn22paged_attention_reduceEPKfPfi", kAttnModule, true,
        {PK::kPointer, PK::kPointer, PK::kI32}, {kR, kW, kNA},
        pagedAttentionReduce);

    // libsimcublas.so — HIDDEN GEMM kernels (cuBLAS-style names).
    add("ampere_fp16_s16816gemm_fp16_128x128_ldg8_f2f_stages_64x3_tn",
        kCublasModule, false,
        {PK::kPointer, PK::kPointer, PK::kPointer, PK::kI32, PK::kI32,
         PK::kI32},
        {kR, kR, kW, kNA, kNA, kNA}, gemmPlain);
    add("ampere_fp16_s16816gemm_fp16_64x64_ldg8_f2f_stages_64x5_tn",
        kCublasModule, false,
        {PK::kPointer, PK::kPointer, PK::kPointer, PK::kI32, PK::kI32,
         PK::kI32},
        {kR, kR, kW, kNA, kNA, kNA}, gemmPlain);
    add("ampere_fp16_s16816gemm_fp16_64x64_sliced1x2_ldg8_f2f_stages_"
        "64x5_splitk_tn",
        kCublasModule, false,
        {PK::kPointer, PK::kPointer, PK::kPointer, PK::kPointer,
         PK::kPointer, PK::kI32, PK::kI32, PK::kI32},
        {kSem, kSem, kR, kR, kW, kNA, kNA, kNA}, gemmSplitK);
    add("ampere_fp16_s16816gemm_fp16_256x64_ldg8_f2f_stages_64x1_nn",
        kCublasModule, false,
        {PK::kPointer, PK::kPointer, PK::kPointer, PK::kI32, PK::kI32,
         PK::kI32},
        {kR, kR, kW, kNA, kNA, kNA}, gemmPlain);
    add("ampere_fp16_s16816gemm_fp16_batched_64x64_ldg8_f2f_nn",
        kCublasModule, false,
        {PK::kPointer, PK::kI32, PK::kI32, PK::kI32},
        {kR, kNA, kNA, kNA}, gemmBatched, /*indirect=*/true);

    // libsimnccl.so — the collective used by tensor parallelism.
    // params: inout*, count, rank, world. Rank-local execution only
    // validates the buffer; the lockstep replayer provides the
    // cross-rank semantics.
    add("_ZN7simnccl14all_reduce_sumEPfiii", kNcclModule, true,
        {PK::kPointer, PK::kI32, PK::kI32, PK::kI32},
        {kRW, kNA, kNA, kNA},
        [](DeviceMemoryManager &mem, const KernelArgs &args) -> Status {
            const i32 count = args.i32At(1);
            const i32 rank = args.i32At(2);
            const i32 world = args.i32At(3);
            if (rank < 0 || world <= 0 || rank >= world) {
                return invalidArgument("bad all-reduce rank/world");
            }
            MEDUSA_ASSIGN_OR_RETURN(
                f32 *buf, mem.f32Span(args.ptrAt(0),
                                      static_cast<u64>(count)));
            (void)buf;
            return Status::ok();
        });
}

const BuiltinKernels &
BuiltinKernels::get()
{
    static const BuiltinKernels kernels = [] {
        const auto &reg = KernelRegistry::instance();
        auto find = [&reg](const char *name) {
            const KernelId id = reg.findByName(name);
            MEDUSA_CHECK(id != kInvalidKernel,
                         "builtin kernel missing: " << name);
            return id;
        };
        BuiltinKernels k;
        k.embedding_lookup =
            find("_ZN8simtorch16embedding_lookupEPKfPKiPfiii");
        k.rmsnorm = find("_ZN8simtorch7rmsnormEPKfS1_Pfiif");
        k.layernorm = find("_ZN8simtorch9layernormEPKfS1_S1_Pfiif");
        k.bias_add = find("_ZN8simtorch8bias_addEPfPKfii");
        k.silu_mul = find("_ZN8simtorch8silu_mulEPKfPfii");
        k.gelu = find("_ZN8simtorch4geluEPKfPfi");
        k.residual_add = find("_ZN8simtorch12residual_addEPfPKfi");
        k.sample_argmax = find("_ZN8simtorch13sample_argmaxEPKfPiii");
        k.copy_f32 = find("_ZN8simtorch8copy_f32EPKfPfi");
        k.rope = find("_ZN7simattn4ropeEPfS0_PKiiiiiiif");
        k.kv_write = find("_ZN7simattn8kv_writeEPKfS1_PfS2_PKiiiii");
        k.attention_prefill =
            find("_ZN7simattn16attention_prefilEPKfS1_S1_PKiPfiiiiif");
        k.paged_attention_decode = find(
            "_ZN7simattn21paged_attention_v1_decEPKfS1_S1_PKiS3_Pfiiiiiii"
            "lf");
        k.paged_attention_reduce =
            find("_ZN7simattn22paged_attention_reduceEPKfPfi");
        k.gemm_128x128 = find(
            "ampere_fp16_s16816gemm_fp16_128x128_ldg8_f2f_stages_64x3_tn");
        k.gemm_64x64 = find(
            "ampere_fp16_s16816gemm_fp16_64x64_ldg8_f2f_stages_64x5_tn");
        k.gemm_splitk =
            find("ampere_fp16_s16816gemm_fp16_64x64_sliced1x2_ldg8_f2f_"
                 "stages_64x5_splitk_tn");
        k.gemm_lmhead = find(
            "ampere_fp16_s16816gemm_fp16_256x64_ldg8_f2f_stages_64x1_nn");
        k.gemm_batched =
            find("ampere_fp16_s16816gemm_fp16_batched_64x64_ldg8_f2f_nn");
        k.all_reduce_sum = find("_ZN7simnccl14all_reduce_sumEPfiii");
        return k;
    }();
    return kernels;
}

} // namespace medusa::simcuda
