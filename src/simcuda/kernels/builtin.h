/**
 * @file
 * The built-in kernel set of the simulated GPU stack.
 *
 * Kernels are grouped into three modules, mirroring the composition of a
 * real vLLM process:
 *
 *  - "libsimcublas.so": GEMM variants with cuBLAS-style mangled names.
 *    These are HIDDEN from the DSO symbol table (in_symbol_table=false),
 *    reproducing the closed-source-kernel problem of the paper's §5: the
 *    only way to learn their addresses is to force the module to load
 *    and enumerate it.
 *  - "libsimtorch.so": elementwise / normalization / sampling kernels,
 *    visible via dlsym.
 *  - "libsimattn.so": rotary embedding, KV-cache write and paged
 *    attention (the vLLM custom ops), visible via dlsym.
 *
 * The split-K GEMM additionally takes two pointers to 4-byte semaphore
 * workspaces that must contain kGemmWorkspaceMagic; these are the
 * "permanent buffers" of the paper's §4.3 whose contents Medusa must
 * materialize and restore (only ~9% of kernels use them).
 */

#ifndef MEDUSA_SIMCUDA_KERNELS_BUILTIN_H
#define MEDUSA_SIMCUDA_KERNELS_BUILTIN_H

#include <span>

#include "simcuda/kernel.h"

namespace medusa::simcuda {

/** Magic value required in split-K GEMM semaphore workspaces. */
constexpr u32 kGemmWorkspaceMagic = 0x5f3c2a11u;

/** Module (DSO) names. */
inline constexpr const char *kCublasModule = "libsimcublas.so";
inline constexpr const char *kTorchModule = "libsimtorch.so";
inline constexpr const char *kAttnModule = "libsimattn.so";
inline constexpr const char *kNcclModule = "libsimnccl.so";

/**
 * High half of the paged-attention stream tag: the forward pass passes
 * kStreamTagPrefix | batch size and the kernel refuses any other high
 * half. A pointer-shaped scalar the pointer classification must leave
 * alone; it lies inside device 2's address window, so medusa-lint's
 * MDL705 exempts it by shape.
 */
inline constexpr u64 kStreamTagPrefix = 0x7fabull << 32;

/**
 * C[n, out] = A[n, k] x W[out, k]^T over row-major f32 operands: the
 * arithmetic of every functional GEMM kernel (DESIGN.md, "Functional
 * kernel arithmetic contract"). Each output is
 *
 *     acc = +0.0f;  for d in 0..k-1:  acc = acc + a[t][d] * w[o][d]
 *
 * with every product and every sum rounded to f32 in that order — no
 * reassociation, no fused multiply-add. Register tiling only
 * interleaves the chains of independent outputs, so the result is
 * bit-identical to the naive triple loop. C must not overlap A or W.
 *
 * Runs detail::matmulDistinctRows over the widest variant of
 * detail::matmulVariants() the host CPU supports, chosen once by
 * CPUID; every variant gives the same bits.
 */
void matmulF32(const f32 *a, const f32 *w, f32 *c, u64 n, u64 out, u64 k);

namespace detail {

using MatmulFn = void (*)(const f32 *a, const f32 *w, f32 *c, u64 n,
                          u64 out, u64 k);

/** One compiled implementation of matmulF32. */
struct MatmulVariant
{
    /** The ISA its tiles use: "sse2", "avx2" or "avx512f". */
    const char *name;
    MatmulFn fn;
    /** CPUID reports the ISA, so this host can run @p fn. */
    bool host_supported;
};

/**
 * Every compiled matmulF32 variant, narrowest (4 lanes) first. For
 * tests and bench_micro, which check and time each one; production
 * code calls matmulF32.
 */
std::span<const MatmulVariant> matmulVariants();

/**
 * C = A x W^T through @p fn, computing each distinct row of A once: an
 * A row whose bytes equal the previous row's gets a copy of that row's
 * C row (DESIGN.md, "Duplicate rows"). Each C row depends only on its
 * A row and W, so the result equals fn(a, w, c, n, out, k) bit for
 * bit. When C overlaps A or W every row goes through @p fn.
 */
void matmulDistinctRows(MatmulFn fn, const f32 *a, const f32 *w, f32 *c,
                        u64 n, u64 out, u64 k);

} // namespace detail

/**
 * Dense ids of every built-in kernel, resolved once against the global
 * registry.
 */
struct BuiltinKernels
{
    // libsimtorch.so (visible)
    KernelId embedding_lookup;
    KernelId rmsnorm;
    KernelId layernorm;
    KernelId bias_add;
    KernelId silu_mul;
    KernelId gelu;
    KernelId residual_add;
    KernelId sample_argmax;
    KernelId copy_f32;

    // libsimattn.so (visible)
    KernelId rope;
    KernelId kv_write;
    KernelId attention_prefill;
    KernelId paged_attention_decode;
    KernelId paged_attention_reduce;

    // libsimcublas.so (hidden from the symbol table)
    KernelId gemm_128x128;
    KernelId gemm_64x64;
    KernelId gemm_splitk;
    KernelId gemm_lmhead;
    /**
     * Batched GEMM taking a device array of pointers [A, W, C] — the
     * *indirect pointer* case of the paper's §8 discussion, used by the
     * optional batched-LM-head engine path.
     */
    KernelId gemm_batched;

    // libsimnccl.so (visible)
    /**
     * In-place sum all-reduce across tensor-parallel ranks (§8
     * multi-GPU). Collective semantics are executed by the lockstep
     * replayer (lockstep.h), which plays the role of the NCCL runtime;
     * launched eagerly (warm-up), the kernel is a rank-local no-op
     * whose results are discarded, as warm-up outputs are.
     */
    KernelId all_reduce_sum;

    /** The singleton, resolved against KernelRegistry::instance(). */
    static const BuiltinKernels &get();
};

} // namespace medusa::simcuda

#endif // MEDUSA_SIMCUDA_KERNELS_BUILTIN_H
