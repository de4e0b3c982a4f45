/**
 * @file
 * Simulated GPU kernels.
 *
 * A kernel is identified by a mangled name and grouped into a *module*
 * (see module.h). Its launch parameters are carried as opaque raw bytes —
 * exactly what a real cudaGraphKernelNodeParams exposes — so Medusa's
 * analysis must classify pointers vs constants from the byte patterns,
 * as in the paper (§4). The typed signature is only used by the
 * functional executor to decode the bytes back into arguments.
 *
 * Every argument is at most 8 bytes, so a launch's parameters are
 * inline ParamBlob values (at most kMaxKernelParams of them in a
 * LaunchParams) with no heap allocation per argument. The same
 * representation runs from ParamsBuilder through eager launch, stream
 * capture, the CudaGraph, GraphExec and the patched image.
 */

#ifndef MEDUSA_SIMCUDA_KERNEL_H
#define MEDUSA_SIMCUDA_KERNEL_H

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "simtime/cost_model.h"

namespace medusa::simcuda {

class DeviceMemoryManager;

/** Dense, process-independent identity of a kernel definition. */
using KernelId = u32;

constexpr KernelId kInvalidKernel = 0xffffffffu;

/** The wire type of one kernel parameter. */
enum class ParamKind : u8 {
    kPointer = 0, ///< 8-byte device pointer
    kI32 = 1,     ///< 4-byte integer constant
    kI64 = 2,     ///< 8-byte integer constant
    kF32 = 3,     ///< 4-byte float constant
};

/** Byte width of a parameter of the given kind. */
constexpr u64
paramKindSize(ParamKind kind)
{
    switch (kind) {
      case ParamKind::kPointer: return 8;
      case ParamKind::kI32: return 4;
      case ParamKind::kI64: return 8;
      case ParamKind::kF32: return 4;
    }
    return 0;
}

/**
 * How a kernel's functional body touches the buffer behind one pointer
 * parameter. Non-pointer parameters are kNone. The sets are declared by
 * the kernel author (builtin.cc) as ground truth for static analysis:
 * medusa-lint's happens-before race rules (MDL8xx) compare the access
 * sets of concurrently-capturable nodes, the way real kernels declare
 * const-ness through their signatures (PKf vs Pf). A process that
 * skips kernel bodies (GpuProcess::discardContents) trusts them too:
 * a skipped body taints every buffer its set says it writes.
 */
enum class ParamAccess : u8 {
    kNone = 0,      ///< not a memory access (scalar constant)
    kRead = 1,      ///< the buffer is only read
    kWrite = 2,     ///< the buffer is only written
    kReadWrite = 3, ///< read-modify-write (accumulators, in-place ops)
    /**
     * A cross-CTA semaphore workspace (split-K GEMM). The body only
     * checks its value, so a skipped body leaves it defined; but on
     * hardware CTAs update it, so it stays a write hazard for the race
     * rules (accessWrites is true).
     */
    kSemaphore = 4,
};

constexpr bool
accessReads(ParamAccess a)
{
    return a == ParamAccess::kRead || a == ParamAccess::kReadWrite ||
           a == ParamAccess::kSemaphore;
}

constexpr bool
accessWrites(ParamAccess a)
{
    return a == ParamAccess::kWrite || a == ParamAccess::kReadWrite ||
           a == ParamAccess::kSemaphore;
}

/**
 * The most parameters one kernel signature may have: the widest
 * registered signature (paged_attention_v1_decode). KernelRegistry::
 * registerKernel refuses a wider one, so every launch's parameters fit
 * in one inline LaunchParams.
 */
constexpr std::size_t kMaxKernelParams = 15;

/**
 * One launch parameter, inline. `bits` holds the little-endian value
 * bytes; only the low `len` bytes (at most 8, paramKindSize) are
 * meaningful.
 */
struct ParamBlob
{
    u64 bits = 0;
    u8 len = 0;
};

/**
 * Borrowed view of one launch's parameters — a LaunchParams, or the
 * contiguous slice of a CudaGraph's, GraphExec's or patched image's
 * ParamBlob array. Cheap to copy; valid only while the backing storage
 * lives.
 */
class ParamView
{
  public:
    ParamView() = default;
    ParamView(const ParamBlob *blobs, std::size_t count)
        : blobs_(blobs), count_(count)
    {
    }

    std::size_t size() const { return count_; }
    const ParamBlob *begin() const { return blobs_; }
    const ParamBlob *end() const { return blobs_ + count_; }

    const ParamBlob &
    at(std::size_t i) const
    {
        MEDUSA_CHECK(i < count_, "param index " << i << " out of range");
        return blobs_[i];
    }

    /** Byte width of the i-th parameter. */
    std::size_t sizeAt(std::size_t i) const { return at(i).len; }

  private:
    const ParamBlob *blobs_ = nullptr;
    std::size_t count_ = 0;
};

/**
 * The parameters of one launch, inline: the simulator's void**
 * kernelParams array. Fixed capacity (kMaxKernelParams), no heap.
 */
class LaunchParams
{
  public:
    /** Append one parameter; check-fails past kMaxKernelParams. */
    void
    push(ParamBlob blob)
    {
        MEDUSA_CHECK(count_ < kMaxKernelParams,
                     "more than " << kMaxKernelParams << " launch params");
        MEDUSA_CHECK(blob.len <= sizeof(u64),
                     "launch parameter wider than 8 bytes");
        blobs_[count_++] = blob;
    }

    ParamView view() const { return ParamView(blobs_.data(), count_); }

  private:
    std::array<ParamBlob, kMaxKernelParams> blobs_;
    std::size_t count_ = 0;
};

/**
 * Builds a launch's LaunchParams in call order. The helper is used by
 * the forward-pass builder ("host code"); Medusa never sees the types.
 */
class ParamsBuilder
{
  public:
    ParamsBuilder &
    ptr(DeviceAddr addr)
    {
        append(addr);
        return *this;
    }

    ParamsBuilder &
    i32(i32 v)
    {
        append(v);
        return *this;
    }

    ParamsBuilder &
    i64(i64 v)
    {
        append(v);
        return *this;
    }

    ParamsBuilder &
    f32(f32 v)
    {
        append(v);
        return *this;
    }

    /** The parameters built so far; valid while the builder lives. */
    ParamView view() const { return params_.view(); }

  private:
    /**
     * Append @p v at its compile-time width, so the copy into the blob
     * is one register move rather than a memcpy call.
     */
    template <typename T>
    void
    append(T v)
    {
        static_assert(sizeof(T) <= sizeof(u64));
        ParamBlob blob;
        blob.len = static_cast<u8>(sizeof(T));
        std::memcpy(&blob.bits, &v, sizeof(T));
        params_.push(blob);
    }

    LaunchParams params_;
};

/** Typed view over launch parameters, decoded per a kernel's signature. */
class KernelArgs
{
  public:
    KernelArgs(ParamView view, const std::vector<ParamKind> &kinds)
        : view_(view), kinds_(kinds)
    {
    }

    std::size_t size() const { return view_.size(); }

    DeviceAddr
    ptrAt(std::size_t i) const
    {
        return readAs<DeviceAddr>(i, ParamKind::kPointer);
    }

    i32 i32At(std::size_t i) const { return readAs<i32>(i, ParamKind::kI32); }
    i64 i64At(std::size_t i) const { return readAs<i64>(i, ParamKind::kI64); }
    f32 f32At(std::size_t i) const { return readAs<f32>(i, ParamKind::kF32); }

  private:
    template <typename T>
    T
    readAs(std::size_t i, ParamKind kind) const
    {
        MEDUSA_CHECK(i < size(), "param index " << i << " out of range");
        MEDUSA_CHECK(kinds_.at(i) == kind,
                     "param " << i << " decoded with wrong kind");
        const ParamBlob &blob = view_.at(i);
        MEDUSA_CHECK(blob.len == sizeof(T),
                     "param " << i << " has " << +blob.len
                              << " bytes, expected " << sizeof(T));
        T v;
        std::memcpy(&v, &blob.bits, sizeof(T));
        return v;
    }

    ParamView view_;
    const std::vector<ParamKind> &kinds_;
};

/**
 * Functional body of a kernel: computes over simulated device memory.
 * A plain function pointer, called directly on every executed launch.
 */
using KernelFn = Status (*)(DeviceMemoryManager &, const KernelArgs &);

/**
 * Static definition of a kernel: identity, module membership, symbol
 * visibility, signature and functional body.
 */
struct KernelDef
{
    /** Mangled name, e.g. "_ZN7simmath6rmsnormEv" or a cuBLAS-ish name. */
    std::string mangled_name;
    /** Module (and DSO) this kernel lives in, e.g. "libsimcublas.so". */
    std::string module_name;
    /**
     * Whether dlsym() can find this kernel in the DSO's symbol table.
     * Closed-source cuBLAS-like kernels are hidden (paper §5).
     */
    bool in_symbol_table = true;
    std::vector<ParamKind> params;
    /**
     * Per-parameter buffer access sets, parallel to @c params (kNone
     * for non-pointer parameters). Empty means unknown — a foreign
     * kernel the race analyzer must treat conservatively, and whose
     * skipped body taints every pointer parameter's buffer.
     */
    std::vector<ParamAccess> access;
    /**
     * True when the kernel dereferences pointer words stored INSIDE a
     * buffer (cublasGemmBatchedEx-style operand arrays): its effective
     * access set is not derivable from the parameters alone. A skipped
     * body therefore also taints every allocation an 8-byte word of
     * its parameter buffers points into.
     */
    bool indirect_access = false;
    KernelFn fn = nullptr;
};

/**
 * The global, process-independent table of kernel definitions. Real
 * kernels live in .so files on disk; their definitions do not change
 * between process launches — only their *addresses* do (module.h).
 */
class KernelRegistry
{
  public:
    /** The singleton registry with all built-in kernels registered. */
    static const KernelRegistry &instance();

    /** Register a kernel; returns its dense id. Name must be unique. */
    KernelId registerKernel(KernelDef def);

    const KernelDef &def(KernelId id) const { return defs_.at(id); }
    std::size_t kernelCount() const { return defs_.size(); }

    /** Lookup by mangled name; returns kInvalidKernel if absent. */
    KernelId findByName(const std::string &mangled_name) const;

    /** All kernel ids belonging to the given module. */
    std::vector<KernelId> kernelsInModule(const std::string &module) const;

    /** All distinct module names. */
    std::vector<std::string> moduleNames() const;

    KernelRegistry() = default;

  private:
    std::vector<KernelDef> defs_;
};

/** Mutable accessor used only by builtin kernel registration. */
KernelRegistry &mutableRegistry();

} // namespace medusa::simcuda

#endif // MEDUSA_SIMCUDA_KERNEL_H
