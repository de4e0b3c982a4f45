/**
 * @file
 * Simulated GPU device memory.
 *
 * The manager hands out 64-bit device virtual addresses from an
 * ASLR-randomized base, so addresses differ between GpuProcess launches —
 * the non-determinism at the heart of Medusa's Challenge I. Allocations
 * carry two sizes:
 *
 *  - a *logical* size: the bytes the real model would occupy; used for
 *    free-memory accounting (KV-cache profiling) and address spacing, and
 *  - a *backing* size: the bytes actually stored and touched by the
 *    functional kernels (the simulation runs models with scaled-down
 *    hidden dimensions; see DESIGN.md §2).
 *
 * Reads and writes are bounds-checked against the backing store, so a
 * stale or wrongly-restored pointer faults or corrupts output just like
 * on real hardware.
 */

#ifndef MEDUSA_SIMCUDA_MEMORY_H
#define MEDUSA_SIMCUDA_MEMORY_H

#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"

namespace medusa::simcuda {

/**
 * Backing byte store for one allocation. Semantically a zero-initialized
 * u8 array, but the host buffer is only materialized on first access:
 * a restore replays hundreds of MB of backing that kernels mostly never
 * touch, and eagerly allocating + clearing it (865 buffers per attempt)
 * dominated cold-start wall time — mostly as mmap/munmap system time.
 * Untouched stores report their size and hash as all-zero without ever
 * allocating.
 *
 * Materialization is demand-zero too. A store of kMmapBytes or more
 * (the paged KV caches) is an anonymous mapping, so the kernel supplies
 * zero pages only as they are touched; a KV cache that receives a few
 * KB of writes costs a few pages, not a memset of the whole store
 * (glibc's dynamic mmap threshold soon serves callocs of this size
 * from the heap, which clears them eagerly).
 * Smaller stores (every per-tensor buffer) come from calloc. The size
 * alone selects the class, so release() frees by the same rule.
 *
 * Mappings are recycled, never unmapped. release() re-zeroes exactly
 * the pages the store's process touched (mincore finds them) and puts
 * the mapping on one process-wide free list keyed by exact size;
 * allocateZeroed() takes a same-size mapping from it before it maps a
 * new one. A fresh simulated process thus reuses the pages an earlier
 * one already faulted in, instead of mapping, faulting and unmapping
 * its KV caches again. The list has no cap: a new mapping is made only
 * when no idle one of that size exists, so the mappings of one size
 * never outnumber the most stores of that size ever live at once.
 * Under AddressSanitizer an idle mapping is poisoned, so a stale host
 * pointer into a dead process's store is still reported.
 */
class ZeroBytes
{
  public:
    /**
     * Stores at least this large are mmap'd, smaller ones calloc'd.
     * Above every per-tensor store of the zoo's scaled-down models (the
     * largest, 256 tokens of logits, is 256 KiB) and below every paged
     * KV store (MQA's, the smallest, is 2049 blocks x 256 B = 512.25 KiB).
     */
    static constexpr u64 kMmapBytes = 384 * units::KiB;

    ZeroBytes() = default;
    ~ZeroBytes() { release(); }

    ZeroBytes(const ZeroBytes &other) { copyFrom(other); }

    ZeroBytes &
    operator=(const ZeroBytes &other)
    {
        if (this != &other) {
            release();
            copyFrom(other);
        }
        return *this;
    }

    ZeroBytes(ZeroBytes &&other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          size_(std::exchange(other.size_, 0))
    {
    }

    ZeroBytes &
    operator=(ZeroBytes &&other) noexcept
    {
        std::swap(data_, other.data_);
        std::swap(size_, other.size_);
        return *this;
    }

    /** Discard any contents and become @p n zero bytes (lazily). */
    void
    assign(u64 n, u8 value)
    {
        MEDUSA_CHECK(value == 0, "ZeroBytes only supports zero fill");
        release();
        size_ = n;
    }

    /** Materializes the buffer on first call. */
    u8 *
    data()
    {
        if (data_ == nullptr && size_ > 0) {
            data_ = allocateZeroed(size_);
        }
        return data_;
    }

    u64 size() const { return size_; }

    /** True once a caller has obtained a writable pointer. */
    bool materialized() const { return data_ != nullptr; }

    /** Read-only view; null for an untouched (all-zero) store. */
    const u8 *rawData() const { return data_; }

  private:
    /** @p n zero bytes, from the size class kMmapBytes selects. */
    static u8 *allocateZeroed(u64 n);

    /**
     * Free the buffer by its size class (a mapping goes back to the
     * idle list, re-zeroed) and become empty.
     */
    void release();

    void
    copyFrom(const ZeroBytes &other)
    {
        size_ = other.size_;
        if (other.data_ == nullptr || other.size_ == 0) {
            return;
        }
        data_ = allocateZeroed(other.size_);
        std::memcpy(data_, other.data_, other.size_);
    }

    u8 *data_ = nullptr;
    u64 size_ = 0;
};

/** One live device allocation. */
struct AllocationRecord
{
    DeviceAddr base = 0;
    u64 logical_size = 0;
    /** Functional backing bytes; indexed by (addr - base). */
    ZeroBytes backing;
    /**
     * Set when a skipped kernel body (GpuProcess::discardContents) may
     * have written the backing: its bytes are undefined, so read()
     * refuses them. A full-size write or memset clears it.
     */
    bool tainted = false;
};

/**
 * The raw, driver-level allocator (cudaMalloc / cudaFree semantics).
 *
 * Addresses are assigned by a monotonic bump pointer starting at an
 * ASLR-randomized base with small random gaps, so no two process launches
 * see the same addresses. Address *reuse* — the false-positive hazard of
 * the paper's Figure 6 — is produced one level up by CachingAllocator,
 * which returns previously freed blocks.
 *
 * Because bases only grow, the live allocations are one flat table in
 * base order: malloc appends, free erases in place, and every address
 * lookup (resolve, findContaining, taint) is a branch-free binary search
 * over it.
 */
class DeviceMemoryManager
{
  public:
    /** Canonical low bound of the simulated device address range. */
    static constexpr DeviceAddr kAddrBase = 0x7f2000000000ull;

    /**
     * Width of one device's VA window. Device i hands out addresses in
     * [kAddrBase + i*kDeviceSlotBytes, kAddrBase + (i+1)*kDeviceSlotBytes):
     * 224 GiB fits the 128 GiB ASLR slide plus a 40 GiB device with
     * headroom, and four slots stay below the 0x8000'00000000
     * pointer-heuristic bound. Exposed so offline tooling (medusa-lint's
     * MDL705 coverage heuristic) can classify pointer-shaped values
     * per device without a process.
     */
    static constexpr u64 kDeviceSlotBytes = 224ull * units::GiB;

    /**
     * Default device capacity (the simulated A100-40GB). Exposed as a
     * memory-model query so offline tooling (medusa-lint's MDL5xx
     * free-memory rule) can reason about capacity without a process.
     */
    static constexpr u64 kDefaultDeviceBytes = 40ull * units::GiB;

    /**
     * @param total_logical_bytes device capacity for accounting
     *        (e.g. 40 GiB for the simulated A100-40GB).
     * @param aslr_seed seed for the per-process address randomization.
     * @param device_index shifts the address window so multi-GPU
     *        ranks occupy disjoint ranges (must be < 4).
     */
    DeviceMemoryManager(u64 total_logical_bytes, u64 aslr_seed,
                        u32 device_index = 0);

    /**
     * Allocate device memory.
     * @param logical_size accounted (real-model) byte size; must be > 0.
     * @param backing_size functional byte size actually stored; may be 0
     *        for buffers no kernel will touch (pure reservations).
     */
    StatusOr<DeviceAddr> malloc(u64 logical_size, u64 backing_size);

    /** Release an allocation by its base address. */
    Status free(DeviceAddr base);

    u64 totalLogicalBytes() const { return total_logical_; }
    u64 usedLogicalBytes() const { return used_logical_; }
    u64 freeLogicalBytes() const { return total_logical_ - used_logical_; }
    u64 liveAllocations() const { return allocs_.size(); }

    /**
     * Copy @p n bytes into device memory at @p addr (bounds-checked).
     * Writing an allocation's whole backing clears its taint.
     */
    Status write(DeviceAddr addr, const void *src, u64 n);

    /**
     * Copy @p n bytes out of device memory at @p addr (bounds-checked).
     * Fails with kFailedPrecondition if the allocation is tainted: this
     * is the one check that keeps a skipped body's undefined bytes from
     * every reader (D2H copies, the analysis stage's content dump,
     * lockstep collectives).
     */
    Status read(DeviceAddr addr, void *dst, u64 n) const;

    /**
     * Fill @p n bytes at @p addr with @p value. Filling an allocation's
     * whole backing clears its taint.
     */
    Status memset(DeviceAddr addr, u8 value, u64 n);

    /**
     * Mark the allocation containing @p addr (by logical extent, as
     * findContaining) tainted; a no-op for an unmapped address.
     */
    void taint(DeviceAddr addr);

    /**
     * A mutable float view of [addr, addr + count*4) for kernel
     * execution. Fails if the range is unmapped or exceeds backing.
     */
    StatusOr<f32 *> f32Span(DeviceAddr addr, u64 count);

    /** A mutable i32 view, for index buffers (token ids, block tables). */
    StatusOr<i32 *> i32Span(DeviceAddr addr, u64 count);

    /**
     * A mutable float view from @p addr to the end of its allocation's
     * backing: every whole float that follows @p addr. For kernels that
     * resolve a buffer once per launch and then bounds-check each row
     * or slot index against the view's size themselves. Fails if
     * @p addr is unmapped or past the backing.
     */
    StatusOr<std::span<f32>> f32Tail(DeviceAddr addr);

    /**
     * The allocation containing @p addr, or nullptr. Containment is
     * judged by *logical* extent, matching how the paper's trace analysis
     * matches pointers that land inside an allocated buffer. Valid until
     * the next malloc or free.
     */
    const AllocationRecord *findContaining(DeviceAddr addr) const;

    /**
     * Order-sensitive digest of the complete manager state: bump
     * pointer, RNG stream, accounting and every live allocation
     * (addresses, sizes, backing contents). Two managers with equal
     * fingerprints are behaviorally indistinguishable — used by the
     * rollback-invariant tests to prove a reset process matches a
     * fresh one byte for byte.
     */
    u64 stateFingerprint() const;

  private:
    /**
     * The live allocation with the greatest base at or below @p addr,
     * or null: the only candidate to contain it, since logical extents
     * never overlap.
     */
    const AllocationRecord *lastAtOrBelow(DeviceAddr addr) const;

    /** Resolve addr to (record, byte offset), checked against backing. */
    StatusOr<std::pair<AllocationRecord *, u64>>
    resolve(DeviceAddr addr, u64 bytes);

    u64 total_logical_;
    u64 used_logical_ = 0;
    DeviceAddr next_addr_;
    Rng rng_;
    /** Live allocations in increasing base order. */
    std::vector<AllocationRecord> allocs_;
};

} // namespace medusa::simcuda

#endif // MEDUSA_SIMCUDA_MEMORY_H
