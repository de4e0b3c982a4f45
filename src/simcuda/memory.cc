#include "simcuda/memory.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <unordered_map>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace medusa::simcuda {

namespace {

/**
 * Idle mmap-class stores, by exact size: what every released store
 * becomes instead of an munmap. Leaked on purpose, so a store released
 * during static destruction still finds it.
 */
struct IdleMappings
{
    std::mutex mu;
    std::unordered_map<u64, std::vector<u8 *>> by_size;
};

IdleMappings &
idleMappings()
{
    static IdleMappings *idle = new IdleMappings;
    return *idle;
}

/**
 * Zero every page of the @p n-byte mapping at @p p that a process
 * touched, and no other: mincore names the resident pages, which are
 * cleared in place; a run of non-resident pages is dropped with
 * MADV_DONTNEED, so a page that was swapped out reads as zero too.
 */
void
rezeroTouchedPages(u8 *p, u64 n)
{
    static const u64 kPage = static_cast<u64>(::sysconf(_SC_PAGESIZE));
    const u64 pages = (n + kPage - 1) / kPage;
    unsigned char resident[4096];
    for (u64 first = 0; first < pages; first += sizeof(resident)) {
        const u64 count = std::min<u64>(sizeof(resident), pages - first);
        MEDUSA_CHECK(::mincore(p + first * kPage, count * kPage,
                               resident) == 0,
                     "mincore of a ZeroBytes mapping failed");
        for (u64 i = 0; i < count;) {
            const bool in_core = (resident[i] & 1) != 0;
            u64 end = i + 1;
            while (end < count && ((resident[end] & 1) != 0) == in_core) {
                ++end;
            }
            const u64 offset = (first + i) * kPage;
            const u64 bytes = (end - i) * kPage;
            if (in_core) {
                std::memset(p + offset, 0, std::min(bytes, n - offset));
            } else {
                MEDUSA_CHECK(
                    ::madvise(p + offset, bytes, MADV_DONTNEED) == 0,
                    "madvise of a ZeroBytes mapping failed");
            }
            i = end;
        }
    }
}

} // namespace

u8 *
ZeroBytes::allocateZeroed(u64 n)
{
    void *p = nullptr;
    if (n >= kMmapBytes) {
        IdleMappings &idle = idleMappings();
        {
            std::lock_guard<std::mutex> lock(idle.mu);
            std::vector<u8 *> &stores = idle.by_size[n];
            if (!stores.empty()) {
                p = stores.back();
                stores.pop_back();
            }
        }
        if (p != nullptr) {
            ASAN_UNPOISON_MEMORY_REGION(p, n);
            return static_cast<u8 *>(p);
        }
        p = ::mmap(nullptr, n, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        p = p == MAP_FAILED ? nullptr : p;
    } else {
        p = std::calloc(n, 1);
    }
    MEDUSA_CHECK(p != nullptr, "host OOM in ZeroBytes");
    return static_cast<u8 *>(p);
}

void
ZeroBytes::release()
{
    if (data_ != nullptr) {
        if (size_ >= kMmapBytes) {
            rezeroTouchedPages(data_, size_);
            // A stale host pointer into an idle store is a use after
            // free; ASan reports it as one.
            ASAN_POISON_MEMORY_REGION(data_, size_);
            IdleMappings &idle = idleMappings();
            std::lock_guard<std::mutex> lock(idle.mu);
            idle.by_size[size_].push_back(data_);
        } else {
            std::free(data_);
        }
    }
    data_ = nullptr;
    size_ = 0;
}

DeviceMemoryManager::DeviceMemoryManager(u64 total_logical_bytes,
                                         u64 aslr_seed, u32 device_index)
    : total_logical_(total_logical_bytes), rng_(aslr_seed)
{
    MEDUSA_CHECK(device_index < 4, "device index out of range");
    // Randomize the mapping base within a 128 GiB window, 2 MiB
    // aligned — a fresh process launch never sees the same addresses.
    const u64 slide = (rng_.nextU64() % (128 * units::GiB)) &
                      ~(2 * units::MiB - 1);
    next_addr_ = kAddrBase + device_index * kDeviceSlotBytes + slide;
}

StatusOr<DeviceAddr>
DeviceMemoryManager::malloc(u64 logical_size, u64 backing_size)
{
    if (logical_size == 0) {
        return invalidArgument("cudaMalloc of zero bytes");
    }
    // Functional backing is the scaled-down storage and is always far
    // smaller than these bounds; reject absurd requests (e.g. from a
    // corrupted artifact replay) before touching host memory.
    if (backing_size > logical_size ||
        backing_size > 256 * units::MiB) {
        return invalidArgument("implausible functional backing size");
    }
    if (logical_size > freeLogicalBytes()) {
        return outOfMemory("device OOM: requested " +
                           std::to_string(logical_size) + " bytes, free " +
                           std::to_string(freeLogicalBytes()));
    }
    // Small random gap between allocations keeps offsets non-constant
    // across launches even within one process.
    const u64 gap = 256 * (rng_.nextU64() % 4);
    const DeviceAddr base = (next_addr_ + gap + 255) & ~255ull;
    // Advance by the *logical* footprint so logical extents never overlap
    // (findContaining relies on this).
    next_addr_ = base + ((logical_size + 255) & ~255ull);

    // The bump pointer only grows, so the new base is above every live
    // one and the table stays sorted by appending.
    AllocationRecord &rec = allocs_.emplace_back();
    rec.base = base;
    rec.logical_size = logical_size;
    rec.backing.assign(backing_size, 0);
    used_logical_ += logical_size;
    return base;
}

Status
DeviceMemoryManager::free(DeviceAddr base)
{
    const AllocationRecord *rec = lastAtOrBelow(base);
    if (rec == nullptr || rec->base != base) {
        return invalidArgument("cudaFree of unmapped address");
    }
    used_logical_ -= rec->logical_size;
    allocs_.erase(allocs_.begin() + (rec - allocs_.data()));
    return Status::ok();
}

const AllocationRecord *
DeviceMemoryManager::lastAtOrBelow(DeviceAddr addr) const
{
    if (allocs_.empty() || allocs_.front().base > addr) {
        return nullptr;
    }
    // Branch-free binary search: the comparisons are unpredictable, and
    // a mispredicted branch per level costs more than the level itself.
    const AllocationRecord *last = allocs_.data();
    for (std::size_t n = allocs_.size(); n > 1;) {
        const std::size_t half = n / 2;
        last = last[half].base <= addr ? last + half : last;
        n -= half;
    }
    return last;
}

StatusOr<std::pair<AllocationRecord *, u64>>
DeviceMemoryManager::resolve(DeviceAddr addr, u64 bytes)
{
    const AllocationRecord *found = lastAtOrBelow(addr);
    if (found == nullptr) {
        return invalidArgument("illegal device access: unmapped address");
    }
    AllocationRecord &rec = const_cast<AllocationRecord &>(*found);
    const u64 offset = addr - rec.base;
    if (offset > rec.backing.size() ||
        bytes > rec.backing.size() - offset) {
        return invalidArgument(
            "illegal device access: out of backing bounds (offset " +
            std::to_string(offset) + " + " + std::to_string(bytes) +
            " > " + std::to_string(rec.backing.size()) + ")");
    }
    return std::pair<AllocationRecord *, u64>{&rec, offset};
}

Status
DeviceMemoryManager::write(DeviceAddr addr, const void *src, u64 n)
{
    MEDUSA_ASSIGN_OR_RETURN(auto loc, resolve(addr, n));
    std::memcpy(loc.first->backing.data() + loc.second, src, n);
    if (n == loc.first->backing.size()) {
        loc.first->tainted = false;
    }
    return Status::ok();
}

Status
DeviceMemoryManager::read(DeviceAddr addr, void *dst, u64 n) const
{
    auto *self = const_cast<DeviceMemoryManager *>(this);
    MEDUSA_ASSIGN_OR_RETURN(auto loc, self->resolve(addr, n));
    if (loc.first->tainted) {
        return failedPrecondition(
            "read of device bytes a skipped kernel body left undefined");
    }
    if (!loc.first->backing.materialized()) {
        // Untouched backing reads as zeros without materializing.
        std::memset(dst, 0, n);
        return Status::ok();
    }
    std::memcpy(dst, loc.first->backing.rawData() + loc.second, n);
    return Status::ok();
}

Status
DeviceMemoryManager::memset(DeviceAddr addr, u8 value, u64 n)
{
    MEDUSA_ASSIGN_OR_RETURN(auto loc, resolve(addr, n));
    if (n == loc.first->backing.size()) {
        loc.first->tainted = false;
    }
    if (value == 0 && !loc.first->backing.materialized()) {
        return Status::ok(); // already all-zero
    }
    std::memset(loc.first->backing.data() + loc.second, value, n);
    return Status::ok();
}

void
DeviceMemoryManager::taint(DeviceAddr addr)
{
    if (const AllocationRecord *rec = findContaining(addr)) {
        const_cast<AllocationRecord *>(rec)->tainted = true;
    }
}

namespace {

/** Bytes of @p count 4-byte elements, saturated so it cannot wrap. */
u64
elementBytes(u64 count)
{
    constexpr u64 kMax = std::numeric_limits<u64>::max();
    return count > kMax / 4 ? kMax : count * 4;
}

} // namespace

StatusOr<f32 *>
DeviceMemoryManager::f32Span(DeviceAddr addr, u64 count)
{
    MEDUSA_ASSIGN_OR_RETURN(auto loc, resolve(addr, elementBytes(count)));
    return reinterpret_cast<f32 *>(loc.first->backing.data() + loc.second);
}

StatusOr<i32 *>
DeviceMemoryManager::i32Span(DeviceAddr addr, u64 count)
{
    MEDUSA_ASSIGN_OR_RETURN(auto loc, resolve(addr, elementBytes(count)));
    return reinterpret_cast<i32 *>(loc.first->backing.data() + loc.second);
}

StatusOr<std::span<f32>>
DeviceMemoryManager::f32Tail(DeviceAddr addr)
{
    MEDUSA_ASSIGN_OR_RETURN(auto loc, resolve(addr, 0));
    const u64 floats = (loc.first->backing.size() - loc.second) /
                       sizeof(f32);
    return std::span<f32>(
        reinterpret_cast<f32 *>(loc.first->backing.data() + loc.second),
        floats);
}

const AllocationRecord *
DeviceMemoryManager::findContaining(DeviceAddr addr) const
{
    const AllocationRecord *rec = lastAtOrBelow(addr);
    if (rec != nullptr && addr < rec->base + rec->logical_size) {
        return rec;
    }
    return nullptr;
}

u64
DeviceMemoryManager::stateFingerprint() const
{
    auto mix = [](u64 h, u64 v) {
        return (h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2))) *
               0x100000001b3ull;
    };
    u64 h = 0xcbf29ce484222325ull;
    h = mix(h, total_logical_);
    h = mix(h, used_logical_);
    h = mix(h, next_addr_);
    h = mix(h, rng_.stateHash());
    for (const AllocationRecord &rec : allocs_) {
        h = mix(h, rec.base);
        h = mix(h, rec.logical_size);
        h = mix(h, rec.backing.size());
        // An unmaterialized store is all zeros by construction; hash the
        // implicit zeros so the digest is independent of laziness.
        if (rec.backing.materialized()) {
            const u8 *bytes = rec.backing.rawData();
            for (u64 i = 0; i < rec.backing.size(); ++i) {
                h = mix(h, bytes[i]);
            }
        } else {
            for (u64 i = 0; i < rec.backing.size(); ++i) {
                h = mix(h, 0);
            }
        }
    }
    return h;
}

} // namespace medusa::simcuda
