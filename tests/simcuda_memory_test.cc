/**
 * @file
 * Unit tests for the simulated device memory: allocation accounting,
 * address non-determinism across process launches (ASLR), bounds
 * checking of functional accesses, containment queries and the flat
 * allocation table's lookups at every boundary, the demand-zero
 * backing store on both sides of its size cut-off, and the
 * recycling of large stores across simulated processes.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "llm/model_config.h"
#include "medusa/offline.h"
#include "medusa/restore.h"
#include "simcuda/gpu_process.h"
#include "simcuda/memory.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace medusa::simcuda {
namespace {

TEST(DeviceMemoryTest, AllocateAndAccount)
{
    DeviceMemoryManager mem(1 * units::GiB, 1);
    EXPECT_EQ(mem.freeLogicalBytes(), 1 * units::GiB);
    auto a = mem.malloc(1000, 64);
    ASSERT_TRUE(a.isOk());
    EXPECT_EQ(mem.usedLogicalBytes(), 1000u);
    EXPECT_EQ(mem.liveAllocations(), 1u);
    ASSERT_TRUE(mem.free(*a).isOk());
    EXPECT_EQ(mem.usedLogicalBytes(), 0u);
    EXPECT_EQ(mem.liveAllocations(), 0u);
}

TEST(DeviceMemoryTest, ZeroSizeRejected)
{
    DeviceMemoryManager mem(units::MiB, 1);
    EXPECT_FALSE(mem.malloc(0, 0).isOk());
}

TEST(DeviceMemoryTest, OutOfMemory)
{
    DeviceMemoryManager mem(units::MiB, 1);
    auto a = mem.malloc(units::MiB, 0);
    ASSERT_TRUE(a.isOk());
    auto b = mem.malloc(1, 0);
    ASSERT_FALSE(b.isOk());
    EXPECT_EQ(b.status().code(), StatusCode::kOutOfMemory);
}

TEST(DeviceMemoryTest, DoubleFreeRejected)
{
    DeviceMemoryManager mem(units::MiB, 1);
    auto a = mem.malloc(100, 0);
    ASSERT_TRUE(mem.free(*a).isOk());
    EXPECT_FALSE(mem.free(*a).isOk());
}

TEST(DeviceMemoryTest, AddressesAreHighCanonical)
{
    DeviceMemoryManager mem(units::GiB, 99);
    auto a = mem.malloc(100, 0);
    // The pointer-classification heuristic depends on this prefix.
    EXPECT_GE(*a, DeviceMemoryManager::kAddrBase);
    EXPECT_LT(*a, 0x800000000000ull);
}

TEST(DeviceMemoryTest, AslrChangesAddressesAcrossLaunches)
{
    DeviceMemoryManager mem1(units::GiB, 1);
    DeviceMemoryManager mem2(units::GiB, 2);
    auto a1 = mem1.malloc(4096, 0);
    auto a2 = mem2.malloc(4096, 0);
    EXPECT_NE(*a1, *a2);
}

TEST(DeviceMemoryTest, SameSeedSameAddresses)
{
    DeviceMemoryManager mem1(units::GiB, 42);
    DeviceMemoryManager mem2(units::GiB, 42);
    EXPECT_EQ(*mem1.malloc(4096, 0), *mem2.malloc(4096, 0));
}

TEST(DeviceMemoryTest, AllocationsNeverOverlapLogically)
{
    DeviceMemoryManager mem(units::GiB, 3);
    DeviceAddr prev_end = 0;
    for (int i = 0; i < 100; ++i) {
        auto a = mem.malloc(1000 + i * 37, 0);
        ASSERT_TRUE(a.isOk());
        EXPECT_GE(*a, prev_end);
        prev_end = *a + 1000 + i * 37;
    }
}

TEST(DeviceMemoryTest, WriteReadRoundTrip)
{
    DeviceMemoryManager mem(units::GiB, 1);
    auto a = mem.malloc(4096, 64);
    const u32 value = 0xabad1deau;
    ASSERT_TRUE(mem.write(*a + 8, &value, sizeof(value)).isOk());
    u32 out = 0;
    ASSERT_TRUE(mem.read(*a + 8, &out, sizeof(out)).isOk());
    EXPECT_EQ(out, value);
}

TEST(DeviceMemoryTest, AccessBeyondBackingFails)
{
    DeviceMemoryManager mem(units::GiB, 1);
    // Logical 4096 but only 64 bytes of functional backing.
    auto a = mem.malloc(4096, 64);
    u8 byte = 0;
    EXPECT_TRUE(mem.read(*a + 63, &byte, 1).isOk());
    EXPECT_FALSE(mem.read(*a + 64, &byte, 1).isOk());
    EXPECT_FALSE(mem.write(*a + 60, &byte, 8).isOk());
}

TEST(DeviceMemoryTest, UnmappedAccessFails)
{
    DeviceMemoryManager mem(units::GiB, 1);
    u8 byte = 0;
    EXPECT_FALSE(mem.read(DeviceMemoryManager::kAddrBase, &byte, 1)
                     .isOk());
}

TEST(DeviceMemoryTest, FreedMemoryNoLongerAccessible)
{
    DeviceMemoryManager mem(units::GiB, 1);
    auto a = mem.malloc(128, 128);
    ASSERT_TRUE(mem.free(*a).isOk());
    u8 byte = 0;
    EXPECT_FALSE(mem.read(*a, &byte, 1).isOk());
}

TEST(DeviceMemoryTest, F32SpanIsMutable)
{
    DeviceMemoryManager mem(units::GiB, 1);
    auto a = mem.malloc(1024, 1024);
    auto span = mem.f32Span(*a, 4);
    ASSERT_TRUE(span.isOk());
    (*span)[2] = 1.5f;
    f32 out = 0;
    ASSERT_TRUE(mem.read(*a + 8, &out, 4).isOk());
    EXPECT_FLOAT_EQ(out, 1.5f);
}

TEST(DeviceMemoryTest, I32SpanWorks)
{
    DeviceMemoryManager mem(units::GiB, 1);
    auto a = mem.malloc(64, 64);
    auto span = mem.i32Span(*a, 4);
    ASSERT_TRUE(span.isOk());
    (*span)[0] = -7;
    i32 out = 0;
    ASSERT_TRUE(mem.read(*a, &out, 4).isOk());
    EXPECT_EQ(out, -7);
}

TEST(DeviceMemoryTest, F32TailSpansToEndOfBacking)
{
    DeviceMemoryManager mem(units::GiB, 1);
    // Logical 4096 but 66 bytes of backing: 16 whole floats after +2.
    auto a = mem.malloc(4096, 66);
    auto tail = mem.f32Tail(*a + 2);
    ASSERT_TRUE(tail.isOk());
    EXPECT_EQ(tail->size(), 16u);
    (*tail)[15] = 2.5f;
    f32 out = 0;
    ASSERT_TRUE(mem.read(*a + 62, &out, 4).isOk());
    EXPECT_FLOAT_EQ(out, 2.5f);

    auto end = mem.f32Tail(*a + 66);
    ASSERT_TRUE(end.isOk());
    EXPECT_TRUE(end->empty());
    EXPECT_FALSE(mem.f32Tail(*a + 67).isOk());
    EXPECT_FALSE(mem.f32Tail(DeviceMemoryManager::kAddrBase).isOk());
}

TEST(DeviceMemoryTest, HugeSpanCountsDoNotWrap)
{
    DeviceMemoryManager mem(units::GiB, 1);
    auto a = mem.malloc(64, 64);
    // count * 4 wraps to 64 - 4 in u64 arithmetic; it must still fail.
    const u64 wraps = (~0ull / 4) + 16;
    EXPECT_FALSE(mem.f32Span(*a + 4, wraps).isOk());
    EXPECT_FALSE(mem.i32Span(*a + 4, wraps).isOk());
    u8 byte = 0;
    EXPECT_FALSE(mem.read(*a + 8, &byte, ~0ull - 4).isOk());
}

TEST(DeviceMemoryTest, FindContainingUsesLogicalExtent)
{
    DeviceMemoryManager mem(units::GiB, 1);
    // Logical 4096, backing only 16: interior logical pointers must
    // still be attributed to this allocation (trace matching relies on
    // range containment).
    auto a = mem.malloc(4096, 16);
    const AllocationRecord *rec = mem.findContaining(*a + 4000);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->base, *a);
    EXPECT_EQ(mem.findContaining(*a + 4096 + 100000), nullptr);
}

/** Byte 0 at @p addr: the status of a one-byte read there. */
Status
readByte(const DeviceMemoryManager &mem, DeviceAddr addr)
{
    u8 byte = 0;
    return mem.read(addr, &byte, 1);
}

TEST(DeviceMemoryTest, FlatTableLookupsAtEveryBoundary)
{
    DeviceMemoryManager mem(units::GiB, 7);
    // Logical sizes below their 256-byte footprint leave a gap after
    // each extent; backings shorter than the logical size leave a
    // logical-only tail.
    const DeviceAddr a = *mem.malloc(4000, 64);
    const DeviceAddr b = *mem.malloc(1000, 1000);
    const DeviceAddr c = *mem.malloc(300, 16);
    ASSERT_LT(a, b);
    ASSERT_LT(b, c);

    // Below the first base.
    EXPECT_EQ(mem.findContaining(a - 1), nullptr);
    EXPECT_EQ(readByte(mem, a - 1).message(),
              "illegal device access: unmapped address");
    mem.taint(a - 1);

    // The gap between a's logical end and b's base.
    for (DeviceAddr gap : {a + 4000, b - 1}) {
        EXPECT_EQ(mem.findContaining(gap), nullptr);
        EXPECT_EQ(readByte(mem, gap).code(), StatusCode::kInvalidArgument);
        mem.taint(gap);
    }
    EXPECT_EQ(readByte(mem, a + 4000).message(),
              "illegal device access: out of backing bounds (offset 4000 "
              "+ 1 > 64)");

    // Between the backing end and the logical end: containment by the
    // logical extent finds the allocation, functional access refuses.
    const AllocationRecord *tail = mem.findContaining(a + 64);
    ASSERT_NE(tail, nullptr);
    EXPECT_EQ(tail->base, a);
    EXPECT_EQ(mem.findContaining(a + 3999), tail);
    EXPECT_EQ(readByte(mem, a + 64).message(),
              "illegal device access: out of backing bounds (offset 64 + "
              "1 > 64)");

    // No taint above reached an allocation; a logical-tail taint does.
    EXPECT_TRUE(readByte(mem, a).isOk());
    EXPECT_TRUE(readByte(mem, b).isOk());
    EXPECT_TRUE(readByte(mem, c).isOk());
    mem.taint(a + 3999);
    EXPECT_EQ(readByte(mem, a).code(), StatusCode::kFailedPrecondition);
    EXPECT_TRUE(readByte(mem, b).isOk());

    // Every base and last logical byte resolves to its own record.
    for (auto [base, size] : {std::pair{a, 4000}, std::pair{b, 1000},
                              std::pair{c, 300}}) {
        ASSERT_NE(mem.findContaining(base), nullptr);
        EXPECT_EQ(mem.findContaining(base)->base, base);
        EXPECT_EQ(mem.findContaining(base + size - 1)->base, base);
        EXPECT_EQ(mem.findContaining(base + size), nullptr);
    }

    // Free the middle allocation, then the last one.
    ASSERT_TRUE(mem.free(b).isOk());
    EXPECT_EQ(mem.liveAllocations(), 2u);
    EXPECT_EQ(mem.findContaining(b), nullptr);
    EXPECT_EQ(mem.findContaining(b + 999), nullptr);
    EXPECT_EQ(mem.free(b).message(), "cudaFree of unmapped address");
    EXPECT_EQ(mem.free(b + 8).message(), "cudaFree of unmapped address");
    EXPECT_EQ(mem.findContaining(a + 10)->base, a);
    EXPECT_EQ(mem.findContaining(c + 10)->base, c);
    ASSERT_TRUE(mem.free(c).isOk());
    EXPECT_EQ(mem.findContaining(c), nullptr);
    EXPECT_EQ(mem.findContaining(a + 10)->base, a);

    // The next allocation lands above every freed one and is found.
    const DeviceAddr d = *mem.malloc(512, 8);
    EXPECT_GT(d, c);
    EXPECT_EQ(mem.findContaining(d + 511)->base, d);
    EXPECT_EQ(mem.findContaining(c), nullptr);
    EXPECT_EQ(mem.liveAllocations(), 2u);
    EXPECT_EQ(mem.usedLogicalBytes(), 4000u + 512u);

    // Freeing the first base leaves only d.
    ASSERT_TRUE(mem.free(a).isOk());
    EXPECT_EQ(mem.findContaining(a), nullptr);
    EXPECT_EQ(readByte(mem, a).message(),
              "illegal device access: unmapped address");
    EXPECT_EQ(mem.findContaining(d)->base, d);
}

TEST(DeviceMemoryTest, FlatTableIsEmptyAfterResetToPristine)
{
    SimClock clock;
    CostModel cost;
    GpuProcessOptions opts;
    opts.aslr_seed = 5;
    GpuProcess process(opts, &clock, &cost);
    ASSERT_EQ(process.memory().liveAllocations(), 0u);
    const u64 fingerprint_at_launch = process.memory().stateFingerprint();
    std::vector<DeviceAddr> addrs;
    for (int i = 0; i < 5; ++i) {
        addrs.push_back(*process.memory().malloc(1000 + 100 * i, 32));
    }
    ASSERT_TRUE(process.memory().free(addrs[2]).isOk());

    process.resetToPristine();
    EXPECT_EQ(process.memory().liveAllocations(), 0u);
    EXPECT_EQ(process.memory().stateFingerprint(), fingerprint_at_launch);
    for (DeviceAddr addr : addrs) {
        EXPECT_EQ(process.memory().findContaining(addr), nullptr);
        EXPECT_EQ(readByte(process.memory(), addr).message(),
                  "illegal device access: unmapped address");
    }
    // The relaunched process draws the same addresses again.
    for (int i = 0; i < 5; ++i) {
        const DeviceAddr again =
            *process.memory().malloc(1000 + 100 * i, 32);
        EXPECT_EQ(again, addrs[i]);
        EXPECT_EQ(process.memory().findContaining(again + 999)->base,
                  again);
    }
}

constexpr u64 kLarge = ZeroBytes::kMmapBytes;
constexpr u64 kSmall = ZeroBytes::kMmapBytes - 1;

TEST(ZeroBytesTest, UntouchedLargeStoreReadsAsZeros)
{
    const u64 big = 2 * kLarge + 12;
    ZeroBytes z;
    z.assign(big, 0);
    const u8 *p = z.data();
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(std::all_of(p, p + big, [](u8 b) { return b == 0; }));

    DeviceMemoryManager mem(units::GiB, 1);
    auto a = mem.malloc(big, big);
    ASSERT_TRUE(a.isOk());
    // Touch only the last float; everything before it reads as zero.
    auto last = mem.f32Span(*a + big - 4, 1);
    ASSERT_TRUE(last.isOk());
    (*last)[0] = 1.5f;
    std::vector<u8> bytes(big, 0xff);
    ASSERT_TRUE(mem.read(*a, bytes.data(), big).isOk());
    EXPECT_TRUE(std::all_of(bytes.begin(), bytes.end() - 4,
                            [](u8 b) { return b == 0; }));
    f32 tail = 0;
    std::memcpy(&tail, bytes.data() + big - 4, 4);
    EXPECT_EQ(tail, 1.5f);
}

/** Materializing a store without writing to it moves no fingerprint. */
TEST(ZeroBytesTest, MaterializingDoesNotMoveFingerprint)
{
    DeviceMemoryManager lazy(units::GiB, 3);
    DeviceMemoryManager touched(units::GiB, 3);
    for (u64 size : {kSmall, kLarge}) {
        auto a = lazy.malloc(size, size);
        auto b = touched.malloc(size, size);
        ASSERT_TRUE(a.isOk());
        ASSERT_TRUE(b.isOk());
        ASSERT_TRUE(touched.f32Tail(*b).isOk());
    }
    EXPECT_EQ(lazy.stateFingerprint(), touched.stateFingerprint());
}

TEST(ZeroBytesTest, RoundTripsOnBothSidesOfCutOff)
{
    DeviceMemoryManager mem(units::GiB, 1);
    for (u64 size : {u64{64}, kSmall, kLarge, kLarge + 4099}) {
        auto a = mem.malloc(size, size);
        ASSERT_TRUE(a.isOk());
        for (u64 off : {u64{0}, size / 2, size - 4}) {
            const u32 word = static_cast<u32>(size ^ off);
            ASSERT_TRUE(mem.write(*a + off, &word, 4).isOk());
            u32 out = 0;
            ASSERT_TRUE(mem.read(*a + off, &out, 4).isOk());
            EXPECT_EQ(out, word) << "size=" << size << " off=" << off;
        }
        ASSERT_TRUE(mem.free(*a).isOk());
    }
}

/** A materialized store of @p n bytes marked at both ends. */
ZeroBytes
marked(u64 n, u8 mark)
{
    ZeroBytes z;
    z.assign(n, 0);
    z.data()[0] = mark;
    z.data()[n - 1] = mark + 1;
    return z;
}

bool
holds(const ZeroBytes &z, u64 n, u8 mark)
{
    return z.size() == n && z.rawData() != nullptr &&
           z.rawData()[0] == mark && z.rawData()[n / 2] == 0 &&
           z.rawData()[n - 1] == mark + 1;
}

/**
 * The allocator (mmap or calloc) follows the size, so every path that
 * moves a buffer between stores must move the size with it; a free()
 * of a mapping or a munmap() of a heap block would crash or show under
 * ASan.
 */
TEST(ZeroBytesTest, CopyMoveAndAssignAcrossCutOff)
{
    const std::pair<u64, u64> pairs[] = {
        {kLarge, kSmall}, {kSmall, kLarge}, {kLarge, kLarge + 8}};
    for (const auto &[from, to] : pairs) {
        const ZeroBytes src = marked(from, 7);

        ZeroBytes copy(src);
        EXPECT_TRUE(holds(copy, from, 7));

        ZeroBytes copy_assigned = marked(to, 3);
        copy_assigned = src;
        EXPECT_TRUE(holds(copy_assigned, from, 7));

        ZeroBytes moved_from = marked(from, 7);
        ZeroBytes moved(std::move(moved_from));
        EXPECT_TRUE(holds(moved, from, 7));
        EXPECT_EQ(moved_from.size(), 0u);

        ZeroBytes move_assigned = marked(to, 3);
        ZeroBytes donor = marked(from, 7);
        move_assigned = std::move(donor);
        EXPECT_TRUE(holds(move_assigned, from, 7));

        ZeroBytes reassigned = marked(from, 7);
        reassigned.assign(to, 0);
        EXPECT_EQ(reassigned.size(), to);
        EXPECT_FALSE(reassigned.materialized());
        reassigned.data()[to - 1] = 9;
        EXPECT_EQ(reassigned.rawData()[0], 0);
    }

    ZeroBytes self = marked(kLarge, 5);
    ZeroBytes &alias = self;
    self = alias;
    EXPECT_TRUE(holds(self, kLarge, 5));
    self = std::move(alias);
    EXPECT_TRUE(holds(self, kLarge, 5));
}

TEST(ZeroBytesTest, F32TailSpansWholeLargeBacking)
{
    DeviceMemoryManager mem(units::GiB, 1);
    const u64 big = 2 * kLarge + 8;
    auto a = mem.malloc(big, big);
    ASSERT_TRUE(a.isOk());
    auto tail = mem.f32Tail(*a);
    ASSERT_TRUE(tail.isOk());
    ASSERT_EQ(tail->size(), big / 4);
    EXPECT_EQ(tail->front(), 0.0f);
    EXPECT_EQ(tail->back(), 0.0f);
    tail->back() = -2.0f;
    f32 out = 0;
    ASSERT_TRUE(mem.read(*a + big - 4, &out, 4).isOk());
    EXPECT_EQ(out, -2.0f);
}

// ---- recycled mappings --------------------------------------------------
//
// Each test uses a size of its own, so the mapping it releases is the
// only idle one of that size and the next store of that size gets it.

/** The host page size. */
u64
pageBytes()
{
    return static_cast<u64>(::sysconf(_SC_PAGESIZE));
}

/** The mapping a store of @p n bytes gets: released, then reused. */
u8 *
recycledOnce(u64 n, void (*touch)(u8 *, u64))
{
    ZeroBytes z;
    z.assign(n, 0);
    u8 *first = z.data();
    touch(first, n);
    z.assign(n, 0); // releases the mapping to the idle list
#if defined(__SANITIZE_ADDRESS__)
    // A stale pointer into an idle store is still reported.
    EXPECT_NE(__asan_address_is_poisoned(first), 0);
#endif
    return first;
}

bool
allZero(const u8 *p, u64 n)
{
    return std::all_of(p, p + n, [](u8 b) { return b == 0; });
}

TEST(ZeroBytesTest, RecycledStoreReadsAllZero)
{
    // A last page only partly inside the store.
    const u64 n = kLarge + 5 * pageBytes() + 123;
    u8 *first = recycledOnce(n, [](u8 *p, u64 size) {
        p[0] = 0xa5;
        std::memset(p + (size / pageBytes() / 2) * pageBytes() + 17, 0x5a,
                    pageBytes());
        p[size - 1] = 0x3c;
    });
    ZeroBytes again;
    again.assign(n, 0);
    ASSERT_EQ(again.data(), first) << "the idle mapping was not reused";
    EXPECT_TRUE(allZero(again.rawData(), n));
}

TEST(ZeroBytesTest, RecycledMappingServesOnlyItsOwnSize)
{
    const u64 n = kLarge + 7 * pageBytes();
    u8 *first = recycledOnce(n, [](u8 *p, u64) { p[0] = 1; });
    for (u64 other : {n - 8, n + 8, n + pageBytes()}) {
        ZeroBytes z;
        z.assign(other, 0);
        EXPECT_NE(z.data(), first) << "size " << other;
        EXPECT_TRUE(allZero(z.rawData(), other));
    }
    ZeroBytes same;
    same.assign(n, 0);
    EXPECT_EQ(same.data(), first);
    EXPECT_TRUE(allZero(same.rawData(), n));
}

TEST(ZeroBytesTest, UntouchedStoreRecyclesCleanly)
{
    const u64 n = kLarge + 11 * pageBytes() + 5;
    u8 *first = recycledOnce(n, [](u8 *, u64) {});
    ZeroBytes again;
    again.assign(n, 0);
    ASSERT_EQ(again.data(), first);
    EXPECT_TRUE(allZero(again.rawData(), n));
    again.data()[n / 2] = 7;
    EXPECT_EQ(again.rawData()[n / 2], 7);
}

/**
 * Two threads each run validated cold starts and destroy them, so both
 * take stores from and give them back to the one idle list while the
 * other does; every restore must still validate and charge the same
 * virtual time.
 */
TEST(ZeroBytesTest, ConcurrentValidatedColdStartsRecycleStores)
{
    llm::ModelConfig model = llm::findModel("Qwen1.5-0.5B").value();
    model.num_layers = 2;
    core::OfflineOptions oopts;
    oopts.model = model;
    oopts.pipeline.validate = false;
    auto offline = core::materialize(oopts);
    ASSERT_TRUE(offline.isOk()) << offline.status().toString();

    core::MedusaEngine::Options opts;
    opts.model = model;
    opts.restore.pipeline.validate = true;
    constexpr int kThreads = 2;
    constexpr int kRounds = 3;
    std::vector<std::vector<f64>> seconds(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t]() {
            for (int r = 0; r < kRounds; ++r) {
                auto engine = core::MedusaEngine::coldStartFromImage(
                    opts, offline->artifact);
                seconds[t].push_back(
                    engine.isOk()
                        ? (*engine)->runtime().clock().nowSec()
                        : -1.0);
            }
        });
    }
    for (std::thread &t : threads) {
        t.join();
    }
    ASSERT_GT(seconds[0][0], 0.0);
    for (const std::vector<f64> &per_thread : seconds) {
        for (f64 sec : per_thread) {
            EXPECT_EQ(sec, seconds[0][0]);
        }
    }
}

} // namespace
} // namespace medusa::simcuda
