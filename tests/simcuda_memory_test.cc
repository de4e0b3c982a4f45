/**
 * @file
 * Unit tests for the simulated device memory: allocation accounting,
 * address non-determinism across process launches (ASLR), bounds
 * checking of functional accesses, and containment queries.
 */

#include <gtest/gtest.h>

#include "simcuda/memory.h"

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

} // namespace
} // namespace medusa::simcuda
