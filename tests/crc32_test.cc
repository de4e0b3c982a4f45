/**
 * @file
 * CRC-32 variants against a bit-at-a-time reference: the check value,
 * random lengths up to 70,000 bytes, and every start alignment and
 * tail length around the 16-byte folding blocks. Every variant the
 * host can run is checked, so the portable slicing-by-8 fallback is
 * exercised on PCLMULQDQ hosts too.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"

namespace medusa {
namespace {

/** Reflected CRC-32 (0xEDB88320), one bit at a time. */
u32
referenceCrc32(const u8 *p, std::size_t size)
{
    u32 crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) {
        crc ^= p[i];
        for (int k = 0; k < 8; ++k) {
            crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
        }
    }
    return crc ^ 0xFFFFFFFFu;
}

std::vector<u8>
randomBytes(std::size_t n, u64 seed)
{
    Rng rng(seed);
    std::vector<u8> bytes(n);
    for (u8 &b : bytes) {
        b = static_cast<u8>(rng.nextU64());
    }
    return bytes;
}

std::vector<detail::Crc32Variant>
hostVariants()
{
    std::vector<detail::Crc32Variant> out;
    for (const detail::Crc32Variant &v : detail::crc32Variants()) {
        if (v.host_supported) {
            out.push_back(v);
        }
    }
    return out;
}

TEST(Crc32Test, PortableFallbackIsAlwaysListedAndRunnable)
{
    const auto variants = detail::crc32Variants();
    ASSERT_FALSE(variants.empty());
    EXPECT_STREQ(variants[0].name, "slicing8");
    EXPECT_TRUE(variants[0].host_supported);
}

TEST(Crc32Test, CheckValueAndEmptyInput)
{
    const std::string check = "123456789";
    for (const detail::Crc32Variant &v : hostVariants()) {
        SCOPED_TRACE(v.name);
        EXPECT_EQ(v.fn(check.data(), check.size()), 0xCBF43926u);
        EXPECT_EQ(v.fn(nullptr, 0), 0u);
        EXPECT_EQ(v.fn(check.data(), 0), 0u);
    }
    EXPECT_EQ(crc32(check.data(), check.size()), 0xCBF43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, DispatchRunsTheWidestHostVariant)
{
    const auto variants = hostVariants();
    const std::vector<u8> bytes = randomBytes(4099, 3);
    EXPECT_EQ(crc32(bytes.data(), bytes.size()),
              variants.back().fn(bytes.data(), bytes.size()));
}

TEST(Crc32Test, RandomLengthsMatchTheReference)
{
    constexpr std::size_t kMax = 70'000;
    const std::vector<u8> bytes = randomBytes(kMax, 11);
    Rng rng(12);
    std::vector<std::size_t> lengths = {0, 1, 15, 16, 63, 64, 65, 127,
                                        128, 129, 4096, kMax};
    for (int i = 0; i < 200; ++i) {
        lengths.push_back(rng.nextU64() % (kMax + 1));
    }
    for (const detail::Crc32Variant &v : hostVariants()) {
        SCOPED_TRACE(v.name);
        for (std::size_t n : lengths) {
            ASSERT_EQ(v.fn(bytes.data(), n), referenceCrc32(bytes.data(), n))
                << "length " << n;
        }
    }
}

TEST(Crc32Test, EveryAlignmentAndTailMatchesTheReference)
{
    const std::vector<u8> bytes = randomBytes(16 + 1024 + 16, 21);
    // Whole-block prefixes below, at and above the 64-byte folding
    // threshold, including a 16-byte single fold after the 4-lane loop.
    const std::size_t blocks[] = {0, 16, 48, 64, 80, 128, 192, 1024};
    for (const detail::Crc32Variant &v : hostVariants()) {
        SCOPED_TRACE(v.name);
        for (std::size_t align = 0; align < 16; ++align) {
            for (std::size_t body : blocks) {
                for (std::size_t tail = 0; tail < 16; ++tail) {
                    const u8 *p = bytes.data() + align;
                    const std::size_t n = body + tail;
                    ASSERT_EQ(v.fn(p, n), referenceCrc32(p, n))
                        << "align " << align << " body " << body
                        << " tail " << tail;
                }
            }
        }
    }
}

TEST(Crc32Test, VariantsAgreeOnAMultiMegabyteImage)
{
    const std::vector<u8> bytes = randomBytes(3'716'504, 31);
    const u32 expect = referenceCrc32(bytes.data(), bytes.size());
    for (const detail::Crc32Variant &v : hostVariants()) {
        SCOPED_TRACE(v.name);
        EXPECT_EQ(v.fn(bytes.data(), bytes.size()), expect);
    }
}

} // namespace
} // namespace medusa
