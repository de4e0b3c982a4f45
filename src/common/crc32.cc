#include "common/crc32.h"

#include <array>
#include <cstring>

#include <immintrin.h>

namespace medusa {

namespace {

// Slicing-by-8: table[0] is the classic byte-at-a-time table; table[k]
// folds a byte that sits k positions deeper in the stream. Output is
// bit-identical to the byte-at-a-time loop — only throughput changes.
constexpr std::array<std::array<u32, 256>, 8>
makeCrcTables()
{
    std::array<std::array<u32, 256>, 8> tables{};
    for (u32 i = 0; i < 256; ++i) {
        u32 c = i;
        for (int k = 0; k < 8; ++k) {
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        }
        tables[0][i] = c;
    }
    for (u32 i = 0; i < 256; ++i) {
        u32 c = tables[0][i];
        for (std::size_t t = 1; t < 8; ++t) {
            c = tables[0][c & 0xFFu] ^ (c >> 8);
            tables[t][i] = c;
        }
    }
    return tables;
}

constexpr std::array<std::array<u32, 256>, 8> kCrcTables = makeCrcTables();

/** Advance the running (pre-inverted) register @p crc over @p size bytes. */
u32
slicing8Update(u32 crc, const u8 *p, std::size_t size)
{
    while (size >= 8) {
        u32 lo;
        u32 hi;
        std::memcpy(&lo, p, 4);
        std::memcpy(&hi, p + 4, 4);
        lo ^= crc;
        crc = kCrcTables[7][lo & 0xFFu] ^ kCrcTables[6][(lo >> 8) & 0xFFu] ^
              kCrcTables[5][(lo >> 16) & 0xFFu] ^ kCrcTables[4][lo >> 24] ^
              kCrcTables[3][hi & 0xFFu] ^ kCrcTables[2][(hi >> 8) & 0xFFu] ^
              kCrcTables[1][(hi >> 16) & 0xFFu] ^ kCrcTables[0][hi >> 24];
        p += 8;
        size -= 8;
    }
    while (size-- > 0) {
        crc = kCrcTables[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
    }
    return crc;
}

u32
crc32Slicing8(const void *data, std::size_t size)
{
    return slicing8Update(0xFFFFFFFFu, static_cast<const u8 *>(data), size) ^
           0xFFFFFFFFu;
}

__m128i
load128(const u8 *at)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(at));
}

/**
 * @p x times @p k: the low halves' product XOR the high halves'
 * product, i.e. the lane moved forward by the distance @p k encodes.
 */
[[gnu::target("pclmul")]] __m128i
foldLane(__m128i x, __m128i k)
{
    return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                         _mm_clmulepi64_si128(x, k, 0x11));
}

/**
 * Fold @p size bytes (a multiple of 16, at least 64) into the running
 * register @p crc by carry-less multiplication (Gopal et al., "Fast CRC
 * Computation for Generic Polynomials Using PCLMULQDQ Instruction",
 * Intel 2009), with that paper's bit-reflected constants for
 * P = 0x104C11DB7: four 128-bit lanes fold 512 bits at a time (k1, k2),
 * fold into one lane (k3, k4), reduce 128 to 64 bits (k4, k5), then
 * Barrett-reduce to 32 bits (mu and P).
 */
[[gnu::target("pclmul,sse4.1")]] u32
pclmulFold(u32 crc, const u8 *p, std::size_t size)
{
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

    __m128i x1 =
        _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
    __m128i x2 = load128(p + 16);
    __m128i x3 = load128(p + 32);
    __m128i x4 = load128(p + 48);
    p += 64;
    size -= 64;
    while (size >= 64) {
        x1 = _mm_xor_si128(foldLane(x1, k1k2), load128(p));
        x2 = _mm_xor_si128(foldLane(x2, k1k2), load128(p + 16));
        x3 = _mm_xor_si128(foldLane(x3, k1k2), load128(p + 32));
        x4 = _mm_xor_si128(foldLane(x4, k1k2), load128(p + 48));
        p += 64;
        size -= 64;
    }
    x1 = _mm_xor_si128(foldLane(x1, k3k4), x2);
    x1 = _mm_xor_si128(foldLane(x1, k3k4), x3);
    x1 = _mm_xor_si128(foldLane(x1, k3k4), x4);
    while (size >= 16) {
        x1 = _mm_xor_si128(foldLane(x1, k3k4), load128(p));
        p += 16;
        size -= 16;
    }

    // 128 -> 96 bits: the low half times k4, plus the high half.
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                       _mm_clmulepi64_si128(x1, k3k4, 0x10));
    // 96 -> 64 bits: the low word times k5, plus the upper words.
    x1 = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
        _mm_srli_si128(x1, 4));
    // Barrett: q = (low word * mu) mod x^32, then subtract q * P.
    __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu,
                                     0x10);
    q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
    x1 = _mm_xor_si128(x1, q);
    return static_cast<u32>(_mm_extract_epi32(x1, 1));
}

/**
 * Whole 16-byte blocks of inputs of at least 64 bytes fold by PCLMULQDQ;
 * shorter inputs and the 0-15-byte tail go through slicing-by-8.
 */
u32
crc32Pclmul(const void *data, std::size_t size)
{
    const u8 *p = static_cast<const u8 *>(data);
    u32 crc = 0xFFFFFFFFu;
    if (size >= 64) {
        const std::size_t blocks = size & ~std::size_t{15};
        crc = pclmulFold(crc, p, blocks);
        p += blocks;
        size -= blocks;
    }
    return slicing8Update(crc, p, size) ^ 0xFFFFFFFFu;
}

} // namespace

namespace detail {

std::span<const Crc32Variant>
crc32Variants()
{
    static const Crc32Variant kVariants[] = {
        {"slicing8", crc32Slicing8, true},
        {"pclmul", crc32Pclmul,
         __builtin_cpu_supports("pclmul") != 0 &&
             __builtin_cpu_supports("sse4.1") != 0},
    };
    return kVariants;
}

} // namespace detail

u32
crc32(const void *data, std::size_t size)
{
    static const detail::Crc32Fn widest = [] {
        detail::Crc32Fn fn = nullptr;
        for (const detail::Crc32Variant &v : detail::crc32Variants()) {
            if (v.host_supported) {
                fn = v.fn;
            }
        }
        return fn;
    }();
    return widest(data, size);
}

} // namespace medusa
