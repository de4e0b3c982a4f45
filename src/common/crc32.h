/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte
 * spans. The sectioned artifact format stores one checksum per section
 * so corruption is localized to the section that carries it and
 * detected before any replay state is touched.
 */

#ifndef MEDUSA_COMMON_CRC32_H
#define MEDUSA_COMMON_CRC32_H

#include <cstddef>
#include <span>

#include "common/types.h"

namespace medusa {

/**
 * CRC-32 of @p size bytes at @p data (seeded with the standard ~0).
 * Runs the widest variant of detail::crc32Variants() the host CPU
 * supports, chosen once by CPUID; every variant gives the same value.
 */
u32 crc32(const void *data, std::size_t size);

namespace detail {

using Crc32Fn = u32 (*)(const void *data, std::size_t size);

/** One compiled implementation of crc32. */
struct Crc32Variant
{
    /** "slicing8" (portable) or "pclmul" (PCLMULQDQ + SSE4.1 folding). */
    const char *name;
    Crc32Fn fn;
    /** CPUID reports the instructions @p fn uses. */
    bool host_supported;
};

/**
 * Every compiled crc32 variant, portable first. For tests and
 * bench_micro, which check and time each one; production code calls
 * crc32.
 */
std::span<const Crc32Variant> crc32Variants();

} // namespace detail

} // namespace medusa

#endif // MEDUSA_COMMON_CRC32_H
