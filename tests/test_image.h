/**
 * @file
 * Test helpers for serialized v6 image bytes: open them for the one
 * online restore path, byte-edit and reseal them, and the corrupt
 * topologies openView must refuse.
 */

#ifndef MEDUSA_TESTS_TEST_IMAGE_H
#define MEDUSA_TESTS_TEST_IMAGE_H

#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/logging.h"
#include "medusa/image.h"

namespace medusa::test {

/** Open a copy of @p bytes; aborts on a decode failure. */
inline core::MaterializedImage
openImage(std::vector<u8> bytes)
{
    auto image = core::MaterializedImage::open(std::move(bytes));
    MEDUSA_CHECK(image.isOk(), "image open: " << image.status().toString());
    return std::move(image).value();
}

/** Recompute the payload CRC after a byte edit (header offset 16). */
inline void
resealImage(std::vector<u8> &bytes)
{
    const u32 crc =
        crc32(bytes.data() + core::MaterializedImage::kHeaderBytes,
              bytes.size() - core::MaterializedImage::kHeaderBytes);
    std::memcpy(bytes.data() + 16, &crc, sizeof(crc));
}

/** Byte offset of a zero-copy image span inside its backing bytes. */
template <typename T>
std::size_t
offsetIn(const std::vector<u8> &bytes, std::span<const T> view)
{
    return static_cast<std::size_t>(
        reinterpret_cast<const u8 *>(view.data()) - bytes.data());
}

/** A resealed byte edit of an image, and what the edit breaks. */
struct ImageCorruption
{
    std::string what;
    std::vector<u8> bytes;
};

/**
 * The ways one graph can break "node ids are the execution order",
 * each a resealed byte edit of @p clean, whose only graph has two nodes
 * and the one edge 0 -> 1: a backward in-range edge, an edge beyond the
 * node count, and an order column of {1, 0}.
 */
inline std::vector<ImageCorruption>
topologyCorruptions(const std::vector<u8> &clean)
{
    auto view = core::MaterializedImage::openView(std::span<const u8>(clean));
    MEDUSA_CHECK(view.isOk(), "clean image open: " << view.status().toString());
    MEDUSA_CHECK(view->graphs.size() == 1 &&
                     view->graphs[0].node_count == 2 &&
                     view->graphs[0].edges.size() == 1,
                 "expected one two-node graph with one edge");
    auto edit = [&clean](std::string what, std::size_t offset,
                         const void *value, std::size_t size) {
        ImageCorruption c{std::move(what), clean};
        std::memcpy(c.bytes.data() + offset, value, size);
        resealImage(c.bytes);
        return c;
    };
    const std::size_t edge_off = offsetIn(clean, view->graphs[0].edges);
    const std::size_t order_off = offsetIn(clean, view->graphs[0].order);
    const simcuda::GraphEdge backward{1, 0};
    const simcuda::GraphEdge beyond{0, 5};
    const u32 swapped[] = {1, 0};
    return {edit("backward edge 1->0", edge_off, &backward, sizeof(backward)),
            edit("edge 0->5 beyond 2 nodes", edge_off, &beyond,
                 sizeof(beyond)),
            edit("order {1, 0}", order_off, swapped, sizeof(swapped))};
}

} // namespace medusa::test

#endif // MEDUSA_TESTS_TEST_IMAGE_H
