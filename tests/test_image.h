/**
 * @file
 * Test helpers for serialized v6 image bytes: byte-edit and reseal
 * them, and the structural corruptions openView must refuse and lint
 * must name.
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
    /** The lint rule the defect is reported as. */
    std::string rule;
    /**
     * A second error rule the edit also fires, or "": a kernel
     * relocation moved out of the template leaves its node's kernel
     * slot uncovered (MDL705).
     */
    std::string also;
    std::vector<u8> bytes;
};

/**
 * One resealed byte edit of @p clean per structural predicate
 * (core::findStructuralDefects), each breaking only that predicate.
 * @p clean's only graph has two nodes, the one edge 0 -> 1, at least
 * one param and one data relocation.
 */
inline std::vector<ImageCorruption>
structuralCorruptions(const std::vector<u8> &clean)
{
    auto view = core::MaterializedImage::openView(std::span<const u8>(clean));
    MEDUSA_CHECK(view.isOk(), "clean image open: " << view.status().toString());
    const core::MaterializedImage::GraphView &gv = view->graphs.at(0);
    MEDUSA_CHECK(view->graphs.size() == 1 && gv.node_count == 2 &&
                     gv.edges.size() == 1 && !gv.param_len.empty() &&
                     !view->data_relocs.empty(),
                 "expected one two-node graph with one edge and a "
                 "data relocation");
    auto edit = [&clean](std::string what, std::string rule,
                         std::size_t offset, const void *value,
                         std::size_t size, std::string also = "") {
        ImageCorruption c{std::move(what), std::move(rule), std::move(also),
                          clean};
        std::memcpy(c.bytes.data() + offset, value, size);
        resealImage(c.bytes);
        return c;
    };
    const std::size_t edge_off = offsetIn(clean, gv.edges);
    const std::size_t order_off = offsetIn(clean, gv.order);
    const std::size_t ramp_off = offsetIn(clean, gv.param_begin);
    const std::size_t data_off = offsetIn(clean, view->data_relocs);
    const std::size_t kernel_off = offsetIn(clean, view->kernel_relocs);
    const simcuda::GraphEdge backward{1, 0};
    const simcuda::GraphEdge beyond{0, 2};
    const u32 swapped[] = {1, 0};
    const u32 params = static_cast<u32>(gv.param_len.size());
    const u32 falling[] = {0, params + 1, params};
    const u32 short_ramp[] = {0, 0, 0};
    const u32 late_ramp[] = {1, params, params};
    const u64 slots = view->patch_template.size();
    u64 allocs = 0;
    for (const core::AllocOp &op : view->ops) {
        allocs += op.kind == core::AllocOp::kAlloc ? 1 : 0;
    }
    const u64 kernels = view->kernel_table.size();
    // DataReloc is {slot, alloc_index, addend}; KernelReloc is {slot,
    // kernel_index}: each edit overwrites one u64 of record 0.
    return {
        edit("backward edge 1->0", "MDL303", edge_off, &backward,
             sizeof(backward)),
        edit("edge 0->2 beyond 2 nodes", "MDL303", edge_off, &beyond,
             sizeof(beyond)),
        edit("order {1, 0}", "MDL303", order_off, swapped, sizeof(swapped)),
        edit("data relocation slot at the template size", "MDL701",
             data_off, &slots, sizeof(slots)),
        edit("data relocation alloc index at the allocation count",
             "MDL701", data_off + sizeof(u64), &allocs, sizeof(allocs)),
        edit("kernel relocation slot at the template size", "MDL703",
             kernel_off, &slots, sizeof(slots), "MDL705"),
        edit("kernel index at the kernel-table size", "MDL703",
             kernel_off + sizeof(u64), &kernels, sizeof(kernels)),
        edit("param ramp rises past its end", "MDL707", ramp_off, falling,
             sizeof(falling)),
        edit("param ramp {0, 0, 0} ends short of the params", "MDL707",
             ramp_off, short_ramp, sizeof(short_ramp)),
        edit("param ramp starts at 1", "MDL707", ramp_off, late_ramp,
             sizeof(late_ramp)),
    };
}

} // namespace medusa::test

#endif // MEDUSA_TESTS_TEST_IMAGE_H
