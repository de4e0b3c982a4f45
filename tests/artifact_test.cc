/**
 * @file
 * Tests of the offline IR's one serialized form, the v6 image: sections
 * appended through ImageBuilder and finished open back with every field
 * the online phase reads, and corrupt image bytes are rejected with a
 * Status.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <span>

#include "medusa/image.h"

namespace medusa::core {
namespace {

/**
 * Append one bs=@p batch_size graph of two chained kernel-0 nodes, each
 * with a 4-byte constant and a pointer to allocation 1 at offset 128.
 */
void
appendSampleGraph(ImageBuilder &b, u32 batch_size)
{
    ASSERT_TRUE(b.beginGraph(batch_size, 2, {{0, 1}}).isOk());
    TimingInfo timing;
    timing.flops = 123.5;
    timing.bytes = 456.25;
    const u8 constant[] = {1, 2, 3, 4};
    for (int n = 0; n < 2; ++n) {
        b.addNode(0, timing);
        b.addConstant(constant);
        b.addPointer(1, 128);
    }
}

ImageBuilder
sampleImage()
{
    ImageBuilder b;
    b.model_name = "Qwen1.5-4B";
    b.model_seed = 106;
    b.free_gpu_memory = 25ull * units::GiB;
    b.organic_op_count = 2;
    b.organic_alloc_count = 2;

    AllocOp alloc1;
    alloc1.kind = AllocOp::kAlloc;
    alloc1.logical_size = 4096;
    alloc1.backing_size = 64;
    AllocOp alloc2 = alloc1;
    alloc2.logical_size = 512;
    AllocOp free1;
    free1.kind = AllocOp::kFree;
    free1.freed_alloc_index = 0;
    b.ops = {alloc1, alloc2, free1};

    b.addKernel("kernel_a", "libsimtorch.so");
    appendSampleGraph(b, 8);

    const u8 contents[] = {0x11, 0x2a, 0x3c, 0x5f};
    const std::span<u8> perm = b.addPermanent(1, sizeof(contents));
    std::memcpy(perm.data(), contents, sizeof(contents));
    b.tags = {{"token_ids", 0}, {"logits", 1}};
    return b;
}

TEST(ArtifactTest, RoundTripPreservesEverything)
{
    const ImageBuilder a = sampleImage();
    const std::vector<u8> bytes = a.finish({{1, 2}});
    auto out = MaterializedImage::openView(std::span<const u8>(bytes));
    ASSERT_TRUE(out.isOk()) << out.status().toString();
    const MaterializedImage &b = *out;

    EXPECT_EQ(b.model_name, a.model_name);
    EXPECT_EQ(b.model_seed, a.model_seed);
    EXPECT_EQ(b.free_gpu_memory, a.free_gpu_memory);
    EXPECT_EQ(b.organic_op_count, a.organic_op_count);
    EXPECT_EQ(b.organic_alloc_count, a.organic_alloc_count);

    ASSERT_EQ(b.ops.size(), 3u);
    EXPECT_EQ(b.ops[0].kind, AllocOp::kAlloc);
    EXPECT_EQ(b.ops[0].logical_size, 4096u);
    EXPECT_EQ(b.ops[0].backing_size, 64u);
    EXPECT_EQ(b.ops[2].kind, AllocOp::kFree);
    EXPECT_EQ(b.ops[2].freed_alloc_index, 0u);

    ASSERT_EQ(b.graphs.size(), 1u);
    const MaterializedImage::GraphView &g = b.graphs[0];
    EXPECT_EQ(g.batch_size, 8u);
    ASSERT_EQ(g.node_count, 2u);
    EXPECT_EQ(b.total_nodes, a.totalNodes());
    // Both nodes share one kernel: one table entry, two relocations.
    ASSERT_EQ(b.kernel_table.size(), 1u);
    EXPECT_EQ(b.kernel_table[0].name, "kernel_a");
    EXPECT_EQ(b.kernel_table[0].module, "libsimtorch.so");
    ASSERT_EQ(b.kernel_relocs.size(), 2u);
    EXPECT_EQ(b.kernel_relocs[0].slot, g.fn_slot_begin);
    EXPECT_EQ(b.kernel_relocs[0].kernel_index, 0u);
    EXPECT_DOUBLE_EQ(g.timings[0].flops, 123.5);
    EXPECT_DOUBLE_EQ(g.timings[0].bytes, 456.25);

    // Node 0's params: the 4-byte constant is prefilled into the patch
    // template, the indirect pointer becomes a data relocation.
    ASSERT_EQ(g.param_begin.size(), 3u);
    EXPECT_EQ(g.param_begin[1], 2u);
    EXPECT_EQ(g.param_len[0], 4u);
    EXPECT_EQ(g.param_len[1], 8u);
    u32 constant = 0;
    std::memcpy(&constant, &b.patch_template[g.param_slot_begin], 4);
    EXPECT_EQ(constant, 0x04030201u);
    ASSERT_EQ(b.data_relocs.size(), 2u);
    EXPECT_EQ(b.data_relocs[0].slot, g.param_slot_begin + 1);
    EXPECT_EQ(b.data_relocs[0].alloc_index, 1u);
    EXPECT_EQ(b.data_relocs[0].addend, 128u);
    ASSERT_EQ(g.edges.size(), 1u);
    EXPECT_EQ(g.edges[0].src, 0u);
    EXPECT_EQ(g.edges[0].dst, 1u);
    ASSERT_EQ(g.order.size(), 2u);
    EXPECT_EQ(g.order[0], 0u);
    EXPECT_EQ(g.order[1], 1u);

    ASSERT_EQ(b.permanent.size(), 1u);
    EXPECT_EQ(b.permanent[0].alloc_index, 1u);
    EXPECT_EQ(std::vector<u8>(b.permanent[0].contents.begin(),
                              b.permanent[0].contents.end()),
              (std::vector<u8>{0x11, 0x2a, 0x3c, 0x5f}));
    EXPECT_EQ(b.tags.at("token_ids"), 0u);
    EXPECT_EQ(b.tags.at("logits"), 1u);
    ASSERT_EQ(b.tokenizer_merges.size(), 1u);
    EXPECT_EQ(b.tokenizer_merges[0], (std::pair<i32, i32>{1, 2}));
}

TEST(ArtifactTest, RejectsBadMagic)
{
    std::vector<u8> bytes = sampleImage().finish({{1, 2}});
    bytes[0] ^= 0xff;
    EXPECT_FALSE(MaterializedImage::openView(bytes).isOk());
}

TEST(ArtifactTest, RejectsWrongVersion)
{
    std::vector<u8> bytes = sampleImage().finish({{1, 2}});
    bytes[4] += 1;
    EXPECT_FALSE(MaterializedImage::openView(bytes).isOk());
}

TEST(ArtifactTest, RejectsTruncation)
{
    const std::vector<u8> bytes = sampleImage().finish({{1, 2}});
    // Truncations anywhere must produce errors, never crashes.
    for (std::size_t cut :
         {bytes.size() - 1, bytes.size() / 2, bytes.size() / 4,
          std::size_t{9}}) {
        std::vector<u8> truncated(bytes.begin(),
                                  bytes.begin() + static_cast<long>(cut));
        EXPECT_FALSE(MaterializedImage::openView(truncated).isOk())
            << "cut=" << cut;
    }
}

TEST(ArtifactTest, EmptyArtifactRoundTrips)
{
    ImageBuilder a;
    a.model_name = "x";
    const std::vector<u8> bytes = a.finish({});
    auto out = MaterializedImage::openView(std::span<const u8>(bytes));
    ASSERT_TRUE(out.isOk()) << out.status().toString();
    EXPECT_EQ(out->model_name, "x");
    EXPECT_TRUE(out->graphs.empty());
    EXPECT_EQ(out->total_nodes, 0u);
    EXPECT_TRUE(out->patch_template.empty());
}

TEST(ArtifactTest, SerializedSizeScalesWithNodes)
{
    const ImageBuilder small = sampleImage();
    ImageBuilder big = sampleImage();
    for (u32 i = 0; i < 10; ++i) {
        appendSampleGraph(big, 16 + i);
    }
    EXPECT_GT(big.finish({}).size(), small.finish({}).size() * 2);
}

TEST(ArtifactTest, BeginGraphRejectsCorruptEdges)
{
    ImageBuilder b;
    // Out of range, backwards, and a self-loop.
    EXPECT_FALSE(b.beginGraph(1, 2, {{0, 2}}).isOk());
    EXPECT_FALSE(b.beginGraph(1, 2, {{1, 0}}).isOk());
    EXPECT_FALSE(b.beginGraph(1, 2, {{1, 1}}).isOk());
    EXPECT_TRUE(b.graphs.empty());
    EXPECT_TRUE(b.beginGraph(1, 2, {{0, 1}}).isOk());
}

} // namespace
} // namespace medusa::core
