/**
 * @file
 * Tests of the artifact's one serialized form, the v6 image: an
 * artifact flattened by buildImageBytes opens back with every field the
 * online phase reads, and corrupt image bytes are rejected with a
 * Status.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <span>

#include "medusa/artifact.h"
#include "medusa/image.h"

namespace medusa::core {
namespace {

Artifact
sampleArtifact()
{
    Artifact a;
    a.model_name = "Qwen1.5-4B";
    a.model_seed = 106;
    a.free_gpu_memory = 25ull * units::GiB;
    a.organic_op_count = 2;
    a.organic_alloc_count = 2;

    AllocOp alloc1;
    alloc1.kind = AllocOp::kAlloc;
    alloc1.logical_size = 4096;
    alloc1.backing_size = 64;
    AllocOp alloc2 = alloc1;
    alloc2.logical_size = 512;
    AllocOp free1;
    free1.kind = AllocOp::kFree;
    free1.freed_alloc_index = 0;
    a.ops = {alloc1, alloc2, free1};

    GraphBlueprint g;
    g.batch_size = 8;
    NodeBlueprint n1;
    n1.kernel_name = "kernel_a";
    n1.module_name = "libsimtorch.so";
    n1.timing.flops = 123.5;
    n1.timing.bytes = 456.25;
    ParamSpec constant;
    constant.kind = ParamSpec::kConstant;
    constant.constant_bytes = {1, 2, 3, 4};
    ParamSpec indirect;
    indirect.kind = ParamSpec::kIndirect;
    indirect.alloc_index = 1;
    indirect.offset = 128;
    n1.params = {constant, indirect};
    g.nodes = {n1, n1};
    g.edges = {{0, 1}};
    a.graphs = {g};

    PermanentBuffer pb;
    pb.alloc_index = 1;
    pb.contents = {0x11, 0x2a, 0x3c, 0x5f};
    a.permanent = {pb};
    a.tags = {{"token_ids", 0}, {"logits", 1}};

    a.stats.total_nodes = 2;
    a.stats.total_params = 4;
    a.stats.pointer_params = 2;
    a.stats.constant_params = 2;
    a.stats.decoy_candidates = 1;
    a.stats.permanent_buffers = 1;
    a.stats.materialized_content_bytes = 4;
    return a;
}

/** Flatten @p a into image bytes; fails the test on an emit error. */
std::vector<u8>
imageBytes(const Artifact &a)
{
    auto bytes = buildImageBytes(a, {{1, 2}});
    EXPECT_TRUE(bytes.isOk()) << bytes.status().toString();
    return bytes.isOk() ? std::move(bytes).value() : std::vector<u8>{};
}

TEST(ArtifactTest, RoundTripPreservesEverything)
{
    const Artifact a = sampleArtifact();
    const std::vector<u8> bytes = imageBytes(a);
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
    std::vector<u8> bytes = imageBytes(sampleArtifact());
    bytes[0] ^= 0xff;
    EXPECT_FALSE(MaterializedImage::open(bytes).isOk());
}

TEST(ArtifactTest, RejectsWrongVersion)
{
    std::vector<u8> bytes = imageBytes(sampleArtifact());
    bytes[4] += 1;
    EXPECT_FALSE(MaterializedImage::open(bytes).isOk());
}

TEST(ArtifactTest, RejectsTruncation)
{
    const std::vector<u8> bytes = imageBytes(sampleArtifact());
    // Truncations anywhere must produce errors, never crashes.
    for (std::size_t cut :
         {bytes.size() - 1, bytes.size() / 2, bytes.size() / 4,
          std::size_t{9}}) {
        std::vector<u8> truncated(bytes.begin(),
                                  bytes.begin() + static_cast<long>(cut));
        EXPECT_FALSE(MaterializedImage::open(truncated).isOk())
            << "cut=" << cut;
    }
}

TEST(ArtifactTest, EmptyArtifactRoundTrips)
{
    Artifact a;
    a.model_name = "x";
    auto out = MaterializedImage::open(imageBytes(a));
    ASSERT_TRUE(out.isOk()) << out.status().toString();
    EXPECT_EQ(out->model_name, "x");
    EXPECT_TRUE(out->graphs.empty());
    EXPECT_EQ(out->total_nodes, 0u);
    EXPECT_TRUE(out->patch_template.empty());
}

TEST(ArtifactTest, SerializedSizeScalesWithNodes)
{
    Artifact small = sampleArtifact();
    Artifact big = sampleArtifact();
    GraphBlueprint extra = big.graphs[0];
    for (u32 i = 0; i < 10; ++i) {
        extra.batch_size = 16 + i;
        big.graphs.push_back(extra);
    }
    EXPECT_GT(imageBytes(big).size(), imageBytes(small).size() * 2);
}

} // namespace
} // namespace medusa::core
