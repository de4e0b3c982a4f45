/**
 * @file
 * Error-path tests for the binary serialization layer and the v6 image
 * the offline IR serializes to: truncated buffers, bad magic/version, and
 * oversized length fields must come back as Status errors, never
 * crashes — a corrupted on-disk image is a recoverable cold-start
 * failure.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/crc32.h"
#include "common/serialize.h"
#include "medusa/image.h"

namespace medusa {
namespace {

TEST(SerializeRobustness, EmptyBufferFailsEveryPrimitive)
{
    BinaryReader r(std::vector<u8>{});
    EXPECT_FALSE(r.readU8().isOk());
    EXPECT_FALSE(r.readU32().isOk());
    EXPECT_FALSE(r.readU64().isOk());
    EXPECT_FALSE(r.readI64().isOk());
    EXPECT_FALSE(r.readF32().isOk());
    EXPECT_FALSE(r.readF64().isOk());
    EXPECT_FALSE(r.readBool().isOk());
    EXPECT_FALSE(r.readString().isOk());
    EXPECT_FALSE(r.readBytes().isOk());
}

TEST(SerializeRobustness, MidValueTruncationFails)
{
    BinaryWriter w;
    w.writeU64(0x0123456789abcdefull);
    std::vector<u8> bytes = w.takeBytes();
    bytes.resize(5); // cut inside the u64
    BinaryReader r(std::move(bytes));
    auto v = r.readU64();
    ASSERT_FALSE(v.isOk());
    EXPECT_NE(v.status().message().find("truncated"),
              std::string::npos);
}

TEST(SerializeRobustness, StringLengthBeyondDataFails)
{
    BinaryWriter w;
    w.writeU64(1ull << 40); // claims a terabyte of string
    BinaryReader r(w.takeBytes());
    auto s = r.readString();
    ASSERT_FALSE(s.isOk());
    EXPECT_NE(s.status().message().find("truncated"),
              std::string::npos);
}

TEST(SerializeRobustness, BytesLengthBeyondDataFails)
{
    BinaryWriter w;
    w.writeU64(0xffffffffffffffffull); // overflow-bait length
    w.writeU32(0);
    BinaryReader r(w.takeBytes());
    EXPECT_FALSE(r.readBytes().isOk());
}

TEST(SerializeRobustness, VectorCountBeyondDataFails)
{
    BinaryWriter w;
    w.writeU64(1ull << 50); // element count far beyond the stream
    BinaryReader r(w.takeBytes());
    auto v = r.readVector<u64>(
        [](BinaryReader &rr) { return rr.readU64(); });
    ASSERT_FALSE(v.isOk());
    EXPECT_NE(v.status().message().find("count exceeds"),
              std::string::npos);
}

TEST(SerializeRobustness, VectorElementTruncationFails)
{
    BinaryWriter w;
    w.writeU64(3); // three u64 elements promised...
    w.writeU64(1);
    w.writeU64(2); // ...but the third is missing
    BinaryReader r(w.takeBytes());
    auto v = r.readVector<u64>(
        [](BinaryReader &rr) { return rr.readU64(); });
    EXPECT_FALSE(v.isOk());
}

TEST(SerializeRobustness, RoundTripSurvivesAndEndsExactly)
{
    BinaryWriter w;
    w.writeU32(7);
    w.writeString("medusa");
    w.writeBytes({1, 2, 3});
    w.writeBool(true);
    BinaryReader r(w.takeBytes());
    EXPECT_EQ(r.readU32().value(), 7u);
    EXPECT_EQ(r.readString().value(), "medusa");
    EXPECT_EQ(r.readBytes().value(), (std::vector<u8>{1, 2, 3}));
    EXPECT_TRUE(r.readBool().value());
    EXPECT_TRUE(r.atEnd());
}

/** A small but structurally complete image for corruption tests. */
core::ImageBuilder
sampleBuilder()
{
    core::ImageBuilder b;
    b.model_name = "robustness-model";
    b.model_seed = 3;
    b.free_gpu_memory = 1024;
    core::AllocOp alloc;
    alloc.kind = core::AllocOp::kAlloc;
    alloc.logical_size = 512;
    alloc.backing_size = 512;
    b.ops.push_back(alloc);
    b.tags["input"] = 0;
    const u64 kernel = b.addKernel("k", "m");
    EXPECT_TRUE(b.beginGraph(1, 1, {}).isOk());
    b.addNode(kernel, {});
    b.addPointer(0, 0);
    return b;
}

/** The builder's serialized form: its v6 image bytes. */
std::vector<u8>
sampleImage()
{
    return sampleBuilder().finish({});
}

/** Open a copy of @p bytes the way a cold start opens a file. */
StatusOr<core::MaterializedImage>
openCopy(std::vector<u8> bytes)
{
    return core::MaterializedImage::open(std::move(bytes));
}

TEST(SerializeRobustness, ArtifactRoundTrips)
{
    const core::ImageBuilder a = sampleBuilder();
    auto back = openCopy(sampleImage());
    ASSERT_TRUE(back.isOk()) << back.status().toString();
    EXPECT_EQ(back->model_name, a.model_name);
    EXPECT_EQ(back->ops.size(), 1u);
    EXPECT_EQ(back->graphs.size(), 1u);
    EXPECT_EQ(back->tags.at("input"), 0u);
}

TEST(SerializeRobustness, ArtifactBadMagicFails)
{
    std::vector<u8> bytes = sampleImage();
    bytes[0] ^= 0xff;
    auto a = openCopy(std::move(bytes));
    ASSERT_FALSE(a.isOk());
    EXPECT_NE(a.status().message().find("magic"), std::string::npos);
}

TEST(SerializeRobustness, ArtifactBadVersionFails)
{
    std::vector<u8> bytes = sampleImage();
    const u32 wrong = core::MaterializedImage::kVersion + 1;
    std::memcpy(bytes.data() + 4, &wrong, 4);
    auto a = openCopy(std::move(bytes));
    ASSERT_FALSE(a.isOk());
    EXPECT_NE(a.status().message().find("version"), std::string::npos);
}

TEST(SerializeRobustness, TruncatedArtifactAtEveryPrefixFails)
{
    // Chopping the image at ANY point must produce a Status error —
    // never a crash, hang or silently short image. The header records
    // the payload size, so every prefix is caught before decoding.
    const std::vector<u8> bytes = sampleImage();
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        std::vector<u8> prefix(bytes.begin(), bytes.begin() + len);
        auto a = openCopy(std::move(prefix));
        EXPECT_FALSE(a.isOk()) << "prefix length " << len;
    }
}

TEST(SerializeRobustness, CorruptedInteriorLengthFieldFails)
{
    // Blow up the model-name length field (the first payload field
    // after the 24-byte header), claiming more bytes than the image
    // holds, and reseal the CRC so only the decoder can object.
    std::vector<u8> bytes = sampleImage();
    const u64 huge = 1ull << 60;
    const std::size_t header = core::MaterializedImage::kHeaderBytes;
    std::memcpy(bytes.data() + header, &huge, 8);
    const u32 crc = crc32(bytes.data() + header, bytes.size() - header);
    std::memcpy(bytes.data() + 16, &crc, sizeof(crc));
    auto a = openCopy(std::move(bytes));
    ASSERT_FALSE(a.isOk());
    EXPECT_EQ(a.status().code(), StatusCode::kInternal)
        << a.status().toString();
    EXPECT_EQ(a.status().message().find("CRC32"), std::string::npos);
}

} // namespace
} // namespace medusa
