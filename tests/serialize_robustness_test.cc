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
#include <span>

#include "common/crc32.h"
#include "common/serialize.h"
#include "medusa/image.h"

namespace medusa {
namespace {

TEST(SerializeRobustness, EmptyBufferFailsEveryPrimitive)
{
    BinaryReader r(std::span<const u8>{});
    EXPECT_FALSE(r.readU8().isOk());
    EXPECT_FALSE(r.readU32().isOk());
    EXPECT_FALSE(r.readU64().isOk());
    EXPECT_FALSE(r.readString().isOk());
    EXPECT_FALSE(r.viewBytes(1).isOk());
    EXPECT_FALSE(r.skipBytes(1).isOk());
}

TEST(SerializeRobustness, MidValueTruncationFails)
{
    BinaryWriter w;
    w.writeU64(0x0123456789abcdefull);
    const std::vector<u8> bytes = w.takeBytes();
    BinaryReader r(std::span<const u8>(bytes).first(5)); // inside the u64
    auto v = r.readU64();
    ASSERT_FALSE(v.isOk());
    EXPECT_NE(v.status().message().find("truncated"),
              std::string::npos);
}

TEST(SerializeRobustness, StringLengthBeyondDataFails)
{
    BinaryWriter w;
    w.writeU64(1ull << 40); // claims a terabyte of string
    const std::vector<u8> bytes = w.takeBytes();
    BinaryReader r{std::span<const u8>(bytes)};
    auto s = r.readString();
    ASSERT_FALSE(s.isOk());
    EXPECT_NE(s.status().message().find("truncated"),
              std::string::npos);
}

TEST(SerializeRobustness, BytesLengthBeyondDataFails)
{
    BinaryWriter w;
    w.writeU32(0);
    const std::vector<u8> bytes = w.takeBytes();
    BinaryReader r{std::span<const u8>(bytes)};
    // An overflow-bait length must not wrap the bounds check.
    EXPECT_FALSE(r.viewBytes(~std::size_t{0}).isOk());
    EXPECT_FALSE(r.skipBytes(~std::size_t{0}).isOk());
    EXPECT_FALSE(r.viewBytes(5).isOk());
    EXPECT_EQ(r.position(), 0u);
}

TEST(SerializeRobustness, VectorCountBeyondDataFails)
{
    BinaryWriter w;
    w.writeU64(1ull << 50); // element count far beyond the stream
    const std::vector<u8> bytes = w.takeBytes();
    BinaryReader r{std::span<const u8>(bytes)};
    auto v = r.readVector<u64>(
        sizeof(u64), [](BinaryReader &rr) { return rr.readU64(); });
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
    const std::vector<u8> bytes = w.takeBytes();
    BinaryReader r{std::span<const u8>(bytes)};
    // Counted against each element's 8 bytes, the count is refused
    // before any element is read.
    auto v = r.readVector<u64>(
        sizeof(u64), [](BinaryReader &rr) { return rr.readU64(); });
    ASSERT_FALSE(v.isOk());
    EXPECT_NE(v.status().message().find("count exceeds"),
              std::string::npos);
    // With a smaller per-element bound, the missing element is.
    BinaryReader lenient{std::span<const u8>(bytes)};
    auto short_read = lenient.readVector<u64>(
        1, [](BinaryReader &rr) { return rr.readU64(); });
    ASSERT_FALSE(short_read.isOk());
    EXPECT_NE(short_read.status().message().find("truncated"),
              std::string::npos);
}

TEST(SerializeRobustness, RoundTripSurvivesAndEndsExactly)
{
    BinaryWriter w;
    w.writeU32(7);
    w.writeString("medusa");
    w.writeBytesRaw("abc", 3);
    w.writeU8(1);
    const std::vector<u8> bytes = w.takeBytes();
    BinaryReader r{std::span<const u8>(bytes)};
    EXPECT_EQ(r.readU32().value(), 7u);
    EXPECT_EQ(r.readString().value(), "medusa");
    const std::span<const u8> raw = r.viewBytes(3).value();
    EXPECT_EQ(raw.data(), bytes.data() + r.position() - 3); // borrowed
    EXPECT_EQ(std::string(raw.begin(), raw.end()), "abc");
    EXPECT_EQ(r.readU8().value(), 1u);
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

TEST(SerializeRobustness, ArtifactRoundTrips)
{
    const core::ImageBuilder a = sampleBuilder();
    const std::vector<u8> bytes = sampleImage();
    auto back = core::MaterializedImage::openView(bytes);
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
    auto a = core::MaterializedImage::openView(bytes);
    ASSERT_FALSE(a.isOk());
    EXPECT_NE(a.status().message().find("magic"), std::string::npos);
}

TEST(SerializeRobustness, ArtifactBadVersionFails)
{
    std::vector<u8> bytes = sampleImage();
    const u32 wrong = core::MaterializedImage::kVersion + 1;
    std::memcpy(bytes.data() + 4, &wrong, 4);
    auto a = core::MaterializedImage::openView(bytes);
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
        const std::vector<u8> prefix(bytes.begin(), bytes.begin() + len);
        auto a = core::MaterializedImage::openView(prefix);
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
    auto a = core::MaterializedImage::openView(bytes);
    ASSERT_FALSE(a.isOk());
    EXPECT_EQ(a.status().code(), StatusCode::kInternal)
        << a.status().toString();
    EXPECT_EQ(a.status().message().find("CRC32"), std::string::npos);
}

} // namespace
} // namespace medusa
