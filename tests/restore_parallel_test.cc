/**
 * @file
 * The sectioned zero-copy artifact format (content skipping, per-graph
 * and per-section CRC rejection, truncation, rejection of the retired
 * flat format) and concurrent whole-engine cold starts that share one
 * image: simulated results are bit-identical across the engines.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <thread>

#include "llm/engine.h"
#include "medusa/offline.h"
#include "medusa/restore.h"
#include "test_image.h"

namespace medusa {
namespace {

using core::Artifact;
using core::ArtifactReadOptions;
using core::MedusaEngine;
using core::OfflineOptions;
using core::materialize;
using llm::findModel;
using llm::ModelConfig;

/** A reduced model keeps the tests fast but structurally real. */
ModelConfig
tinyModel()
{
    ModelConfig m = findModel("Qwen1.5-0.5B").value();
    m.num_layers = 4;
    return m;
}

/** One shared offline run for the whole suite. */
const core::OfflineResult &
sharedOffline()
{
    static const core::OfflineResult result = []() {
        OfflineOptions opts;
        opts.model = tinyModel();
        opts.pipeline.validate = false;
        return materialize(opts).value();
    }();
    return result;
}

const Artifact &
sharedArtifact()
{
    return sharedOffline().artifact;
}

void
expectSameTimes(const StageTimes &a, const StageTimes &b)
{
    EXPECT_EQ(a.struct_init, b.struct_init);
    EXPECT_EQ(a.weights, b.weights);
    EXPECT_EQ(a.tokenizer, b.tokenizer);
    EXPECT_EQ(a.kv_init, b.kv_init);
    EXPECT_EQ(a.capture, b.capture);
    EXPECT_EQ(a.runtime_init, b.runtime_init);
    EXPECT_EQ(a.loading, b.loading);
}

void
expectSameReport(const RestoreReport &a, const RestoreReport &b)
{
    EXPECT_EQ(a.nodes_restored, b.nodes_restored);
    EXPECT_EQ(a.graphs_restored, b.graphs_restored);
    EXPECT_EQ(a.kernels_via_dlsym, b.kernels_via_dlsym);
    EXPECT_EQ(a.kernels_via_enumeration, b.kernels_via_enumeration);
    EXPECT_EQ(a.replayed_allocs, b.replayed_allocs);
    EXPECT_EQ(a.replayed_frees, b.replayed_frees);
    EXPECT_EQ(a.restored_content_bytes, b.restored_content_bytes);
    EXPECT_EQ(a.indirect_pointers_fixed, b.indirect_pointers_fixed);
    EXPECT_EQ(a.validated, b.validated);
}

TEST(RestoreParallel, LegacyFlatFormatRejected)
{
    // The retired flat format (version 4) is untrusted input like any
    // other unknown version: a Status, never a crash.
    std::vector<u8> bytes = sharedArtifact().serialize();
    const u32 legacy = 4;
    std::memcpy(bytes.data() + 4, &legacy, sizeof(legacy));
    auto back = Artifact::deserialize(std::move(bytes));
    ASSERT_FALSE(back.isOk());
    EXPECT_NE(back.status().message().find("version"), std::string::npos)
        << back.status().toString();
}

TEST(RestoreParallel, SkipContentsDropsPermanentAndFixesTogether)
{
    const Artifact &original = sharedArtifact();
    ASSERT_FALSE(original.permanent.empty());
    const std::vector<u8> bytes = original.serialize();
    ArtifactReadOptions opts;
    opts.load_permanent_contents = false;
    auto skipped = Artifact::deserializeView(std::span<const u8>(bytes),
                                             opts);
    ASSERT_TRUE(skipped.isOk()) << skipped.status().toString();
    // Pointer fixes reference materialized contents (lint MDL402), so
    // the two sections skip as a unit.
    EXPECT_TRUE(skipped->permanent.empty());
    EXPECT_TRUE(skipped->pointer_fixes.empty());
    EXPECT_TRUE(skipped->contents_skipped);
    EXPECT_EQ(skipped->graphs.size(), original.graphs.size());
    EXPECT_EQ(skipped->totalNodes(), original.totalNodes());

    // A contents-off restore runs fine from the skimmed artifact's
    // image.
    MedusaEngine::Options copts;
    copts.model = tinyModel();
    copts.restore.restore_contents = false;
    const core::MaterializedImage image = test::imageOf(*skipped);
    auto engine = MedusaEngine::coldStartFromImage(copts, image);
    ASSERT_TRUE(engine.isOk()) << engine.status().toString();
    EXPECT_EQ((*engine)->coldStartReport().restore.restored_content_bytes, 0u);
}

/** Offset of the section-table entry for @p id (24-byte entries). */
std::size_t
sectionTableEntry(const std::vector<u8> &bytes, u32 id)
{
    u32 count = 0;
    std::memcpy(&count, bytes.data() + 8, sizeof(count));
    for (u32 i = 0; i < count; ++i) {
        const std::size_t at = 12 + i * 24;
        u32 entry_id = 0;
        std::memcpy(&entry_id, bytes.data() + at, sizeof(entry_id));
        if (entry_id == id) {
            return at;
        }
    }
    ADD_FAILURE() << "section " << id << " not found";
    return 0;
}

TEST(RestoreParallel, CorruptedGraphPayloadFailsItsCrc)
{
    std::vector<u8> bytes = sharedArtifact().serialize();
    const std::size_t entry = sectionTableEntry(bytes, /*GRAPHS=*/3);
    u64 offset = 0;
    u64 size = 0;
    std::memcpy(&offset, bytes.data() + entry + 8, sizeof(offset));
    std::memcpy(&size, bytes.data() + entry + 16, sizeof(size));
    // A byte in the back half of the section is inside some graph's
    // payload (past the sub-index), so only a per-graph CRC covers it.
    bytes[offset + size - size / 4] ^= 0xff;
    auto result = Artifact::deserializeView(std::span<const u8>(bytes));
    ASSERT_FALSE(result.isOk());
    EXPECT_NE(result.status().toString().find("CRC"), std::string::npos)
        << result.status().toString();
}

TEST(RestoreParallel, CorruptedSectionIndexFailsItsCrc)
{
    std::vector<u8> bytes = sharedArtifact().serialize();
    const std::size_t entry = sectionTableEntry(bytes, /*META=*/1);
    u64 offset = 0;
    std::memcpy(&offset, bytes.data() + entry + 8, sizeof(offset));
    bytes[offset] ^= 0xff;
    auto result =
        Artifact::deserializeView(std::span<const u8>(bytes));
    ASSERT_FALSE(result.isOk());
    EXPECT_NE(result.status().toString().find("CRC"), std::string::npos)
        << result.status().toString();
}

TEST(RestoreParallel, TruncationAnywhereFails)
{
    const std::vector<u8> bytes = sharedArtifact().serialize();
    for (std::size_t cut :
         {bytes.size() - 1, bytes.size() / 2, bytes.size() / 4,
          std::size_t{30}, std::size_t{9}}) {
        const std::span<const u8> view(bytes.data(), cut);
        auto result = Artifact::deserializeView(view);
        EXPECT_FALSE(result.isOk()) << "prefix of " << cut << " bytes";
    }
}

TEST(RestoreParallel, ConcurrentColdStartsShareOneArtifact)
{
    // Several engines restoring from one const image concurrently.
    const core::MaterializedImage image =
        test::openImage(sharedOffline().image_bytes);
    MedusaEngine::Options opts;
    opts.model = tinyModel();
    constexpr int kEngines = 4;
    std::vector<std::thread> threads;
    std::vector<StatusOr<std::unique_ptr<MedusaEngine>>> results;
    for (int i = 0; i < kEngines; ++i) {
        results.emplace_back(internalError("not run"));
    }
    for (int i = 0; i < kEngines; ++i) {
        threads.emplace_back([i, &results, &opts, &image]() {
            results[i] = MedusaEngine::coldStartFromImage(opts, image);
        });
    }
    for (std::thread &t : threads) {
        t.join();
    }
    ASSERT_TRUE(results[0].isOk()) << results[0].status().toString();
    for (int i = 1; i < kEngines; ++i) {
        ASSERT_TRUE(results[i].isOk())
            << results[i].status().toString();
        expectSameTimes((*results[0])->coldStartReport().times, (*results[i])->coldStartReport().times);
        expectSameReport((*results[0])->coldStartReport().restore,
                         (*results[i])->coldStartReport().restore);
    }
}

} // namespace
} // namespace medusa
