/**
 * @file
 * The v6 materialized image (DESIGN.md §13): round-trip from an
 * artifact, zero-copy open, relocation-patch restore determinism and
 * its per-node cost, concurrent cold starts sharing one image, and
 * rejection of truncated, bit-flipped and misaligned buffers.
 */

#include <gtest/gtest.h>

#include <span>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/serialize.h"
#include "llm/engine.h"
#include "medusa/image.h"
#include "medusa/offline.h"
#include "medusa/restore.h"

namespace medusa {
namespace {

using core::Artifact;
using core::ImageReadOptions;
using core::MaterializedImage;
using core::MedusaEngine;
using core::OfflineOptions;
using core::materialize;
using llm::findModel;
using llm::ModelConfig;

ModelConfig
tinyModel()
{
    ModelConfig m = findModel("Qwen1.5-0.5B").value();
    m.num_layers = 4;
    return m;
}

struct Fixture
{
    Artifact artifact;
    std::vector<u8> image_bytes;
};

/** One shared offline run for the whole suite. */
const Fixture &
shared()
{
    static const Fixture f = []() {
        OfflineOptions opts;
        opts.model = tinyModel();
        opts.pipeline.validate = false;
        auto result = materialize(opts).value();
        return Fixture{std::move(result.artifact),
                       std::move(result.image_bytes)};
    }();
    return f;
}

StatusOr<std::unique_ptr<MedusaEngine>>
patchColdStart(const MaterializedImage &image, u64 aslr_seed = 2)
{
    MedusaEngine::Options opts;
    opts.model = tinyModel();
    opts.aslr_seed = aslr_seed;
    return MedusaEngine::coldStartFromImage(opts, image);
}

// ---- round trip ---------------------------------------------------------

TEST(ImageTest, RoundTripMatchesArtifact)
{
    const Fixture &f = shared();
    auto image =
        MaterializedImage::openView(std::span<const u8>(f.image_bytes));
    ASSERT_TRUE(image.isOk()) << image.status().toString();

    EXPECT_EQ(image->model_name, f.artifact.model_name);
    EXPECT_EQ(image->model_seed, f.artifact.model_seed);
    EXPECT_EQ(image->free_gpu_memory, f.artifact.free_gpu_memory);
    EXPECT_EQ(image->ops.size(), f.artifact.ops.size());
    EXPECT_EQ(image->graphs.size(), f.artifact.graphs.size());
    EXPECT_EQ(image->total_nodes, f.artifact.totalNodes());
    EXPECT_EQ(image->permanent.size(), f.artifact.permanent.size());
    EXPECT_EQ(image->serialized_size, f.image_bytes.size());
    EXPECT_FALSE(image->kernel_table.empty());
    EXPECT_FALSE(image->tokenizer_merges.empty());
    // A real model has pointer params in every graph: the relocation
    // table cannot be empty, and the slot template must cover every
    // node's function slot plus every param slot.
    EXPECT_GT(image->data_relocs.size(), 0u);
    EXPECT_GT(image->kernel_relocs.size(), 0u);
    u64 slots = 0;
    for (const auto &g : image->graphs) {
        slots += static_cast<u64>(g.node_count) + g.param_len.size();
        EXPECT_EQ(g.order.size(), g.node_count);
        EXPECT_EQ(g.param_begin.size(), g.node_count + 1u);
    }
    EXPECT_EQ(image->patch_template.size(), slots);
}

TEST(ImageTest, OwningOpenEqualsView)
{
    const Fixture &f = shared();
    std::vector<u8> copy = f.image_bytes;
    auto owned = MaterializedImage::open(std::move(copy));
    ASSERT_TRUE(owned.isOk()) << owned.status().toString();
    EXPECT_EQ(owned->model_name, f.artifact.model_name);
    EXPECT_EQ(owned->total_nodes, f.artifact.totalNodes());

    // Moving the image must keep its spans valid (they point into the
    // adopted buffer, whose heap allocation is move-stable).
    MaterializedImage moved = std::move(*owned);
    EXPECT_EQ(moved.total_nodes, f.artifact.totalNodes());
    EXPECT_FALSE(moved.patch_template.empty());
}

TEST(ImageTest, OpenFileMapsReadOnly)
{
    const Fixture &f = shared();
    const std::string path =
        ::testing::TempDir() + "image_test_mmap.mdsi";
    ASSERT_TRUE(writeFile(path, f.image_bytes).isOk());

    auto mapped = MaterializedImage::openFile(path);
    ASSERT_TRUE(mapped.isOk()) << mapped.status().toString();
    EXPECT_TRUE(mapped->isMapped());
    EXPECT_EQ(mapped->model_name, f.artifact.model_name);
    EXPECT_EQ(mapped->serialized_size, f.image_bytes.size());
    EXPECT_EQ(mapped->total_nodes, f.artifact.totalNodes());

    // The mapping stays valid across a move of the image.
    MaterializedImage moved = std::move(*mapped);
    EXPECT_TRUE(moved.isMapped());
    EXPECT_FALSE(moved.patch_template.empty());

    // A mapped image drives the patch restore like an in-memory one.
    auto engine = patchColdStart(moved, 41);
    ASSERT_TRUE(engine.isOk()) << engine.status().toString();

    auto missing = MaterializedImage::openFile(path + ".nope");
    EXPECT_FALSE(missing.isOk());
}

TEST(ImageTest, OpenFileReadFallbackMatchesMapped)
{
    const Fixture &f = shared();
    const std::string path =
        ::testing::TempDir() + "image_test_read.mdsi";
    ASSERT_TRUE(writeFile(path, f.image_bytes).isOk());

    ImageReadOptions ropts;
    ropts.use_mmap = false; // the fallback path, forced
    auto read = MaterializedImage::openFile(path, ropts);
    ASSERT_TRUE(read.isOk()) << read.status().toString();
    EXPECT_FALSE(read->isMapped());

    auto mapped = MaterializedImage::openFile(path);
    ASSERT_TRUE(mapped.isOk());
    EXPECT_EQ(read->model_name, mapped->model_name);
    EXPECT_EQ(read->total_nodes, mapped->total_nodes);
    EXPECT_EQ(read->data_relocs.size(), mapped->data_relocs.size());
    EXPECT_EQ(read->kernel_relocs.size(), mapped->kernel_relocs.size());
    EXPECT_EQ(read->patch_template.size(),
              mapped->patch_template.size());

    // Both paths restore to the same process state.
    auto a = patchColdStart(*read, 43);
    auto b = patchColdStart(*mapped, 43);
    ASSERT_TRUE(a.isOk()) << a.status().toString();
    ASSERT_TRUE(b.isOk()) << b.status().toString();
    EXPECT_EQ((*a)->runtime().process().stateFingerprint(),
              (*b)->runtime().process().stateFingerprint());
}

// ---- relocation-patch restore: determinism + cost ----------------------

TEST(ImageTest, PatchRestoreIsDeterministic)
{
    const Fixture &f = shared();
    auto image =
        MaterializedImage::openView(std::span<const u8>(f.image_bytes));
    ASSERT_TRUE(image.isOk());

    auto first = patchColdStart(*image, 77);
    auto second = patchColdStart(*image, 77);
    ASSERT_TRUE(first.isOk()) << first.status().toString();
    ASSERT_TRUE(second.isOk()) << second.status().toString();

    EXPECT_EQ((*first)->runtime().process().stateFingerprint(),
              (*second)->runtime().process().stateFingerprint());
    EXPECT_EQ((*first)->runtime().allocator().stateFingerprint(),
              (*second)->runtime().allocator().stateFingerprint());
    EXPECT_EQ((*first)->coldStartReport().restore.relocations_applied,
              (*second)->coldStartReport().restore.relocations_applied);
    EXPECT_EQ((*first)->coldStartReport().restore.graphs_patched,
              (*second)->coldStartReport().restore.graphs_patched);
}

TEST(ImageTest, PatchPassChargesRestorePerNodeCostPerNode)
{
    // The patch pass charges the paper-calibrated "patch params + add
    // node" cost once per restored node: raising the per-node cost
    // stretches the capture/restore stage by exactly that much per node.
    const Fixture &f = shared();
    auto image =
        MaterializedImage::openView(std::span<const u8>(f.image_bytes));
    ASSERT_TRUE(image.isOk());

    CostModel base;
    CostModel dearer = base;
    dearer.restore_per_node_us += 10.0;
    MedusaEngine::Options opts;
    opts.model = tinyModel();
    opts.cost = &base;
    auto a = MedusaEngine::coldStartFromImage(opts, *image);
    opts.cost = &dearer;
    auto b = MedusaEngine::coldStartFromImage(opts, *image);
    ASSERT_TRUE(a.isOk()) << a.status().toString();
    ASSERT_TRUE(b.isOk()) << b.status().toString();

    const RestoreReport &report = (*a)->coldStartReport().restore;
    EXPECT_EQ(report.graphs_patched, f.artifact.graphs.size());
    EXPECT_EQ(report.nodes_restored, f.artifact.totalNodes());
    EXPECT_GT(report.relocations_applied, 0u);
    EXPECT_GT(report.kernels_resolved, 0u);
    EXPECT_LT(report.kernels_resolved, report.nodes_restored);
    EXPECT_NEAR((*b)->coldStartReport().times.capture -
                    (*a)->coldStartReport().times.capture,
                10e-6 * static_cast<f64>(f.artifact.totalNodes()), 1e-9);
}

// ---- concurrent restores from one image --------------------------------

TEST(ImageTest, ConcurrentColdStartsShareOneImage)
{
    // Several engines restoring from one const image concurrently: the
    // simulated results are bit-identical across the engines.
    const Fixture &f = shared();
    auto image =
        MaterializedImage::openView(std::span<const u8>(f.image_bytes));
    ASSERT_TRUE(image.isOk());
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
            results[i] = MedusaEngine::coldStartFromImage(opts, *image);
        });
    }
    for (std::thread &t : threads) {
        t.join();
    }
    ASSERT_TRUE(results[0].isOk()) << results[0].status().toString();
    const ColdStartReport &ref = (*results[0])->coldStartReport();
    for (int i = 1; i < kEngines; ++i) {
        ASSERT_TRUE(results[i].isOk())
            << results[i].status().toString();
        const ColdStartReport &cs = (*results[i])->coldStartReport();
        EXPECT_EQ(cs.times.struct_init, ref.times.struct_init);
        EXPECT_EQ(cs.times.weights, ref.times.weights);
        EXPECT_EQ(cs.times.tokenizer, ref.times.tokenizer);
        EXPECT_EQ(cs.times.kv_init, ref.times.kv_init);
        EXPECT_EQ(cs.times.capture, ref.times.capture);
        EXPECT_EQ(cs.times.runtime_init, ref.times.runtime_init);
        EXPECT_EQ(cs.times.loading, ref.times.loading);
        EXPECT_EQ(cs.restore.nodes_restored, ref.restore.nodes_restored);
        EXPECT_EQ(cs.restore.graphs_restored, ref.restore.graphs_restored);
        EXPECT_EQ(cs.restore.kernels_via_dlsym,
                  ref.restore.kernels_via_dlsym);
        EXPECT_EQ(cs.restore.kernels_via_enumeration,
                  ref.restore.kernels_via_enumeration);
        EXPECT_EQ(cs.restore.replayed_allocs, ref.restore.replayed_allocs);
        EXPECT_EQ(cs.restore.replayed_frees, ref.restore.replayed_frees);
        EXPECT_EQ(cs.restore.restored_content_bytes,
                  ref.restore.restored_content_bytes);
        EXPECT_EQ(cs.restore.indirect_pointers_fixed,
                  ref.restore.indirect_pointers_fixed);
        EXPECT_EQ(cs.restore.validated, ref.restore.validated);
    }
}

// ---- corruption rejection -----------------------------------------------

TEST(ImageTest, TruncationAnywhereFails)
{
    const Fixture &f = shared();
    for (std::size_t keep :
         {std::size_t{0}, std::size_t{8}, std::size_t{23},
          std::size_t{200}, f.image_bytes.size() / 2,
          f.image_bytes.size() - 1}) {
        std::vector<u8> cut(f.image_bytes.begin(),
                            f.image_bytes.begin() +
                                static_cast<std::ptrdiff_t>(keep));
        auto image =
            MaterializedImage::openView(std::span<const u8>(cut));
        EXPECT_FALSE(image.isOk()) << "kept " << keep << " bytes";
    }
}

TEST(ImageTest, BitFlipAnywhereFailsCrc)
{
    const Fixture &f = shared();
    const std::size_t header = 24;
    for (std::size_t pos :
         {header, header + 1000, f.image_bytes.size() / 2,
          f.image_bytes.size() - 1}) {
        std::vector<u8> corrupt = f.image_bytes;
        corrupt[pos] ^= 0x40;
        auto image =
            MaterializedImage::openView(std::span<const u8>(corrupt));
        ASSERT_FALSE(image.isOk()) << "flipped byte " << pos;
        EXPECT_EQ(image.status().code(), StatusCode::kInternal)
            << image.status().toString();
        EXPECT_NE(image.status().message().find("CRC32"),
                  std::string::npos);
    }
}

TEST(ImageTest, MagicAndVersionMismatchRejected)
{
    const Fixture &f = shared();
    std::vector<u8> wrong_magic = f.image_bytes;
    wrong_magic[0] ^= 0xff;
    auto a =
        MaterializedImage::openView(std::span<const u8>(wrong_magic));
    ASSERT_FALSE(a.isOk());
    EXPECT_NE(a.status().message().find("magic"), std::string::npos);

    std::vector<u8> wrong_version = f.image_bytes;
    wrong_version[4] ^= 0x01;
    auto b =
        MaterializedImage::openView(std::span<const u8>(wrong_version));
    ASSERT_FALSE(b.isOk());
    EXPECT_NE(b.status().message().find("version"), std::string::npos);
}

TEST(ImageTest, MisalignedBufferRejected)
{
    const Fixture &f = shared();
    std::vector<u8> shifted(f.image_bytes.size() + 1);
    std::copy(f.image_bytes.begin(), f.image_bytes.end(),
              shifted.begin() + 1);
    auto image = MaterializedImage::openView(
        std::span<const u8>(shifted.data() + 1, f.image_bytes.size()));
    ASSERT_FALSE(image.isOk());
    EXPECT_EQ(image.status().code(), StatusCode::kInvalidArgument);
}

TEST(ImageTest, OpenFaultInjectable)
{
    const Fixture &f = shared();
    auto plan = FaultPlan::fromSpec("image_open");
    ASSERT_TRUE(plan.isOk());
    FaultInjector injector(*plan);
    ImageReadOptions opts;
    opts.fault = &injector;
    auto image = MaterializedImage::openView(
        std::span<const u8>(f.image_bytes), opts);
    ASSERT_FALSE(image.isOk());
    EXPECT_EQ(image.status().code(), StatusCode::kFaultInjected);
}

} // namespace
} // namespace medusa
