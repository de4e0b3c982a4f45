/**
 * @file
 * The v6 materialized image (DESIGN.md §13): a reopen matches the view
 * materialize opened, zero-copy open, relocation-patch restore
 * determinism and its per-node cost, concurrent cold starts sharing one
 * image, and rejection of truncated, bit-flipped and misaligned
 * buffers and of graphs whose edges or order break "node ids are the
 * execution order".
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "llm/engine.h"
#include "medusa/image.h"
#include "medusa/offline.h"
#include "medusa/restore.h"
#include "test_image.h"

namespace medusa {
namespace {

using core::ImageReadOptions;
using core::MaterializedImage;
using core::MedusaEngine;
using core::OfflineOptions;
using core::OfflineResult;
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

/** One shared offline run for the whole suite. */
const OfflineResult &
shared()
{
    static const OfflineResult f = []() {
        OfflineOptions opts;
        opts.model = tinyModel();
        opts.pipeline.validate = false;
        return materialize(opts).value();
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
    const OfflineResult &f = shared();
    auto image =
        MaterializedImage::openView(std::span<const u8>(f.image_bytes));
    ASSERT_TRUE(image.isOk()) << image.status().toString();

    EXPECT_EQ(image->model_name, f.artifact.model_name);
    EXPECT_EQ(image->model_seed, f.artifact.model_seed);
    EXPECT_EQ(image->free_gpu_memory, f.artifact.free_gpu_memory);
    EXPECT_EQ(image->ops.size(), f.artifact.ops.size());
    EXPECT_EQ(image->graphs.size(), f.artifact.graphs.size());
    EXPECT_EQ(image->total_nodes, f.stats.total_nodes);
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

// ---- relocation-patch restore: determinism + cost ----------------------

TEST(ImageTest, PatchRestoreIsDeterministic)
{
    const OfflineResult &f = shared();
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
    const OfflineResult &f = shared();
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
    EXPECT_EQ(report.nodes_restored, f.stats.total_nodes);
    EXPECT_GT(report.relocations_applied, 0u);
    EXPECT_GT(report.kernels_resolved, 0u);
    EXPECT_LT(report.kernels_resolved, report.nodes_restored);
    EXPECT_NEAR((*b)->coldStartReport().times.capture -
                    (*a)->coldStartReport().times.capture,
                10e-6 * static_cast<f64>(f.stats.total_nodes), 1e-9);
}

/** The host buffers of every materialized KV store of @p engine. */
std::vector<const u8 *>
kvBackings(MedusaEngine &engine)
{
    llm::ModelRuntime &rt = engine.runtime();
    std::vector<const u8 *> out;
    for (const auto *layers : {&rt.kv().k_layers, &rt.kv().v_layers}) {
        for (DeviceAddr addr : *layers) {
            const simcuda::AllocationRecord *rec =
                rt.process().memory().findContaining(addr);
            if (rec != nullptr && rec->backing.materialized()) {
                out.push_back(rec->backing.rawData());
            }
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

TEST(ImageTest, ValidatedRestoreOnRecycledBackingEqualsTheFirst)
{
    // The second restore's KV stores are the first one's mappings,
    // dirtied and then re-zeroed: it must land in the same state, decode
    // the same logits and charge the same validation time.
    const OfflineResult &f = shared();
    MedusaEngine::Options opts;
    opts.model = tinyModel();
    opts.aslr_seed = 31;
    opts.restore.pipeline.validate = true;
    auto restore = [&]() {
        auto engine = MedusaEngine::coldStartFromImage(opts, f.artifact);
        EXPECT_TRUE(engine.isOk()) << engine.status().toString();
        return std::move(engine).value();
    };

    std::unique_ptr<MedusaEngine> first = restore();
    ASSERT_TRUE(first->coldStartReport().restore.validated);
    const u64 fingerprint =
        first->runtime().process().logicalStateFingerprint();
    const f64 validation_sec = first->runtime().clock().nowSec();
    const std::vector<const u8 *> first_kv = kvBackings(*first);
    ASSERT_FALSE(first_kv.empty());
    auto logits = first->runtime().graphDecodeLogits(4);
    ASSERT_TRUE(logits.isOk()) << logits.status().toString();
    // Dirty every byte of every KV store before the process dies: the
    // recycled mappings must come back all-zero anyway.
    llm::ModelRuntime &rt = first->runtime();
    for (const auto *layers : {&rt.kv().k_layers, &rt.kv().v_layers}) {
        for (DeviceAddr addr : *layers) {
            const u64 bytes =
                rt.process().memory().findContaining(addr)->backing.size();
            ASSERT_TRUE(
                rt.process().memory().memset(addr, 0xab, bytes).isOk());
        }
    }
    first.reset();

    std::unique_ptr<MedusaEngine> second = restore();
    const std::vector<const u8 *> second_kv = kvBackings(*second);
    EXPECT_TRUE(std::includes(first_kv.begin(), first_kv.end(),
                              second_kv.begin(), second_kv.end()))
        << "the second restore did not reuse the first one's mappings";
    EXPECT_EQ(second->runtime().process().logicalStateFingerprint(),
              fingerprint);
    EXPECT_EQ(second->runtime().clock().nowSec(), validation_sec);
    auto again = second->runtime().graphDecodeLogits(4);
    ASSERT_TRUE(again.isOk()) << again.status().toString();
    EXPECT_EQ(*again, *logits);
}

TEST(ImageTest, RestoredEngineOutlivesItsImageAndBytes)
{
    // Executable graphs adopt their patched arrays and copy the image
    // columns they keep: once the view and its bytes are gone (the
    // bytes overwritten first, so a borrowed span would read garbage),
    // the engine still replays its graphs to the reference logits.
    const OfflineResult &f = shared();
    auto reference = patchColdStart(f.artifact, 5);
    ASSERT_TRUE(reference.isOk()) << reference.status().toString();
    auto expected = (*reference)->runtime().graphDecodeLogits(4);
    ASSERT_TRUE(expected.isOk()) << expected.status().toString();

    auto bytes = std::make_unique<std::vector<u8>>(f.image_bytes);
    auto image = std::make_unique<MaterializedImage>(
        MaterializedImage::openView(std::span<const u8>(*bytes)).value());
    auto engine = patchColdStart(*image, 5);
    ASSERT_TRUE(engine.isOk()) << engine.status().toString();
    image.reset();
    std::fill(bytes->begin(), bytes->end(), u8{0xee});
    bytes.reset();

    auto logits = (*engine)->runtime().graphDecodeLogits(4);
    ASSERT_TRUE(logits.isOk()) << logits.status().toString();
    EXPECT_EQ(*logits, *expected);
}

// ---- concurrent restores from one image --------------------------------

TEST(ImageTest, ConcurrentColdStartsShareOneImage)
{
    // Several engines restoring from one const image concurrently: the
    // simulated results are bit-identical across the engines.
    const OfflineResult &f = shared();
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
    const OfflineResult &f = shared();
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
    const OfflineResult &f = shared();
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
    const OfflineResult &f = shared();
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
    const OfflineResult &f = shared();
    std::vector<u8> shifted(f.image_bytes.size() + 1);
    std::copy(f.image_bytes.begin(), f.image_bytes.end(),
              shifted.begin() + 1);
    auto image = MaterializedImage::openView(
        std::span<const u8>(shifted.data() + 1, f.image_bytes.size()));
    ASSERT_FALSE(image.isOk());
    EXPECT_EQ(image.status().code(), StatusCode::kInvalidArgument);
}

TEST(ImageTest, NonForwardTopologyRejectedAtOpen)
{
    core::ImageBuilder b;
    b.model_name = "two-node";
    b.ops.push_back({core::AllocOp::kAlloc, 64, 64, 0});
    const u64 kernel = b.addKernel("k", "m");
    // Emission refuses a backward edge outright.
    EXPECT_FALSE(b.beginGraph(1, 2, {{1, 0}}).isOk());
    ASSERT_TRUE(b.beginGraph(1, 2, {{0, 1}}).isOk());
    b.addNode(kernel, {});
    b.addPointer(0, 0);
    b.addNode(kernel, {});
    const std::vector<u8> clean = b.finish({});
    ASSERT_TRUE(MaterializedImage::openView(std::span<const u8>(clean)).isOk());

    // Every structural defect, not just the topology ones, is refused
    // at open with the rule that names it.
    ImageReadOptions lenient;
    lenient.validate_indices = false;
    for (const test::ImageCorruption &c : test::structuralCorruptions(clean)) {
        auto image = MaterializedImage::openView(std::span<const u8>(c.bytes));
        ASSERT_FALSE(image.isOk()) << c.what;
        EXPECT_EQ(image.status().code(), StatusCode::kInternal) << c.what;
        EXPECT_NE(image.status().message().find(c.rule), std::string::npos)
            << c.what << ": " << image.status().message();
        // The bytes decode; only the structural check refuses them.
        EXPECT_TRUE(
            MaterializedImage::openView(std::span<const u8>(c.bytes), lenient)
                .isOk())
            << c.what;
    }
}

TEST(ImageTest, OpenFaultInjectable)
{
    const OfflineResult &f = shared();
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
