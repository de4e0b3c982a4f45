/**
 * @file
 * The parallel restore pipeline's hard requirement: simulated results
 * are bit-identical for every thread count. Covers the phased graph
 * rebuild (restoreGraphs), the sectioned zero-copy artifact format
 * (parallel decode, content skipping, CRC rejection, legacy
 * compatibility) and concurrent whole-engine cold starts (the TSan
 * target of scripts/check.sh).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <span>
#include <thread>

#include "common/fault.h"
#include "common/thread_pool.h"
#include "llm/engine.h"
#include "medusa/offline.h"
#include "medusa/restore.h"

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
const Artifact &
sharedArtifact()
{
    static const Artifact artifact = []() {
        OfflineOptions opts;
        opts.model = tinyModel();
        opts.pipeline.validate = false;
        return std::move(materialize(opts).value().artifact);
    }();
    return artifact;
}

StatusOr<std::unique_ptr<MedusaEngine>>
coldStartWithThreads(u32 restore_threads, bool validate = false)
{
    MedusaEngine::Options opts;
    opts.model = tinyModel();
    opts.restore.restore_threads = restore_threads;
    opts.restore.pipeline.validate = validate;
    return MedusaEngine::coldStart(opts, sharedArtifact());
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

TEST(RestoreParallel, ColdStartDeterministicAcrossThreadCounts)
{
    // validate=true makes each engine also prove restored-graph logits
    // match eager forwarding, so this covers results, not just timing.
    auto serial = coldStartWithThreads(1, /*validate=*/true);
    ASSERT_TRUE(serial.isOk()) << serial.status().toString();
    for (u32 threads : {2u, 4u, 0u}) {
        auto parallel = coldStartWithThreads(threads, /*validate=*/true);
        ASSERT_TRUE(parallel.isOk()) << parallel.status().toString();
        expectSameTimes((*serial)->coldStartReport().times, (*parallel)->coldStartReport().times);
        expectSameReport((*serial)->coldStartReport().restore, (*parallel)->coldStartReport().restore);
        EXPECT_TRUE((*parallel)->coldStartReport().restore.validated);
    }
}

TEST(RestoreParallel, ParallelDecodeMatchesSerial)
{
    const std::vector<u8> bytes = sharedArtifact().serialize();
    ArtifactReadOptions serial_opts;
    auto serial = Artifact::deserializeView(std::span<const u8>(bytes),
                                            serial_opts);
    ASSERT_TRUE(serial.isOk()) << serial.status().toString();
    ArtifactReadOptions parallel_opts;
    parallel_opts.threads = 4;
    auto parallel = Artifact::deserializeView(
        std::span<const u8>(bytes), parallel_opts);
    ASSERT_TRUE(parallel.isOk()) << parallel.status().toString();
    // Re-serialization is deterministic, so byte equality is deep
    // equality of everything the format persists.
    EXPECT_EQ(serial->serialize(), parallel->serialize());
    EXPECT_EQ(serial->serialized_size_hint, bytes.size());
    EXPECT_EQ(parallel->serialized_size_hint, bytes.size());
}

TEST(RestoreParallel, LegacyFlatFormatStillReadable)
{
    const Artifact &original = sharedArtifact();
    std::vector<u8> flat = original.serializeFlat();
    u32 version = 0;
    std::memcpy(&version, flat.data() + 4, sizeof(version));
    EXPECT_EQ(version, Artifact::kLegacyVersion);
    auto back = Artifact::deserialize(std::move(flat));
    ASSERT_TRUE(back.isOk()) << back.status().toString();
    EXPECT_EQ(back->serialize(), original.serialize());
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

    // A contents-off restore runs fine from the skimmed artifact.
    MedusaEngine::Options copts;
    copts.model = tinyModel();
    copts.restore.restore_contents = false;
    auto engine = MedusaEngine::coldStart(copts, *skipped);
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
    for (u32 threads : {1u, 4u}) {
        ArtifactReadOptions opts;
        opts.threads = threads;
        auto result = Artifact::deserializeView(
            std::span<const u8>(bytes), opts);
        ASSERT_FALSE(result.isOk());
        EXPECT_NE(result.status().toString().find("CRC"),
                  std::string::npos)
            << result.status().toString();
    }
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

TEST(RestoreParallel, ThreadPoolParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.size(), 3u);
    for (std::size_t n : {0u, 1u, 4u, 97u}) {
        std::vector<std::atomic<u32>> hits(n);
        pool.parallelFor(n, [&](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
        }
    }
}

TEST(RestoreParallel, ConcurrentColdStartsShareOneArtifact)
{
    // Several engines restoring from one const Artifact concurrently,
    // each with its own internal pool — the data-race surface TSan
    // checks via scripts/check.sh.
    constexpr int kEngines = 4;
    std::vector<std::thread> threads;
    std::vector<StatusOr<std::unique_ptr<MedusaEngine>>> results;
    for (int i = 0; i < kEngines; ++i) {
        results.emplace_back(internalError("not run"));
    }
    for (int i = 0; i < kEngines; ++i) {
        threads.emplace_back([i, &results]() {
            results[i] = coldStartWithThreads(2);
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

// ---- phase-2 failure propagation (the cancellation contract) ------------

TEST(RestoreParallel, GraphBuildFaultPropagatesUnderParallelPool)
{
    // A graph build failing mid-phase-2 must cancel the outstanding
    // pool tasks (they no-op after the cancel flag flips), join the
    // pool, and surface the injected error — not deadlock, not crash,
    // not report partial success. Run under MEDUSA_TSAN to check the
    // cancel flag's acquire/release pairing.
    auto plan = FaultPlan::fromSpec("graph_build@3");
    ASSERT_TRUE(plan.isOk());
    FaultInjector injector(*plan);

    MedusaEngine::Options opts;
    opts.model = tinyModel();
    opts.restore.restore_threads = 4;
    opts.restore.pipeline.fault = &injector;
    opts.restore.fallback.mode = core::FallbackMode::kFail;
    auto engine = MedusaEngine::coldStart(opts, sharedArtifact());
    ASSERT_FALSE(engine.isOk());
    EXPECT_EQ(engine.status().code(), StatusCode::kFaultInjected);
}

TEST(RestoreParallel, GraphBuildFaultRetrySucceedsDeterministically)
{
    // The fault fires exactly once (hit 3); the retry's rebuild runs
    // clean on the rolled-back process and must land bit-identical to
    // an engine that never saw the fault.
    auto plan = FaultPlan::fromSpec("graph_build@3x1");
    ASSERT_TRUE(plan.isOk());
    FaultInjector injector(*plan);

    MedusaEngine::Options opts;
    opts.model = tinyModel();
    opts.restore.restore_threads = 4;
    opts.restore.pipeline.fault = &injector;
    opts.restore.fallback.mode = core::FallbackMode::kRetryThenVanilla;
    auto retried = MedusaEngine::coldStart(opts, sharedArtifact());
    ASSERT_TRUE(retried.isOk()) << retried.status().toString();
    EXPECT_FALSE((*retried)->coldStartReport().restore.fallback_vanilla);
    EXPECT_EQ((*retried)->coldStartReport().restore.restore_failures, 1u);

    auto clean = coldStartWithThreads(4);
    ASSERT_TRUE(clean.isOk());
    // Logical fingerprint: the retried engine's clock is legitimately
    // ahead by the wasted attempt and the backoff pause.
    EXPECT_EQ(
        (*retried)->runtime().process().logicalStateFingerprint(),
        (*clean)->runtime().process().logicalStateFingerprint());
    EXPECT_EQ((*retried)->coldStartReport().restore.graphs_restored,
              (*clean)->coldStartReport().restore.graphs_restored);
    EXPECT_EQ((*retried)->coldStartReport().restore.nodes_restored,
              (*clean)->coldStartReport().restore.nodes_restored);
}

} // namespace
} // namespace medusa
