/**
 * @file
 * Tests of the §8 "indirect pointers" extension: an engine variant
 * whose decode LM head is a batched GEMM taking a device array of
 * operand pointers. Base-paper Medusa copies such buffer contents
 * verbatim (stale addresses -> validation failure); the extension
 * records PointerWordFixes and rewrites them after replay.
 */

#include <gtest/gtest.h>

#include <set>

#include "llm/engine.h"
#include "medusa/offline.h"
#include "medusa/restore.h"

namespace medusa {
namespace {

llm::ModelConfig
indirectModel()
{
    llm::ModelConfig m = llm::findModel("Qwen1.5-0.5B").value();
    m.num_layers = 3;
    m.batched_lm_head = true;
    return m;
}

TEST(IndirectPointerTest, BatchedLmHeadMatchesPlainLmHead)
{
    // The batched variant computes the same logits as the plain GEMM.
    llm::ModelConfig plain = indirectModel();
    plain.batched_lm_head = false;
    llm::ModelConfig batched = indirectModel();

    llm::BaselineEngine::Options opts;
    opts.model = plain;
    opts.strategy = llm::Strategy::kVllm;
    auto a = llm::BaselineEngine::coldStart(opts);
    opts.model = batched;
    auto b = llm::BaselineEngine::coldStart(opts);
    ASSERT_TRUE(a.isOk() && b.isOk()) << b.status().toString();

    auto ta = (*a)->runtime().generate({4, 2}, 8);
    auto tb = (*b)->runtime().generate({4, 2}, 8);
    ASSERT_TRUE(ta.isOk() && tb.isOk());
    EXPECT_EQ(*ta, *tb);
}

TEST(IndirectPointerTest, AnalysisFindsPointerWords)
{
    core::OfflineOptions opts;
    opts.model = indirectModel();
    opts.pipeline.validate = false;
    auto offline = core::materialize(opts);
    ASSERT_TRUE(offline.isOk()) << offline.status().toString();
    // Each captured batch size has one operand array with 3 pointers.
    EXPECT_EQ(offline->stats.indirect_pointer_words, 3u * 35u);
    EXPECT_EQ(offline->artifact.pointer_fixes.size(), 3u * 35u);
}

TEST(IndirectPointerTest, RewrittenWorkspaceContentsAreOmitted)
{
    // The shape-only capture leaves each batch size's final-norm
    // workspace undefined (a skipped rmsnorm wrote it), but every graph
    // rewrites it at offset 0 before the batched GEMM reads it: the
    // image carries no contents for it. The operand array itself was
    // written by a full-size H2D, so its contents (and fixes) stay.
    core::OfflineOptions opts;
    opts.model = indirectModel();
    opts.pipeline.validate = false;
    auto offline = core::materialize(opts);
    ASSERT_TRUE(offline.isOk()) << offline.status().toString();
    const core::MaterializedImage &artifact = offline->artifact;
    EXPECT_EQ(offline->stats.rewritten_buffers, 35u);

    std::set<u64> materialized;
    for (const auto &pb : artifact.permanent) {
        materialized.insert(pb.alloc_index);
    }
    u32 workspaces = 0;
    for (const core::PointerWordFix &fix : artifact.pointer_fixes) {
        EXPECT_EQ(materialized.count(fix.buffer_alloc_index), 1u);
        if (fix.byte_offset == 0) { // operand 0: the final-norm output
            ++workspaces;
            EXPECT_EQ(materialized.count(fix.target_alloc_index), 0u);
        }
    }
    EXPECT_EQ(workspaces, 35u);
}

TEST(IndirectPointerTest, ExtensionRestoresAcrossProcesses)
{
    core::OfflineOptions opts;
    opts.model = indirectModel();
    opts.pipeline.validate = true;
    opts.pipeline.validate_batch_sizes = {1, 64};
    auto offline = core::materialize(opts);
    ASSERT_TRUE(offline.isOk()) << offline.status().toString();
    // Validated although the image omits every final-norm workspace.
    EXPECT_EQ(offline->stats.rewritten_buffers, 35u);

    core::MedusaEngine::Options eopts;
    eopts.model = opts.model;
    eopts.aslr_seed = 90210;
    eopts.restore.pipeline.validate = true;
    eopts.restore.pipeline.validate_batch_sizes = {1, 8, 64};
    const core::MaterializedImage &image = offline->artifact;
    auto engine = core::MedusaEngine::coldStartFromImage(eopts, image);
    ASSERT_TRUE(engine.isOk()) << engine.status().toString();
    EXPECT_TRUE((*engine)->coldStartReport().restore.validated);
    EXPECT_EQ((*engine)->coldStartReport().restore.indirect_pointers_fixed, 3u * 35u);

    auto out = (*engine)->runtime().generate({1, 2, 3}, 6);
    ASSERT_TRUE(out.isOk());
    EXPECT_EQ(out->size(), 6u);
}

TEST(IndirectPointerTest, BasePaperBehaviourFailsValidation)
{
    // With the extension disabled (the base paper's §4.3 verbatim-copy
    // restoration), the operand array comes back holding the OFFLINE
    // process's addresses and the batched GEMM dereferences garbage —
    // exactly the limitation §8 acknowledges.
    core::OfflineOptions opts;
    opts.model = indirectModel();
    opts.pipeline.validate = false;
    opts.analyze.handle_indirect_pointers = false;
    auto offline = core::materialize(opts);
    ASSERT_TRUE(offline.isOk());
    EXPECT_EQ(offline->artifact.pointer_fixes.size(), 0u);

    core::MedusaEngine::Options eopts;
    eopts.model = opts.model;
    eopts.aslr_seed = 555;
    eopts.restore.pipeline.validate = true;
    eopts.restore.pipeline.validate_batch_sizes = {1};
    const core::MaterializedImage &image = offline->artifact;
    auto engine = core::MedusaEngine::coldStartFromImage(eopts, image);
    ASSERT_FALSE(engine.isOk());
    EXPECT_EQ(engine.status().code(), StatusCode::kValidationFailure);
}

TEST(IndirectPointerTest, ZooModelsHaveNoIndirectPointers)
{
    // The §8 observation: across the unmodified models, no indirect
    // pointers occur (the paper found none in 139,364 nodes).
    llm::ModelConfig m = llm::findModel("Qwen1.5-0.5B").value();
    m.num_layers = 2;
    core::OfflineOptions opts;
    opts.model = m;
    opts.pipeline.validate = false;
    auto offline = core::materialize(opts);
    ASSERT_TRUE(offline.isOk());
    EXPECT_EQ(offline->stats.indirect_pointer_words, 0u);
}

} // namespace
} // namespace medusa
