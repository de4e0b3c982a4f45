/**
 * @file
 * Rollback invariants of the transactional restore: after any injected
 * fault the simulated GPU process is indistinguishable from a freshly
 * launched one (state fingerprints), the journal tallies what a failed
 * attempt touched, a vanilla cold start on the rolled-back process
 * produces logits bit-identical to a never-restored engine, and a
 * failed graph-instantiation batch leaks no partially-registered slots
 * — on one GPU and on every tensor-parallel rank.
 */

#include <gtest/gtest.h>

#include "common/fault.h"
#include "llm/engine.h"
#include "medusa/offline.h"
#include "medusa/restore.h"
#include "medusa/tp.h"
#include "simcuda/kernels/builtin.h"

namespace medusa {
namespace {

using core::FallbackMode;
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

const core::MaterializedImage &
tinyImage()
{
    static const core::MaterializedImage image = []() {
        OfflineOptions opts;
        opts.model = tinyModel();
        opts.pipeline.validate = false;
        auto result = materialize(opts);
        MEDUSA_CHECK(result.isOk(), result.status().toString());
        return core::MaterializedImage::open(std::move(result->image_bytes))
            .value();
    }();
    return image;
}

// ---- GpuProcess-level invariants ----------------------------------------

TEST(RollbackTest, ResetProcessFingerprintsEqualFresh)
{
    SimClock clock;
    CostModel cost;
    simcuda::GpuProcessOptions popts;
    popts.aslr_seed = 99;
    simcuda::GpuProcess fresh(popts, &clock, &cost);
    simcuda::GpuProcess used(popts, &clock, &cost);
    ASSERT_EQ(fresh.stateFingerprint(), used.stateFingerprint());

    // Mutate everything the journal tracks.
    used.beginJournal();
    auto buf = used.cudaMalloc(4096, 4096);
    ASSERT_TRUE(buf.isOk());
    const std::vector<f32> data(16, 1.5f);
    ASSERT_TRUE(used.memcpyH2D(*buf, data.data(), 64, 64).isOk());
    ASSERT_TRUE(used.cudaMemset(*buf, 0, 32).isOk());
    auto buf2 = used.cudaMalloc(256, 256);
    ASSERT_TRUE(buf2.isOk());
    ASSERT_TRUE(used.cudaFree(*buf2).isOk());
    const auto &k = simcuda::BuiltinKernels::get();
    auto sym = used.dlsym(
        simcuda::kTorchModule,
        simcuda::KernelRegistry::instance().def(k.rmsnorm).mangled_name);
    ASSERT_TRUE(sym.isOk());
    ASSERT_TRUE(used.cudaGetFuncBySymbol(*sym).isOk());

    const simcuda::ProcessJournal &journal = used.journal();
    EXPECT_TRUE(journal.anyMutations());
    EXPECT_EQ(journal.driver_allocs, 2u);
    EXPECT_EQ(journal.driver_frees, 1u);
    EXPECT_EQ(journal.h2d_copies, 1u);
    EXPECT_EQ(journal.memsets, 1u);
    EXPECT_EQ(journal.module_loads, 1u);
    EXPECT_NE(fresh.stateFingerprint(), used.stateFingerprint());

    used.resetToPristine();
    EXPECT_FALSE(used.journalActive());
    EXPECT_FALSE(used.journal().anyMutations());
    EXPECT_EQ(fresh.stateFingerprint(), used.stateFingerprint());

    // The rolled-back process replays the same address layout as a
    // fresh launch: ASLR streams were rewound, not advanced.
    auto fresh_addr = fresh.cudaMalloc(4096, 4096);
    auto reset_addr = used.cudaMalloc(4096, 4096);
    ASSERT_TRUE(fresh_addr.isOk());
    ASSERT_TRUE(reset_addr.isOk());
    EXPECT_EQ(*fresh_addr, *reset_addr);
}

TEST(RollbackTest, RuntimeRollbackMatchesFreshRuntime)
{
    llm::ModelRuntime::Options opts;
    opts.model = tinyModel();
    opts.aslr_seed = 4242;

    llm::ModelRuntime used(opts);
    ASSERT_TRUE(used.initStructure().isOk());
    ASSERT_TRUE(used.loadWeights().isOk());
    ASSERT_TRUE(used.loadTokenizer().isOk());
    auto free_bytes = used.profileFreeMemory();
    ASSERT_TRUE(free_bytes.isOk());
    ASSERT_TRUE(used.initKvCache(*free_bytes).isOk());
    ASSERT_TRUE(used.warmupDecode(1).isOk());
    auto graph = used.captureDecode(1);
    ASSERT_TRUE(graph.isOk());
    ASSERT_TRUE(used.instantiateGraph(1, *graph).isOk());
    ASSERT_GT(used.graphCount(), 0u);

    used.rollbackToPristine();

    llm::ModelRuntime fresh(opts);
    EXPECT_EQ(used.graphCount(), 0u);
    EXPECT_EQ(used.process().stateFingerprint(),
              fresh.process().stateFingerprint());
    EXPECT_EQ(used.allocator().stateFingerprint(),
              fresh.allocator().stateFingerprint());
}

// ---- single-GPU fallback equivalence ------------------------------------

TEST(RollbackTest, FallbackLogitsIdenticalToNeverRestoredEngine)
{
    // Fault every restore attempt at the replay prefix; the engine
    // degrades to the vanilla cold start on the rolled-back process.
    auto plan = FaultPlan::fromSpec("replay_prefix");
    ASSERT_TRUE(plan.isOk());
    FaultInjector injector(*plan);

    constexpr u64 kSeed = 5150;
    MedusaEngine::Options eopts;
    eopts.model = tinyModel();
    eopts.aslr_seed = kSeed;
    eopts.restore.pipeline.fault = &injector;
    eopts.restore.fallback.mode = FallbackMode::kVanillaColdStart;
    auto degraded = MedusaEngine::coldStartFromImage(eopts, tinyImage());
    ASSERT_TRUE(degraded.isOk()) << degraded.status().toString();
    ASSERT_TRUE((*degraded)->coldStartReport().restore.fallback_vanilla);

    // The consolidated report narrates the same story: the outcome, the
    // rollback and fallback spans, and the canonical restore.* metrics.
    const ColdStartReport &cs = (*degraded)->coldStartReport();
    EXPECT_EQ(cs.outcome, ColdStartOutcome::kFellBack);
    EXPECT_EQ(cs.strategy, llm::strategyName(llm::Strategy::kVllm));
    EXPECT_TRUE(cs.hasSpan("fallback.vanilla_cold_start"));
    EXPECT_TRUE(cs.hasSpan("restore.rollback"));
    EXPECT_GE(cs.spanCount("restore.attempt_failed"), 1u);
    EXPECT_EQ(cs.metrics.counterValue("restore.failures"), 1u);
    EXPECT_EQ(cs.metrics.counterValue("restore.fallback_vanilla"), 1u);
    EXPECT_GT(cs.coldStartSec(), 0.0);

    llm::BaselineEngine::Options bopts;
    bopts.model = eopts.model;
    bopts.strategy = llm::Strategy::kVllm;
    bopts.aslr_seed = kSeed;
    auto baseline = llm::BaselineEngine::coldStart(bopts);
    ASSERT_TRUE(baseline.isOk()) << baseline.status().toString();

    // The rolled-back process relaunched with the same seed: the two
    // engines hold the same device memory and module layout, byte for
    // byte. (The full process fingerprint is excluded on purpose: it
    // hashes the stream pipeline's absolute completion time, and the
    // degraded engine's clock is legitimately ahead by the wasted
    // restore attempt.)
    EXPECT_EQ((*degraded)->runtime().process().memory().stateFingerprint(),
              (*baseline)->runtime().process().memory().stateFingerprint());
    EXPECT_EQ(
        (*degraded)->runtime().process().modules().stateFingerprint(),
        (*baseline)->runtime().process().modules().stateFingerprint());

    for (u32 bs : {1u, 4u}) {
        ASSERT_TRUE(
            (*degraded)->runtime().stageValidationState(bs).isOk());
        ASSERT_TRUE(
            (*baseline)->runtime().stageValidationState(bs).isOk());
        auto a = (*degraded)->runtime().eagerDecodeLogits(bs);
        auto b = (*baseline)->runtime().eagerDecodeLogits(bs);
        ASSERT_TRUE(a.isOk());
        ASSERT_TRUE(b.isOk());
        EXPECT_EQ(*a, *b) << "bs=" << bs; // bit-identical
    }
}

// ---- torn-patch rollback (v6 relocation path) ---------------------------

/** The tiny model's serialized v6 image (one shared offline run). */
const std::vector<u8> &
tinyImageBytes()
{
    static const std::vector<u8> bytes = []() {
        OfflineOptions opts;
        opts.model = tinyModel();
        opts.pipeline.validate = false;
        return std::move(materialize(opts).value().image_bytes);
    }();
    return bytes;
}

TEST(RollbackTest, TornPatchRollsBackAndFallsBackVanilla)
{
    // Every patch pass tears mid-relocation-batch; the transactional
    // loop must roll the process back and degrade to the vanilla cold
    // start, landing bit-identical to a never-restored engine.
    auto plan = FaultPlan::fromSpec("image_patch");
    ASSERT_TRUE(plan.isOk());
    FaultInjector injector(*plan);
    auto image = core::MaterializedImage::openView(
        std::span<const u8>(tinyImageBytes()));
    ASSERT_TRUE(image.isOk()) << image.status().toString();

    constexpr u64 kSeed = 6161;
    MedusaEngine::Options eopts;
    eopts.model = tinyModel();
    eopts.aslr_seed = kSeed;
    eopts.restore.pipeline.fault = &injector;
    eopts.restore.fallback.mode = FallbackMode::kVanillaColdStart;
    auto degraded = MedusaEngine::coldStartFromImage(eopts, *image);
    ASSERT_TRUE(degraded.isOk()) << degraded.status().toString();
    ASSERT_TRUE((*degraded)->coldStartReport().restore.fallback_vanilla);
    const ColdStartReport &cs = (*degraded)->coldStartReport();
    EXPECT_EQ(cs.outcome, ColdStartOutcome::kFellBack);
    EXPECT_TRUE(cs.hasSpan("restore.rollback"));
    EXPECT_TRUE(cs.hasSpan("fallback.vanilla_cold_start"));

    llm::BaselineEngine::Options bopts;
    bopts.model = eopts.model;
    bopts.strategy = llm::Strategy::kVllm;
    bopts.aslr_seed = kSeed;
    auto baseline = llm::BaselineEngine::coldStart(bopts);
    ASSERT_TRUE(baseline.isOk()) << baseline.status().toString();
    EXPECT_EQ(
        (*degraded)->runtime().process().memory().stateFingerprint(),
        (*baseline)->runtime().process().memory().stateFingerprint());
    EXPECT_EQ(
        (*degraded)->runtime().process().modules().stateFingerprint(),
        (*baseline)->runtime().process().modules().stateFingerprint());
    for (u32 bs : {1u, 4u}) {
        ASSERT_TRUE(
            (*degraded)->runtime().stageValidationState(bs).isOk());
        ASSERT_TRUE(
            (*baseline)->runtime().stageValidationState(bs).isOk());
        auto a = (*degraded)->runtime().eagerDecodeLogits(bs);
        auto b = (*baseline)->runtime().eagerDecodeLogits(bs);
        ASSERT_TRUE(a.isOk());
        ASSERT_TRUE(b.isOk());
        EXPECT_EQ(*a, *b) << "bs=" << bs; // bit-identical
    }
}

TEST(RollbackTest, TornPatchRetryRestoresWithFullFidelity)
{
    // The patch tears once, the attempt rolls back, and the retry's
    // clean patch pass must land on exactly the state a never-faulted
    // patch restore produces — fingerprints and decoded logits.
    auto plan = FaultPlan::fromSpec("image_patch@1x1");
    ASSERT_TRUE(plan.isOk());
    FaultInjector injector(*plan);
    auto image = core::MaterializedImage::openView(
        std::span<const u8>(tinyImageBytes()));
    ASSERT_TRUE(image.isOk());

    constexpr u64 kSeed = 6262;
    MedusaEngine::Options eopts;
    eopts.model = tinyModel();
    eopts.aslr_seed = kSeed;
    eopts.restore.pipeline.fault = &injector;
    eopts.restore.fallback.mode = FallbackMode::kRetryThenVanilla;
    auto retried = MedusaEngine::coldStartFromImage(eopts, *image);
    ASSERT_TRUE(retried.isOk()) << retried.status().toString();
    EXPECT_FALSE((*retried)->coldStartReport().restore.fallback_vanilla);
    EXPECT_EQ((*retried)->coldStartReport().restore.restore_failures, 1u);
    EXPECT_GT((*retried)->coldStartReport().restore.relocations_applied, 0u);

    MedusaEngine::Options clean_opts;
    clean_opts.model = tinyModel();
    clean_opts.aslr_seed = kSeed;
    auto clean = MedusaEngine::coldStartFromImage(clean_opts, *image);
    ASSERT_TRUE(clean.isOk());
    // Logical fingerprint: the retried clock is ahead by the wasted
    // attempt and backoff, which is not a fidelity difference.
    EXPECT_EQ(
        (*retried)->runtime().process().logicalStateFingerprint(),
        (*clean)->runtime().process().logicalStateFingerprint());
    EXPECT_EQ((*retried)->runtime().allocator().stateFingerprint(),
              (*clean)->runtime().allocator().stateFingerprint());
    ASSERT_TRUE((*retried)->runtime().stageValidationState(1).isOk());
    ASSERT_TRUE((*clean)->runtime().stageValidationState(1).isOk());
    auto a = (*retried)->runtime().graphDecodeLogits(1);
    auto b = (*clean)->runtime().graphDecodeLogits(1);
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    EXPECT_EQ(*a, *b);
}

// ---- leaked-graph regression (failed instantiation batches) -------------

TEST(RollbackTest, FailedInstantiationBatchLeaksNoSlots)
{
    llm::ModelRuntime::Options opts;
    opts.model = tinyModel();
    opts.aslr_seed = 7;
    llm::ModelRuntime rt(opts);
    ASSERT_TRUE(rt.initStructure().isOk());
    ASSERT_TRUE(rt.loadWeights().isOk());
    ASSERT_TRUE(rt.loadTokenizer().isOk());
    auto free_bytes = rt.profileFreeMemory();
    ASSERT_TRUE(free_bytes.isOk());
    ASSERT_TRUE(rt.initKvCache(*free_bytes).isOk());
    ASSERT_TRUE(rt.warmupDecode(1).isOk());
    auto graph = rt.captureDecode(1);
    ASSERT_TRUE(graph.isOk());

    // Flatten the captured graph into the patched arrays the image
    // restore instantiates from (its live addresses need no patching).
    std::vector<KernelAddr> node_fn;
    std::vector<u32> param_begin = {0};
    std::vector<u64> param_bits;
    std::vector<u8> param_len;
    std::vector<TimingInfo> timing;
    for (const simcuda::GraphNode &node : graph->nodes()) {
        node_fn.push_back(node.fn);
        for (const std::vector<u8> &bytes : node.params) {
            const simcuda::ParamBlob blob = simcuda::makeParamBlob(bytes);
            param_bits.push_back(blob.bits);
            param_len.push_back(blob.len);
        }
        param_begin.push_back(static_cast<u32>(param_bits.size()));
        timing.push_back(node.timing);
    }
    auto order = graph->topoOrder();
    ASSERT_TRUE(order.isOk());
    simcuda::GpuProcess::PatchedGraphDesc desc;
    desc.node_fn = node_fn;
    desc.param_begin = param_begin;
    desc.param_bits = param_bits;
    desc.param_len = param_len;
    desc.timing = timing;
    desc.order = *order;
    desc.edges = graph->edges();

    // The fault fires on the SECOND instantiation: the first slot is
    // registered, then the batch fails and must unregister it.
    auto plan = FaultPlan::fromSpec("instantiate@2");
    ASSERT_TRUE(plan.isOk());
    FaultInjector injector(*plan);
    const std::vector<std::pair<u32, simcuda::GpuProcess::PatchedGraphDesc>>
        ordered = {{1, desc}, {2, desc}};
    const Status st = rt.instantiatePatchedGraphs(ordered, &injector);
    ASSERT_FALSE(st.isOk());
    EXPECT_EQ(st.code(), StatusCode::kFaultInjected);
    EXPECT_FALSE(rt.hasGraph(1));
    EXPECT_FALSE(rt.hasGraph(2));
    EXPECT_EQ(rt.graphCount(), 0u);

    // The same batch succeeds afterwards: nothing was left behind.
    ASSERT_TRUE(rt.instantiatePatchedGraphs(ordered, nullptr).isOk());
    EXPECT_TRUE(rt.hasGraph(1));
    EXPECT_TRUE(rt.hasGraph(2));
}

// ---- tensor-parallel coherence ------------------------------------------

const core::TpOfflineResult &
tpOffline()
{
    static const core::TpOfflineResult result = []() {
        llm::ModelConfig m = findModel("Llama2-7B").value();
        m.num_layers = 3;
        core::TpOfflineOptions opts;
        opts.model = m;
        opts.world = 2;
        opts.batch_sizes = {1, 8};
        auto r = core::materializeTp(opts);
        EXPECT_TRUE(r.isOk()) << r.status().toString();
        return std::move(r).value();
    }();
    return result;
}

const std::vector<core::MaterializedImage> &
tpImages()
{
    static const std::vector<core::MaterializedImage> images =
        core::openRankImages(tpOffline().rank_images).value();
    return images;
}

TEST(RollbackTest, TpRetryRollsBackEveryRankCoherently)
{
    auto plan = FaultPlan::fromSpec("tp_rank@2x1");
    ASSERT_TRUE(plan.isOk());
    FaultInjector injector(*plan);

    llm::ModelConfig m = findModel("Llama2-7B").value();
    m.num_layers = 3;
    core::TpMedusaEngine::Options opts;
    opts.model = m;
    opts.world = 2;
    opts.aslr_seed = 808;
    opts.restore.pipeline.validate = true;
    opts.restore.pipeline.validate_batch_sizes = {1};
    opts.restore.pipeline.fault = &injector;
    opts.restore.fallback.mode = FallbackMode::kRetryThenVanilla;
    opts.restore.fallback.max_attempts = 2;
    auto engine = core::TpMedusaEngine::coldStartFromImages(opts, tpImages());
    ASSERT_TRUE(engine.isOk()) << engine.status().toString();

    // The rank-1 fault rolled BOTH ranks back; the retry restored the
    // whole cluster, and every rank carries the same accounting.
    for (u32 r = 0; r < 2; ++r) {
        const RestoreReport &report = (*engine)->rankRestoreReports()[r];
        EXPECT_EQ(report.restore_attempts, 2u) << "rank " << r;
        EXPECT_EQ(report.restore_failures, 1u) << "rank " << r;
        EXPECT_EQ(report.retries, 1u) << "rank " << r;
        EXPECT_FALSE(report.fallback_vanilla) << "rank " << r;
        EXPECT_GT(report.wasted_restore_sec, 0.0) << "rank " << r;
        EXPECT_EQ(report.graphs_restored, 2u) << "rank " << r;
        EXPECT_TRUE(report.validated) << "rank " << r;
    }

    // Consolidated report: shared attempt accounting appears once,
    // per-rank counters are summed, and the outcome names the retry.
    const ColdStartReport &cs = (*engine)->coldStartReport();
    EXPECT_EQ(cs.outcome, ColdStartOutcome::kRestoredAfterRetry);
    EXPECT_EQ(cs.restore.restore_attempts, 2u);
    EXPECT_EQ(cs.restore.restore_failures, 1u);
    EXPECT_EQ(cs.restore.graphs_restored, 4u); // 2 graphs x 2 ranks
    EXPECT_EQ(cs.metrics.counterValue("tp.ranks"), 2u);
    EXPECT_TRUE(cs.hasSpan("tp.rank_restore"));
    EXPECT_DOUBLE_EQ(cs.times.loading, (*engine)->coldStartReport().loadingSec());
}

TEST(RollbackTest, TpFallbackDegradesAllRanksTogether)
{
    auto plan = FaultPlan::fromSpec("tp_lockstep");
    ASSERT_TRUE(plan.isOk());
    FaultInjector injector(*plan);

    llm::ModelConfig m = findModel("Llama2-7B").value();
    m.num_layers = 3;
    core::TpMedusaEngine::Options opts;
    opts.model = m;
    opts.world = 2;
    opts.aslr_seed = 909;
    opts.restore.pipeline.validate = true; // lockstep faults fire here
    opts.restore.pipeline.validate_batch_sizes = {1};
    opts.restore.pipeline.fault = &injector;
    opts.restore.fallback.mode = FallbackMode::kVanillaColdStart;
    auto engine = core::TpMedusaEngine::coldStartFromImages(opts, tpImages());
    ASSERT_TRUE(engine.isOk()) << engine.status().toString();

    for (u32 r = 0; r < 2; ++r) {
        const RestoreReport &report = (*engine)->rankRestoreReports()[r];
        EXPECT_TRUE(report.fallback_vanilla) << "rank " << r;
        EXPECT_EQ(report.restore_attempts, 1u) << "rank " << r;
        EXPECT_EQ(report.restore_failures, 1u) << "rank " << r;
    }

    // The degraded cluster captured its own graphs and still decodes
    // in lockstep.
    llm::TpCluster &cluster = (*engine)->cluster();
    EXPECT_GT(cluster.rank(0).graphCount(), 0u);
    EXPECT_GT(cluster.rank(1).graphCount(), 0u);
    ASSERT_TRUE(cluster.stageValidationState(1).isOk());
    auto logits = cluster.lockstepDecodeLogits(1);
    EXPECT_TRUE(logits.isOk()) << logits.status().toString();

    const ColdStartReport &cs = (*engine)->coldStartReport();
    EXPECT_EQ(cs.outcome, ColdStartOutcome::kFellBack);
    EXPECT_TRUE(cs.restore.fallback_vanilla);
    EXPECT_TRUE(cs.hasSpan("fallback.vanilla_cold_start"));
    EXPECT_EQ(cs.metrics.counterValue("restore.fallback_vanilla"), 1u);
}

// ---- consolidated-report plumbing (clean restore) -----------------------

TEST(RollbackTest, ColdStartReportCarriesSpansAndMergesUserSinks)
{
    TraceRecorder sink;
    MetricsRegistry registry;

    MedusaEngine::Options eopts;
    eopts.model = tinyModel();
    eopts.restore.pipeline.trace = &sink;
    eopts.restore.pipeline.metrics = &registry;
    auto engine = MedusaEngine::coldStartFromImage(eopts, tinyImage());
    ASSERT_TRUE(engine.isOk()) << engine.status().toString();

    const ColdStartReport &cs = (*engine)->coldStartReport();
    EXPECT_EQ(cs.outcome, ColdStartOutcome::kRestored);
    EXPECT_TRUE(cs.status.isOk());
    EXPECT_EQ(cs.strategy, llm::strategyName(llm::Strategy::kMedusa));

    // The stage spans reproduce the hand-kept StageTimes (this is what
    // lets the figure benches derive their numbers from spans).
    for (const char *stage : {"cold_start.struct_init",
                              "cold_start.tokenizer",
                              "cold_start.kv_init",
                              "cold_start.weights",
                              "cold_start.capture"}) {
        EXPECT_TRUE(cs.hasSpan(stage)) << stage;
    }
    EXPECT_DOUBLE_EQ(cs.spanSec("cold_start.weights"),
                     cs.times.weights);
    EXPECT_DOUBLE_EQ(cs.spanSec("cold_start.capture"),
                     cs.times.capture);
    EXPECT_TRUE(cs.hasSpan("restore.replay_alloc_seq"));
    EXPECT_TRUE(cs.hasSpan("restore.rebind"));
    EXPECT_EQ(cs.metrics.counterValue("restore.attempts"), 1u);
    EXPECT_EQ(cs.metrics.counterValue("restore.graphs"),
              cs.restore.graphs_restored);

    // User-supplied sinks received the same spans and counters.
    EXPECT_EQ(sink.eventCount(), cs.spans.size());
    EXPECT_EQ(registry.snapshot().counterValue("restore.attempts"), 1u);

    // Deprecated views stay coherent with the consolidated report.
    EXPECT_DOUBLE_EQ((*engine)->coldStartReport().times.loading, cs.times.loading);
    EXPECT_EQ((*engine)->coldStartReport().restore.graphs_restored,
              cs.restore.graphs_restored);
}

} // namespace
} // namespace medusa
