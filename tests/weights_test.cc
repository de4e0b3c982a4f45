/**
 * @file
 * Tests of stage ❶/❷: tensor inventory per architecture, deterministic
 * allocation order (the control-flow determinism Medusa relies on),
 * role wiring, cross-process weight-content determinism, and the
 * process-wide synthetic store that loads copy from.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <latch>
#include <thread>

#include "common/rng.h"
#include "llm/weights.h"

namespace medusa::llm {
namespace {

ModelConfig
tiny(ModelArch arch)
{
    ModelConfig m = findModel(arch == ModelArch::kFalcon ? "Falcon-7B"
                              : arch == ModelArch::kQwen
                                  ? "Qwen1.5-0.5B"
                                  : "Llama2-7B")
                        .value();
    m.num_layers = 3;
    return m;
}

struct Harness
{
    explicit Harness(u64 seed = 1)
        : process(opts(seed), &clock, &cost), alloc(&process, seed)
    {
    }

    static simcuda::GpuProcessOptions
    opts(u64 seed)
    {
        simcuda::GpuProcessOptions o;
        o.aslr_seed = seed;
        return o;
    }

    SimClock clock;
    CostModel cost;
    simcuda::GpuProcess process;
    simcuda::CachingAllocator alloc;
};

/**
 * Test-side reference for tensor @p index: one xoshiro256** draw per
 * element of the full tensor through its content kind's formula, then
 * this rank's shard picked out element by element.
 */
std::vector<f32>
referenceTensor(const ModelConfig &m, const TensorSpec &spec,
                std::size_t index)
{
    const ShardSpec *sh = spec.shard ? &*spec.shard : nullptr;
    std::vector<f32> full(sh ? sh->full_rows * sh->full_cols
                             : spec.func_elems);
    Rng rng(m.seed * 0x10001ull + index * 7919ull);
    const f32 scale =
        1.0f / std::sqrt(static_cast<f32>(spec.func_fan_in));
    for (f32 &v : full) {
        const f32 u = rng.nextSymmetricFloat();
        switch (spec.content) {
          case TensorContent::kMatrix: v = u * scale; break;
          case TensorContent::kNormWeight: v = 1.0f + 0.05f * u; break;
          case TensorContent::kBias: v = 0.01f * u; break;
          case TensorContent::kEmbedding: v = 0.5f * u; break;
        }
    }
    if (sh == nullptr) {
        return full;
    }
    std::vector<f32> shard;
    for (const auto &[row_begin, row_end] : sh->row_ranges) {
        for (u64 row = row_begin; row < row_end; ++row) {
            for (u64 col = sh->col_begin; col < sh->col_end; ++col) {
                shard.push_back(full[row * sh->full_cols + col]);
            }
        }
    }
    return shard;
}

/** Bitwise equality of every loaded tensor with its reference. */
void
expectLoadedEqualsReference(Harness &h, const ModelConfig &m,
                            const ModelWeights &w)
{
    for (std::size_t i = 0; i < w.specs.size(); ++i) {
        const std::vector<f32> want = referenceTensor(m, w.specs[i], i);
        ASSERT_EQ(want.size(), w.specs[i].func_elems) << w.specs[i].name;
        std::vector<f32> got(want.size());
        ASSERT_TRUE(h.process.memory()
                        .read(w.addrs[i], got.data(), got.size() * 4)
                        .isOk());
        EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * 4), 0)
            << m.name << " rank " << m.tp_rank << "/" << m.tp_world
            << " " << w.specs[i].name;
    }
}

TEST(WeightsTest, SpecCountsPerArch)
{
    // llama: embed + 3 * 6 + final + lm_head = 21
    EXPECT_EQ(buildTensorSpecs(tiny(ModelArch::kLlama)).size(), 21u);
    // qwen adds qkv bias: embed + 3 * 7 + final + lm_head = 24
    EXPECT_EQ(buildTensorSpecs(tiny(ModelArch::kQwen)).size(), 24u);
    // falcon: embed + 3 * 6 + final(w+b) + lm_head = 22
    EXPECT_EQ(buildTensorSpecs(tiny(ModelArch::kFalcon)).size(), 22u);
}

TEST(WeightsTest, SpecsAreDeterministic)
{
    const auto a = buildTensorSpecs(tiny(ModelArch::kQwen));
    const auto b = buildTensorSpecs(tiny(ModelArch::kQwen));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].logical_bytes, b[i].logical_bytes);
        EXPECT_EQ(a[i].func_elems, b[i].func_elems);
    }
}

TEST(WeightsTest, StructureInitWiresAllRoles)
{
    Harness h;
    const ModelConfig m = tiny(ModelArch::kLlama);
    auto weights = initModelStructure(h.alloc, m);
    ASSERT_TRUE(weights.isOk());
    EXPECT_NE(weights->embed, 0u);
    EXPECT_NE(weights->final_norm, 0u);
    EXPECT_NE(weights->lm_head, 0u);
    EXPECT_EQ(weights->final_norm_bias, 0u); // llama has no final bias
    ASSERT_EQ(weights->layers.size(), 3u);
    for (const LayerWeights &lw : weights->layers) {
        EXPECT_NE(lw.input_norm, 0u);
        EXPECT_NE(lw.qkv_w, 0u);
        EXPECT_EQ(lw.qkv_b, 0u); // llama has no qkv bias
        EXPECT_NE(lw.o_proj, 0u);
        EXPECT_NE(lw.post_norm, 0u);
        EXPECT_NE(lw.gate_up, 0u);
        EXPECT_NE(lw.down, 0u);
        EXPECT_EQ(lw.mlp_up, 0u);
    }
    EXPECT_EQ(weights->tensorCount(), 21u);
    EXPECT_GT(weights->total_logical_bytes, units::GiB / 2);
}

TEST(WeightsTest, FalconWiring)
{
    Harness h;
    auto weights = initModelStructure(h.alloc, tiny(ModelArch::kFalcon));
    ASSERT_TRUE(weights.isOk());
    EXPECT_NE(weights->final_norm_bias, 0u);
    for (const LayerWeights &lw : weights->layers) {
        EXPECT_NE(lw.input_norm_bias, 0u);
        EXPECT_NE(lw.mlp_up, 0u);
        EXPECT_NE(lw.mlp_down, 0u);
        EXPECT_EQ(lw.gate_up, 0u);
        EXPECT_EQ(lw.post_norm, 0u);
    }
}

TEST(WeightsTest, AllocationOrderDeterministicWithinProcess)
{
    // The control flow allocates each layer's tensors in order: this
    // is the determinism Medusa's indirect-index analysis exploits.
    Harness h1(1), h2(1);
    const ModelConfig m = tiny(ModelArch::kQwen);
    auto w1 = initModelStructure(h1.alloc, m);
    auto w2 = initModelStructure(h2.alloc, m);
    ASSERT_TRUE(w1.isOk() && w2.isOk());
    EXPECT_EQ(w1->addrs, w2->addrs); // same seed: identical layout
}

TEST(WeightsTest, AddressesDifferAcrossProcessLaunches)
{
    Harness h1(1), h2(2);
    const ModelConfig m = tiny(ModelArch::kQwen);
    auto w1 = initModelStructure(h1.alloc, m);
    auto w2 = initModelStructure(h2.alloc, m);
    ASSERT_TRUE(w1.isOk() && w2.isOk());
    EXPECT_NE(w1->embed, w2->embed);
    EXPECT_NE(w1->layers[0].qkv_w, w2->layers[0].qkv_w);
}

TEST(WeightsTest, ContentsDeterministicAcrossProcesses)
{
    // Weights are "files on disk": both processes must see identical
    // contents, or Medusa's output validation could never be bit-exact.
    const ModelConfig m = tiny(ModelArch::kLlama);
    Harness h1(1), h2(99);
    auto w1 = initModelStructure(h1.alloc, m);
    auto w2 = initModelStructure(h2.alloc, m);
    ASSERT_TRUE(loadModelWeights(h1.process, m, *w1).isOk());
    ASSERT_TRUE(loadModelWeights(h2.process, m, *w2).isOk());
    for (std::size_t i = 0; i < w1->specs.size(); ++i) {
        const u64 n = w1->specs[i].func_elems;
        std::vector<f32> c1(n), c2(n);
        ASSERT_TRUE(h1.process.memory()
                        .read(w1->addrs[i], c1.data(), n * 4)
                        .isOk());
        ASSERT_TRUE(h2.process.memory()
                        .read(w2->addrs[i], c2.data(), n * 4)
                        .isOk());
        EXPECT_EQ(c1, c2) << w1->specs[i].name;
    }
}

TEST(WeightsTest, NormWeightsNearOne)
{
    const ModelConfig m = tiny(ModelArch::kLlama);
    Harness h;
    auto w = initModelStructure(h.alloc, m);
    ASSERT_TRUE(loadModelWeights(h.process, m, *w).isOk());
    std::vector<f32> norm(m.func.hidden);
    ASSERT_TRUE(h.process.memory()
                    .read(w->layers[0].input_norm, norm.data(),
                          norm.size() * 4)
                    .isOk());
    for (f32 v : norm) {
        EXPECT_GT(v, 0.9f);
        EXPECT_LT(v, 1.1f);
    }
}

TEST(WeightsTest, LoadingChargesSsdTime)
{
    const ModelConfig m = tiny(ModelArch::kLlama);
    Harness h;
    auto w = initModelStructure(h.alloc, m);
    const SimTimeNs before = h.clock.now();
    ASSERT_TRUE(loadModelWeights(h.process, m, *w).isOk());
    const f64 expected_sec =
        static_cast<f64>(w->total_logical_bytes) /
        (h.cost.ssd_read_gbps * 1e9);
    EXPECT_NEAR(units::nsToSec(h.clock.now() - before), expected_sec,
                expected_sec * 0.1);
}

TEST(WeightsTest, ChargeOnlyLoadChargesLikeALoadWithContents)
{
    // A process whose contents are discarded loads no weight bytes, but
    // its clock and journal move exactly as a twin's that loads them;
    // every tensor is tainted there, so a read refuses.
    for (ModelArch arch :
         {ModelArch::kLlama, ModelArch::kQwen, ModelArch::kFalcon}) {
        const ModelConfig m = tiny(arch);
        Harness charged;
        Harness loaded;
        charged.process.discardContents();
        auto cw = initModelStructure(charged.alloc, m);
        auto lw = initModelStructure(loaded.alloc, m);
        ASSERT_TRUE(cw.isOk() && lw.isOk());
        charged.process.beginJournal();
        loaded.process.beginJournal();
        ASSERT_TRUE(loadModelWeights(charged.process, m, *cw).isOk());
        ASSERT_TRUE(loadModelWeights(loaded.process, m, *lw).isOk());
        EXPECT_EQ(charged.clock.now(), loaded.clock.now());
        EXPECT_EQ(charged.process.journal().h2d_copies,
                  loaded.process.journal().h2d_copies);
        EXPECT_EQ(charged.process.journal().h2d_copies, cw->tensorCount());

        for (std::size_t i = 0; i < cw->addrs.size(); ++i) {
            const auto *c = charged.process.memory().findContaining(
                cw->addrs[i]);
            const auto *l = loaded.process.memory().findContaining(
                lw->addrs[i]);
            ASSERT_NE(c, nullptr);
            ASSERT_NE(l, nullptr);
            EXPECT_TRUE(c->tainted) << cw->specs[i].name;
            EXPECT_FALSE(l->tainted) << lw->specs[i].name;
        }
        f32 word = 0.0f;
        EXPECT_EQ(charged.process.memcpyD2H(&word, cw->embed, 4, 4).code(),
                  StatusCode::kFailedPrecondition);
        EXPECT_TRUE(loaded.process.memcpyD2H(&word, lw->embed, 4, 4).isOk());
    }
}

TEST(WeightsTest, LoadsEqualTheReferenceOnAStoreMissAndHit)
{
    // Each (architecture, world) loads a seed no other test loads, so
    // its first load synthesizes every tensor and the second copies
    // them from the store; ranks after the first gather their shards
    // from full tensors rank 0 stored.
    u64 seed = 0x57011000;
    for (ModelArch arch :
         {ModelArch::kLlama, ModelArch::kQwen, ModelArch::kFalcon}) {
        for (u32 world : {1u, 2u, 4u}) {
            ModelConfig m = tiny(arch);
            m.seed = ++seed;
            m.heads = 64; // Falcon's 71 real heads do not shard
            m.tp_world = world;
            for (int pass = 0; pass < 2; ++pass) {
                for (u32 rank = 0; rank < world; ++rank) {
                    m.tp_rank = rank;
                    Harness h;
                    auto w = initModelStructure(h.alloc, m);
                    ASSERT_TRUE(w.isOk());
                    ASSERT_TRUE(loadModelWeights(h.process, m, *w).isOk());
                    expectLoadedEqualsReference(h, m, *w);
                }
            }
        }
    }
}

TEST(WeightsTest, ConcurrentFirstLoadsSeeIdenticalBytes)
{
    // Two processes load a model nobody has loaded before at the same
    // moment: both miss, both synthesize, one insert wins, and each
    // must copy the same bytes.
    ModelConfig m = tiny(ModelArch::kQwen);
    m.seed = 0x57012000;
    Harness h1(1), h2(2);
    auto w1 = initModelStructure(h1.alloc, m);
    auto w2 = initModelStructure(h2.alloc, m);
    ASSERT_TRUE(w1.isOk() && w2.isOk());
    std::latch start(2);
    Status s1, s2;
    std::thread t1([&] {
        start.arrive_and_wait();
        s1 = loadModelWeights(h1.process, m, *w1);
    });
    std::thread t2([&] {
        start.arrive_and_wait();
        s2 = loadModelWeights(h2.process, m, *w2);
    });
    t1.join();
    t2.join();
    ASSERT_TRUE(s1.isOk() && s2.isOk());
    expectLoadedEqualsReference(h1, m, *w1);
    expectLoadedEqualsReference(h2, m, *w2);
}

} // namespace
} // namespace medusa::llm
