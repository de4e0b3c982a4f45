/**
 * @file
 * Functional correctness of the simulated kernels against small
 * hand-computed or brute-force references. These are the kernels whose
 * outputs Medusa's validation compares, so their math must be solid.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "llm/runtime.h"
#include "simcuda/gpu_process.h"
#include "simcuda/kernels/builtin.h"

namespace medusa::simcuda {
namespace {

class KernelsTest : public ::testing::Test
{
  protected:
    KernelsTest() : process_(GpuProcessOptions{}, &clock_, &cost_) {}

    DeviceAddr
    floats(const std::vector<f32> &values)
    {
        auto addr =
            process_.memory().malloc(std::max<u64>(values.size(), 1) * 4,
                                     std::max<u64>(values.size(), 1) * 4);
        MEDUSA_CHECK(addr.isOk(), "alloc");
        if (!values.empty()) {
            MEDUSA_CHECK(process_.memory()
                             .write(*addr, values.data(),
                                    values.size() * 4)
                             .isOk(),
                         "write");
        }
        return *addr;
    }

    DeviceAddr
    ints(const std::vector<i32> &values)
    {
        auto addr =
            process_.memory().malloc(std::max<u64>(values.size(), 1) * 4,
                                     std::max<u64>(values.size(), 1) * 4);
        MEDUSA_CHECK(addr.isOk(), "alloc");
        if (!values.empty()) {
            MEDUSA_CHECK(process_.memory()
                             .write(*addr, values.data(),
                                    values.size() * 4)
                             .isOk(),
                         "write");
        }
        return *addr;
    }

    std::vector<f32>
    readF(DeviceAddr addr, std::size_t n)
    {
        std::vector<f32> out(n);
        MEDUSA_CHECK(
            process_.memory().read(addr, out.data(), n * 4).isOk(),
            "read");
        return out;
    }

    std::vector<i32>
    readI(DeviceAddr addr, std::size_t n)
    {
        std::vector<i32> out(n);
        MEDUSA_CHECK(
            process_.memory().read(addr, out.data(), n * 4).isOk(),
            "read");
        return out;
    }

    Status
    launch(KernelId id, ParamView params)
    {
        return process_.defaultStream().launch(id, params, TimingInfo{});
    }

    SimClock clock_;
    CostModel cost_;
    GpuProcess process_;
    const BuiltinKernels &k_ = BuiltinKernels::get();
};

TEST_F(KernelsTest, EmbeddingLookupGathersRows)
{
    // vocab=3, hidden=2
    const DeviceAddr w = floats({10, 11, 20, 21, 30, 31});
    const DeviceAddr ids = ints({2, 0});
    const DeviceAddr out = floats({0, 0, 0, 0});
    ParamsBuilder pb;
    pb.ptr(w).ptr(ids).ptr(out).i32(2).i32(2).i32(3);
    ASSERT_TRUE(launch(k_.embedding_lookup, pb.view()).isOk());
    EXPECT_EQ(readF(out, 4), (std::vector<f32>{30, 31, 10, 11}));
}

TEST_F(KernelsTest, RmsNormMatchesReference)
{
    const std::vector<f32> x = {1, 2, 3, 4};
    const DeviceAddr in = floats(x);
    const DeviceAddr w = floats({1, 1, 2, 0.5f});
    const DeviceAddr out = floats({0, 0, 0, 0});
    ParamsBuilder pb;
    pb.ptr(in).ptr(w).ptr(out).i32(1).i32(4).f32(1e-5f);
    ASSERT_TRUE(launch(k_.rmsnorm, pb.view()).isOk());
    f32 ss = 0;
    for (f32 v : x) {
        ss += v * v;
    }
    const f32 inv = 1.0f / std::sqrt(ss / 4 + 1e-5f);
    const auto got = readF(out, 4);
    EXPECT_FLOAT_EQ(got[0], 1 * inv * 1);
    EXPECT_FLOAT_EQ(got[2], 3 * inv * 2);
    EXPECT_FLOAT_EQ(got[3], 4 * inv * 0.5f);
}

TEST_F(KernelsTest, LayerNormMatchesReference)
{
    const DeviceAddr in = floats({1, 3});
    const DeviceAddr w = floats({2, 2});
    const DeviceAddr b = floats({0.5f, -0.5f});
    const DeviceAddr out = floats({0, 0});
    ParamsBuilder pb;
    pb.ptr(in).ptr(w).ptr(b).ptr(out).i32(1).i32(2).f32(0.0f);
    ASSERT_TRUE(launch(k_.layernorm, pb.view()).isOk());
    // mean 2, var 1 -> normalized {-1, 1}
    const auto got = readF(out, 2);
    EXPECT_NEAR(got[0], -2 + 0.5f, 1e-5);
    EXPECT_NEAR(got[1], 2 - 0.5f, 1e-5);
}

TEST_F(KernelsTest, GemmMatchesManual)
{
    // C[1x2] = A[1x3] * W[2x3]^T
    const DeviceAddr a = floats({1, 2, 3});
    const DeviceAddr w = floats({1, 0, 1, /*row1*/ 2, 1, 0});
    const DeviceAddr c = floats({0, 0});
    ParamsBuilder pb;
    pb.ptr(a).ptr(w).ptr(c).i32(1).i32(2).i32(3);
    ASSERT_TRUE(launch(k_.gemm_128x128, pb.view()).isOk());
    EXPECT_EQ(readF(c, 2), (std::vector<f32>{4, 4}));
}

TEST_F(KernelsTest, GemmVariantsAgree)
{
    const DeviceAddr a = floats({0.5f, -1, 2, 0.25f});
    const DeviceAddr w = floats({1, 2, 3, 4, 5, 6, 7, 8});
    const DeviceAddr c1 = floats({0, 0, 0, 0});
    const DeviceAddr c2 = floats({0, 0, 0, 0});
    ParamsBuilder p1;
    p1.ptr(a).ptr(w).ptr(c1).i32(2).i32(2).i32(2);
    ASSERT_TRUE(launch(k_.gemm_128x128, p1.view()).isOk());
    ParamsBuilder p2;
    p2.ptr(a).ptr(w).ptr(c2).i32(2).i32(2).i32(2);
    ASSERT_TRUE(launch(k_.gemm_64x64, p2.view()).isOk());
    EXPECT_EQ(readF(c1, 4), readF(c2, 4));
}

TEST_F(KernelsTest, SplitKGemmRequiresMagicSemaphores)
{
    const u32 magic = kGemmWorkspaceMagic;
    const DeviceAddr sem_good = floats({0});
    ASSERT_TRUE(process_.memory()
                    .write(sem_good, &magic, sizeof(magic))
                    .isOk());
    const DeviceAddr sem_bad = floats({0}); // zeroed: corrupt
    const DeviceAddr a = floats({1, 1});
    const DeviceAddr w = floats({1, 1});
    const DeviceAddr c = floats({0});

    ParamsBuilder ok;
    ok.ptr(sem_good).ptr(sem_good).ptr(a).ptr(w).ptr(c).i32(1).i32(1)
        .i32(2);
    EXPECT_TRUE(launch(k_.gemm_splitk, ok.view()).isOk());
    EXPECT_EQ(readF(c, 1), (std::vector<f32>{2}));

    ParamsBuilder bad;
    bad.ptr(sem_good).ptr(sem_bad).ptr(a).ptr(w).ptr(c).i32(1).i32(1)
        .i32(2);
    // A permanent buffer whose contents were not restored fails loudly
    // (this is what makes §4.3 content restoration functionally
    // necessary).
    EXPECT_FALSE(launch(k_.gemm_splitk, bad.view()).isOk());
}

// ---- bitwise GEMM --------------------------------------------------------

/**
 * The arithmetic contract of every GEMM kernel, written the obvious way:
 * one serial f32 chain per output. The kernels must match it bit for bit.
 */
std::vector<f32>
naiveMatmul(const std::vector<f32> &a, const std::vector<f32> &w, u64 n,
            u64 out, u64 k)
{
    std::vector<f32> c(n * out);
    for (u64 t = 0; t < n; ++t) {
        for (u64 o = 0; o < out; ++o) {
            f32 acc = 0.0f;
            for (u64 d = 0; d < k; ++d) {
                acc += a[t * k + d] * w[o * k + d];
            }
            c[t * out + o] = acc;
        }
    }
    return c;
}

/**
 * Operands mixing ordinary values over a wide exponent range with
 * -0.0, denormals, ±Inf and NaN, so rounding, underflow and special
 * propagation all take part. The only NaN used is the one x86 itself
 * produces (Inf - Inf), so IEEE 754's freedom in which NaN operand's
 * payload survives cannot tell two correct orderings apart.
 */
std::vector<f32>
gemmOperand(Rng &rng, u64 count)
{
    constexpr f32 kInf = std::numeric_limits<f32>::infinity();
    const f32 specials[] = {-0.0f, 0.0f, 1e-40f, -3e-39f,
                            std::numeric_limits<f32>::denorm_min(),
                            kInf, -kInf, kInf - kInf};
    std::vector<f32> v(count);
    for (f32 &x : v) {
        const u64 r = rng.nextU64();
        if (r % 23 == 0) {
            x = specials[(r >> 8) % std::size(specials)];
        } else {
            // Magnitudes 2^-17..2^12 make sums lose bits to rounding;
            // one value in seven is scaled by 2^-120, so its products
            // land in the denormal range.
            const int exp = static_cast<int>((r >> 16) % 30) - 17;
            x = std::ldexp(rng.nextSymmetricFloat(), exp);
            if (r % 7 == 0) {
                x = std::ldexp(x, -120);
            }
        }
    }
    return v;
}

bool
sameBits(const std::vector<f32> &x, const std::vector<f32> &y)
{
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(f32)) == 0;
}

constexpr u64 kGemmRows[] = {1, 2, 3, 4, 5, 7, 9, 256};
/**
 * Ragged around every tile width: 8 columns (4 lanes), 16 (8 lanes)
 * and 32 (16 lanes), and past two 32-column tiles.
 */
constexpr u64 kGemmOuts[] = {1,  7,  8,  9,  15, 16, 17,
                             31, 32, 33, 65, 96, 256};
constexpr u64 kGemmDepths[] = {1, 3, 32, 64};

/**
 * Every compiled matmulF32 variant the host can run, not only the one
 * it dispatches to, against the naive loop. Variants the CPU lacks are
 * recorded as a test property and turn the test into a skip (after
 * the supported ones passed), so a host that cannot check them says
 * so.
 */
TEST(MatmulTest, BitIdenticalToNaiveLoopOnRaggedShapes)
{
    std::string checked;
    std::string skipped;
    for (const auto &variant : detail::matmulVariants()) {
        std::string &list = variant.host_supported ? checked : skipped;
        list += std::string(list.empty() ? "" : ",") + variant.name;
        if (!variant.host_supported) {
            continue;
        }
        Rng rng(12);
        u64 nonfinite = 0;
        u64 subnormal = 0;
        for (u64 n : kGemmRows) {
            for (u64 out : kGemmOuts) {
                for (u64 k : kGemmDepths) {
                    const auto a = gemmOperand(rng, n * k);
                    const auto w = gemmOperand(rng, out * k);
                    const auto want = naiveMatmul(a, w, n, out, k);
                    std::vector<f32> got(n * out, 42.0f);
                    variant.fn(a.data(), w.data(), got.data(), n, out, k);
                    ASSERT_TRUE(sameBits(want, got))
                        << variant.name << " n=" << n << " out=" << out
                        << " k=" << k;
                    for (f32 x : got) {
                        nonfinite += std::isfinite(x) ? 0 : 1;
                        subnormal += std::fpclassify(x) == FP_SUBNORMAL;
                    }
                }
            }
        }
        // The special inputs really reached the outputs, and denormal
        // results were produced (no flush-to-zero anywhere).
        EXPECT_GT(nonfinite, 0u) << variant.name;
        EXPECT_GT(subnormal, 0u) << variant.name;
    }
    RecordProperty("checked_variants", checked);
    RecordProperty("skipped_variants", skipped);
    EXPECT_FALSE(checked.empty());
    if (!skipped.empty()) {
        GTEST_SKIP() << "checked " << checked << "; this CPU cannot run "
                     << skipped;
    }
}

TEST_F(KernelsTest, AllGemmKernelsBitIdenticalToNaiveLoop)
{
    const u32 magic = kGemmWorkspaceMagic;
    const DeviceAddr sem = floats({0});
    ASSERT_TRUE(
        process_.memory().write(sem, &magic, sizeof(magic)).isOk());
    Rng rng(34);
    for (u64 n : kGemmRows) {
        for (u64 out : kGemmOuts) {
            for (u64 k : kGemmDepths) {
                const auto av = gemmOperand(rng, n * k);
                const auto wv = gemmOperand(rng, out * k);
                const auto want = naiveMatmul(av, wv, n, out, k);
                const DeviceAddr a = floats(av);
                const DeviceAddr w = floats(wv);
                const DeviceAddr c = floats(std::vector<f32>(n * out));
                const i32 dims[] = {static_cast<i32>(n),
                                    static_cast<i32>(out),
                                    static_cast<i32>(k)};
                for (KernelId id : {k_.gemm_128x128, k_.gemm_64x64,
                                    k_.gemm_lmhead}) {
                    ParamsBuilder pb;
                    pb.ptr(a).ptr(w).ptr(c).i32(dims[0]).i32(dims[1])
                        .i32(dims[2]);
                    ASSERT_TRUE(launch(id, pb.view()).isOk());
                    ASSERT_TRUE(sameBits(want, readF(c, n * out)))
                        << "kernel " << id << " n=" << n
                        << " out=" << out << " k=" << k;
                    ASSERT_TRUE(process_.memory().memset(c, 0, n * out * 4)
                                    .isOk());
                }

                ParamsBuilder split;
                split.ptr(sem).ptr(sem).ptr(a).ptr(w).ptr(c).i32(dims[0])
                    .i32(dims[1]).i32(dims[2]);
                ASSERT_TRUE(launch(k_.gemm_splitk, split.view()).isOk());
                ASSERT_TRUE(sameBits(want, readF(c, n * out)))
                    << "splitk n=" << n << " out=" << out << " k=" << k;
                ASSERT_TRUE(
                    process_.memory().memset(c, 0, n * out * 4).isOk());

                const u64 operands[] = {a, w, c};
                auto ptrs = process_.memory().malloc(sizeof(operands),
                                                     sizeof(operands));
                ASSERT_TRUE(ptrs.isOk());
                ASSERT_TRUE(process_.memory()
                                .write(*ptrs, operands, sizeof(operands))
                                .isOk());
                ParamsBuilder batched;
                batched.ptr(*ptrs).i32(dims[0]).i32(dims[1]).i32(dims[2]);
                ASSERT_TRUE(
                    launch(k_.gemm_batched, batched.view()).isOk());
                ASSERT_TRUE(sameBits(want, readF(c, n * out)))
                    << "batched n=" << n << " out=" << out << " k=" << k;

                for (DeviceAddr buf : {a, w, c, *ptrs}) {
                    ASSERT_TRUE(process_.memory().free(buf).isOk());
                }
            }
        }
    }
}

TEST_F(KernelsTest, GemmRejectsNegativeDims)
{
    const DeviceAddr a = floats({1, 2, 3, 4});
    const DeviceAddr w = floats({1, 2, 3, 4});
    const DeviceAddr c = floats({0, 0, 0, 0});
    for (const auto &dims : {std::vector<i32>{-1, 2, 2},
                             std::vector<i32>{2, -1, 2},
                             std::vector<i32>{2, 2, -1}}) {
        ParamsBuilder pb;
        pb.ptr(a).ptr(w).ptr(c).i32(dims[0]).i32(dims[1]).i32(dims[2]);
        EXPECT_FALSE(launch(k_.gemm_64x64, pb.view()).isOk());
    }
    // Empty operands bound no depth: a huge k with no rows is a no-op,
    // not a panel allocation sized by k.
    ParamsBuilder empty;
    empty.ptr(a).ptr(w).ptr(c).i32(0).i32(0)
        .i32(std::numeric_limits<i32>::max());
    EXPECT_TRUE(launch(k_.gemm_64x64, empty.view()).isOk());
}

TEST_F(KernelsTest, BiasAddAndResidualAdd)
{
    const DeviceAddr x = floats({1, 2, 3, 4});
    const DeviceAddr b = floats({10, 20});
    ParamsBuilder pb;
    pb.ptr(x).ptr(b).i32(2).i32(2);
    ASSERT_TRUE(launch(k_.bias_add, pb.view()).isOk());
    EXPECT_EQ(readF(x, 4), (std::vector<f32>{11, 22, 13, 24}));

    const DeviceAddr r = floats({1, 1, 1, 1});
    ParamsBuilder pr;
    pr.ptr(x).ptr(r).i32(4);
    ASSERT_TRUE(launch(k_.residual_add, pr.view()).isOk());
    EXPECT_EQ(readF(x, 4), (std::vector<f32>{12, 23, 14, 25}));
}

TEST_F(KernelsTest, SiluMulMatchesReference)
{
    // n=1, inter=2: input packs [gate0 gate1 | up0 up1]
    const DeviceAddr gu = floats({1, -1, 2, 3});
    const DeviceAddr out = floats({0, 0});
    ParamsBuilder pb;
    pb.ptr(gu).ptr(out).i32(1).i32(2);
    ASSERT_TRUE(launch(k_.silu_mul, pb.view()).isOk());
    auto silu = [](f32 v) { return v / (1 + std::exp(-v)); };
    const auto got = readF(out, 2);
    EXPECT_NEAR(got[0], silu(1) * 2, 1e-6);
    EXPECT_NEAR(got[1], silu(-1) * 3, 1e-6);
}

TEST_F(KernelsTest, GeluIsMonotoneAndMatchesTanhApprox)
{
    const DeviceAddr in = floats({-2, 0, 2});
    const DeviceAddr out = floats({0, 0, 0});
    ParamsBuilder pb;
    pb.ptr(in).ptr(out).i32(3);
    ASSERT_TRUE(launch(k_.gelu, pb.view()).isOk());
    const auto got = readF(out, 3);
    EXPECT_NEAR(got[1], 0.0f, 1e-6);
    EXPECT_LT(got[0], got[1]);
    EXPECT_LT(got[1], got[2]);
    EXPECT_NEAR(got[2], 1.9546f, 1e-3);
}

TEST_F(KernelsTest, SampleArgmaxPicksMaxPerRow)
{
    const DeviceAddr logits = floats({0.1f, 0.9f, 0.5f, /*row1*/ 7, 1, 2});
    const DeviceAddr ids = ints({0, 0});
    ParamsBuilder pb;
    pb.ptr(logits).ptr(ids).i32(2).i32(3);
    ASSERT_TRUE(launch(k_.sample_argmax, pb.view()).isOk());
    EXPECT_EQ(readI(ids, 2), (std::vector<i32>{1, 0}));
}

TEST_F(KernelsTest, RopePreservesPairNorms)
{
    // One token, one head, head_dim 4, contiguous stride.
    const DeviceAddr q = floats({1, 2, 3, 4});
    const DeviceAddr k = floats({0.5f, 0, 0, 0.5f});
    const DeviceAddr pos = ints({3});
    ParamsBuilder pb;
    pb.ptr(q).ptr(k).ptr(pos).i32(1).i32(1).i32(1).i32(4).i32(4).i32(4)
        .f32(10000.0f);
    ASSERT_TRUE(launch(k_.rope, pb.view()).isOk());
    const auto got = readF(q, 4);
    // Rotation preserves the norm of each (d, d+half) pair.
    EXPECT_NEAR(got[0] * got[0] + got[2] * got[2], 1 + 9, 1e-4);
    EXPECT_NEAR(got[1] * got[1] + got[3] * got[3], 4 + 16, 1e-4);
    // Position 0 would be identity; position 3 is not.
    EXPECT_GT(std::abs(got[0] - 1.0f), 1e-3);
}

TEST_F(KernelsTest, RopeAtPositionZeroIsIdentity)
{
    const DeviceAddr q = floats({1, 2, 3, 4});
    const DeviceAddr k = floats({5, 6, 7, 8});
    const DeviceAddr pos = ints({0});
    ParamsBuilder pb;
    pb.ptr(q).ptr(k).ptr(pos).i32(1).i32(1).i32(1).i32(4).i32(4).i32(4)
        .f32(10000.0f);
    ASSERT_TRUE(launch(k_.rope, pb.view()).isOk());
    EXPECT_EQ(readF(q, 4), (std::vector<f32>{1, 2, 3, 4}));
    EXPECT_EQ(readF(k, 4), (std::vector<f32>{5, 6, 7, 8}));
}

TEST_F(KernelsTest, KvWriteScattersToSlots)
{
    // 2 tokens, kvh=1, hd=2, fused stride 6 (e.g. q=2, k=2, v=2).
    const DeviceAddr fused = floats({/*t0*/ 0, 0, 10, 11, 20, 21,
                                     /*t1*/ 0, 0, 12, 13, 22, 23});
    const DeviceAddr kc = floats(std::vector<f32>(16, 0));
    const DeviceAddr vc = floats(std::vector<f32>(16, 0));
    const DeviceAddr slots = ints({3, 1});
    ParamsBuilder pb;
    pb.ptr(fused + 2 * 4) // k section
        .ptr(fused + 4 * 4) // v section
        .ptr(kc)
        .ptr(vc)
        .ptr(slots)
        .i32(2)
        .i32(1)
        .i32(2)
        .i32(6);
    ASSERT_TRUE(launch(k_.kv_write, pb.view()).isOk());
    const auto kcache = readF(kc, 16);
    EXPECT_FLOAT_EQ(kcache[3 * 2 + 0], 10);
    EXPECT_FLOAT_EQ(kcache[3 * 2 + 1], 11);
    EXPECT_FLOAT_EQ(kcache[1 * 2 + 0], 12);
    const auto vcache = readF(vc, 16);
    EXPECT_FLOAT_EQ(vcache[3 * 2 + 0], 20);
    EXPECT_FLOAT_EQ(vcache[1 * 2 + 1], 23);
}

/**
 * rope as specified, one element at a time: freq, cos and sin are
 * evaluated afresh for every (token, head, d).
 */
void
naiveRope(std::vector<f32> &buf, u64 q_off, u64 k_off,
          const std::vector<i32> &pos, i32 qh, i32 kvh, i32 hd,
          i32 stride, f32 theta)
{
    const i32 half = hd / 2;
    auto rotate = [&](u64 off, i32 heads) {
        for (std::size_t t = 0; t < pos.size(); ++t) {
            for (i32 head = 0; head < heads; ++head) {
                f32 *v = buf.data() + off + t * stride +
                         static_cast<u64>(head) * hd;
                for (i32 d = 0; d < half; ++d) {
                    const f32 freq = std::pow(
                        theta, -2.0f * static_cast<f32>(d) /
                                   static_cast<f32>(hd));
                    const f32 angle = static_cast<f32>(pos[t]) * freq;
                    const f32 c = std::cos(angle);
                    const f32 s = std::sin(angle);
                    const f32 x = v[d];
                    const f32 y = v[half + d];
                    v[d] = x * c - y * s;
                    v[half + d] = x * s + y * c;
                }
            }
        }
    };
    rotate(q_off, qh);
    rotate(k_off, kvh);
}

std::vector<f32>
randomFloats(Rng &rng, std::size_t count)
{
    std::vector<f32> v(count);
    for (f32 &x : v) {
        x = std::ldexp(rng.nextSymmetricFloat(),
                       static_cast<int>(rng.nextBounded(16)) - 8);
    }
    return v;
}

/** The zoo's attention layouts: MHA, GQA and MQA. */
constexpr std::pair<i32, i32> kHeadLayouts[] = {{4, 4}, {4, 2}, {4, 1}};
constexpr i32 kRopeTokens[] = {1, 3, 64, 256};
/** Odd and even head_dim; the odd one leaves its last dim unrotated. */
constexpr i32 kHeadDims[] = {5, 8};
/** Row padding past the fused [q | k | v] row. */
constexpr i32 kRowPads[] = {0, 3};
/** The zoo's functional max_seq. */
constexpr i32 kMaxSeq = 64;

TEST_F(KernelsTest, RopeBitIdenticalToPerElementLoop)
{
    Rng rng(56);
    for (i32 n : kRopeTokens) {
        for (const auto &[qh, kvh] : kHeadLayouts) {
            for (i32 hd : kHeadDims) {
                for (i32 pad : kRowPads) {
                    const i32 stride = (qh + 2 * kvh) * hd + pad;
                    auto want = randomFloats(
                        rng, static_cast<std::size_t>(n) * stride);
                    std::vector<i32> pos(static_cast<std::size_t>(n));
                    for (i32 &p : pos) {
                        p = static_cast<i32>(rng.nextBounded(kMaxSeq + 1));
                    }
                    pos.back() = kMaxSeq;
                    const DeviceAddr fused = floats(want);
                    const DeviceAddr pos_buf = ints(pos);
                    const u64 k_off = static_cast<u64>(qh) * hd;
                    ParamsBuilder pb;
                    pb.ptr(fused).ptr(fused + k_off * 4).ptr(pos_buf)
                        .i32(n).i32(qh).i32(kvh).i32(hd).i32(stride)
                        .i32(stride).f32(10000.0f);
                    ASSERT_TRUE(launch(k_.rope, pb.view()).isOk());
                    naiveRope(want, 0, k_off, pos, qh, kvh, hd, stride,
                              10000.0f);
                    ASSERT_TRUE(sameBits(want, readF(fused, want.size())))
                        << "n=" << n << " qh=" << qh << " kvh=" << kvh
                        << " hd=" << hd << " stride=" << stride;
                    ASSERT_TRUE(process_.memory().free(fused).isOk());
                    ASSERT_TRUE(process_.memory().free(pos_buf).isOk());
                }
            }
        }
    }
}

TEST_F(KernelsTest, KvWriteBitIdenticalToPerElementLoop)
{
    Rng rng(78);
    for (i32 n : kRopeTokens) {
        for (const auto &[qh, kvh] : kHeadLayouts) {
            for (i32 hd : kHeadDims) {
                for (i32 pad : kRowPads) {
                    const i32 stride = (qh + 2 * kvh) * hd + pad;
                    const u64 width = static_cast<u64>(kvh) * hd;
                    const auto rows = randomFloats(
                        rng, static_cast<std::size_t>(n) * stride);
                    // Distinct slots out of a cache with spare room;
                    // the last slot of the cache is always written.
                    const u64 cache_slots = static_cast<u64>(n) + 7;
                    std::vector<i32> order(cache_slots);
                    for (u64 i = 0; i < cache_slots; ++i) {
                        order[i] = static_cast<i32>(i);
                    }
                    for (u64 i = cache_slots - 1; i > 0; --i) {
                        std::swap(order[i], order[rng.nextBounded(i + 1)]);
                    }
                    std::swap(order[n - 1],
                              *std::find(order.begin(), order.end(),
                                         static_cast<i32>(cache_slots - 1)));
                    std::vector<i32> slots(order.begin(), order.begin() + n);
                    auto want_k = randomFloats(rng, cache_slots * width);
                    auto want_v = randomFloats(rng, cache_slots * width);
                    const DeviceAddr fused = floats(rows);
                    const DeviceAddr kc = floats(want_k);
                    const DeviceAddr vc = floats(want_v);
                    const DeviceAddr slot_buf = ints(slots);
                    const u64 k_off = static_cast<u64>(qh) * hd;
                    const u64 v_off = k_off + width;
                    ParamsBuilder pb;
                    pb.ptr(fused + k_off * 4).ptr(fused + v_off * 4)
                        .ptr(kc).ptr(vc).ptr(slot_buf).i32(n).i32(kvh)
                        .i32(hd).i32(stride);
                    ASSERT_TRUE(launch(k_.kv_write, pb.view()).isOk());
                    for (i32 t = 0; t < n; ++t) {
                        for (u64 i = 0; i < width; ++i) {
                            const u64 src =
                                static_cast<u64>(t) * stride + i;
                            const u64 dst = slots[t] * width + i;
                            want_k[dst] = rows[k_off + src];
                            want_v[dst] = rows[v_off + src];
                        }
                    }
                    ASSERT_TRUE(sameBits(want_k, readF(kc, want_k.size())))
                        << "n=" << n << " kvh=" << kvh << " hd=" << hd
                        << " stride=" << stride;
                    ASSERT_TRUE(sameBits(want_v, readF(vc, want_v.size())))
                        << "n=" << n << " kvh=" << kvh << " hd=" << hd
                        << " stride=" << stride;
                    for (DeviceAddr buf : {fused, kc, vc, slot_buf}) {
                        ASSERT_TRUE(process_.memory().free(buf).isOk());
                    }
                }
            }
        }
    }
}

// ---- scalar oracles for the interleaved kernels ------------------------

/**
 * One (query, head) attention as specified: every dot, the softmax
 * and every weighted sum is one serial loop, one output at a time.
 * key(j) and value(j) are the head's K and V rows.
 */
template <typename KeyRow, typename ValueRow>
void
naiveAttendHead(const f32 *q, i32 hd, i32 ctx, f32 scale, KeyRow key,
                ValueRow value, f32 *out)
{
    std::vector<f32> scores(static_cast<std::size_t>(ctx));
    f32 max_s = -std::numeric_limits<f32>::infinity();
    for (i32 j = 0; j < ctx; ++j) {
        f32 dot = 0;
        for (i32 d = 0; d < hd; ++d) {
            dot += q[d] * key(j)[d];
        }
        scores[j] = dot * scale;
        max_s = std::max(max_s, scores[j]);
    }
    f32 denom = 0;
    for (i32 j = 0; j < ctx; ++j) {
        scores[j] = std::exp(scores[j] - max_s);
        denom += scores[j];
    }
    for (i32 d = 0; d < hd; ++d) {
        f32 acc = 0;
        for (i32 j = 0; j < ctx; ++j) {
            const f32 w = scores[j] / denom;
            acc += w * value(j)[d];
        }
        out[d] = acc;
    }
}

/**
 * Attention operands: moderate values whose softmax weights are spread
 * out, or gemmOperand's mix of -0.0, denormals, ±Inf and NaN.
 */
std::vector<f32>
attentionOperand(Rng &rng, std::size_t count, bool special)
{
    return special ? gemmOperand(rng, count) : randomFloats(rng, count);
}

/**
 * Head dims giving one partial, one full, and a full plus a partial
 * block of eight d-chains.
 */
constexpr i32 kAttnHeadDims[] = {5, 8, 12};

/**
 * Sequence lengths 17, 0, 8 and 9 give every context length 1..17,
 * so the last block of eight key chains holds ctx % 8 = 0, 1 and 7
 * keys.
 */
const std::vector<i32> kPrefillStarts = {0, 17, 17, 25, 34};

TEST_F(KernelsTest, AttentionPrefillBitIdenticalToSerialLoop)
{
    Rng rng(90);
    const i32 total = kPrefillStarts.back();
    const i32 bs = static_cast<i32>(kPrefillStarts.size()) - 1;
    const f32 scale = 0.3f;
    for (bool special : {false, true}) {
        for (const auto &[qh, kvh] : kHeadLayouts) {
            for (i32 hd : kAttnHeadDims) {
                for (i32 pad : kRowPads) {
                    const i32 stride = (qh + 2 * kvh) * hd + pad;
                    const u64 k_off = static_cast<u64>(qh) * hd;
                    const u64 v_off = k_off + static_cast<u64>(kvh) * hd;
                    const auto rows = attentionOperand(
                        rng, static_cast<std::size_t>(total) * stride,
                        special);
                    std::vector<f32> want(static_cast<std::size_t>(total) *
                                          qh * hd);
                    for (i32 b = 0; b < bs; ++b) {
                        const i32 s0 = kPrefillStarts[b];
                        for (i32 t = s0; t < kPrefillStarts[b + 1]; ++t) {
                            for (i32 head = 0; head < qh; ++head) {
                                const u64 kv =
                                    static_cast<u64>(head * kvh / qh) * hd;
                                const auto row = [&](u64 off, i32 j) {
                                    return rows.data() +
                                           static_cast<u64>(s0 + j) *
                                               stride +
                                           off + kv;
                                };
                                naiveAttendHead(
                                    rows.data() +
                                        static_cast<u64>(t) * stride +
                                        static_cast<u64>(head) * hd,
                                    hd, t - s0 + 1, scale,
                                    [&](i32 j) { return row(k_off, j); },
                                    [&](i32 j) { return row(v_off, j); },
                                    want.data() +
                                        (static_cast<u64>(t) * qh + head) *
                                            hd);
                            }
                        }
                    }
                    const DeviceAddr fused = floats(rows);
                    const DeviceAddr starts = ints(kPrefillStarts);
                    const DeviceAddr out = floats(
                        std::vector<f32>(want.size(), 42.0f));
                    ParamsBuilder pb;
                    pb.ptr(fused).ptr(fused + k_off * 4)
                        .ptr(fused + v_off * 4).ptr(starts).ptr(out)
                        .i32(bs).i32(qh).i32(kvh).i32(hd).i32(stride)
                        .f32(scale);
                    ASSERT_TRUE(
                        launch(k_.attention_prefill, pb.view()).isOk());
                    ASSERT_TRUE(sameBits(want, readF(out, want.size())))
                        << "special=" << special << " qh=" << qh
                        << " kvh=" << kvh << " hd=" << hd
                        << " stride=" << stride;
                    for (DeviceAddr buf : {fused, starts, out}) {
                        ASSERT_TRUE(process_.memory().free(buf).isOk());
                    }
                }
            }
        }
    }
}

TEST_F(KernelsTest, PagedAttentionDecodeBitIdenticalToSerialLoop)
{
    Rng rng(91);
    // ctx % 8 = 1, -, 7, 0, 1, 1; the empty sequence is a padding row.
    const std::vector<i32> lens = {1, 0, 7, 8, 9, 17};
    const i32 bs = static_cast<i32>(lens.size());
    const i32 block_size = 4;
    const i32 max_blocks = 5;
    const f32 scale = 0.3f;
    // Every sequence gets max_blocks blocks of a shuffled cache, so its
    // slots are neither contiguous nor in order.
    const i32 cache_blocks = bs * max_blocks;
    std::vector<i32> tables(static_cast<std::size_t>(cache_blocks));
    for (i32 i = 0; i < cache_blocks; ++i) {
        tables[i] = i;
    }
    for (i32 i = cache_blocks - 1; i > 0; --i) {
        std::swap(tables[i], tables[rng.nextBounded(i + 1)]);
    }
    const u64 cache_slots = static_cast<u64>(cache_blocks) * block_size;
    for (bool special : {false, true}) {
        for (const auto &[qh, kvh] : kHeadLayouts) {
            for (i32 hd : kAttnHeadDims) {
                for (i32 pad : kRowPads) {
                    const i32 q_stride = qh * hd + pad;
                    const u64 width = static_cast<u64>(kvh) * hd;
                    const auto q = attentionOperand(
                        rng, static_cast<std::size_t>(bs) * q_stride,
                        special);
                    const auto kc =
                        attentionOperand(rng, cache_slots * width, special);
                    const auto vc =
                        attentionOperand(rng, cache_slots * width, special);
                    std::vector<f32> want(static_cast<std::size_t>(bs) * qh *
                                          hd);
                    for (i32 b = 0; b < bs; ++b) {
                        for (i32 head = 0; head < qh; ++head) {
                            const u64 kv =
                                static_cast<u64>(head * kvh / qh) * hd;
                            const auto row = [&](const std::vector<f32> &c,
                                                 i32 t) {
                                const u64 slot =
                                    static_cast<u64>(
                                        tables[b * max_blocks +
                                               t / block_size]) *
                                        block_size +
                                    t % block_size;
                                return c.data() + slot * width + kv;
                            };
                            naiveAttendHead(
                                q.data() + static_cast<u64>(b) * q_stride +
                                    static_cast<u64>(head) * hd,
                                hd, lens[b], scale,
                                [&](i32 t) { return row(kc, t); },
                                [&](i32 t) { return row(vc, t); },
                                want.data() +
                                    (static_cast<u64>(b) * qh + head) * hd);
                        }
                    }
                    const DeviceAddr q_buf = floats(q);
                    const DeviceAddr k_buf = floats(kc);
                    const DeviceAddr v_buf = floats(vc);
                    const DeviceAddr table_buf = ints(tables);
                    const DeviceAddr len_buf = ints(lens);
                    const DeviceAddr out = floats(
                        std::vector<f32>(want.size(), 42.0f));
                    ParamsBuilder pb;
                    pb.ptr(q_buf).ptr(k_buf).ptr(v_buf).ptr(table_buf)
                        .ptr(len_buf).ptr(out).i32(bs).i32(qh).i32(kvh)
                        .i32(hd).i32(block_size).i32(max_blocks)
                        .i32(q_stride)
                        .i64(static_cast<i64>(0x7fabull << 32))
                        .f32(scale);
                    ASSERT_TRUE(launch(k_.paged_attention_decode, pb.view())
                                    .isOk());
                    ASSERT_TRUE(sameBits(want, readF(out, want.size())))
                        << "special=" << special << " qh=" << qh
                        << " kvh=" << kvh << " hd=" << hd
                        << " q_stride=" << q_stride;
                    for (DeviceAddr buf :
                         {q_buf, k_buf, v_buf, table_buf, len_buf, out}) {
                        ASSERT_TRUE(process_.memory().free(buf).isOk());
                    }
                }
            }
        }
    }
}

/** rmsnorm as specified: one serial sum per row, one row at a time. */
std::vector<f32>
serialRmsNorm(const std::vector<f32> &in, const std::vector<f32> &weight,
              i32 n, i32 h, f32 eps)
{
    std::vector<f32> want(in.size());
    for (i32 t = 0; t < n; ++t) {
        const f32 *x = in.data() + static_cast<u64>(t) * h;
        f32 ss = 0;
        for (i32 d = 0; d < h; ++d) {
            ss += x[d] * x[d];
        }
        const f32 inv = 1.0f / std::sqrt(ss / static_cast<f32>(h) + eps);
        for (i32 d = 0; d < h; ++d) {
            want[static_cast<u64>(t) * h + d] = x[d] * inv * weight[d];
        }
    }
    return want;
}

/** layernorm as specified: serial mean and variance, row by row. */
std::vector<f32>
serialLayerNorm(const std::vector<f32> &in, const std::vector<f32> &weight,
                const std::vector<f32> &bias, i32 n, i32 h, f32 eps)
{
    std::vector<f32> want(in.size());
    for (i32 t = 0; t < n; ++t) {
        const f32 *x = in.data() + static_cast<u64>(t) * h;
        f32 mean = 0;
        for (i32 d = 0; d < h; ++d) {
            mean += x[d];
        }
        mean /= static_cast<f32>(h);
        f32 var = 0;
        for (i32 d = 0; d < h; ++d) {
            const f32 c = x[d] - mean;
            var += c * c;
        }
        var /= static_cast<f32>(h);
        const f32 inv = 1.0f / std::sqrt(var + eps);
        for (i32 d = 0; d < h; ++d) {
            want[static_cast<u64>(t) * h + d] =
                (x[d] - mean) * inv * weight[d] + bias[d];
        }
    }
    return want;
}

/** Row counts around the eight-row chain blocks, and row widths. */
constexpr i32 kNormRows[] = {1, 7, 8, 9, 17};
constexpr i32 kNormWidths[] = {1, 5, 32};

TEST_F(KernelsTest, RmsNormBitIdenticalToSerialLoop)
{
    Rng rng(92);
    const f32 eps = 1e-5f;
    for (bool special : {false, true}) {
        for (i32 n : kNormRows) {
            for (i32 h : kNormWidths) {
                const auto in = attentionOperand(
                    rng, static_cast<std::size_t>(n) * h, special);
                const auto weight = attentionOperand(
                    rng, static_cast<std::size_t>(h), special);
                const auto want = serialRmsNorm(in, weight, n, h, eps);
                const DeviceAddr in_buf = floats(in);
                const DeviceAddr w_buf = floats(weight);
                const DeviceAddr out =
                    floats(std::vector<f32>(want.size(), 42.0f));
                ParamsBuilder pb;
                pb.ptr(in_buf).ptr(w_buf).ptr(out).i32(n).i32(h).f32(eps);
                ASSERT_TRUE(launch(k_.rmsnorm, pb.view()).isOk());
                ASSERT_TRUE(sameBits(want, readF(out, want.size())))
                    << "special=" << special << " n=" << n << " h=" << h;
                for (DeviceAddr buf : {in_buf, w_buf, out}) {
                    ASSERT_TRUE(process_.memory().free(buf).isOk());
                }
            }
        }
    }
}

TEST_F(KernelsTest, LayerNormBitIdenticalToSerialLoop)
{
    Rng rng(93);
    const f32 eps = 1e-5f;
    for (bool special : {false, true}) {
        for (i32 n : kNormRows) {
            for (i32 h : kNormWidths) {
                const auto in = attentionOperand(
                    rng, static_cast<std::size_t>(n) * h, special);
                const auto weight = attentionOperand(
                    rng, static_cast<std::size_t>(h), special);
                const auto bias = attentionOperand(
                    rng, static_cast<std::size_t>(h), special);
                const auto want =
                    serialLayerNorm(in, weight, bias, n, h, eps);
                const DeviceAddr in_buf = floats(in);
                const DeviceAddr w_buf = floats(weight);
                const DeviceAddr b_buf = floats(bias);
                const DeviceAddr out =
                    floats(std::vector<f32>(want.size(), 42.0f));
                ParamsBuilder pb;
                pb.ptr(in_buf).ptr(w_buf).ptr(b_buf).ptr(out).i32(n).i32(h)
                    .f32(eps);
                ASSERT_TRUE(launch(k_.layernorm, pb.view()).isOk());
                ASSERT_TRUE(sameBits(want, readF(out, want.size())))
                    << "special=" << special << " n=" << n << " h=" << h;
                for (DeviceAddr buf : {in_buf, w_buf, b_buf, out}) {
                    ASSERT_TRUE(process_.memory().free(buf).isOk());
                }
            }
        }
    }
}

// ---- duplicate-row reuse -----------------------------------------------

/** Rows whose ids are equal are bytewise equal; see patternRows. */
struct RowPattern
{
    const char *name;
    std::vector<i32> ids;
};

/**
 * Consecutive runs of distinct ids always differ in parity, which
 * RowDiff::kZeroSign relies on. "runs-of-37" crosses the 4-row GEMM
 * tiles and the 8-row norm chain blocks.
 */
std::vector<RowPattern>
rowPatterns()
{
    std::vector<i32> long_runs(256);
    for (std::size_t t = 0; t < long_runs.size(); ++t) {
        long_runs[t] = static_cast<i32>(t / 37);
    }
    return {
        {"all-equal", std::vector<i32>(9, 0)},
        {"runs", {0, 0, 0, 1, 1, 2, 3, 3, 3, 3, 4}},
        {"alternating", {0, 1, 0, 1, 0, 1, 0}},
        {"last-repeated", {0, 1, 2, 3, 4, 5, 6, 7, 8, 8}},
        {"single", {0}},
        {"runs-of-37", long_runs},
    };
}

/** How the rows of two different ids differ. */
enum class RowDiff
{
    /** Independent random rows. */
    kValues,
    /** One row, with element 0 +0.0 for even ids and -0.0 for odd. */
    kZeroSign,
    /** One row, with element 0 a quiet NaN whose payload is id + 1. */
    kNanPayload,
};
constexpr RowDiff kRowDiffs[] = {RowDiff::kValues, RowDiff::kZeroSign,
                                 RowDiff::kNanPayload};

const char *
rowDiffName(RowDiff diff)
{
    switch (diff) {
    case RowDiff::kValues:
        return "values";
    case RowDiff::kZeroSign:
        return "zero-sign";
    case RowDiff::kNanPayload:
        return "nan-payload";
    }
    return "?";
}

/** ids.size() rows of @p width floats; row t is the row of ids[t]. */
std::vector<f32>
patternRows(Rng &rng, const std::vector<i32> &ids, u64 width, RowDiff diff)
{
    const i32 count = *std::max_element(ids.begin(), ids.end()) + 1;
    std::vector<std::vector<f32>> by_id;
    for (i32 id = 0; id < count; ++id) {
        by_id.push_back(diff == RowDiff::kValues || id == 0
                            ? randomFloats(rng, width)
                            : by_id[0]);
        if (diff == RowDiff::kZeroSign) {
            by_id.back()[0] = id % 2 == 0 ? 0.0f : -0.0f;
        } else if (diff == RowDiff::kNanPayload) {
            by_id.back()[0] =
                std::bit_cast<f32>(0x7fc00000u | static_cast<u32>(id + 1));
        }
    }
    std::vector<f32> rows;
    for (i32 id : ids) {
        rows.insert(rows.end(), by_id[id].begin(), by_id[id].end());
    }
    return rows;
}

/** Rows a duplicate-row kernel computes: one per run of equal ids. */
u64
runCount(const std::vector<i32> &ids)
{
    u64 runs = 0;
    for (std::size_t t = 0; t < ids.size(); ++t) {
        runs += t == 0 || ids[t] != ids[t - 1];
    }
    return runs;
}

/** The row counts matmulDistinctRows hands to recordingMatmul. */
std::vector<u64> g_tile_rows;
/** The variant recordingMatmul forwards to; null records only. */
detail::MatmulFn g_tile_fn = nullptr;

void
recordingMatmul(const f32 *a, const f32 *w, f32 *c, u64 n, u64 out, u64 k)
{
    g_tile_rows.push_back(n);
    if (g_tile_fn != nullptr) {
        g_tile_fn(a, w, c, n, out, k);
    }
}

/**
 * matmulDistinctRows over every variant the host can run: the result
 * equals the naive loop bit for bit, and the tiles see one row per run
 * of equal A rows, so rows that differ only in the sign of a zero or
 * in a NaN payload are computed apart. Unsupported variants turn the
 * test into a recorded skip, as in BitIdenticalToNaiveLoopOnRaggedShapes.
 */
TEST(MatmulTest, DistinctRowsBitIdenticalOnRepeatedRows)
{
    std::string checked;
    std::string skipped;
    for (const auto &variant : detail::matmulVariants()) {
        std::string &list = variant.host_supported ? checked : skipped;
        list += std::string(list.empty() ? "" : ",") + variant.name;
        if (!variant.host_supported) {
            continue;
        }
        g_tile_fn = variant.fn;
        Rng rng(13);
        for (const RowPattern &pattern : rowPatterns()) {
            for (RowDiff diff : kRowDiffs) {
                for (u64 out : {7, 33}) {
                    for (u64 k : {3, 64}) {
                        const u64 n = pattern.ids.size();
                        const auto a = patternRows(rng, pattern.ids, k, diff);
                        const auto w = randomFloats(rng, out * k);
                        const auto want = naiveMatmul(a, w, n, out, k);
                        std::vector<f32> got(n * out, 42.0f);
                        g_tile_rows.clear();
                        detail::matmulDistinctRows(recordingMatmul, a.data(),
                                                   w.data(), got.data(), n,
                                                   out, k);
                        ASSERT_TRUE(sameBits(want, got))
                            << variant.name << " " << pattern.name << " "
                            << rowDiffName(diff) << " out=" << out
                            << " k=" << k;
                        EXPECT_EQ(g_tile_rows,
                                  std::vector<u64>{runCount(pattern.ids)})
                            << variant.name << " " << pattern.name << " "
                            << rowDiffName(diff);
                    }
                }
            }
        }
    }
    g_tile_fn = nullptr;
    RecordProperty("checked_variants", checked);
    RecordProperty("skipped_variants", skipped);
    EXPECT_FALSE(checked.empty());
    if (!skipped.empty()) {
        GTEST_SKIP() << "checked " << checked << "; this CPU cannot run "
                     << skipped;
    }
}

/** A C that overlaps A or W sends every row through the tiles. */
TEST(MatmulTest, DistinctRowsOverlappingOperandsTakePlainPath)
{
    std::vector<f32> buf(64, 1.0f);
    g_tile_fn = nullptr;
    g_tile_rows.clear();
    // Eight equal A rows of k = 4; C is A itself.
    detail::matmulDistinctRows(recordingMatmul, buf.data(), buf.data() + 32,
                               buf.data(), 8, 4, 4);
    // C (8 x 4) ends inside W.
    detail::matmulDistinctRows(recordingMatmul, buf.data(), buf.data() + 32,
                               buf.data() + 16, 8, 4, 4);
    EXPECT_EQ(g_tile_rows, (std::vector<u64>{8, 8}));
}

/**
 * silu_mul as specified, on one buffer holding both operands: gate/up
 * row t at gu_off + 2 * inter * t, output row t at out_off + inter * t,
 * one element at a time, so overlapping layouts see earlier writes.
 */
void
serialSiluMul(std::vector<f32> &buf, u64 gu_off, u64 out_off, i32 n,
              i32 inter)
{
    for (i32 t = 0; t < n; ++t) {
        for (i32 d = 0; d < inter; ++d) {
            const f32 g = buf[gu_off + 2ull * inter * t + d];
            const f32 u = buf[gu_off + 2ull * inter * t + inter + d];
            const f32 silu = g / (1.0f + std::exp(-g));
            buf[out_off + static_cast<u64>(inter) * t + d] = silu * u;
        }
    }
}

TEST_F(KernelsTest, RowKernelsReuseRepeatedRowsBitIdentically)
{
    Rng rng(94);
    const f32 eps = 1e-5f;
    const i32 h = 12;
    const i32 inter = 10;
    for (const RowPattern &pattern : rowPatterns()) {
        for (RowDiff diff : kRowDiffs) {
            const i32 n = static_cast<i32>(pattern.ids.size());
            const auto in = patternRows(rng, pattern.ids, h, diff);
            const auto weight = randomFloats(rng, h);
            const auto bias = randomFloats(rng, h);
            const DeviceAddr in_buf = floats(in);
            const DeviceAddr w_buf = floats(weight);
            const DeviceAddr b_buf = floats(bias);
            const DeviceAddr out = floats(std::vector<f32>(in.size(), 42.0f));

            ParamsBuilder rms;
            rms.ptr(in_buf).ptr(w_buf).ptr(out).i32(n).i32(h).f32(eps);
            ASSERT_TRUE(launch(k_.rmsnorm, rms.view()).isOk());
            EXPECT_TRUE(sameBits(serialRmsNorm(in, weight, n, h, eps),
                                 readF(out, in.size())))
                << "rmsnorm " << pattern.name << " " << rowDiffName(diff);

            ParamsBuilder ln;
            ln.ptr(in_buf).ptr(w_buf).ptr(b_buf).ptr(out).i32(n).i32(h)
                .f32(eps);
            ASSERT_TRUE(launch(k_.layernorm, ln.view()).isOk());
            EXPECT_TRUE(
                sameBits(serialLayerNorm(in, weight, bias, n, h, eps),
                         readF(out, in.size())))
                << "layernorm " << pattern.name << " " << rowDiffName(diff);

            // [gate | up] rows followed by the output rows.
            auto want = patternRows(rng, pattern.ids, 2 * inter, diff);
            const u64 gu_size = want.size();
            want.resize(gu_size + static_cast<u64>(n) * inter, 42.0f);
            const DeviceAddr fused = floats(want);
            ParamsBuilder silu;
            silu.ptr(fused).ptr(fused + gu_size * 4).i32(n).i32(inter);
            ASSERT_TRUE(launch(k_.silu_mul, silu.view()).isOk());
            serialSiluMul(want, 0, gu_size, n, inter);
            EXPECT_TRUE(sameBits(want, readF(fused, want.size())))
                << "silu_mul " << pattern.name << " " << rowDiffName(diff);

            for (DeviceAddr buf : {in_buf, w_buf, b_buf, out, fused}) {
                ASSERT_TRUE(process_.memory().free(buf).isOk());
            }
        }
    }
}

/**
 * rope shares one cos/sin row among consecutive tokens at the same
 * position; every token's q and k rows (all distinct here) are still
 * rotated by themselves.
 */
TEST_F(KernelsTest, RopeReusesRepeatedPositionsBitIdentically)
{
    Rng rng(96);
    const i32 qh = 4;
    const i32 kvh = 2;
    const i32 hd = 8;
    const i32 stride = (qh + 2 * kvh) * hd;
    const u64 k_off = static_cast<u64>(qh) * hd;
    for (const RowPattern &pattern : rowPatterns()) {
        const i32 n = static_cast<i32>(pattern.ids.size());
        auto want = randomFloats(rng, static_cast<std::size_t>(n) * stride);
        const DeviceAddr fused = floats(want);
        const DeviceAddr pos = ints(pattern.ids);
        ParamsBuilder pb;
        pb.ptr(fused).ptr(fused + k_off * 4).ptr(pos).i32(n).i32(qh)
            .i32(kvh).i32(hd).i32(stride).i32(stride).f32(10000.0f);
        ASSERT_TRUE(launch(k_.rope, pb.view()).isOk());
        naiveRope(want, 0, k_off, pattern.ids, qh, kvh, hd, stride,
                  10000.0f);
        EXPECT_TRUE(sameBits(want, readF(fused, want.size())))
            << pattern.name;
        ASSERT_TRUE(process_.memory().free(fused).isOk());
        ASSERT_TRUE(process_.memory().free(pos).isOk());
    }
}

/**
 * An output overlapping its input takes the plain path. With the output
 * one input row past gu, row t's output overwrites row t + 1's gate
 * before that row is read, so the rows' outputs differ although their
 * inputs were equal; copying row 0's output would not match.
 */
TEST_F(KernelsTest, SiluMulOverlappingOutputTakesPlainPath)
{
    const i32 n = 4;
    const i32 inter = 6;
    const u64 in_row = 2 * inter;
    Rng rng(95);
    auto want = patternRows(rng, std::vector<i32>(n, 0), in_row,
                            RowDiff::kValues);
    const DeviceAddr buf = floats(want);
    ParamsBuilder pb;
    pb.ptr(buf).ptr(buf + in_row * 4).i32(n).i32(inter);
    ASSERT_TRUE(launch(k_.silu_mul, pb.view()).isOk());
    serialSiluMul(want, 0, in_row, n, inter);
    EXPECT_TRUE(sameBits(want, readF(buf, want.size())));
    EXPECT_FALSE(std::equal(want.begin() + in_row,
                            want.begin() + in_row + inter,
                            want.begin() + in_row + inter));
}

/**
 * The row-wise and elementwise kernels check their dims before sizing
 * any operand, so a negative dim is a "bad dims" error, never a
 * wrapped span size: silu_mul's n = inter = -2 used to size its spans
 * to 8 and 4 floats and return ok.
 */
TEST_F(KernelsTest, RowKernelsRejectNegativeDims)
{
    const DeviceAddr buf = floats(std::vector<f32>(64, 1.0f));
    struct Case
    {
        const char *name;
        KernelId id;
        int pointers;
        std::vector<i32> dims;
        bool eps;
    };
    const Case cases[] = {
        {"rmsnorm", k_.rmsnorm, 3, {2, 4}, true},
        {"layernorm", k_.layernorm, 4, {2, 4}, true},
        {"bias_add", k_.bias_add, 2, {2, 4}, false},
        {"silu_mul", k_.silu_mul, 2, {2, 4}, false},
        {"gelu", k_.gelu, 2, {8}, false},
        {"residual_add", k_.residual_add, 2, {8}, false},
        {"copy_f32", k_.copy_f32, 2, {8}, false},
        {"sample_argmax", k_.sample_argmax, 2, {2, 4}, false},
    };
    for (const Case &c : cases) {
        auto run = [&](const std::vector<i32> &dims) {
            ParamsBuilder pb;
            for (int p = 0; p < c.pointers; ++p) {
                pb.ptr(buf);
            }
            for (i32 d : dims) {
                pb.i32(d);
            }
            if (c.eps) {
                pb.f32(1e-5f);
            }
            return launch(c.id, pb.view());
        };
        EXPECT_TRUE(run(c.dims).isOk()) << c.name;
        std::vector<std::vector<i32>> bad;
        for (std::size_t i = 0; i < c.dims.size(); ++i) {
            bad.push_back(c.dims);
            bad.back()[i] = -1;
        }
        bad.push_back(std::vector<i32>(c.dims.size(), -2));
        for (const auto &dims : bad) {
            const Status st = run(dims);
            EXPECT_FALSE(st.isOk()) << c.name;
            EXPECT_NE(st.message().find(std::string(c.name) + ": bad dims"),
                      std::string::npos)
                << st.message();
        }
    }
}

/**
 * rope and kv_write resolve their rows once per launch and check each
 * slot against the cache extent, so bad dims, negative strides and
 * out-of-range slots fail with a Status before any access. The caches
 * hold 4 slots here (kvh=1, hd=2, 8 floats); rows are fused
 * [q | k | v] of stride 6.
 */
TEST_F(KernelsTest, RopeAndKvWriteRejectBadDimsAndSlots)
{
    const DeviceAddr fused = floats(std::vector<f32>(12, 1));
    const DeviceAddr kc = floats(std::vector<f32>(8, 0));
    const DeviceAddr vc = floats(std::vector<f32>(8, 0));
    const DeviceAddr small_vc = floats(std::vector<f32>(4, 0));
    auto kv = [&](i32 n, i32 stride, const std::vector<i32> &slots,
                  DeviceAddr v_cache) {
        ParamsBuilder pb;
        pb.ptr(fused + 2 * 4).ptr(fused + 4 * 4).ptr(kc).ptr(v_cache)
            .ptr(ints(slots)).i32(n).i32(1).i32(2).i32(stride);
        return launch(k_.kv_write, pb.view());
    };
    EXPECT_TRUE(kv(2, 6, {3, 1}, vc).isOk());
    EXPECT_TRUE(kv(0, 6, {}, vc).isOk());
    EXPECT_FALSE(kv(-1, 6, {0}, vc).isOk());
    EXPECT_FALSE(kv(2, -6, {0, 1}, vc).isOk());
    // Stride -1: the u64 extent of rows 0..1 would wrap to a small one.
    EXPECT_FALSE(kv(2, -1, {0, 1}, vc).isOk());
    EXPECT_FALSE(kv(2, 6, {0, -1}, vc).isOk());
    // Slot 4 is one past both caches; INT_MAX must not wrap.
    EXPECT_FALSE(kv(2, 6, {0, 4}, vc).isOk());
    EXPECT_FALSE(kv(1, 6, {std::numeric_limits<i32>::max()}, vc).isOk());
    // Slot 2 fits the k cache but not a 2-slot v cache.
    EXPECT_FALSE(kv(1, 6, {2}, small_vc).isOk());
    EXPECT_TRUE(kv(1, 6, {1}, small_vc).isOk());
    // A third row would run past the fused buffer.
    EXPECT_FALSE(kv(3, 6, {0, 1, 2}, vc).isOk());

    const DeviceAddr pos = ints({1, 2});
    auto rope = [&](i32 n, i32 q_stride, i32 k_stride) {
        ParamsBuilder pb;
        pb.ptr(fused).ptr(fused + 2 * 4).ptr(pos).i32(n).i32(1).i32(1)
            .i32(2).i32(q_stride).i32(k_stride).f32(10000.0f);
        return launch(k_.rope, pb.view());
    };
    EXPECT_TRUE(rope(2, 6, 6).isOk());
    EXPECT_TRUE(rope(0, 6, 6).isOk());
    EXPECT_FALSE(rope(-1, 6, 6).isOk());
    EXPECT_FALSE(rope(2, -6, 6).isOk());
    EXPECT_FALSE(rope(2, 6, -6).isOk());
    EXPECT_FALSE(rope(2, -1, 6).isOk());
    EXPECT_FALSE(rope(2, 6, -1).isOk());
    // Row 1 of stride 12 ends past the 12-float buffer.
    EXPECT_FALSE(rope(2, 12, 6).isOk());
    EXPECT_FALSE(rope(2, 6, 12).isOk());
}

TEST_F(KernelsTest, PagedAttentionDecodeMatchesBruteForce)
{
    // bs=1, qh=1, kvh=1, hd=2, block_size=2, seq len 3.
    const i32 hd = 2;
    const std::vector<f32> keys = {1, 0, 0, 1, 1, 1};
    const std::vector<f32> vals = {10, 0, 0, 10, 5, 5};
    // Cache layout [slot, kvh, hd]; seq occupies blocks 2 and 5:
    // slots 4,5 then 10.
    std::vector<f32> kcache(32, 0), vcache(32, 0);
    for (int t = 0; t < 3; ++t) {
        const int slot = t < 2 ? 4 + t : 10;
        for (int d = 0; d < hd; ++d) {
            kcache[slot * hd + d] = keys[t * hd + d];
            vcache[slot * hd + d] = vals[t * hd + d];
        }
    }
    const DeviceAddr kc = floats(kcache);
    const DeviceAddr vc = floats(vcache);
    const DeviceAddr q = floats({2, 1});
    const DeviceAddr tables = ints({2, 5, -1, -1});
    const DeviceAddr lens = ints({3});
    const DeviceAddr out = floats({0, 0});
    const f32 scale = 0.7f;
    ParamsBuilder pb;
    pb.ptr(q).ptr(kc).ptr(vc).ptr(tables).ptr(lens).ptr(out).i32(1).i32(
          1).i32(1).i32(hd).i32(2).i32(4).i32(hd)
        .i64(static_cast<i64>(0x7fabull << 32))
        .f32(scale);
    ASSERT_TRUE(launch(k_.paged_attention_decode, pb.view()).isOk());

    // Brute-force reference.
    std::vector<f32> scores(3);
    f32 max_s = -1e30f;
    for (int t = 0; t < 3; ++t) {
        f32 dot = 0;
        for (int d = 0; d < hd; ++d) {
            dot += (d == 0 ? 2.0f : 1.0f) * keys[t * hd + d];
        }
        scores[t] = dot * scale;
        max_s = std::max(max_s, scores[t]);
    }
    f32 denom = 0;
    for (auto &s : scores) {
        s = std::exp(s - max_s);
        denom += s;
    }
    std::vector<f32> expect(hd, 0);
    for (int t = 0; t < 3; ++t) {
        for (int d = 0; d < hd; ++d) {
            expect[d] += scores[t] / denom * vals[t * hd + d];
        }
    }
    const auto got = readF(out, hd);
    EXPECT_NEAR(got[0], expect[0], 1e-4);
    EXPECT_NEAR(got[1], expect[1], 1e-4);
}

TEST_F(KernelsTest, PagedAttentionZeroLengthEmitsZeros)
{
    const DeviceAddr kc = floats(std::vector<f32>(8, 1));
    const DeviceAddr vc = floats(std::vector<f32>(8, 1));
    const DeviceAddr q = floats({9, 9});
    const DeviceAddr tables = ints({0});
    const DeviceAddr lens = ints({0});
    const DeviceAddr out = floats({7, 7});
    ParamsBuilder pb;
    pb.ptr(q).ptr(kc).ptr(vc).ptr(tables).ptr(lens).ptr(out).i32(1).i32(
          1).i32(1).i32(2).i32(2).i32(1).i32(2)
        .i64(static_cast<i64>(0x7fabull << 32))
        .f32(1.0f);
    ASSERT_TRUE(launch(k_.paged_attention_decode, pb.view()).isOk());
    EXPECT_EQ(readF(out, 2), (std::vector<f32>{0, 0}));
}

TEST_F(KernelsTest, PagedAttentionRejectsCorruptStreamTag)
{
    const DeviceAddr kc = floats(std::vector<f32>(8, 1));
    const DeviceAddr q = floats({1, 1});
    const DeviceAddr tables = ints({0});
    const DeviceAddr lens = ints({1});
    const DeviceAddr out = floats({0, 0});
    ParamsBuilder pb;
    pb.ptr(q).ptr(kc).ptr(kc).ptr(tables).ptr(lens).ptr(out).i32(1).i32(
          1).i32(1).i32(2).i32(2).i32(1).i32(2)
        .i64(0x1234) // wrong prefix: a misrestored "pointer"
        .f32(1.0f);
    EXPECT_FALSE(launch(k_.paged_attention_decode, pb.view()).isOk());
}

TEST_F(KernelsTest, AttentionPrefillIsCausal)
{
    // 1 seq of 2 tokens, qh=kvh=1, hd=1, fused stride 3 [q|k|v].
    const DeviceAddr fused = floats({/*t0*/ 1, 1, 10, /*t1*/ 1, 5, 20});
    const DeviceAddr starts = ints({0, 2});
    const DeviceAddr out = floats({0, 0});
    ParamsBuilder pb;
    pb.ptr(fused)
        .ptr(fused + 4)
        .ptr(fused + 8)
        .ptr(starts)
        .ptr(out)
        .i32(1)
        .i32(1)
        .i32(1)
        .i32(1)
        .i32(3)
        .f32(1.0f);
    ASSERT_TRUE(launch(k_.attention_prefill, pb.view()).isOk());
    const auto got = readF(out, 2);
    // Token 0 attends only to itself -> exactly v0 = 10.
    EXPECT_FLOAT_EQ(got[0], 10);
    // Token 1 attends to both, with key 5 >> 1 it leans to v1 = 20.
    EXPECT_GT(got[1], 15);
    EXPECT_LT(got[1], 20);
}

/**
 * q/k/v are resolved once over rows [0, seq_starts[bs]), so seq_starts
 * that point outside those rows must be rejected before any row is
 * read. The fused buffer holds exactly two rows: under ASan, any read
 * past it would be reported even if the kernel later failed.
 */
TEST_F(KernelsTest, AttentionPrefillRejectsBadSeqStarts)
{
    const DeviceAddr fused = floats({1, 1, 10, 1, 5, 20});
    const DeviceAddr out = floats(std::vector<f32>(8, 0));
    auto prefill = [&](const std::vector<i32> &starts) {
        ParamsBuilder pb;
        pb.ptr(fused)
            .ptr(fused + 4)
            .ptr(fused + 8)
            .ptr(ints(starts))
            .ptr(out)
            .i32(static_cast<i32>(starts.size()) - 1)
            .i32(1)
            .i32(1)
            .i32(1)
            .i32(3)
            .f32(1.0f);
        return launch(k_.attention_prefill, pb.view());
    };
    EXPECT_TRUE(prefill({0, 2}).isOk());
    EXPECT_TRUE(prefill({0, 1, 2}).isOk());
    EXPECT_TRUE(prefill({0, 0, 2}).isOk()); // empty sequence is fine
    // Negative start: rows before the buffer.
    EXPECT_FALSE(prefill({-3, 2}).isOk());
    // Non-monotone: the first sequence would run to row 6 of 2.
    EXPECT_FALSE(prefill({0, 6, 2}).isOk());
    EXPECT_FALSE(prefill({1, 0}).isOk());
    // Bad dims never reach a row.
    ParamsBuilder pb;
    pb.ptr(fused).ptr(fused + 4).ptr(fused + 8).ptr(ints({0, 2})).ptr(out)
        .i32(1).i32(1).i32(1).i32(1).i32(-3).f32(1.0f);
    EXPECT_FALSE(launch(k_.attention_prefill, pb.view()).isOk());
}

/**
 * The k/v caches are resolved once per launch; every slot a block table
 * names is checked against the cache extent first. Each cache holds 4
 * slots here (kvh=1, hd=2, 8 floats).
 */
TEST_F(KernelsTest, PagedAttentionRejectsSlotBeyondCache)
{
    const DeviceAddr kc = floats(std::vector<f32>(8, 1));
    const DeviceAddr vc = floats(std::vector<f32>(8, 1));
    const DeviceAddr small_vc = floats(std::vector<f32>(4, 1));
    const DeviceAddr q = floats({1, 1});
    const DeviceAddr out = floats({0, 0});
    auto decode = [&](DeviceAddr v, const std::vector<i32> &table,
                      i32 len) {
        ParamsBuilder pb;
        pb.ptr(q).ptr(kc).ptr(v).ptr(ints(table)).ptr(ints({len}))
            .ptr(out).i32(1).i32(1).i32(1).i32(2).i32(2)
            .i32(static_cast<i32>(table.size())).i32(2)
            .i64(static_cast<i64>(0x7fabull << 32))
            .f32(1.0f);
        return launch(k_.paged_attention_decode, pb.view());
    };
    EXPECT_TRUE(decode(vc, {1, 0}, 4).isOk()); // slots 2, 3, 0, 1
    // Block 2 maps slots 4-5: past both caches.
    EXPECT_FALSE(decode(vc, {2}, 1).isOk());
    EXPECT_FALSE(decode(vc, {0, 2}, 3).isOk());
    // A huge block id must not wrap the slot arithmetic.
    EXPECT_FALSE(
        decode(vc, {std::numeric_limits<i32>::max()}, 1).isOk());
    // Slot 3 fits the k cache but not a 2-slot v cache.
    EXPECT_FALSE(decode(small_vc, {1}, 2).isOk());
    EXPECT_TRUE(decode(small_vc, {0}, 2).isOk());
}

/**
 * Snapshots, at each eager launch, every buffer the kernel declares
 * kRead or kSemaphore, and checks at the next launch (by then the body
 * has run: the observer fires before it) and at the end that the bytes
 * are unchanged. A skipped body taints only its declared write set, so
 * a body that wrote a buffer declared read-only would leave stale
 * bytes readable on a shape-only process.
 */
class ReadSetChecker : public LaunchObserver
{
  public:
    GpuProcess *process = nullptr;
    /** Kernels whose read sets were checked at least once. */
    std::set<KernelId> checked;

    void
    onKernelLaunch(KernelAddr fn, ParamView params, bool capturing) override
    {
        if (capturing) {
            return;
        }
        verify();
        const KernelId id = process->modules().kernelAt(fn).value();
        const KernelDef &def = KernelRegistry::instance().def(id);
        for (std::size_t i = 0; i < params.size(); ++i) {
            if (def.access[i] != ParamAccess::kRead &&
                def.access[i] != ParamAccess::kSemaphore) {
                continue;
            }
            const DeviceAddr addr = params.at(i).bits;
            const AllocationRecord *rec =
                process->memory().findContaining(addr);
            ASSERT_NE(rec, nullptr) << def.mangled_name << " param " << i;
            Snapshot snap{id, i, rec->base,
                          std::vector<u8>(rec->backing.size())};
            ASSERT_TRUE(process->memory()
                            .read(rec->base, snap.bytes.data(),
                                  snap.bytes.size())
                            .isOk());
            pending_.push_back(std::move(snap));
        }
    }

    /** Compare every pending snapshot with the buffer now. */
    void
    verify()
    {
        for (const Snapshot &snap : pending_) {
            std::vector<u8> now(snap.bytes.size());
            ASSERT_TRUE(
                process->memory().read(snap.base, now.data(), now.size())
                    .isOk());
            EXPECT_TRUE(now == snap.bytes)
                << KernelRegistry::instance().def(snap.kernel).mangled_name
                << " wrote its param " << snap.param
                << ", declared read-only";
            checked.insert(snap.kernel);
        }
        pending_.clear();
    }

  private:
    struct Snapshot
    {
        KernelId kernel;
        std::size_t param;
        DeviceAddr base;
        std::vector<u8> bytes;
    };
    std::vector<Snapshot> pending_;
};

TEST(KernelAccessTest, DeclaredReadSetsMatchTheBodies)
{
    // Every architecture's prefill (the KV-init profiling forwarding)
    // and decode warm-ups, plus the batched-LM-head variant, on a
    // process that computes.
    ReadSetChecker checker;
    for (const char *name : {"Llama2-7B", "Qwen1.5-0.5B", "Falcon-7B"}) {
        llm::ModelConfig m = llm::findModel(name).value();
        m.num_layers = 2;
        m.batched_lm_head = m.arch == llm::ModelArch::kQwen;
        llm::ModelRuntime::Options opts;
        opts.model = m;
        opts.launch_observer = &checker;
        llm::ModelRuntime rt(opts);
        checker.process = &rt.process();
        ASSERT_TRUE(rt.initStructure().isOk());
        ASSERT_TRUE(rt.loadWeights().isOk());
        ASSERT_TRUE(rt.loadTokenizer().isOk());
        auto free_bytes = rt.profileFreeMemory();
        ASSERT_TRUE(free_bytes.isOk()) << free_bytes.status().toString();
        ASSERT_TRUE(rt.initKvCache(*free_bytes).isOk());
        // Both sides of the attention-split threshold (bs 64).
        for (u32 bs : {1u, 8u, 64u, 256u}) {
            ASSERT_TRUE(rt.warmupDecode(bs).isOk()) << name << " bs " << bs;
        }
        ASSERT_TRUE(rt.measureDecodeStepSec(1, false).isOk()); // samples
        checker.verify();
    }

    // Every kernel that declares a read-only buffer ran and was checked,
    // except copy_f32, which no model launches.
    const auto &registry = KernelRegistry::instance();
    for (KernelId id = 0; id < registry.kernelCount(); ++id) {
        const KernelDef &def = registry.def(id);
        if (id == BuiltinKernels::get().copy_f32) {
            continue;
        }
        const bool reads_only =
            std::any_of(def.access.begin(), def.access.end(),
                        [](ParamAccess a) {
                            return a == ParamAccess::kRead ||
                                   a == ParamAccess::kSemaphore;
                        });
        if (reads_only) {
            EXPECT_EQ(checker.checked.count(id), 1u) << def.mangled_name;
        }
    }
}

TEST_F(KernelsTest, WrongParamCountRejected)
{
    ParamsBuilder pb;
    pb.i32(1);
    EXPECT_FALSE(launch(k_.rmsnorm, pb.view()).isOk());
}

TEST_F(KernelsTest, WrongParamSizeRejected)
{
    LaunchParams params;
    params.push({0, 3}); // bogus 3-byte param
    for (int i = 0; i < 5; ++i) {
        params.push({0, 4});
    }
    EXPECT_FALSE(launch(k_.rmsnorm, params.view()).isOk());
}

TEST(KernelRegistryTest, InlineCapacityIsTheWidestSignature)
{
    const KernelRegistry &reg = KernelRegistry::instance();
    std::size_t widest = 0;
    for (KernelId id = 0; id < reg.kernelCount(); ++id) {
        widest = std::max(widest, reg.def(id).params.size());
    }
    EXPECT_EQ(widest, kMaxKernelParams);
    EXPECT_EQ(reg.def(BuiltinKernels::get().paged_attention_decode)
                  .params.size(),
              kMaxKernelParams);
}

TEST(KernelRegistryDeathTest, WiderThanInlineCapacityAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    KernelDef def;
    def.mangled_name = "_Z4widev";
    def.module_name = "libwide.so";
    def.params.assign(kMaxKernelParams + 1, ParamKind::kI32);
    KernelRegistry registry;
    EXPECT_DEATH(registry.registerKernel(def), "inline capacity");

    LaunchParams full;
    for (std::size_t i = 0; i < kMaxKernelParams; ++i) {
        full.push({0, 4});
    }
    EXPECT_DEATH(full.push({0, 4}), "launch params");
}

} // namespace
} // namespace medusa::simcuda
