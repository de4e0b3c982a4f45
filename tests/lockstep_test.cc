/**
 * @file
 * Unit tests of the lockstep multi-GPU replayer: collective semantics
 * (gather-sum-scatter), symmetry checks, and timing barriers.
 */

#include <gtest/gtest.h>

#include "simcuda/caching_allocator.h"
#include "simcuda/kernels/builtin.h"
#include "simcuda/lockstep.h"

namespace medusa::simcuda {
namespace {

struct Rank
{
    explicit Rank(u32 index, CostModel *cost)
        : clock(),
          process(options(index), &clock, cost)
    {
    }

    static GpuProcessOptions
    options(u32 index)
    {
        GpuProcessOptions o;
        o.aslr_seed = 11 + index;
        o.device_index = index;
        return o;
    }

    SimClock clock;
    GpuProcess process;
};

class LockstepTest : public ::testing::Test
{
  protected:
    LockstepTest() : rank0_(0, &cost_), rank1_(1, &cost_) {}

    /** Capture a [copy buf->out, all_reduce(out)] graph on a rank. */
    StatusOr<GraphExec>
    buildGraph(Rank &rank, u32 rank_index, DeviceAddr src,
               DeviceAddr out, i32 count)
    {
        const auto &k = BuiltinKernels::get();
        // Warm both modules.
        ParamsBuilder w1;
        w1.ptr(src).ptr(out).i32(0);
        MEDUSA_RETURN_IF_ERROR(rank.process.defaultStream().launch(
            k.copy_f32, w1.view(), {}));
        ParamsBuilder w2;
        w2.ptr(out).i32(count).i32(static_cast<i32>(rank_index)).i32(2);
        MEDUSA_RETURN_IF_ERROR(rank.process.defaultStream().launch(
            k.all_reduce_sum, w2.view(), {}));

        MEDUSA_RETURN_IF_ERROR(
            rank.process.beginCapture(rank.process.defaultStream()));
        ParamsBuilder pb;
        pb.ptr(src).ptr(out).i32(count);
        Status st = rank.process.defaultStream().launch(k.copy_f32,
                                                        pb.view(), {});
        ParamsBuilder ar;
        ar.ptr(out).i32(count).i32(static_cast<i32>(rank_index)).i32(2);
        if (st.isOk()) {
            st = rank.process.defaultStream().launch(k.all_reduce_sum,
                                                     ar.view(), {});
        }
        auto graph =
            rank.process.endCapture(rank.process.defaultStream());
        if (!st.isOk()) {
            return st;
        }
        return rank.process.instantiate(*graph);
    }

    DeviceAddr
    buffer(Rank &rank, const std::vector<f32> &values)
    {
        auto addr = rank.process.memory().malloc(values.size() * 4,
                                                 values.size() * 4);
        MEDUSA_CHECK(addr.isOk(), "alloc failed");
        MEDUSA_CHECK(rank.process.memory()
                         .write(*addr, values.data(), values.size() * 4)
                         .isOk(),
                     "write failed");
        return *addr;
    }

    std::vector<f32>
    read(Rank &rank, DeviceAddr addr, std::size_t n)
    {
        std::vector<f32> out(n);
        MEDUSA_CHECK(
            rank.process.memory().read(addr, out.data(), n * 4).isOk(),
            "read failed");
        return out;
    }

    CostModel cost_;
    Rank rank0_;
    Rank rank1_;
};

TEST_F(LockstepTest, AllReduceSumsAcrossRanks)
{
    const DeviceAddr src0 = buffer(rank0_, {1, 2, 3, 4});
    const DeviceAddr out0 = buffer(rank0_, {0, 0, 0, 0});
    const DeviceAddr src1 = buffer(rank1_, {10, 20, 30, 40});
    const DeviceAddr out1 = buffer(rank1_, {0, 0, 0, 0});

    auto g0 = buildGraph(rank0_, 0, src0, out0, 4);
    auto g1 = buildGraph(rank1_, 1, src1, out1, 4);
    ASSERT_TRUE(g0.isOk() && g1.isOk());

    ASSERT_TRUE(lockstepLaunch({{&rank0_.process, &*g0},
                                {&rank1_.process, &*g1}})
                    .isOk());
    // Both ranks hold the element-wise sum.
    EXPECT_EQ(read(rank0_, out0, 4),
              (std::vector<f32>{11, 22, 33, 44}));
    EXPECT_EQ(read(rank1_, out1, 4),
              (std::vector<f32>{11, 22, 33, 44}));
}

TEST_F(LockstepTest, RepeatedReplayIsStable)
{
    const DeviceAddr src0 = buffer(rank0_, {1, 1});
    const DeviceAddr out0 = buffer(rank0_, {0, 0});
    const DeviceAddr src1 = buffer(rank1_, {2, 2});
    const DeviceAddr out1 = buffer(rank1_, {0, 0});
    auto g0 = buildGraph(rank0_, 0, src0, out0, 2);
    auto g1 = buildGraph(rank1_, 1, src1, out1, 2);
    ASSERT_TRUE(g0.isOk() && g1.isOk());
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(lockstepLaunch({{&rank0_.process, &*g0},
                                    {&rank1_.process, &*g1}})
                        .isOk());
        EXPECT_EQ(read(rank0_, out0, 2), (std::vector<f32>{3, 3}));
    }
}

TEST_F(LockstepTest, CollectiveAdvancesBothClocks)
{
    const DeviceAddr src0 = buffer(rank0_, {1});
    const DeviceAddr out0 = buffer(rank0_, {0});
    const DeviceAddr src1 = buffer(rank1_, {1});
    const DeviceAddr out1 = buffer(rank1_, {0});
    auto g0 = buildGraph(rank0_, 0, src0, out0, 1);
    auto g1 = buildGraph(rank1_, 1, src1, out1, 1);
    ASSERT_TRUE(g0.isOk() && g1.isOk());
    const SimTimeNs t0 = rank0_.clock.now();
    const SimTimeNs t1 = rank1_.clock.now();
    ASSERT_TRUE(lockstepLaunch({{&rank0_.process, &*g0},
                                {&rank1_.process, &*g1}})
                    .isOk());
    EXPECT_GT(rank0_.clock.now(), t0);
    EXPECT_GT(rank1_.clock.now(), t1);
}

TEST_F(LockstepTest, RejectsEmptyAndAsymmetric)
{
    EXPECT_FALSE(lockstepLaunch({}).isOk());

    const DeviceAddr src0 = buffer(rank0_, {1});
    const DeviceAddr out0 = buffer(rank0_, {0});
    auto g0 = buildGraph(rank0_, 0, src0, out0, 1);
    ASSERT_TRUE(g0.isOk());
    // One rank missing its graph.
    EXPECT_FALSE(lockstepLaunch({{&rank0_.process, &*g0},
                                 {&rank1_.process, nullptr}})
                     .isOk());
}

TEST_F(LockstepTest, WorldSizeMismatchRejected)
{
    // Graphs whose all-reduce claims world=2 replayed with 1 rank.
    const DeviceAddr src0 = buffer(rank0_, {1});
    const DeviceAddr out0 = buffer(rank0_, {0});
    auto g0 = buildGraph(rank0_, 0, src0, out0, 1);
    ASSERT_TRUE(g0.isOk());
    auto st = lockstepLaunch({{&rank0_.process, &*g0}});
    EXPECT_FALSE(st.isOk());
}

} // namespace
} // namespace medusa::simcuda
