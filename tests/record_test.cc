/**
 * @file
 * Tests of the offline recorder: (de)allocation op sequencing, launch
 * capture grouping, tag resolution, stage markers, and the
 * range-containment queries the trace analysis uses.
 */

#include <gtest/gtest.h>

#include "medusa/record.h"
#include "simcuda/caching_allocator.h"
#include "simcuda/kernels/builtin.h"

namespace medusa::core {
namespace {

class RecordTest : public ::testing::Test
{
  protected:
    RecordTest()
        : process_(simcuda::GpuProcessOptions{}, &clock_, &cost_),
          alloc_(&process_)
    {
        alloc_.setObserver(&recorder_);
        process_.setLaunchObserver(&recorder_);
    }

    SimClock clock_;
    CostModel cost_;
    simcuda::GpuProcess process_;
    simcuda::CachingAllocator alloc_;
    Recorder recorder_;
};

TEST_F(RecordTest, OpsRecordAllocAndFree)
{
    auto a = alloc_.allocate(100, 8);
    auto b = alloc_.allocate(200, 8);
    ASSERT_TRUE(alloc_.free(*a).isOk());
    (void)b;

    ASSERT_EQ(recorder_.ops().size(), 3u);
    EXPECT_EQ(recorder_.ops()[0].kind, AllocOp::kAlloc);
    EXPECT_EQ(recorder_.ops()[0].logical_size, 100u);
    EXPECT_EQ(recorder_.ops()[0].backing_size, 8u);
    EXPECT_EQ(recorder_.ops()[2].kind, AllocOp::kFree);
    EXPECT_EQ(recorder_.ops()[2].freed_alloc_index, 0u);

    ASSERT_EQ(recorder_.allocs().size(), 2u);
    EXPECT_EQ(recorder_.allocs()[0].op_pos_free, 2);
    EXPECT_EQ(recorder_.allocs()[1].op_pos_free, -1);
}

TEST_F(RecordTest, ReusedAddressGetsTwoRecords)
{
    auto a = alloc_.allocate(100, 8);
    ASSERT_TRUE(alloc_.free(*a).isOk());
    auto b = alloc_.allocate(100, 8);
    ASSERT_EQ(*a, *b); // pool reuse

    std::vector<const AllocRecord *> matches;
    recorder_.recordsContaining(*a + 10, matches);
    ASSERT_EQ(matches.size(), 2u);
    EXPECT_EQ(matches[0]->alloc_index, 0u);
    EXPECT_EQ(matches[1]->alloc_index, 1u);
}

TEST_F(RecordTest, ContainmentUsesLogicalRange)
{
    auto a = alloc_.allocate(4096, 8);
    std::vector<const AllocRecord *> matches;
    auto count = [&](DeviceAddr value) {
        recorder_.recordsContaining(value, matches);
        return matches.size();
    };
    EXPECT_EQ(count(*a), 1u);
    EXPECT_EQ(count(*a + 4095), 1u);
    EXPECT_EQ(count(*a + 5000), 0u);
    EXPECT_EQ(count(*a - 1), 0u);
}

TEST_F(RecordTest, MarkersSplitTheSequence)
{
    auto a = alloc_.allocate(64, 4);
    (void)a;
    recorder_.markOrganicBoundary();
    auto b = alloc_.allocate(64, 4);
    recorder_.markCaptureStageBegin();
    auto c = alloc_.allocate(64, 4);
    (void)b;
    (void)c;

    EXPECT_EQ(recorder_.organicOpCount(), 1u);
    EXPECT_EQ(recorder_.organicAllocCount(), 1u);
    EXPECT_EQ(recorder_.captureStageOpPos(), 2u);
}

TEST_F(RecordTest, TagsResolveToAllocIndexes)
{
    auto a = alloc_.allocate(64, 4);
    auto b = alloc_.allocate(64, 4);
    recorder_.onTagBuffer("token_ids", *a);
    recorder_.onTagBuffer("logits", *b);
    EXPECT_EQ(recorder_.tags().at("token_ids"), 0u);
    EXPECT_EQ(recorder_.tags().at("logits"), 1u);
}

TEST_F(RecordTest, CapturedLaunchesGroupedPerGraph)
{
    // Launch a kernel eagerly (not recorded as graph node), then
    // within a graph window.
    using namespace simcuda;
    const auto &k = BuiltinKernels::get();
    auto buf = alloc_.allocate(64, 64);
    ParamsBuilder warm;
    warm.ptr(*buf).ptr(*buf).i32(4);
    ASSERT_TRUE(process_.defaultStream()
                    .launch(k.copy_f32, warm.view(), {})
                    .isOk());
    EXPECT_TRUE(recorder_.graphLaunches().empty());

    recorder_.beginGraph(8);
    ASSERT_TRUE(process_.beginCapture(process_.defaultStream()).isOk());
    ParamsBuilder pb;
    pb.ptr(*buf).ptr(*buf).i32(4);
    ASSERT_TRUE(process_.defaultStream()
                    .launch(k.copy_f32, pb.view(), {})
                    .isOk());
    auto graph = process_.endCapture(process_.defaultStream());
    ASSERT_TRUE(graph.isOk());
    recorder_.endGraph();

    ASSERT_EQ(recorder_.graphLaunches().count(8u), 1u);
    const auto &launches = recorder_.graphLaunches().at(8);
    ASSERT_EQ(launches.size(), 1u);
    // The launch's params are the graph node's; the recorder keeps only
    // the position.
    ASSERT_EQ(graph->nodeCount(), launches.size());
    EXPECT_EQ(graph->params(0).size(), 3u);
    EXPECT_EQ(launches[0].op_pos, recorder_.ops().size());
}

} // namespace
} // namespace medusa::core
