/**
 * @file
 * Tests of CUDA-graph construction (explicit and via stream capture),
 * topology (node ids are the execution order: every edge points
 * forward), capture restrictions, events (fork/join DAGs), graph
 * instantiation and replay.
 */

#include <gtest/gtest.h>

#include "simcuda/caching_allocator.h"
#include "simcuda/gpu_process.h"
#include "simcuda/kernels/builtin.h"

namespace medusa::simcuda {
namespace {

/** Fixture providing a process, clock and small helpers. */
class GraphTest : public ::testing::Test
{
  protected:
    GraphTest() : process_(GpuProcessOptions{}, &clock_, &cost_) {}

    /** Launch a copy_f32 kernel src -> dst over count floats. */
    Status
    launchCopy(Stream &stream, DeviceAddr src, DeviceAddr dst, i32 count)
    {
        const auto &k = BuiltinKernels::get();
        ParamsBuilder pb;
        pb.ptr(src).ptr(dst).i32(count);
        return stream.launch(k.copy_f32, pb.view(), TimingInfo{});
    }

    /** Allocate a device buffer holding the given floats. */
    DeviceAddr
    buffer(const std::vector<f32> &values)
    {
        auto addr = process_.memory().malloc(values.size() * 4,
                                             values.size() * 4);
        MEDUSA_CHECK(addr.isOk(), "alloc failed");
        MEDUSA_CHECK(process_.memory()
                         .write(*addr, values.data(), values.size() * 4)
                         .isOk(),
                     "write failed");
        return *addr;
    }

    std::vector<f32>
    readBack(DeviceAddr addr, std::size_t count)
    {
        std::vector<f32> out(count);
        MEDUSA_CHECK(
            process_.memory().read(addr, out.data(), count * 4).isOk(),
            "read failed");
        return out;
    }

    SimClock clock_;
    CostModel cost_;
    GpuProcess process_;
};

/** Every edge of @p g points from an earlier node id to a later one. */
void
expectEdgesForward(const CudaGraph &g)
{
    for (const GraphEdge &e : g.edges()) {
        EXPECT_LT(e.src, e.dst) << e.src << "->" << e.dst;
        EXPECT_LT(e.dst, g.nodeCount()) << e.src << "->" << e.dst;
    }
}

TEST_F(GraphTest, ExplicitConstructionAndTopoOrder)
{
    CudaGraph g;
    const NodeId a = g.addKernelNode(1, {}, {}, {});
    const NodeId b = g.addKernelNode(2, {}, {}, {a});
    const NodeId c = g.addKernelNode(3, {}, {}, {a});
    const NodeId d = g.addKernelNode(4, {}, {}, {b, c});
    EXPECT_EQ(g.nodeCount(), 4u);
    EXPECT_EQ(g.edgeCount(), 4u);
    // Node ids are handed out in order, so id order is the execution
    // order.
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(c, 2u);
    EXPECT_EQ(d, 3u);
    expectEdgesForward(g);
}

TEST(GraphDeathTest, DependencyOnFutureNodeAborts)
{
    CudaGraph g;
    g.addKernelNode(1, {}, {}, {});
    // A dependency on a node that does not exist yet would be a
    // backward edge (or a cycle); the graph refuses to build one.
    EXPECT_DEATH(g.addKernelNode(2, {}, {}, {1}),
                 "graph dependency on future node");
    EXPECT_DEATH(g.addKernelNode(2, {}, {}, {0, 5}),
                 "graph dependency on future node");
}

TEST_F(GraphTest, SetNodeParamReplacesBytes)
{
    CudaGraph g;
    ParamsBuilder pb;
    pb.ptr(0x7f20aa000000ull).i32(5);
    g.addKernelNode(1, pb.view(), {}, {});
    const ParamBlob fresh{0xeeeeeeeeeeeeeeeeull, 8};
    g.setNodeParam(0, 0, fresh);
    EXPECT_EQ(g.params(0).at(0).bits, fresh.bits);
    EXPECT_EQ(g.params(0).at(0).len, fresh.len);
}

TEST_F(GraphTest, StreamCaptureRecordsWithoutExecuting)
{
    const DeviceAddr src = buffer({1, 2, 3, 4});
    const DeviceAddr dst = buffer({0, 0, 0, 0});
    Stream &stream = process_.defaultStream();

    // Warm up so the module is loaded (loading during capture fails).
    ASSERT_TRUE(launchCopy(stream, src, dst, 4).isOk());
    ASSERT_TRUE(process_.memory().memset(dst, 0, 16).isOk());

    ASSERT_TRUE(process_.beginCapture(stream).isOk());
    EXPECT_TRUE(process_.captureActive());
    ASSERT_TRUE(launchCopy(stream, src, dst, 4).isOk());
    ASSERT_TRUE(launchCopy(stream, dst, dst, 4).isOk());
    auto graph = process_.endCapture(stream);
    ASSERT_TRUE(graph.isOk());
    EXPECT_FALSE(process_.captureActive());

    // Capture recorded 2 nodes with a linear dependency but did NOT
    // execute them.
    EXPECT_EQ(graph->nodeCount(), 2u);
    EXPECT_EQ(graph->edgeCount(), 1u);
    EXPECT_EQ(readBack(dst, 4), (std::vector<f32>{0, 0, 0, 0}));
}

TEST_F(GraphTest, CaptureViolations)
{
    const DeviceAddr src = buffer({1});
    Stream &stream = process_.defaultStream();
    ASSERT_TRUE(launchCopy(stream, src, src, 1).isOk());

    ASSERT_TRUE(process_.beginCapture(stream).isOk());
    // Synchronization is prohibited during capture (§2.3).
    EXPECT_EQ(stream.synchronize().code(),
              StatusCode::kCaptureViolation);
    EXPECT_EQ(process_.deviceSynchronize().code(),
              StatusCode::kCaptureViolation);
    // Driver allocation is prohibited during capture.
    EXPECT_EQ(process_.cudaMalloc(64, 64).status().code(),
              StatusCode::kCaptureViolation);
    // A second concurrent capture is prohibited (§2.2 limitation).
    Stream &other = process_.createStream();
    EXPECT_EQ(process_.beginCapture(other).code(),
              StatusCode::kCaptureViolation);
    ASSERT_TRUE(process_.endCapture(stream).isOk());
}

TEST_F(GraphTest, FirstLaunchModuleLoadDuringCaptureFails)
{
    // No warm-up: the kernel's module is not loaded yet, and loading
    // performs an implicit synchronization — capture must fail. This is
    // exactly why warm-up forwarding is required before capture.
    const DeviceAddr src = buffer({1});
    Stream &stream = process_.defaultStream();
    ASSERT_TRUE(process_.beginCapture(stream).isOk());
    Status st = launchCopy(stream, src, src, 1);
    EXPECT_EQ(st.code(), StatusCode::kCaptureViolation);
    ASSERT_TRUE(process_.endCapture(stream).isOk());
}

TEST_F(GraphTest, EventForkJoinBuildsDag)
{
    const std::vector<f32> init_a = {1, 2};
    const std::vector<f32> zeros = {0, 0};
    const DeviceAddr a = buffer(init_a);
    const DeviceAddr b = buffer(zeros);
    const DeviceAddr c = buffer(zeros);
    const DeviceAddr d = buffer(zeros);
    Stream &main = process_.defaultStream();
    Stream &side = process_.createStream();
    ASSERT_TRUE(launchCopy(main, a, a, 2).isOk()); // warm module

    // A chain of dependent copies; replaying any node before one it
    // depends on leaves zeros behind.
    ASSERT_TRUE(process_.beginCapture(main).isOk());
    ASSERT_TRUE(launchCopy(main, a, b, 2).isOk()); // node 0
    Event fork;
    ASSERT_TRUE(main.recordEvent(fork).isOk());
    ASSERT_TRUE(side.waitEvent(fork).isOk()); // side joins the capture
    ASSERT_TRUE(launchCopy(side, b, c, 2).isOk());  // node 1 (dep: 0)
    ASSERT_TRUE(launchCopy(main, b, d, 2).isOk());  // node 2 (dep: 0)
    Event join;
    ASSERT_TRUE(side.recordEvent(join).isOk());
    ASSERT_TRUE(main.waitEvent(join).isOk());
    ASSERT_TRUE(launchCopy(main, c, b, 2).isOk()); // node 3 (deps: 1,2)
    auto graph = process_.endCapture(main);
    ASSERT_TRUE(graph.isOk());

    EXPECT_EQ(graph->nodeCount(), 4u);
    // Edges: 0->1 (fork), 0->2 (stream order), 1->3 (join), 2->3.
    EXPECT_EQ(graph->edgeCount(), 4u);
    expectEdgesForward(*graph);

    // Replaying the graph (node-id order) gives the bytes the same
    // launches give eagerly, in capture order, on fresh buffers.
    auto exec = process_.instantiate(*graph);
    ASSERT_TRUE(exec.isOk());
    ASSERT_TRUE(process_.launchGraph(*exec, main).isOk());
    ASSERT_TRUE(main.synchronize().isOk());

    const DeviceAddr ea = buffer(init_a);
    const DeviceAddr eb = buffer(zeros);
    const DeviceAddr ec = buffer(zeros);
    const DeviceAddr ed = buffer(zeros);
    ASSERT_TRUE(launchCopy(main, ea, eb, 2).isOk());
    ASSERT_TRUE(launchCopy(main, eb, ec, 2).isOk());
    ASSERT_TRUE(launchCopy(main, eb, ed, 2).isOk());
    ASSERT_TRUE(launchCopy(main, ec, eb, 2).isOk());
    ASSERT_TRUE(main.synchronize().isOk());
    EXPECT_EQ(readBack(ec, 2), init_a);
    EXPECT_EQ(readBack(b, 2), readBack(eb, 2));
    EXPECT_EQ(readBack(c, 2), readBack(ec, 2));
    EXPECT_EQ(readBack(d, 2), readBack(ed, 2));
}

TEST_F(GraphTest, InstantiateRejectsUnknownKernelAddress)
{
    CudaGraph g;
    g.addKernelNode(0xdead, {}, {}, {});
    auto exec = process_.instantiate(g);
    EXPECT_FALSE(exec.isOk());
}

TEST_F(GraphTest, GraphReplayExecutesFunctionally)
{
    const DeviceAddr src = buffer({5, 6, 7});
    const DeviceAddr mid = buffer({0, 0, 0});
    const DeviceAddr dst = buffer({0, 0, 0});
    Stream &stream = process_.defaultStream();
    ASSERT_TRUE(launchCopy(stream, src, mid, 3).isOk()); // warm
    ASSERT_TRUE(process_.memory().memset(mid, 0, 12).isOk());

    ASSERT_TRUE(process_.beginCapture(stream).isOk());
    ASSERT_TRUE(launchCopy(stream, src, mid, 3).isOk());
    ASSERT_TRUE(launchCopy(stream, mid, dst, 3).isOk());
    auto graph = process_.endCapture(stream);
    ASSERT_TRUE(graph.isOk());

    auto exec = process_.instantiate(*graph);
    ASSERT_TRUE(exec.isOk());
    ASSERT_TRUE(process_.launchGraph(*exec, stream).isOk());
    ASSERT_TRUE(stream.synchronize().isOk());
    EXPECT_EQ(readBack(dst, 3), (std::vector<f32>{5, 6, 7}));
}

TEST_F(GraphTest, GraphLaunchCheaperThanEagerLaunches)
{
    // The core benefit (§2.2): one CPU launch for the whole graph.
    const DeviceAddr src = buffer({1});
    Stream &stream = process_.defaultStream();
    ASSERT_TRUE(launchCopy(stream, src, src, 1).isOk());

    ASSERT_TRUE(process_.beginCapture(stream).isOk());
    const int kNodes = 50;
    for (int i = 0; i < kNodes; ++i) {
        ASSERT_TRUE(launchCopy(stream, src, src, 1).isOk());
    }
    auto graph = process_.endCapture(stream);
    auto exec = process_.instantiate(*graph);
    ASSERT_TRUE(exec.isOk());

    const SimTimeNs t0 = clock_.now();
    for (int i = 0; i < kNodes; ++i) {
        ASSERT_TRUE(launchCopy(stream, src, src, 1).isOk());
    }
    const SimTimeNs eager_cpu = clock_.now() - t0;

    const SimTimeNs t1 = clock_.now();
    ASSERT_TRUE(process_.launchGraph(*exec, stream).isOk());
    const SimTimeNs graph_cpu = clock_.now() - t1;
    EXPECT_LT(graph_cpu * 5, eager_cpu);
}

TEST_F(GraphTest, EndCaptureOnWrongStreamRejected)
{
    Stream &main = process_.defaultStream();
    Stream &other = process_.createStream();
    ASSERT_TRUE(process_.beginCapture(main).isOk());
    EXPECT_FALSE(process_.endCapture(other).isOk());
    ASSERT_TRUE(process_.endCapture(main).isOk());
}

} // namespace
} // namespace medusa::simcuda
