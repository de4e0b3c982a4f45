/**
 * @file
 * Tests of the cost model: the roofline kernel-time rule, transfer
 * times, and the stream pipeline semantics they drive (launch-bound vs
 * execution-bound eager decode — the mechanism behind Figure 3).
 */

#include <gtest/gtest.h>

#include "simcuda/gpu_process.h"
#include "simcuda/kernels/builtin.h"
#include "simtime/cost_model.h"

namespace medusa {
namespace {

TEST(CostModelTest, KernelTimeIsRoofline)
{
    CostModel cost;
    TimingInfo flops_bound;
    flops_bound.flops = 1e12;
    flops_bound.bytes = 1;
    TimingInfo mem_bound;
    mem_bound.flops = 1;
    mem_bound.bytes = 1e9;

    const f64 flop_us = 1e12 / (cost.gpu_tflops *
                                cost.steady_efficiency * 1e6);
    EXPECT_NEAR(units::nsToUs(cost.kernelExecTime(
                    flops_bound, cost.steady_efficiency)),
                cost.kernel_min_exec_us + flop_us, 0.1);

    const f64 mem_us = 1e9 / (cost.gpu_membw_gbps * 1e3);
    EXPECT_NEAR(units::nsToUs(cost.kernelExecTime(
                    mem_bound, cost.steady_efficiency)),
                cost.kernel_min_exec_us + mem_us, 0.1);

    // An empty kernel still pays the floor.
    EXPECT_NEAR(units::nsToUs(cost.kernelExecTime(
                    TimingInfo{}, cost.steady_efficiency)),
                cost.kernel_min_exec_us, 1e-9);
}

TEST(CostModelTest, TransferTimes)
{
    CostModel cost;
    // 20.5 GB at 20.5 GB/s = 1 second.
    EXPECT_NEAR(units::nsToSec(cost.ssdReadTime(20.5e9)), 1.0, 1e-9);
    EXPECT_NEAR(units::nsToSec(cost.pcieCopyTime(24.0e9)), 1.0, 1e-9);
}

class StreamTimingTest : public ::testing::Test
{
  protected:
    StreamTimingTest()
        : process_(simcuda::GpuProcessOptions{}, &clock_, &cost_)
    {
        // Pre-load the module so timing below is launch/exec only.
        buf_ = *process_.memory().malloc(64, 64);
        simcuda::ParamsBuilder pb;
        pb.ptr(buf_).ptr(buf_).i32(1);
        MEDUSA_CHECK(process_.defaultStream()
                         .launch(BuiltinKernelId(), pb.view(), {})
                         .isOk(),
                     "warm launch failed");
        MEDUSA_CHECK(process_.defaultStream().synchronize().isOk(),
                     "sync failed");
    }

    static simcuda::KernelId
    BuiltinKernelId()
    {
        return simcuda::BuiltinKernels::get().copy_f32;
    }

    Status
    launchWith(f64 exec_bytes)
    {
        simcuda::ParamsBuilder pb;
        pb.ptr(buf_).ptr(buf_).i32(1);
        TimingInfo t;
        t.bytes = exec_bytes;
        return process_.defaultStream().launch(BuiltinKernelId(),
                                               pb.view(), t);
    }

    SimClock clock_;
    CostModel cost_;
    simcuda::GpuProcess process_;
    DeviceAddr buf_ = 0;
};

TEST_F(StreamTimingTest, LaunchBoundWhenKernelsAreTiny)
{
    // 50 tiny kernels: total time ~ 50 CPU launches (the GPU starves).
    const SimTimeNs t0 = clock_.now();
    for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(launchWith(0).isOk());
    }
    ASSERT_TRUE(process_.defaultStream().synchronize().isOk());
    const f64 us = units::nsToUs(clock_.now() - t0);
    EXPECT_NEAR(us, 50 * cost_.kernel_launch_us + cost_.kernel_min_exec_us +
                        cost_.sync_us,
                cost_.kernel_launch_us);
}

TEST_F(StreamTimingTest, ExecBoundWhenKernelsAreBig)
{
    // 10 big kernels (1 ms each): launches pipeline underneath.
    const f64 big_bytes = 1e-3 * cost_.gpu_membw_gbps * 1e9; // ~1 ms
    const SimTimeNs t0 = clock_.now();
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(launchWith(big_bytes).isOk());
    }
    ASSERT_TRUE(process_.defaultStream().synchronize().isOk());
    const f64 ms = units::nsToMs(clock_.now() - t0);
    EXPECT_GT(ms, 9.9);
    EXPECT_LT(ms, 10.5); // launches hidden behind execution
}

TEST_F(StreamTimingTest, EventTransfersGpuTimeline)
{
    ASSERT_TRUE(launchWith(1e6).isOk()); // ~0.7 us + floor on stream A
    simcuda::Event ev;
    ASSERT_TRUE(process_.defaultStream().recordEvent(ev).isOk());
    simcuda::Stream &other = process_.createStream();
    ASSERT_TRUE(other.waitEvent(ev).isOk());
    // Synchronizing the other stream waits for the recorded work.
    const SimTimeNs before = clock_.now();
    ASSERT_TRUE(other.synchronize().isOk());
    EXPECT_GE(clock_.now(), before);
}

TEST_F(StreamTimingTest, GraphReplayChargesSingleLaunch)
{
    ASSERT_TRUE(process_.beginCapture(process_.defaultStream()).isOk());
    for (int i = 0; i < 20; ++i) {
        ASSERT_TRUE(launchWith(0).isOk());
    }
    auto graph = process_.endCapture(process_.defaultStream());
    ASSERT_TRUE(graph.isOk());
    auto exec = process_.instantiate(*graph);
    ASSERT_TRUE(exec.isOk());

    const SimTimeNs t0 = clock_.now();
    ASSERT_TRUE(
        process_.launchGraph(*exec, process_.defaultStream()).isOk());
    const f64 cpu_us = units::nsToUs(clock_.now() - t0);
    EXPECT_NEAR(cpu_us, cost_.graph_launch_us, 1e-6);
}

} // namespace
} // namespace medusa
