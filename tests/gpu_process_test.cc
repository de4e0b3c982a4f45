/**
 * @file
 * Tests of the GpuProcess driver surface not covered elsewhere: memcpy
 * semantics and timing, memset, device-wide synchronization across
 * streams, launch statistics and error propagation, and the
 * discarded-contents contract (discardContents()).
 */

#include <gtest/gtest.h>

#include "simcuda/gpu_process.h"
#include "simcuda/kernels/builtin.h"

namespace medusa::simcuda {
namespace {

class GpuProcessTest : public ::testing::Test
{
  protected:
    GpuProcessTest() : process_(GpuProcessOptions{}, &clock_, &cost_) {}

    SimClock clock_;
    CostModel cost_;
    GpuProcess process_;
};

TEST_F(GpuProcessTest, MemcpyRoundTripAndTiming)
{
    auto buf = process_.memory().malloc(1024, 64);
    ASSERT_TRUE(buf.isOk());
    const std::vector<f32> data = {1, 2, 3, 4};
    const SimTimeNs t0 = clock_.now();
    // 24 GB logical at 24 GB/s = 1 s of PCIe time.
    ASSERT_TRUE(process_
                    .memcpyH2D(*buf, data.data(), 16,
                               24ull * 1000 * 1000 * 1000)
                    .isOk());
    EXPECT_NEAR(units::nsToSec(clock_.now() - t0), 1.0, 0.01);

    std::vector<f32> out(4);
    ASSERT_TRUE(process_.memcpyD2H(out.data(), *buf, 16, 16).isOk());
    EXPECT_EQ(out, data);
}

TEST_F(GpuProcessTest, MemcpyZeroLogicalChargesNothing)
{
    auto buf = process_.memory().malloc(64, 64);
    const u32 v = 7;
    const SimTimeNs t0 = clock_.now();
    ASSERT_TRUE(process_.memcpyH2D(*buf, &v, 4, 0).isOk());
    EXPECT_EQ(clock_.now(), t0);
}

TEST_F(GpuProcessTest, MemcpyOutOfBoundsFails)
{
    auto buf = process_.memory().malloc(1024, 8);
    std::vector<u8> big(64, 0);
    EXPECT_FALSE(
        process_.memcpyH2D(*buf, big.data(), big.size(), 0).isOk());
}

TEST_F(GpuProcessTest, MemsetFillsBacking)
{
    auto buf = process_.memory().malloc(64, 16);
    ASSERT_TRUE(process_.cudaMemset(*buf, 0xab, 16).isOk());
    std::vector<u8> out(16);
    ASSERT_TRUE(process_.memory().read(*buf, out.data(), 16).isOk());
    for (u8 b : out) {
        EXPECT_EQ(b, 0xab);
    }
}

TEST_F(GpuProcessTest, DeviceSynchronizeDrainsAllStreams)
{
    const auto &k = BuiltinKernels::get();
    auto buf = process_.memory().malloc(64, 64);
    Stream &a = process_.defaultStream();
    Stream &b = process_.createStream();
    // Warm the module on stream a.
    ParamsBuilder w;
    w.ptr(*buf).ptr(*buf).i32(1);
    ASSERT_TRUE(a.launch(k.copy_f32, w.view(), {}).isOk());
    // A long kernel on stream b.
    TimingInfo slow;
    slow.bytes = 1e9; // ~0.7 ms
    ParamsBuilder pb;
    pb.ptr(*buf).ptr(*buf).i32(1);
    ASSERT_TRUE(b.launch(k.copy_f32, pb.view(), slow).isOk());
    const SimTimeNs t0 = clock_.now();
    ASSERT_TRUE(process_.deviceSynchronize().isOk());
    EXPECT_GT(clock_.now() - t0, units::usToNs(500.0));
}

TEST_F(GpuProcessTest, LaunchCountersTrackPaths)
{
    const auto &k = BuiltinKernels::get();
    auto buf = process_.memory().malloc(64, 64);
    auto launchOnce = [&]() {
        ParamsBuilder pb;
        pb.ptr(*buf).ptr(*buf).i32(1);
        return process_.defaultStream().launch(k.copy_f32, pb.view(),
                                               {});
    };
    ASSERT_TRUE(launchOnce().isOk());
    ASSERT_TRUE(launchOnce().isOk());
    EXPECT_EQ(process_.eagerLaunchCount(), 2u);
    EXPECT_EQ(process_.capturedNodeCount(), 0u);

    ASSERT_TRUE(process_.beginCapture(process_.defaultStream()).isOk());
    ASSERT_TRUE(launchOnce().isOk());
    auto graph = process_.endCapture(process_.defaultStream());
    ASSERT_TRUE(graph.isOk());
    EXPECT_EQ(process_.capturedNodeCount(), 1u);
    EXPECT_EQ(process_.eagerLaunchCount(), 2u);

    auto exec = process_.instantiate(*graph);
    ASSERT_TRUE(exec.isOk());
    ASSERT_TRUE(
        process_.launchGraph(*exec, process_.defaultStream()).isOk());
    EXPECT_EQ(process_.graphLaunchCount(), 1u);
}

TEST_F(GpuProcessTest, KernelErrorsNameTheKernel)
{
    const auto &k = BuiltinKernels::get();
    // rmsnorm with an unmapped pointer fails and identifies itself.
    ParamsBuilder pb;
    pb.ptr(0x7f2000000000ull)
        .ptr(0x7f2000000000ull)
        .ptr(0x7f2000000000ull)
        .i32(1)
        .i32(4)
        .f32(1e-5f);
    Status st = process_.defaultStream().launch(k.rmsnorm, pb.view(),
                                                {});
    ASSERT_FALSE(st.isOk());
    EXPECT_NE(st.message().find("rmsnorm"), std::string::npos);
}

TEST_F(GpuProcessTest, UnknownKernelIdRejected)
{
    EXPECT_FALSE(process_.defaultStream()
                     .launch(static_cast<KernelId>(0xffff), {}, {})
                     .isOk());
}

TEST_F(GpuProcessTest, DeviceIndexSeparatesAddressWindows)
{
    SimClock clock2;
    GpuProcessOptions o;
    o.aslr_seed = 1; // same seed, different device
    o.device_index = 1;
    GpuProcess other(o, &clock2, &cost_);
    auto a = process_.memory().malloc(4096, 0);
    auto b = other.memory().malloc(4096, 0);
    ASSERT_TRUE(a.isOk() && b.isOk());
    EXPECT_GT(*b, *a);
    EXPECT_GE(*b - *a, 64ull * units::GiB);
    // Both stay under the pointer-heuristic bound.
    EXPECT_LT(*b, 0x800000000000ull);
}

/**
 * Drives the same eager launches, capture, graph launch and a second
 * stream on @p p; copies 4 floats from @p src to @p dst each launch.
 */
void
runWorkload(GpuProcess &p, DeviceAddr src, DeviceAddr dst)
{
    const auto &k = BuiltinKernels::get();
    auto copy = [&]() {
        ParamsBuilder pb;
        pb.ptr(src).ptr(dst).i32(4);
        return pb;
    };
    TimingInfo slow;
    slow.bytes = 1e9;
    Stream &other = p.createStream();
    ASSERT_TRUE(
        p.defaultStream().launch(k.copy_f32, copy().view(), {}).isOk());
    ASSERT_TRUE(other.launch(k.copy_f32, copy().view(), slow).isOk());
    ASSERT_TRUE(p.beginCapture(p.defaultStream()).isOk());
    ASSERT_TRUE(
        p.defaultStream().launch(k.copy_f32, copy().view(), slow).isOk());
    auto graph = p.endCapture(p.defaultStream());
    ASSERT_TRUE(graph.isOk());
    auto exec = p.instantiate(*graph);
    ASSERT_TRUE(exec.isOk());
    ASSERT_TRUE(p.launchGraph(*exec, p.defaultStream()).isOk());
}

TEST(GpuProcessDiscardTest, ChargesExactlyLikeATwinThatExecutes)
{
    CostModel cost;
    SimClock clock_run, clock_skip;
    GpuProcess run(GpuProcessOptions{}, &clock_run, &cost);
    GpuProcess skip(GpuProcessOptions{}, &clock_skip, &cost);
    skip.discardContents();

    const std::vector<f32> data = {1, 2, 3, 4};
    DeviceAddr src[2], dst[2];
    GpuProcess *procs[2] = {&run, &skip};
    for (int i = 0; i < 2; ++i) {
        src[i] = procs[i]->memory().malloc(64, 16).value();
        dst[i] = procs[i]->memory().malloc(64, 16).value();
        ASSERT_TRUE(procs[i]->memcpyH2D(src[i], data.data(), 16, 16).isOk());
        runWorkload(*procs[i], src[i], dst[i]);
    }
    EXPECT_EQ(clock_skip.now(), clock_run.now());
    EXPECT_EQ(skip.eagerLaunchCount(), run.eagerLaunchCount());
    EXPECT_EQ(skip.capturedNodeCount(), run.capturedNodeCount());
    EXPECT_EQ(skip.graphLaunchCount(), run.graphLaunchCount());

    // A charge-only D2H drains the default stream, and a device-wide
    // sync every stream: both reach the same readiness on both twins.
    ASSERT_TRUE(run.memcpyD2H(nullptr, dst[0], 0, 4).isOk());
    ASSERT_TRUE(skip.memcpyD2H(nullptr, dst[1], 0, 4).isOk());
    EXPECT_EQ(clock_skip.now(), clock_run.now());
    ASSERT_TRUE(run.deviceSynchronize().isOk());
    ASSERT_TRUE(skip.deviceSynchronize().isOk());
    EXPECT_EQ(clock_skip.now(), clock_run.now());

    // A functional D2H of what a skipped body wrote is refused, and
    // charges nothing; so is a raw read through memory().
    std::vector<f32> out(4, 0);
    ASSERT_TRUE(run.memcpyD2H(out.data(), dst[0], 16, 16).isOk());
    EXPECT_EQ(out, data);
    const SimTimeNs before = clock_skip.now();
    const Status refused = skip.memcpyD2H(out.data(), dst[1], 16, 16);
    EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(clock_skip.now(), before);
    EXPECT_EQ(skip.memory().read(dst[1], out.data(), 16).code(),
              StatusCode::kFailedPrecondition);

    // The source was only read, so it stays defined: a D2H of it
    // succeeds and charges what the twin's does.
    const SimTimeNs run_before = clock_run.now();
    ASSERT_TRUE(run.memcpyD2H(out.data(), src[0], 16, 16).isOk());
    ASSERT_TRUE(skip.memcpyD2H(out.data(), src[1], 16, 16).isOk());
    EXPECT_EQ(out, data);
    EXPECT_EQ(clock_skip.now() - before, clock_run.now() - run_before);
}

/** Whether a read of the allocation at @p addr is refused as tainted. */
bool
tainted(const GpuProcess &p, DeviceAddr addr)
{
    u8 byte = 0;
    const Status st = p.memory().read(addr, &byte, 1);
    EXPECT_TRUE(st.isOk() || st.code() == StatusCode::kFailedPrecondition)
        << st.toString();
    return st.code() == StatusCode::kFailedPrecondition;
}

TEST(GpuProcessDiscardTest, SkippedBodiesTaintTheirDeclaredWriteSet)
{
    const auto &k = BuiltinKernels::get();
    CostModel cost;
    SimClock clock;
    GpuProcess p(GpuProcessOptions{}, &clock, &cost);
    p.discardContents();
    auto alloc = [&](u64 bytes) {
        return p.memory().malloc(bytes, bytes).value();
    };

    // copy_f32(src kRead, dst kWrite).
    const std::vector<f32> data = {1, 2, 3, 4};
    const DeviceAddr src = alloc(16);
    const DeviceAddr dst = alloc(16);
    ASSERT_TRUE(p.memcpyH2D(src, data.data(), 16, 16).isOk());
    ParamsBuilder copy;
    copy.ptr(src).ptr(dst).i32(4);
    ASSERT_TRUE(
        p.defaultStream().launch(k.copy_f32, copy.view(), {}).isOk());
    EXPECT_FALSE(tainted(p, src));
    EXPECT_TRUE(tainted(p, dst));

    // A partial H2D leaves the rest undefined; a full-size one defines
    // the whole backing again, and so does a full-size memset.
    ASSERT_TRUE(p.memcpyH2D(dst, data.data(), 8, 8).isOk());
    EXPECT_TRUE(tainted(p, dst));
    ASSERT_TRUE(p.memcpyH2D(dst, data.data(), 16, 16).isOk());
    EXPECT_FALSE(tainted(p, dst));
    std::vector<f32> out(4, 0);
    ASSERT_TRUE(p.memcpyD2H(out.data(), dst, 16, 16).isOk());
    EXPECT_EQ(out, data);
    ParamsBuilder again;
    again.ptr(src).ptr(dst).i32(4);
    ASSERT_TRUE(
        p.defaultStream().launch(k.copy_f32, again.view(), {}).isOk());
    EXPECT_TRUE(tainted(p, dst));
    ASSERT_TRUE(p.cudaMemset(dst, 0, 8).isOk());
    EXPECT_TRUE(tainted(p, dst));
    ASSERT_TRUE(p.cudaMemset(dst, 0, 16).isOk());
    EXPECT_FALSE(tainted(p, dst));

    // split-K GEMM(sem0 kSemaphore, sem1 kSemaphore, A kRead, W kRead,
    // C kWrite): the semaphores keep their value.
    const DeviceAddr sem0 = alloc(4);
    const DeviceAddr sem1 = alloc(4);
    const DeviceAddr a = alloc(16);
    const DeviceAddr w = alloc(16);
    const DeviceAddr c = alloc(16);
    ParamsBuilder gemm;
    gemm.ptr(sem0).ptr(sem1).ptr(a).ptr(w).ptr(c).i32(2).i32(2).i32(2);
    ASSERT_TRUE(
        p.defaultStream().launch(k.gemm_splitk, gemm.view(), {}).isOk());
    EXPECT_FALSE(tainted(p, sem0));
    EXPECT_FALSE(tainted(p, sem1));
    EXPECT_FALSE(tainted(p, a));
    EXPECT_FALSE(tainted(p, w));
    EXPECT_TRUE(tainted(p, c));
}

TEST(GpuProcessDiscardTest, IndirectBodiesTaintWhatTheirOperandWordsReach)
{
    const auto &k = BuiltinKernels::get();
    CostModel cost;
    SimClock clock;
    GpuProcess p(GpuProcessOptions{}, &clock, &cost);
    p.discardContents();
    auto alloc = [&](u64 bytes) {
        return p.memory().malloc(bytes, bytes).value();
    };

    // gemm_batched(ptr_array kRead) with ptr_array = [A, W, C] reaches
    // all three: it declares none of them, so each is tainted.
    const DeviceAddr a = alloc(16);
    const DeviceAddr w = alloc(16);
    const DeviceAddr c = alloc(16);
    const DeviceAddr bystander = alloc(16);
    const DeviceAddr ptrs = alloc(24);
    const u64 operands[3] = {a, w + 8, c};
    ASSERT_TRUE(p.memcpyH2D(ptrs, operands, sizeof(operands), 24).isOk());
    auto batched = [&]() {
        ParamsBuilder pb;
        pb.ptr(ptrs).i32(1).i32(1).i32(2);
        return p.defaultStream().launch(k.gemm_batched, pb.view(), {});
    };
    ASSERT_TRUE(batched().isOk());
    EXPECT_FALSE(tainted(p, ptrs));
    EXPECT_TRUE(tainted(p, a));
    EXPECT_TRUE(tainted(p, w));
    EXPECT_TRUE(tainted(p, c));
    EXPECT_FALSE(tainted(p, bystander));

    // Once a skipped body writes the operand array, its words are
    // undefined, and the next skipped indirect body refuses.
    ParamsBuilder clobber;
    clobber.ptr(bystander).ptr(ptrs).i32(4);
    ASSERT_TRUE(
        p.defaultStream().launch(k.copy_f32, clobber.view(), {}).isOk());
    EXPECT_TRUE(tainted(p, ptrs));
    const Status refused = batched();
    EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
    EXPECT_FALSE(tainted(p, bystander));
}

TEST(GpuProcessDiscardTest, ParamChecksStillRun)
{
    const auto &k = BuiltinKernels::get();
    CostModel cost;
    SimClock clock;
    GpuProcess p(GpuProcessOptions{}, &clock, &cost);
    p.discardContents();
    auto buf = p.memory().malloc(64, 64).value();
    ParamsBuilder too_few;
    too_few.ptr(buf).ptr(buf);
    const Status count =
        p.defaultStream().launch(k.copy_f32, too_few.view(), {});
    EXPECT_EQ(count.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(count.message().find("expects 3 params"), std::string::npos);
    ParamsBuilder wide;
    wide.ptr(buf).ptr(buf).ptr(buf);
    const Status width =
        p.defaultStream().launch(k.copy_f32, wide.view(), {});
    EXPECT_EQ(width.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(width.message().find("wrong size"), std::string::npos);
}

TEST(GpuProcessDiscardDeathTest, FingerprintsRefuse)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    CostModel cost;
    SimClock clock;
    GpuProcess p(GpuProcessOptions{}, &clock, &cost);
    p.discardContents();
    EXPECT_DEATH((void)p.stateFingerprint(), "discarded contents");
    EXPECT_DEATH((void)p.logicalStateFingerprint(), "discarded contents");
}

} // namespace
} // namespace medusa::simcuda
