/**
 * @file
 * Heap-allocation counts of the launch path: launch parameters are
 * inline values from ParamsBuilder through eager launch, stream capture
 * and the offline recorder (DESIGN.md §6, "Launch parameters are inline
 * values"), so none of them allocates per argument. Also the largest
 * single request an image decode makes for a forged count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "llm/model_config.h"
#include "llm/runtime.h"
#include "medusa/image.h"
#include "medusa/record.h"
#include "simcuda/gpu_process.h"
#include "simcuda/kernels/builtin.h"
#include "test_image.h"

namespace medusa {
namespace {

/** Global allocation counter. */
std::atomic<u64> g_allocs{0};
/** Largest single allocation request, in bytes. */
std::atomic<std::size_t> g_largest{0};

void
countAlloc(std::size_t size)
{
    ++g_allocs;
    std::size_t seen = g_largest.load();
    while (size > seen && !g_largest.compare_exchange_weak(seen, size)) {
    }
}

} // namespace
} // namespace medusa

// The full replaceable set must be overridden together: libstdc++'s
// stable_sort temporary buffer goes through the nothrow forms, and a
// partial override would pair the library's new with our free (an
// alloc-dealloc mismatch under ASan).
//
// GCC cannot see that the replaced operator new also mallocs, so it
// flags every new/free pairing in this TU; the pairing is consistent.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void *
operator new(std::size_t size)
{
    medusa::countAlloc(size);
    void *p = std::malloc(size);
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    medusa::countAlloc(size);
    return std::malloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &tag) noexcept
{
    return operator new(size, tag);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace medusa {
namespace {

using simcuda::BuiltinKernels;
using simcuda::GpuProcess;
using simcuda::GpuProcessOptions;
using simcuda::LaunchParams;
using simcuda::ParamBlob;
using simcuda::ParamsBuilder;

TEST(LaunchAllocTest, EagerLaunchAllocatesNothing)
{
    const auto &k = BuiltinKernels::get();
    CostModel cost;
    SimClock clock;
    GpuProcess p(GpuProcessOptions{}, &clock, &cost);
    p.discardContents();
    const DeviceAddr src = p.memory().malloc(64, 64).value();
    const DeviceAddr dst = p.memory().malloc(64, 64).value();
    auto launch = [&]() {
        ParamsBuilder pb;
        pb.ptr(src).ptr(dst).i32(4);
        return p.defaultStream().launch(k.copy_f32, pb.view(), {});
    };
    ASSERT_TRUE(launch().isOk()); // loads the module

    const u64 before = g_allocs.load();
    for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(launch().isOk());
    }
    EXPECT_EQ(g_allocs.load(), before);
    EXPECT_EQ(p.eagerLaunchCount(), 101u);
}

TEST(LaunchAllocTest, DecodeCaptureAllocatesFewerTimesThanNodes)
{
    llm::ModelRuntime::Options opts;
    opts.model = llm::findModel("Qwen1.5-0.5B").value();
    llm::ModelRuntime rt(opts);
    // The offline capture stage's process (core::runCaptureStage).
    rt.process().discardContents();
    ASSERT_TRUE(rt.initStructure().isOk());
    ASSERT_TRUE(rt.loadWeights().isOk());
    ASSERT_TRUE(rt.loadTokenizer().isOk());
    auto free_bytes = rt.profileFreeMemory();
    ASSERT_TRUE(free_bytes.isOk());
    ASSERT_TRUE(rt.initKvCache(*free_bytes).isOk());
    ASSERT_TRUE(rt.warmupDecode(8).isOk());

    const u64 before = g_allocs.load();
    auto graph = rt.captureDecode(8);
    const u64 allocs = g_allocs.load() - before;
    ASSERT_TRUE(graph.isOk());
    ASSERT_GT(graph->nodeCount(), 40u);
    EXPECT_LT(allocs, graph->nodeCount())
        << allocs << " allocations for " << graph->nodeCount() << " nodes";
}

TEST(LaunchAllocTest, RecorderCopiesNoParameterBytes)
{
    // A captured launch's record is its op position alone: recording
    // launches with the widest signature allocates exactly as often as
    // recording launches with no parameters at all.
    LaunchParams wide;
    for (std::size_t i = 0; i < simcuda::kMaxKernelParams; ++i) {
        wide.push(ParamBlob{0x7f2000000000ull + i, 8});
    }
    auto record = [](simcuda::ParamView params) {
        core::Recorder recorder;
        recorder.beginGraph(1);
        const u64 before = g_allocs.load();
        for (int i = 0; i < 1000; ++i) {
            recorder.onKernelLaunch(0x1000, params, true);
        }
        const u64 allocs = g_allocs.load() - before;
        recorder.endGraph();
        EXPECT_EQ(recorder.graphLaunches().at(1).size(), 1000u);
        return allocs;
    };
    const u64 wide_allocs = record(wide.view());
    EXPECT_EQ(wide_allocs, record(simcuda::ParamView()));
    // Amortized growth of one position vector, not one copy per launch.
    EXPECT_LT(wide_allocs, 32u);
}

TEST(LaunchAllocTest, ForgedImageCountsReserveAtMostFourTimesThePayload)
{
    // No ops and no tags: the payload opens with the model name, five
    // u64 header facts, then the op, tag and kernel counts.
    core::ImageBuilder b;
    b.model_name = "m";
    b.addKernel("kernel", "module");
    b.addPermanent(0, 4096);
    const std::vector<u8> clean = b.finish({});
    const std::size_t ops_at = core::MaterializedImage::kHeaderBytes + 8 +
                               b.model_name.size() + 5 * 8;
    const std::size_t kernels_at = ops_at + 2 * 8;
    u64 kernel_count = 0;
    std::memcpy(&kernel_count, clean.data() + kernels_at, 8);
    ASSERT_EQ(kernel_count, 1u);

    const std::size_t payload =
        clean.size() - core::MaterializedImage::kHeaderBytes;
    for (const std::size_t count_at : {ops_at, kernels_at}) {
        // The largest count a bound of one byte per item lets through.
        std::vector<u8> bytes = clean;
        const u64 forged = bytes.size() - (count_at + 8);
        std::memcpy(bytes.data() + count_at, &forged, sizeof(forged));
        test::resealImage(bytes);

        g_largest = 0;
        auto image = core::MaterializedImage::openView(bytes);
        const std::size_t largest = g_largest.load();
        EXPECT_FALSE(image.isOk()) << "count at " << count_at;
        EXPECT_LE(largest, 4 * payload)
            << "count at " << count_at << ": a " << payload
            << "-byte payload made a " << largest << "-byte request";
    }
}

} // namespace
} // namespace medusa
