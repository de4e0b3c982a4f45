/**
 * @file
 * Tests of the analysis stage: pointer-vs-constant classification,
 * decoy (false-positive candidate) demotion, interior-pointer offsets,
 * trace-based matching under address reuse, the §4.3 buffer-content
 * classes — and the adversarial proof that NAIVE matching corrupts
 * data across process launches (the paper's Figure 6), while
 * trace-based matching restores correctly.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <span>

#include "medusa/analyze.h"
#include "medusa/offline.h"
#include "simcuda/caching_allocator.h"
#include "simcuda/kernels/builtin.h"

namespace medusa::core {
namespace {

using simcuda::BuiltinKernels;
using simcuda::CachingAllocator;
using simcuda::CudaGraph;
using simcuda::GpuProcess;
using simcuda::GpuProcessOptions;
using simcuda::ParamsBuilder;

/** An analysis result, finished into image bytes and opened over them. */
struct Analyzed
{
    AnalysisStats stats;
    std::vector<u8> bytes;
    MaterializedImage image;
};

StatusOr<Analyzed>
finishAndOpen(StatusOr<AnalysisResult> result)
{
    if (!result.isOk()) {
        return result.status();
    }
    Analyzed out;
    out.stats = result->stats;
    out.bytes = result->image.finish({});
    MEDUSA_ASSIGN_OR_RETURN(
        out.image, MaterializedImage::openView(std::span<const u8>(out.bytes)));
    return out;
}

/**
 * The data relocation of param @p p of node @p n of graph 0, or null
 * when that param is a constant.
 */
const MaterializedImage::DataReloc *
relocOf(const MaterializedImage &image, u32 n, u32 p)
{
    const MaterializedImage::GraphView &g = image.graphs.at(0);
    const u64 slot = g.param_slot_begin + g.param_begin[n] + p;
    for (const MaterializedImage::DataReloc &rel : image.data_relocs) {
        if (rel.slot == slot) {
            return &rel;
        }
    }
    return nullptr;
}

/** A tiny offline "process" with interception wired up. */
struct Offline
{
    explicit Offline(u64 seed = 1)
        : process(options(seed), &clock, &cost), alloc(&process, seed)
    {
        alloc.setObserver(&recorder);
        process.setLaunchObserver(&recorder);
        recorder.markOrganicBoundary();
        recorder.markCaptureStageBegin();
    }

    static GpuProcessOptions
    options(u64 seed)
    {
        GpuProcessOptions o;
        o.aslr_seed = seed;
        return o;
    }

    /** Capture a one-node copy_f32 graph with the given params. */
    StatusOr<CudaGraph>
    captureCopy(DeviceAddr src, DeviceAddr dst, i32 count)
    {
        const auto &k = BuiltinKernels::get();
        // Warm the module outside capture.
        ParamsBuilder warm;
        warm.ptr(src).ptr(dst).i32(0);
        MEDUSA_RETURN_IF_ERROR(process.defaultStream().launch(
            k.copy_f32, warm.view(), {}));
        recorder.beginGraph(1);
        MEDUSA_RETURN_IF_ERROR(
            process.beginCapture(process.defaultStream()));
        ParamsBuilder pb;
        pb.ptr(src).ptr(dst).i32(count);
        Status st = process.defaultStream().launch(k.copy_f32,
                                                   pb.view(), {});
        auto graph = process.endCapture(process.defaultStream());
        recorder.endGraph();
        if (!st.isOk()) {
            return st;
        }
        return graph;
    }

    StatusOr<Analyzed>
    analyzeGraph(const CudaGraph &graph, bool trace_based)
    {
        AnalyzeOptions opts;
        opts.trace_based_matching = trace_based;
        std::vector<std::pair<u32, CudaGraph>> graphs = {{1, graph}};
        return finishAndOpen(analyze(recorder, process, "test-model", 1,
                                     graphs, units::GiB, opts));
    }

    SimClock clock;
    CostModel cost;
    GpuProcess process;
    CachingAllocator alloc;
    Recorder recorder;
    /** Buffers a test may stash for its capture callback. */
    DeviceAddr src = 0, perm = 0, dst = 0;
};

TEST(AnalyzeTest, PointerHeuristic)
{
    EXPECT_TRUE(looksLikeDevicePointer(0x7f2000001000ull));
    EXPECT_TRUE(looksLikeDevicePointer(0x7fab00000008ull)); // decoy range
    EXPECT_FALSE(looksLikeDevicePointer(64));
    EXPECT_FALSE(looksLikeDevicePointer(0x800000000000ull));
}

TEST(AnalyzeTest, ClassifiesConstantsAndPointers)
{
    Offline off;
    auto src = off.alloc.allocate(4096, 64);
    auto dst = off.alloc.allocate(4096, 64);
    auto graph = off.captureCopy(*src, *dst, 7);
    ASSERT_TRUE(graph.isOk());
    auto result = off.analyzeGraph(*graph, true);
    ASSERT_TRUE(result.isOk());

    const MaterializedImage &image = result->image;
    ASSERT_EQ(image.graphs.size(), 1u);
    ASSERT_EQ(image.graphs[0].param_begin[1], 3u);
    ASSERT_NE(relocOf(image, 0, 0), nullptr);
    EXPECT_EQ(relocOf(image, 0, 0)->alloc_index, 0u);
    ASSERT_NE(relocOf(image, 0, 1), nullptr);
    EXPECT_EQ(relocOf(image, 0, 1)->alloc_index, 1u);
    EXPECT_EQ(relocOf(image, 0, 2), nullptr);
    EXPECT_EQ(result->stats.pointer_params, 2u);
    EXPECT_EQ(result->stats.constant_params, 1u);
    ASSERT_EQ(image.kernel_relocs.size(), 1u);
    const auto &kernel =
        image.kernel_table.at(image.kernel_relocs[0].kernel_index);
    EXPECT_EQ(kernel.name, simcuda::KernelRegistry::instance()
                               .def(BuiltinKernels::get().copy_f32)
                               .mangled_name);
    EXPECT_EQ(kernel.module, simcuda::kTorchModule);
}

TEST(AnalyzeTest, InteriorPointerGetsOffset)
{
    Offline off;
    auto src = off.alloc.allocate(4096, 256);
    auto dst = off.alloc.allocate(4096, 256);
    auto graph = off.captureCopy(*src + 128, *dst, 4);
    ASSERT_TRUE(graph.isOk());
    auto result = off.analyzeGraph(*graph, true);
    ASSERT_TRUE(result.isOk());
    const MaterializedImage::DataReloc *p = relocOf(result->image, 0, 0);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->alloc_index, 0u);
    EXPECT_EQ(p->addend, 128u);
}

TEST(AnalyzeTest, DecoyCandidateDemotedToConstant)
{
    // An 8-byte constant in the device-address-looking range that
    // matches no allocation: the paper's rare false-positive case,
    // resolved by trace search coming up empty.
    Offline off;
    auto src = off.alloc.allocate(4096, 64);
    auto dst = off.alloc.allocate(4096, 64);
    const auto &k = BuiltinKernels::get();
    ParamsBuilder warm;
    warm.ptr(*src).ptr(*dst).i32(0);
    ASSERT_TRUE(off.process.defaultStream()
                    .launch(k.copy_f32, warm.view(), {})
                    .isOk());

    // Hand-build a one-node "graph" whose i32 param is widened to a
    // decoy i64 via a synthetic launch record: easiest is a real graph
    // plus checking the stats path through paged attention's stream
    // tag in the integration tests; here we test the matcher directly.
    off.recorder.beginGraph(1);
    ASSERT_TRUE(
        off.process.beginCapture(off.process.defaultStream()).isOk());
    ParamsBuilder pb;
    pb.ptr(*src).ptr(0x7fab00000001ull).i32(4); // dst "pointer" is decoy
    Status st = off.process.defaultStream().launch(k.copy_f32,
                                                   pb.view(), {});
    auto graph = off.process.endCapture(off.process.defaultStream());
    off.recorder.endGraph();
    ASSERT_TRUE(st.isOk());
    ASSERT_TRUE(graph.isOk());

    auto result = off.analyzeGraph(*graph, true);
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(relocOf(result->image, 0, 1), nullptr);
    EXPECT_EQ(result->stats.decoy_candidates, 1u);
}

TEST(AnalyzeTest, TraceBasedMatchingPicksLiveAllocationUnderReuse)
{
    Offline off;
    // Buffer X allocated, freed; Y reuses the same address. The graph
    // uses Y: trace-based matching must bind to Y's event (index 1),
    // naive matching binds to X's (index 0) — Figure 6's setup.
    auto x = off.alloc.allocate(2048, 64);
    ASSERT_TRUE(off.alloc.free(*x).isOk());
    auto y = off.alloc.allocate(2048, 64);
    ASSERT_EQ(*x, *y);
    auto dst = off.alloc.allocate(512, 64);

    auto graph = off.captureCopy(*y, *dst, 4);
    ASSERT_TRUE(graph.isOk());

    auto traced = off.analyzeGraph(*graph, true);
    ASSERT_TRUE(traced.isOk());
    EXPECT_EQ(relocOf(traced->image, 0, 0)->alloc_index, 1u);

    auto naive = off.analyzeGraph(*graph, false);
    ASSERT_TRUE(naive.isOk());
    EXPECT_EQ(relocOf(naive->image, 0, 0)->alloc_index, 0u);
}

TEST(AnalyzeTest, BufferContentClasses)
{
    // A bespoke harness so we control the capture-stage marker.
    SimClock clock;
    CostModel cost;
    GpuProcess process(Offline::options(3), &clock, &cost);
    CachingAllocator alloc(&process, 3);
    Recorder recorder;
    alloc.setObserver(&recorder);
    process.setLaunchObserver(&recorder);
    recorder.markOrganicBoundary();

    auto weight = alloc.allocate(4096, 16); // before capture stage
    recorder.markCaptureStageBegin();
    auto temp = alloc.allocate(512, 16);   // freed later: temporary
    auto perm = alloc.allocate(512, 16);   // kept: permanent
    const u32 magic = 0xbeefcafe;
    ASSERT_TRUE(
        process.memory().write(*perm, &magic, sizeof(magic)).isOk());

    // Warm + capture one node touching all three buffers... copy has
    // only two pointers; capture two nodes.
    const auto &k = BuiltinKernels::get();
    ParamsBuilder warm;
    warm.ptr(*weight).ptr(*temp).i32(0);
    ASSERT_TRUE(process.defaultStream()
                    .launch(k.copy_f32, warm.view(), {})
                    .isOk());
    recorder.beginGraph(1);
    ASSERT_TRUE(process.beginCapture(process.defaultStream()).isOk());
    ParamsBuilder n1;
    n1.ptr(*weight).ptr(*temp).i32(4);
    ASSERT_TRUE(process.defaultStream()
                    .launch(k.copy_f32, n1.view(), {})
                    .isOk());
    ParamsBuilder n2;
    n2.ptr(*temp).ptr(*perm).i32(4);
    ASSERT_TRUE(process.defaultStream()
                    .launch(k.copy_f32, n2.view(), {})
                    .isOk());
    auto graph = process.endCapture(process.defaultStream());
    recorder.endGraph();
    ASSERT_TRUE(graph.isOk());
    ASSERT_TRUE(alloc.free(*temp).isOk()); // temp deallocated after

    AnalyzeOptions opts;
    std::vector<std::pair<u32, CudaGraph>> graphs = {{1, *graph}};
    auto result =
        finishAndOpen(analyze(recorder, process, "m", 1, graphs, 1, opts));
    ASSERT_TRUE(result.isOk());
    const auto &stats = result->stats;
    EXPECT_EQ(stats.model_param_buffers, 1u);
    EXPECT_EQ(stats.temp_buffers, 1u);
    EXPECT_EQ(stats.permanent_buffers, 1u);
    ASSERT_EQ(result->image.permanent.size(), 1u);
    // The permanent buffer's contents (the magic) are materialized.
    const auto &contents = result->image.permanent[0].contents;
    ASSERT_EQ(contents.size(), 16u);
    u32 stored = 0;
    std::memcpy(&stored, contents.data(), 4);
    EXPECT_EQ(stored, 0xbeefcafeu);
}

TEST(AnalyzeTest, NaiveMatchingCorruptsReusedBuffer)
{
    // The functional Figure 6 proof. Offline: two same-class buffers
    // T0, T1 are allocated and freed; Q then reuses ONE of them
    // (process-dependent choice) and carries real data into a captured
    // copy kernel. Naive matching binds Q's pointer to the stale T
    // event at the same address. Online (a different process), the
    // replay's reuse choice differs for some seed, so the naive
    // binding resolves to the WRONG buffer and the kernel reads stale
    // zeros, while the trace-based binding always restores the data.
    Offline off(1);
    auto t0 = off.alloc.allocate(1024, 32); // event 0
    auto t1 = off.alloc.allocate(1024, 32); // event 1
    ASSERT_TRUE(off.alloc.free(*t0).isOk());
    ASSERT_TRUE(off.alloc.free(*t1).isOk());
    auto q = off.alloc.allocate(1024, 32); // event 2: reuses t0 or t1
    auto out = off.alloc.allocate(1024, 32); // event 3
    const std::vector<f32> data = {1.5f, -2.5f, 3.5f, 4.5f};
    ASSERT_TRUE(
        off.process.memory().write(*q, data.data(), 16).isOk());

    auto graph = off.captureCopy(*q, *out, 4);
    ASSERT_TRUE(graph.isOk());

    auto traced = off.analyzeGraph(*graph, true);
    auto naive = off.analyzeGraph(*graph, false);
    ASSERT_TRUE(traced.isOk() && naive.isOk());
    ASSERT_EQ(relocOf(traced->image, 0, 0)->alloc_index, 2u);
    const u64 naive_index = relocOf(naive->image, 0, 0)->alloc_index;
    EXPECT_LT(naive_index, 2u); // bound to a stale T event

    // Mini online restore: replay the op sequence in a fresh process,
    // restore permanent contents, patch the pointer per its relocation,
    // run the kernel, and read the output back.
    auto restoreAndRun = [&](const MaterializedImage &image,
                             u64 seed) -> std::vector<f32> {
        SimClock clock;
        CostModel cost;
        GpuProcess process(Offline::options(seed), &clock, &off.cost);
        CachingAllocator alloc(&process, seed);
        std::vector<DeviceAddr> addr_of;
        for (const AllocOp &op : image.ops) {
            if (op.kind == AllocOp::kAlloc) {
                addr_of.push_back(*alloc.allocate(op.logical_size,
                                                  op.backing_size));
            } else {
                MEDUSA_CHECK(
                    alloc.free(addr_of[op.freed_alloc_index]).isOk(),
                    "replay free");
            }
        }
        for (const MaterializedImage::PermanentView &pb : image.permanent) {
            MEDUSA_CHECK(process.memory()
                             .write(addr_of[pb.alloc_index],
                                    pb.contents.data(),
                                    pb.contents.size())
                             .isOk(),
                         "content restore");
        }
        const MaterializedImage::GraphView &g = image.graphs[0];
        simcuda::LaunchParams params;
        for (u32 p = 0; p < g.param_begin[1]; ++p) {
            u64 value = image.patch_template[g.param_slot_begin + p];
            if (const auto *rel = relocOf(image, 0, p)) {
                value = addr_of[rel->alloc_index] + rel->addend;
            }
            params.push({value, g.param_len[p]});
        }
        const auto &k = BuiltinKernels::get();
        MEDUSA_CHECK(process.defaultStream()
                         .launch(k.copy_f32, params.view(), {})
                         .isOk(),
                     "restored kernel run");
        // Output is event 3.
        std::vector<f32> got(4);
        MEDUSA_CHECK(
            process.memory().read(addr_of[3], got.data(), 16).isOk(),
            "read output");
        return got;
    };

    bool naive_corrupted_somewhere = false;
    for (u64 seed = 100; seed < 130; ++seed) {
        const auto traced_out = restoreAndRun(traced->image, seed);
        // Trace-based restoration is correct in EVERY process layout.
        ASSERT_EQ(traced_out, data) << "seed " << seed;
        const auto naive_out = restoreAndRun(naive->image, seed);
        if (naive_out != data) {
            naive_corrupted_somewhere = true;
        }
    }
    EXPECT_TRUE(naive_corrupted_somewhere)
        << "naive matching never diverged across 30 process layouts";
}

TEST(AnalyzeTest, TaintedPermanentBufferMustBeRewrittenBeforeItIsRead)
{
    // A shape-only capture: `perm` is written by a skipped body, so its
    // contents are undefined when the analysis would dump them.
    auto scenario = [](auto &&capture) {
        auto off = std::make_unique<Offline>();
        off->process.discardContents();
        off->src = *off->alloc.allocate(4096, 64);
        off->perm = *off->alloc.allocate(4096, 64);
        off->dst = *off->alloc.allocate(4096, 64);
        const std::vector<f32> ones(16, 1.0f);
        MEDUSA_CHECK(off->process.memcpyH2D(off->src, ones.data(), 64, 64)
                         .isOk(),
                     "stage src");
        ParamsBuilder warm;
        warm.ptr(off->src).ptr(off->perm).i32(16);
        MEDUSA_CHECK(off->process.defaultStream()
                         .launch(BuiltinKernels::get().copy_f32,
                                 warm.view(), {})
                         .isOk(),
                     "skipped write");
        auto graph = capture(*off);
        MEDUSA_CHECK(graph.isOk(), "capture");
        return off->analyzeGraph(*graph, true);
    };

    // Rewritten whole (offset 0, kWrite) before any read: no contents,
    // as for a temporary. `src` is defined and keeps its contents.
    auto rewritten = scenario(
        [](Offline &o) { return o.captureCopy(o.src, o.perm, 16); });
    ASSERT_TRUE(rewritten.isOk()) << rewritten.status().toString();
    EXPECT_EQ(rewritten->stats.rewritten_buffers, 1u);
    ASSERT_EQ(rewritten->image.permanent.size(), 1u);
    EXPECT_EQ(rewritten->image.permanent[0].alloc_index, 0u);

    // Read first, or rewritten only from an interior offset: the
    // analysis refuses instead of dumping undefined bytes.
    for (auto capture :
         {+[](Offline &o) { return o.captureCopy(o.perm, o.dst, 16); },
          +[](Offline &o) {
              return o.captureCopy(o.src, o.perm + 8, 4);
          }}) {
        auto refused = scenario(capture);
        ASSERT_FALSE(refused.isOk());
        EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
        EXPECT_NE(refused.status().message().find("allocation 1"),
                  std::string::npos)
            << refused.status().toString();
    }
}

TEST(AnalyzeTest, ReadFirstTaintedSemaphoresFailMaterialize)
{
    // The split-K GEMM only reads its semaphore workspaces, so they are
    // declared kSemaphore and a skipped body leaves them defined.
    // Declared kReadWrite instead, a skipped body taints them; every
    // graph reads them first, so materialize must fail rather than
    // emit undefined semaphore words.
    const simcuda::KernelId splitk = BuiltinKernels::get().gemm_splitk;
    auto &def = const_cast<simcuda::KernelDef &>(
        simcuda::KernelRegistry::instance().def(splitk));
    const std::vector<simcuda::ParamAccess> declared = def.access;
    struct Restore
    {
        simcuda::KernelDef &def;
        std::vector<simcuda::ParamAccess> access;
        ~Restore() { def.access = access; }
    } restore{def, declared};
    def.access[0] = def.access[1] = simcuda::ParamAccess::kReadWrite;

    llm::ModelConfig m = llm::findModel("Qwen1.5-0.5B").value();
    m.num_layers = 2;
    OfflineOptions opts;
    opts.model = m;
    opts.pipeline.validate = false;
    auto offline = materialize(opts);
    ASSERT_FALSE(offline.isOk());
    EXPECT_EQ(offline.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(offline.status().message().find("permanent buffer"),
              std::string::npos)
        << offline.status().toString();

    def.access = declared;
    EXPECT_TRUE(materialize(opts).isOk());
}

} // namespace
} // namespace medusa::core
