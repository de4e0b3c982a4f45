/**
 * @file
 * medusa-lint corpus tests. Every specimen is a hand-built or analyzed
 * artifact emitted as a v6 image and linted the way it ships: a clean
 * specimen lints to zero diagnostics, every rule family has a corrupted
 * specimen that fires with the right rule ID (and a non-firing twin),
 * the Figure-6 naive-matching capture is flagged statically, and the
 * offline / pre-restore lint gates accept clean and reject corrupt
 * images.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <span>

#include "common/crc32.h"
#include "common/fault.h"
#include "common/json.h"
#include "common/serialize.h"
#include "medusa/analyze.h"
#include "medusa/image.h"
#include "medusa/lint/lint.h"
#include "medusa/offline.h"
#include "medusa/record.h"
#include "medusa/restore.h"
#include "medusa/tp.h"
#include "simcuda/caching_allocator.h"
#include "simcuda/kernels/builtin.h"
#include "test_image.h"

namespace medusa::core {
namespace {

using lint::LintOptions;
using lint::LintReport;
using lint::Severity;
using simcuda::BuiltinKernels;
using simcuda::CachingAllocator;
using simcuda::CudaGraph;
using simcuda::GpuProcess;
using simcuda::GpuProcessOptions;
using simcuda::KernelRegistry;
using simcuda::ParamsBuilder;

/** Device capacity used by the hand-built corpus. */
constexpr u64 kCap = 1ull * units::MiB;

bool
hasRule(const LintReport &report, const std::string &rule)
{
    return std::any_of(report.diagnostics.begin(),
                       report.diagnostics.end(),
                       [&rule](const lint::Diagnostic &d) {
                           return d.rule == rule;
                       });
}

LintOptions
corpusOptions()
{
    LintOptions o;
    o.device_memory_bytes = kCap;
    return o;
}

AllocOp
allocOp(u64 logical, u64 backing)
{
    AllocOp op;
    op.kind = AllocOp::kAlloc;
    op.logical_size = logical;
    op.backing_size = backing;
    return op;
}

AllocOp
freeOp(u64 index)
{
    AllocOp op;
    op.kind = AllocOp::kFree;
    op.freed_alloc_index = index;
    return op;
}

ParamSpec
indirect(u64 alloc_index, u64 offset = 0)
{
    ParamSpec p;
    p.kind = ParamSpec::kIndirect;
    p.alloc_index = alloc_index;
    p.offset = offset;
    return p;
}

ParamSpec
constant32(i32 v)
{
    ParamSpec p;
    p.kind = ParamSpec::kConstant;
    p.constant_bytes.resize(4);
    std::memcpy(p.constant_bytes.data(), &v, 4);
    return p;
}

/**
 * A minimal well-formed artifact: one organic allocation that later
 * holds permanent contents, a freed temporary, and a graph buffer; one
 * single-node graph over a real registry kernel; a free-memory figure
 * reproducible at the end of the sequence.
 */
Artifact
cleanArtifact()
{
    Artifact a;
    a.model_name = "corpus-model";
    a.model_seed = 1;
    a.ops = {
        allocOp(1024, 1024), // 0: permanent (organic prefix)
        allocOp(512, 512),   // 1: temporary
        freeOp(1),
        allocOp(2048, 64),   // 2: graph buffer
    };
    a.organic_op_count = 1;
    a.organic_alloc_count = 1;
    // Live at end: 1024 + 2048 (both already 512-multiples).
    a.free_gpu_memory = kCap - 3072;

    const KernelRegistry &reg = KernelRegistry::instance();
    const auto &def = reg.def(BuiltinKernels::get().copy_f32);
    GraphBlueprint g;
    g.batch_size = 1;
    NodeBlueprint n;
    n.kernel_name = def.mangled_name;
    n.module_name = def.module_name;
    n.params = {indirect(0), indirect(2), constant32(4)};
    g.nodes.push_back(std::move(n));
    a.graphs.push_back(std::move(g));

    PermanentBuffer pb;
    pb.alloc_index = 0;
    pb.contents.assign(16, 0);
    a.permanent.push_back(std::move(pb));
    return a;
}

/** Flatten @p a into v6 image bytes; aborts on an emit failure. */
std::vector<u8>
imageBytesOf(const Artifact &a)
{
    auto bytes = buildImageBytes(a, {});
    MEDUSA_CHECK(bytes.isOk(), "image build: " << bytes.status().toString());
    return std::move(bytes).value();
}

/** Lint @p a the way it ships: emitted as an image, then linted. */
LintReport
lintOf(const Artifact &a, const LintOptions &options = corpusOptions())
{
    const std::vector<u8> bytes = imageBytesOf(a);
    return lint::lintImageBytes(std::span<const u8>(bytes), options);
}

/** Recompute the payload CRC after a byte edit (header offset 16). */
void
resealImage(std::vector<u8> &bytes)
{
    const u32 crc = crc32(bytes.data() + MaterializedImage::kHeaderBytes,
                          bytes.size() - MaterializedImage::kHeaderBytes);
    std::memcpy(bytes.data() + 16, &crc, sizeof(crc));
}

/** Byte offset of a zero-copy image span inside its backing bytes. */
template <typename T>
std::size_t
offsetIn(const std::vector<u8> &bytes, std::span<const T> view)
{
    return static_cast<std::size_t>(
        reinterpret_cast<const u8 *>(view.data()) - bytes.data());
}

TEST(LintTest, CleanArtifactLintsToZeroDiagnostics)
{
    const LintReport r = lintOf(cleanArtifact());
    EXPECT_TRUE(r.clean()) << r.toText();
    EXPECT_TRUE(r.replaySafe());
    EXPECT_EQ(r.firstError(), "");
}

// ---- MDL1xx ------------------------------------------------------------

TEST(LintTest, DoubleFreeFiresMdl101)
{
    Artifact a = cleanArtifact();
    a.ops.push_back(freeOp(1)); // index 1 is already freed
    const LintReport r = lintOf(a);
    EXPECT_TRUE(hasRule(r, "MDL101")) << r.toText();
    EXPECT_FALSE(r.replaySafe());
    // A single free of a live index does not fire.
    EXPECT_FALSE(hasRule(lintOf(cleanArtifact()), "MDL101"));
}

TEST(LintTest, FreeOfUnknownIndexFiresMdl102)
{
    Artifact a = cleanArtifact();
    a.ops.push_back(freeOp(9)); // only 3 allocations exist
    const LintReport r = lintOf(a);
    EXPECT_TRUE(hasRule(r, "MDL102")) << r.toText();
    EXPECT_FALSE(r.replaySafe());
}

TEST(LintTest, CrossBoundaryFreeOfOrganicAllocWarnsMdl103)
{
    Artifact a = cleanArtifact();
    a.ops.push_back(freeOp(0)); // organic index freed by the replay
    // Detach everything else from allocation 0 so only the boundary
    // violation itself is reported.
    a.permanent.clear();
    a.graphs[0].nodes[0].params[0] = indirect(2);
    const LintReport r = lintOf(a);
    EXPECT_TRUE(hasRule(r, "MDL103")) << r.toText();
    // Warning severity: suspicious, but replay does not fault.
    EXPECT_TRUE(r.replaySafe());
    EXPECT_FALSE(r.clean());
    // A replayed free of a replayed allocation does not warn (the
    // clean artifact frees index 1, allocated after the boundary).
    EXPECT_FALSE(hasRule(lintOf(cleanArtifact()), "MDL103"));
}

TEST(LintTest, BadAllocSizesFireMdl104)
{
    Artifact zero = cleanArtifact();
    zero.ops[1].logical_size = 0;
    zero.ops[1].backing_size = 0;
    EXPECT_TRUE(hasRule(lintOf(zero), "MDL104"));

    Artifact oversized = cleanArtifact();
    oversized.ops[1].logical_size = kCap + 1;
    EXPECT_TRUE(hasRule(lintOf(oversized), "MDL104"));

    Artifact inverted = cleanArtifact();
    inverted.ops[3].backing_size = inverted.ops[3].logical_size + 1;
    EXPECT_TRUE(hasRule(lintOf(inverted), "MDL104"));

    // backing == logical is legal (full-content buffers).
    EXPECT_FALSE(hasRule(lintOf(cleanArtifact()), "MDL104"));
}

TEST(LintTest, MalformedReplayBoundaryFiresMdl105)
{
    Artifact beyond = cleanArtifact();
    beyond.organic_op_count = beyond.ops.size() + 5;
    EXPECT_TRUE(hasRule(lintOf(beyond), "MDL105"));

    Artifact miscount = cleanArtifact();
    miscount.organic_alloc_count = 2; // prefix has exactly 1 alloc
    EXPECT_TRUE(hasRule(lintOf(miscount), "MDL105"));
}

// ---- retired MDL2xx specimens, caught by MDL701/MDL702 -----------------

TEST(LintTest, IndirectIndexBeyondSequenceFiresMdl701)
{
    // Formerly MDL201; the relocation's allocation index is beyond the
    // replay table, which MDL701 reports.
    Artifact a = cleanArtifact();
    a.graphs[0].nodes[0].params[0] = indirect(99);
    const LintReport r = lintOf(a);
    EXPECT_TRUE(hasRule(r, "MDL701")) << r.toText();
    EXPECT_FALSE(r.replaySafe());
}

TEST(LintTest, StalePointerAtInferredLaunchPositionFiresMdl702)
{
    // Formerly MDL202, now MDL702. The graph references allocation 1,
    // which is freed BEFORE allocation 2 — another buffer the same
    // graph references — is created. The launch therefore provably
    // happened after the free.
    Artifact a = cleanArtifact();
    a.graphs[0].nodes[0].params[0] = indirect(1);
    const LintReport r = lintOf(a);
    EXPECT_TRUE(hasRule(r, "MDL702")) << r.toText();
    EXPECT_FALSE(r.replaySafe());

    // Non-firing twin: the same stale reference WITHOUT the later
    // co-referenced allocation is not provably stale (the launch could
    // have preceded the free), so the static rule stays silent.
    Artifact benign = cleanArtifact();
    benign.graphs[0].nodes[0].params = {indirect(1), indirect(0),
                                        constant32(4)};
    EXPECT_FALSE(hasRule(lintOf(benign), "MDL702"));
}

TEST(LintTest, TraceExactLaunchPositionFiresMdl702)
{
    // The benign twin above: the per-graph lower bound cannot place
    // the launch after allocation 1's free...
    Artifact a = cleanArtifact();
    a.graphs[0].nodes[0].params = {indirect(1), indirect(0),
                                   constant32(4)};
    EXPECT_FALSE(hasRule(lintOf(a), "MDL702"));

    // ...but the recorder trace says the launch happened at ops[4],
    // after the free at ops[2]: the exact position proves it stale.
    Recorder trace;
    trace.onAlloc(0, 0x7f2000000000ull, 1024, 1024);
    trace.onAlloc(1, 0x7f2000100000ull, 512, 512);
    trace.onFree(0x7f2000100000ull);
    trace.onAlloc(2, 0x7f2000200000ull, 2048, 64);
    trace.beginGraph(1);
    trace.onKernelLaunch(0x1000, {}, true);
    trace.endGraph();
    LintOptions traced = corpusOptions();
    traced.trace = &trace;
    const LintReport r = lintOf(a, traced);
    EXPECT_TRUE(hasRule(r, "MDL702")) << r.toText();
    EXPECT_NE(r.toText().find("exactly ops[4]"), std::string::npos)
        << r.toText();
}

TEST(LintTest, IndirectOffsetOutsideAllocationFiresMdl701)
{
    // Formerly MDL203; an addend outside the allocation is MDL701.
    Artifact a = cleanArtifact();
    a.graphs[0].nodes[0].params[0] = indirect(0, 4096); // 1024B buffer
    EXPECT_TRUE(hasRule(lintOf(a), "MDL701"));
    // An aligned interior offset inside the buffer is fine.
    Artifact interior = cleanArtifact();
    interior.graphs[0].nodes[0].params[0] = indirect(0, 1020);
    EXPECT_TRUE(lintOf(interior).clean());
}

// ---- MDL3xx ------------------------------------------------------------

TEST(LintTest, UnknownKernelNameFiresMdl301)
{
    Artifact a = cleanArtifact();
    a.graphs[0].nodes[0].kernel_name = "_ZN4fake6kernelEv";
    EXPECT_TRUE(hasRule(lintOf(a), "MDL301"));
    // Registry checking can be disabled for foreign kernel zoos.
    LintOptions no_reg = corpusOptions();
    no_reg.check_kernel_registry = false;
    EXPECT_FALSE(hasRule(lintOf(a, no_reg), "MDL301"));
}

TEST(LintTest, KernelModuleMismatchFiresMdl302)
{
    Artifact a = cleanArtifact();
    a.graphs[0].nodes[0].module_name = "libwrong.so";
    EXPECT_TRUE(hasRule(lintOf(a), "MDL302"));
}

TEST(LintTest, EdgeBeyondNodeCountFiresMdl303)
{
    // Emission refuses a corrupt edge, so the specimen byte-edits the
    // edge column of a clean two-node image and reseals its CRC.
    Artifact a = cleanArtifact();
    a.graphs[0].nodes.push_back(a.graphs[0].nodes[0]);
    a.graphs[0].edges = {{0, 1}};
    const std::vector<u8> clean = imageBytesOf(a);
    auto view = MaterializedImage::openView(std::span<const u8>(clean));
    ASSERT_TRUE(view.isOk()) << view.status().toString();
    const std::size_t edges_off = offsetIn(clean, view->graphs[0].edges);
    const std::size_t order_off = offsetIn(clean, view->graphs[0].order);
    EXPECT_TRUE(
        lint::lintImageBytes(std::span<const u8>(clean), corpusOptions())
            .clean());

    std::vector<u8> bad_edge = clean;
    const simcuda::GraphEdge beyond{0, 5}; // only 2 nodes
    std::memcpy(bad_edge.data() + edges_off, &beyond, sizeof(beyond));
    resealImage(bad_edge);
    const LintReport r = lint::lintImageBytes(
        std::span<const u8>(bad_edge), corpusOptions());
    EXPECT_TRUE(hasRule(r, "MDL303")) << r.toText();

    // An order that runs node 1 before node 0 violates the edge.
    std::vector<u8> bad_order = clean;
    const u32 reversed[] = {1, 0};
    std::memcpy(bad_order.data() + order_off, reversed, sizeof(reversed));
    resealImage(bad_order);
    const LintReport o = lint::lintImageBytes(
        std::span<const u8>(bad_order), corpusOptions());
    EXPECT_TRUE(hasRule(o, "MDL303")) << o.toText();
}

TEST(LintTest, DuplicateBatchSizeFiresMdl304)
{
    Artifact a = cleanArtifact();
    a.graphs.push_back(a.graphs[0]);
    EXPECT_TRUE(hasRule(lintOf(a), "MDL304"));
}

// ---- MDL4xx ------------------------------------------------------------

TEST(LintTest, UncoveredPointerShapedWordWarnsMdl401)
{
    Artifact a = cleanArtifact();
    const u64 ptr = 0x7f2000001000ull; // in the device address range
    a.permanent[0].contents.resize(16);
    std::memcpy(a.permanent[0].contents.data(), &ptr, 8);
    const LintReport r = lintOf(a);
    EXPECT_TRUE(hasRule(r, "MDL401")) << r.toText();
    EXPECT_TRUE(r.replaySafe()); // warning, not error

    // Covering the word with a PointerWordFix silences the warning.
    PointerWordFix fix;
    fix.buffer_alloc_index = 0;
    fix.byte_offset = 0;
    fix.target_alloc_index = 2;
    fix.target_offset = 0;
    a.pointer_fixes.push_back(fix);
    const LintReport covered = lintOf(a);
    EXPECT_FALSE(hasRule(covered, "MDL401")) << covered.toText();
    EXPECT_TRUE(covered.clean());
}

TEST(LintTest, InvalidPointerFixFiresMdl402)
{
    // Fix inside a buffer with no materialized contents.
    Artifact nohost = cleanArtifact();
    PointerWordFix fix;
    fix.buffer_alloc_index = 2; // not a permanent buffer
    fix.byte_offset = 0;
    fix.target_alloc_index = 0;
    nohost.pointer_fixes.push_back(fix);
    EXPECT_TRUE(hasRule(lintOf(nohost), "MDL402"));

    // Fix word overrunning the materialized contents.
    Artifact overrun = cleanArtifact();
    fix.buffer_alloc_index = 0;
    fix.byte_offset = 12; // 16-byte contents; word needs [12, 20)
    overrun.pointer_fixes.push_back(fix);
    EXPECT_TRUE(hasRule(lintOf(overrun), "MDL402"));

    // Fix pointing at a freed allocation: the word would dangle.
    Artifact dangling = cleanArtifact();
    fix.byte_offset = 0;
    fix.target_alloc_index = 1; // freed temporary
    dangling.pointer_fixes.push_back(fix);
    EXPECT_TRUE(hasRule(lintOf(dangling), "MDL402"));

    // A valid fix is accepted (see the MDL401 covered case above).
}

TEST(LintTest, PermanentContentsForDeadBufferFireMdl403)
{
    Artifact freed = cleanArtifact();
    freed.permanent[0].alloc_index = 1; // the freed temporary
    freed.permanent[0].contents.assign(16, 0);
    EXPECT_TRUE(hasRule(lintOf(freed), "MDL403"));

    Artifact oversize = cleanArtifact();
    oversize.permanent[0].contents.assign(2048, 0); // 1024B backing
    EXPECT_TRUE(hasRule(lintOf(oversize), "MDL403"));

    Artifact dup = cleanArtifact();
    dup.permanent.push_back(dup.permanent[0]);
    EXPECT_TRUE(hasRule(lintOf(dup), "MDL403"));
}

// ---- MDL5xx ------------------------------------------------------------

TEST(LintTest, UnreproducibleFreeMemoryFiguresFireMdl501)
{
    Artifact a = cleanArtifact();
    a.free_gpu_memory = kCap - 100; // no prefix yields this footprint
    const LintReport r = lintOf(a);
    EXPECT_TRUE(hasRule(r, "MDL501")) << r.toText();

    // The mid-sequence footprint (both early buffers live) is also a
    // valid profiling point and must be accepted.
    Artifact mid = cleanArtifact();
    mid.free_gpu_memory = kCap - (1024 + 512);
    EXPECT_FALSE(hasRule(lintOf(mid), "MDL501"));
}

TEST(LintTest, CapacityViolationsFireMdl502)
{
    Artifact over = cleanArtifact();
    over.free_gpu_memory = kCap + 1;
    EXPECT_TRUE(hasRule(lintOf(over), "MDL502"));

    LintOptions tiny = corpusOptions();
    tiny.device_memory_bytes = 2048; // sequence peaks above this
    Artifact a = cleanArtifact();
    a.free_gpu_memory = 2048 - 1536;
    EXPECT_TRUE(hasRule(lintOf(a, tiny), "MDL502"));
}

// ---- MDL6xx ------------------------------------------------------------

/** Per-rank corpus twins with two collective nodes each. */
std::vector<Artifact>
tpArtifacts()
{
    Artifact rank = cleanArtifact();
    NodeBlueprint reduce;
    reduce.kernel_name = "ncclAllReduce_f32";
    reduce.module_name = "libsimnccl.so";
    reduce.params = {indirect(0), constant32(4)};
    NodeBlueprint gather;
    gather.kernel_name = "ncclAllGather_f32";
    gather.module_name = "libsimnccl.so";
    gather.params = {indirect(2), constant32(4)};
    rank.graphs[0].nodes.push_back(reduce);
    rank.graphs[0].nodes.push_back(gather);
    // A capture on one stream serializes compute before the
    // collectives; the chain also keeps MDL8xx (which cannot classify
    // the out-of-registry nccl kernels) out of the MDL6xx tests.
    rank.graphs[0].edges = {{0, 1}, {1, 2}};
    return {rank, rank};
}

LintOptions
tpOptions()
{
    LintOptions o = corpusOptions();
    // The corpus collective kernels are not in the builtin registry.
    o.check_kernel_registry = false;
    return o;
}

/** Emit each rank as an image and run the per-rank + MDL6xx rules. */
LintReport
lintTpOf(const std::vector<Artifact> &ranks)
{
    std::vector<std::vector<u8>> bytes;
    std::vector<MaterializedImage> images;
    for (const Artifact &a : ranks) {
        bytes.push_back(imageBytesOf(a));
    }
    for (const std::vector<u8> &b : bytes) {
        auto image = MaterializedImage::openView(std::span<const u8>(b));
        MEDUSA_CHECK(image.isOk(), image.status().toString());
        images.push_back(std::move(image).value());
    }
    return lint::lintTpImages(images, tpOptions());
}

TEST(LintTest, ConsistentRanksLintClean)
{
    const LintReport r = lintTpOf(tpArtifacts());
    EXPECT_TRUE(r.clean()) << r.toText();
}

TEST(LintTest, RankIdentityMismatchFiresMdl601)
{
    auto ranks = tpArtifacts();
    ranks[1].model_seed = 99;
    EXPECT_TRUE(hasRule(lintTpOf(ranks), "MDL601"));
}

TEST(LintTest, BatchSetMismatchFiresMdl602)
{
    auto ranks = tpArtifacts();
    GraphBlueprint extra = ranks[1].graphs[0];
    extra.batch_size = 8;
    ranks[1].graphs.push_back(std::move(extra));
    EXPECT_TRUE(hasRule(lintTpOf(ranks), "MDL602"));
}

TEST(LintTest, TopologyMismatchFiresMdl603)
{
    auto ranks = tpArtifacts();
    ranks[1].graphs[0].nodes.pop_back();
    ranks[1].graphs[0].edges.pop_back();
    EXPECT_TRUE(hasRule(lintTpOf(ranks), "MDL603"));
}

TEST(LintTest, CollectiveOrderMismatchFiresMdl604)
{
    auto ranks = tpArtifacts();
    // Same node count and edges, but the collectives run in a
    // different order on rank 1 — lockstep replay would deadlock.
    std::swap(ranks[1].graphs[0].nodes[1],
              ranks[1].graphs[0].nodes[2]);
    const LintReport r = lintTpOf(ranks);
    EXPECT_TRUE(hasRule(r, "MDL604")) << r.toText();
    EXPECT_FALSE(hasRule(r, "MDL603"));
}

// ---- report rendering --------------------------------------------------

TEST(LintTest, ReportRendersTextAndJson)
{
    Artifact a = cleanArtifact();
    a.ops.push_back(freeOp(1));
    const LintReport r = lintOf(a);
    ASSERT_FALSE(r.diagnostics.empty());
    const std::string text = r.toText();
    EXPECT_NE(text.find("MDL101"), std::string::npos);
    EXPECT_NE(text.find("error"), std::string::npos);
    const std::string json = r.toJson();
    ASSERT_TRUE(Json::parse(json).isOk()) << json;
    EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
    EXPECT_NE(json.find("\"rule\":\"MDL101\""), std::string::npos);
    EXPECT_NE(json.find("\"errors\":1"), std::string::npos);
}

// ---- the Figure-6 hazard, caught statically ----------------------------

/** The analyze_test micro-fixture (see there for commentary). */
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

    StatusOr<CudaGraph>
    captureCopy(DeviceAddr src, DeviceAddr dst, i32 count)
    {
        const auto &k = BuiltinKernels::get();
        ParamsBuilder warm;
        warm.ptr(src).ptr(dst).i32(0);
        MEDUSA_RETURN_IF_ERROR(process.defaultStream().launch(
            k.copy_f32, warm.take(), {}));
        recorder.beginGraph(1);
        MEDUSA_RETURN_IF_ERROR(
            process.beginCapture(process.defaultStream()));
        ParamsBuilder pb;
        pb.ptr(src).ptr(dst).i32(count);
        Status st = process.defaultStream().launch(k.copy_f32,
                                                   pb.take(), {});
        auto graph = process.endCapture(process.defaultStream());
        recorder.endGraph();
        if (!st.isOk()) {
            return st;
        }
        return graph;
    }

    StatusOr<AnalysisResult>
    analyzeGraph(const CudaGraph &graph, bool trace_based)
    {
        AnalyzeOptions opts;
        opts.trace_based_matching = trace_based;
        std::vector<std::pair<u32, CudaGraph>> graphs = {{1, graph}};
        return analyze(recorder, process, "test-model", 1, graphs,
                       units::GiB, opts);
    }

    SimClock clock;
    CostModel cost;
    GpuProcess process;
    CachingAllocator alloc;
    Recorder recorder;
};

TEST(LintTest, NaiveMatchingArtifactIsFlaggedAsStale)
{
    // Figure 6's setup: X is allocated and freed, Y reuses its address,
    // and the captured graph copies out of Y. Naive matching binds the
    // pointer to X's stale event; the linter proves the launch happened
    // after X's free and flags MDL702 — statically, with no replay.
    Offline off;
    auto x = off.alloc.allocate(2048, 64);
    ASSERT_TRUE(off.alloc.free(*x).isOk());
    auto y = off.alloc.allocate(2048, 64);
    ASSERT_EQ(*x, *y);
    auto dst = off.alloc.allocate(512, 64);
    auto graph = off.captureCopy(*y, *dst, 4);
    ASSERT_TRUE(graph.isOk());

    auto naive = off.analyzeGraph(*graph, false);
    ASSERT_TRUE(naive.isOk());
    LintOptions opts;
    opts.device_memory_bytes = units::GiB;
    const LintReport flagged = lintOf(naive->artifact, opts);
    EXPECT_TRUE(hasRule(flagged, "MDL702")) << flagged.toText();
    EXPECT_FALSE(flagged.replaySafe());

    // With the raw trace, the exact launch position gives the same
    // verdict (and would catch cases the inferred bound cannot).
    LintOptions traced_opts = opts;
    traced_opts.trace = &off.recorder;
    EXPECT_TRUE(hasRule(lintOf(naive->artifact, traced_opts), "MDL702"));

    // The trace-based artifact for the same capture lints clean.
    auto traced = off.analyzeGraph(*graph, true);
    ASSERT_TRUE(traced.isOk());
    const LintReport ok = lintOf(traced->artifact, traced_opts);
    EXPECT_TRUE(ok.replaySafe()) << ok.toText();
}

// ---- MDL8xx: determinism / race analysis -------------------------------

TEST(LintTest, RacedTwoStreamCaptureFiresMdl801)
{
    // Fork stream b off the capture BEFORE stream a's launch: the two
    // copy nodes share no happens-before edge yet both write dst.
    Offline off;
    auto src = off.alloc.allocate(2048, 64);
    auto dst = off.alloc.allocate(2048, 64);
    const auto &k = BuiltinKernels::get();
    ParamsBuilder warm;
    warm.ptr(*src).ptr(*dst).i32(0);
    ASSERT_TRUE(off.process.defaultStream()
                    .launch(k.copy_f32, warm.take(), {})
                    .isOk());

    simcuda::Stream &a = off.process.defaultStream();
    simcuda::Stream &b = off.process.createStream();
    off.recorder.beginGraph(1);
    ASSERT_TRUE(off.process.beginCapture(a).isOk());
    simcuda::Event fork;
    ASSERT_TRUE(a.recordEvent(fork).isOk());
    ASSERT_TRUE(b.waitEvent(fork).isOk());
    ParamsBuilder pa;
    pa.ptr(*src).ptr(*dst).i32(4);
    ASSERT_TRUE(a.launch(k.copy_f32, pa.take(), {}).isOk());
    ParamsBuilder pb;
    pb.ptr(*src).ptr(*dst).i32(4);
    ASSERT_TRUE(b.launch(k.copy_f32, pb.take(), {}).isOk());
    auto graph = off.process.endCapture(a);
    off.recorder.endGraph();
    ASSERT_TRUE(graph.isOk());

    auto analysis = off.analyzeGraph(*graph, true);
    ASSERT_TRUE(analysis.isOk()) << analysis.status().toString();
    LintOptions opts;
    opts.device_memory_bytes = units::GiB;
    const LintReport r = lintOf(analysis->artifact, opts);
    EXPECT_TRUE(hasRule(r, "MDL801")) << r.toText();
    EXPECT_FALSE(r.replaySafe());
}

TEST(LintTest, ForkJoinOrderedCaptureLintsClean)
{
    // Same two-stream shape, but b waits on an event recorded AFTER
    // a's launch: the edge orders the writes and MDL8xx stays silent.
    Offline off;
    auto src = off.alloc.allocate(2048, 64);
    auto dst = off.alloc.allocate(2048, 64);
    const auto &k = BuiltinKernels::get();
    ParamsBuilder warm;
    warm.ptr(*src).ptr(*dst).i32(0);
    ASSERT_TRUE(off.process.defaultStream()
                    .launch(k.copy_f32, warm.take(), {})
                    .isOk());

    simcuda::Stream &a = off.process.defaultStream();
    simcuda::Stream &b = off.process.createStream();
    off.recorder.beginGraph(1);
    ASSERT_TRUE(off.process.beginCapture(a).isOk());
    ParamsBuilder pa;
    pa.ptr(*src).ptr(*dst).i32(4);
    ASSERT_TRUE(a.launch(k.copy_f32, pa.take(), {}).isOk());
    simcuda::Event join;
    ASSERT_TRUE(a.recordEvent(join).isOk());
    ASSERT_TRUE(b.waitEvent(join).isOk());
    ParamsBuilder pb;
    pb.ptr(*src).ptr(*dst).i32(4);
    ASSERT_TRUE(b.launch(k.copy_f32, pb.take(), {}).isOk());
    auto graph = off.process.endCapture(a);
    off.recorder.endGraph();
    ASSERT_TRUE(graph.isOk());

    auto analysis = off.analyzeGraph(*graph, true);
    ASSERT_TRUE(analysis.isOk()) << analysis.status().toString();
    LintOptions opts;
    opts.device_memory_bytes = units::GiB;
    const LintReport r = lintOf(analysis->artifact, opts);
    EXPECT_FALSE(hasRule(r, "MDL801")) << r.toText();
    EXPECT_FALSE(hasRule(r, "MDL802"));
    EXPECT_FALSE(hasRule(r, "MDL804"));
}

TEST(LintTest, UnorderedReadWriteFiresMdl802)
{
    // Node 0 copies alloc 0 -> alloc 2; the added node copies alloc 2
    // -> alloc 0 with no edge between them: both directions are
    // read-write conflicts, neither is write-write.
    const KernelRegistry &reg = KernelRegistry::instance();
    const auto &def = reg.def(BuiltinKernels::get().copy_f32);
    NodeBlueprint back;
    back.kernel_name = def.mangled_name;
    back.module_name = def.module_name;
    back.params = {indirect(2), indirect(0), constant32(4)};

    Artifact racy = cleanArtifact();
    racy.graphs[0].nodes.push_back(back);
    const LintReport r = lintOf(racy);
    EXPECT_TRUE(hasRule(r, "MDL802")) << r.toText();
    EXPECT_FALSE(hasRule(r, "MDL801"));
    EXPECT_FALSE(r.replaySafe());

    Artifact ordered = cleanArtifact();
    ordered.graphs[0].nodes.push_back(back);
    ordered.graphs[0].edges = {{0, 1}};
    const LintReport ok = lintOf(ordered);
    EXPECT_FALSE(hasRule(ok, "MDL802")) << ok.toText();
}

TEST(LintTest, UnorderedOpaqueKernelFiresMdl804)
{
    // A kernel the registry has never heard of, unordered against the
    // copy node: the analyzer cannot prove non-interference and says so
    // once (advisory, not an error).
    Artifact a = cleanArtifact();
    NodeBlueprint mystery;
    mystery.kernel_name = "moe_dispatch_topk";
    mystery.module_name = "libsimmoe.so";
    mystery.params = {indirect(2)};
    a.graphs[0].nodes.push_back(mystery);
    const LintReport r = lintOf(a);
    EXPECT_TRUE(hasRule(r, "MDL804")) << r.toText();

    // An ordering edge silences the advisory even though the kernel
    // stays opaque.
    Artifact ordered = a;
    ordered.graphs[0].edges = {{0, 1}};
    EXPECT_FALSE(hasRule(lintOf(ordered), "MDL804"));
}

TEST(LintTest, UnorderedIndirectAccessKernelFiresMdl804)
{
    // gemm_batched is registered but dereferences pointers stored
    // inside its operand buffer — its true footprint is invisible to
    // the analyzer, so an unordered peer earns the advisory.
    const KernelRegistry &reg = KernelRegistry::instance();
    const auto &def = reg.def(BuiltinKernels::get().gemm_batched);
    NodeBlueprint batched;
    batched.kernel_name = def.mangled_name;
    batched.module_name = def.module_name;
    for (const simcuda::ParamKind kind : def.params) {
        if (kind == simcuda::ParamKind::kPointer) {
            batched.params.push_back(indirect(2));
        } else {
            ParamSpec p;
            p.kind = ParamSpec::kConstant;
            p.constant_bytes.resize(simcuda::paramKindSize(kind));
            batched.params.push_back(p);
        }
    }
    Artifact a = cleanArtifact();
    a.graphs[0].nodes.push_back(std::move(batched));
    const LintReport r = lintOf(a);
    EXPECT_TRUE(hasRule(r, "MDL804")) << r.toText();
}

TEST(LintTest, CaptureWindowAllocationFiresMdl803)
{
    // Drive the recorder by hand: an allocation lands between two
    // launches of the same captured graph — conditional allocation
    // behavior that replays nondeterministically.
    Recorder trace;
    trace.beginGraph(1);
    trace.onKernelLaunch(0x1000, {}, true);
    trace.onAlloc(0, 0x7f2000000000ull, 64, 64);
    trace.onKernelLaunch(0x1000, {}, true);
    trace.endGraph();

    LintOptions opts = corpusOptions();
    opts.trace = &trace;
    const LintReport r = lintOf(cleanArtifact(), opts);
    EXPECT_TRUE(hasRule(r, "MDL803")) << r.toText();

    // The same allocation before the capture window is fine.
    Recorder quiet;
    quiet.onAlloc(0, 0x7f2000000000ull, 64, 64);
    quiet.beginGraph(1);
    quiet.onKernelLaunch(0x1000, {}, true);
    quiet.onKernelLaunch(0x1000, {}, true);
    quiet.endGraph();
    LintOptions qopts = corpusOptions();
    qopts.trace = &quiet;
    EXPECT_FALSE(hasRule(lintOf(cleanArtifact(), qopts),
                         "MDL803"));
}

// ---- MDL7xx image rules: the golden corrupt corpus ---------------------

std::set<std::string>
errorRules(const LintReport &r)
{
    std::set<std::string> rules;
    for (const lint::Diagnostic &d : r.diagnostics) {
        if (d.severity == Severity::kError) {
            rules.insert(d.rule);
        }
    }
    return rules;
}

/**
 * The committed corpus (tools/make_lint_fixtures) records a free-memory
 * figure of 24 bytes after ten 4 KiB allocations: the device it was
 * materialized for holds exactly those plus 24 bytes (MDL5xx).
 */
LintOptions
fixtureOptions()
{
    LintOptions o;
    o.device_memory_bytes = 10 * 4096 + MaterializedImage::kHeaderBytes;
    return o;
}

TEST(LintTest, CorruptImageCorpusFiresExactRules)
{
    // Each committed fixture (tools/make_lint_fixtures) is defective in
    // exactly one way; the linter must fire exactly that rule at error
    // severity — no cascade, no miss.
    const struct
    {
        const char *file;
        const char *rule; // nullptr: must be error-free
    } kCases[] = {
        {"clean.mdsi", nullptr},
        {"bad_edge.mdsi", "MDL303"},
        {"truncated_relocs.mdsi", "MDL700"},
        {"oob_reloc.mdsi", "MDL701"},
        {"freed_target.mdsi", "MDL702"},
        {"overlapping_relocs.mdsi", "MDL704"},
        {"uncovered_slot.mdsi", "MDL705"},
        {"shuffled_kernel_table.mdsi", "MDL706"},
    };
    for (const auto &c : kCases) {
        const std::string path =
            std::string(MEDUSA_TEST_DATA_DIR) + "/" + c.file;
        auto bytes = readFile(path);
        ASSERT_TRUE(bytes.isOk()) << path;
        const LintReport r = lint::lintImageBytes(
            std::span<const u8>(*bytes), fixtureOptions());
        if (c.rule == nullptr) {
            EXPECT_TRUE(r.clean()) << c.file << "\n" << r.toText();
        } else {
            EXPECT_EQ(errorRules(r), std::set<std::string>{c.rule})
                << c.file << "\n"
                << r.toText();
        }
    }
}

TEST(LintTest, SarifReportValidatesAgainstCatalog)
{
    const std::string path =
        std::string(MEDUSA_TEST_DATA_DIR) + "/oob_reloc.mdsi";
    auto bytes = readFile(path);
    ASSERT_TRUE(bytes.isOk());
    const LintReport r = lint::lintImageBytes(
        std::span<const u8>(*bytes), fixtureOptions());
    const std::string sarif = r.toSarif();
    ASSERT_TRUE(Json::parse(sarif).isOk()) << sarif;
    EXPECT_NE(sarif.find("sarif-2.1.0.json"), std::string::npos);
    EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("\"name\":\"medusa-lint\""), std::string::npos);
    EXPECT_NE(sarif.find("\"ruleId\":\"MDL701\""), std::string::npos);
    EXPECT_NE(sarif.find("\"level\":\"error\""), std::string::npos);
}

// ---- pipeline gates ----------------------------------------------------

llm::ModelConfig
tinyModel()
{
    llm::ModelConfig m = llm::findModel("Qwen1.5-0.5B").value();
    m.num_layers = 4;
    return m;
}

TEST(LintTest, OfflineLintGateAcceptsDefaultPipeline)
{
    OfflineOptions opts;
    opts.model = tinyModel();
    opts.pipeline.validate = false; // the static gate alone
    opts.pipeline.lint = true;
    auto result = materialize(opts);
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    // And the full-strength check: the shipped image has zero
    // diagnostics, warnings included.
    const LintReport r =
        lint::lintImageBytes(std::span<const u8>(result->image_bytes));
    EXPECT_TRUE(r.clean()) << r.toText();
}

TEST(LintTest, PreRestoreLintGateRejectsCorruptArtifact)
{
    OfflineOptions opts;
    opts.model = tinyModel();
    opts.pipeline.validate = false;
    auto result = materialize(opts);
    ASSERT_TRUE(result.isOk()) << result.status().toString();

    MedusaEngine::Options eopts;
    eopts.model = opts.model;
    eopts.restore.pipeline.lint = true;

    // Clean image: the gate lets the restore proceed.
    const MaterializedImage clean = test::openImage(result->image_bytes);
    auto ok = MedusaEngine::coldStartFromImage(eopts, clean);
    ASSERT_TRUE(ok.isOk()) << ok.status().toString();

    // Corrupt the op sequence: the gate refuses before replaying.
    Artifact corrupt = result->artifact;
    corrupt.ops.push_back(freeOp(corrupt.ops.size() + 1000));
    const MaterializedImage corrupt_image = test::imageOf(corrupt);
    auto rejected = MedusaEngine::coldStartFromImage(eopts, corrupt_image);
    ASSERT_FALSE(rejected.isOk());
    EXPECT_EQ(rejected.status().code(), StatusCode::kValidationFailure);
    EXPECT_NE(rejected.status().message().find("MDL102"),
              std::string::npos)
        << rejected.status().message();
}

TEST(LintTest, ImageEmissionGateRejectsStalePointer)
{
    // Free the copy node's input before a later birth the graph also
    // references: the relocation provably resolves recycled memory.
    Artifact a = cleanArtifact();
    a.ops.push_back(freeOp(2));
    a.ops.push_back(allocOp(512, 512)); // index 3, born after the free
    a.graphs[0].nodes[0].params = {indirect(2), indirect(3),
                                   constant32(4)};

    // Emission does not judge: the defective bytes emit. The gate that
    // follows emission in materialize() (lintImage over the opened
    // image) refuses them with the rule in its first error.
    const std::vector<u8> bytes = imageBytesOf(a);
    auto image = MaterializedImage::openView(std::span<const u8>(bytes));
    ASSERT_TRUE(image.isOk()) << image.status().toString();
    const LintReport r = lint::lintImage(*image, corpusOptions());
    EXPECT_FALSE(r.replaySafe());
    EXPECT_EQ(r.firstError().rfind("MDL702", 0), 0u) << r.toText();
}

TEST(LintTest, PreRestoreImageGateRejectsBeforeFirstPatch)
{
    OfflineOptions opts;
    opts.model = tinyModel();
    opts.pipeline.validate = false;
    auto result = materialize(opts);
    ASSERT_TRUE(result.isOk()) << result.status().toString();

    // Retarget the first data relocation far past the replay table and
    // reseal the payload CRC, so only the lint gate can object.
    std::vector<u8> bytes = result->image_bytes;
    {
        auto view =
            MaterializedImage::openView(std::span<const u8>(bytes));
        ASSERT_TRUE(view.isOk());
        ASSERT_FALSE(view->data_relocs.empty());
        const std::size_t off = offsetIn(bytes, view->data_relocs);
        MaterializedImage::DataReloc r0;
        std::memcpy(&r0, bytes.data() + off, sizeof(r0));
        r0.alloc_index = 1u << 20;
        std::memcpy(bytes.data() + off, &r0, sizeof(r0));
        resealImage(bytes);
    }
    ImageReadOptions ropts;
    ropts.validate_relocations = false; // let the gate do the judging
    auto image =
        MaterializedImage::openView(std::span<const u8>(bytes), ropts);
    ASSERT_TRUE(image.isOk()) << image.status().toString();

    // Arm a fault on the first patch application: if the gate ran
    // after any patch work, the fault would surface instead of the
    // lint verdict — and its hit counter proves zero patches started.
    auto plan = FaultPlan::fromSpec("image_patch");
    ASSERT_TRUE(plan.isOk());
    FaultInjector injector(*plan);

    MedusaEngine::Options eopts;
    eopts.model = opts.model;
    eopts.restore.pipeline.lint = true;
    eopts.restore.pipeline.fault = &injector;
    auto rejected = MedusaEngine::coldStartFromImage(eopts, *image);
    ASSERT_FALSE(rejected.isOk());
    EXPECT_EQ(rejected.status().code(), StatusCode::kValidationFailure);
    EXPECT_NE(rejected.status().message().find("MDL701"),
              std::string::npos)
        << rejected.status().message();
    EXPECT_EQ(injector.hits(FaultPoint::kImagePatch), 0u);

    // The clean image sails through the gate and reaches the armed
    // patch fault: patching starts only after the verdict.
    auto clean = MaterializedImage::openView(
        std::span<const u8>(result->image_bytes));
    ASSERT_TRUE(clean.isOk());
    injector.reset();
    auto faulted = MedusaEngine::coldStartFromImage(eopts, *clean);
    ASSERT_FALSE(faulted.isOk());
    EXPECT_EQ(faulted.status().code(), StatusCode::kFaultInjected)
        << faulted.status().toString();
    EXPECT_GT(injector.hits(FaultPoint::kImagePatch), 0u);
}

TEST(LintTest, TpPreRestoreLintGateRejectsDivergentRank)
{
    TpOfflineOptions topts;
    topts.model = tinyModel();
    topts.world = 2;
    topts.batch_sizes = {1, 4};
    auto offline = materializeTp(topts);
    ASSERT_TRUE(offline.isOk()) << offline.status().toString();

    TpMedusaEngine::Options eopts;
    eopts.model = topts.model;
    eopts.world = 2;
    eopts.restore.pipeline.lint = true;

    auto images = openRankImages(offline->rank_images);
    ASSERT_TRUE(images.isOk()) << images.status().toString();
    auto ok = TpMedusaEngine::coldStartFromImages(eopts, *images);
    ASSERT_TRUE(ok.isOk()) << ok.status().toString();

    // Drop one batch size from rank 1: MDL602 must veto the restore.
    Artifact divergent = offline->rank_artifacts[1];
    divergent.graphs.pop_back();
    (*images)[1] = test::imageOf(divergent);
    auto rejected = TpMedusaEngine::coldStartFromImages(eopts, *images);
    ASSERT_FALSE(rejected.isOk());
    EXPECT_EQ(rejected.status().code(), StatusCode::kValidationFailure);
    EXPECT_NE(rejected.status().message().find("MDL602"),
              std::string::npos)
        << rejected.status().message();
}

} // namespace
} // namespace medusa::core
