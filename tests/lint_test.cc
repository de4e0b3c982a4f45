/**
 * @file
 * medusa-lint corpus tests. Every specimen is a hand-built (through
 * core::ImageBuilder's append API) or analyzed image, finished into v6
 * image bytes and linted the way it ships: a clean
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
using test::offsetIn;
using test::resealImage;

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

/** The rules @p r reports at error severity. */
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

/** One param of a hand-built node: a data pointer or a constant. */
struct Param
{
    bool pointer = false;
    u64 alloc_index = 0;
    u64 offset = 0;
    /** Constant: its little-endian bits and byte width. */
    u64 bits = 0;
    u8 width = 0;
};

Param
indirect(u64 alloc_index, u64 offset = 0)
{
    return {.pointer = true, .alloc_index = alloc_index, .offset = offset};
}

Param
constant32(i32 v)
{
    return {.bits = static_cast<u32>(v), .width = 4};
}

/** One hand-built node: its kernel's name and module, and its params. */
struct Node
{
    std::string kernel;
    std::string module;
    std::vector<Param> params;
};

/** A registry copy_f32 node (by default: allocation 0 -> 2, count 4). */
Node
copyNode(std::vector<Param> params = {indirect(0), indirect(2),
                                      constant32(4)})
{
    const auto &def =
        KernelRegistry::instance().def(BuiltinKernels::get().copy_f32);
    return {def.mangled_name, def.module_name, std::move(params)};
}

/**
 * Append one graph of @p nodes through the builder's append API,
 * adding each kernel to the table on its first use.
 */
void
appendGraph(ImageBuilder &b, u32 batch_size, const std::vector<Node> &nodes,
            const std::vector<simcuda::GraphEdge> &edges = {})
{
    const Status begun =
        b.beginGraph(batch_size, static_cast<u32>(nodes.size()), edges);
    MEDUSA_CHECK(begun.isOk(), begun.toString());
    for (const Node &n : nodes) {
        u64 kernel = 0;
        while (kernel < b.kernel_table.size() &&
               (b.kernel_table[kernel].name != n.kernel ||
                b.kernel_table[kernel].module != n.module)) {
            ++kernel;
        }
        if (kernel == b.kernel_table.size()) {
            b.addKernel(n.kernel, n.module);
        }
        b.addNode(kernel, {});
        for (const Param &p : n.params) {
            if (p.pointer) {
                b.addPointer(p.alloc_index, p.offset);
            } else {
                u8 bytes[sizeof(u64)];
                std::memcpy(bytes, &p.bits, sizeof(bytes));
                b.addConstant(std::span<const u8>(bytes, p.width));
            }
        }
    }
}

/**
 * A minimal well-formed specimen: one organic allocation that later
 * holds permanent contents, a freed temporary, and a graph buffer; one
 * bs=1 graph of @p nodes (by default a single node over a real
 * registry kernel); a free-memory figure reproducible at the end of
 * the sequence.
 */
ImageBuilder
cleanImage(const std::vector<Node> &nodes = {copyNode()},
           const std::vector<simcuda::GraphEdge> &edges = {})
{
    ImageBuilder b;
    b.model_name = "corpus-model";
    b.model_seed = 1;
    b.ops = {
        allocOp(1024, 1024), // 0: permanent (organic prefix)
        allocOp(512, 512),   // 1: temporary
        freeOp(1),
        allocOp(2048, 64),   // 2: graph buffer
    };
    b.organic_op_count = 1;
    b.organic_alloc_count = 1;
    // Live at end: 1024 + 2048 (both already 512-multiples).
    b.free_gpu_memory = kCap - 3072;
    appendGraph(b, 1, nodes, edges);
    b.addPermanent(0, 16); // zero-filled
    return b;
}

/** Lint @p b the way it ships: finished into image bytes, then linted. */
LintReport
lintOf(const ImageBuilder &b, const LintOptions &options = corpusOptions())
{
    const std::vector<u8> bytes = b.finish({});
    return lint::lintImageBytes(std::span<const u8>(bytes), options);
}

/**
 * Byte offset of ops[@p k] in @p image's bytes: the payload opens with
 * the model name, five u64 header facts and the op count, then 25
 * bytes (kind, logical, backing, freed index) per op.
 */
std::size_t
opOffset(const MaterializedImage &image, std::size_t k)
{
    return MaterializedImage::kHeaderBytes + 8 + image.model_name.size() +
           5 * 8 + 8 + 25 * k;
}

/**
 * Byte offset of graph @p g's 32-byte metadata record (batch size,
 * node, edge and param counts, then its two first slots), found in
 * @p bytes by its contents.
 */
std::size_t
graphMetaOffset(const std::vector<u8> &bytes, const MaterializedImage &image,
                std::size_t g)
{
    const MaterializedImage::GraphView &gv = image.graphs.at(g);
    const u32 counts[] = {gv.batch_size, gv.node_count,
                          static_cast<u32>(gv.edges.size()),
                          static_cast<u32>(gv.param_len.size())};
    const u64 first_slots[] = {gv.fn_slot_begin, gv.param_slot_begin};
    u8 record[32];
    std::memcpy(record, counts, sizeof(counts));
    std::memcpy(record + 16, first_slots, sizeof(first_slots));
    const auto it = std::search(bytes.begin(), bytes.end(), record,
                                record + sizeof(record));
    MEDUSA_CHECK(it != bytes.end(), "graph metadata record not found");
    return static_cast<std::size_t>(it - bytes.begin());
}

TEST(LintTest, CleanArtifactLintsToZeroDiagnostics)
{
    const LintReport r = lintOf(cleanImage());
    EXPECT_TRUE(r.clean()) << r.toText();
    EXPECT_TRUE(r.replaySafe());
    EXPECT_EQ(r.firstError(), "");
}

// ---- MDL1xx ------------------------------------------------------------

TEST(LintTest, DoubleFreeFiresMdl101)
{
    ImageBuilder a = cleanImage();
    a.ops.push_back(freeOp(1)); // index 1 is already freed
    const LintReport r = lintOf(a);
    EXPECT_TRUE(hasRule(r, "MDL101")) << r.toText();
    EXPECT_FALSE(r.replaySafe());
    // A single free of a live index does not fire.
    EXPECT_FALSE(hasRule(lintOf(cleanImage()), "MDL101"));
}

TEST(LintTest, FreeOfUnknownIndexFiresMdl102)
{
    ImageBuilder a = cleanImage();
    a.ops.push_back(freeOp(9)); // only 3 allocations exist
    const LintReport r = lintOf(a);
    EXPECT_TRUE(hasRule(r, "MDL102")) << r.toText();
    EXPECT_FALSE(r.replaySafe());
}

TEST(LintTest, CrossBoundaryFreeOfOrganicAllocWarnsMdl103)
{
    // Detach everything else from allocation 0 so only the boundary
    // violation itself is reported.
    ImageBuilder a =
        cleanImage({copyNode({indirect(2), indirect(2), constant32(4)})});
    a.permanent.clear();
    a.contents.clear();
    a.ops.push_back(freeOp(0)); // organic index freed by the replay
    const LintReport r = lintOf(a);
    EXPECT_TRUE(hasRule(r, "MDL103")) << r.toText();
    // Warning severity: suspicious, but replay does not fault.
    EXPECT_TRUE(r.replaySafe());
    EXPECT_FALSE(r.clean());
    // A replayed free of a replayed allocation does not warn (the
    // clean image frees index 1, allocated after the boundary).
    EXPECT_FALSE(hasRule(lintOf(cleanImage()), "MDL103"));
}

TEST(LintTest, BadAllocSizesFireMdl104)
{
    ImageBuilder zero = cleanImage();
    zero.ops[1].logical_size = 0;
    zero.ops[1].backing_size = 0;
    EXPECT_TRUE(hasRule(lintOf(zero), "MDL104"));

    ImageBuilder oversized = cleanImage();
    oversized.ops[1].logical_size = kCap + 1;
    EXPECT_TRUE(hasRule(lintOf(oversized), "MDL104"));

    ImageBuilder inverted = cleanImage();
    inverted.ops[3].backing_size = inverted.ops[3].logical_size + 1;
    EXPECT_TRUE(hasRule(lintOf(inverted), "MDL104"));

    // backing == logical is legal (full-content buffers).
    EXPECT_FALSE(hasRule(lintOf(cleanImage()), "MDL104"));
}

TEST(LintTest, MalformedReplayBoundaryFiresMdl105)
{
    ImageBuilder beyond = cleanImage();
    beyond.organic_op_count = beyond.ops.size() + 5;
    EXPECT_TRUE(hasRule(lintOf(beyond), "MDL105"));

    ImageBuilder miscount = cleanImage();
    miscount.organic_alloc_count = 2; // prefix has exactly 1 alloc
    EXPECT_TRUE(hasRule(lintOf(miscount), "MDL105"));
}

// ---- retired MDL2xx specimens, caught by MDL701/MDL702 -----------------

TEST(LintTest, IndirectIndexBeyondSequenceFiresMdl701)
{
    // Formerly MDL201; the relocation's allocation index is beyond the
    // replay table, which MDL701 reports.
    ImageBuilder a =
        cleanImage({copyNode({indirect(99), indirect(2), constant32(4)})});
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
    const LintReport r = lintOf(
        cleanImage({copyNode({indirect(1), indirect(2), constant32(4)})}));
    EXPECT_TRUE(hasRule(r, "MDL702")) << r.toText();
    EXPECT_FALSE(r.replaySafe());

    // Non-firing twin: the same stale reference WITHOUT the later
    // co-referenced allocation is not provably stale (the launch could
    // have preceded the free), so the static rule stays silent.
    const ImageBuilder benign =
        cleanImage({copyNode({indirect(1), indirect(0), constant32(4)})});
    EXPECT_FALSE(hasRule(lintOf(benign), "MDL702"));
}

TEST(LintTest, TraceExactLaunchPositionFiresMdl702)
{
    // The benign twin above: the per-graph lower bound cannot place
    // the launch after allocation 1's free...
    const ImageBuilder a =
        cleanImage({copyNode({indirect(1), indirect(0), constant32(4)})});
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
    const ImageBuilder a = cleanImage(
        {copyNode({indirect(0, 4096), indirect(2), constant32(4)})});
    EXPECT_TRUE(hasRule(lintOf(a), "MDL701")); // 1024B buffer
    // An aligned interior offset inside the buffer is fine.
    const ImageBuilder interior = cleanImage(
        {copyNode({indirect(0, 1020), indirect(2), constant32(4)})});
    EXPECT_TRUE(lintOf(interior).clean());
}

// ---- MDL3xx ------------------------------------------------------------

TEST(LintTest, UnknownKernelNameFiresMdl301)
{
    ImageBuilder a = cleanImage();
    a.kernel_table[0].name = "_ZN4fake6kernelEv";
    EXPECT_TRUE(hasRule(lintOf(a), "MDL301"));
    // Registry checking can be disabled for foreign kernel zoos.
    LintOptions no_reg = corpusOptions();
    no_reg.check_kernel_registry = false;
    EXPECT_FALSE(hasRule(lintOf(a, no_reg), "MDL301"));
}

TEST(LintTest, KernelModuleMismatchFiresMdl302)
{
    ImageBuilder a = cleanImage();
    a.kernel_table[0].module = "libwrong.so";
    EXPECT_TRUE(hasRule(lintOf(a), "MDL302"));
}

TEST(LintTest, EdgeBeyondNodeCountFiresMdl303)
{
    // Emission refuses a corrupt edge, so the specimen byte-edits the
    // edge column of a clean two-node image and reseals its CRC.
    const std::vector<u8> clean =
        cleanImage({copyNode(), copyNode()}, {{0, 1}}).finish({});
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

TEST(LintTest, NonForwardTopologyFiresMdl303)
{
    // openView refuses every structural defect at restore; lint opens
    // the bytes anyway, to name the broken record under its rule.
    const std::vector<u8> clean =
        cleanImage({copyNode(), copyNode()}, {{0, 1}}).finish({});
    ImageReadOptions ropts;
    ropts.validate_indices = false;
    for (const test::ImageCorruption &c :
         test::structuralCorruptions(clean)) {
        auto view =
            MaterializedImage::openView(std::span<const u8>(c.bytes), ropts);
        ASSERT_TRUE(view.isOk()) << c.what << ": " << view.status().toString();
        const LintReport r = lint::lintImage(*view, corpusOptions());
        std::set<std::string> expected{c.rule};
        if (!c.also.empty()) {
            expected.insert(c.also);
        }
        EXPECT_EQ(errorRules(r), expected) << c.what << "\n" << r.toText();
    }
}

TEST(LintTest, DuplicateBatchSizeFiresMdl304)
{
    ImageBuilder a = cleanImage();
    appendGraph(a, 1, {copyNode()});
    EXPECT_TRUE(hasRule(lintOf(a), "MDL304"));
}

// ---- MDL4xx ------------------------------------------------------------

TEST(LintTest, UncoveredPointerShapedWordWarnsMdl401)
{
    ImageBuilder a = cleanImage();
    const u64 ptr = 0x7f2000001000ull; // in the device address range
    std::memcpy(a.contents.data(), &ptr, 8);
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
    ImageBuilder nohost = cleanImage();
    PointerWordFix fix;
    fix.buffer_alloc_index = 2; // not a permanent buffer
    fix.byte_offset = 0;
    fix.target_alloc_index = 0;
    nohost.pointer_fixes.push_back(fix);
    EXPECT_TRUE(hasRule(lintOf(nohost), "MDL402"));

    // Fix word overrunning the materialized contents.
    ImageBuilder overrun = cleanImage();
    fix.buffer_alloc_index = 0;
    fix.byte_offset = 12; // 16-byte contents; word needs [12, 20)
    overrun.pointer_fixes.push_back(fix);
    EXPECT_TRUE(hasRule(lintOf(overrun), "MDL402"));

    // Fix pointing at a freed allocation: the word would dangle.
    ImageBuilder dangling = cleanImage();
    fix.byte_offset = 0;
    fix.target_alloc_index = 1; // freed temporary
    dangling.pointer_fixes.push_back(fix);
    EXPECT_TRUE(hasRule(lintOf(dangling), "MDL402"));

    // A valid fix is accepted (see the MDL401 covered case above).
}

TEST(LintTest, PermanentContentsForDeadBufferFireMdl403)
{
    ImageBuilder freed = cleanImage();
    freed.permanent[0].alloc_index = 1; // the freed temporary
    EXPECT_TRUE(hasRule(lintOf(freed), "MDL403"));

    ImageBuilder oversize = cleanImage();
    oversize.permanent.clear();
    oversize.contents.clear();
    oversize.addPermanent(0, 2048); // 1024B backing
    EXPECT_TRUE(hasRule(lintOf(oversize), "MDL403"));

    ImageBuilder dup = cleanImage();
    dup.addPermanent(0, 16);
    EXPECT_TRUE(hasRule(lintOf(dup), "MDL403"));
}

// ---- MDL5xx ------------------------------------------------------------

TEST(LintTest, UnreproducibleFreeMemoryFiguresFireMdl501)
{
    ImageBuilder a = cleanImage();
    a.free_gpu_memory = kCap - 100; // no prefix yields this footprint
    const LintReport r = lintOf(a);
    EXPECT_TRUE(hasRule(r, "MDL501")) << r.toText();

    // The mid-sequence footprint (both early buffers live) is also a
    // valid profiling point and must be accepted.
    ImageBuilder mid = cleanImage();
    mid.free_gpu_memory = kCap - (1024 + 512);
    EXPECT_FALSE(hasRule(lintOf(mid), "MDL501"));
}

TEST(LintTest, CapacityViolationsFireMdl502)
{
    ImageBuilder over = cleanImage();
    over.free_gpu_memory = kCap + 1;
    EXPECT_TRUE(hasRule(lintOf(over), "MDL502"));

    LintOptions tiny = corpusOptions();
    tiny.device_memory_bytes = 2048; // sequence peaks above this
    ImageBuilder a = cleanImage();
    a.free_gpu_memory = 2048 - 1536;
    EXPECT_TRUE(hasRule(lintOf(a, tiny), "MDL502"));
}

// ---- MDL6xx ------------------------------------------------------------

/** A rank's nodes: the copy, then two collectives. */
std::vector<Node>
tpNodes()
{
    return {copyNode(),
            {"ncclAllReduce_f32", "libsimnccl.so",
             {indirect(0), constant32(4)}},
            {"ncclAllGather_f32", "libsimnccl.so",
             {indirect(2), constant32(4)}}};
}

/**
 * A capture on one stream serializes compute before the collectives;
 * the chain also keeps MDL8xx (which cannot classify the out-of-registry
 * nccl kernels) out of the MDL6xx tests.
 */
const std::vector<simcuda::GraphEdge> kTpEdges = {{0, 1}, {1, 2}};

/** Per-rank corpus twins with two collective nodes each. */
std::vector<ImageBuilder>
tpRanks()
{
    const ImageBuilder rank = cleanImage(tpNodes(), kTpEdges);
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
lintTpOf(const std::vector<ImageBuilder> &ranks)
{
    std::vector<std::vector<u8>> bytes;
    std::vector<MaterializedImage> images;
    for (const ImageBuilder &b : ranks) {
        bytes.push_back(b.finish({}));
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
    const LintReport r = lintTpOf(tpRanks());
    EXPECT_TRUE(r.clean()) << r.toText();
}

TEST(LintTest, RankIdentityMismatchFiresMdl601)
{
    auto ranks = tpRanks();
    ranks[1].model_seed = 99;
    EXPECT_TRUE(hasRule(lintTpOf(ranks), "MDL601"));
}

TEST(LintTest, BatchSetMismatchFiresMdl602)
{
    auto ranks = tpRanks();
    appendGraph(ranks[1], 8, tpNodes(), kTpEdges);
    EXPECT_TRUE(hasRule(lintTpOf(ranks), "MDL602"));
}

TEST(LintTest, TopologyMismatchFiresMdl603)
{
    auto ranks = tpRanks();
    std::vector<Node> fewer = tpNodes();
    fewer.pop_back();
    ranks[1] = cleanImage(fewer, {kTpEdges[0]});
    EXPECT_TRUE(hasRule(lintTpOf(ranks), "MDL603"));
}

TEST(LintTest, CollectiveOrderMismatchFiresMdl604)
{
    auto ranks = tpRanks();
    // Same node count and edges, but the collectives run in a
    // different order on rank 1 — lockstep replay would deadlock.
    std::vector<Node> swapped = tpNodes();
    std::swap(swapped[1], swapped[2]);
    ranks[1] = cleanImage(swapped, kTpEdges);
    const LintReport r = lintTpOf(ranks);
    EXPECT_TRUE(hasRule(r, "MDL604")) << r.toText();
    EXPECT_FALSE(hasRule(r, "MDL603"));
}

TEST(LintTest, EachRankIsJudgedInItsDevicesAddressWindow)
{
    // Rank r runs on device r (TpCluster), so an uncovered 8-byte
    // constant inside device 1's window is an escaped pointer on rank 1
    // and an opaque scalar on ranks 0 and 2. A stream tag lies inside
    // device 2's window and is a scalar there too.
    const u64 device1_ptr = simcuda::DeviceMemoryManager::kAddrBase +
                            simcuda::DeviceMemoryManager::kDeviceSlotBytes +
                            0x4000;
    std::vector<Node> nodes = tpNodes();
    nodes[1].params.push_back({.bits = device1_ptr, .width = 8});
    nodes[2].params.push_back(
        {.bits = simcuda::kStreamTagPrefix | 1, .width = 8});
    const ImageBuilder rank = cleanImage(nodes, kTpEdges);
    const LintReport r = lintTpOf({rank, rank, rank});
    std::vector<std::string> escapes;
    for (const lint::Diagnostic &d : r.diagnostics) {
        if (d.rule == "MDL705") {
            escapes.push_back(d.location);
        }
    }
    ASSERT_EQ(escapes.size(), 1u) << r.toText();
    EXPECT_EQ(escapes[0].rfind("rank[1].", 0), 0u) << escapes[0];
}

// ---- report rendering --------------------------------------------------

TEST(LintTest, ReportRendersTextAndJson)
{
    ImageBuilder a = cleanImage();
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
    const LintReport flagged = lintOf(naive->image, opts);
    EXPECT_TRUE(hasRule(flagged, "MDL702")) << flagged.toText();
    EXPECT_FALSE(flagged.replaySafe());

    // With the raw trace, the exact launch position gives the same
    // verdict (and would catch cases the inferred bound cannot).
    LintOptions traced_opts = opts;
    traced_opts.trace = &off.recorder;
    EXPECT_TRUE(hasRule(lintOf(naive->image, traced_opts), "MDL702"));

    // The trace-based image for the same capture lints clean.
    auto traced = off.analyzeGraph(*graph, true);
    ASSERT_TRUE(traced.isOk());
    const LintReport ok = lintOf(traced->image, traced_opts);
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
                    .launch(k.copy_f32, warm.view(), {})
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
    ASSERT_TRUE(a.launch(k.copy_f32, pa.view(), {}).isOk());
    ParamsBuilder pb;
    pb.ptr(*src).ptr(*dst).i32(4);
    ASSERT_TRUE(b.launch(k.copy_f32, pb.view(), {}).isOk());
    auto graph = off.process.endCapture(a);
    off.recorder.endGraph();
    ASSERT_TRUE(graph.isOk());

    auto analysis = off.analyzeGraph(*graph, true);
    ASSERT_TRUE(analysis.isOk()) << analysis.status().toString();
    LintOptions opts;
    opts.device_memory_bytes = units::GiB;
    const LintReport r = lintOf(analysis->image, opts);
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
                    .launch(k.copy_f32, warm.view(), {})
                    .isOk());

    simcuda::Stream &a = off.process.defaultStream();
    simcuda::Stream &b = off.process.createStream();
    off.recorder.beginGraph(1);
    ASSERT_TRUE(off.process.beginCapture(a).isOk());
    ParamsBuilder pa;
    pa.ptr(*src).ptr(*dst).i32(4);
    ASSERT_TRUE(a.launch(k.copy_f32, pa.view(), {}).isOk());
    simcuda::Event join;
    ASSERT_TRUE(a.recordEvent(join).isOk());
    ASSERT_TRUE(b.waitEvent(join).isOk());
    ParamsBuilder pb;
    pb.ptr(*src).ptr(*dst).i32(4);
    ASSERT_TRUE(b.launch(k.copy_f32, pb.view(), {}).isOk());
    auto graph = off.process.endCapture(a);
    off.recorder.endGraph();
    ASSERT_TRUE(graph.isOk());

    auto analysis = off.analyzeGraph(*graph, true);
    ASSERT_TRUE(analysis.isOk()) << analysis.status().toString();
    LintOptions opts;
    opts.device_memory_bytes = units::GiB;
    const LintReport r = lintOf(analysis->image, opts);
    EXPECT_FALSE(hasRule(r, "MDL801")) << r.toText();
    EXPECT_FALSE(hasRule(r, "MDL802"));
    EXPECT_FALSE(hasRule(r, "MDL804"));
}

TEST(LintTest, UnorderedReadWriteFiresMdl802)
{
    // Node 0 copies alloc 0 -> alloc 2; the added node copies alloc 2
    // -> alloc 0 with no edge between them: both directions are
    // read-write conflicts, neither is write-write.
    const Node back = copyNode({indirect(2), indirect(0), constant32(4)});
    const LintReport r = lintOf(cleanImage({copyNode(), back}));
    EXPECT_TRUE(hasRule(r, "MDL802")) << r.toText();
    EXPECT_FALSE(hasRule(r, "MDL801"));
    EXPECT_FALSE(r.replaySafe());

    const LintReport ok = lintOf(cleanImage({copyNode(), back}, {{0, 1}}));
    EXPECT_FALSE(hasRule(ok, "MDL802")) << ok.toText();
}

TEST(LintTest, UnorderedOpaqueKernelFiresMdl804)
{
    // A kernel the registry has never heard of, unordered against the
    // copy node: the analyzer cannot prove non-interference and says so
    // once (advisory, not an error).
    const Node mystery{"moe_dispatch_topk", "libsimmoe.so", {indirect(2)}};
    const LintReport r = lintOf(cleanImage({copyNode(), mystery}));
    EXPECT_TRUE(hasRule(r, "MDL804")) << r.toText();

    // An ordering edge silences the advisory even though the kernel
    // stays opaque.
    EXPECT_FALSE(
        hasRule(lintOf(cleanImage({copyNode(), mystery}, {{0, 1}})),
                "MDL804"));
}

TEST(LintTest, UnorderedIndirectAccessKernelFiresMdl804)
{
    // gemm_batched is registered but dereferences pointers stored
    // inside its operand buffer — its true footprint is invisible to
    // the analyzer, so an unordered peer earns the advisory.
    const KernelRegistry &reg = KernelRegistry::instance();
    const auto &def = reg.def(BuiltinKernels::get().gemm_batched);
    Node batched{def.mangled_name, def.module_name, {}};
    for (const simcuda::ParamKind kind : def.params) {
        if (kind == simcuda::ParamKind::kPointer) {
            batched.params.push_back(indirect(2));
        } else {
            batched.params.push_back(
                {.width = static_cast<u8>(simcuda::paramKindSize(kind))});
        }
    }
    const LintReport r = lintOf(cleanImage({copyNode(), batched}));
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
    const LintReport r = lintOf(cleanImage(), opts);
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
    EXPECT_FALSE(hasRule(lintOf(cleanImage(), qopts),
                         "MDL803"));
}

// ---- MDL7xx image rules: the golden corrupt corpus ---------------------

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
    // severity — no cascade, no miss. The default open must agree:
    // it refuses exactly the undecodable and structurally broken
    // fixtures, and leaves the rest to lint.
    const struct
    {
        const char *file;
        const char *rule; // nullptr: must be error-free
        bool opens;
    } kCases[] = {
        {"clean.mdsi", nullptr, true},
        {"bad_edge.mdsi", "MDL303", false},
        {"truncated_relocs.mdsi", "MDL700", false},
        {"oob_reloc.mdsi", "MDL701", false},
        {"freed_target.mdsi", "MDL702", true},
        {"overlapping_relocs.mdsi", "MDL704", true},
        {"uncovered_slot.mdsi", "MDL705", true},
        {"shuffled_kernel_table.mdsi", "MDL706", true},
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
        EXPECT_EQ(
            MaterializedImage::openView(std::span<const u8>(*bytes)).isOk(),
            c.opens)
            << c.file;
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
    auto ok = MedusaEngine::coldStartFromImage(eopts, result->artifact);
    ASSERT_TRUE(ok.isOk()) << ok.status().toString();

    // Corrupt the op sequence — retarget the last free at an index no
    // allocation has — and reseal: the gate refuses before replaying.
    std::vector<u8> bytes = result->image_bytes;
    const std::vector<AllocOp> &ops = result->artifact.ops;
    std::size_t last_free = ops.size();
    while (ops[--last_free].kind != AllocOp::kFree) {
    }
    const u64 unknown = ops.size() + 1000;
    std::memcpy(bytes.data() + opOffset(result->artifact, last_free) + 17,
                &unknown, sizeof(unknown));
    resealImage(bytes);
    const MaterializedImage corrupt_image =
        MaterializedImage::openView(bytes).value();
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
    ImageBuilder a =
        cleanImage({copyNode({indirect(2), indirect(3), constant32(4)})});
    a.ops.push_back(freeOp(2));
    a.ops.push_back(allocOp(512, 512)); // index 3, born after the free

    // Emission does not judge: the defective bytes emit. The gate that
    // follows emission in materialize() (lintImage over the opened
    // image) refuses them with the rule in its first error.
    const std::vector<u8> bytes = a.finish({});
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
    ropts.validate_indices = false; // let the gate do the judging
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

    // Relabel rank 1's first graph with a batch size rank 0 never
    // captured, and reseal: MDL602 must veto the restore.
    std::vector<u8> divergent = offline->rank_images[1];
    const u32 stray_batch = 2;
    std::memcpy(divergent.data() +
                    graphMetaOffset(divergent, (*images)[1], 0),
                &stray_batch, sizeof(stray_batch));
    resealImage(divergent);
    (*images)[1] = MaterializedImage::openView(divergent).value();
    auto rejected = TpMedusaEngine::coldStartFromImages(eopts, *images);
    ASSERT_FALSE(rejected.isOk());
    EXPECT_EQ(rejected.status().code(), StatusCode::kValidationFailure);
    EXPECT_NE(rejected.status().message().find("MDL602"),
              std::string::npos)
        << rejected.status().message();
}

} // namespace
} // namespace medusa::core
