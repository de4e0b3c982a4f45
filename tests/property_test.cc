/**
 * @file
 * Property-based tests of the materialization pipeline.
 *
 * 1. RandomTracePrograms: generate random allocation/free/compute
 *    programs (arbitrary pool-reuse patterns), capture a graph over
 *    the live buffers, analyze, then restore in many fresh processes
 *    with different layouts — the restored graph must reproduce the
 *    original output bit-for-bit every time. This is the §4 invariant
 *    ("the i-th data pointer correlates with the i-th buffer
 *    allocation") checked against adversarial control flow.
 *
 * 2. CorruptArtifactNeverCrashes: random byte corruption of a
 *    materialized v6 image, with its CRC resealed so the decoder and
 *    the restore see the damage, must yield a Status error (or a
 *    benign image), never a crash, when opened and restored.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "common/crc32.h"
#include "common/rng.h"
#include "llm/engine.h"
#include "medusa/analyze.h"
#include "medusa/image.h"
#include "medusa/offline.h"
#include "medusa/restore.h"
#include "simcuda/caching_allocator.h"
#include "simcuda/kernels/builtin.h"

namespace medusa {
namespace {

using core::AllocOp;
using core::AnalyzeOptions;
using core::Artifact;
using core::ParamSpec;
using core::Recorder;
using simcuda::BuiltinKernels;
using simcuda::CachingAllocator;
using simcuda::CudaGraph;
using simcuda::GpuProcess;
using simcuda::GpuProcessOptions;
using simcuda::ParamsBuilder;

constexpr u32 kBufFloats = 16;

GpuProcessOptions
procOptions(u64 seed)
{
    GpuProcessOptions o;
    o.aslr_seed = seed;
    return o;
}

/**
 * One randomly generated trace program: a sequence of allocator ops
 * with content writes, ending in a captured graph of add/copy kernels
 * over the live buffers.
 */
struct TraceProgram
{
    explicit TraceProgram(u64 seed) : rng(seed) {}

    Rng rng;
    /** Logical size classes; several collide to force pool reuse. */
    const std::vector<u64> size_classes = {1024, 1024, 2048, 4096};

    struct Step
    {
        enum Kind { kAlloc, kFree, kWrite } kind;
        u64 size = 0;       // kAlloc
        u32 victim = 0;     // kFree/kWrite: index into live list order
        f32 value = 0;      // kWrite
    };

    std::vector<Step> steps;
    u32 graph_nodes = 0;

    static TraceProgram
    generate(u64 seed)
    {
        TraceProgram p(seed);
        const int n_ops = 10 + static_cast<int>(p.rng.nextBounded(30));
        int live = 0;
        for (int i = 0; i < n_ops; ++i) {
            const u64 roll = p.rng.nextBounded(10);
            if (live >= 2 && roll < 3) {
                Step s;
                s.kind = Step::kFree;
                s.victim = static_cast<u32>(
                    p.rng.nextBounded(static_cast<u64>(live)));
                p.steps.push_back(s);
                --live;
            } else if (live >= 1 && roll < 5) {
                Step s;
                s.kind = Step::kWrite;
                s.victim = static_cast<u32>(
                    p.rng.nextBounded(static_cast<u64>(live)));
                s.value = static_cast<f32>(p.rng.nextIntIn(-50, 50)) /
                          8.0f;
                p.steps.push_back(s);
            } else {
                Step s;
                s.kind = Step::kAlloc;
                s.size = p.size_classes[p.rng.nextBounded(
                    p.size_classes.size())];
                p.steps.push_back(s);
                ++live;
            }
        }
        // Ensure at least two live buffers for the graph.
        while (live < 2) {
            Step s;
            s.kind = Step::kAlloc;
            s.size = 1024;
            p.steps.push_back(s);
            ++live;
        }
        p.graph_nodes =
            2 + static_cast<u32>(p.rng.nextBounded(6));
        return p;
    }
};

/** The execution of a program in one process: live buffers + graph. */
struct ProgramRun
{
    std::vector<DeviceAddr> live;
    CudaGraph graph;
    DeviceAddr out = 0;
};

/** Run the program's allocator script; returns live buffers in order. */
StatusOr<std::vector<DeviceAddr>>
runScript(const TraceProgram &program, GpuProcess &process,
          CachingAllocator &alloc)
{
    std::vector<DeviceAddr> live;
    for (const auto &step : program.steps) {
        switch (step.kind) {
          case TraceProgram::Step::kAlloc: {
              MEDUSA_ASSIGN_OR_RETURN(
                  DeviceAddr a,
                  alloc.allocate(step.size, kBufFloats * 4));
              live.push_back(a);
              break;
          }
          case TraceProgram::Step::kFree: {
              const DeviceAddr a = live.at(step.victim);
              MEDUSA_RETURN_IF_ERROR(alloc.free(a));
              live.erase(live.begin() + step.victim);
              break;
          }
          case TraceProgram::Step::kWrite: {
              std::vector<f32> data(kBufFloats, step.value);
              MEDUSA_RETURN_IF_ERROR(process.memory().write(
                  live.at(step.victim), data.data(), kBufFloats * 4));
              break;
          }
        }
    }
    return live;
}

/** Capture a deterministic add-chain graph over the live buffers. */
StatusOr<CudaGraph>
captureGraph(const TraceProgram &program, GpuProcess &process,
             CachingAllocator &alloc, Recorder *recorder,
             const std::vector<DeviceAddr> &live, DeviceAddr *out_addr)
{
    const auto &k = BuiltinKernels::get();
    // Output buffer (allocated during the "capture stage").
    MEDUSA_ASSIGN_OR_RETURN(DeviceAddr out,
                            alloc.allocate(1024, kBufFloats * 4));
    *out_addr = out;
    // Warm the module.
    {
        ParamsBuilder warm;
        warm.ptr(live[0]).ptr(out).i32(0);
        MEDUSA_RETURN_IF_ERROR(process.defaultStream().launch(
            k.copy_f32, warm.take(), {}));
    }
    if (recorder != nullptr) {
        recorder->beginGraph(1);
    }
    MEDUSA_RETURN_IF_ERROR(
        process.beginCapture(process.defaultStream()));
    Status st = [&]() -> Status {
        // copy live[0] -> out, then add a rotating live buffer each
        // node: out accumulates a reuse-sensitive mix.
        ParamsBuilder first;
        first.ptr(live[0]).ptr(out).i32(static_cast<i32>(kBufFloats));
        MEDUSA_RETURN_IF_ERROR(process.defaultStream().launch(
            k.copy_f32, first.take(), {}));
        for (u32 i = 1; i < program.graph_nodes; ++i) {
            ParamsBuilder pb;
            pb.ptr(out)
                .ptr(live[i % live.size()])
                .i32(static_cast<i32>(kBufFloats));
            MEDUSA_RETURN_IF_ERROR(process.defaultStream().launch(
                k.residual_add, pb.take(), {}));
        }
        return Status::ok();
    }();
    auto graph = process.endCapture(process.defaultStream());
    if (recorder != nullptr) {
        recorder->endGraph();
    }
    if (!st.isOk()) {
        return st;
    }
    return graph;
}

class RandomTraceProperty : public ::testing::TestWithParam<u64>
{
};

TEST_P(RandomTraceProperty, RestoredGraphReproducesOutput)
{
    const TraceProgram program = TraceProgram::generate(GetParam());

    // ---- offline: run + record + capture + execute reference --------
    SimClock clock;
    CostModel cost;
    GpuProcess process(procOptions(GetParam() * 3 + 1), &clock, &cost);
    CachingAllocator alloc(&process, GetParam() * 3 + 1);
    Recorder recorder;
    alloc.setObserver(&recorder);
    process.setLaunchObserver(&recorder);
    recorder.markOrganicBoundary();
    recorder.markCaptureStageBegin();

    auto live = runScript(program, process, alloc);
    ASSERT_TRUE(live.isOk()) << live.status().toString();
    DeviceAddr out = 0;
    auto graph = captureGraph(program, process, alloc, &recorder, *live,
                              &out);
    ASSERT_TRUE(graph.isOk()) << graph.status().toString();

    // Reference output: instantiate + replay in the offline process.
    auto exec = process.instantiate(*graph);
    ASSERT_TRUE(exec.isOk());
    ASSERT_TRUE(
        process.launchGraph(*exec, process.defaultStream()).isOk());
    std::vector<f32> expected(kBufFloats);
    ASSERT_TRUE(process.memory()
                    .read(out, expected.data(), kBufFloats * 4)
                    .isOk());

    // ---- analysis ----------------------------------------------------
    AnalyzeOptions aopts;
    std::vector<std::pair<u32, CudaGraph>> graphs = {{1, *graph}};
    auto analysis = core::analyze(recorder, process, "prop", 1, graphs,
                                  units::GiB, aopts);
    ASSERT_TRUE(analysis.isOk()) << analysis.status().toString();
    const Artifact &artifact = analysis->artifact;

    // ---- online: replay + patch + run in fresh processes -------------
    for (u64 seed = 500; seed < 510; ++seed) {
        SimClock clock2;
        GpuProcess fresh(procOptions(seed), &clock2, &cost);
        CachingAllocator alloc2(&fresh, seed);
        std::vector<DeviceAddr> addr_of;
        core::Recorder observer; // reuse Recorder as address collector
        for (const AllocOp &op : artifact.ops) {
            if (op.kind == AllocOp::kAlloc) {
                auto a = alloc2.allocate(op.logical_size,
                                         op.backing_size);
                ASSERT_TRUE(a.isOk());
                addr_of.push_back(*a);
            } else {
                ASSERT_TRUE(
                    alloc2.free(addr_of[op.freed_alloc_index]).isOk());
            }
        }
        for (const auto &pb : artifact.permanent) {
            ASSERT_TRUE(fresh.memory()
                            .write(addr_of[pb.alloc_index],
                                   pb.contents.data(),
                                   pb.contents.size())
                            .isOk());
        }
        // Rebuild the graph: resolve the kernels, patch the params.
        ASSERT_TRUE(
            fresh.modules().loadModule(simcuda::kTorchModule));
        CudaGraph rebuilt;
        const auto &bp = artifact.graphs[0];
        for (u32 ni = 0; ni < bp.nodes.size(); ++ni) {
            const auto &nb = bp.nodes[ni];
            const simcuda::KernelId id =
                simcuda::KernelRegistry::instance().findByName(
                    nb.kernel_name);
            ASSERT_NE(id, simcuda::kInvalidKernel);
            auto addr = fresh.modules().addressOf(id);
            ASSERT_TRUE(addr.isOk());
            simcuda::RawParams params;
            for (const ParamSpec &spec : nb.params) {
                if (spec.kind == ParamSpec::kConstant) {
                    params.push_back(spec.constant_bytes);
                } else {
                    const u64 value =
                        addr_of[spec.alloc_index] + spec.offset;
                    std::vector<u8> bytes(8);
                    std::memcpy(bytes.data(), &value, 8);
                    params.push_back(std::move(bytes));
                }
            }
            rebuilt.addKernelNode(*addr, std::move(params), nb.timing,
                                  ni == 0 ? std::vector<simcuda::NodeId>{}
                                          : std::vector<simcuda::NodeId>{
                                                ni - 1});
        }
        auto exec2 = fresh.instantiate(rebuilt);
        ASSERT_TRUE(exec2.isOk());
        ASSERT_TRUE(
            fresh.launchGraph(*exec2, fresh.defaultStream()).isOk());
        // The out buffer's alloc index: find via the artifact tags-less
        // route — it was the LAST allocation of the trace.
        u64 out_index = 0;
        for (u64 i = 0, seen = 0; i < artifact.ops.size(); ++i) {
            if (artifact.ops[i].kind == AllocOp::kAlloc) {
                out_index = seen++;
            }
        }
        std::vector<f32> got(kBufFloats);
        ASSERT_TRUE(fresh.memory()
                        .read(addr_of[out_index], got.data(),
                              kBufFloats * 4)
                        .isOk());
        EXPECT_EQ(got, expected)
            << "program seed " << GetParam() << ", layout seed "
            << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(TwentyPrograms, RandomTraceProperty,
                         ::testing::Range<u64>(1, 21));

TEST(ArtifactRobustness, CorruptArtifactNeverCrashes)
{
    llm::ModelConfig m = llm::findModel("Qwen1.5-0.5B").value();
    m.num_layers = 2;
    core::OfflineOptions oopts;
    oopts.model = m;
    oopts.pipeline.validate = false;
    auto offline = core::materialize(oopts);
    ASSERT_TRUE(offline.isOk());
    const std::vector<u8> &bytes = offline->image_bytes;
    const std::size_t header = core::MaterializedImage::kHeaderBytes;

    Rng rng(0xfade);
    int parsed = 0, rejected = 0, restore_failed = 0, restored = 0;
    for (int trial = 0; trial < 60; ++trial) {
        auto corrupt = bytes;
        const int flips = 1 + static_cast<int>(rng.nextBounded(8));
        for (int i = 0; i < flips; ++i) {
            corrupt[header + rng.nextBounded(corrupt.size() - header)] ^=
                static_cast<u8>(1 + rng.nextBounded(255));
        }
        // Reseal the payload CRC: a plain flip is always caught by it
        // (ImageTest.BitFlipAnywhereFailsCrc), so this drives the
        // damage past the checksum into the decoder and the restore.
        const u32 crc =
            crc32(corrupt.data() + header, corrupt.size() - header);
        std::memcpy(corrupt.data() + 16, &crc, sizeof(crc));
        auto image = core::MaterializedImage::open(std::move(corrupt));
        if (!image.isOk()) {
            ++rejected;
            continue;
        }
        ++parsed;
        core::MedusaEngine::Options eopts;
        eopts.model = m;
        eopts.restore.pipeline.validate = true;
        eopts.restore.pipeline.validate_batch_sizes = {1};
        auto engine = core::MedusaEngine::coldStartFromImage(eopts, *image);
        if (engine.isOk()) {
            ++restored; // corruption hit a don't-care byte
        } else {
            ++restore_failed;
        }
    }
    // The property under test is "no crash"; the distribution is
    // informational.
    EXPECT_EQ(parsed + rejected, 60);
    EXPECT_GT(rejected + restore_failed + restored, 0);
}

} // namespace
} // namespace medusa
