/**
 * @file
 * Google-benchmark microbenchmarks of the substrate hot paths: these
 * measure *host* wall time of the simulator itself (not virtual time),
 * guarding against regressions that would make the experiment harness
 * slow.
 */

#include <benchmark/benchmark.h>

#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "llm/runtime.h"
#include "llm/tokenizer.h"
#include "medusa/artifact.h"
#include "medusa/offline.h"
#include "medusa/restore.h"
#include "simcuda/caching_allocator.h"
#include "simcuda/kernels/builtin.h"

namespace medusa {
namespace {

llm::ModelConfig
tinyModel()
{
    llm::ModelConfig m = llm::findModel("Qwen1.5-0.5B").value();
    m.num_layers = 2;
    return m;
}

void
BM_CachingAllocatorReuse(benchmark::State &state)
{
    SimClock clock;
    CostModel cost;
    simcuda::GpuProcessOptions popts;
    simcuda::GpuProcess process(popts, &clock, &cost);
    simcuda::CachingAllocator alloc(&process);
    for (auto _ : state) {
        auto addr = alloc.allocate(4096, 64);
        benchmark::DoNotOptimize(addr);
        (void)alloc.free(*addr);
    }
}
BENCHMARK(BM_CachingAllocatorReuse);

void
BM_GraphCaptureReplay(benchmark::State &state)
{
    llm::ModelRuntime::Options opts;
    opts.model = tinyModel();
    llm::ModelRuntime rt(opts);
    (void)rt.initStructure();
    (void)rt.loadWeights();
    auto free_bytes = rt.profileFreeMemory();
    (void)rt.initKvCache(*free_bytes);
    const u32 bs = static_cast<u32>(state.range(0));
    (void)rt.warmupDecode(bs);
    auto graph = rt.captureDecode(bs);
    (void)rt.instantiateGraph(bs, *graph);
    for (auto _ : state) {
        auto logits = rt.graphDecodeLogits(bs);
        benchmark::DoNotOptimize(logits);
    }
    state.counters["nodes"] = static_cast<double>(graph->nodeCount());
}
BENCHMARK(BM_GraphCaptureReplay)->Arg(1)->Arg(8)->Arg(64);

void
BM_EagerDecode(benchmark::State &state)
{
    llm::ModelRuntime::Options opts;
    opts.model = tinyModel();
    llm::ModelRuntime rt(opts);
    (void)rt.initStructure();
    (void)rt.loadWeights();
    auto free_bytes = rt.profileFreeMemory();
    (void)rt.initKvCache(*free_bytes);
    const u32 bs = static_cast<u32>(state.range(0));
    (void)rt.warmupDecode(bs);
    for (auto _ : state) {
        auto logits = rt.eagerDecodeLogits(bs);
        benchmark::DoNotOptimize(logits);
    }
}
BENCHMARK(BM_EagerDecode)->Arg(1)->Arg(64);

/**
 * One compiled matmulF32 variant alone (SSE2, AVX2 or AVX-512 tiles),
 * at the set-up's functional GEMM shapes: n = 1..256 rows, out x k
 * covering qkv 96x32, gate_up 128x32, down 32x64 and lm_head 256x32.
 * Reports GMAC/s, so each variant's speed is tracked apart from the
 * set-ups it dominates. Registered from main() for every variant the
 * host supports.
 */
void
BM_Matmul(benchmark::State &state, simcuda::detail::MatmulFn matmul)
{
    const u64 n = static_cast<u64>(state.range(0));
    const u64 out = static_cast<u64>(state.range(1));
    const u64 k = static_cast<u64>(state.range(2));
    Rng rng(5);
    std::vector<f32> a(n * k), w(out * k), c(n * out);
    for (f32 &x : a) {
        x = rng.nextSymmetricFloat();
    }
    for (f32 &x : w) {
        x = rng.nextSymmetricFloat();
    }
    for (auto _ : state) {
        matmul(a.data(), w.data(), c.data(), n, out, k);
        benchmark::DoNotOptimize(c.data());
        benchmark::ClobberMemory();
    }
    state.counters["GMAC/s"] = benchmark::Counter(
        static_cast<double>(n * out * k) * 1e-9,
        benchmark::Counter::kIsIterationInvariantRate);
}

void
registerMatmulVariants()
{
    for (const auto &variant : simcuda::detail::matmulVariants()) {
        if (!variant.host_supported) {
            continue;
        }
        const std::string name = std::string("BM_Matmul/") + variant.name;
        benchmark::RegisterBenchmark(name.c_str(), BM_Matmul, variant.fn)
            ->ArgNames({"n", "out", "k"})
            ->ArgsProduct({{1, 8, 64, 256}, {32, 96, 128, 256}, {32, 64}})
            ->MinTime(0.1);
    }
}

/** A device buffer holding @p values; aborts the bench on failure. */
DeviceAddr
deviceCopy(simcuda::GpuProcess &process, const void *values, u64 bytes)
{
    auto addr = process.memory().malloc(bytes, bytes);
    bench::checkOk(addr.status(), "device malloc");
    bench::checkOk(process.memory().write(*addr, values, bytes),
                   "device write");
    return *addr;
}

/**
 * The per-layer attention bookkeeping kernels at the forward pass's
 * functional shapes: MHA with 4 heads of head_dim 8 in a fused
 * [q | k | v] row of 96 floats, n = 1..256 tokens, and (kv_write) the
 * full 2049-block paged cache. Each iteration is one launch through
 * the default stream, operand resolution included.
 */
constexpr i32 kHeads = 4;
constexpr i32 kHeadDim = 8;
constexpr i32 kFusedRow = 3 * kHeads * kHeadDim;
constexpr u64 kCacheSlots = 2049 * 8;

/** @p n random fused [q | k | v] rows. */
std::vector<f32>
fusedRows(Rng &rng, i32 n)
{
    std::vector<f32> rows(static_cast<std::size_t>(n) * kFusedRow);
    for (f32 &x : rows) {
        x = rng.nextSymmetricFloat();
    }
    return rows;
}

void
BM_Rope(benchmark::State &state)
{
    const i32 n = static_cast<i32>(state.range(0));
    SimClock clock;
    CostModel cost;
    simcuda::GpuProcess process(simcuda::GpuProcessOptions{}, &clock,
                                &cost);
    Rng rng(3);
    const std::vector<f32> rows = fusedRows(rng, n);
    std::vector<i32> pos(static_cast<std::size_t>(n));
    for (i32 &p : pos) {
        p = static_cast<i32>(rng.nextBounded(64));
    }
    const DeviceAddr fused =
        deviceCopy(process, rows.data(), rows.size() * sizeof(f32));
    const DeviceAddr pos_buf =
        deviceCopy(process, pos.data(), pos.size() * sizeof(i32));
    const auto &k = simcuda::BuiltinKernels::get();
    for (auto _ : state) {
        simcuda::ParamsBuilder pb;
        pb.ptr(fused).ptr(fused + kHeads * kHeadDim * sizeof(f32))
            .ptr(pos_buf).i32(n).i32(kHeads).i32(kHeads).i32(kHeadDim)
            .i32(kFusedRow).i32(kFusedRow).f32(10000.0f);
        bench::checkOk(
            process.defaultStream().launch(k.rope, pb.take(), TimingInfo{}),
            "rope");
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Rope)->ArgName("n")->Arg(1)->Arg(64)->Arg(256);

void
BM_KvWrite(benchmark::State &state)
{
    const i32 n = static_cast<i32>(state.range(0));
    SimClock clock;
    CostModel cost;
    simcuda::GpuProcess process(simcuda::GpuProcessOptions{}, &clock,
                                &cost);
    Rng rng(4);
    const std::vector<f32> rows = fusedRows(rng, n);
    std::vector<i32> slots(static_cast<std::size_t>(n));
    for (i32 &slot : slots) {
        slot = static_cast<i32>(rng.nextBounded(kCacheSlots));
    }
    const DeviceAddr fused =
        deviceCopy(process, rows.data(), rows.size() * sizeof(f32));
    const DeviceAddr slot_buf =
        deviceCopy(process, slots.data(), slots.size() * sizeof(i32));
    const u64 cache_bytes = kCacheSlots * kHeads * kHeadDim * sizeof(f32);
    auto k_cache = process.memory().malloc(cache_bytes, cache_bytes);
    auto v_cache = process.memory().malloc(cache_bytes, cache_bytes);
    bench::checkOk(k_cache.status(), "k cache");
    bench::checkOk(v_cache.status(), "v cache");
    const u64 row_bytes = kHeads * kHeadDim * sizeof(f32);
    const auto &k = simcuda::BuiltinKernels::get();
    for (auto _ : state) {
        simcuda::ParamsBuilder pb;
        pb.ptr(fused + row_bytes).ptr(fused + 2 * row_bytes).ptr(*k_cache)
            .ptr(*v_cache).ptr(slot_buf).i32(n).i32(kHeads).i32(kHeadDim)
            .i32(kFusedRow);
        bench::checkOk(process.defaultStream().launch(k.kv_write,
                                                      pb.take(),
                                                      TimingInfo{}),
                       "kv_write");
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KvWrite)->ArgName("n")->Arg(1)->Arg(64)->Arg(256);

/**
 * Causal prefill attention over @p n tokens in 64-token sequences, in
 * the same fused rows: the set-up's prefill measurement shape at
 * n = 256.
 */
void
BM_AttentionPrefill(benchmark::State &state)
{
    const i32 n = static_cast<i32>(state.range(0));
    constexpr i32 kSeqLen = 64;
    SimClock clock;
    CostModel cost;
    simcuda::GpuProcess process(simcuda::GpuProcessOptions{}, &clock,
                                &cost);
    Rng rng(6);
    const std::vector<f32> rows = fusedRows(rng, n);
    std::vector<i32> starts;
    for (i32 t = 0; t < n; t += kSeqLen) {
        starts.push_back(t);
    }
    starts.push_back(n);
    const i32 bs = static_cast<i32>(starts.size()) - 1;
    const DeviceAddr fused =
        deviceCopy(process, rows.data(), rows.size() * sizeof(f32));
    const DeviceAddr start_buf =
        deviceCopy(process, starts.data(), starts.size() * sizeof(i32));
    const u64 out_bytes =
        static_cast<u64>(n) * kHeads * kHeadDim * sizeof(f32);
    auto out = process.memory().malloc(out_bytes, out_bytes);
    bench::checkOk(out.status(), "attention out");
    const u64 row_bytes = kHeads * kHeadDim * sizeof(f32);
    const auto &k = simcuda::BuiltinKernels::get();
    for (auto _ : state) {
        simcuda::ParamsBuilder pb;
        pb.ptr(fused).ptr(fused + row_bytes).ptr(fused + 2 * row_bytes)
            .ptr(start_buf).ptr(*out).i32(bs).i32(kHeads).i32(kHeads)
            .i32(kHeadDim).i32(kFusedRow).f32(0.35f);
        bench::checkOk(process.defaultStream().launch(k.attention_prefill,
                                                      pb.take(),
                                                      TimingInfo{}),
                       "attention_prefill");
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AttentionPrefill)->ArgName("n")->Arg(64)->Arg(256);

/** BPE training exactly as each runtime's tokenizer load runs it. */
void
BM_TokenizerTrain(benchmark::State &state)
{
    const std::string corpus = llm::syntheticCorpus(7, 8192);
    for (auto _ : state) {
        auto tokenizer = llm::BpeTokenizer::train(corpus, 256 + 64);
        benchmark::DoNotOptimize(tokenizer);
    }
    state.SetBytesProcessed(
        static_cast<i64>(state.iterations() * corpus.size()));
}
BENCHMARK(BM_TokenizerTrain)->Unit(benchmark::kMillisecond);

void
BM_TokenizerEncode(benchmark::State &state)
{
    const std::string corpus = llm::syntheticCorpus(7, 8192);
    const auto tokenizer = llm::BpeTokenizer::train(corpus, 512);
    const std::string text = llm::syntheticCorpus(13, 512);
    for (auto _ : state) {
        auto ids = tokenizer.encode(text);
        benchmark::DoNotOptimize(ids);
    }
    state.SetBytesProcessed(
        static_cast<i64>(state.iterations() * text.size()));
}
BENCHMARK(BM_TokenizerEncode);

void
BM_ImageOpenView(benchmark::State &state)
{
    // The restore path's decode: open the v6 image straight out of a
    // borrowed buffer, whole-image CRC included.
    core::OfflineOptions opts;
    opts.model = tinyModel();
    opts.pipeline.validate = false;
    auto offline = core::materialize(opts);
    const std::span<const u8> bytes(offline->image_bytes);
    for (auto _ : state) {
        auto image = core::MaterializedImage::openView(bytes);
        benchmark::DoNotOptimize(image);
    }
    state.SetBytesProcessed(
        static_cast<i64>(state.iterations() * bytes.size()));
}
BENCHMARK(BM_ImageOpenView);

void
BM_OfflineMaterialize(benchmark::State &state)
{
    for (auto _ : state) {
        core::OfflineOptions opts;
        opts.model = tinyModel();
        opts.pipeline.validate = false;
        auto offline = core::materialize(opts);
        benchmark::DoNotOptimize(offline);
    }
}
BENCHMARK(BM_OfflineMaterialize)->Unit(benchmark::kMillisecond);

/**
 * One traced offline + cold start of the tiny model. Runs only when
 * `--trace-out` / `--metrics-out` were given: the microbench binary
 * then doubles as the smoke-test trace producer for scripts/check.sh,
 * exercising the whole span pipeline end to end.
 */
void
runTracedColdStart(bench::Reporter &reporter)
{
    core::OfflineOptions oopts;
    oopts.model = tinyModel();
    oopts.pipeline.validate = false;
    oopts.pipeline.trace = reporter.trace();
    oopts.pipeline.metrics = reporter.metrics();
    auto offline = core::materialize(oopts);
    bench::checkOk(offline.status(), "materialize");

    core::MedusaEngine::Options eopts;
    eopts.model = oopts.model;
    eopts.restore.pipeline.trace = reporter.trace();
    eopts.restore.pipeline.metrics = reporter.metrics();
    const core::MaterializedImage image =
        bench::openImage(offline->image_bytes);
    auto engine = core::MedusaEngine::coldStartFromImage(eopts, image);
    bench::checkOk(engine.status(), "cold start");
    reporter.setTrackName(0, "medusa");
}

} // namespace
} // namespace medusa

/**
 * Like BENCHMARK_MAIN(), plus a --json convenience alias for
 * --benchmark_format=json so harness scripts can request
 * machine-readable output uniformly across the bench binaries, and the
 * shared --trace-out / --metrics-out reporting flags (DESIGN.md §12).
 */
int
main(int argc, char **argv)
{
    medusa::bench::Reporter reporter(argc, argv);
    static char json_flag[] = "--benchmark_format=json";
    std::vector<char *> args(argv, argv + argc);
    for (char *&arg : args) {
        if (std::string(arg) == "--json") {
            arg = json_flag;
        }
    }
    medusa::registerMatmulVariants();
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data())) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (reporter.trace() != nullptr || reporter.metrics() != nullptr) {
        medusa::runTracedColdStart(reporter);
    }
    reporter.finish();
    return 0;
}
