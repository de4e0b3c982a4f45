/**
 * @file
 * Table 1: the ten models, their parameter sizes and the total number
 * of CUDA graph nodes across the 35 captured batch sizes. Also reports
 * the §5 statistic (fraction of kernels restorable via dlsym for
 * Llama2 13B) and the §4.3 statistic (fraction of kernels using
 * permanent buffers).
 */

#include <cstdio>

#include "bench/bench_util.h"
#include "llm/forward.h"

using namespace medusa;

int
main()
{
    std::printf("=== Table 1: models, parameter sizes, CUDA graph nodes "
                "===\n\n");
    std::printf("%-14s %12s %12s | %12s %12s\n", "model", "params(ours)",
                "nodes(ours)", "params(ppr)", "nodes(ppr)");
    bench::printRule();

    struct PaperRow
    {
        f64 gib;
        u64 nodes;
    };
    const PaperRow paper[] = {
        {13.4, 14406}, {12.6, 12518}, {24.2, 16150}, {1.2, 9118},
        {3.4, 9550},   {7.4, 16150},  {14.4, 12902}, {26.4, 16350},
        {11.3, 12902}, {16.4, 19318},
    };

    u64 total_nodes = 0;
    std::size_t row = 0;
    for (const llm::ModelConfig &model : llm::modelZoo()) {
        u64 param_bytes = 0;
        for (const auto &spec : llm::buildTensorSpecs(model)) {
            param_bytes += spec.logical_bytes;
        }
        u64 nodes = 0;
        for (u32 bs : llm::captureBatchSizes()) {
            nodes += llm::ForwardPass::decodeNodeCount(model, bs);
        }
        total_nodes += nodes;
        std::printf("%-14s %11.1fG %12llu | %11.1fG %12llu\n",
                    model.name.c_str(),
                    static_cast<f64>(param_bytes) /
                        static_cast<f64>(units::GiB),
                    static_cast<unsigned long long>(nodes),
                    paper[row].gib,
                    static_cast<unsigned long long>(paper[row].nodes));
        ++row;
    }
    bench::printRule();
    std::printf("total graph nodes: %llu (paper: 139364)\n\n",
                static_cast<unsigned long long>(total_nodes));

    // ---- §5 / §4.3 statistics from a real offline run ------------------
    auto model = bench::unwrap(llm::findModel("Llama2-13B"), "findModel");
    const core::OfflineResult offline =
        bench::unwrap(core::materialize(bench::offlineOptions(model)),
                      "materialize Llama2-13B");
    const core::AnalysisStats &s = offline.stats;
    const f64 visible =
        100.0 * static_cast<f64>(s.dlsym_visible_nodes) /
        static_cast<f64>(s.dlsym_visible_nodes + s.hidden_kernel_nodes);
    std::printf("Llama2-13B kernels restorable via dlsym: %.1f%% "
                "(paper: 69.2%% at bs=1)\n",
                visible);

    // Permanent-buffer statistic: nodes using split-K semaphores (one
    // kernel relocation per node).
    const core::MaterializedImage &image = offline.artifact;
    u64 semaphore_nodes = 0;
    for (const auto &rel : image.kernel_relocs) {
        if (image.kernel_table[rel.kernel_index].name.find("splitk") !=
            std::string::npos) {
            ++semaphore_nodes;
        }
    }
    std::printf("kernels requiring permanent buffers: %.1f%% "
                "(paper: 9.0%%), each 2 x 4-byte buffers\n",
                100.0 * static_cast<f64>(semaphore_nodes) /
                    static_cast<f64>(s.total_nodes));
    std::printf("materialized contents: %llu bytes across %llu "
                "permanent buffers\n",
                static_cast<unsigned long long>(
                    s.materialized_content_bytes),
                static_cast<unsigned long long>(s.permanent_buffers));
    return 0;
}
