/**
 * @file
 * The offline phase as a standalone tool: materialize the CUDA graphs
 * and KV-cache initialization state for a model and write the v6 image
 * to disk — the per-<GPU type, model> step a provider runs once before
 * deploying a serverless endpoint. The image is what every online cold
 * start restores from and what medusa_lint verifies.
 *
 * Usage:
 *   ./build/examples/offline_materialize [model-name] [output-path]
 * Defaults: Qwen1.5-1.8B, artifacts/<model>.mdsi
 */

#include <cstdio>
#include <string>

#include "common/serialize.h"
#include "common/stats.h"
#include "medusa/offline.h"

using namespace medusa;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "Qwen1.5-1.8B";
    auto model = llm::findModel(name);
    if (!model.isOk()) {
        std::fprintf(stderr, "unknown model %s; available:\n",
                     name.c_str());
        for (const auto &m : llm::modelZoo()) {
            std::fprintf(stderr, "  %s\n", m.name.c_str());
        }
        return 1;
    }
    const std::string path =
        argc > 2 ? argv[2] : "artifacts/" + name + ".mdsi";

    std::printf("materializing %s ...\n", name.c_str());
    core::OfflineOptions opts;
    opts.model = *model;
    opts.pipeline.validate = true; // dry-run the online phase before shipping
    auto result = core::materialize(opts);
    if (!result.isOk()) {
        std::fprintf(stderr, "offline phase failed: %s\n",
                     result.status().toString().c_str());
        return 1;
    }

    if (Status st = writeFile(path, result->image_bytes); !st.isOk()) {
        std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                     st.toString().c_str());
        return 1;
    }

    const core::MaterializedImage &a = result->artifact;
    std::printf("\nwrote %s (%.2f MiB v6 image)\n", path.c_str(),
                static_cast<f64>(result->image_bytes.size()) /
                    static_cast<f64>(units::MiB));
    std::printf("offline phase:    %.1f virtual s (capturing %.1f, "
                "analysis %.1f)\n",
                result->totalOffline(), result->capture_stage_sec,
                result->analysis_stage_sec);
    std::printf("graphs:           %zu batch sizes, %llu nodes total\n",
                a.graphs.size(),
                static_cast<unsigned long long>(a.total_nodes));
    std::printf("free GPU memory:  %s (materialized KV-init value)\n",
                formatBytes(a.free_gpu_memory).c_str());
    std::printf("alloc sequence:   %zu ops (%llu organic)\n",
                a.ops.size(),
                static_cast<unsigned long long>(a.organic_op_count));
    const auto &s = result->stats;
    std::printf("params:           %llu pointers, %llu constants, "
                "%llu decoys demoted\n",
                static_cast<unsigned long long>(s.pointer_params),
                static_cast<unsigned long long>(s.constant_params),
                static_cast<unsigned long long>(s.decoy_candidates));
    std::printf("kernels:          %llu dlsym-visible nodes, %llu "
                "hidden (need triggering-kernels)\n",
                static_cast<unsigned long long>(s.dlsym_visible_nodes),
                static_cast<unsigned long long>(s.hidden_kernel_nodes));
    std::printf("buffer contents:  %llu bytes in %llu permanent "
                "buffers (copy-free: %llu model-param + %llu temp "
                "buffers skipped)\n",
                static_cast<unsigned long long>(
                    s.materialized_content_bytes),
                static_cast<unsigned long long>(s.permanent_buffers),
                static_cast<unsigned long long>(s.model_param_buffers),
                static_cast<unsigned long long>(s.temp_buffers));
    std::printf("validation:       online dry-run passed\n");
    return 0;
}
