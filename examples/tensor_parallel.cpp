/**
 * @file
 * The §8 multi-GPU extension in action: materialize a tensor-parallel
 * (TP=2) deployment per rank, restore it in fresh processes, and
 * lockstep-replay a decode step whose all-reduce collectives the
 * replayer executes across ranks.
 *
 * Usage:
 *   ./build/examples/tensor_parallel [model-name]
 * (the model's head and intermediate dims must divide by 2;
 *  Falcon-7B's 71 heads do not)
 */

#include <cstdio>
#include <string>

#include "medusa/tp.h"

using namespace medusa;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "Llama2-7B";
    auto model = llm::findModel(name);
    if (!model.isOk()) {
        std::fprintf(stderr, "unknown model %s\n", name.c_str());
        return 1;
    }
    if (model->heads % 2 != 0) {
        std::fprintf(stderr,
                     "%s has %u heads; pick a model divisible by 2\n",
                     name.c_str(), model->heads);
        return 1;
    }
    // Keep the demo snappy: a few layers, a few batch sizes.
    model->num_layers = std::min<u32>(model->num_layers, 6);

    std::printf("=== Medusa x tensor parallelism (%s, %u layers, TP=2) "
                "===\n\n",
                name.c_str(), model->num_layers);

    core::TpOfflineOptions oopts;
    oopts.model = *model;
    oopts.world = 2;
    oopts.batch_sizes = {1, 8, 64};
    auto offline = core::materializeTp(oopts);
    if (!offline.isOk()) {
        std::fprintf(stderr, "offline phase failed: %s\n",
                     offline.status().toString().c_str());
        return 1;
    }
    auto images = core::openRankImages(offline->rank_images);
    if (!images.isOk()) {
        std::fprintf(stderr, "image open failed: %s\n",
                     images.status().toString().c_str());
        return 1;
    }
    for (u32 r = 0; r < 2; ++r) {
        const core::MaterializedImage &a = (*images)[r];
        u64 collectives = 0;
        for (const auto &rel : a.kernel_relocs) {
            if (a.kernel_table[rel.kernel_index].name.find("all_reduce") !=
                std::string::npos) {
                ++collectives;
            }
        }
        std::printf("rank %u image: %llu nodes across %zu graphs "
                    "(%llu all-reduce nodes), %zu KiB\n",
                    r, static_cast<unsigned long long>(a.total_nodes),
                    a.graphs.size(),
                    static_cast<unsigned long long>(collectives),
                    offline->rank_images[r].size() / 1024);
    }

    core::TpMedusaEngine::Options mopts;
    mopts.model = *model;
    mopts.world = 2;
    mopts.aslr_seed = 0xdead;
    mopts.restore.pipeline.validate = true;
    mopts.restore.pipeline.validate_batch_sizes = {1, 64};
    auto engine = core::TpMedusaEngine::coldStartFromImages(mopts, *images);
    if (!engine.isOk()) {
        std::fprintf(stderr, "online restore failed: %s\n",
                     engine.status().toString().c_str());
        return 1;
    }
    std::printf("\nonline: restored and validated against a reference "
                "cluster (bit-exact), loading %.2f s\n",
                (*engine)->coldStartReport().loadingSec());

    // Run one lockstep decode step end-to-end.
    auto st = (*engine)->cluster().stageValidationState(8);
    if (!st.isOk()) {
        std::fprintf(stderr, "staging failed\n");
        return 1;
    }
    auto logits = (*engine)->cluster().lockstepDecodeLogits(8);
    if (!logits.isOk()) {
        std::fprintf(stderr, "lockstep decode failed: %s\n",
                     logits.status().toString().c_str());
        return 1;
    }
    f64 mag = 0;
    for (f32 v : *logits) {
        mag += v > 0 ? v : -v;
    }
    std::printf("lockstep decode at bs=8: %zu logits, mean |logit| = "
                "%.4f\n",
                logits->size(),
                mag / static_cast<f64>(logits->size()));
    std::printf("\nthe replayer played NCCL: every all-reduce node "
                "gathered both ranks' partial\nprojections, summed "
                "them, and scattered the result back.\n");
    return 0;
}
