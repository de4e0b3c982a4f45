/**
 * @file
 * Ablations of Medusa's design choices (DESIGN.md §7):
 *
 *  A. Trace-based vs naive indirect-index matching (§4.1 / Figure 6):
 *     naive matching picks the earliest allocation whose range contains
 *     a pointer, which mis-binds pool-reused addresses; the validation
 *     dry-run must then repair (or fail), while trace-based matching
 *     validates cleanly with zero repairs.
 *  B. Copy-free vs full buffer-content materialization (§4.3): bytes
 *     materialized and restored.
 *  C. Kernel-address restoration paths (§5): dlsym-only coverage vs
 *     dlsym + triggering-kernels (hidden cuBLAS-like kernels are only
 *     reachable through module enumeration).
 */

#include <cstdio>

#include "bench/bench_util.h"
#include "medusa/restore.h"

using namespace medusa;

int
main()
{
    auto model = bench::unwrap(llm::findModel("Qwen1.5-1.8B"),
                               "findModel");

    std::printf("=== Ablation A: indirect-index matching strategy "
                "(model %s) ===\n",
                model.name.c_str());
    {
        // Run the analysis both ways and count disagreements: every
        // disagreement is a pointer the naive strategy binds to a
        // *stale* allocation (the paper's Figure 6 false positive).
        core::OfflineOptions opts;
        opts.model = model;
        opts.pipeline.validate = false;
        opts.analyze.trace_based_matching = true;
        auto traced = bench::unwrap(core::materialize(opts),
                                    "trace-based analysis");
        opts.analyze.trace_based_matching = false;
        auto naive = bench::unwrap(core::materialize(opts),
                                   "naive analysis");

        u64 pointer_params = 0;
        u64 misbound = 0;
        for (std::size_t g = 0; g < traced.artifact.graphs.size(); ++g) {
            const auto &tg = traced.artifact.graphs[g];
            const auto &ng = naive.artifact.graphs[g];
            for (std::size_t n = 0; n < tg.nodes.size(); ++n) {
                for (std::size_t p = 0;
                     p < tg.nodes[n].params.size(); ++p) {
                    const auto &tp = tg.nodes[n].params[p];
                    const auto &np = ng.nodes[n].params[p];
                    if (tp.kind != core::ParamSpec::kIndirect) {
                        continue;
                    }
                    ++pointer_params;
                    if (np.kind != tp.kind ||
                        np.alloc_index != tp.alloc_index ||
                        np.offset != tp.offset) {
                        ++misbound;
                    }
                }
            }
        }
        std::printf("  pointer params: %llu; naive matching binds %llu "
                    "(%.1f%%) of them to a stale allocation\n",
                    static_cast<unsigned long long>(pointer_params),
                    static_cast<unsigned long long>(misbound),
                    100.0 * static_cast<f64>(misbound) /
                        static_cast<f64>(pointer_params));
        std::printf("  (each stale binding re-materializes at an "
                    "arbitrary other buffer online — the Figure 6 "
                    "corruption; see AnalyzeTest.NaiveMatching"
                    "CorruptsReusedBuffer for a functional proof)\n");
    }

    std::printf("\n=== Ablation B: copy-free buffer contents (§4.3) "
                "===\n");
    for (bool copy_free : {true, false}) {
        core::OfflineOptions opts;
        opts.model = model;
        opts.analyze.copy_free_contents = copy_free;
        opts.pipeline.validate = false;
        auto result = bench::unwrap(core::materialize(opts),
                                    "materialize");
        const auto &s = result.artifact.stats;
        std::printf("  %-10s materialized %10llu bytes in %6llu buffers "
                    "(image %0.2f MiB)\n",
                    copy_free ? "copy-free" : "full-dump",
                    static_cast<unsigned long long>(
                        s.materialized_content_bytes),
                    static_cast<unsigned long long>(s.permanent_buffers),
                    static_cast<f64>(result.image_bytes.size()) /
                        static_cast<f64>(units::MiB));
    }

    std::printf("\n=== Ablation C: kernel address restoration paths (§5) "
                "===\n");
    core::OfflineOptions oopts;
    oopts.model = model;
    oopts.pipeline.validate = false;
    auto offline = bench::unwrap(core::materialize(oopts), "materialize");
    const core::MaterializedImage image =
        bench::openImage(offline.image_bytes);

    struct Mode
    {
        const char *name;
        bool dlsym;
        bool triggering;
    };
    for (const Mode &mode :
         {Mode{"dlsym + triggering-kernels", true, true},
          Mode{"triggering-kernels only", false, true},
          Mode{"dlsym only", true, false}}) {
        core::MedusaEngine::Options mopts;
        mopts.model = model;
        mopts.aslr_seed = 4242;
        mopts.restore.use_dlsym = mode.dlsym;
        mopts.restore.use_triggering_kernels = mode.triggering;
        auto engine = core::MedusaEngine::coldStartFromImage(mopts, image);
        if (engine.isOk()) {
            const auto &r = (*engine)->coldStartReport().restore;
            std::printf("  %-28s OK: %llu kernels via dlsym, %llu via "
                        "module enumeration, loading %.2f s\n",
                        mode.name,
                        static_cast<unsigned long long>(
                            r.kernels_via_dlsym),
                        static_cast<unsigned long long>(
                            r.kernels_via_enumeration),
                        (*engine)->coldStartReport().times.loading);
        } else {
            std::printf("  %-28s FAILED: %s\n", mode.name,
                        engine.status().toString().c_str());
        }
    }
    std::printf("\n(hidden cuBLAS-like GEMMs make the dlsym-only mode "
                "fail, reproducing why §5 needs triggering-kernels)\n");
    return 0;
}
