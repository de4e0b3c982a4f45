/**
 * @file
 * The paper's §2.4 "potential solutions and limitations" plus the §9
 * checkpoint/restore comparison, quantified:
 *
 *  1. HOT SPARES eliminate cold starts but occupy GPUs continuously —
 *     measured as GPU-seconds billed vs p99 TTFT.
 *  2. DEFERRED CAPTURE does not remove the capturing cost; it delays
 *     and disperses it into serving-time latency spikes.
 *  3. CHECKPOINT/RESTORE restores fast but its image is the whole
 *     device footprint (tens of GB) vs Medusa's few-MB artifact.
 */

#include <cstdio>

#include "bench/bench_util.h"
#include "medusa/checkpoint.h"
#include "medusa/restore.h"
#include "serverless/cluster.h"

using namespace medusa;

int
main()
{
    auto model = bench::unwrap(llm::findModel("Qwen1.5-4B"),
                               "findModel");
    const auto m = bench::unwrap(
        core::materialize(bench::offlineOptions(model)), "materialize");

    // ---- shared trace ------------------------------------------------
    workload::TraceOptions topts;
    topts.requests_per_sec = 3.0;
    topts.duration_sec = 600;
    topts.seed = 99;
    const auto trace = workload::generateShareGptTrace(topts);

    auto profileFor = [&](llm::Strategy s) {
        serverless::ProfileOptions popts;
        popts.model = model;
        popts.strategy = s;
        popts.artifact = &m.artifact;
        return bench::unwrap(serverless::buildServingProfile(popts),
                             "profile");
    };
    const auto vllm_profile = profileFor(llm::Strategy::kVllm);
    const auto medusa_profile = profileFor(llm::Strategy::kMedusa);
    const auto deferred_profile =
        profileFor(llm::Strategy::kDeferredCapture);

    // Low request rate: the regime where the paper calls hot spares
    // "unaffordable" — mostly-idle GPUs are billed around the clock.
    workload::TraceOptions sparse_opts;
    sparse_opts.requests_per_sec = 0.4;
    sparse_opts.duration_sec = 1800;
    sparse_opts.seed = 7;
    const auto sparse = workload::generateShareGptTrace(sparse_opts);

    std::printf("=== §2.4 (1): hot spares vs on-demand cold starts "
                "===\n");
    std::printf("(%s, RPS %.1f over %.0f s, %zu requests — a "
                "low-traffic endpoint)\n\n",
                model.name.c_str(), sparse_opts.requests_per_sec,
                sparse_opts.duration_sec, sparse.size());
    std::printf("%-26s %9s %9s %12s %7s\n", "policy", "p50 (s)",
                "p99 (s)", "GPU-seconds", "colds");
    for (u32 spares : {0u, 1u, 2u, 4u}) {
        serverless::ClusterOptions copts;
        copts.hot_spares = spares;
        copts.profile = &vllm_profile;
        auto metrics = serverless::simulateCluster(copts, sparse);
        char label[64];
        std::snprintf(label, sizeof(label), "vLLM + %u hot spare%s",
                      spares, spares == 1 ? "" : "s");
        std::printf("%-26s %9.3f %9.3f %12.0f %7llu\n", label,
                    metrics.ttft_sec.p50(), metrics.ttft_sec.p99(),
                    metrics.gpu_seconds,
                    static_cast<unsigned long long>(
                        metrics.metrics.counterValue("cluster.cold_starts")));
    }
    {
        serverless::ClusterOptions copts;
        copts.profile = &medusa_profile;
        auto metrics = serverless::simulateCluster(copts, sparse);
        std::printf("%-26s %9.3f %9.3f %12.0f %7llu\n",
                    "Medusa (no spares)", metrics.ttft_sec.p50(),
                    metrics.ttft_sec.p99(), metrics.gpu_seconds,
                    static_cast<unsigned long long>(
                        metrics.metrics.counterValue("cluster.cold_starts")));
    }
    std::printf("-> spares buy tail latency with always-on GPU cost "
                "(and must be provisioned per model type);\n   Medusa "
                "approaches their latency pay-as-you-go.\n\n");

    std::printf("=== §2.4 (2): deferring the capturing stage ===\n\n");
    std::printf("%-18s %10s | %10s %10s | %10s %10s\n", "strategy",
                "loading(s)", "TTFT p99", "TTFT mean", "E2E p99",
                "E2E mean");
    for (const auto *profile :
         {&vllm_profile, &deferred_profile, &medusa_profile}) {
        serverless::ClusterOptions copts;
        copts.profile = profile;
        auto metrics = serverless::simulateCluster(copts, trace);
        std::printf("%-18s %10.2f | %10.3f %10.3f | %10.3f %10.3f\n",
                    llm::strategyName(profile->strategy),
                    profile->loading_sec, metrics.ttft_sec.p99(),
                    metrics.ttft_sec.mean(), metrics.e2e_sec.p99(),
                    metrics.e2e_sec.mean());
    }
    f64 dispersed = 0;
    for (f64 p : deferred_profile.capture_penalty_sec) {
        dispersed += p;
    }
    std::printf("-> deferring shortens loading, but every fresh "
                "instance re-pays warm-up+capture lazily during\n"
                "   serving: up to %.2f s of capture work per instance "
                "surfaces as decode stalls — the cost is\n   \"merely "
                "delayed and dispersed\", and unlike Medusa it recurs "
                "at every cold start.\n\n",
                dispersed);

    std::printf("=== §9: checkpoint/restore vs Medusa ===\n\n");
    llm::BaselineEngine::Options bopts;
    bopts.model = model;
    bopts.strategy = llm::Strategy::kVllm;
    auto donor = bench::unwrap(llm::BaselineEngine::coldStart(bopts),
                               "donor engine");
    auto image = bench::unwrap(
        core::CheckpointEngine::checkpoint(*donor), "checkpoint");
    auto restored = bench::unwrap(
        core::CheckpointEngine::restore(image), "restore");

    core::MedusaEngine::Options mopts;
    mopts.model = model;
    const core::MaterializedImage medusa_image =
        bench::openImage(m.image_bytes);
    auto medusa = bench::unwrap(
        core::MedusaEngine::coldStartFromImage(mopts, medusa_image),
        "medusa");

    std::printf("%-22s %12s %14s\n", "approach", "loading (s)",
                "persisted state");
    std::printf("%-22s %12.2f %14s\n", "vanilla vLLM",
                donor->coldStartReport().times.loading, "-");
    std::printf("%-22s %12.2f %14s\n", "checkpoint/restore",
                restored->times().loading,
                formatBytes(image.totalBytes()).c_str());
    std::printf("%-22s %12.2f %14s\n", "Medusa",
                medusa->coldStartReport().times.loading,
                formatBytes(m.image_bytes.size()).c_str());
    std::printf("\n-> a full checkpoint restores in one sequential "
                "read but ships the whole device footprint;\n   Medusa "
                "materializes only what cannot be cheaply rebuilt "
                "(%llux smaller state).\n",
                static_cast<unsigned long long>(
                    image.totalBytes() / m.image_bytes.size()));
    return 0;
}
