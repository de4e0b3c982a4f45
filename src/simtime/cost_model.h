/**
 * @file
 * The virtual-time cost model for the simulated GPU stack.
 *
 * Every operation in the simulator (kernel launches, kernel execution,
 * memory transfers, module loading, graph capture/instantiate/replay,
 * Medusa restoration steps) advances the SimClock by a cost computed
 * here. Constants are calibrated against the per-stage seconds the paper
 * publishes for Qwen1.5 4B in Figure 8 (see
 * EXPERIMENTS.md); the *structure* of the model — per-kernel CPU launch
 * overhead vs a single graph launch, bandwidth-bound decode, flops-bound
 * prefill — is what reproduces the paper's latency shapes.
 */

#ifndef MEDUSA_SIMTIME_COST_MODEL_H
#define MEDUSA_SIMTIME_COST_MODEL_H

#include "common/types.h"

namespace medusa {

/**
 * Logical work metadata attached to a kernel launch. Functional buffers
 * in the simulator are scaled down; timing is computed from the *logical*
 * (real-model) work volume recorded here.
 */
struct TimingInfo
{
    /** Floating-point operations the kernel would perform on the GPU. */
    f64 flops = 0;
    /** Bytes the kernel would move to/from HBM. */
    f64 bytes = 0;
};

/**
 * Tunable constants of the simulated platform (A100-40GB-like device,
 * Optane-SSD-array-like storage). See DESIGN.md §2 for the substitution
 * rationale.
 */
struct CostModel
{
    // ---- CPU-side launch path -------------------------------------
    /** CPU cost to launch one kernel eagerly (microseconds): the
     *  framework-level (PyTorch dispatcher + Python) per-op overhead
     *  that CUDA graphs eliminate (§2.2). */
    f64 kernel_launch_us = 20.0;
    /** CPU cost to record one node during stream capture. */
    f64 capture_record_us = 6.0;
    /** Per-node cost of cudaGraphInstantiate(). */
    f64 graph_instantiate_per_node_us = 4.0;
    /** CPU cost to launch one whole graph. */
    f64 graph_launch_us = 25.0;
    /** GPU-side per-node dispatch inside a graph replay. */
    f64 graph_node_dispatch_us = 0.5;

    // ---- GPU execution ---------------------------------------------
    /** Peak dense fp16 throughput (TFLOP/s). */
    f64 gpu_tflops = 280.0;
    /** Efficiency factor for graph / steady-state execution. */
    f64 steady_efficiency = 0.55;
    /**
     * The KV-init *profiling* forwarding is slower than a steady-state
     * prefill: a large fixed part (device syncs, mem_get_info, dummy
     * cache setup, framework bookkeeping) plus a mild multiplicative
     * slowdown on the forwarding itself (cold kernels at the maximum
     * batch). Calibrated against Figure 8's 0.50 s KV-init stage for
     * Qwen1.5 4B; the affine shape also reproduces Figure 2's finding
     * that only ~6 of 10 models have an async bubble.
     */
    f64 kv_profile_fixed_ms = 310.0;
    f64 kv_profile_slowdown = 1.45;
    /** HBM bandwidth (GB/s). */
    f64 gpu_membw_gbps = 1400.0;
    /** Fixed floor per kernel execution (microseconds). */
    f64 kernel_min_exec_us = 5.0;

    // ---- Transfers ---------------------------------------------------
    /** Aggregate SSD read bandwidth (GB/s). */
    f64 ssd_read_gbps = 20.5;
    /** Host-to-device copy bandwidth (GB/s). */
    f64 pcie_gbps = 24.0;
    /**
     * Slowdown multiplier applied to weight copies while a profiling
     * forwarding runs concurrently (the mutual interference the paper
     * measures with Nsight in §7.3).
     */
    f64 weights_profiling_interference = 1.21;

    // ---- Driver operations -------------------------------------------
    /** cudaMalloc() driver cost (microseconds). */
    f64 cuda_malloc_us = 10.0;
    /** cudaFree() driver cost (microseconds). */
    f64 cuda_free_us = 6.0;
    /** Caching-allocator hit (no driver call). */
    f64 cached_alloc_us = 1.2;
    /** First-time module load (milliseconds). */
    f64 module_load_ms = 2.5;
    /** CUDA context creation (milliseconds); part of structure init. */
    f64 cuda_context_init_ms = 280.0;
    /** Stream/device synchronize overhead (microseconds). */
    f64 sync_us = 12.0;

    // ---- Loading-phase stages -----------------------------------------
    /** Host-side structure setup per weight tensor (microseconds). */
    f64 struct_init_per_tensor_us = 2000.0;
    /** Tokenizer load cost per vocabulary entry (nanoseconds). */
    f64 tokenizer_per_entry_ns = 1380.0;
    /** Fixed tokenizer load cost (milliseconds). */
    f64 tokenizer_fixed_ms = 2.0;
    /** KV cache block-pool carving cost per GiB reserved (ms). */
    f64 kv_block_alloc_per_gib_ms = 0.55;
    /** Fixed KV-init bookkeeping cost (milliseconds). */
    f64 kv_init_fixed_ms = 6.0;

    // ---- Medusa restoration ------------------------------------------
    /** Artifact deserialization bandwidth (GB/s, from page cache/SSD). */
    f64 artifact_read_gbps = 8.0;
    /**
     * Per-node cost to patch parameters + add node to graph (us),
     * charged once per restored node by the patch pass: a real CUDA
     * restore still sets every node's params and adds it to its graph.
     */
    f64 restore_per_node_us = 24.0;
    /** Per-allocation cost when replaying the allocation sequence (us). */
    f64 restore_replay_alloc_us = 1.6;
    /** Per-kernel cost to match a name during module enumeration (us). */
    f64 kernel_name_match_us = 0.8;
    /** Offline analysis cost per (node, trace-window) unit (us). */
    f64 analysis_per_node_us = 1500.0;
    /** Offline per-node cost of saving captured graph state (us). */
    f64 offline_save_per_node_us = 450.0;
    /**
     * Fraction of the online capture/restore stage that can overlap the
     * weights loading: the artifact prefetch and first-layer warm-up
     * proceed while weight copies saturate the PCIe link, but graph
     * patching and instantiation contend with the loader thread.
     * Matches the partial overlap visible in Figure 8(c).
     */
    f64 restore_overlap_fraction = 0.25;

    // ---- Serverless platform -----------------------------------------
    /** Runtime-initialization phase with a cold container (ms). */
    f64 runtime_init_cold_ms = 820.0;
    /** Runtime-initialization with a warm container pool (ms). */
    f64 runtime_init_warm_ms = 0.0;

    /** Kernel execution time given logical work; see class comment. */
    SimTimeNs
    kernelExecTime(const TimingInfo &t, f64 efficiency) const
    {
        const f64 flop_us = t.flops / (gpu_tflops * efficiency * 1e6);
        const f64 mem_us = t.bytes / (gpu_membw_gbps * 1e3);
        const f64 us = kernel_min_exec_us + (flop_us > mem_us ? flop_us
                                                              : mem_us);
        return units::usToNs(us);
    }

    /** Time to read @p bytes from the simulated SSD array. */
    SimTimeNs
    ssdReadTime(f64 bytes) const
    {
        return units::usToNs(bytes / (ssd_read_gbps * 1e3));
    }

    /** Time to copy @p bytes host-to-device. */
    SimTimeNs
    pcieCopyTime(f64 bytes) const
    {
        return units::usToNs(bytes / (pcie_gbps * 1e3));
    }
};

} // namespace medusa

#endif // MEDUSA_SIMTIME_COST_MODEL_H
