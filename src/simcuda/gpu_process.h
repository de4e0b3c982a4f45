/**
 * @file
 * One simulated process launch on the simulated GPU.
 *
 * A GpuProcess models everything that changes between cold starts of a
 * serving instance: the device memory addresses returned by cudaMalloc
 * (ASLR + jitter), the kernel function addresses (module slide), and the
 * set of loaded modules. Medusa's offline and online phases run in
 * *different* GpuProcess instances, exactly like two process launches on
 * real hardware.
 *
 * The process exposes:
 *  - driver memory ops (cudaMalloc/cudaFree/memcpy/memset),
 *  - streams with eager launch, events, and stream capture,
 *  - graph instantiation and replay,
 *  - the module/symbol API used by kernel-address restoration
 *    (dlsym, cudaGetFuncBySymbol, cuModuleEnumerateFunctions,
 *    cuFuncGetName),
 *  - observer hooks for Medusa's interception of launches.
 *
 * All operations advance the shared SimClock per the CostModel.
 */

#ifndef MEDUSA_SIMCUDA_GPU_PROCESS_H
#define MEDUSA_SIMCUDA_GPU_PROCESS_H

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "simcuda/graph.h"
#include "simcuda/kernel.h"
#include "simcuda/memory.h"
#include "simcuda/module.h"
#include "simtime/cost_model.h"

namespace medusa::simcuda {

class GpuProcess;
class Stream;

/** Observes every kernel launch (eager or captured); used by Medusa. */
class LaunchObserver
{
  public:
    virtual ~LaunchObserver() = default;

    /**
     * Called after the launch is resolved to a per-process address.
     * @param capturing true if the launch was recorded into a graph
     *        rather than executed.
     */
    virtual void onKernelLaunch(KernelAddr fn, ParamView params,
                                bool capturing) = 0;
};

/** A CUDA-event simulation, usable for capture forks and GPU timing. */
class Event
{
  public:
    Event() = default;

  private:
    friend class Stream;
    friend class GpuProcess;

    bool recorded_ = false;
    /** When recorded during capture: the dependency frontier. */
    bool captured_ = false;
    std::vector<NodeId> capture_deps_;
    /** When recorded eagerly: the stream's GPU completion time. */
    SimTimeNs gpu_time_ = 0;
};

/** Identifies a capture in progress. */
struct CaptureSession
{
    CudaGraph graph;
    Stream *origin = nullptr;
    /** Number of nodes recorded (== graph.nodeCount()). */
    u64 recorded_nodes = 0;
};

/**
 * A simulated CUDA stream. Launches execute eagerly (with an async GPU
 * pipeline model) unless the stream participates in a capture, in which
 * case they are recorded as graph nodes and NOT executed — matching real
 * stream-capture semantics.
 */
class Stream
{
  public:
    /**
     * Launch a kernel by registry id. The parameters are copied (into
     * the graph when capturing), so @p params need only outlive the
     * call.
     */
    Status launch(KernelId kernel, ParamView params,
                  const TimingInfo &timing);

    /** Record an event on this stream. */
    Status recordEvent(Event &event);

    /**
     * Make this stream wait for an event. If the event was recorded
     * during an active capture, this stream joins the capture (the
     * fork/join idiom used to build DAG-shaped graphs).
     */
    Status waitEvent(Event &event);

    /** Block the host until the stream drains; illegal during capture. */
    Status synchronize();

    bool capturing() const { return session_ != nullptr; }

  private:
    friend class GpuProcess;

    explicit Stream(GpuProcess *process) : process_(process) {}

    GpuProcess *process_;
    /** GPU-side completion time of the last work on this stream. */
    SimTimeNs gpu_ready_ns_ = 0;
    /** Non-null while this stream participates in a capture. */
    CaptureSession *session_ = nullptr;
    /** Dependencies for the next node recorded on this stream. */
    std::vector<NodeId> capture_frontier_;
};

/**
 * An instantiated, ready-to-launch graph (cudaGraphExec_t).
 *
 * Stored as a structure of flat arrays — kernel ids, a shared ParamBlob
 * pool with per-node prefix offsets (CudaGraph's layout) and timings,
 * all in node-id order, which is the execution order (every edge
 * points forward). The flat form is what the v6 materialized image can
 * produce directly with a relocation patch pass, with no per-node
 * reconstruction.
 */
class GraphExec
{
  public:
    std::size_t nodeCount() const { return kernels_.size(); }

    /** The kernel of node @p id (the id-th to execute). */
    KernelId kernel(NodeId id) const { return kernels_.at(id); }

    /** The flattened params of node @p id. */
    ParamView
    params(NodeId id) const
    {
        const u32 begin = param_begin_.at(id);
        return ParamView(blobs_.data() + begin,
                         param_begin_.at(id + 1) - begin);
    }

    /** The timing metadata of node @p id. */
    const TimingInfo &timing(NodeId id) const { return timings_.at(id); }

  private:
    friend class GpuProcess;

    std::vector<KernelId> kernels_;
    /** nodeCount()+1 prefix offsets into blobs_, node-id order. */
    std::vector<u32> param_begin_;
    std::vector<ParamBlob> blobs_;
    std::vector<TimingInfo> timings_;
};

/** Creation options for a GpuProcess. */
struct GpuProcessOptions
{
    /** Device capacity for logical accounting (A100-40GB default). */
    u64 device_memory_bytes = DeviceMemoryManager::kDefaultDeviceBytes;
    /** Seed for all per-process address randomization. */
    u64 aslr_seed = 1;
    /**
     * Which GPU of the node this process drives (multi-GPU tensor
     * parallelism). Each device's virtual-address window is disjoint,
     * as peer-mapped memory would be. Must be < 4.
     */
    u32 device_index = 0;
};

/**
 * Running tally of device-state mutations since beginJournal() — the
 * write-ahead record a transactional restore keeps so tests and
 * reports can tell whether a failed attempt left anything behind.
 */
struct ProcessJournal
{
    u64 driver_allocs = 0;
    u64 driver_frees = 0;
    u64 h2d_copies = 0;
    u64 memsets = 0;
    u64 module_loads = 0;
    u64 graphs_instantiated = 0;

    bool
    anyMutations() const
    {
        return driver_allocs + driver_frees + h2d_copies + memsets +
                   module_loads + graphs_instantiated >
               0;
    }
};

/**
 * The simulated process; see file comment.
 */
class GpuProcess
{
  public:
    GpuProcess(const GpuProcessOptions &opts, SimClock *clock,
               const CostModel *cost);

    // Not copyable or movable: streams hold back-pointers.
    GpuProcess(const GpuProcess &) = delete;
    GpuProcess &operator=(const GpuProcess &) = delete;

    DeviceMemoryManager &memory() { return memory_; }
    const DeviceMemoryManager &memory() const { return memory_; }
    ModuleTable &modules() { return modules_; }
    SimClock &clock() { return *clock_; }
    const CostModel &cost() const { return *cost_; }

    /** The default stream (created with the process). */
    Stream &defaultStream() { return *streams_.front(); }

    /** Create an additional stream (for capture forks). */
    Stream &createStream();

    // ---- driver memory API -------------------------------------------

    /**
     * Raw driver allocation. Illegal while any capture is active (the
     * driver would synchronize), which is why the caching allocator's
     * pool must be warmed up before capturing.
     */
    StatusOr<DeviceAddr> cudaMalloc(u64 logical_size, u64 backing_size);

    /** Raw driver free. Also illegal during capture. */
    Status cudaFree(DeviceAddr addr);

    /**
     * Synchronous host-to-device copy of functional bytes; the clock
     * advances by the PCIe time of @p logical_bytes.
     */
    Status memcpyH2D(DeviceAddr dst, const void *src, u64 functional_bytes,
                     u64 logical_bytes);

    /**
     * Synchronous device-to-host copy (drains the default stream). A
     * copy of functional bytes from a tainted allocation (see
     * discardContents()) fails with kFailedPrecondition and charges
     * nothing; a charge-only copy (@p functional_bytes 0) always
     * charges the drain and the PCIe time of @p logical_bytes.
     */
    Status memcpyD2H(void *dst, DeviceAddr src, u64 functional_bytes,
                     u64 logical_bytes);

    /** cudaMemset on functional bytes. */
    Status cudaMemset(DeviceAddr addr, u8 value, u64 functional_bytes);

    /** Device-wide synchronize; illegal during capture. */
    Status deviceSynchronize();

    // ---- module / symbol API (paper §5 surface) ------------------------

    StatusOr<DsoSymbol> dlsym(const std::string &dso,
                              const std::string &mangled_name);
    StatusOr<KernelAddr> cudaGetFuncBySymbol(const DsoSymbol &symbol);
    StatusOr<std::vector<KernelAddr>>
    cuModuleEnumerateFunctions(const std::string &module_name);
    StatusOr<std::string> cuFuncGetName(KernelAddr addr);

    /**
     * dladdr() analogue: the module (shared library) that owns the
     * kernel at @p addr. Used offline to build the name -> library
     * mapping the paper's §5 materializes.
     */
    StatusOr<std::string> cuFuncGetModule(KernelAddr addr);

    // ---- capture -------------------------------------------------------

    /** Begin stream capture on @p stream. One capture at a time. */
    Status beginCapture(Stream &stream);

    /** End capture on the origin stream; returns the built graph. */
    StatusOr<CudaGraph> endCapture(Stream &stream);

    bool captureActive() const { return capture_ != nullptr; }

    // ---- graphs ----------------------------------------------------------

    /**
     * cudaGraphInstantiate: validates that every node's function address
     * resolves to a loaded kernel. The graph needs no sort: its node ids
     * are already the execution order (CudaGraph::addKernelNode).
     */
    StatusOr<GraphExec> instantiate(const CudaGraph &graph);

    /**
     * One graph of a relocation-patched materialized image, in node-id
     * order: the patched arrays, which instantiatePatched takes over,
     * and spans of the image's columns, which it copies. The
     * executable thus outlives the image.
     */
    struct PatchedGraphDesc
    {
        /** Patched per-node kernel function addresses. */
        std::vector<KernelAddr> node_fn;
        /** nodeCount()+1 prefix offsets into params. */
        std::span<const u32> param_begin;
        /** Patched parameters; the executable adopts them as they are. */
        std::vector<ParamBlob> params;
        /** Per-node timing metadata. */
        std::span<const TimingInfo> timing;
    };

    /**
     * cudaGraphInstantiate from a patched image graph: the same
     * validation and accounting as instantiate(), but the executable is
     * assembled from flat arrays — no CudaGraph object, no per-node
     * parameter vectors, and the patched parameters are moved in, not
     * copied. Node ids are the execution order;
     * MaterializedImage::openView refuses an image with a backward edge.
     */
    StatusOr<GraphExec> instantiatePatched(PatchedGraphDesc desc);

    /**
     * cudaGraphLaunch: one CPU-side launch, then the whole node set
     * executes on the GPU pipeline of @p stream.
     */
    Status launchGraph(const GraphExec &exec, Stream &stream);

    /**
     * Execute a single kernel functionally against this process's
     * memory without launch-path accounting. Used by the lockstep
     * multi-GPU replayer (lockstep.h), which does its own timing and
     * provides collective semantics.
     */
    Status executeKernel(KernelId kernel, ParamView params);

    // ---- observers & stats -----------------------------------------------

    void setLaunchObserver(LaunchObserver *observer)
    {
        launch_observer_ = observer;
    }

    // ---- discarded contents --------------------------------------------

    /**
     * One-way switch for a process whose computed device contents
     * nobody reads: a latency measurement on an engine about to die,
     * or the offline capture stage, which records structure (the
     * allocation sequence, kernel names, pointer params) and never a
     * computed value. From here on, eager and graph launches still load
     * modules, charge the clock, advance stream readiness, count,
     * notify the observer and check each kernel's param count and
     * widths — everything but run the kernel body, so every charge
     * stays as it would have been.
     *
     * A skipped body taints (AllocationRecord::tainted) every
     * allocation its declared access set writes: every pointer
     * parameter's if KernelDef::access is empty, none for a kRead or
     * kSemaphore parameter. An indirect_access body also taints each
     * allocation an 8-byte word of its parameter buffers points into,
     * and fails if one of those buffers is itself tainted. Every read
     * of a tainted allocation fails (DeviceMemoryManager::read), so no
     * caller can observe the skipped arithmetic; a full-size H2D copy
     * or memset defines the bytes again. Host copies and memsets still
     * run. The state fingerprints check-fail. Neither resetToPristine()
     * nor anything else switches it back.
     */
    void discardContents() { contents_discarded_ = true; }

    /** Whether discardContents() was called on this process. */
    bool contentsDiscarded() const { return contents_discarded_; }

    u64 eagerLaunchCount() const { return eager_launches_; }
    u64 capturedNodeCount() const { return captured_nodes_; }
    u64 graphLaunchCount() const { return graph_launches_; }

    // ---- transactional restore support -------------------------------

    /** Start journaling device-state mutations (resets the tally). */
    void beginJournal();

    /** Stop journaling; the tally stays readable until the next begin. */
    void endJournal();

    bool journalActive() const { return journal_active_; }
    const ProcessJournal &journal() const { return journal_; }

    /**
     * Roll the process back to its just-constructed state: all device
     * allocations are released, all modules unloaded, extra streams
     * destroyed, any capture aborted and the ASLR/jitter RNG streams
     * rewound — as if the process had been killed and relaunched with
     * the same creation options. The simulated clock is NOT rewound:
     * time spent before the rollback really elapsed. References to the
     * default stream stay valid.
     */
    void resetToPristine();

    /**
     * Digest of all process-lifetime state (memory, modules, streams,
     * counters, capture). Two processes with equal fingerprints behave
     * identically from here on; a reset process must fingerprint equal
     * to a fresh one built with the same options. Check-fails after
     * discardContents().
     */
    u64 stateFingerprint() const;

    /**
     * stateFingerprint() minus simulated-time-derived values (stream
     * GPU-ready timestamps). Two processes with equal logical
     * fingerprints hold identical memory, module, stream-topology and
     * counter state but may have reached it on different simulated
     * clocks — the equality contract for restores that produce the
     * same state at a different simulated time (a retried restore, a
     * cost-model change; DESIGN.md §13). Check-fails after
     * discardContents().
     */
    u64 logicalStateFingerprint() const;

  private:
    friend class Stream;

    /** Shared implementation behind Stream::launch. */
    Status launchOnStream(Stream &stream, KernelId kernel,
                          ParamView params, const TimingInfo &timing);

    /**
     * Execute a kernel functionally against device memory, after
     * checking the param count and each width against its signature.
     */
    Status execute(KernelId kernel, ParamView params);

    /** What a skipped body does instead: taint its write set. */
    Status taintSkippedWrites(const KernelDef &def, const KernelArgs &args);

    SimClock *clock_;
    const CostModel *cost_;
    /** Creation options, kept so resetToPristine can reconstruct. */
    GpuProcessOptions opts_;
    DeviceMemoryManager memory_;
    ModuleTable modules_;
    std::vector<std::unique_ptr<Stream>> streams_;
    std::unique_ptr<CaptureSession> capture_;
    LaunchObserver *launch_observer_ = nullptr;

    u64 eager_launches_ = 0;
    u64 captured_nodes_ = 0;
    u64 graph_launches_ = 0;

    /** Set by discardContents(); kernel bodies no longer run. */
    bool contents_discarded_ = false;

    bool journal_active_ = false;
    ProcessJournal journal_;
};

} // namespace medusa::simcuda

#endif // MEDUSA_SIMCUDA_GPU_PROCESS_H
