#include "simcuda/gpu_process.h"

#include <algorithm>
#include <array>

namespace medusa::simcuda {

// ---------------------------------------------------------------- Stream

Status
Stream::launch(KernelId kernel, ParamView params, const TimingInfo &timing)
{
    return process_->launchOnStream(*this, kernel, params, timing);
}

Status
Stream::recordEvent(Event &event)
{
    event.recorded_ = true;
    if (capturing()) {
        event.captured_ = true;
        event.capture_deps_ = capture_frontier_;
    } else {
        event.captured_ = false;
        event.gpu_time_ = gpu_ready_ns_;
    }
    return Status::ok();
}

Status
Stream::waitEvent(Event &event)
{
    if (!event.recorded_) {
        return failedPrecondition("wait on unrecorded event");
    }
    if (event.captured_) {
        // Joining a capture (fork): this stream's subsequent launches
        // are recorded, depending on the event's frontier.
        if (!process_->captureActive()) {
            return failedPrecondition(
                "wait on captured event outside capture");
        }
        session_ = process_->capture_.get();
        for (NodeId d : event.capture_deps_) {
            if (std::find(capture_frontier_.begin(),
                          capture_frontier_.end(),
                          d) == capture_frontier_.end()) {
                capture_frontier_.push_back(d);
            }
        }
        return Status::ok();
    }
    if (capturing()) {
        return captureViolation(
            "wait on eagerly-recorded event during capture");
    }
    gpu_ready_ns_ = std::max(gpu_ready_ns_, event.gpu_time_);
    return Status::ok();
}

Status
Stream::synchronize()
{
    if (capturing()) {
        return captureViolation(
            "stream synchronization is prohibited during capture");
    }
    SimClock &clock = process_->clock();
    clock.advanceTo(std::max(clock.now(), gpu_ready_ns_));
    clock.advance(units::usToNs(process_->cost().sync_us));
    return Status::ok();
}

// ------------------------------------------------------------ GpuProcess

namespace {

// Seed derivations shared by construction and resetToPristine, so a
// reset process replays the exact randomization of a fresh launch.
u64
memorySeed(const GpuProcessOptions &opts)
{
    return opts.aslr_seed * 0x9e3779b9u + 1 + opts.device_index;
}

u64
moduleSeed(const GpuProcessOptions &opts)
{
    return opts.aslr_seed * 0xc2b2ae35u + 7 + opts.device_index;
}

} // namespace

GpuProcess::GpuProcess(const GpuProcessOptions &opts, SimClock *clock,
                       const CostModel *cost)
    : clock_(clock),
      cost_(cost),
      opts_(opts),
      memory_(opts.device_memory_bytes, memorySeed(opts),
              opts.device_index),
      modules_(moduleSeed(opts))
{
    MEDUSA_CHECK(clock_ != nullptr && cost_ != nullptr,
                 "GpuProcess requires a clock and a cost model");
    streams_.emplace_back(new Stream(this));
}

void
GpuProcess::beginJournal()
{
    journal_active_ = true;
    journal_ = ProcessJournal{};
}

void
GpuProcess::endJournal()
{
    journal_active_ = false;
}

void
GpuProcess::resetToPristine()
{
    // Abort any capture first so stream teardown is unconditional.
    capture_.reset();
    // Keep the default Stream object alive (runtimes hold references)
    // but rewind its state; additional capture-fork streams die with
    // the process.
    streams_.resize(1);
    Stream &def = *streams_.front();
    def.gpu_ready_ns_ = 0;
    def.session_ = nullptr;
    def.capture_frontier_.clear();
    // Reconstruct the randomized subsystems from the creation options:
    // a relaunched process draws the same ASLR/jitter streams as the
    // original launch did, which is what makes rollback byte-identical
    // to a fresh process.
    memory_ = DeviceMemoryManager(opts_.device_memory_bytes,
                                  memorySeed(opts_), opts_.device_index);
    modules_ = ModuleTable(moduleSeed(opts_));
    eager_launches_ = 0;
    captured_nodes_ = 0;
    graph_launches_ = 0;
    journal_active_ = false;
    journal_ = ProcessJournal{};
}

u64
GpuProcess::stateFingerprint() const
{
    MEDUSA_CHECK(!contents_discarded_,
                 "state fingerprint of a process with discarded contents");
    auto mix = [](u64 h, u64 v) {
        return (h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2))) *
               0x100000001b3ull;
    };
    u64 h = 0xcbf29ce484222325ull;
    h = mix(h, memory_.stateFingerprint());
    h = mix(h, modules_.stateFingerprint());
    h = mix(h, streams_.size());
    for (const auto &s : streams_) {
        h = mix(h, static_cast<u64>(s->gpu_ready_ns_));
        h = mix(h, s->session_ != nullptr ? 1 : 0);
    }
    h = mix(h, capture_ != nullptr ? 1 : 0);
    h = mix(h, eager_launches_);
    h = mix(h, captured_nodes_);
    h = mix(h, graph_launches_);
    return h;
}

u64
GpuProcess::logicalStateFingerprint() const
{
    MEDUSA_CHECK(!contents_discarded_,
                 "state fingerprint of a process with discarded contents");
    auto mix = [](u64 h, u64 v) {
        return (h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2))) *
               0x100000001b3ull;
    };
    u64 h = 0xcbf29ce484222325ull;
    h = mix(h, memory_.stateFingerprint());
    h = mix(h, modules_.stateFingerprint());
    h = mix(h, streams_.size());
    for (const auto &s : streams_) {
        // gpu_ready_ns_ deliberately excluded: it tracks the simulated
        // clock, which a faster restore path reaches earlier.
        h = mix(h, s->session_ != nullptr ? 1 : 0);
    }
    h = mix(h, capture_ != nullptr ? 1 : 0);
    h = mix(h, eager_launches_);
    h = mix(h, captured_nodes_);
    h = mix(h, graph_launches_);
    return h;
}

Stream &
GpuProcess::createStream()
{
    streams_.emplace_back(new Stream(this));
    return *streams_.back();
}

StatusOr<DeviceAddr>
GpuProcess::cudaMalloc(u64 logical_size, u64 backing_size)
{
    if (captureActive()) {
        return captureViolation("cudaMalloc during stream capture");
    }
    clock_->advance(units::usToNs(cost_->cuda_malloc_us));
    auto addr = memory_.malloc(logical_size, backing_size);
    if (journal_active_ && addr.isOk()) {
        ++journal_.driver_allocs;
    }
    return addr;
}

Status
GpuProcess::cudaFree(DeviceAddr addr)
{
    if (captureActive()) {
        return captureViolation("cudaFree during stream capture");
    }
    clock_->advance(units::usToNs(cost_->cuda_free_us));
    Status st = memory_.free(addr);
    if (journal_active_ && st.isOk()) {
        ++journal_.driver_frees;
    }
    return st;
}

Status
GpuProcess::memcpyH2D(DeviceAddr dst, const void *src, u64 functional_bytes,
                      u64 logical_bytes)
{
    if (captureActive()) {
        return captureViolation("synchronous memcpy during capture");
    }
    clock_->advance(cost_->pcieCopyTime(static_cast<f64>(logical_bytes)));
    if (journal_active_) {
        ++journal_.h2d_copies;
    }
    if (functional_bytes == 0) {
        return Status::ok();
    }
    return memory_.write(dst, src, functional_bytes);
}

Status
GpuProcess::memcpyD2H(void *dst, DeviceAddr src, u64 functional_bytes,
                      u64 logical_bytes)
{
    if (captureActive()) {
        return captureViolation("synchronous memcpy during capture");
    }
    // Kernel bodies run at launch, so the bytes are final already; a
    // copy that cannot read them (unmapped, out of bounds or tainted)
    // fails before it charges anything.
    if (functional_bytes != 0) {
        MEDUSA_RETURN_IF_ERROR(memory_.read(src, dst, functional_bytes));
    }
    // A D2H copy drains the producing stream first.
    MEDUSA_RETURN_IF_ERROR(defaultStream().synchronize());
    clock_->advance(cost_->pcieCopyTime(static_cast<f64>(logical_bytes)));
    return Status::ok();
}

Status
GpuProcess::cudaMemset(DeviceAddr addr, u8 value, u64 functional_bytes)
{
    if (captureActive()) {
        return captureViolation("cudaMemset during stream capture");
    }
    clock_->advance(units::usToNs(1.0));
    if (journal_active_) {
        ++journal_.memsets;
    }
    return memory_.memset(addr, value, functional_bytes);
}

Status
GpuProcess::deviceSynchronize()
{
    if (captureActive()) {
        return captureViolation(
            "device synchronization is prohibited during capture");
    }
    SimTimeNs ready = clock_->now();
    for (const auto &s : streams_) {
        ready = std::max(ready, s->gpu_ready_ns_);
    }
    clock_->advanceTo(ready);
    clock_->advance(units::usToNs(cost_->sync_us));
    return Status::ok();
}

StatusOr<DsoSymbol>
GpuProcess::dlsym(const std::string &dso, const std::string &mangled_name)
{
    clock_->advance(units::usToNs(0.5));
    return modules_.dlsym(dso, mangled_name);
}

StatusOr<KernelAddr>
GpuProcess::cudaGetFuncBySymbol(const DsoSymbol &symbol)
{
    if (captureActive()) {
        return captureViolation("cudaGetFuncBySymbol during capture");
    }
    bool did_load = false;
    auto addr = modules_.funcBySymbol(symbol, &did_load);
    if (did_load) {
        clock_->advance(units::msToNs(cost_->module_load_ms));
        if (journal_active_) {
            ++journal_.module_loads;
        }
    }
    return addr;
}

StatusOr<std::vector<KernelAddr>>
GpuProcess::cuModuleEnumerateFunctions(const std::string &module_name)
{
    clock_->advance(units::usToNs(1.0));
    return modules_.enumerateFunctions(module_name);
}

StatusOr<std::string>
GpuProcess::cuFuncGetName(KernelAddr addr)
{
    clock_->advance(units::usToNs(cost_->kernel_name_match_us));
    return modules_.funcGetName(addr);
}

StatusOr<std::string>
GpuProcess::cuFuncGetModule(KernelAddr addr)
{
    clock_->advance(units::usToNs(0.5));
    MEDUSA_ASSIGN_OR_RETURN(KernelId id, modules_.kernelAt(addr));
    return KernelRegistry::instance().def(id).module_name;
}

Status
GpuProcess::beginCapture(Stream &stream)
{
    if (captureActive()) {
        // The limitation called out in §2.2: one capture at a time.
        return captureViolation(
            "a capture is already in progress in this process");
    }
    if (stream.capturing()) {
        return failedPrecondition("stream is already capturing");
    }
    capture_ = std::make_unique<CaptureSession>();
    capture_->origin = &stream;
    stream.session_ = capture_.get();
    stream.capture_frontier_.clear();
    return Status::ok();
}

StatusOr<CudaGraph>
GpuProcess::endCapture(Stream &stream)
{
    if (!captureActive()) {
        return failedPrecondition("no capture in progress");
    }
    if (capture_->origin != &stream) {
        return invalidArgument("endCapture on non-origin stream");
    }
    CudaGraph graph = std::move(capture_->graph);
    for (const auto &s : streams_) {
        s->session_ = nullptr;
        s->capture_frontier_.clear();
    }
    capture_.reset();
    return graph;
}

namespace {

/**
 * Kernel ids of node function addresses, memoized per distinct address
 * in a small direct-mapped table: a graph runs a few dozen kernels over
 * thousands of nodes. Only an address that resolved is kept, so an
 * unknown one is looked up, and refused, at every node that names it.
 */
class KernelIdMemo
{
  public:
    explicit KernelIdMemo(const ModuleTable &modules) : modules_(modules) {}

    /** The kernel at @p addr, or null if none is loaded there. */
    const KernelId *
    find(KernelAddr addr)
    {
        Entry &e = entries_[(addr * 0x9e3779b97f4a7c15ull) >> 58];
        if (!e.valid || e.addr != addr) {
            auto kernel = modules_.kernelAt(addr);
            if (!kernel.isOk()) {
                return nullptr;
            }
            e = {addr, *kernel, true};
        }
        return &e.id;
    }

  private:
    struct Entry
    {
        KernelAddr addr = 0;
        KernelId id = 0;
        bool valid = false;
    };

    const ModuleTable &modules_;
    std::array<Entry, 64> entries_{};
};

Status
unknownKernelAddress(KernelAddr addr)
{
    return invalidArgument(
        "cudaGraphInstantiate: node references unknown kernel address " +
        std::to_string(addr));
}

} // namespace

StatusOr<GraphExec>
GpuProcess::instantiate(const CudaGraph &graph)
{
    if (captureActive()) {
        return captureViolation("cudaGraphInstantiate during capture");
    }
    GraphExec exec;
    exec.kernels_.reserve(graph.nodeCount());
    exec.timings_.reserve(graph.nodeCount());
    KernelIdMemo kernels(modules_);
    for (const GraphNode &node : graph.nodes()) {
        const KernelId *kernel = kernels.find(node.fn);
        if (kernel == nullptr) {
            return unknownKernelAddress(node.fn);
        }
        exec.kernels_.push_back(*kernel);
        exec.timings_.push_back(node.timing);
    }
    exec.param_begin_ = graph.paramBegin();
    exec.blobs_ = graph.paramBlobs();
    clock_->advance(units::usToNs(cost_->graph_instantiate_per_node_us *
                                  static_cast<f64>(graph.nodeCount())));
    if (journal_active_) {
        ++journal_.graphs_instantiated;
    }
    return exec;
}

StatusOr<GraphExec>
GpuProcess::instantiatePatched(PatchedGraphDesc desc)
{
    if (captureActive()) {
        return captureViolation("cudaGraphInstantiate during capture");
    }
    const std::size_t n = desc.node_fn.size();
    if (desc.param_begin.size() != n + 1 || desc.timing.size() != n ||
        desc.param_begin.front() != 0 ||
        desc.param_begin.back() != desc.params.size()) {
        return invalidArgument(
            "cudaGraphInstantiate: inconsistent patched graph arrays");
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (desc.param_begin[i + 1] < desc.param_begin[i]) {
            return invalidArgument(
                "cudaGraphInstantiate: inconsistent patched graph arrays");
        }
    }
    GraphExec exec;
    exec.kernels_.reserve(n);
    KernelIdMemo kernels(modules_);
    for (KernelAddr fn : desc.node_fn) {
        const KernelId *kernel = kernels.find(fn);
        if (kernel == nullptr) {
            return unknownKernelAddress(fn);
        }
        exec.kernels_.push_back(*kernel);
    }
    exec.param_begin_.assign(desc.param_begin.begin(),
                             desc.param_begin.end());
    exec.blobs_ = std::move(desc.params);
    exec.timings_.assign(desc.timing.begin(), desc.timing.end());
    clock_->advance(units::usToNs(cost_->graph_instantiate_per_node_us *
                                  static_cast<f64>(n)));
    if (journal_active_) {
        ++journal_.graphs_instantiated;
    }
    return exec;
}

Status
GpuProcess::launchGraph(const GraphExec &exec, Stream &stream)
{
    if (captureActive()) {
        return captureViolation("cudaGraphLaunch during capture");
    }
    // One CPU-side launch for the whole graph — the core benefit of
    // CUDA graphs (§2.2).
    clock_->advance(units::usToNs(cost_->graph_launch_us));
    ++graph_launches_;
    SimTimeNs gpu_time = 0;
    for (NodeId id = 0; id < exec.nodeCount(); ++id) {
        MEDUSA_RETURN_IF_ERROR(execute(exec.kernel(id), exec.params(id)));
        gpu_time += cost_->kernelExecTime(exec.timing(id),
                                          cost_->steady_efficiency) +
                    units::usToNs(cost_->graph_node_dispatch_us);
    }
    const SimTimeNs start = std::max(clock_->now(), stream.gpu_ready_ns_);
    stream.gpu_ready_ns_ = start + gpu_time;
    return Status::ok();
}

Status
GpuProcess::launchOnStream(Stream &stream, KernelId kernel,
                           ParamView params, const TimingInfo &timing)
{
    const auto &reg = KernelRegistry::instance();
    if (kernel >= reg.kernelCount()) {
        return invalidArgument("launch of unknown kernel id");
    }
    if (stream.capturing()) {
        if (!modules_.isLoaded(kernel)) {
            // Loading a module performs an implicit synchronization,
            // which is prohibited during capture. This is exactly why
            // frameworks must warm up before capturing (§2.3).
            return captureViolation(
                "first-launch module load during capture for kernel " +
                reg.def(kernel).mangled_name);
        }
        MEDUSA_ASSIGN_OR_RETURN(KernelAddr addr,
                                modules_.addressOf(kernel));
        clock_->advance(units::usToNs(cost_->capture_record_us));
        const NodeId id = capture_->graph.addKernelNode(
            addr, params, timing, stream.capture_frontier_);
        stream.capture_frontier_.assign(1, id);
        ++capture_->recorded_nodes;
        ++captured_nodes_;
        if (launch_observer_ != nullptr) {
            launch_observer_->onKernelLaunch(addr, params, true);
        }
        return Status::ok();
    }

    // Eager path: load the module on first use, then launch.
    if (modules_.ensureLoaded(kernel)) {
        clock_->advance(units::msToNs(cost_->module_load_ms));
        if (journal_active_) {
            ++journal_.module_loads;
        }
        // Module loading synchronizes the device.
        MEDUSA_RETURN_IF_ERROR(deviceSynchronize());
    }
    MEDUSA_ASSIGN_OR_RETURN(KernelAddr addr, modules_.addressOf(kernel));
    clock_->advance(units::usToNs(cost_->kernel_launch_us));
    ++eager_launches_;
    // Async pipeline model: the GPU starts this kernel when both the CPU
    // has issued it and the stream's previous work has drained.
    const SimTimeNs exec =
        cost_->kernelExecTime(timing, cost_->steady_efficiency);
    const SimTimeNs start = std::max(clock_->now(), stream.gpu_ready_ns_);
    stream.gpu_ready_ns_ = start + exec;
    if (launch_observer_ != nullptr) {
        launch_observer_->onKernelLaunch(addr, params, false);
    }
    return execute(kernel, params);
}

Status
GpuProcess::executeKernel(KernelId kernel, ParamView params)
{
    return execute(kernel, params);
}

Status
GpuProcess::taintSkippedWrites(const KernelDef &def, const KernelArgs &args)
{
    // An indirect body reaches buffers through pointer words stored in
    // its parameter buffers: taint every allocation such a word points
    // into. Collect the targets first, so a taint this launch sets
    // cannot be mistaken for an undefined operand buffer.
    std::vector<u64> pointees;
    for (std::size_t i = 0; def.indirect_access && i < args.size(); ++i) {
        if (def.params[i] != ParamKind::kPointer) {
            continue;
        }
        const AllocationRecord *rec = memory_.findContaining(args.ptrAt(i));
        if (rec == nullptr) {
            continue;
        }
        if (rec->tainted) {
            return failedPrecondition(
                "kernel " + def.mangled_name +
                ": skipped indirect body would dereference operand words "
                "a skipped body left undefined");
        }
        const std::size_t first = pointees.size();
        pointees.resize(first + rec->backing.size() / sizeof(u64));
        MEDUSA_RETURN_IF_ERROR(
            memory_.read(rec->base, pointees.data() + first,
                         (pointees.size() - first) * sizeof(u64)));
    }
    for (u64 word : pointees) {
        memory_.taint(word);
    }
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (def.params[i] != ParamKind::kPointer) {
            continue;
        }
        if (def.access.empty() ||
            (accessWrites(def.access[i]) &&
             def.access[i] != ParamAccess::kSemaphore)) {
            memory_.taint(args.ptrAt(i));
        }
    }
    return Status::ok();
}

Status
GpuProcess::execute(KernelId kernel, ParamView params)
{
    const KernelDef &def = KernelRegistry::instance().def(kernel);
    if (params.size() != def.params.size()) {
        return invalidArgument("kernel " + def.mangled_name + " expects " +
                               std::to_string(def.params.size()) +
                               " params, got " +
                               std::to_string(params.size()));
    }
    for (std::size_t i = 0; i < params.size(); ++i) {
        if (params.sizeAt(i) != paramKindSize(def.params[i])) {
            return invalidArgument("kernel " + def.mangled_name +
                                   ": param " + std::to_string(i) +
                                   " has wrong size");
        }
    }
    KernelArgs args(params, def.params);
    if (contents_discarded_) {
        return taintSkippedWrites(def, args);
    }
    Status st = def.fn(memory_, args);
    if (!st.isOk()) {
        return Status(st.code(), "kernel " + def.mangled_name +
                                     " failed: " + st.message());
    }
    return Status::ok();
}

} // namespace medusa::simcuda
