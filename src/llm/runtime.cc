#include "llm/runtime.h"

#include <algorithm>

#include "simcuda/kernels/builtin.h"

namespace medusa::llm {

using simcuda::BuiltinKernels;
using simcuda::CudaGraph;
using simcuda::GraphExec;
using simcuda::ParamsBuilder;
using simcuda::Stream;

ModelRuntime::ModelRuntime(const Options &opts)
    : model_(opts.model),
      aslr_seed_(opts.aslr_seed),
      cost_(opts.cost != nullptr ? opts.cost : &cost_storage_),
      observer_(opts.observer)
{
    simcuda::GpuProcessOptions popts;
    popts.aslr_seed = opts.aslr_seed;
    popts.device_index = opts.device_index;
    process_ = std::make_unique<simcuda::GpuProcess>(popts, &clock_,
                                                     cost_);
    alloc_ = std::make_unique<simcuda::CachingAllocator>(
        process_.get(), /*reuse_seed=*/opts.aslr_seed);
    if (opts.alloc_observer != nullptr) {
        alloc_->setObserver(opts.alloc_observer);
    }
    if (opts.launch_observer != nullptr) {
        process_->setLaunchObserver(opts.launch_observer);
    }
}

void
ModelRuntime::rollbackToPristine()
{
    process_->resetToPristine();
    // Rebuild the allocator with the original reuse seed so the pooled
    // reuse choices of the next attempt match a fresh launch. The
    // observer is deliberately dropped; the restore driver re-attaches
    // a fresh one per attempt.
    alloc_ = std::make_unique<simcuda::CachingAllocator>(
        process_.get(), /*reuse_seed=*/aslr_seed_);
    weights_ = ModelWeights{};
    tokenizer_ = BpeTokenizer{};
    tokenizer_loaded_ = false;
    bufs_ = ForwardBuffers{};
    kv_ = KvCache{};
    semaphores_.clear();
    lm_workspace_.clear();
    graphs_.clear();
    structure_ready_ = false;
    weights_ready_ = false;
}

ForwardPass::Env
ModelRuntime::forwardEnv()
{
    ForwardPass::Env env;
    env.process = process_.get();
    env.alloc = alloc_.get();
    env.model = &model_;
    env.weights = &weights_;
    env.kv = &kv_;
    env.bufs = &bufs_;
    env.semaphores = &semaphores_;
    env.lm_workspace = &lm_workspace_;
    return env;
}

Status
ModelRuntime::initStructure()
{
    if (structure_ready_) {
        return failedPrecondition("structure already initialized");
    }
    // CUDA context creation happens on first device use.
    clock_.advance(units::msToNs(cost_->cuda_context_init_ms));
    MEDUSA_ASSIGN_OR_RETURN(weights_,
                            initModelStructure(*alloc_, model_));
    // Host-side module graph construction cost per tensor.
    clock_.advance(units::usToNs(cost_->struct_init_per_tensor_us *
                                 static_cast<f64>(weights_.tensorCount())));
    structure_ready_ = true;
    return Status::ok();
}

Status
ModelRuntime::loadWeights()
{
    if (!structure_ready_) {
        return failedPrecondition("structure not initialized");
    }
    MEDUSA_RETURN_IF_ERROR(loadModelWeights(*process_, model_, weights_));
    weights_ready_ = true;
    return Status::ok();
}

Status
ModelRuntime::loadTokenizer()
{
    // Functional: train a small BPE deterministically from the model
    // seed. Timing: charged from the real vocabulary size.
    tokenizer_ = trainModelTokenizer(model_.seed);
    clock_.advance(units::msToNs(cost_->tokenizer_fixed_ms));
    clock_.advance(
        units::usToNs(cost_->tokenizer_per_entry_ns *
                      static_cast<f64>(model_.vocab) / 1000.0));
    tokenizer_loaded_ = true;
    return Status::ok();
}

Status
ModelRuntime::adoptTokenizer(BpeTokenizer tokenizer)
{
    tokenizer_ = std::move(tokenizer);
    // Identical simulated charge to loadTokenizer: what changed is the
    // host-side work, not the modeled system's tokenizer load.
    clock_.advance(units::msToNs(cost_->tokenizer_fixed_ms));
    clock_.advance(
        units::usToNs(cost_->tokenizer_per_entry_ns *
                      static_cast<f64>(model_.vocab) / 1000.0));
    tokenizer_loaded_ = true;
    return Status::ok();
}

StatusOr<u64>
ModelRuntime::profileFreeMemory()
{
    if (!structure_ready_) {
        return failedPrecondition("structure not initialized");
    }
    if (bufs_.initialized()) {
        return failedPrecondition("KV init already ran");
    }
    MEDUSA_ASSIGN_OR_RETURN(
        bufs_, allocateForwardBuffers(*alloc_, model_, observer_));

    // Profiling forwarding: maximum token budget in one batch, dummy
    // KV (a throwaway single-block cache so kernels have a target).
    const FuncDims &f = model_.func;
    KvCache profile_kv;
    const u64 slot_bytes =
        static_cast<u64>(f.block_size) * f.kvDim() * sizeof(f32) *
        (f.max_batched_tokens / f.block_size + 2);
    for (u32 l = 0; l < model_.num_layers; ++l) {
        MEDUSA_ASSIGN_OR_RETURN(DeviceAddr kaddr,
                                alloc_->allocate(slot_bytes, slot_bytes));
        MEDUSA_ASSIGN_OR_RETURN(DeviceAddr vaddr,
                                alloc_->allocate(slot_bytes, slot_bytes));
        profile_kv.k_layers.push_back(kaddr);
        profile_kv.v_layers.push_back(vaddr);
    }
    std::swap(kv_, profile_kv);

    // Stage inputs: one batch of max_batched_tokens as a handful of
    // max-length sequences (vLLM profiles max seq len x max batch).
    const u32 n = f.max_batched_tokens;
    const u32 bs = std::max<u32>(1, n / f.max_seq);
    std::vector<i32> ids(n), pos(n), slots(n), starts(bs + 1);
    for (u32 t = 0; t < n; ++t) {
        ids[t] = static_cast<i32>(t % f.vocab);
        pos[t] = static_cast<i32>(t % f.max_seq);
        slots[t] = static_cast<i32>(t);
    }
    for (u32 b = 0; b <= bs; ++b) {
        starts[b] = static_cast<i32>(
            std::min<u32>(n, b * f.max_seq));
    }
    MEDUSA_RETURN_IF_ERROR(process_->memcpyH2D(
        bufs_.token_ids, ids.data(), n * 4, n * 4));
    MEDUSA_RETURN_IF_ERROR(process_->memcpyH2D(
        bufs_.positions, pos.data(), n * 4, n * 4));
    MEDUSA_RETURN_IF_ERROR(process_->memcpyH2D(
        bufs_.slot_mapping, slots.data(), n * 4, n * 4));
    MEDUSA_RETURN_IF_ERROR(process_->memcpyH2D(
        bufs_.seq_starts, starts.data(), (bs + 1) * 4, (bs + 1) * 4));

    ForwardPass fwd(forwardEnv());
    // Real token budget: vLLM profiles max_num_batched_tokens.
    const f64 prefill_start = clock_.nowSec();
    MEDUSA_RETURN_IF_ERROR(fwd.prefill(process_->defaultStream(), bs, n,
                                       model_.max_batched_tokens));
    MEDUSA_RETURN_IF_ERROR(process_->defaultStream().synchronize());
    // The profiling run is slower than a steady-state prefill: a fixed
    // part (syncs, memory measurement, bookkeeping) plus a mild
    // multiplicative slowdown (see CostModel::kv_profile_*).
    const f64 prefill_sec = clock_.nowSec() - prefill_start;
    clock_.advance(units::secToNs(prefill_sec *
                                  (cost_->kv_profile_slowdown - 1.0)));
    clock_.advance(units::msToNs(cost_->kv_profile_fixed_ms));

    // Tear the throwaway profile cache back down (returned to the pool,
    // like PyTorch's allocator after the profiling run).
    std::swap(kv_, profile_kv);
    for (DeviceAddr a : profile_kv.k_layers) {
        MEDUSA_RETURN_IF_ERROR(alloc_->free(a));
    }
    for (DeviceAddr a : profile_kv.v_layers) {
        MEDUSA_RETURN_IF_ERROR(alloc_->free(a));
    }
    // The profiling answer: residual free device memory. (Pooled bytes
    // were returned to the pool but not the driver; vLLM accounts the
    // same way via torch.cuda.mem_get_info after emptying the cache.)
    return process_->memory().freeLogicalBytes() + alloc_->pooledBytes();
}

Status
ModelRuntime::initKvCache(u64 free_gpu_bytes)
{
    if (kv_.initialized()) {
        return failedPrecondition("KV cache already initialized");
    }
    MEDUSA_ASSIGN_OR_RETURN(kv_, allocateKvCache(*alloc_, model_,
                                                 free_gpu_bytes));
    clock_.advance(units::msToNs(
        cost_->kv_init_fixed_ms +
        cost_->kv_block_alloc_per_gib_ms *
            (static_cast<f64>(kv_.logical_bytes) /
             static_cast<f64>(units::GiB))));
    if (observer_ != nullptr) {
        for (u32 l = 0; l < model_.num_layers; ++l) {
            observer_->onTagBuffer("kv.k." + std::to_string(l),
                                   kv_.k_layers[l]);
            observer_->onTagBuffer("kv.v." + std::to_string(l),
                                   kv_.v_layers[l]);
        }
    }
    return Status::ok();
}

Status
ModelRuntime::adoptBuffers(const ForwardBuffers &bufs, KvCache cache)
{
    if (bufs_.initialized() || kv_.initialized()) {
        return failedPrecondition("buffers already initialized");
    }
    bufs_ = bufs;
    kv_ = std::move(cache);
    clock_.advance(units::msToNs(cost_->kv_init_fixed_ms));
    return Status::ok();
}

Status
ModelRuntime::warmupDecode(u32 bs)
{
    if (!kv_.initialized() || !bufs_.initialized()) {
        return failedPrecondition("KV cache not ready for warm-up");
    }
    // Stage trivial decode inputs: bs padding rows (seq_len 0).
    std::vector<i32> zeros(std::max<u32>(bs, 1), 0);
    MEDUSA_RETURN_IF_ERROR(process_->memcpyH2D(
        bufs_.token_ids, zeros.data(), bs * 4, bs * 4));
    MEDUSA_RETURN_IF_ERROR(process_->memcpyH2D(
        bufs_.positions, zeros.data(), bs * 4, bs * 4));
    MEDUSA_RETURN_IF_ERROR(process_->memcpyH2D(
        bufs_.slot_mapping, zeros.data(), bs * 4, bs * 4));
    MEDUSA_RETURN_IF_ERROR(process_->memcpyH2D(
        bufs_.seq_lens, zeros.data(), bs * 4, bs * 4));
    ForwardPass fwd(forwardEnv());
    MEDUSA_RETURN_IF_ERROR(fwd.decodeFull(process_->defaultStream(), bs));
    return process_->defaultStream().synchronize();
}

StatusOr<CudaGraph>
ModelRuntime::captureDecode(u32 bs)
{
    Stream &stream = process_->defaultStream();
    MEDUSA_RETURN_IF_ERROR(process_->beginCapture(stream));
    ForwardPass fwd(forwardEnv());
    Status fwd_status = fwd.decodeFull(stream, bs);
    if (!fwd_status.isOk()) {
        // Abort the capture so the process is usable again.
        (void)process_->endCapture(stream);
        return fwd_status;
    }
    return process_->endCapture(stream);
}

StatusOr<CudaGraph>
ModelRuntime::captureFirstLayer()
{
    // Warm up the first layer (plus embedding and LM head so their
    // modules load too), then capture it. This is the
    // triggering-kernels mechanism: loading is module-granular, so the
    // first layer's kernels force every module the full graphs need.
    std::vector<i32> zeros(1, 0);
    MEDUSA_RETURN_IF_ERROR(
        process_->memcpyH2D(bufs_.token_ids, zeros.data(), 4, 4));
    MEDUSA_RETURN_IF_ERROR(
        process_->memcpyH2D(bufs_.positions, zeros.data(), 4, 4));
    MEDUSA_RETURN_IF_ERROR(
        process_->memcpyH2D(bufs_.slot_mapping, zeros.data(), 4, 4));
    MEDUSA_RETURN_IF_ERROR(
        process_->memcpyH2D(bufs_.seq_lens, zeros.data(), 4, 4));
    ForwardPass warm(forwardEnv());
    MEDUSA_RETURN_IF_ERROR(
        warm.decode(process_->defaultStream(), 1, 0, 1, true));
    MEDUSA_RETURN_IF_ERROR(process_->defaultStream().synchronize());

    Stream &stream = process_->defaultStream();
    MEDUSA_RETURN_IF_ERROR(process_->beginCapture(stream));
    ForwardPass fwd(forwardEnv());
    Status fwd_status = fwd.decode(stream, 1, 0, 1, true);
    if (!fwd_status.isOk()) {
        (void)process_->endCapture(stream);
        return fwd_status;
    }
    return process_->endCapture(stream);
}

Status
ModelRuntime::instantiateGraph(u32 bs, const CudaGraph &graph)
{
    MEDUSA_ASSIGN_OR_RETURN(GraphExec exec,
                            process_->instantiate(graph));
    graphs_.insert_or_assign(bs, std::move(exec));
    return Status::ok();
}

Status
ModelRuntime::instantiatePatchedGraphs(
    std::vector<std::pair<u32, simcuda::GpuProcess::PatchedGraphDesc>>
        ordered,
    FaultInjector *fault)
{
    std::vector<u32> registered;
    registered.reserve(ordered.size());
    Status st = Status::ok();
    for (auto &[bs, desc] : ordered) {
        if (fault != nullptr) {
            st = fault->check(FaultPoint::kGraphInstantiate,
                              "graph bs=" + std::to_string(bs));
            if (!st.isOk()) {
                break;
            }
        }
        auto exec = process_->instantiatePatched(std::move(desc));
        if (!exec.isOk()) {
            st = exec.status();
            break;
        }
        graphs_.insert_or_assign(bs, std::move(*exec));
        registered.push_back(bs);
    }
    if (!st.isOk()) {
        // Unregister this batch's slots so a mid-batch failure cannot
        // leak partially-built graphs into the serving table (they
        // would be replayed against rolled-back device state).
        for (u32 bs : registered) {
            graphs_.erase(bs);
        }
    }
    return st;
}

Status
ModelRuntime::captureDecodeGraphs()
{
    // Largest batch size first, as vLLM does (peak memory reserved up
    // front).
    auto sizes = captureBatchSizes();
    std::sort(sizes.begin(), sizes.end(), std::greater<>());
    for (u32 bs : sizes) {
        MEDUSA_RETURN_IF_ERROR(warmupDecode(bs));
        MEDUSA_ASSIGN_OR_RETURN(CudaGraph graph, captureDecode(bs));
        MEDUSA_RETURN_IF_ERROR(instantiateGraph(bs, graph));
    }
    return Status::ok();
}

StatusOr<const simcuda::GraphExec *>
ModelRuntime::graphExec(u32 bs) const
{
    auto it = graphs_.find(bs);
    if (it == graphs_.end()) {
        return notFound("no instantiated graph for batch size " +
                        std::to_string(bs));
    }
    return &it->second;
}

u64
ModelRuntime::totalGraphNodes() const
{
    u64 total = 0;
    for (const auto &[bs, exec] : graphs_) {
        total += exec.nodeCount();
    }
    return total;
}

StatusOr<u32>
ModelRuntime::graphBatchFor(u32 n) const
{
    u32 best = 0;
    for (const auto &[bs, exec] : graphs_) {
        if (bs >= n && (best == 0 || bs < best)) {
            best = bs;
        }
    }
    if (best == 0) {
        return notFound("no captured graph covers batch size " +
                        std::to_string(n));
    }
    return best;
}

Status
ModelRuntime::stageDecodeInputs(const std::vector<Sequence *> &seqs,
                                u32 padded_bs)
{
    const FuncDims &f = model_.func;
    const u32 mb = bufs_.max_blocks_per_seq;
    std::vector<i32> ids(padded_bs, 0), pos(padded_bs, 0),
        lens(padded_bs, 0), slots(padded_bs, 0);
    std::vector<i32> tables(static_cast<std::size_t>(padded_bs) * mb, 0);
    for (std::size_t i = 0; i < seqs.size(); ++i) {
        const Sequence &s = *seqs[i];
        MEDUSA_CHECK(!s.tokens.empty(), "empty sequence in decode batch");
        ids[i] = s.tokens.back() % static_cast<i32>(f.vocab);
        pos[i] = static_cast<i32>(s.len() - 1);
        lens[i] = static_cast<i32>(s.len());
        const u32 last = s.len() - 1;
        const u32 block_idx = last / f.block_size;
        MEDUSA_CHECK(block_idx < s.blocks.size(),
                     "sequence missing KV block");
        slots[i] = s.blocks[block_idx] * static_cast<i32>(f.block_size) +
                   static_cast<i32>(last % f.block_size);
        for (std::size_t b = 0; b < s.blocks.size() && b < mb; ++b) {
            tables[i * mb + b] = s.blocks[b];
        }
    }
    MEDUSA_RETURN_IF_ERROR(process_->memcpyH2D(
        bufs_.token_ids, ids.data(), padded_bs * 4, padded_bs * 4));
    MEDUSA_RETURN_IF_ERROR(process_->memcpyH2D(
        bufs_.positions, pos.data(), padded_bs * 4, padded_bs * 4));
    MEDUSA_RETURN_IF_ERROR(process_->memcpyH2D(
        bufs_.seq_lens, lens.data(), padded_bs * 4, padded_bs * 4));
    MEDUSA_RETURN_IF_ERROR(process_->memcpyH2D(
        bufs_.slot_mapping, slots.data(), padded_bs * 4, padded_bs * 4));
    return process_->memcpyH2D(bufs_.block_tables, tables.data(),
                               tables.size() * 4, tables.size() * 4);
}

StatusOr<std::vector<f32>>
ModelRuntime::readLogits(u32 bs, u32 row_offset)
{
    const u32 vocab = model_.func.vocab;
    std::vector<f32> out(static_cast<std::size_t>(bs) * vocab);
    MEDUSA_RETURN_IF_ERROR(process_->memcpyD2H(
        out.data(),
        bufs_.logits + static_cast<u64>(row_offset) * vocab * sizeof(f32),
        out.size() * sizeof(f32), out.size() * 2));
    return out;
}

Status
ModelRuntime::launchSample(u32 row)
{
    const BuiltinKernels &k = BuiltinKernels::get();
    const u32 vocab = model_.func.vocab;
    ParamsBuilder pb;
    pb.ptr(bufs_.logits + static_cast<u64>(row) * vocab * sizeof(f32))
        .ptr(bufs_.sampled)
        .i32(1)
        .i32(static_cast<i32>(vocab));
    TimingInfo t;
    t.bytes = static_cast<f64>(model_.vocab) * 2.0;
    return process_->defaultStream().launch(k.sample_argmax, pb.view(), t);
}

StatusOr<i32>
ModelRuntime::sampleToken(u32 row)
{
    MEDUSA_RETURN_IF_ERROR(launchSample(row));
    i32 token = 0;
    MEDUSA_RETURN_IF_ERROR(
        process_->memcpyD2H(&token, bufs_.sampled, 4, 4));
    return token;
}

StatusOr<std::vector<i32>>
ModelRuntime::generate(const std::vector<i32> &prompt, u32 max_new_tokens)
{
    if (!kv_.initialized() || !bufs_.initialized() || !weights_ready_) {
        return failedPrecondition("engine not fully loaded");
    }
    const FuncDims &f = model_.func;
    if (prompt.empty() || prompt.size() > f.max_batched_tokens) {
        return invalidArgument("bad prompt length");
    }
    Sequence seq;
    seq.tokens = prompt;
    seq.prompt_len = static_cast<u32>(prompt.size());
    // Claim KV blocks for prompt + generation budget.
    const u32 final_len = std::min<u32>(
        seq.prompt_len + max_new_tokens, f.max_seq);
    const u32 blocks_needed =
        (final_len + f.block_size - 1) / f.block_size;
    for (u32 b = 0; b < blocks_needed; ++b) {
        MEDUSA_ASSIGN_OR_RETURN(i32 block, kv_.blocks.allocate());
        seq.blocks.push_back(block);
    }
    auto release = [&]() {
        for (i32 b : seq.blocks) {
            (void)kv_.blocks.free(b);
        }
    };

    // ---- prefill (eager, as in vLLM) ------------------------------------
    const u32 n = seq.prompt_len;
    std::vector<i32> ids(n), pos(n), slots(n);
    std::vector<i32> starts = {0, static_cast<i32>(n)};
    for (u32 t = 0; t < n; ++t) {
        ids[t] = prompt[t] % static_cast<i32>(f.vocab);
        pos[t] = static_cast<i32>(t);
        slots[t] =
            seq.blocks[t / f.block_size] * static_cast<i32>(f.block_size) +
            static_cast<i32>(t % f.block_size);
    }
    Status st = [&]() -> Status {
        MEDUSA_RETURN_IF_ERROR(process_->memcpyH2D(
            bufs_.token_ids, ids.data(), n * 4, n * 4));
        MEDUSA_RETURN_IF_ERROR(process_->memcpyH2D(
            bufs_.positions, pos.data(), n * 4, n * 4));
        MEDUSA_RETURN_IF_ERROR(process_->memcpyH2D(
            bufs_.slot_mapping, slots.data(), n * 4, n * 4));
        MEDUSA_RETURN_IF_ERROR(process_->memcpyH2D(
            bufs_.seq_starts, starts.data(), 8, 8));
        ForwardPass fwd(forwardEnv());
        return fwd.prefill(process_->defaultStream(), 1, n, n);
    }();
    if (!st.isOk()) {
        release();
        return st;
    }

    std::vector<i32> generated;
    auto first = sampleToken(n - 1);
    if (!first.isOk()) {
        release();
        return first.status();
    }
    generated.push_back(*first);
    seq.tokens.push_back(*first);

    // ---- decode loop ------------------------------------------------------
    std::vector<Sequence *> batch = {&seq};
    while (generated.size() < max_new_tokens &&
           seq.len() < final_len) {
        Status step = [&]() -> Status {
            auto bs = graphBatchFor(1);
            if (bs.isOk()) {
                MEDUSA_RETURN_IF_ERROR(stageDecodeInputs(batch, *bs));
                return process_->launchGraph(graphs_.at(*bs),
                                             process_->defaultStream());
            }
            // Eager decode (the "w/o CUDA graph" serving path).
            MEDUSA_RETURN_IF_ERROR(stageDecodeInputs(batch, 1));
            ForwardPass fwd(forwardEnv());
            return fwd.decodeFull(process_->defaultStream(), 1);
        }();
        if (!step.isOk()) {
            release();
            return step;
        }
        auto token = sampleToken(0);
        if (!token.isOk()) {
            release();
            return token.status();
        }
        generated.push_back(*token);
        seq.tokens.push_back(*token);
    }
    release();
    return generated;
}

StatusOr<f64>
ModelRuntime::measureDecodeStepSec(u32 bs, bool use_graph)
{
    if (!kv_.initialized() || !bufs_.initialized()) {
        return failedPrecondition("engine not loaded");
    }
    std::vector<i32> zeros(bs, 0);
    const f64 start = clock_.nowSec();
    MEDUSA_RETURN_IF_ERROR(process_->memcpyH2D(
        bufs_.token_ids, zeros.data(), bs * 4, bs * 4));
    MEDUSA_RETURN_IF_ERROR(process_->memcpyH2D(
        bufs_.positions, zeros.data(), bs * 4, bs * 4));
    MEDUSA_RETURN_IF_ERROR(process_->memcpyH2D(
        bufs_.slot_mapping, zeros.data(), bs * 4, bs * 4));
    MEDUSA_RETURN_IF_ERROR(process_->memcpyH2D(
        bufs_.seq_lens, zeros.data(), bs * 4, bs * 4));
    if (use_graph) {
        auto it = graphs_.find(bs);
        if (it == graphs_.end()) {
            return notFound("no graph for batch size " +
                            std::to_string(bs));
        }
        MEDUSA_RETURN_IF_ERROR(process_->launchGraph(
            it->second, process_->defaultStream()));
    } else {
        ForwardPass fwd(forwardEnv());
        MEDUSA_RETURN_IF_ERROR(
            fwd.decodeFull(process_->defaultStream(), bs));
    }
    // Sample and charge the 4-byte token copy without reading it.
    MEDUSA_RETURN_IF_ERROR(launchSample(0));
    MEDUSA_RETURN_IF_ERROR(process_->memcpyD2H(nullptr, bufs_.sampled, 0, 4));
    return clock_.nowSec() - start;
}

StatusOr<f64>
ModelRuntime::measurePrefillSec(u32 n_real_tokens)
{
    if (!kv_.initialized() || !bufs_.initialized()) {
        return failedPrecondition("engine not loaded");
    }
    const FuncDims &f = model_.func;
    const u32 n = std::clamp<u32>(n_real_tokens / 8, 1,
                                  f.max_batched_tokens);
    const u32 bs = std::max<u32>(1, n / f.max_seq);
    std::vector<i32> ids(n), pos(n), slots(n), starts(bs + 1);
    for (u32 t = 0; t < n; ++t) {
        ids[t] = static_cast<i32>(t % f.vocab);
        pos[t] = static_cast<i32>(t % f.max_seq);
        slots[t] = static_cast<i32>(t);
    }
    for (u32 b = 0; b <= bs; ++b) {
        starts[b] = static_cast<i32>(std::min<u32>(n, b * f.max_seq));
    }
    const f64 start = clock_.nowSec();
    MEDUSA_RETURN_IF_ERROR(process_->memcpyH2D(
        bufs_.token_ids, ids.data(), n * 4, n * 4));
    MEDUSA_RETURN_IF_ERROR(process_->memcpyH2D(
        bufs_.positions, pos.data(), n * 4, n * 4));
    MEDUSA_RETURN_IF_ERROR(process_->memcpyH2D(
        bufs_.slot_mapping, slots.data(), n * 4, n * 4));
    MEDUSA_RETURN_IF_ERROR(process_->memcpyH2D(
        bufs_.seq_starts, starts.data(), (bs + 1) * 4, (bs + 1) * 4));
    ForwardPass fwd(forwardEnv());
    MEDUSA_RETURN_IF_ERROR(fwd.prefill(process_->defaultStream(), bs, n,
                                       n_real_tokens));
    MEDUSA_RETURN_IF_ERROR(launchSample(n - 1));
    MEDUSA_RETURN_IF_ERROR(process_->memcpyD2H(nullptr, bufs_.sampled, 0, 4));
    return clock_.nowSec() - start;
}

Status
ModelRuntime::stageValidationState(u32 bs)
{
    const FuncDims &f = model_.func;
    if (bs + 1 >= f.num_blocks) {
        return invalidArgument("validation batch too large for pool");
    }
    const u32 mb = bufs_.max_blocks_per_seq;
    const u32 ctx = 6; // tokens already in the cache per sequence
    std::vector<i32> ids(bs), pos(bs), lens(bs), slots(bs);
    std::vector<i32> tables(static_cast<std::size_t>(bs) * mb, 0);
    for (u32 i = 0; i < bs; ++i) {
        ids[i] = static_cast<i32>((i * 7 + 3) % f.vocab);
        pos[i] = static_cast<i32>(ctx - 1);
        lens[i] = static_cast<i32>(ctx);
        const i32 block = static_cast<i32>(1 + i);
        tables[static_cast<std::size_t>(i) * mb] = block;
        slots[i] = block * static_cast<i32>(f.block_size) +
                   static_cast<i32>(ctx - 1);
    }
    MEDUSA_RETURN_IF_ERROR(
        process_->memcpyH2D(bufs_.token_ids, ids.data(), bs * 4, bs * 4));
    MEDUSA_RETURN_IF_ERROR(
        process_->memcpyH2D(bufs_.positions, pos.data(), bs * 4, bs * 4));
    MEDUSA_RETURN_IF_ERROR(
        process_->memcpyH2D(bufs_.seq_lens, lens.data(), bs * 4, bs * 4));
    MEDUSA_RETURN_IF_ERROR(process_->memcpyH2D(
        bufs_.slot_mapping, slots.data(), bs * 4, bs * 4));
    MEDUSA_RETURN_IF_ERROR(process_->memcpyH2D(
        bufs_.block_tables, tables.data(), tables.size() * 4,
        tables.size() * 4));

    // Deterministic past-K/V contents for slots [block*bsz, +ctx).
    // Under tensor parallelism each rank holds its KV-head shard; the
    // pattern is indexed by the GLOBAL kv dimension so that sharded
    // caches compose into exactly the single-GPU contents.
    const u32 slot_width = model_.funcLocalKvDim();
    const u32 d_offset = model_.func.kv_heads >= model_.tp_world
                             ? model_.tp_rank * slot_width
                             : 0;
    // Element x of the pattern depends only on x % 23, so each row
    // copies slot_width consecutive entries of a pattern table, starting
    // at the row's phase.
    constexpr u32 kPeriod = 23;
    std::vector<f32> kpattern(kPeriod + slot_width);
    std::vector<f32> vpattern(kPeriod + slot_width);
    for (u32 j = 0; j < kpattern.size(); ++j) {
        const f32 k = 0.02f * static_cast<f32>(j % kPeriod) - 0.2f;
        kpattern[j] = k;
        vpattern[j] = -k * 0.5f;
    }
    // A sequence's past slots are consecutive in its one block, so each
    // (layer, sequence) stages its K rows and its V rows in one copy.
    const u64 past = ctx - 1;
    std::vector<f32> krows(past * slot_width);
    std::vector<f32> vrows(past * slot_width);
    for (u32 l = 0; l < model_.num_layers; ++l) {
        for (u32 i = 0; i < bs; ++i) {
            for (u32 t = 0; t < past; ++t) {
                const u32 phase =
                    (l * 131 + i * 17 + t * 5 + d_offset) % kPeriod;
                std::copy_n(kpattern.begin() + phase, slot_width,
                            krows.begin() + t * slot_width);
                std::copy_n(vpattern.begin() + phase, slot_width,
                            vrows.begin() + t * slot_width);
            }
            const u64 first = static_cast<u64>(1 + i) * f.block_size;
            const u64 offset = first * slot_width * sizeof(f32);
            const u64 bytes = krows.size() * sizeof(f32);
            MEDUSA_RETURN_IF_ERROR(process_->memcpyH2D(
                kv_.k_layers[l] + offset, krows.data(), bytes, 0));
            MEDUSA_RETURN_IF_ERROR(process_->memcpyH2D(
                kv_.v_layers[l] + offset, vrows.data(), bytes, 0));
        }
    }
    return Status::ok();
}

StatusOr<std::vector<f32>>
ModelRuntime::eagerDecodeLogits(u32 bs)
{
    ForwardPass fwd(forwardEnv());
    MEDUSA_RETURN_IF_ERROR(fwd.decodeFull(process_->defaultStream(), bs));
    MEDUSA_RETURN_IF_ERROR(process_->defaultStream().synchronize());
    return readLogits(bs);
}

StatusOr<std::vector<f32>>
ModelRuntime::graphDecodeLogits(u32 bs)
{
    auto it = graphs_.find(bs);
    if (it == graphs_.end()) {
        return notFound("no instantiated graph for batch size " +
                        std::to_string(bs));
    }
    return execAndReadLogits(it->second, bs);
}

StatusOr<std::vector<f32>>
ModelRuntime::execAndReadLogits(const GraphExec &exec, u32 bs)
{
    MEDUSA_RETURN_IF_ERROR(
        process_->launchGraph(exec, process_->defaultStream()));
    MEDUSA_RETURN_IF_ERROR(process_->defaultStream().synchronize());
    return readLogits(bs);
}

} // namespace medusa::llm
