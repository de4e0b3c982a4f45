/**
 * @file
 * Scheduler implementation (see scheduler.h and DESIGN.md §15–§17).
 * The expression order of the timing arithmetic in
 * launchInstance/startStep is pinned bit for bit by
 * tests/data/golden_cluster.txt; every hook call is a pure observation
 * added after the corresponding state transition.
 */

#include <algorithm>
#include <bit>
#include <limits>
#include <string_view>

#include "serve/scheduler.h"

namespace medusa::serve {

using serverless::ChaosEvent;
using serverless::ClusterOptions;
using serverless::EventHandle;
using serverless::SchedulerPolicy;
using serverless::ServingProfile;
using serverless::TraceMetrics;
using serverless::buildChaosSchedule;

// ---- LoadIndex -----------------------------------------------------------

void
Scheduler::LoadIndex::init(u32 num_loads)
{
    counts_.assign(num_loads, 0);
    words_.assign(static_cast<std::size_t>(num_loads) * stride_, 0);
}

void
Scheduler::LoadIndex::add(u32 load, u32 inst)
{
    while (inst >= stride_ * 64) {
        grow();
    }
    if (load >= counts_.size()) {
        // Loads can exceed max_seqs_per_instance transiently: an
        // in-flight prefill batch leaves the load count, the
        // dispatcher tops the instance back up, and the batch's
        // survivors rejoin on completion.
        counts_.resize(load + 1, 0);
        words_.resize(static_cast<std::size_t>(load + 1) * stride_, 0);
    }
    words_[static_cast<std::size_t>(load) * stride_ + inst / 64] |=
        1ull << (inst % 64);
    ++counts_[load];
}

void
Scheduler::LoadIndex::remove(u32 load, u32 inst)
{
    words_[static_cast<std::size_t>(load) * stride_ + inst / 64] &=
        ~(1ull << (inst % 64));
    --counts_[load];
}

void
Scheduler::LoadIndex::move(u32 from, u32 to, u32 inst)
{
    remove(from, inst);
    add(to, inst);
}

u32
Scheduler::LoadIndex::bestBelow(u32 cap) const
{
    const u32 limit =
        std::min<u32>(cap, static_cast<u32>(counts_.size()));
    for (u32 load = limit; load-- > 0;) {
        if (counts_[load] == 0) {
            continue;
        }
        const u64 *row =
            words_.data() + static_cast<std::size_t>(load) * stride_;
        for (u32 w = 0; w < stride_; ++w) {
            if (row[w] != 0) {
                return w * 64 +
                       static_cast<u32>(std::countr_zero(row[w]));
            }
        }
    }
    return kNil;
}

void
Scheduler::LoadIndex::grow()
{
    const u32 new_stride = stride_ * 2;
    std::vector<u64> next(
        static_cast<std::size_t>(counts_.size()) * new_stride, 0);
    for (std::size_t load = 0; load < counts_.size(); ++load) {
        for (u32 w = 0; w < stride_; ++w) {
            next[load * new_stride + w] = words_[load * stride_ + w];
        }
    }
    words_ = std::move(next);
    stride_ = new_stride;
}

// ---- construction (the former run() prologue + initState) ----------------

Scheduler::Scheduler(const ClusterOptions &options,
                     const RequestHooks *hooks, f64 chaos_horizon_sec)
    : options_(options), profile_(*options.profile), hooks_(hooks),
      rec_([this]() { return units::secToNs(engine_.now()); }),
      trace_(options_.pipeline.trace != nullptr ? &rec_ : nullptr)
{
    MEDUSA_CHECK(options.profile != nullptr,
                 "ClusterOptions::profile must be set");
    MEDUSA_CHECK(options_.num_models >= 1 &&
                     options_.num_models <= kNoModel,
                 "bad num_models");
    MEDUSA_CHECK(options_.max_seqs_per_instance >= 1,
                 "need max_seqs_per_instance >= 1");
    chaos_on_ = options_.chaos != nullptr && options_.chaos->enabled();
    slo_on_ = options_.slo.enabled();
    nodes_on_ = options_.num_models > 1 ||
                options_.policy == SchedulerPolicy::kAffinity ||
                (chaos_on_ && options_.chaos->node_mtbf_sec > 0);

    if (trace_ != nullptr) {
        rec_.setTrackName(0, "cluster");
        rec_.setTrackName(1, "requests");
    }

    const u32 cap = options_.max_seqs_per_instance;
    by_load_.resize(options_.num_models);
    for (auto &index : by_load_) {
        index.init(cap + 1);
    }
    wait_head_.assign(options_.num_models, kNil);
    wait_tail_.assign(options_.num_models, kNil);
    wait_count_.assign(options_.num_models, 0);
    pending_.assign(options_.num_models, 0);

    if (nodes_on_) {
        const u32 gpn = std::max<u32>(1, options_.gpus_per_node);
        const u32 nodes = (options_.num_gpus + gpn - 1) / gpn;
        node_free_.assign(nodes, gpn);
        if (options_.num_gpus % gpn != 0) {
            node_free_.back() = options_.num_gpus % gpn;
        }
        node_cap_ = node_free_;
        const u32 slots = std::max<u32>(1, options_.node_artifact_slots);
        node_models_.assign(static_cast<std::size_t>(nodes) * slots,
                            kNoModel);
        node_stamp_.assign(node_models_.size(), 0);
        // Eager-create the study's counters so every policy run
        // exports the same metric name set (zeros included).
        metrics_.counter("cluster.node_warm_launches");
        metrics_.counter("cluster.node_artifact_fetches");
        metrics_.counter("cluster.affinity_evictions");
    }
    if (options_.policy != SchedulerPolicy::kBaseline) {
        metrics_.counter("cluster.cold_pool_hits");
        metrics_.gauge("cluster.keep_alive_gpu_seconds");
    }
    if (chaos_on_ || slo_on_) {
        // Eager-create the full chaos/SLO name set so every matrix
        // cell of the failure study exports the same schema (zeros
        // included) whatever subset of failure classes fires.
        metrics_.counter("cluster.chaos.node_crashes");
        metrics_.counter("cluster.chaos.node_recoveries");
        metrics_.counter("cluster.chaos.instance_crashes");
        metrics_.counter("cluster.chaos.requeued_requests");
        metrics_.counter("cluster.chaos.store_outages");
        metrics_.gauge("cluster.chaos.store_outage_delay_sec");
        metrics_.counter("cluster.chaos.gray_windows");
        metrics_.counter("cluster.chaos.gray_fetches");
        metrics_.counter("cluster.chaos.lost_residency");
        metrics_.counter("cluster.slo.shed_admission");
        metrics_.counter("cluster.slo.shed_deadline");
        metrics_.counter("cluster.slo.failed_requests");
        metrics_.counter("cluster.slo.retries");
        metrics_.counter("cluster.slo.degraded_launches");
        metrics_.counter("cluster.slo.deadline_met");
        metrics_.counter("cluster.slo.deadline_missed");
        metrics_.gauge("cluster.slo.goodput_qps");
    }
    if (chaos_on_) {
        f64 horizon = options_.chaos->horizon_sec;
        if (horizon <= 0) {
            horizon = chaos_horizon_sec;
        }
        chaos_sched_ = buildChaosSchedule(*options_.chaos, horizon);
        for (std::size_t i = 0; i < chaos_sched_.size(); ++i) {
            engine_.schedule(
                chaos_sched_[i].start_sec,
                Ev{Ev::Kind::kChaos, 0, static_cast<u32>(i)});
        }
        if (nodes_on_) {
            node_down_.assign(node_free_.size(), 0);
        }
    }
    if (profile_.deferred_capture) {
        warmed_stride_ = (profile_.batch_sizes.size() + 63) / 64;
    }

    // §2.4 hot spares: live from t=0 on model 0, never reclaimed.
    for (u32 i = 0;
         i < std::min(options_.hot_spares, options_.num_gpus); ++i) {
        const u32 inst = newInstance(/*model=*/0, chooseNode(0));
        inst_state_[inst] = kLive;
        inst_hot_spare_[inst] = 1;
        --pending_[0];
        ++live_count_;
        peak_live_ = std::max(peak_live_, live_count_);
        by_load_[0].add(0, inst);
    }
}

// ---- submission / driving (the former runLoop, inverted) -----------------

u32
Scheduler::submit(const workload::Request &r)
{
    MEDUSA_CHECK(!finished_, "submit after finish");
    MEDUSA_CHECK(r.model_id < options_.num_models,
                 "request model_id out of range");
    const u32 req = static_cast<u32>(req_arrival_.size());
    req_arrival_.push_back(r.arrival_sec);
    req_prompt_.push_back(r.prompt_tokens);
    req_output_.push_back(std::max<u32>(r.output_tokens, 1));
    req_model_.push_back(r.model_id);
    req_deadline_.push_back(r.ttft_deadline_sec > 0
                                ? r.ttft_deadline_sec
                                : options_.slo.default_ttft_sec);
    req_generated_.push_back(0);
    req_first_token_.push_back(-1.0);
    req_finished_.push_back(-1.0);
    req_next_.push_back(kNil);
    req_retries_.push_back(0);
    req_state_.push_back(kStWaiting);
    ++arrival_events_;
    onArrival(req);
    return req;
}

void
Scheduler::step()
{
    engine_.step([this](const Ev &ev) { dispatchEvent(ev); });
}

void
Scheduler::advanceTo(f64 t_sec)
{
    engine_.advanceTo(t_sec);
}

void
Scheduler::pumpUntil(f64 t_sec)
{
    while (!engine_.empty() && engine_.peekTime() <= t_sec) {
        step();
    }
    if (t_sec > engine_.now()) {
        engine_.advanceTo(t_sec);
    }
}

void
Scheduler::drain()
{
    while (!engine_.empty()) {
        step();
    }
}

void
Scheduler::dispatchEvent(const Ev &ev)
{
    switch (ev.kind) {
    case Ev::Kind::kArrival:
        onArrival(ev.inst);
        break;
    case Ev::Kind::kStepDone:
        onStepDone(ev.inst);
        break;
    case Ev::Kind::kLaunchDone:
        onLaunchDone(ev.inst, ev.flag != 0);
        break;
    case Ev::Kind::kIdleReclaim:
        onIdleReclaim(ev.inst);
        break;
    case Ev::Kind::kChaos:
        onChaosEvent(ev.inst);
        break;
    case Ev::Kind::kNodeRecover:
        onNodeRecover(ev.inst);
        break;
    case Ev::Kind::kDeadline:
        onDeadline(ev.inst);
        break;
    case Ev::Kind::kRetryAdmit:
        onRetryAdmit(ev.inst);
        break;
    }
}

// ---- hook plumbing -------------------------------------------------------

void
Scheduler::markTerminal(u32 req, RequestOutcome outcome)
{
    ++terminal_count_;
    if (hooks_ != nullptr && hooks_->on_done) {
        hooks_->on_done(req, outcome, engine_.now());
    }
}

void
Scheduler::emitToken(u32 req, u32 count)
{
    if (hooks_ != nullptr && hooks_->on_token) {
        hooks_->on_token(req, count, engine_.now());
    }
}

// ---- request/instance bookkeeping ----------------------------------------

u32
Scheduler::instLoad(u32 inst) const
{
    return inst_prefill_count_[inst] + inst_running_count_[inst];
}

void
Scheduler::setLoad(u32 inst, u32 old_load, u32 new_load)
{
    if (inst_state_[inst] == kLive && old_load != new_load) {
        by_load_[inst_model_[inst]].move(old_load, new_load, inst);
    }
}

u32
Scheduler::newInstance(u16 model, u32 node)
{
    const u32 inst = static_cast<u32>(inst_state_.size());
    inst_state_.push_back(kColdStarting);
    inst_hot_spare_.push_back(0);
    inst_stepping_.push_back(0);
    inst_step_is_prefill_.push_back(0);
    inst_model_.push_back(model);
    inst_node_.push_back(node);
    inst_prefill_head_.push_back(kNil);
    inst_prefill_tail_.push_back(kNil);
    inst_prefill_count_.push_back(0);
    inst_batch_head_.push_back(kNil);
    inst_running_head_.push_back(kNil);
    inst_running_tail_.push_back(kNil);
    inst_running_count_.push_back(0);
    inst_launched_at_.push_back(engine_.now());
    inst_died_at_.push_back(-1.0);
    inst_idle_since_.push_back(engine_.now());
    inst_idle_timer_.push_back(EventHandle{});
    inst_step_timer_.push_back(EventHandle{});
    inst_launch_timer_.push_back(EventHandle{});
    if (warmed_stride_ > 0) {
        inst_warmed_.resize(inst_warmed_.size() + warmed_stride_, 0);
    }
    ++pending_[model];
    ++busy_gpus_;
    if (node != kNil) {
        --node_free_[node];
    }
    return inst;
}

void
Scheduler::killInstance(u32 inst)
{
    inst_state_[inst] = kDead;
    inst_died_at_[inst] = engine_.now();
    --busy_gpus_;
    if (inst_node_[inst] != kNil) {
        ++node_free_[inst_node_[inst]];
    }
}

// ---- dispatch (assignment + autoscale) -----------------------------------

void
Scheduler::dispatch()
{
    const u32 cap = options_.max_seqs_per_instance;
    // Feed live instances, packing onto the most-loaded one that
    // still has capacity (bin-packing, served by the load index).
    for (u16 m = 0; m < options_.num_models; ++m) {
        while (wait_count_[m] > 0) {
            const u32 best = by_load_[m].bestBelow(cap);
            if (best == kNil) {
                break;
            }
            const u32 req = popWaiting(m);
            assignTo(best, req);
        }
    }
    // Autoscale: cold-start new instances for unserved demand that
    // pending cold starts will not absorb. Down nodes' GPUs are out
    // of the budget until they recover (down_gpus_ is 0 otherwise).
    for (u16 m = 0; m < options_.num_models; ++m) {
        while (wait_count_[m] > static_cast<u64>(pending_[m]) * cap &&
               busy_gpus_ < options_.num_gpus - down_gpus_) {
            if (!launchInstance(m)) {
                break; // free GPUs exist only on down nodes
            }
        }
    }
}

u32
Scheduler::popWaiting(u16 m)
{
    // Deadline-shed requests are removed lazily: they stay linked
    // (already uncounted from wait_count_) until popped here.
    for (;;) {
        const u32 req = wait_head_[m];
        wait_head_[m] = req_next_[req];
        if (wait_head_[m] == kNil) {
            wait_tail_[m] = kNil;
        }
        req_next_[req] = kNil;
        if (req_state_[req] == kStShed) {
            continue;
        }
        --wait_count_[m];
        return req;
    }
}

void
Scheduler::assignTo(u32 inst, u32 req)
{
    req_state_[req] = kStAssigned;
    const u32 load = instLoad(inst);
    // Policy accounting first: an assignment to an instance that
    // outlived the baseline idle timeout is a cold start the warm
    // pool absorbed.
    if (options_.policy != SchedulerPolicy::kBaseline &&
        inst_hot_spare_[inst] == 0 && load == 0 &&
        !inst_stepping_[inst]) {
        const f64 idle = engine_.now() - inst_idle_since_[inst];
        if (idle > options_.idle_timeout_sec) {
            metrics_.counter("cluster.cold_pool_hits").add(1);
            if (options_.policy == SchedulerPolicy::kKeepAlive) {
                metrics_.gauge("cluster.keep_alive_gpu_seconds")
                    .add(idle - options_.idle_timeout_sec);
            }
        }
    }
    // Enqueue for prefill; cancel any pending idle reclaim (an
    // O(log n) heap removal).
    if (inst_prefill_tail_[inst] == kNil) {
        inst_prefill_head_[inst] = req;
    } else {
        req_next_[inst_prefill_tail_[inst]] = req;
    }
    inst_prefill_tail_[inst] = req;
    req_next_[req] = kNil;
    ++inst_prefill_count_[inst];
    setLoad(inst, load, load + 1);
    engine_.cancel(inst_idle_timer_[inst]);
    inst_idle_timer_[inst] = EventHandle{};
    if (inst_stepping_[inst] == 0) {
        startStep(inst);
    }
}

// ---- instance launch ------------------------------------------------------

void
Scheduler::traceLaunchSpan(std::string_view name,
                           std::string_view category, f64 start_sec,
                           f64 dur_sec)
{
    if (trace_ != nullptr) {
        trace_->complete(name, category, 0, units::secToNs(start_sec),
                         units::secToNs(dur_sec));
    }
}

bool
Scheduler::nodeDown(u32 n) const
{
    return !node_down_.empty() && node_down_[n] != 0;
}

u32
Scheduler::chooseNode(u16 m)
{
    if (!nodes_on_) {
        return kNil;
    }
    const u32 nodes = static_cast<u32>(node_free_.size());
    const u32 slots =
        static_cast<u32>(node_models_.size() / node_free_.size());
    if (options_.policy == SchedulerPolicy::kAffinity) {
        // Pass 1: a free GPU on a node where the artifact is
        // already resident (the warm launch affinity exists for).
        for (u32 n = 0; n < nodes; ++n) {
            if (node_free_[n] == 0 || nodeDown(n)) {
                continue;
            }
            for (u32 s = 0; s < slots; ++s) {
                if (node_models_[n * slots + s] == m) {
                    return n;
                }
            }
        }
        // Pass 2: a node with a free artifact slot (fetch without
        // evicting anyone).
        for (u32 n = 0; n < nodes; ++n) {
            if (node_free_[n] == 0 || nodeDown(n)) {
                continue;
            }
            for (u32 s = 0; s < slots; ++s) {
                if (node_models_[n * slots + s] == kNoModel) {
                    return n;
                }
            }
        }
        // Pass 3: evict the globally least-recently-used artifact
        // among nodes that still have a free GPU.
        u32 best = kNil;
        u64 best_stamp = ~0ull;
        for (u32 n = 0; n < nodes; ++n) {
            if (node_free_[n] == 0 || nodeDown(n)) {
                continue;
            }
            for (u32 s = 0; s < slots; ++s) {
                if (node_stamp_[n * slots + s] < best_stamp) {
                    best_stamp = node_stamp_[n * slots + s];
                    best = n;
                }
            }
        }
        return best;
    }
    // Baseline / keep-alive placement ignores artifact residency:
    // the first node with a free GPU.
    for (u32 n = 0; n < nodes; ++n) {
        if (node_free_[n] > 0 && !nodeDown(n)) {
            return n;
        }
    }
    return kNil;
}

f64
Scheduler::nodeFetch(u32 node, u16 m)
{
    const u32 slots =
        static_cast<u32>(node_models_.size() / node_free_.size());
    const std::size_t base = static_cast<std::size_t>(node) * slots;
    for (u32 s = 0; s < slots; ++s) {
        if (node_models_[base + s] == m) {
            node_stamp_[base + s] = ++lru_tick_;
            metrics_.counter("cluster.node_warm_launches").add(1);
            return 0.0;
        }
    }
    metrics_.counter("cluster.node_artifact_fetches").add(1);
    u32 victim = 0;
    u64 victim_stamp = ~0ull;
    bool free_slot = false;
    for (u32 s = 0; s < slots; ++s) {
        if (node_models_[base + s] == kNoModel) {
            victim = s;
            free_slot = true;
            break;
        }
        if (node_stamp_[base + s] < victim_stamp) {
            victim_stamp = node_stamp_[base + s];
            victim = s;
        }
    }
    if (!free_slot) {
        metrics_.counter("cluster.affinity_evictions").add(1);
    }
    node_models_[base + victim] = m;
    node_stamp_[base + victim] = ++lru_tick_;
    return options_.node_artifact_miss_sec;
}

bool
Scheduler::launchInstance(u16 m)
{
    const u32 node = chooseNode(m);
    if (nodes_on_ && node == kNil) {
        return false; // only reachable inside a chaos crash window
    }
    metrics_.counter("cluster.cold_starts").add(1);
    const u32 inst = newInstance(m, node);
    const f64 t0 = engine_.now();
    // Node-local residency: the only artifact-fetch model.
    f64 fetch_sec = 0;
    if (nodes_on_ && node != kNil) {
        fetch_sec = nodeFetch(node, m);
    }
    // Chaos fetch model: a fetch inside a store outage hangs until
    // the store recovers (unless the SLO policy degrades to the
    // vanilla cold start, bypassing the store); a fetch inside a
    // gray window completes, gray_slowdown times slower.
    bool degrade = false;
    if (chaos_on_ && fetch_sec > 0) {
        if (t0 < store_until_) {
            const f64 wait = store_until_ - t0;
            const f64 vanilla = options_.vanilla_cold_start_sec > 0
                                    ? options_.vanilla_cold_start_sec
                                    : profile_.cold_start_sec;
            if (slo_on_ && options_.slo.degrade_to_vanilla &&
                vanilla < wait + fetch_sec + profile_.cold_start_sec) {
                degrade = true;
            } else {
                fetch_sec += wait;
                metrics_.gauge("cluster.chaos.store_outage_delay_sec")
                    .add(wait);
            }
        } else if (t0 < gray_until_) {
            fetch_sec *= options_.chaos->gray_slowdown;
            metrics_.counter("cluster.chaos.gray_fetches").add(1);
        }
    }
    if (degrade) {
        metrics_.counter("cluster.slo.degraded_launches").add(1);
        const f64 vanilla = options_.vanilla_cold_start_sec > 0
                                ? options_.vanilla_cold_start_sec
                                : profile_.cold_start_sec;
        traceLaunchSpan("slo.degrade_vanilla", "fallback", t0, vanilla);
        launch_sec_.add(vanilla);
        traceLaunchSpan("instance.launch", "cluster", t0, vanilla);
        inst_launch_timer_[inst] = engine_.scheduleAfter(
            vanilla, Ev{Ev::Kind::kLaunchDone, 1, inst});
        return true;
    }
    // Restore / fault / fallback timing. The expression order below
    // is pinned bit for bit by the golden cluster fixture.
    f64 launch_delay = fetch_sec;
    bool comes_alive = true;
    FaultInjector *fault = options_.pipeline.fault;
    if (fault == nullptr) {
        traceLaunchSpan("restore.attempt", "restore", t0 + launch_delay,
                        profile_.cold_start_sec);
        launch_delay += profile_.cold_start_sec;
    } else {
        const core::FallbackPolicy &fb = options_.fallback;
        const u32 max_attempts =
            fb.mode == core::FallbackMode::kRetryThenVanilla
                ? std::max<u32>(1, fb.max_attempts)
                : 1;
        f64 backoff = fb.backoff_sec;
        bool restored = false;
        for (u32 attempt = 1; attempt <= max_attempts; ++attempt) {
            if (fault
                    ->check(FaultPoint::kClusterRestore,
                            "instance launch")
                    .isOk()) {
                traceLaunchSpan("restore.attempt", "restore",
                                t0 + launch_delay,
                                profile_.cold_start_sec);
                launch_delay += profile_.cold_start_sec;
                restored = true;
                break;
            }
            const f64 wasted =
                fault->drawFraction(FaultPoint::kClusterRestore) *
                profile_.cold_start_sec;
            traceLaunchSpan("restore.attempt", "restore",
                            t0 + launch_delay, wasted);
            if (trace_ != nullptr) {
                TraceEvent ev;
                ev.name = "restore.attempt_failed";
                ev.category = "restore";
                ev.phase = TraceEvent::Phase::kInstant;
                ev.start_ns = units::secToNs(t0 + launch_delay + wasted);
                trace_->append(std::move(ev));
            }
            launch_delay += wasted;
            metrics_.gauge("cluster.wasted_restore_sec").add(wasted);
            metrics_.counter("cluster.restore_failures").add(1);
            if (fb.mode == core::FallbackMode::kFail) {
                comes_alive = false;
                break;
            }
            if (attempt < max_attempts) {
                metrics_.counter("cluster.retries").add(1);
                launch_delay += backoff;
                backoff *= fb.backoff_multiplier;
            }
        }
        if (!restored && comes_alive) {
            metrics_.counter("cluster.fallback_cold_starts").add(1);
            const f64 vanilla = options_.vanilla_cold_start_sec > 0
                                    ? options_.vanilla_cold_start_sec
                                    : profile_.cold_start_sec;
            traceLaunchSpan("fallback.vanilla_cold_start", "fallback",
                            t0 + launch_delay, vanilla);
            launch_delay += vanilla;
        }
    }
    launch_sec_.add(launch_delay);
    traceLaunchSpan("instance.launch", "cluster", t0, launch_delay);
    inst_launch_timer_[inst] = engine_.scheduleAfter(
        launch_delay, Ev{Ev::Kind::kLaunchDone,
                         static_cast<u8>(comes_alive ? 1 : 0), inst});
    return true;
}

// ---- event handlers ------------------------------------------------------

void
Scheduler::onArrival(u32 req)
{
    if (slo_on_) {
        const f64 deadline = req_deadline_[req];
        if (options_.slo.admission_control && deadline > 0 &&
            projectedWaitSec(req_model_[req]) > deadline) {
            shedRequest(req, /*admission=*/true);
            return;
        }
        if (options_.slo.shed_on_deadline && deadline > 0) {
            engine_.scheduleAfter(deadline,
                                  Ev{Ev::Kind::kDeadline, 0, req});
        }
    }
    enqueueWaiting(req);
    dispatch();
}

void
Scheduler::enqueueWaiting(u32 req)
{
    const u16 m = req_model_[req];
    req_state_[req] = kStWaiting;
    if (wait_tail_[m] == kNil) {
        wait_head_[m] = req;
    } else {
        req_next_[wait_tail_[m]] = req;
    }
    wait_tail_[m] = req;
    req_next_[req] = kNil;
    ++wait_count_[m];
}

void
Scheduler::onLaunchDone(u32 inst, bool alive)
{
    inst_launch_timer_[inst] = EventHandle{};
    const u16 m = inst_model_[inst];
    --pending_[m];
    if (!alive) {
        // kFail: the instance dies after the wasted restore time;
        // dispatch() sees the freed GPU and relaunches for any
        // still-unserved demand.
        killInstance(inst);
        dispatch();
        return;
    }
    inst_state_[inst] = kLive;
    ++live_count_;
    peak_live_ = std::max(peak_live_, live_count_);
    inst_idle_since_[inst] = engine_.now();
    by_load_[m].add(instLoad(inst), inst);
    dispatch();
    if (instLoad(inst) == 0) {
        armIdleTimeout(inst);
    }
}

void
Scheduler::onStepDone(u32 inst)
{
    inst_step_timer_[inst] = EventHandle{};
    const f64 now = engine_.now();
    const u32 load_before = instLoad(inst);
    u32 load = load_before;
    if (inst_step_is_prefill_[inst] != 0) {
        // Prefill completion: the batch emits its first tokens;
        // survivors join the decode set in batch order.
        u32 req = inst_batch_head_[inst];
        inst_batch_head_[inst] = kNil;
        while (req != kNil) {
            const u32 next = req_next_[req];
            if (req_first_token_[req] < 0) {
                // A crash-requeued request keeps its earliest
                // first-token time (re-prefill is a re-emission).
                req_first_token_[req] = now;
                if (hooks_ != nullptr && hooks_->on_first_token) {
                    hooks_->on_first_token(req, now);
                }
            }
            req_generated_[req] = 1;
            emitToken(req, 1);
            if (req_generated_[req] >= req_output_[req]) {
                req_finished_[req] = now;
                req_state_[req] = kStDone;
                req_next_[req] = kNil;
                markTerminal(req, RequestOutcome::kCompleted);
            } else {
                if (inst_running_tail_[inst] == kNil) {
                    inst_running_head_[inst] = req;
                } else {
                    req_next_[inst_running_tail_[inst]] = req;
                }
                inst_running_tail_[inst] = req;
                req_next_[req] = kNil;
                ++inst_running_count_[inst];
                ++load;
            }
            req = next;
        }
    } else {
        // Decode completion over all running sequences.
        u32 prev = kNil;
        u32 req = inst_running_head_[inst];
        while (req != kNil) {
            const u32 next = req_next_[req];
            ++req_generated_[req];
            emitToken(req, req_generated_[req]);
            if (req_generated_[req] >= req_output_[req]) {
                req_finished_[req] = now;
                req_state_[req] = kStDone;
                if (prev == kNil) {
                    inst_running_head_[inst] = next;
                } else {
                    req_next_[prev] = next;
                }
                if (next == kNil) {
                    inst_running_tail_[inst] = prev;
                }
                req_next_[req] = kNil;
                --inst_running_count_[inst];
                --load;
                markTerminal(req, RequestOutcome::kCompleted);
            } else {
                prev = req;
            }
            req = next;
        }
    }
    setLoad(inst, load_before, load);
    finishStep(inst);
}

void
Scheduler::onIdleReclaim(u32 inst)
{
    inst_idle_timer_[inst] = EventHandle{};
    if (inst_state_[inst] != kLive || instLoad(inst) != 0 ||
        inst_stepping_[inst] != 0) {
        return; // defensive; cancellation makes this unreachable
    }
    if (options_.policy == SchedulerPolicy::kKeepAlive &&
        live_count_ <= options_.keep_alive_instances) {
        // Warm-pool floor: stay alive, unarmed — the next
        // assignment (a cold_pool_hit) or the end of the run bills
        // the idle GPU-seconds.
        return;
    }
    if (options_.policy == SchedulerPolicy::kKeepAlive) {
        const f64 idle = engine_.now() - inst_idle_since_[inst];
        if (idle > options_.idle_timeout_sec) {
            metrics_.gauge("cluster.keep_alive_gpu_seconds")
                .add(idle - options_.idle_timeout_sec);
        }
    }
    by_load_[inst_model_[inst]].remove(0, inst);
    --live_count_;
    killInstance(inst);
}

// ---- the step loop --------------------------------------------------------

void
Scheduler::startStep(u32 inst)
{
    MEDUSA_CHECK(inst_stepping_[inst] == 0, "instance already stepping");
    if (inst_prefill_count_[inst] > 0) {
        // Prefill step: batch admitted prompts up to the token
        // budget (they leave the load count while in flight).
        const u32 load_before = instLoad(inst);
        u32 tokens = 0;
        u32 batched = 0;
        u32 tail = kNil;
        while (inst_prefill_count_[inst] > 0) {
            const u32 req = inst_prefill_head_[inst];
            if (batched > 0 && tokens + req_prompt_[req] >
                                   options_.max_batched_tokens) {
                break;
            }
            tokens += req_prompt_[req];
            inst_prefill_head_[inst] = req_next_[req];
            if (inst_prefill_head_[inst] == kNil) {
                inst_prefill_tail_[inst] = kNil;
            }
            --inst_prefill_count_[inst];
            if (tail == kNil) {
                inst_batch_head_[inst] = req;
            } else {
                req_next_[tail] = req;
            }
            req_next_[req] = kNil;
            tail = req;
            ++batched;
        }
        inst_stepping_[inst] = 1;
        inst_step_is_prefill_[inst] = 1;
        setLoad(inst, load_before, load_before - batched);
        const f64 step = profile_.prefill(tokens);
        inst_step_timer_[inst] = engine_.scheduleAfter(
            step, Ev{Ev::Kind::kStepDone, 0, inst});
        return;
    }
    if (inst_running_count_[inst] > 0) {
        // Decode step over all running sequences.
        inst_stepping_[inst] = 1;
        inst_step_is_prefill_[inst] = 0;
        const u32 bs = inst_running_count_[inst];
        f64 step = profile_.decodeStep(bs);
        if (profile_.deferred_capture) {
            // §2.4: the first step at a new batch-size bucket pays
            // the lazy warm-up + capture.
            const std::size_t bucket = profile_.bucketIndex(bs);
            u64 &word =
                inst_warmed_[static_cast<std::size_t>(inst) *
                                 warmed_stride_ +
                             bucket / 64];
            const u64 bit = 1ull << (bucket % 64);
            if ((word & bit) == 0) {
                word |= bit;
                step += profile_.capturePenalty(bs);
            }
        }
        inst_step_timer_[inst] = engine_.scheduleAfter(
            step, Ev{Ev::Kind::kStepDone, 0, inst});
        return;
    }
    armIdleTimeout(inst);
}

void
Scheduler::finishStep(u32 inst)
{
    inst_stepping_[inst] = 0;
    // Pull any globally waiting work before the next step; the
    // dispatch may itself restart this instance's step loop.
    dispatch();
    if (inst_state_[inst] != kLive || inst_stepping_[inst] != 0) {
        return;
    }
    if (instLoad(inst) > 0) {
        startStep(inst);
    } else {
        armIdleTimeout(inst);
    }
}

void
Scheduler::armIdleTimeout(u32 inst)
{
    if (inst_hot_spare_[inst] != 0) {
        return; // spares are provisioned for the whole run
    }
    engine_.cancel(inst_idle_timer_[inst]);
    inst_idle_since_[inst] = engine_.now();
    const f64 timeout = options_.policy == SchedulerPolicy::kKeepAlive &&
                                options_.keep_alive_idle_sec >= 0
                            ? options_.keep_alive_idle_sec
                            : options_.idle_timeout_sec;
    inst_idle_timer_[inst] = engine_.scheduleAfter(
        timeout, Ev{Ev::Kind::kIdleReclaim, 0, inst});
}

// ---- chaos + SLO (DESIGN.md §16) -----------------------------------------

void
Scheduler::traceInstant(std::string_view name, std::string_view category)
{
    if (trace_ != nullptr) {
        TraceEvent ev;
        ev.name = name;
        ev.category = category;
        ev.phase = TraceEvent::Phase::kInstant;
        ev.start_ns = units::secToNs(engine_.now());
        trace_->append(std::move(ev));
    }
}

void
Scheduler::onChaosEvent(u32 idx)
{
    const ChaosEvent &ce = chaos_sched_[idx];
    const f64 now = engine_.now();
    switch (ce.kind) {
    case ChaosEvent::Kind::kNodeCrash: {
        // Victim = draw over the currently-up nodes; a fully-down
        // cluster absorbs the event.
        u32 up = 0;
        for (const u8 d : node_down_) {
            up += d == 0 ? 1 : 0;
        }
        if (up == 0) {
            return;
        }
        u32 k = static_cast<u32>(ce.draw % up);
        for (u32 n = 0; n < node_down_.size(); ++n) {
            if (node_down_[n] != 0) {
                continue;
            }
            if (k == 0) {
                crashNode(n, std::max(ce.end_sec, now));
                break;
            }
            --k;
        }
        dispatch();
        break;
    }
    case ChaosEvent::Kind::kInstanceCrash: {
        if (live_count_ == 0) {
            return; // nothing serving; the crash is a no-op
        }
        u64 k = ce.draw % live_count_;
        for (u32 i = 0; i < inst_state_.size(); ++i) {
            if (inst_state_[i] != kLive) {
                continue;
            }
            if (k == 0) {
                crashInstance(i);
                break;
            }
            --k;
        }
        dispatch(); // the freed GPU may relaunch for waiting demand
        break;
    }
    case ChaosEvent::Kind::kStoreOutage:
        metrics_.counter("cluster.chaos.store_outages").add(1);
        store_until_ = std::max(store_until_, ce.end_sec);
        traceLaunchSpan("chaos.store_outage", "chaos", now,
                        ce.end_sec - now);
        break;
    case ChaosEvent::Kind::kGrayWindow:
        metrics_.counter("cluster.chaos.gray_windows").add(1);
        gray_until_ = std::max(gray_until_, ce.end_sec);
        traceLaunchSpan("chaos.gray_window", "chaos", now,
                        ce.end_sec - now);
        break;
    }
}

void
Scheduler::crashNode(u32 node, f64 recover_at)
{
    metrics_.counter("cluster.chaos.node_crashes").add(1);
    traceLaunchSpan("chaos.node_crash", "chaos", engine_.now(),
                    recover_at - engine_.now());
    node_down_[node] = 1;
    down_gpus_ += node_cap_[node];
    for (u32 i = 0; i < inst_state_.size(); ++i) {
        if (inst_node_[i] == node && (inst_state_[i] == kColdStarting ||
                                      inst_state_[i] == kLive)) {
            crashInstance(i);
        }
    }
    // The node's artifact store dies with it: affinity routing must
    // re-fetch after recovery.
    const u32 slots =
        static_cast<u32>(node_models_.size() / node_free_.size());
    const std::size_t base = static_cast<std::size_t>(node) * slots;
    u64 lost = 0;
    for (u32 s = 0; s < slots; ++s) {
        if (node_models_[base + s] != kNoModel) {
            node_models_[base + s] = kNoModel;
            node_stamp_[base + s] = 0;
            ++lost;
        }
    }
    metrics_.counter("cluster.chaos.lost_residency").add(lost);
    engine_.schedule(recover_at, Ev{Ev::Kind::kNodeRecover, 0, node});
}

void
Scheduler::onNodeRecover(u32 node)
{
    metrics_.counter("cluster.chaos.node_recoveries").add(1);
    node_down_[node] = 0;
    down_gpus_ -= node_cap_[node];
    dispatch(); // recovered capacity may serve waiting demand
}

void
Scheduler::crashInstance(u32 inst)
{
    metrics_.counter("cluster.chaos.instance_crashes").add(1);
    traceInstant("chaos.instance_crash", "chaos");
    if (inst_state_[inst] == kColdStarting) {
        engine_.cancel(inst_launch_timer_[inst]);
        inst_launch_timer_[inst] = EventHandle{};
        --pending_[inst_model_[inst]];
        killInstance(inst);
        return;
    }
    by_load_[inst_model_[inst]].remove(instLoad(inst), inst);
    --live_count_;
    engine_.cancel(inst_idle_timer_[inst]);
    inst_idle_timer_[inst] = EventHandle{};
    engine_.cancel(inst_step_timer_[inst]);
    inst_step_timer_[inst] = EventHandle{};
    inst_stepping_[inst] = 0;
    // Every in-flight request — queued for prefill, mid-prefill
    // batch, or decoding — is thrown back for the retry policy.
    const u32 prefill = inst_prefill_head_[inst];
    const u32 batch = inst_batch_head_[inst];
    const u32 running = inst_running_head_[inst];
    inst_prefill_head_[inst] = kNil;
    inst_prefill_tail_[inst] = kNil;
    inst_prefill_count_[inst] = 0;
    inst_batch_head_[inst] = kNil;
    inst_running_head_[inst] = kNil;
    inst_running_tail_[inst] = kNil;
    inst_running_count_[inst] = 0;
    killInstance(inst);
    requeueChain(prefill);
    requeueChain(batch);
    requeueChain(running);
}

void
Scheduler::requeueChain(u32 head)
{
    u32 req = head;
    while (req != kNil) {
        const u32 next = req_next_[req];
        req_next_[req] = kNil;
        requeueRequest(req);
        req = next;
    }
}

void
Scheduler::requeueRequest(u32 req)
{
    metrics_.counter("cluster.chaos.requeued_requests").add(1);
    req_generated_[req] = 0; // the retry re-prefills from scratch
    ++req_retries_[req];
    if (req_retries_[req] > options_.slo.max_retries) {
        req_state_[req] = kStFailed;
        metrics_.counter("cluster.slo.failed_requests").add(1);
        traceInstant("slo.request_failed", "slo");
        markTerminal(req, RequestOutcome::kFailed);
        return;
    }
    metrics_.counter("cluster.slo.retries").add(1);
    req_state_[req] = kStRetryWait;
    const f64 backoff =
        options_.slo.retry_backoff_sec *
        static_cast<f64>(1u << std::min<u32>(req_retries_[req] - 1, 20));
    traceInstant("slo.requeue", "slo");
    engine_.scheduleAfter(backoff, Ev{Ev::Kind::kRetryAdmit, 0, req});
}

void
Scheduler::onRetryAdmit(u32 req)
{
    if (slo_on_) {
        const f64 deadline = req_deadline_[req];
        if (deadline > 0) {
            const f64 remaining =
                req_arrival_[req] + deadline - engine_.now();
            if (options_.slo.shed_on_deadline && remaining < 0) {
                shedRequest(req, /*admission=*/false);
                return;
            }
            if (options_.slo.admission_control &&
                projectedWaitSec(req_model_[req]) > remaining) {
                shedRequest(req, /*admission=*/true);
                return;
            }
            if (options_.slo.shed_on_deadline) {
                engine_.scheduleAfter(remaining,
                                      Ev{Ev::Kind::kDeadline, 0, req});
            }
        }
    }
    enqueueWaiting(req);
    dispatch();
}

void
Scheduler::onDeadline(u32 req)
{
    if (req_state_[req] != kStWaiting) {
        return; // assigned, done, or already shed — lazy no-op
    }
    // Uncount now; popWaiting unlinks the stale FIFO entry later.
    --wait_count_[req_model_[req]];
    shedRequest(req, /*admission=*/false);
}

void
Scheduler::shedRequest(u32 req, bool admission)
{
    req_state_[req] = kStShed;
    metrics_
        .counter(admission ? "cluster.slo.shed_admission"
                           : "cluster.slo.shed_deadline")
        .add(1);
    traceInstant(admission ? "slo.shed_admission" : "slo.shed_deadline",
                 "slo");
    markTerminal(req, admission ? RequestOutcome::kShedAdmission
                                : RequestOutcome::kShedDeadline);
}

f64
Scheduler::projectedWaitSec(u16 m)
{
    if (by_load_[m].bestBelow(options_.max_seqs_per_instance) != kNil) {
        return 0;
    }
    if (pending_[m] > 0) {
        return 0.5 * expectedLaunchSec();
    }
    if (busy_gpus_ < options_.num_gpus - down_gpus_ &&
        (!nodes_on_ || chooseNode(m) != kNil)) {
        return expectedLaunchSec();
    }
    return std::numeric_limits<f64>::infinity();
}

f64
Scheduler::expectedLaunchSec()
{
    f64 fetch = nodes_on_ ? options_.node_artifact_miss_sec : 0.0;
    if (chaos_on_ && fetch > 0) {
        const f64 now = engine_.now();
        if (now < store_until_) {
            if (slo_on_ && options_.slo.degrade_to_vanilla) {
                const f64 vanilla =
                    options_.vanilla_cold_start_sec > 0
                        ? options_.vanilla_cold_start_sec
                        : profile_.cold_start_sec;
                return std::min(vanilla, store_until_ - now + fetch +
                                             profile_.cold_start_sec);
            }
            fetch += store_until_ - now;
        } else if (now < gray_until_) {
            fetch *= options_.chaos->gray_slowdown;
        }
    }
    return fetch + profile_.cold_start_sec;
}

// ---- epilogue -------------------------------------------------------------

TraceMetrics
Scheduler::finish()
{
    MEDUSA_CHECK(!finished_, "finish called twice");
    finished_ = true;
    const f64 end = engine_.now();
    TraceMetrics m;
    f64 first_arrival = req_arrival_.empty() ? 0 : req_arrival_.front();
    f64 last_finish = first_arrival;
    u64 deadline_met = 0;
    for (std::size_t i = 0; i < req_arrival_.size(); ++i) {
        if (req_finished_[i] < 0) {
            continue; // shed / failed under chaos, else unreachable
        }
        ++m.completed;
        const f64 ttft = req_first_token_[i] - req_arrival_[i];
        if (slo_on_) {
            const f64 d = req_deadline_[i];
            if (d <= 0 || ttft <= d) {
                ++deadline_met;
                metrics_.counter("cluster.slo.deadline_met").add(1);
            } else {
                metrics_.counter("cluster.slo.deadline_missed").add(1);
            }
        }
        m.ttft_sec.add(ttft);
        m.e2e_sec.add(req_finished_[i] - req_arrival_[i]);
        last_finish = std::max(last_finish, req_finished_[i]);
        if (trace_ != nullptr) {
            TraceEvent ev;
            ev.name = "request";
            ev.category = "request";
            ev.track = 1;
            ev.start_ns = units::secToNs(req_arrival_[i]);
            ev.dur_ns =
                units::secToNs(req_finished_[i] - req_arrival_[i]);
            ev.args.emplace_back(
                "ttft_sec",
                std::to_string(req_first_token_[i] - req_arrival_[i]));
            trace_->append(std::move(ev));
        }
    }
    m.makespan_sec = std::max(last_finish - first_arrival, 1e-9);
    m.achieved_qps = static_cast<f64>(m.completed) / m.makespan_sec;
    if (slo_on_) {
        const f64 goodput_qps =
            static_cast<f64>(deadline_met) / m.makespan_sec;
        metrics_.gauge("cluster.slo.goodput_qps").set(goodput_qps);
    }
    for (std::size_t i = 0; i < inst_state_.size(); ++i) {
        const f64 death = inst_died_at_[i] >= 0 ? inst_died_at_[i] : end;
        m.gpu_seconds += std::max(0.0, death - inst_launched_at_[i]);
    }
    // Bill idle time the keep-alive floor kept on the books.
    if (options_.policy == SchedulerPolicy::kKeepAlive) {
        for (std::size_t i = 0; i < inst_state_.size(); ++i) {
            if (inst_state_[i] != kLive || inst_hot_spare_[i] != 0 ||
                instLoad(static_cast<u32>(i)) != 0 ||
                inst_stepping_[i] != 0) {
                continue;
            }
            const f64 idle = end - inst_idle_since_[i];
            if (idle > options_.idle_timeout_sec) {
                metrics_.gauge("cluster.keep_alive_gpu_seconds")
                    .add(idle - options_.idle_timeout_sec);
            }
        }
    }
    m.launch_sec = std::move(launch_sec_);
    m.instances_launched = inst_state_.size();
    m.peak_live_instances = peak_live_;
    m.sim_events = engine_.dispatched() + arrival_events_;
    metrics_.counter("cluster.completed").add(m.completed);
    metrics_.gauge("cluster.makespan_sec").set(m.makespan_sec);
    metrics_.gauge("cluster.achieved_qps").set(m.achieved_qps);
    metrics_.gauge("cluster.gpu_seconds").set(m.gpu_seconds);
    m.metrics = metrics_.snapshot();
    if (chaos_on_ || slo_on_) {
        // The terminal-state lattice (DESIGN.md §16): every request
        // ends completed, shed, or failed — nothing is dropped on
        // the floor by a crash, an outage, or a shed race.
        const MetricsSnapshot &c = m.metrics;
        MEDUSA_CHECK(m.completed +
                             c.counterValue("cluster.slo.shed_admission") +
                             c.counterValue("cluster.slo.shed_deadline") +
                             c.counterValue("cluster.slo.failed_requests") ==
                         req_arrival_.size(),
                     "request conservation violated");
    }
    if (options_.pipeline.trace != nullptr) {
        options_.pipeline.trace->appendAll(rec_.events());
        options_.pipeline.trace->setTrackName(0, "cluster");
        options_.pipeline.trace->setTrackName(1, "requests");
    }
    if (options_.pipeline.metrics != nullptr) {
        options_.pipeline.metrics->mergeFrom(m.metrics);
    }
    return m;
}

} // namespace medusa::serve
