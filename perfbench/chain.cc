/**
 * @file
 * The workload table, the span log, and the first three stages of the
 * chain: set-up (materialize + profile), coldstart and cluster.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <span>
#include <unordered_map>

#include "medusa/image.h"
#include "medusa/offline.h"
#include "medusa/restore.h"
#include "perfbench.h"
#include "serverless/profile.h"

namespace perfbench {

using namespace medusa;

namespace {

/**
 * The paper's application-trace study (§7.5, Figure 10; the repository's
 * bench_fig10_traces): ShareGPT-like requests with bursty Poisson
 * arrivals at RPS 2 and RPS 10. A trace holds ~40k requests, many more
 * than one figure run, so that a seed's P99.9 rests on tens of requests
 * and hundreds of bursts.
 */
Workload
shareGptWorkload(const char *name, f64 rps, f64 duration_sec)
{
    Workload w;
    w.name = name;
    w.trace.requests_per_sec = rps;
    w.trace.duration_sec = duration_sec;
    return w;
}

std::vector<Workload>
makeWorkloads()
{
    return {shareGptWorkload("rps2", 2.0, 20000.0),
            shareGptWorkload("rps10", 10.0, 4000.0)};
}

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> table = makeWorkloads();
    return table;
}

/** Process-state digest of a restored engine (fidelity witness). */
u64
stateFingerprint(llm::ModelRuntime &rt)
{
    return rt.process().logicalStateFingerprint() ^
           (rt.allocator().stateFingerprint() * 31);
}

bool
sameProfile(const serverless::ServingProfile &a,
            const serverless::ServingProfile &b)
{
    return a.loading_sec == b.loading_sec &&
           a.cold_start_sec == b.cold_start_sec &&
           a.decode_step_sec == b.decode_step_sec &&
           a.prefill_sec == b.prefill_sec;
}

/** Graph replay must reproduce eager decode logits bit for bit. */
Status
checkLogits(llm::ModelRuntime &rt, u32 bs)
{
    MEDUSA_RETURN_IF_ERROR(rt.stageValidationState(bs));
    MEDUSA_ASSIGN_OR_RETURN(auto eager, rt.eagerDecodeLogits(bs));
    MEDUSA_RETURN_IF_ERROR(rt.stageValidationState(bs));
    MEDUSA_ASSIGN_OR_RETURN(auto replayed, rt.graphDecodeLogits(bs));
    if (eager.empty() || replayed != eager) {
        return validationFailure("restored graph bs=" + std::to_string(bs) +
                                 " logits differ from eager decode");
    }
    return Status::ok();
}

f64
secondsSince(std::int64_t start_ns)
{
    return static_cast<f64>(nowNs() - start_ns) * 1e-9;
}

/**
 * Wall seconds of a fixed host workload that owes nothing to the
 * program: fill, copy and sort 8 MB and build a 256k-entry hash map,
 * ~0.2 s of the same mix of compute, allocation and memory traffic the
 * set-up does.
 */
f64
calibrationSec()
{
    const std::int64_t t0 = nowNs();
    u64 x = 0x9E3779B97F4A7C15ull;
    std::vector<u64> keys(1u << 20);
    for (u64 &k : keys) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        k = x;
    }
    std::vector<u64> copy(keys.size());
    for (int i = 0; i < 4; ++i) {
        std::copy(keys.begin(), keys.end(), copy.begin());
    }
    std::sort(copy.begin(), copy.end());
    std::unordered_map<u64, u32> index;
    for (u32 i = 0; i < (1u << 18); ++i) {
        index.emplace(keys[i], i);
    }
    volatile u64 sink = copy[keys.size() / 2] ^ index.size();
    (void)sink;
    return secondsSince(t0);
}

} // namespace

const Workload *
findWorkload(std::string_view name)
{
    for (const Workload &w : workloads()) {
        if (w.name == name) {
            return &w;
        }
    }
    return nullptr;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const Workload &w : workloads()) {
        names.push_back(w.name);
    }
    return names;
}

std::vector<f64>
SpanLog::seconds(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<f64> out;
    for (const Span &s : spans_) {
        if (s.name == name) {
            out.push_back(static_cast<f64>(s.dur_ns) * 1e-9);
        }
    }
    return out;
}

std::string
SpanLog::toChromeJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                      "\"pid\":0,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f}",
                      i == 0 ? "" : ",", s.name.c_str(),
                      static_cast<int>(s.name.find('.')), s.name.c_str(),
                      s.track, static_cast<f64>(s.start_ns - t0) * 1e-3,
                      static_cast<f64>(s.dur_ns) * 1e-3);
        out += buf;
    }
    out += "]}\n";
    return out;
}

f64
bestRound(const Rounds &rounds, f64 q)
{
    f64 best = std::numeric_limits<f64>::quiet_NaN();
    for (const std::vector<f64> &round : rounds) {
        const f64 v = quantile(round, q);
        if (!(v >= best)) {
            best = v;
        }
    }
    return best;
}

f64
median(std::vector<f64> v)
{
    return quantile(std::move(v), 0.5);
}

f64
quantile(std::vector<f64> v, f64 q)
{
    if (v.empty()) {
        return std::numeric_limits<f64>::quiet_NaN();
    }
    std::sort(v.begin(), v.end());
    const f64 pos = q * static_cast<f64>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<f64>(lo)) * (v[hi] - v[lo]);
}

void
runSetup(SetupResult &out, SpanLog &spans, Tally &tally)
{
    ++tally.attempted;
    auto model = llm::findModel(kModel);
    if (!model.isOk()) {
        tally.fail("model lookup: " + model.status().toString());
        return;
    }
    const f64 calib_before = calibrationSec();
    const std::int64_t t0 = nowNs();
    core::OfflineOptions oopts;
    oopts.model = *model;
    auto offline = core::materialize(oopts);
    const std::int64_t t1 = nowNs();
    spans.add("setup.materialize", t0, t1);
    if (!offline.isOk()) {
        tally.fail("materialize: " + offline.status().toString());
        return;
    }
    // The profile the cluster and serve studies run on, built the way
    // the program builds it.
    serverless::ProfileOptions popts;
    popts.model = *model;
    popts.strategy = llm::Strategy::kMedusa;
    popts.artifact = &offline->artifact;
    auto profile = serverless::buildServingProfile(popts);
    const std::int64_t t2 = nowNs();
    spans.add("setup.profile", t1, t2);
    if (!profile.isOk()) {
        tally.fail("profile: " + profile.status().toString());
        return;
    }
    out.setup_sec.push_back(static_cast<f64>(t2 - t0) * 1e-9);
    out.calib_sec.push_back(0.5 * (calib_before + calibrationSec()));
    if (out.image_bytes.empty()) {
        out.model = *model;
        out.image_bytes = std::move(offline->image_bytes);
        out.profile = std::move(*profile);
    } else if (out.image_bytes != offline->image_bytes ||
               !sameProfile(out.profile, *profile)) {
        // Materialization is deterministic: every repetition must emit
        // the same image and measure the same profile.
        tally.fail("set-up repetitions disagree");
    }
}

ColdstartStage::ColdstartStage(const SetupResult &setup, SpanLog &spans,
                               Tally &tally)
    : setup_(setup), spans_(spans), tally_(tally)
{
    // An untimed first restore: warms allocator and page cache, fixes
    // the reference state fingerprint, and checks decode fidelity.
    ++tally_.attempted;
    auto image = core::MaterializedImage::openView(
        std::span<const u8>(setup_.image_bytes));
    if (!image.isOk()) {
        tally_.fail("image open: " + image.status().toString());
        return;
    }
    core::MedusaEngine::Options opts;
    opts.model = setup_.model;
    auto engine = core::MedusaEngine::coldStartFromImage(opts, *image);
    if (!engine.isOk()) {
        tally_.fail("restore: " + engine.status().toString());
        return;
    }
    const ColdStartReport &report = (*engine)->coldStartReport();
    out_.virtual_loading_sec = report.times.loading;
    out_.relocations = report.restore.relocations_applied;
    out_.kernels_resolved = report.restore.kernels_resolved;
    reference_ = stateFingerprint((*engine)->runtime());
    for (u32 bs : {1u, 4u}) {
        const Status logits = checkLogits((*engine)->runtime(), bs);
        if (!logits.isOk()) {
            tally_.fail(logits.toString());
        }
    }
}

void
ColdstartStage::run(f64 budget_sec)
{
    const std::span<const u8> bytes(setup_.image_bytes);
    core::MedusaEngine::Options opts;
    opts.model = setup_.model;
    out_.restore_sec.emplace_back();
    const std::int64_t start = nowNs();
    bool first = true;
    do {
        ++tally_.attempted;
        const std::int64_t t0 = nowNs();
        auto image = core::MaterializedImage::openView(bytes);
        const std::int64_t t1 = nowNs();
        if (!image.isOk()) {
            tally_.fail("image open: " + image.status().toString());
            continue;
        }
        auto engine = core::MedusaEngine::coldStartFromImage(opts, *image);
        const std::int64_t t2 = nowNs();
        spans_.add("coldstart.open", t0, t1);
        spans_.add("coldstart.restore", t1, t2);
        if (!engine.isOk()) {
            tally_.fail("restore: " + engine.status().toString());
            continue;
        }
        // Every restore must patch exactly what the reference did; the
        // full state fingerprint (a few hundred ms) is checked on the
        // first restore of each call.
        const ColdStartReport &report = (*engine)->coldStartReport();
        if (report.outcome != ColdStartOutcome::kRestored ||
            report.restore.relocations_applied != out_.relocations ||
            report.restore.kernels_resolved != out_.kernels_resolved ||
            (first && stateFingerprint((*engine)->runtime()) != reference_)) {
            tally_.fail("restored state differs from the reference");
            continue;
        }
        first = false;
        out_.restore_sec.back().push_back(static_cast<f64>(t2 - t0) *
                                          1e-9);
    } while (secondsSince(start) < budget_sec);
}

ClusterStage::ClusterStage(const Workload &w, const SetupResult &setup,
                           u64 seed, Tally &tally)
    : tally_(tally)
{
    workload::TraceOptions topts = w.trace;
    topts.seed = seed;
    trace_ = workload::generateShareGptTrace(topts);
    options_.profile = &setup.profile;
    out_.requests = trace_.size();

    const serverless::TraceMetrics tm = simulate(options_);
    out_.ttft_p50_sec = tm.ttft_sec.p50();
    out_.ttft_p99_sec = tm.ttft_sec.p99();
    out_.ttft_p999_sec = tm.ttft_sec.percentile(99.9);
    out_.cold_starts = tm.metrics.counterValue("cluster.cold_starts");
    out_.sim_events = tm.sim_events;
    out_.gpu_seconds = tm.gpu_seconds;
}

serverless::TraceMetrics
ClusterStage::simulate(const serverless::ClusterOptions &opts)
{
    tally_.attempted += trace_.size();
    serverless::TraceMetrics tm = serverless::simulateCluster(opts, trace_);
    if (tm.completed != trace_.size()) {
        tally_.fail("cluster: only " + std::to_string(tm.completed) +
                        " of " + std::to_string(trace_.size()) +
                        " requests completed",
                    trace_.size() - std::min<u64>(tm.completed,
                                                  trace_.size()));
    }
    return tm;
}

void
ClusterStage::checkRepeat(const serverless::TraceMetrics &tm)
{
    // The simulation is deterministic: repeats must agree.
    if (tm.ttft_sec.p50() != out_.ttft_p50_sec ||
        tm.ttft_sec.percentile(99.9) != out_.ttft_p999_sec ||
        tm.metrics.counterValue("cluster.cold_starts") != out_.cold_starts) {
        tally_.fail("cluster: repeated simulation diverged");
    }
}

void
ClusterStage::run(f64 budget_sec)
{
    out_.sim_sec.emplace_back();
    const std::int64_t start = nowNs();
    do {
        const std::int64_t t0 = nowNs();
        const serverless::TraceMetrics tm = simulate(options_);
        out_.sim_sec.back().push_back(secondsSince(t0));
        checkRepeat(tm);
    } while (secondsSince(start) < budget_sec);
}

ClusterTrace
ClusterStage::traced()
{
    TraceRecorder recorder;
    MetricsRegistry registry;
    serverless::ClusterOptions opts = options_;
    opts.pipeline.trace = &recorder;
    opts.pipeline.metrics = &registry;
    checkRepeat(simulate(opts));

    ClusterTrace out;
    for (const TraceEvent &ev : recorder.events()) {
        const f64 sec = static_cast<f64>(ev.dur_ns) * 1e-9;
        if (ev.name == "request") {
            out.request_sec.push_back(sec);
        } else if (ev.name == "instance.launch") {
            out.launch_sec.push_back(sec);
        } else if (ev.name == "restore.attempt") {
            ++out.restore_attempts;
        }
    }
    out.cold_starts =
        registry.snapshot().counterValue("cluster.cold_starts");
    // The spans and the counters describe the same run.
    if (out.request_sec.size() != trace_.size() ||
        out.launch_sec.size() != out.cold_starts ||
        out.cold_starts != out_.cold_starts) {
        tally_.fail("cluster: spans disagree with the counters");
    }
    out.chrome_json = recorder.toChromeJson();
    return out;
}

} // namespace perfbench
