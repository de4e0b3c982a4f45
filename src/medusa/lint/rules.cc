/**
 * @file
 * The medusa-lint rule implementations; see lint.h for the rule-family
 * overview and DESIGN.md §9 for the mapping to paper failure modes.
 */

#include "medusa/lint/lint.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "medusa/analyze.h"
#include "medusa/lint/analysis.h"
#include "medusa/record.h"
#include "simcuda/kernel.h"

namespace medusa::core::lint {

namespace {

using detail::AllocLife;

std::string
opLoc(u64 pos)
{
    return "ops[" + std::to_string(pos) + "]";
}

std::string
graphLoc(u32 batch_size)
{
    return "graph[bs=" + std::to_string(batch_size) + "]";
}

std::string
paramLoc(u32 batch_size, u64 node, u64 param)
{
    return graphLoc(batch_size) + ".node[" + std::to_string(node) +
           "].param[" + std::to_string(param) + "]";
}

/** Runs the single-artifact rule families over one artifact. */
class ArtifactLinter
{
  public:
    ArtifactLinter(const Artifact &artifact, const LintOptions &options)
        : a_(artifact), opt_(options)
    {
    }

    LintReport
    run()
    {
        lives_ = detail::reconstructLifetimes(
            std::span<const AllocOp>(a_.ops.data(), a_.ops.size()));
        detail::checkAllocSequence(
            std::span<const AllocOp>(a_.ops.data(), a_.ops.size()),
            a_.organic_op_count, a_.organic_alloc_count,
            opt_.device_memory_bytes, "artifact", report_);
        checkIndirectCoverage();
        checkGraphTables();
        checkPermanentContents();
        checkFreeMemory();
        checkRaces();
        return std::move(report_);
    }

  private:
    void
    emit(const char *rule, Severity severity, std::string location,
         std::string message, std::string fix_hint)
    {
        report_.diagnostics.push_back(
            {rule, severity, std::move(location), std::move(message),
             std::move(fix_hint)});
    }

    // ---- MDL2xx: indirect-index coverage ------------------------------

    /**
     * The exact trace position of one node's captured launch when the
     * raw recorder trace is available, else -1.
     */
    i64
    exactLaunchPos(u32 batch_size, u64 node_count, u64 node) const
    {
        if (opt_.trace == nullptr) {
            return -1;
        }
        auto it = opt_.trace->graphLaunches().find(batch_size);
        if (it == opt_.trace->graphLaunches().end() ||
            it->second.size() != node_count) {
            return -1;
        }
        return static_cast<i64>(it->second[node].op_pos);
    }

    void
    checkIndirectCoverage()
    {
        for (const GraphBlueprint &g : a_.graphs) {
            // Without the raw trace, a graph's capture position is
            // bounded from below by the latest allocation event any of
            // its pointer parameters references: every referenced
            // buffer existed before the launch that referenced it.
            u64 launch_lower_bound = 0;
            for (const NodeBlueprint &n : g.nodes) {
                for (const ParamSpec &p : n.params) {
                    if (p.kind == ParamSpec::kIndirect &&
                        p.alloc_index < lives_.size()) {
                        launch_lower_bound =
                            std::max(launch_lower_bound,
                                     lives_[p.alloc_index].op_alloc);
                    }
                }
            }
            for (u64 ni = 0; ni < g.nodes.size(); ++ni) {
                const NodeBlueprint &n = g.nodes[ni];
                for (u64 pi = 0; pi < n.params.size(); ++pi) {
                    const ParamSpec &p = n.params[pi];
                    if (p.kind != ParamSpec::kIndirect) {
                        continue;
                    }
                    const std::string loc =
                        paramLoc(g.batch_size, ni, pi);
                    if (p.alloc_index >= lives_.size()) {
                        emit("MDL201", Severity::kError, loc,
                             "indirect index " +
                                 std::to_string(p.alloc_index) +
                                 " is beyond the " +
                                 std::to_string(lives_.size()) +
                                 "-allocation sequence",
                             "the replay table would have no address "
                             "for it; re-run the analysis stage");
                        continue;
                    }
                    const AllocLife &life = lives_[p.alloc_index];
                    if (p.offset >= life.logical) {
                        emit("MDL203", Severity::kError, loc,
                             "offset " + std::to_string(p.offset) +
                                 " is outside allocation " +
                                 std::to_string(p.alloc_index) +
                                 " of " +
                                 std::to_string(life.logical) +
                                 " bytes",
                             "an interior pointer must land inside "
                             "its buffer; the classification is "
                             "wrong");
                        continue;
                    }
                    // Liveness at the launch's trace position: exact
                    // when the recorder trace is available, else the
                    // per-graph inferred lower bound.
                    const i64 exact = exactLaunchPos(
                        g.batch_size, g.nodes.size(), ni);
                    const u64 launch_pos =
                        exact >= 0 ? static_cast<u64>(exact)
                                   : launch_lower_bound;
                    if (life.op_free >= 0 &&
                        static_cast<u64>(life.op_free) < launch_pos) {
                        emit("MDL202", Severity::kError, loc,
                             "stale pointer: allocation " +
                                 std::to_string(p.alloc_index) +
                                 " was freed at " +
                                 opLoc(static_cast<u64>(life.op_free)) +
                                 ", before the launch's trace "
                                 "position (" +
                                 (exact >= 0 ? "exactly "
                                             : "at least ") +
                                 std::to_string(launch_pos) +
                                 "); at replay its address belongs "
                                 "to a different buffer (Figure 6 "
                                 "data corruption)",
                             "re-run the analysis with "
                             "trace_based_matching=true");
                    }
                }
            }
        }
    }

    // ---- MDL3xx: kernel-name-table completeness + topology ------------

    void
    checkGraphTables()
    {
        std::set<u32> seen_batch_sizes;
        const simcuda::KernelRegistry &registry =
            simcuda::KernelRegistry::instance();
        for (const GraphBlueprint &g : a_.graphs) {
            if (!seen_batch_sizes.insert(g.batch_size).second) {
                emit("MDL304", Severity::kError, graphLoc(g.batch_size),
                     "duplicate blueprint for this batch size",
                     "the restore would instantiate one and shadow "
                     "the other; re-materialize the artifact");
            }
            for (const auto &e : g.edges) {
                if (e.first >= g.nodes.size() ||
                    e.second >= g.nodes.size()) {
                    emit("MDL303", Severity::kError,
                         graphLoc(g.batch_size) + ".edge[" +
                             std::to_string(e.first) + "->" +
                             std::to_string(e.second) + "]",
                         "edge endpoint is beyond the " +
                             std::to_string(g.nodes.size()) +
                             "-node blueprint",
                         "the rebuilt graph would be malformed; "
                         "re-materialize the artifact");
                }
            }
            if (!opt_.check_kernel_registry) {
                continue;
            }
            for (u64 ni = 0; ni < g.nodes.size(); ++ni) {
                const NodeBlueprint &n = g.nodes[ni];
                const std::string loc = graphLoc(g.batch_size) +
                                        ".node[" +
                                        std::to_string(ni) + "]";
                const simcuda::KernelId id =
                    registry.findByName(n.kernel_name);
                if (id == simcuda::kInvalidKernel) {
                    // The full symbol set — dlsym-visible AND hidden
                    // (enumeration-only) — does not contain the name.
                    const auto symbols = registry.symbolsInModule(
                        n.module_name, /*include_hidden=*/true);
                    emit("MDL301", Severity::kError, loc,
                         "kernel name \"" + n.kernel_name +
                             "\" is not in the module registry's "
                             "symbol set (module \"" +
                             n.module_name + "\" defines " +
                             std::to_string(symbols.size()) +
                             " symbols incl. hidden ones)",
                         "neither dlsym nor module enumeration could "
                         "restore its address; the name table entry "
                         "was dropped or mangled");
                    continue;
                }
                if (registry.def(id).module_name != n.module_name) {
                    const bool known_module =
                        registry.hasModule(n.module_name);
                    emit("MDL302", Severity::kError, loc,
                         "kernel \"" + n.kernel_name +
                             "\" is recorded in module \"" +
                             n.module_name +
                             (known_module
                                  ? "\" but the registry defines it "
                                    "in \"" +
                                        registry.def(id).module_name +
                                        "\""
                                  : "\" which is not a registered "
                                    "module at all"),
                         "dlsym against the recorded library would "
                         "fail; fix the name -> library mapping");
                }
            }
        }
    }

    // ---- MDL4xx: permanent-buffer content safety ----------------------

    void
    checkPermanentContents()
    {
        std::map<u64, const PermanentBuffer *> by_index;
        for (u64 bi = 0; bi < a_.permanent.size(); ++bi) {
            const PermanentBuffer &pb = a_.permanent[bi];
            const std::string loc =
                "permanent[" + std::to_string(bi) + "]";
            if (pb.alloc_index >= lives_.size()) {
                emit("MDL403", Severity::kError, loc,
                     "materialized contents for allocation index " +
                         std::to_string(pb.alloc_index) +
                         " which is beyond the sequence",
                     "the restore could not place these bytes; "
                     "re-materialize the artifact");
                continue;
            }
            const AllocLife &life = lives_[pb.alloc_index];
            if (life.op_free >= 0) {
                emit("MDL403", Severity::kError, loc,
                     "allocation " + std::to_string(pb.alloc_index) +
                         " is freed at " +
                         opLoc(static_cast<u64>(life.op_free)) +
                         " yet its contents are materialized as "
                         "permanent",
                     "restoring into a recycled address corrupts "
                     "whichever buffer owns it after replay");
            } else if (pb.contents.size() > life.backing) {
                emit("MDL403", Severity::kError, loc,
                     std::to_string(pb.contents.size()) +
                         " content bytes exceed the allocation's " +
                         std::to_string(life.backing) +
                         " backing bytes",
                     "the restore write would be rejected as out of "
                     "bounds");
            }
            if (!by_index.emplace(pb.alloc_index, &pb).second) {
                emit("MDL403", Severity::kError, loc,
                     "second materialization of allocation index " +
                         std::to_string(pb.alloc_index),
                     "duplicate permanent entries overwrite each "
                     "other; re-materialize the artifact");
            }
        }

        std::set<std::pair<u64, u64>> covered;
        for (u64 fi = 0; fi < a_.pointer_fixes.size(); ++fi) {
            const PointerWordFix &f = a_.pointer_fixes[fi];
            const std::string loc =
                "pointer_fixes[" + std::to_string(fi) + "]";
            auto host = by_index.find(f.buffer_alloc_index);
            if (host == by_index.end()) {
                emit("MDL402", Severity::kError, loc,
                     "fix targets allocation " +
                         std::to_string(f.buffer_alloc_index) +
                         " which has no materialized contents",
                     "a pointer word can only be rewritten inside a "
                     "permanent buffer");
                continue;
            }
            if (f.byte_offset + 8 > host->second->contents.size()) {
                emit("MDL402", Severity::kError, loc,
                     "fix word at offset " +
                         std::to_string(f.byte_offset) +
                         " overruns the " +
                         std::to_string(host->second->contents.size()) +
                         "-byte contents",
                     "the rewrite would write outside the restored "
                     "buffer");
                continue;
            }
            covered.insert({f.buffer_alloc_index, f.byte_offset});
            if (f.target_alloc_index >= lives_.size()) {
                emit("MDL402", Severity::kError, loc,
                     "fix points at allocation index " +
                         std::to_string(f.target_alloc_index) +
                         " beyond the sequence",
                     "the rewrite would have no replayed address to "
                     "install");
                continue;
            }
            const AllocLife &target = lives_[f.target_alloc_index];
            if (target.op_free >= 0) {
                emit("MDL402", Severity::kError, loc,
                     "fix points at allocation " +
                         std::to_string(f.target_alloc_index) +
                         " which is freed at " +
                         opLoc(static_cast<u64>(target.op_free)),
                     "the rewritten word would dangle after replay");
            } else if (f.target_offset >= target.logical) {
                emit("MDL402", Severity::kError, loc,
                     "fix target offset " +
                         std::to_string(f.target_offset) +
                         " is outside the " +
                         std::to_string(target.logical) +
                         "-byte target allocation",
                     "the rewritten word would point past its "
                     "buffer");
            }
        }

        // Pointer-shaped words with no covering fix dereference the
        // OFFLINE process's addresses after restoration — the base
        // paper's §8 limitation. Warning (not error): the word may be
        // coincidental data that nothing dereferences.
        for (const PermanentBuffer &pb : a_.permanent) {
            for (u64 off = 0; off + 8 <= pb.contents.size(); off += 8) {
                u64 word = 0;
                std::memcpy(&word, pb.contents.data() + off, 8);
                if (!looksLikeDevicePointer(word) ||
                    covered.count({pb.alloc_index, off}) != 0) {
                    continue;
                }
                std::ostringstream hex;
                hex << std::hex << word;
                emit("MDL401", Severity::kWarning,
                     "permanent[alloc=" +
                         std::to_string(pb.alloc_index) + "]+" +
                         std::to_string(off),
                     "pointer-shaped word 0x" + hex.str() +
                         " is not covered by any PointerWordFix and "
                         "would be restored verbatim (a stale "
                         "offline-process address)",
                     "re-run the analysis with "
                     "handle_indirect_pointers=true");
            }
        }
    }

    // ---- MDL5xx: free-memory-number consistency -----------------------

    void
    checkFreeMemory()
    {
        if (a_.free_gpu_memory > opt_.device_memory_bytes) {
            emit("MDL502", Severity::kError, "artifact",
                 "materialized free-memory figure " +
                     std::to_string(a_.free_gpu_memory) +
                     " exceeds the device capacity " +
                     std::to_string(opt_.device_memory_bytes),
                 "the KV-cache initialization would over-reserve; "
                 "check the device model");
            return;
        }
        // Replay the sequence's footprint in the allocator's size
        // classes. The profiling figure the artifact materializes is
        // capacity minus the live footprint at the profiling point, so
        // SOME prefix of the sequence must reproduce it exactly.
        const u64 granule = opt_.alloc_round_bytes > 0
                                ? opt_.alloc_round_bytes
                                : simcuda::CachingAllocator::kRoundBytes;
        auto round_up = [granule](u64 size) {
            return (size + granule - 1) / granule * granule;
        };
        std::vector<u64> rounded;
        u64 live = 0;
        u64 max_live = 0;
        bool reproducible = a_.free_gpu_memory ==
                            opt_.device_memory_bytes; // empty prefix
        for (const AllocOp &op : a_.ops) {
            if (op.kind == AllocOp::kAlloc) {
                rounded.push_back(round_up(op.logical_size));
                live += rounded.back();
            } else if (op.freed_alloc_index < rounded.size()) {
                live -= rounded[op.freed_alloc_index];
            }
            max_live = std::max(max_live, live);
            if (opt_.device_memory_bytes - live == a_.free_gpu_memory) {
                reproducible = true;
            }
        }
        if (max_live > opt_.device_memory_bytes) {
            emit("MDL502", Severity::kError, "artifact",
                 "the allocation sequence peaks at " +
                     std::to_string(max_live) +
                     " live bytes, beyond the device capacity " +
                     std::to_string(opt_.device_memory_bytes),
                 "the replay would hit out-of-memory; the artifact "
                 "belongs to a larger device");
            return;
        }
        if (!reproducible) {
            emit("MDL501", Severity::kError, "artifact",
                 "free-memory figure " +
                     std::to_string(a_.free_gpu_memory) +
                     " is not reproducible at any position of the "
                     "allocation sequence (capacity minus live "
                     "footprint never equals it)",
                 "the figure was patched or recorded against a "
                 "different sequence; re-profile (§6) and "
                 "re-materialize");
        }
    }

    // ---- MDL8xx: determinism / race analysis --------------------------

    void
    checkRaces()
    {
        const simcuda::KernelRegistry &registry =
            simcuda::KernelRegistry::instance();
        for (const GraphBlueprint &g : a_.graphs) {
            detail::RaceGraph rg;
            rg.batch_size = g.batch_size;
            rg.node_count = g.nodes.size();
            for (const auto &e : g.edges) {
                rg.edges.push_back({e.first, e.second});
            }
            rg.nodes.resize(g.nodes.size());
            for (u64 ni = 0; ni < g.nodes.size(); ++ni) {
                const NodeBlueprint &n = g.nodes[ni];
                detail::NodeAccess &node = rg.nodes[ni];
                node.kernel_name = n.kernel_name;
                if (!opt_.check_kernel_registry) {
                    continue; // unknown effects -> MDL804 territory
                }
                const simcuda::KernelId id =
                    registry.findByName(n.kernel_name);
                if (id == simcuda::kInvalidKernel) {
                    continue; // MDL301 already reported the name
                }
                const simcuda::KernelDef &def = registry.def(id);
                if (def.params.size() != n.params.size()) {
                    continue;
                }
                node.known = !def.access.empty();
                node.indirect = def.indirect_access;
                for (u64 pi = 0; pi < n.params.size(); ++pi) {
                    const ParamSpec &p = n.params[pi];
                    if (p.kind == ParamSpec::kIndirect &&
                        pi < def.access.size() &&
                        def.access[pi] != simcuda::ParamAccess::kNone) {
                        node.buffers.push_back(
                            {p.alloc_index, def.access[pi], pi});
                    }
                }
            }
            detail::checkGraphRaces(rg, graphLoc(g.batch_size),
                                    report_);
        }
        if (opt_.trace != nullptr) {
            detail::checkCaptureWindowAllocs(*opt_.trace, report_);
        }
    }

    const Artifact &a_;
    const LintOptions &opt_;
    std::vector<AllocLife> lives_;
    LintReport report_;
};

} // namespace

LintReport
lintArtifact(const Artifact &artifact, const LintOptions &options)
{
    return ArtifactLinter(artifact, options).run();
}

LintReport
lintTpArtifacts(const std::vector<Artifact> &rank_artifacts,
                const LintOptions &options)
{
    // Per-rank single-artifact rules, rank-prefixed. The per-launch
    // trace (if any) belongs to one rank only, so it is not forwarded.
    LintReport report;
    LintOptions rank_options = options;
    rank_options.trace = nullptr;
    std::vector<detail::RankShape> shapes;
    for (u64 r = 0; r < rank_artifacts.size(); ++r) {
        const Artifact &a = rank_artifacts[r];
        detail::mergeRankReport(r, lintArtifact(a, rank_options), report);
        detail::RankShape &shape = shapes.emplace_back();
        shape.model_name = a.model_name;
        shape.model_seed = a.model_seed;
        for (const GraphBlueprint &g : a.graphs) {
            detail::RankShape::Graph &sg = shape.graphs[g.batch_size];
            sg.node_count = g.nodes.size();
            sg.edges = g.edges;
            for (const NodeBlueprint &n : g.nodes) {
                if (n.module_name == options.collective_module) {
                    sg.collectives.push_back(n.kernel_name);
                }
            }
        }
    }
    detail::checkCrossRank(shapes, report);
    return report;
}

namespace detail {

void
checkAllocSequence(std::span<const AllocOp> ops, u64 organic_op_count,
                   u64 organic_alloc_count, u64 device_memory_bytes,
                   const std::string &owner, LintReport &report)
{
    auto emit = [&report](const char *rule, Severity severity,
                          std::string location, std::string message,
                          std::string fix_hint) {
        report.diagnostics.push_back({rule, severity, std::move(location),
                                      std::move(message),
                                      std::move(fix_hint)});
    };
    std::vector<bool> freed;
    u64 alloc_count = 0;
    for (u64 pos = 0; pos < ops.size(); ++pos) {
        const AllocOp &op = ops[pos];
        if (op.kind == AllocOp::kAlloc) {
            ++alloc_count;
            freed.push_back(false);
            if (op.logical_size == 0) {
                emit("MDL104", Severity::kError, opLoc(pos),
                     "allocation of zero logical bytes (the "
                     "allocator rejects it; replay would abort)",
                     "re-run the offline analysis; the recorded "
                     "sequence is corrupt");
            } else if (op.logical_size > device_memory_bytes) {
                emit("MDL104", Severity::kError, opLoc(pos),
                     "logical size " +
                         std::to_string(op.logical_size) +
                         " exceeds the device capacity " +
                         std::to_string(device_memory_bytes),
                     "check for a size-field overflow or a "
                     "wrong-device artifact");
            }
            if (op.backing_size > op.logical_size) {
                emit("MDL104", Severity::kError, opLoc(pos),
                     "backing size " +
                         std::to_string(op.backing_size) +
                         " exceeds the logical size " +
                         std::to_string(op.logical_size),
                     "backing bytes are a functional subset of the "
                     "accounted footprint; the op is corrupt");
            }
            continue;
        }
        // kFree.
        if (op.freed_alloc_index >= alloc_count) {
            emit("MDL102", Severity::kError, opLoc(pos),
                 "free of allocation index " +
                     std::to_string(op.freed_alloc_index) +
                     " which does not exist yet (only " +
                     std::to_string(alloc_count) +
                     " allocations precede this op)",
                 "the replay would have no address for this index; "
                 "re-materialize the " + owner);
            continue;
        }
        if (freed[op.freed_alloc_index]) {
            emit("MDL101", Severity::kError, opLoc(pos),
                 "double free of allocation index " +
                     std::to_string(op.freed_alloc_index),
                 "the replayed allocator would reject the second "
                 "free; re-materialize the " + owner);
            continue;
        }
        freed[op.freed_alloc_index] = true;
        if (pos >= organic_op_count &&
            op.freed_alloc_index < organic_alloc_count) {
            emit("MDL103", Severity::kWarning, opLoc(pos),
                 "replayed free of organic allocation index " +
                     std::to_string(op.freed_alloc_index) +
                     " (created by structure init, which still "
                     "references it)",
                 "verify the recorder's organic boundary; the "
                 "replay frees a buffer the runtime owns");
        }
    }
    if (organic_op_count > ops.size()) {
        emit("MDL105", Severity::kError, owner,
             "organic_op_count " + std::to_string(organic_op_count) +
                 " exceeds the op sequence length " +
                 std::to_string(ops.size()),
             "the replay boundary is out of range; "
             "re-materialize the " + owner);
    } else {
        u64 organic_allocs = 0;
        for (u64 pos = 0; pos < organic_op_count; ++pos) {
            if (ops[pos].kind == AllocOp::kAlloc) {
                ++organic_allocs;
            }
        }
        if (organic_allocs != organic_alloc_count) {
            emit("MDL105", Severity::kError, owner,
                 "organic_alloc_count " +
                     std::to_string(organic_alloc_count) +
                     " disagrees with the " +
                     std::to_string(organic_allocs) +
                     " alloc ops before the replay boundary",
                 "the online interceptor would mis-verify the "
                 "organic prefix; re-materialize the " + owner);
        }
    }
}

void
mergeRankReport(u64 r, LintReport rank, LintReport &report)
{
    for (Diagnostic &d : rank.diagnostics) {
        d.location = "rank[" + std::to_string(r) + "]." + d.location;
    }
    report.merge(std::move(rank));
}

void
checkCrossRank(const std::vector<RankShape> &ranks, LintReport &report)
{
    auto emit = [&report](const char *rule, std::string location,
                          std::string message, std::string hint) {
        report.diagnostics.push_back({rule, Severity::kError,
                                      std::move(location),
                                      std::move(message),
                                      std::move(hint)});
    };
    if (ranks.size() < 2) {
        return;
    }
    const RankShape &ref = ranks[0];
    for (u64 r = 1; r < ranks.size(); ++r) {
        const RankShape &a = ranks[r];
        const std::string rank_loc = "rank[" + std::to_string(r) + "]";
        if (a.model_name != ref.model_name ||
            a.model_seed != ref.model_seed) {
            emit("MDL601", rank_loc,
                 "artifact identity (" + a.model_name + ", seed " +
                     std::to_string(a.model_seed) +
                     ") diverges from rank 0 (" + ref.model_name +
                     ", seed " + std::to_string(ref.model_seed) + ")",
                 "all ranks must be materialized from one "
                 "capturing-stage run");
            continue;
        }
        if (a.graphs.size() != ref.graphs.size() ||
            !std::equal(a.graphs.begin(), a.graphs.end(),
                        ref.graphs.begin(),
                        [](const auto &x, const auto &y) {
                            return x.first == y.first;
                        })) {
            emit("MDL602", rank_loc,
                 "captured batch-size set diverges from rank 0 (" +
                     std::to_string(a.graphs.size()) + " vs " +
                     std::to_string(ref.graphs.size()) + " sizes)",
                 "a decode on a size one rank lacks would deadlock "
                 "the collective; re-capture all ranks together");
            continue;
        }
        for (const auto &[bs, g] : a.graphs) {
            const RankShape::Graph &rg = ref.graphs.at(bs);
            const std::string gloc = rank_loc + "." + graphLoc(bs);
            if (g.node_count != rg.node_count || g.edges != rg.edges) {
                emit("MDL603", gloc,
                     "graph topology diverges from rank 0 (" +
                         std::to_string(g.node_count) + " nodes, " +
                         std::to_string(g.edges.size()) +
                         " edges vs " + std::to_string(rg.node_count) +
                         "/" + std::to_string(rg.edges.size()) + ")",
                     "lockstep replay requires rank-identical "
                     "structure; re-capture all ranks together");
                continue;
            }
            if (g.collectives != rg.collectives) {
                emit("MDL604", gloc,
                     "collective-kernel ordering diverges from rank "
                     "0; lockstep replay would mismatch all-reduce "
                     "steps across ranks",
                     "the ranks were captured from different model "
                     "revisions; re-capture all ranks together");
            }
        }
    }
}

} // namespace detail

} // namespace medusa::core::lint
