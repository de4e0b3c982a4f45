/**
 * @file
 * MDL7xx: verification of the v6 relocation image, plus the
 * patch-coverage proof (lint.h family overview; DESIGN.md §14).
 *
 * The patch pass writes replayed addresses through the relocation
 * records with no per-record checks (that is what makes it fast). The
 * structural facts it indexes by are judged once, by
 * findStructuralDefects (image.h), which openView also runs; this file
 * reports each of its defects (MDL303/MDL701/MDL703/MDL707) and skips
 * the broken graphs and records. Replaying the allocation trace
 * symbolically, the lint-only rules then prove that
 *
 *  (a) every data relocation resolves a live allocation at its launch
 *      and lands inside it (MDL701 addends, MDL702),
 *  (b) no two relocations patch the same slot (MDL704),
 *  (c) every run-specific slot IS patched: a kernel-address slot or a
 *      pointer-typed parameter slot with no covering relocation would
 *      replay a capture-time address verbatim — the paper's Figure 6
 *      silent corruption, surfacing at the image layer (MDL705),
 *  (d) the kernel name table is in first-occurrence order, which is
 *      what keeps module-load order — and therefore ASLR draws and
 *      restore fingerprints — deterministic (MDL706).
 *
 * Every other family runs over the image too: MDL1xx over its op
 * sequence, MDL3xx over its kernel table and batch sizes, MDL4xx over
 * its permanent buffers and pointer fixes, MDL5xx over its free-memory
 * figure, and MDL8xx over its graphs, deriving per-node access sets
 * from the data relocations plus the registry's declared access sets.
 */

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "medusa/analyze.h"
#include "medusa/image.h"
#include "medusa/lint/analysis.h"
#include "medusa/lint/lint.h"
#include "medusa/record.h"
#include "simcuda/caching_allocator.h"
#include "simcuda/kernel.h"
#include "simcuda/kernels/builtin.h"
#include "simcuda/memory.h"

namespace medusa::core::lint {

namespace {

std::string
hexValue(u64 v)
{
    std::ostringstream out;
    out << "0x" << std::hex << v;
    return out.str();
}

/** Runs the image rule families over one decoded image. */
class ImageLinter
{
  public:
    ImageLinter(const MaterializedImage &img, const LintOptions &options)
        : img_(img), opt_(options)
    {
    }

    LintReport
    run()
    {
        const std::span<const AllocOp> ops(img_.ops.data(), img_.ops.size());
        lives_ = detail::reconstructLifetimes(ops);
        detail::checkAllocSequence(ops, img_.organic_op_count,
                                   img_.organic_alloc_count,
                                   opt_.device_memory_bytes, report_);
        checkBatchSizes();
        checkStructure();
        checkPermanentContents();
        checkFreeMemory();
        mapSlots();
        checkKernelRelocs();
        resolveNodeKernels();
        checkDataRelocs();
        checkDuplicateCoverage();
        checkCoverage();
        checkKernelTableOrder();
        checkTrailingPayload();
        checkRaces();
        if (opt_.trace != nullptr) {
            detail::checkCaptureWindowAllocs(*opt_.trace, report_);
        }
        return std::move(report_);
    }

    /**
     * After run(): the kernel-table index node @p ni of graph @p gi
     * relocates to, or kInvalidKernel when no sound relocation does.
     */
    simcuda::KernelId
    nodeKernel(u32 gi, u32 ni) const
    {
        return node_kernel_[gi][ni];
    }

  private:
    /** What one patch-template slot is, per the graph slot layout. */
    struct SlotInfo
    {
        enum Kind : u8 {
            kUnmapped = 0, ///< in no node's param slice (the graph's
                           ///< param ramp is broken, MDL707)
            kFn,           ///< a node's kernel-address slot
            kParam,        ///< a node's parameter-value slot
        };
        Kind kind = kUnmapped;
        u32 graph = 0;
        u32 node = 0;
        u32 param = 0; ///< local parameter index within the node
        u8 len = 0;    ///< parameter byte width (kParam only)
    };

    void
    emit(const char *rule, Severity severity, std::string location,
         std::string message, std::string fix_hint)
    {
        report_.diagnostics.push_back(
            {rule, severity, std::move(location), std::move(message),
             std::move(fix_hint)});
    }

    std::string
    graphLoc(u32 gi) const
    {
        return "graph[bs=" +
               std::to_string(img_.graphs[gi].batch_size) + "]";
    }

    std::string
    slotLoc(u64 slot) const
    {
        if (slots_[slot].kind == SlotInfo::kUnmapped) {
            return "template.slot[" + std::to_string(slot) + "]";
        }
        const SlotInfo &s = slots_[slot];
        std::string loc = graphLoc(s.graph) + ".node[" +
                          std::to_string(s.node) + "]";
        if (s.kind == SlotInfo::kParam) {
            loc += ".param[" + std::to_string(s.param) + "]";
        }
        return loc;
    }

    // ---- MDL304: one graph per batch size ------------------------------

    void
    checkBatchSizes()
    {
        std::set<u32> seen_batch_sizes;
        for (u32 gi = 0; gi < img_.graphs.size(); ++gi) {
            if (!seen_batch_sizes.insert(img_.graphs[gi].batch_size).second) {
                emit("MDL304", Severity::kError, graphLoc(gi),
                     "duplicate graph for this batch size",
                     "the restore would instantiate one and shadow "
                     "the other; re-emit the image");
            }
        }
    }

    // ---- MDL303/MDL701/MDL703/MDL707: the structural defects ----------

    /**
     * Report each structural defect openView refuses, and remember the
     * broken graphs and records so the later rules skip them instead
     * of indexing through them.
     */
    void
    checkStructure()
    {
        for (const StructuralDefect &d : findStructuralDefects(img_)) {
            broken_.insert({d.kind, d.index});
            emit(d.rule(), Severity::kError, d.location(img_), d.message(),
                 "openView refuses the image at restore; re-emit the "
                 "image");
        }
    }

    /** True when findStructuralDefects reported @p kind at @p index. */
    bool
    broken(StructuralDefect::Kind kind, u64 index) const
    {
        return broken_.count({kind, index}) != 0;
    }

    // ---- MDL4xx: permanent-buffer content safety ----------------------

    void
    checkPermanentContents()
    {
        std::map<u64, const MaterializedImage::PermanentView *> by_index;
        for (u64 bi = 0; bi < img_.permanent.size(); ++bi) {
            const MaterializedImage::PermanentView &pb = img_.permanent[bi];
            const std::string loc =
                "permanent[" + std::to_string(bi) + "]";
            if (pb.alloc_index >= lives_.size()) {
                emit("MDL403", Severity::kError, loc,
                     "materialized contents for allocation index " +
                         std::to_string(pb.alloc_index) +
                         " which is beyond the sequence",
                     "the restore could not place these bytes; "
                     "re-emit the image");
                continue;
            }
            const detail::AllocLife &life = lives_[pb.alloc_index];
            if (life.op_free >= 0) {
                emit("MDL403", Severity::kError, loc,
                     "allocation " + std::to_string(pb.alloc_index) +
                         " is freed at ops[" +
                         std::to_string(life.op_free) +
                         "] yet its contents are materialized as "
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
                     "other; re-emit the image");
            }
        }

        std::set<std::pair<u64, u64>> covered;
        for (u64 fi = 0; fi < img_.pointer_fixes.size(); ++fi) {
            const PointerWordFix &f = img_.pointer_fixes[fi];
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
                         std::to_string(f.byte_offset) + " overruns the " +
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
            const detail::AllocLife &target = lives_[f.target_alloc_index];
            if (target.op_free >= 0) {
                emit("MDL402", Severity::kError, loc,
                     "fix points at allocation " +
                         std::to_string(f.target_alloc_index) +
                         " which is freed at ops[" +
                         std::to_string(target.op_free) + "]",
                     "the rewritten word would dangle after replay");
            } else if (f.target_offset >= target.logical) {
                emit("MDL402", Severity::kError, loc,
                     "fix target offset " +
                         std::to_string(f.target_offset) +
                         " is outside the " +
                         std::to_string(target.logical) +
                         "-byte target allocation",
                     "the rewritten word would point past its buffer");
            }
        }

        // Pointer-shaped words with no covering fix dereference the
        // OFFLINE process's addresses after restoration — the base
        // paper's §8 limitation. Warning (not error): the word may be
        // coincidental data that nothing dereferences.
        for (const MaterializedImage::PermanentView &pb : img_.permanent) {
            for (u64 off = 0; off + 8 <= pb.contents.size(); off += 8) {
                u64 word = 0;
                std::memcpy(&word, pb.contents.data() + off, 8);
                if (!looksLikeDevicePointer(word) ||
                    covered.count({pb.alloc_index, off}) != 0) {
                    continue;
                }
                emit("MDL401", Severity::kWarning,
                     "permanent[alloc=" + std::to_string(pb.alloc_index) +
                         "]+" + std::to_string(off),
                     "pointer-shaped word " + hexValue(word) +
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
        const u64 capacity = opt_.device_memory_bytes;
        if (img_.free_gpu_memory > capacity) {
            emit("MDL502", Severity::kError, "image",
                 "materialized free-memory figure " +
                     std::to_string(img_.free_gpu_memory) +
                     " exceeds the device capacity " +
                     std::to_string(capacity),
                 "the KV-cache initialization would over-reserve; "
                 "check the device model");
            return;
        }
        // Replay the sequence's footprint in the allocator's size
        // classes. The profiling figure the image materializes is
        // capacity minus the live footprint at the profiling point, so
        // SOME prefix of the sequence must reproduce it exactly.
        const u64 granule = simcuda::CachingAllocator::kRoundBytes;
        std::vector<u64> rounded;
        u64 live = 0;
        u64 max_live = 0;
        bool reproducible = img_.free_gpu_memory == capacity; // empty
        for (const AllocOp &op : img_.ops) {
            if (op.kind == AllocOp::kAlloc) {
                rounded.push_back((op.logical_size + granule - 1) /
                                  granule * granule);
                live += rounded.back();
            } else if (op.freed_alloc_index < rounded.size()) {
                live -= rounded[op.freed_alloc_index];
            }
            max_live = std::max(max_live, live);
            reproducible =
                reproducible || capacity - live == img_.free_gpu_memory;
        }
        if (max_live > capacity) {
            emit("MDL502", Severity::kError, "image",
                 "the allocation sequence peaks at " +
                     std::to_string(max_live) +
                     " live bytes, beyond the device capacity " +
                     std::to_string(capacity),
                 "the replay would hit out-of-memory; the image "
                 "belongs to a larger device");
            return;
        }
        if (!reproducible) {
            emit("MDL501", Severity::kError, "image",
                 "free-memory figure " +
                     std::to_string(img_.free_gpu_memory) +
                     " is not reproducible at any position of the "
                     "allocation sequence (capacity minus live "
                     "footprint never equals it)",
                 "the figure was patched or recorded against a "
                 "different sequence; re-profile (§6) and "
                 "re-materialize");
        }
    }

    /**
     * Classify every template slot as a kernel-address or parameter
     * slot of some (graph, node) per the per-graph slot layout.
     */
    void
    mapSlots()
    {
        slots_.resize(img_.patch_template.size());
        node_kernel_.resize(img_.graphs.size());
        node_def_.resize(img_.graphs.size());
        for (u32 gi = 0; gi < img_.graphs.size(); ++gi) {
            const MaterializedImage::GraphView &gv = img_.graphs[gi];
            node_kernel_[gi].assign(gv.node_count,
                                    simcuda::kInvalidKernel);
            node_def_[gi].assign(gv.node_count, -1);
            // Decode checked the slot layout: every graph's slots are
            // inside the template.
            for (u32 ni = 0; ni < gv.node_count; ++ni) {
                slots_[gv.fn_slot_begin + ni] = {SlotInfo::kFn, gi, ni, 0, 0};
            }
            // A broken param ramp (MDL707) slices no node's params.
            if (broken(StructuralDefect::kParamRamp, gi)) {
                continue;
            }
            for (u32 ni = 0; ni < gv.node_count; ++ni) {
                for (u32 pi = gv.param_begin[ni];
                     pi < gv.param_begin[ni + 1]; ++pi) {
                    slots_[gv.param_slot_begin + pi] = {
                        SlotInfo::kParam, gi, ni, pi - gv.param_begin[ni],
                        gv.param_len[pi]};
                }
            }
        }
        cover_.assign(slots_.size(), 0);
    }

    // ---- MDL707: kernel relocations patch kernel-address slots --------

    void
    checkKernelRelocs()
    {
        for (u64 ri = 0; ri < img_.kernel_relocs.size(); ++ri) {
            const MaterializedImage::KernelReloc &kr =
                img_.kernel_relocs[ri];
            if (broken(StructuralDefect::kKernelRelocSlot, ri)) {
                continue;
            }
            ++cover_[kr.slot];
            if (broken(StructuralDefect::kKernelIndex, ri)) {
                continue;
            }
            const SlotInfo &s = slots_[kr.slot];
            if (s.kind != SlotInfo::kFn) {
                emit("MDL707", Severity::kError,
                     "kernel_relocs[" + std::to_string(ri) + "]",
                     "kernel relocation patches " + slotLoc(kr.slot) +
                         " which is not a kernel-address slot",
                     "a kernel address written into a parameter slot "
                     "leaks a function pointer into kernel arguments; "
                     "re-emit the image");
                continue;
            }
            auto &cell = node_kernel_[s.graph][s.node];
            if (cell == simcuda::kInvalidKernel) {
                cell = static_cast<simcuda::KernelId>(kr.kernel_index);
            }
        }
    }

    /**
     * Resolve each node's kernel-table entry against the registry so
     * the coverage proof (MDL705) and the race rules know parameter
     * types and access sets. node_def_[g][n] stays -1 when unresolved.
     */
    void
    resolveNodeKernels()
    {
        if (!opt_.check_kernel_registry) {
            return;
        }
        const simcuda::KernelRegistry &registry =
            simcuda::KernelRegistry::instance();
        for (u32 gi = 0; gi < img_.graphs.size(); ++gi) {
            const MaterializedImage::GraphView &gv = img_.graphs[gi];
            for (u32 ni = 0; ni < gv.node_count; ++ni) {
                const simcuda::KernelId table_index =
                    node_kernel_[gi][ni];
                if (table_index == simcuda::kInvalidKernel) {
                    continue;
                }
                const MaterializedImage::KernelEntry &entry =
                    img_.kernel_table[table_index];
                const std::string loc = graphLoc(gi) + ".node[" +
                                        std::to_string(ni) + "]";
                const simcuda::KernelId id =
                    registry.findByName(entry.name);
                if (id == simcuda::kInvalidKernel) {
                    emit("MDL301", Severity::kError, loc,
                         "kernel name \"" + entry.name +
                             "\" is not in the module registry's "
                             "symbol set",
                         "the online resolver could not restore its "
                         "address; the kernel table is corrupt");
                    continue;
                }
                const simcuda::KernelDef &def = registry.def(id);
                if (def.module_name != entry.module) {
                    emit("MDL302", Severity::kError, loc,
                         "kernel \"" + entry.name +
                             "\" is recorded in module \"" +
                             entry.module +
                             "\" but the registry defines it in \"" +
                             def.module_name + "\"",
                         "dlsym against the recorded library would "
                         "fail; fix the name -> library mapping");
                    continue;
                }
                if (broken(StructuralDefect::kParamRamp, gi)) {
                    continue; // no param slice to type (MDL707)
                }
                const u32 param_count =
                    gv.param_begin[ni + 1] - gv.param_begin[ni];
                if (def.params.size() != param_count) {
                    emit("MDL707", Severity::kError, loc,
                         "node has " + std::to_string(param_count) +
                             " parameter slots but kernel \"" +
                             entry.name + "\" takes " +
                             std::to_string(def.params.size()),
                         "instantiation would decode the wrong "
                         "argument layout; re-emit the image");
                    continue;
                }
                node_def_[gi][ni] = static_cast<i64>(id);
            }
        }
    }

    // ---- MDL701 addends, MDL702, MDL707 data-slot domain, MDL709 -------

    /**
     * The exact trace position of node @p node's captured launch in
     * graph @p gi when the raw recorder trace is available, else -1.
     */
    i64
    exactLaunchPos(u32 gi, u32 node) const
    {
        if (opt_.trace == nullptr) {
            return -1;
        }
        const MaterializedImage::GraphView &gv = img_.graphs[gi];
        auto it = opt_.trace->graphLaunches().find(gv.batch_size);
        if (it == opt_.trace->graphLaunches().end() ||
            it->second.size() != gv.node_count) {
            return -1;
        }
        return static_cast<i64>(it->second[node].op_pos);
    }

    void
    checkDataRelocs()
    {
        const simcuda::KernelRegistry &registry =
            simcuda::KernelRegistry::instance();
        // Without the raw trace, a graph's launch position is bounded
        // from below: every buffer a graph references existed before
        // the capture position of the launch that referenced it, so the
        // latest referenced-allocation birth bounds every launch. A
        // target freed AFTER that point was live at capture and replays
        // to the same deterministic address; only a free BEFORE it
        // proves the relocation resolves recycled memory.
        std::vector<u64> launch_lb(img_.graphs.size(), 0);
        for (u64 ri = 0; ri < img_.data_relocs.size(); ++ri) {
            const MaterializedImage::DataReloc &dr = img_.data_relocs[ri];
            if (broken(StructuralDefect::kDataRelocSlot, ri) ||
                broken(StructuralDefect::kDataRelocAlloc, ri)) {
                continue;
            }
            const SlotInfo &s = slots_[dr.slot];
            if (s.kind == SlotInfo::kParam) {
                launch_lb[s.graph] =
                    std::max(launch_lb[s.graph],
                             lives_[dr.alloc_index].op_alloc);
            }
        }
        for (u64 ri = 0; ri < img_.data_relocs.size(); ++ri) {
            const MaterializedImage::DataReloc &dr = img_.data_relocs[ri];
            const std::string loc =
                "data_relocs[" + std::to_string(ri) + "]";
            if (broken(StructuralDefect::kDataRelocSlot, ri)) {
                continue;
            }
            ++cover_[dr.slot];
            const SlotInfo &s = slots_[dr.slot];
            if (s.kind == SlotInfo::kFn) {
                emit("MDL707", Severity::kError, loc,
                     "data relocation patches " + slotLoc(dr.slot) +
                         " which is a kernel-address slot",
                     "a buffer address in a kernel-address slot makes "
                     "instantiation jump into data; re-emit the "
                     "image");
            } else if (s.kind == SlotInfo::kParam && s.len != 8) {
                emit("MDL707", Severity::kError, loc,
                     "data relocation patches " + slotLoc(dr.slot) +
                         " which is a " + std::to_string(s.len) +
                         "-byte parameter, not an 8-byte pointer",
                     "the patched pointer would be truncated at "
                     "instantiation; re-emit the image");
            } else if (s.kind == SlotInfo::kParam &&
                       node_def_[s.graph][s.node] >= 0) {
                const simcuda::KernelDef &def = registry.def(
                    static_cast<simcuda::KernelId>(
                        node_def_[s.graph][s.node]));
                if (def.params[s.param] != simcuda::ParamKind::kPointer) {
                    emit("MDL707", Severity::kError, loc,
                         "data relocation patches " + slotLoc(dr.slot) +
                             " but the kernel declares that parameter "
                             "as a non-pointer constant",
                         "a replayed address where the kernel expects "
                         "a scalar corrupts the launch; re-run the "
                         "pointer classification");
                }
            }
            if (broken(StructuralDefect::kDataRelocAlloc, ri)) {
                continue;
            }
            const detail::AllocLife &life = lives_[dr.alloc_index];
            // Liveness at the launch's trace position: exact when the
            // recorder trace is available, else the per-graph bound.
            const i64 exact = s.kind == SlotInfo::kParam
                                  ? exactLaunchPos(s.graph, s.node)
                                  : -1;
            const u64 launch_pos = exact >= 0 ? static_cast<u64>(exact)
                                              : launch_lb[s.graph];
            const bool stale =
                life.op_free >= 0 && s.kind == SlotInfo::kParam &&
                static_cast<u64>(life.op_free) < launch_pos;
            if (stale) {
                emit("MDL702", Severity::kError, loc,
                     "relocation resolves against allocation " +
                         std::to_string(dr.alloc_index) +
                         " which the replay frees at ops[" +
                         std::to_string(life.op_free) +
                         "], before the launch's capture position (" +
                         (exact >= 0 ? "exactly" : "at least") +
                         " ops[" + std::to_string(launch_pos) +
                         "]); at patch time its address belongs to "
                         "whichever buffer recycled it (Figure 6 "
                         "data corruption)",
                     "re-run the analysis with "
                     "trace_based_matching=true and re-emit the "
                     "image");
            } else if (dr.addend >= life.logical) {
                emit("MDL701", Severity::kError, loc,
                     "addend " + std::to_string(dr.addend) +
                         " is outside allocation " +
                         std::to_string(dr.alloc_index) + "'s " +
                         std::to_string(life.logical) +
                         " logical bytes",
                     "an interior pointer must land inside its "
                     "buffer; the classification is wrong");
            } else if (dr.addend % 4 != 0) {
                emit("MDL709", Severity::kWarning, loc,
                     "addend " + std::to_string(dr.addend) +
                         " is not 4-byte aligned; no captured tensor "
                         "pointer is misaligned, so this relocation "
                         "is suspect",
                     "check the pointer classification that produced "
                     "the interior offset");
            }
        }
    }

    // ---- MDL704: duplicate / overlapping patch targets ----------------

    void
    checkDuplicateCoverage()
    {
        for (u64 slot = 0; slot < cover_.size(); ++slot) {
            if (cover_[slot] > 1) {
                emit("MDL704", Severity::kError, slotLoc(slot),
                     std::to_string(cover_[slot]) +
                         " relocations patch this slot; the last "
                         "writer wins and the others are silently "
                         "discarded",
                     "every run-specific slot must have exactly one "
                     "relocation; re-emit the image");
            }
        }
    }

    // ---- MDL705: the patch-coverage proof -----------------------------

    void
    checkCoverage()
    {
        const simcuda::KernelRegistry &registry =
            simcuda::KernelRegistry::instance();
        const u64 window_begin =
            simcuda::DeviceMemoryManager::kAddrBase +
            static_cast<u64>(opt_.device_index) *
                simcuda::DeviceMemoryManager::kDeviceSlotBytes;
        const u64 window_end =
            window_begin +
            simcuda::DeviceMemoryManager::kDeviceSlotBytes;
        for (u64 slot = 0; slot < slots_.size(); ++slot) {
            if (cover_[slot] != 0) {
                continue;
            }
            const SlotInfo &s = slots_[slot];
            const u64 value = img_.patch_template[slot];
            if (s.kind == SlotInfo::kFn) {
                emit("MDL705", Severity::kError, slotLoc(slot),
                     "kernel-address slot is not covered by any "
                     "kernel relocation; instantiation would jump to "
                     "the capture-time address " + hexValue(value),
                     "every node needs exactly one kernel "
                     "relocation; re-emit the image");
                continue;
            }
            if (s.kind != SlotInfo::kParam) {
                continue;
            }
            // A registry-typed parameter (resolveNodeKernels matched
            // the node's param count to the signature). A pointer with
            // no covering relocation replays whatever the template
            // holds; a constant must have the declared width.
            const i64 def_id = node_def_[s.graph][s.node];
            if (def_id >= 0) {
                const simcuda::ParamKind kind =
                    registry.def(static_cast<simcuda::KernelId>(def_id))
                        .params[s.param];
                if (kind == simcuda::ParamKind::kPointer) {
                    if (value == 0) {
                        emit("MDL705", Severity::kWarning,
                             slotLoc(slot),
                             "pointer parameter is not covered by a "
                             "data relocation; the prefilled null "
                             "would fault loudly rather than corrupt "
                             "silently, but the classification "
                             "dropped a pointer",
                             "re-run the pointer classification and "
                             "re-emit the image");
                    } else {
                        emit("MDL705", Severity::kError, slotLoc(slot),
                             "pointer parameter is not covered by a "
                             "data relocation; replay would "
                             "dereference the capture-time address " +
                                 hexValue(value) +
                                 " verbatim (Figure 6 silent "
                                 "corruption)",
                             "re-run the pointer classification and "
                             "re-emit the image");
                    }
                    continue;
                }
                if (s.len != simcuda::paramKindSize(kind)) {
                    emit("MDL707", Severity::kError, slotLoc(slot),
                         "prefilled constant is " +
                             std::to_string(s.len) +
                             " bytes but the kernel declares a " +
                             std::to_string(simcuda::paramKindSize(kind)) +
                             "-byte parameter",
                         "instantiation would decode the wrong "
                         "width; re-emit the image");
                    continue;
                }
            }
            // An 8-byte constant, typed or not, that lands inside the
            // capture device's VA window is a capture-time pointer
            // frozen into the template. Stream tags are scalars by
            // shape; on device 2 they fall inside the window.
            if (s.len == 8 && value >= window_begin && value < window_end &&
                value >> 32 != simcuda::kStreamTagPrefix >> 32) {
                emit("MDL705", Severity::kError, slotLoc(slot),
                     "uncovered 8-byte constant " + hexValue(value) +
                         " falls inside device " +
                         std::to_string(opt_.device_index) +
                         "'s address window [" + hexValue(window_begin) +
                         ", " + hexValue(window_end) +
                         "); a capture-time pointer escaped the "
                         "relocation table (Figure 6 silent "
                         "corruption)",
                     "re-run the pointer classification and re-emit "
                     "the image");
            }
        }
    }

    // ---- MDL706: first-occurrence kernel-table ordering ---------------

    void
    checkKernelTableOrder()
    {
        // Walk references in graph order, node order — the order the
        // emitter assigns table entries. Each NEW index must be the
        // next unseen one; anything else changes module-load order at
        // restore and desynchronizes ASLR draws from the rebuild path.
        std::set<u64> seen;
        u64 next_new = 0;
        bool order_ok = true;
        for (u32 gi = 0; gi < img_.graphs.size(); ++gi) {
            const MaterializedImage::GraphView &gv = img_.graphs[gi];
            for (u32 ni = 0; ni < gv.node_count; ++ni) {
                const simcuda::KernelId ki = node_kernel_[gi][ni];
                if (ki == simcuda::kInvalidKernel ||
                    !seen.insert(ki).second) {
                    continue;
                }
                if (order_ok && ki != next_new) {
                    order_ok = false;
                    emit("MDL706", Severity::kError,
                         graphLoc(gi) + ".node[" + std::to_string(ni) +
                             "]",
                         "first reference to kernel-table entry " +
                             std::to_string(ki) + " (\"" +
                             img_.kernel_table[ki].name +
                             "\") arrives when entry " +
                             std::to_string(next_new) +
                             " is still unreferenced; the table is "
                             "not in first-occurrence order, so "
                             "restore would load modules in a "
                             "different order than the rebuild path "
                             "and desynchronize ASLR draws",
                         "re-emit the image; the kernel table was "
                         "reordered after emission");
                }
                ++next_new;
            }
        }
        for (u64 ki = 0; ki < img_.kernel_table.size(); ++ki) {
            if (seen.count(ki) == 0) {
                emit("MDL706", Severity::kWarning,
                     "kernel_table[" + std::to_string(ki) + "]",
                     "entry \"" + img_.kernel_table[ki].name +
                         "\" is referenced by no kernel relocation; "
                         "restore resolves (and possibly loads a "
                         "module for) a kernel nothing uses",
                     "re-emit the image to drop the dead entry");
            }
        }
    }

    // ---- MDL708: CRC-covered but semantically dead bytes --------------

    void
    checkTrailingPayload()
    {
        const u64 payload =
            img_.serialized_size - MaterializedImage::kHeaderBytes;
        if (img_.payload_decoded_bytes < payload) {
            emit("MDL708", Severity::kWarning, "image",
                 std::to_string(payload - img_.payload_decoded_bytes) +
                     " trailing payload bytes are CRC-covered but "
                     "never decoded; they hide data from every "
                     "structural check in this report",
                 "re-emit the image; trailing bytes usually mean a "
                 "truncated or version-skewed writer");
        }
    }

    // ---- MDL8xx over the image's graphs -------------------------------

    void
    checkRaces()
    {
        const simcuda::KernelRegistry &registry =
            simcuda::KernelRegistry::instance();
        // Per-slot data-reloc targets, for access-set extraction.
        std::map<u64, u64> alloc_by_slot;
        for (const MaterializedImage::DataReloc &dr : img_.data_relocs) {
            alloc_by_slot.emplace(dr.slot, dr.alloc_index);
        }
        for (u32 gi = 0; gi < img_.graphs.size(); ++gi) {
            // A graph whose topology is corrupt (MDL303) has no
            // trustworthy happens-before relation to judge races by.
            if (broken(StructuralDefect::kEdge, gi) ||
                broken(StructuralDefect::kOrder, gi)) {
                continue;
            }
            const MaterializedImage::GraphView &gv = img_.graphs[gi];
            detail::RaceGraph rg;
            rg.batch_size = gv.batch_size;
            rg.node_count = gv.node_count;
            rg.edges.assign(gv.edges.begin(), gv.edges.end());
            rg.nodes.resize(gv.node_count);
            for (u32 ni = 0; ni < gv.node_count; ++ni) {
                detail::NodeAccess &node = rg.nodes[ni];
                const simcuda::KernelId table_index =
                    node_kernel_[gi][ni];
                node.kernel_name =
                    table_index != simcuda::kInvalidKernel
                        ? img_.kernel_table[table_index].name
                        : "<unresolved>";
                const i64 def_id = node_def_[gi][ni];
                if (def_id < 0) {
                    continue; // unknown effects -> MDL804 territory
                }
                const simcuda::KernelDef &def =
                    registry.def(static_cast<simcuda::KernelId>(def_id));
                node.known = !def.access.empty();
                node.indirect = def.indirect_access;
                for (u32 pi = gv.param_begin[ni];
                     pi < gv.param_begin[ni + 1]; ++pi) {
                    auto it = alloc_by_slot.find(gv.param_slot_begin + pi);
                    if (it == alloc_by_slot.end()) {
                        continue;
                    }
                    const u32 local = pi - gv.param_begin[ni];
                    if (local < def.access.size() &&
                        def.access[local] !=
                            simcuda::ParamAccess::kNone) {
                        node.buffers.push_back(
                            {it->second, def.access[local], local});
                    }
                }
            }
            detail::checkGraphRaces(rg, graphLoc(gi), report_);
        }
    }

    const MaterializedImage &img_;
    const LintOptions &opt_;
    std::vector<detail::AllocLife> lives_;
    /** (kind, graph or record) of every structural defect. */
    std::set<std::pair<StructuralDefect::Kind, u64>> broken_;
    std::vector<SlotInfo> slots_;
    /** Relocations covering each slot (the coverage-proof counter). */
    std::vector<u32> cover_;
    /** Per (graph, node): kernel-TABLE index from its kernel reloc. */
    std::vector<std::vector<simcuda::KernelId>> node_kernel_;
    /** Per (graph, node): resolved registry KernelId, or -1. */
    std::vector<std::vector<i64>> node_def_;
    LintReport report_;
};

} // namespace

LintReport
lintImage(const MaterializedImage &image, const LintOptions &options)
{
    return ImageLinter(image, options).run();
}

LintReport
lintTpImages(const std::vector<MaterializedImage> &rank_images,
             const LintOptions &options)
{
    // Per-rank image rules, rank-prefixed; the per-launch trace (if
    // any) belongs to one rank only, so it is not forwarded.
    LintReport report;
    LintOptions rank_options = options;
    rank_options.trace = nullptr;
    std::vector<detail::RankShape> shapes;
    for (u64 r = 0; r < rank_images.size(); ++r) {
        const MaterializedImage &img = rank_images[r];
        rank_options.device_index = static_cast<u32>(r);
        ImageLinter linter(img, rank_options);
        detail::mergeRankReport(r, linter.run(), report);
        detail::RankShape &shape = shapes.emplace_back();
        shape.model_name = img.model_name;
        shape.model_seed = img.model_seed;
        for (u32 gi = 0; gi < img.graphs.size(); ++gi) {
            const MaterializedImage::GraphView &g = img.graphs[gi];
            detail::RankShape::Graph &sg = shape.graphs[g.batch_size];
            sg.node_count = g.node_count;
            for (const simcuda::GraphEdge &e : g.edges) {
                sg.edges.emplace_back(e.src, e.dst);
            }
            for (u32 ni = 0; ni < g.node_count; ++ni) {
                const simcuda::KernelId ki = linter.nodeKernel(gi, ni);
                if (ki != simcuda::kInvalidKernel &&
                    img.kernel_table[ki].module == simcuda::kNcclModule) {
                    sg.collectives.push_back(img.kernel_table[ki].name);
                }
            }
        }
    }
    detail::checkCrossRank(shapes, report);
    return report;
}

std::optional<MaterializedImage>
decodeForLint(std::span<const u8> bytes, const std::string &location,
              LintReport &report)
{
    // Let structural defects decode, so the rules name each record
    // instead of one generic open failure.
    StatusOr<MaterializedImage> image =
        MaterializedImage::openView(bytes, {.validate_indices = false});
    if (!image.isOk()) {
        report.diagnostics.push_back(
            {"MDL700", Severity::kError, location,
             "image bytes fail to decode: " + image.status().toString(),
             "the file is truncated, corrupt, or from an "
             "incompatible version; re-emit it"});
        return std::nullopt;
    }
    return std::move(image).value();
}

LintReport
lintImageBytes(std::span<const u8> bytes, const LintOptions &options)
{
    LintReport report;
    const std::optional<MaterializedImage> image =
        decodeForLint(bytes, "image", report);
    return image ? lintImage(*image, options) : report;
}

} // namespace medusa::core::lint
