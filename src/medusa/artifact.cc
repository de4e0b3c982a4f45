#include "medusa/artifact.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "common/crc32.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace medusa::core {

namespace {

// Section ids of the sectioned format (kVersion). Readers ignore ids
// they do not know, so the format can grow without breaking old
// binaries.
enum SectionId : u32 {
    kSecMeta = 1,
    kSecOps = 2,
    kSecGraphs = 3,
    kSecPermanent = 4,
    kSecPointerFixes = 5,
    kSecTags = 6,
    kSecStats = 7,
};

/** One section-table entry: 24 bytes on the wire. */
struct SectionEntry
{
    u32 id = 0;
    u32 crc = 0;
    u64 offset = 0; // absolute, from the start of the stream
    u64 size = 0;
};

constexpr std::size_t kSectionEntryBytes = 24;
/** 24 bytes of per-graph sub-index: batch_size, crc, offset, size. */
constexpr std::size_t kGraphEntryBytes = 24;

/** Leading u64 of a buffer, or 0 when it is too short. */
u64
peekU64(std::span<const u8> b)
{
    u64 v = 0;
    if (b.size() >= sizeof(v)) {
        std::memcpy(&v, b.data(), sizeof(v));
    }
    return v;
}

void
writeParamSpec(BinaryWriter &w, const ParamSpec &p)
{
    w.writeU8(static_cast<u8>(p.kind));
    if (p.kind == ParamSpec::kConstant) {
        w.writeBytes(p.constant_bytes);
    } else {
        w.writeU64(p.alloc_index);
        w.writeU64(p.offset);
    }
}

StatusOr<ParamSpec>
readParamSpec(BinaryReader &r)
{
    ParamSpec p;
    MEDUSA_ASSIGN_OR_RETURN(u8 kind, r.readU8());
    if (kind > ParamSpec::kIndirect) {
        return internalError("bad ParamSpec kind");
    }
    p.kind = static_cast<ParamSpec::Kind>(kind);
    if (p.kind == ParamSpec::kConstant) {
        MEDUSA_ASSIGN_OR_RETURN(p.constant_bytes, r.readBytes());
    } else {
        MEDUSA_ASSIGN_OR_RETURN(p.alloc_index, r.readU64());
        MEDUSA_ASSIGN_OR_RETURN(p.offset, r.readU64());
    }
    return p;
}

void
writeNode(BinaryWriter &w, const NodeBlueprint &n)
{
    w.writeString(n.kernel_name);
    w.writeString(n.module_name);
    w.writeF64(n.timing.flops);
    w.writeF64(n.timing.bytes);
    w.writeVector(n.params, writeParamSpec);
}

StatusOr<NodeBlueprint>
readNode(BinaryReader &r)
{
    NodeBlueprint n;
    MEDUSA_ASSIGN_OR_RETURN(n.kernel_name, r.readString());
    MEDUSA_ASSIGN_OR_RETURN(n.module_name, r.readString());
    MEDUSA_ASSIGN_OR_RETURN(n.timing.flops, r.readF64());
    MEDUSA_ASSIGN_OR_RETURN(n.timing.bytes, r.readF64());
    MEDUSA_ASSIGN_OR_RETURN(n.params,
                            r.readVector<ParamSpec>(readParamSpec));
    return n;
}

void
writeAllocOp(BinaryWriter &w, const AllocOp &op)
{
    w.writeU8(static_cast<u8>(op.kind));
    w.writeU64(op.logical_size);
    w.writeU64(op.backing_size);
    w.writeU64(op.freed_alloc_index);
}

StatusOr<AllocOp>
readAllocOp(BinaryReader &r)
{
    AllocOp op;
    MEDUSA_ASSIGN_OR_RETURN(u8 kind, r.readU8());
    if (kind > AllocOp::kFree) {
        return internalError("bad AllocOp kind");
    }
    op.kind = static_cast<AllocOp::Kind>(kind);
    MEDUSA_ASSIGN_OR_RETURN(op.logical_size, r.readU64());
    MEDUSA_ASSIGN_OR_RETURN(op.backing_size, r.readU64());
    MEDUSA_ASSIGN_OR_RETURN(op.freed_alloc_index, r.readU64());
    return op;
}

using Edge = std::pair<u32, u32>;

StatusOr<Edge>
readEdge(BinaryReader &r)
{
    MEDUSA_ASSIGN_OR_RETURN(u32 s, r.readU32());
    MEDUSA_ASSIGN_OR_RETURN(u32 d, r.readU32());
    return Edge{s, d};
}

/** Graph payload: batch_size + nodes + edges (no surrounding index). */
void
writeGraphPayload(BinaryWriter &w, const GraphBlueprint &g)
{
    w.writeU32(g.batch_size);
    w.writeVector(g.nodes, writeNode);
    w.writeVector(g.edges, [](BinaryWriter &w2, const Edge &e) {
        w2.writeU32(e.first);
        w2.writeU32(e.second);
    });
}

StatusOr<GraphBlueprint>
readGraphPayload(BinaryReader &r)
{
    GraphBlueprint g;
    MEDUSA_ASSIGN_OR_RETURN(g.batch_size, r.readU32());
    auto nodes = r.readVector<NodeBlueprint>(readNode);
    if (!nodes.isOk()) {
        return nodes.status();
    }
    g.nodes = std::move(nodes).value();
    auto edges = r.readVector<Edge>(readEdge);
    if (!edges.isOk()) {
        return edges.status();
    }
    g.edges = std::move(edges).value();
    return g;
}

void
writePermanent(BinaryWriter &w, const PermanentBuffer &p)
{
    w.writeU64(p.alloc_index);
    w.writeBytes(p.contents);
}

StatusOr<PermanentBuffer>
readPermanent(BinaryReader &r)
{
    PermanentBuffer p;
    MEDUSA_ASSIGN_OR_RETURN(p.alloc_index, r.readU64());
    MEDUSA_ASSIGN_OR_RETURN(p.contents, r.readBytes());
    return p;
}

void
writePointerFix(BinaryWriter &w, const PointerWordFix &f)
{
    w.writeU64(f.buffer_alloc_index);
    w.writeU64(f.byte_offset);
    w.writeU64(f.target_alloc_index);
    w.writeU64(f.target_offset);
}

StatusOr<PointerWordFix>
readPointerFix(BinaryReader &r)
{
    PointerWordFix f;
    MEDUSA_ASSIGN_OR_RETURN(f.buffer_alloc_index, r.readU64());
    MEDUSA_ASSIGN_OR_RETURN(f.byte_offset, r.readU64());
    MEDUSA_ASSIGN_OR_RETURN(f.target_alloc_index, r.readU64());
    MEDUSA_ASSIGN_OR_RETURN(f.target_offset, r.readU64());
    return f;
}

void
writeStats(BinaryWriter &w, const AnalysisStats &s)
{
    w.writeU64(s.total_nodes);
    w.writeU64(s.total_params);
    w.writeU64(s.pointer_params);
    w.writeU64(s.constant_params);
    w.writeU64(s.decoy_candidates);
    w.writeU64(s.validation_repairs);
    w.writeU64(s.dlsym_visible_nodes);
    w.writeU64(s.hidden_kernel_nodes);
    w.writeU64(s.model_param_buffers);
    w.writeU64(s.temp_buffers);
    w.writeU64(s.permanent_buffers);
    w.writeU64(s.indirect_pointer_words);
    w.writeU64(s.materialized_content_bytes);
    w.writeU64(s.full_dump_bytes);
}

Status
readStats(BinaryReader &r, AnalysisStats &s)
{
    MEDUSA_ASSIGN_OR_RETURN(s.total_nodes, r.readU64());
    MEDUSA_ASSIGN_OR_RETURN(s.total_params, r.readU64());
    MEDUSA_ASSIGN_OR_RETURN(s.pointer_params, r.readU64());
    MEDUSA_ASSIGN_OR_RETURN(s.constant_params, r.readU64());
    MEDUSA_ASSIGN_OR_RETURN(s.decoy_candidates, r.readU64());
    MEDUSA_ASSIGN_OR_RETURN(s.validation_repairs, r.readU64());
    MEDUSA_ASSIGN_OR_RETURN(s.dlsym_visible_nodes, r.readU64());
    MEDUSA_ASSIGN_OR_RETURN(s.hidden_kernel_nodes, r.readU64());
    MEDUSA_ASSIGN_OR_RETURN(s.model_param_buffers, r.readU64());
    MEDUSA_ASSIGN_OR_RETURN(s.temp_buffers, r.readU64());
    MEDUSA_ASSIGN_OR_RETURN(s.permanent_buffers, r.readU64());
    MEDUSA_ASSIGN_OR_RETURN(s.indirect_pointer_words, r.readU64());
    MEDUSA_ASSIGN_OR_RETURN(s.materialized_content_bytes, r.readU64());
    MEDUSA_ASSIGN_OR_RETURN(s.full_dump_bytes, r.readU64());
    return Status::ok();
}

void
writeTags(BinaryWriter &w, const std::map<std::string, u64> &tags)
{
    w.writeU64(tags.size());
    for (const auto &[tag, index] : tags) {
        w.writeString(tag);
        w.writeU64(index);
    }
}

Status
readTags(BinaryReader &r, std::map<std::string, u64> &tags)
{
    MEDUSA_ASSIGN_OR_RETURN(u64 tag_count, r.readU64());
    for (u64 i = 0; i < tag_count; ++i) {
        MEDUSA_ASSIGN_OR_RETURN(std::string tag, r.readString());
        MEDUSA_ASSIGN_OR_RETURN(u64 index, r.readU64());
        tags[tag] = index;
    }
    return Status::ok();
}

/** Decode the sectioned graphs payload, one CRC-checked graph at a time. */
Status
readGraphsSection(std::span<const u8> payload,
                  const ArtifactReadOptions &options,
                  std::vector<GraphBlueprint> &out)
{
    BinaryReader index(payload);
    MEDUSA_ASSIGN_OR_RETURN(u64 count, index.readU64());
    if (count > index.remaining() / kGraphEntryBytes) {
        return internalError("graph sub-index count exceeds data");
    }
    struct GraphEntry
    {
        u32 crc = 0;
        u64 offset = 0; // relative to the section payload
        u64 size = 0;
    };
    std::vector<GraphEntry> entries(count);
    for (GraphEntry &e : entries) {
        MEDUSA_ASSIGN_OR_RETURN(u32 batch_size, index.readU32());
        (void)batch_size; // advisory copy; the payload's value is used
        MEDUSA_ASSIGN_OR_RETURN(e.crc, index.readU32());
        MEDUSA_ASSIGN_OR_RETURN(e.offset, index.readU64());
        MEDUSA_ASSIGN_OR_RETURN(e.size, index.readU64());
        if (e.offset > payload.size() ||
            e.size > payload.size() - e.offset) {
            return internalError("graph section offset out of bounds");
        }
    }

    out.assign(count, GraphBlueprint{});
    for (std::size_t i = 0; i < count; ++i) {
        const GraphEntry &e = entries[i];
        const std::span<const u8> bytes =
            payload.subspan(e.offset, e.size);
        MEDUSA_FAULT_POINT(options.fault, FaultPoint::kArtifactCrc,
                           "graph section " + std::to_string(i));
        if (options.verify_crc &&
            crc32(bytes.data(), bytes.size()) != e.crc) {
            return internalError("graph section " + std::to_string(i) +
                                 " failed its CRC32 check");
        }
        BinaryReader gr(bytes);
        MEDUSA_ASSIGN_OR_RETURN(out[i], readGraphPayload(gr));
    }
    return Status::ok();
}

} // namespace

std::vector<u8>
Artifact::serialize() const
{
    // Build every section payload, then assemble header + table +
    // payloads. The graphs section leads with a per-graph sub-index
    // (batch_size, crc, offset, size) so readers can check and decode
    // blueprints independently. Its section-table CRC covers only that
    // sub-index; the per-graph CRCs cover the blueprint payloads.
    BinaryWriter meta;
    meta.writeString(model_name);
    meta.writeU64(model_seed);
    meta.writeU64(free_gpu_memory);
    meta.writeU64(organic_op_count);
    meta.writeU64(organic_alloc_count);

    BinaryWriter ops_w;
    ops_w.writeVector(ops, writeAllocOp);

    std::vector<std::vector<u8>> graph_payloads;
    graph_payloads.reserve(graphs.size());
    for (const GraphBlueprint &g : graphs) {
        BinaryWriter gw;
        writeGraphPayload(gw, g);
        graph_payloads.push_back(gw.takeBytes());
    }
    BinaryWriter graphs_w;
    graphs_w.writeU64(graphs.size());
    u64 rel = 8 + graphs.size() * kGraphEntryBytes;
    for (std::size_t i = 0; i < graphs.size(); ++i) {
        graphs_w.writeU32(graphs[i].batch_size);
        graphs_w.writeU32(crc32(graph_payloads[i].data(),
                                graph_payloads[i].size()));
        graphs_w.writeU64(rel);
        graphs_w.writeU64(graph_payloads[i].size());
        rel += graph_payloads[i].size();
    }
    const std::size_t graphs_index_size = graphs_w.size();
    for (const std::vector<u8> &p : graph_payloads) {
        graphs_w.writeBytesRaw(p.data(), p.size());
    }

    BinaryWriter perm_w;
    perm_w.writeVector(permanent, writePermanent);
    BinaryWriter fixes_w;
    fixes_w.writeVector(pointer_fixes, writePointerFix);
    BinaryWriter tags_w;
    writeTags(tags_w, tags);
    BinaryWriter stats_w;
    writeStats(stats_w, stats);

    struct Pending
    {
        u32 id;
        const BinaryWriter *payload;
        std::size_t crc_bytes; // prefix covered by the table CRC
    };
    const Pending sections[] = {
        {kSecMeta, &meta, meta.size()},
        {kSecOps, &ops_w, ops_w.size()},
        {kSecGraphs, &graphs_w, graphs_index_size},
        {kSecPermanent, &perm_w, perm_w.size()},
        {kSecPointerFixes, &fixes_w, fixes_w.size()},
        {kSecTags, &tags_w, tags_w.size()},
        {kSecStats, &stats_w, stats_w.size()},
    };

    BinaryWriter out;
    out.writeU32(kMagic);
    out.writeU32(kVersion);
    out.writeU32(static_cast<u32>(std::size(sections)));
    u64 offset = 12 + std::size(sections) * kSectionEntryBytes;
    for (const Pending &s : sections) {
        out.writeU32(s.id);
        out.writeU32(crc32(s.payload->bytes().data(), s.crc_bytes));
        out.writeU64(offset);
        out.writeU64(s.payload->size());
        offset += s.payload->size();
    }
    for (const Pending &s : sections) {
        out.writeBytesRaw(s.payload->bytes().data(), s.payload->size());
    }
    return out.takeBytes();
}

StatusOr<Artifact>
Artifact::deserialize(std::vector<u8> bytes)
{
    // The view path copies all decoded data out of the buffer, so the
    // local vector's lifetime is sufficient.
    return deserializeView(std::span<const u8>(bytes));
}

StatusOr<Artifact>
Artifact::deserializeView(std::span<const u8> bytes,
                          const ArtifactReadOptions &options)
{
    BinaryReader r(bytes);
    Artifact a;
    Span span(options.trace, "artifact.deserialize", "artifact");
    span.arg("bytes", std::to_string(bytes.size()));
    MEDUSA_FAULT_POINT(options.fault, FaultPoint::kArtifactDeserialize,
                       "deserializeView of " +
                           std::to_string(bytes.size()) + " bytes");
    MEDUSA_ASSIGN_OR_RETURN(u32 magic, r.readU32());
    if (magic != kMagic) {
        return internalError("artifact magic mismatch");
    }
    MEDUSA_ASSIGN_OR_RETURN(u32 version, r.readU32());
    if (version != kVersion) {
        return internalError("artifact version mismatch");
    }

    MEDUSA_ASSIGN_OR_RETURN(u32 section_count, r.readU32());
    std::vector<SectionEntry> table(section_count);
    for (SectionEntry &e : table) {
        MEDUSA_ASSIGN_OR_RETURN(e.id, r.readU32());
        MEDUSA_ASSIGN_OR_RETURN(e.crc, r.readU32());
        MEDUSA_ASSIGN_OR_RETURN(e.offset, r.readU64());
        MEDUSA_ASSIGN_OR_RETURN(e.size, r.readU64());
        // Every entry must lie inside the stream, even sections this
        // reader skips or does not know: truncation anywhere fails.
        if (e.offset > bytes.size() ||
            e.size > bytes.size() - e.offset) {
            return internalError("artifact section out of bounds");
        }
    }

    auto findSection = [&table](u32 id) -> const SectionEntry * {
        for (const SectionEntry &e : table) {
            if (e.id == id) {
                return &e;
            }
        }
        return nullptr;
    };
    auto sectionPayload =
        [&](const SectionEntry &e,
            std::size_t crc_prefix) -> StatusOr<std::span<const u8>> {
        const std::span<const u8> payload =
            bytes.subspan(e.offset, e.size);
        MEDUSA_FAULT_POINT(options.fault, FaultPoint::kArtifactCrc,
                           "section " + std::to_string(e.id));
        const std::size_t covered = std::min(crc_prefix, payload.size());
        if (options.verify_crc &&
            crc32(payload.data(), covered) != e.crc) {
            return internalError("artifact section " +
                                 std::to_string(e.id) +
                                 " failed its CRC32 check");
        }
        return payload;
    };
    auto requireSection = [&](u32 id) -> StatusOr<std::span<const u8>> {
        const SectionEntry *e = findSection(id);
        if (e == nullptr) {
            return internalError("artifact missing section " +
                                 std::to_string(id));
        }
        return sectionPayload(*e, e->size);
    };

    {
        MEDUSA_ASSIGN_OR_RETURN(auto payload, requireSection(kSecMeta));
        BinaryReader mr(payload);
        MEDUSA_ASSIGN_OR_RETURN(a.model_name, mr.readString());
        MEDUSA_ASSIGN_OR_RETURN(a.model_seed, mr.readU64());
        MEDUSA_ASSIGN_OR_RETURN(a.free_gpu_memory, mr.readU64());
        MEDUSA_ASSIGN_OR_RETURN(a.organic_op_count, mr.readU64());
        MEDUSA_ASSIGN_OR_RETURN(a.organic_alloc_count, mr.readU64());
    }
    {
        MEDUSA_ASSIGN_OR_RETURN(auto payload, requireSection(kSecOps));
        BinaryReader or_(payload);
        auto ops_result = or_.readVector<AllocOp>(readAllocOp);
        if (!ops_result.isOk()) {
            return ops_result.status();
        }
        a.ops = std::move(ops_result).value();
    }
    {
        const SectionEntry *e = findSection(kSecGraphs);
        if (e == nullptr) {
            return internalError("artifact missing graphs section");
        }
        // The table CRC covers the sub-index; per-graph CRCs cover the
        // payloads (verified inside readGraphsSection).
        const std::span<const u8> raw = bytes.subspan(e->offset, e->size);
        const u64 count = peekU64(raw);
        std::size_t index_bytes = raw.size();
        if (raw.size() >= 8 &&
            count <= (raw.size() - 8) / kGraphEntryBytes) {
            index_bytes = 8 + static_cast<std::size_t>(count) *
                                  kGraphEntryBytes;
        }
        MEDUSA_ASSIGN_OR_RETURN(auto payload,
                                sectionPayload(*e, index_bytes));
        MEDUSA_RETURN_IF_ERROR(
            readGraphsSection(payload, options, a.graphs));
    }
    if (options.load_permanent_contents) {
        MEDUSA_ASSIGN_OR_RETURN(auto payload,
                                requireSection(kSecPermanent));
        BinaryReader pr(payload);
        auto perm_result = pr.readVector<PermanentBuffer>(readPermanent);
        if (!perm_result.isOk()) {
            return perm_result.status();
        }
        a.permanent = std::move(perm_result).value();

        MEDUSA_ASSIGN_OR_RETURN(auto fix_payload,
                                requireSection(kSecPointerFixes));
        BinaryReader fr(fix_payload);
        auto fixes_result = fr.readVector<PointerWordFix>(readPointerFix);
        if (!fixes_result.isOk()) {
            return fixes_result.status();
        }
        a.pointer_fixes = std::move(fixes_result).value();
    } else {
        a.contents_skipped = true;
    }
    {
        MEDUSA_ASSIGN_OR_RETURN(auto payload, requireSection(kSecTags));
        BinaryReader tr(payload);
        MEDUSA_RETURN_IF_ERROR(readTags(tr, a.tags));
    }
    {
        MEDUSA_ASSIGN_OR_RETURN(auto payload, requireSection(kSecStats));
        BinaryReader sr(payload);
        MEDUSA_RETURN_IF_ERROR(readStats(sr, a.stats));
    }
    return a;
}

u64
Artifact::totalNodes() const
{
    u64 total = 0;
    for (const auto &g : graphs) {
        total += g.nodes.size();
    }
    return total;
}

void
AnalysisStats::publishTo(MetricsRegistry &registry) const
{
    registry.counter("analysis.total_nodes").add(total_nodes);
    registry.counter("analysis.total_params").add(total_params);
    registry.counter("analysis.pointer_params").add(pointer_params);
    registry.counter("analysis.constant_params").add(constant_params);
    registry.counter("analysis.decoy_candidates").add(decoy_candidates);
    registry.counter("analysis.validation_repairs").add(validation_repairs);
    registry.counter("analysis.dlsym_visible_nodes")
        .add(dlsym_visible_nodes);
    registry.counter("analysis.hidden_kernel_nodes")
        .add(hidden_kernel_nodes);
    registry.counter("analysis.model_param_buffers")
        .add(model_param_buffers);
    registry.counter("analysis.temp_buffers").add(temp_buffers);
    registry.counter("analysis.permanent_buffers").add(permanent_buffers);
    registry.counter("analysis.indirect_pointer_words")
        .add(indirect_pointer_words);
    registry.counter("analysis.materialized_content_bytes")
        .add(materialized_content_bytes);
    registry.counter("analysis.full_dump_bytes").add(full_dump_bytes);
}

} // namespace medusa::core
