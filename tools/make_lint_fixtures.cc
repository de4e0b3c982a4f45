/**
 * @file
 * make_lint_fixtures: (re)generates the golden corrupt-image corpus
 * under tests/data/ that lint_test's table-driven fixture test runs
 * against (DESIGN.md §14).
 *
 * A small hand-built image — three chained nodes over real registry
 * kernels, appended through core::ImageBuilder — is the clean v6
 * image, and each corrupt
 * fixture is derived from it by surgical byte edits (relocation
 * retargeting, template poisoning, truncation) with the payload CRC
 * recomputed, so every fixture is invalid in EXACTLY one way and the
 * table test can assert that precisely one rule fires per file.
 *
 * Usage: make_lint_fixtures <output-dir>
 *
 * The corpus is committed; this tool only needs re-running when the
 * image format or the fixture recipe changes.
 */

#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/serialize.h"
#include "medusa/image.h"

using namespace medusa;
using core::AllocOp;
using core::ImageBuilder;
using core::MaterializedImage;

namespace {

constexpr const char *kGemm128 =
    "ampere_fp16_s16816gemm_fp16_128x128_ldg8_f2f_stages_64x3_tn";
constexpr const char *kGemm64 =
    "ampere_fp16_s16816gemm_fp16_64x64_ldg8_f2f_stages_64x5_tn";
constexpr const char *kPagedDec =
    "_ZN7simattn21paged_attention_v1_decEPKfS1_S1_PKiS3_Pfiiiiiiilf";
constexpr const char *kCublasModule = "libsimcublas.so";
constexpr const char *kAttnModule = "libsimattn.so";

/** The stream-tag prefix the decode path embeds in an i64 constant —
 * pointer-shaped but NOT a device-0 address, so the clean fixture
 * proves the MDL705 heuristic does not false-fire on tagged scalars. */
constexpr u64 kStreamTagLike = 0x7fab00000001ull;

template <typename T>
void
addConstant(ImageBuilder &b, T value)
{
    u8 bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    b.addConstant(bytes);
}

void
addGemmNode(ImageBuilder &b, u64 kernel, u64 a, u64 w, u64 c)
{
    b.addNode(kernel, {});
    for (u64 index : {a, w, c}) {
        b.addPointer(index, 0);
    }
    addConstant<i32>(b, 4);
    addConstant<i32>(b, 8);
    addConstant<i32>(b, 4);
}

/**
 * The base image: one bs=1 chain of gemm128 -> gemm64 ->
 * paged_attention_v1_dec over ten 4 KiB allocations. The decode node
 * reads allocations 4..8 and @p last_input, and carries the i64
 * stream-tag constant whose slot the uncovered_slot fixture poisons.
 */
StatusOr<ImageBuilder>
baseImage(u64 last_input = 9)
{
    ImageBuilder b;
    b.model_name = "fixture-model";
    b.model_seed = 7;
    // What a device of 10 x 4 KiB + 24 bytes has left after the ten
    // allocations below: lint_test lints the corpus against that
    // capacity, so the figure is reproducible (MDL5xx).
    b.free_gpu_memory = MaterializedImage::kHeaderBytes;
    for (int i = 0; i < 10; ++i) {
        AllocOp op;
        op.kind = AllocOp::kAlloc;
        op.logical_size = 4096;
        op.backing_size = 256;
        b.ops.push_back(op);
    }

    const u64 gemm128 = b.addKernel(kGemm128, kCublasModule);
    const u64 gemm64 = b.addKernel(kGemm64, kCublasModule);
    const u64 dec = b.addKernel(kPagedDec, kAttnModule);
    MEDUSA_RETURN_IF_ERROR(b.beginGraph(1, 3, {{0, 1}, {1, 2}}));
    addGemmNode(b, gemm128, 0, 1, 2);
    addGemmNode(b, gemm64, 2, 3, 4);
    b.addNode(dec, {});
    for (u64 index : {u64{4}, u64{5}, u64{6}, u64{7}, u64{8}, last_input}) {
        b.addPointer(index, 0);
    }
    for (i32 v : {1, 2, 4, 1, 16, 1, 0}) {
        addConstant<i32>(b, v);
    }
    addConstant<i64>(b, static_cast<i64>(kStreamTagLike));
    addConstant<f32>(b, 1.0f);
    return b;
}

/** Byte offset of a zero-copy span inside the serialized image. */
template <typename T>
std::size_t
spanOffset(const std::vector<u8> &bytes, std::span<const T> view)
{
    return static_cast<std::size_t>(
        reinterpret_cast<const u8 *>(view.data()) - bytes.data());
}

/** Recompute the payload CRC after surgery (header offset 16). */
void
resealImage(std::vector<u8> &bytes)
{
    const u64 payload = bytes.size() - MaterializedImage::kHeaderBytes;
    std::memcpy(bytes.data() + 8, &payload, sizeof(payload));
    const u32 crc = crc32(bytes.data() + MaterializedImage::kHeaderBytes,
                          payload);
    std::memcpy(bytes.data() + 16, &crc, sizeof(crc));
}

Status
writeFixture(const std::string &dir, const char *name,
             const std::vector<u8> &bytes)
{
    const std::string path = dir + "/" + name;
    MEDUSA_RETURN_IF_ERROR(writeFile(path, bytes));
    std::printf("wrote %s (%zu bytes)\n", path.c_str(), bytes.size());
    return Status::ok();
}

Status
generate(const std::string &dir)
{
    MEDUSA_ASSIGN_OR_RETURN(const ImageBuilder base, baseImage());
    const std::vector<u8> clean = base.finish({});
    MEDUSA_ASSIGN_OR_RETURN(
        const MaterializedImage view,
        MaterializedImage::openView(std::span<const u8>(clean)));
    const std::size_t data_relocs_off =
        spanOffset(clean, view.data_relocs);
    const std::size_t kernel_relocs_off =
        spanOffset(clean, view.kernel_relocs);
    const std::size_t template_off =
        spanOffset(clean, view.patch_template);
    MEDUSA_CHECK(view.data_relocs.size() >= 2 &&
                     view.kernel_relocs.size() >= 2,
                 "fixture image produced too few relocations");

    MEDUSA_RETURN_IF_ERROR(writeFixture(dir, "clean.mdsi", clean));

    // truncated_relocs: chop the file in the middle of the relocation
    // tables. The payload no longer decodes -> MDL700.
    {
        std::vector<u8> bytes = clean;
        bytes.resize(data_relocs_off +
                     sizeof(MaterializedImage::DataReloc) / 2);
        resealImage(bytes);
        MEDUSA_RETURN_IF_ERROR(
            writeFixture(dir, "truncated_relocs.mdsi", bytes));
    }

    // overlapping_relocs: retarget data reloc 1 onto data reloc 0's
    // slot. That slot is now patched twice -> MDL704 (the orphaned
    // slot it used to cover is a null pointer param -> MDL705 warning,
    // deliberately not an error).
    {
        std::vector<u8> bytes = clean;
        MaterializedImage::DataReloc r0;
        std::memcpy(&r0, bytes.data() + data_relocs_off, sizeof(r0));
        MaterializedImage::DataReloc r1;
        std::memcpy(&r1, bytes.data() + data_relocs_off + sizeof(r1),
                    sizeof(r1));
        r1.slot = r0.slot;
        std::memcpy(bytes.data() + data_relocs_off + sizeof(r1), &r1,
                    sizeof(r1));
        resealImage(bytes);
        MEDUSA_RETURN_IF_ERROR(
            writeFixture(dir, "overlapping_relocs.mdsi", bytes));
    }

    // uncovered_slot: poison the decode node's i64 stream-tag constant
    // slot with a device-0 address. The slot has no covering
    // relocation and now holds an in-window pointer-shaped value ->
    // MDL705 (heuristic branch). No relocation is touched.
    {
        std::vector<u8> bytes = clean;
        u64 poison_slot = static_cast<u64>(-1);
        const MaterializedImage::GraphView &gv = view.graphs.at(0);
        // param 13 of node 2 (the i64 stream tag).
        const u64 param_index = gv.param_begin[2] + 13;
        poison_slot = gv.param_slot_begin + param_index;
        const u64 poison = 0x7f2000004000ull; // inside device 0's window
        std::memcpy(bytes.data() + template_off + poison_slot * 8,
                    &poison, sizeof(poison));
        resealImage(bytes);
        MEDUSA_RETURN_IF_ERROR(
            writeFixture(dir, "uncovered_slot.mdsi", bytes));
    }

    // shuffled_kernel_table: swap the kernel-table indices of the
    // first two kernel relocations. Both gemm variants share one
    // signature, so nothing else changes — but the table's entries are
    // no longer referenced in first-occurrence order -> MDL706.
    {
        std::vector<u8> bytes = clean;
        MaterializedImage::KernelReloc k0;
        MaterializedImage::KernelReloc k1;
        std::memcpy(&k0, bytes.data() + kernel_relocs_off, sizeof(k0));
        std::memcpy(&k1, bytes.data() + kernel_relocs_off + sizeof(k1),
                    sizeof(k1));
        std::swap(k0.kernel_index, k1.kernel_index);
        std::memcpy(bytes.data() + kernel_relocs_off, &k0, sizeof(k0));
        std::memcpy(bytes.data() + kernel_relocs_off + sizeof(k1), &k1,
                    sizeof(k1));
        resealImage(bytes);
        MEDUSA_RETURN_IF_ERROR(
            writeFixture(dir, "shuffled_kernel_table.mdsi", bytes));
    }

    // oob_reloc: point data reloc 0 at allocation index 999, far past
    // the 10-allocation replay table -> MDL701.
    {
        std::vector<u8> bytes = clean;
        MaterializedImage::DataReloc r0;
        std::memcpy(&r0, bytes.data() + data_relocs_off, sizeof(r0));
        r0.alloc_index = 999;
        std::memcpy(bytes.data() + data_relocs_off, &r0, sizeof(r0));
        resealImage(bytes);
        MEDUSA_RETURN_IF_ERROR(
            writeFixture(dir, "oob_reloc.mdsi", bytes));
    }

    // bad_edge: point the second edge (1 -> 2) at node 7 of the
    // three-node graph. The default openView refuses it (the first
    // structural defect, findStructuralDefects); lint reports the same
    // defect as MDL303. The corrupt graph has no trustworthy
    // happens-before relation, so the race rules skip it instead of
    // cascading.
    {
        std::vector<u8> bytes = clean;
        const std::size_t edges_off =
            spanOffset(clean, view.graphs.at(0).edges);
        simcuda::GraphEdge e1;
        std::memcpy(&e1, bytes.data() + edges_off + sizeof(e1), sizeof(e1));
        e1.dst = 7;
        std::memcpy(bytes.data() + edges_off + sizeof(e1), &e1, sizeof(e1));
        resealImage(bytes);
        MEDUSA_RETURN_IF_ERROR(writeFixture(dir, "bad_edge.mdsi", bytes));
    }

    // freed_target: a variant image whose decode node reads an
    // allocation born AFTER the first gemm input is freed, so the
    // graph's launch provably postdates the free and the gemm's
    // relocation resolves against a recycled address -> MDL702.
    // Emitted (not surgically edited) because the op sequence length
    // changes; emission does not lint, so the defective image still
    // builds.
    {
        MEDUSA_ASSIGN_OR_RETURN(ImageBuilder variant, baseImage(10));
        AllocOp free_op;
        free_op.kind = AllocOp::kFree;
        free_op.freed_alloc_index = 0; // ops[10]: kill the gemm input
        variant.ops.push_back(free_op);
        AllocOp extra; // ops[11]: a later birth the graph references
        extra.kind = AllocOp::kAlloc;
        extra.logical_size = 4096;
        extra.backing_size = 256;
        variant.ops.push_back(extra);
        MEDUSA_RETURN_IF_ERROR(
            writeFixture(dir, "freed_target.mdsi", variant.finish({})));
    }
    return Status::ok();
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
        return 2;
    }
    const Status status = generate(argv[1]);
    if (!status.isOk()) {
        std::fprintf(stderr, "fixture generation failed: %s\n",
                     status.toString().c_str());
        return 1;
    }
    return 0;
}
