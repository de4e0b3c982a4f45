/**
 * @file
 * Golden numeric fixture: the exact bytes the functional kernels
 * produce for every model of the paper's Table 1 zoo, pinned against
 * tests/data/golden_numeric.txt. This is the committed fidelity oracle
 * for changes that must not move a single bit (kernel rewrites, the
 * deletion of a restore path): the v6 image bytes, the logical state
 * of a restored process, and eager/graph decode logits.
 *
 * Layer counts are reduced to 4 (as in zoo_sweep_test) to keep the
 * suite fast; architecture, dimensions and tokenizers are the real
 * per-model ones.
 *
 * Each row holds, in hex:
 *   model image_crc restore_fp eager_bs1 eager_bs4 eager_bs64
 *   graph_bs1 graph_bs4 graph_bs64 generate_fp
 * where image_crc is the CRC-32 of the serialized v6 image, restore_fp
 * the restored process's logicalStateFingerprint, eager_bsN/graph_bsN
 * the CRC-32 of the decode logits bytes after stageValidationState(N),
 * and generate_fp the logicalStateFingerprint after a greedy generate
 * (which adds the prefill attention path). On a mismatch the test
 * prints the row it computed; a row may only be replaced when the
 * change is meant to alter kernel arithmetic, and CHANGES.md must say
 * why.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <span>
#include <string>

#include "common/crc32.h"
#include "llm/engine.h"
#include "medusa/image.h"
#include "medusa/offline.h"
#include "medusa/restore.h"

namespace medusa {
namespace {

struct GoldenRow
{
    u64 image_crc = 0;
    u64 restore_fp = 0;
    u64 eager_bs1 = 0;
    u64 eager_bs4 = 0;
    u64 eager_bs64 = 0;
    u64 graph_bs1 = 0;
    u64 graph_bs4 = 0;
    u64 graph_bs64 = 0;
    u64 generate_fp = 0;

    bool operator==(const GoldenRow &) const = default;
};

std::string
formatRow(const std::string &model, const GoldenRow &r)
{
    std::ostringstream os;
    os << model << std::hex;
    for (u64 v : {r.image_crc, r.restore_fp, r.eager_bs1, r.eager_bs4,
                  r.eager_bs64, r.graph_bs1, r.graph_bs4, r.graph_bs64,
                  r.generate_fp}) {
        os << " 0x" << v;
    }
    return os.str();
}

/** The committed row for @p model, or nullopt if it has none. */
std::optional<GoldenRow>
committedRow(const std::string &model)
{
    std::ifstream in(std::string(MEDUSA_TEST_DATA_DIR) +
                     "/golden_numeric.txt");
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') {
            continue;
        }
        std::istringstream is(line);
        std::string name;
        GoldenRow r;
        is >> name >> std::hex >> r.image_crc >> r.restore_fp >>
            r.eager_bs1 >> r.eager_bs4 >> r.eager_bs64 >> r.graph_bs1 >>
            r.graph_bs4 >> r.graph_bs64 >> r.generate_fp;
        if (is && name == model) {
            return r;
        }
    }
    return std::nullopt;
}

u64
logitsCrc(const StatusOr<std::vector<f32>> &logits)
{
    MEDUSA_CHECK(logits.isOk(), logits.status().toString());
    return crc32(logits->data(), logits->size() * sizeof(f32));
}

class GoldenNumericTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GoldenNumericTest, MatchesCommittedFixture)
{
    llm::ModelConfig m = llm::findModel(GetParam()).value();
    m.num_layers = std::min<u32>(m.num_layers, 4);

    core::OfflineOptions oopts;
    oopts.model = m;
    auto offline = core::materialize(oopts);
    ASSERT_TRUE(offline.isOk()) << offline.status().toString();

    GoldenRow got;
    got.image_crc = crc32(offline->image_bytes.data(),
                          offline->image_bytes.size());

    auto image = core::MaterializedImage::openView(
        std::span<const u8>(offline->image_bytes));
    ASSERT_TRUE(image.isOk()) << image.status().toString();
    core::MedusaEngine::Options eopts;
    eopts.model = m;
    auto engine = core::MedusaEngine::coldStartFromImage(eopts, *image);
    ASSERT_TRUE(engine.isOk()) << engine.status().toString();
    llm::ModelRuntime &rt = (*engine)->runtime();
    got.restore_fp = rt.process().logicalStateFingerprint();

    // bs 1 and 4 cover a lone GEMM row and one full row tile; bs 64
    // covers many tiles and several KV blocks per launch.
    const std::pair<u32, std::pair<u64 *, u64 *>> batches[] = {
        {1, {&got.eager_bs1, &got.graph_bs1}},
        {4, {&got.eager_bs4, &got.graph_bs4}},
        {64, {&got.eager_bs64, &got.graph_bs64}},
    };
    for (const auto &[bs, out] : batches) {
        ASSERT_TRUE(rt.stageValidationState(bs).isOk());
        *out.first = logitsCrc(rt.eagerDecodeLogits(bs));
        *out.second = logitsCrc(rt.graphDecodeLogits(bs));
    }

    ASSERT_TRUE(rt.generate({2, 7, 1, 8, 2, 8}, 4).isOk());
    got.generate_fp = rt.process().logicalStateFingerprint();

    const std::optional<GoldenRow> want = committedRow(GetParam());
    ASSERT_TRUE(want.has_value())
        << "no fixture row; computed: " << formatRow(GetParam(), got);
    EXPECT_EQ(*want, got) << "computed: " << formatRow(GetParam(), got)
                          << "\ncommitted: "
                          << formatRow(GetParam(), *want);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, GoldenNumericTest,
    ::testing::Values("Falcon-7B", "Llama2-7B", "Llama2-13B",
                      "Qwen1.5-0.5B", "Qwen1.5-1.8B", "Qwen1.5-4B",
                      "Qwen1.5-7B", "Qwen1.5-14B", "Yi-6B", "Yi-9B"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-' || c == '.') {
                c = '_';
            }
        }
        return name;
    });

} // namespace
} // namespace medusa
