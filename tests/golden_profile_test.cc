/**
 * @file
 * Golden serving-profile fixture: every f64 of the ServingProfile that
 * buildServingProfile measures for each model of the paper's Table 1
 * zoo under each strategy, pinned against
 * tests/data/golden_profile.txt. The cluster studies (§7.5, Fig. 10
 * and 11) run on these numbers, so a change to how the profile is
 * measured must leave every bit of them alone.
 *
 * Models run at their full layer counts, as the figure benches build
 * them. Each row holds, with every f64 printed as C99 "%a" hex float:
 *   model slug loading_sec cold_start_sec decode_step_sec... |
 *   prefill_sec... | capture_penalty_sec...
 * The same run pins the materialized image itself, one row per model:
 *   model image bytes crc32 capture_stage_sec analysis_stage_sec
 *   validation_sec
 * so an offline capture that computes less (DESIGN.md "Discarded
 * contents") must still emit every image byte and charge every
 * offline-stage second it did before.
 * On a mismatch the test prints the row it computed; a row may only be
 * replaced when the change is meant to move the virtual clock or the
 * image bytes, and CHANGES.md must say why.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "medusa/offline.h"
#include "serverless/profile.h"

namespace medusa {
namespace {

std::string
hexFloat(f64 v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

struct NamedStrategy
{
    llm::Strategy strategy;
    const char *slug; // fixture key: no spaces, unlike strategyName()
};

constexpr NamedStrategy kStrategies[] = {
    {llm::Strategy::kVllm, "vllm"},
    {llm::Strategy::kVllmAsync, "vllm_async"},
    {llm::Strategy::kNoCudaGraph, "no_cuda_graph"},
    {llm::Strategy::kMedusa, "medusa"},
    {llm::Strategy::kDeferredCapture, "deferred_capture"},
};

std::string
formatRow(const std::string &key, const serverless::ServingProfile &p)
{
    std::string row = key;
    row += " " + hexFloat(p.loading_sec);
    row += " " + hexFloat(p.cold_start_sec);
    for (const std::vector<f64> *column :
         {&p.decode_step_sec, &p.prefill_sec, &p.capture_penalty_sec}) {
        if (column != &p.decode_step_sec) {
            row += " |";
        }
        for (f64 v : *column) {
            row += " " + hexFloat(v);
        }
    }
    return row;
}

std::string
formatImageRow(const std::string &model, const core::OfflineResult &r)
{
    char crc[16];
    std::snprintf(crc, sizeof(crc), "%08x",
                  crc32(r.image_bytes.data(), r.image_bytes.size()));
    return model + " image " + std::to_string(r.image_bytes.size()) + " " +
           crc + " " + hexFloat(r.capture_stage_sec) + " " +
           hexFloat(r.analysis_stage_sec) + " " +
           hexFloat(r.validation_sec);
}

/** The committed row keyed by "model slug", or "" if it has none. */
std::string
committedRow(const std::string &key)
{
    std::ifstream in(std::string(MEDUSA_TEST_DATA_DIR) +
                     "/golden_profile.txt");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(key + " ", 0) == 0) {
            return line;
        }
    }
    return "";
}

class GoldenProfileTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GoldenProfileTest, MatchesCommittedFixture)
{
    const llm::ModelConfig m = llm::findModel(GetParam()).value();
    core::OfflineOptions oopts;
    oopts.model = m;
    auto offline = core::materialize(oopts);
    ASSERT_TRUE(offline.isOk()) << offline.status().toString();
    const std::string image_row = formatImageRow(m.name, *offline);
    EXPECT_EQ(committedRow(m.name + " image"), image_row)
        << "computed: " << image_row;

    for (const NamedStrategy &s : kStrategies) {
        serverless::ProfileOptions popts;
        popts.model = m;
        popts.strategy = s.strategy;
        popts.artifact = &offline->artifact;
        auto profile = serverless::buildServingProfile(popts);
        ASSERT_TRUE(profile.isOk()) << profile.status().toString();
        const std::string key = m.name + " " + s.slug;
        const std::string got = formatRow(key, *profile);
        EXPECT_EQ(committedRow(key), got) << "computed: " << got;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, GoldenProfileTest,
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
