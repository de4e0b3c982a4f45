/**
 * @file
 * Tests of the BPE tokenizer substrate: training, exact round-trip
 * encode/decode, determinism and compression behaviour, and the
 * once-per-process model tokenizer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "llm/tokenizer.h"

namespace medusa::llm {
namespace {

TEST(TokenizerTest, UntrainedIsByteLevel)
{
    BpeTokenizer tok = BpeTokenizer::train("", 256);
    EXPECT_EQ(tok.vocabSize(), 256u);
    const auto ids = tok.encode("ab");
    EXPECT_EQ(ids, (std::vector<i32>{'a', 'b'}));
    EXPECT_EQ(tok.decode(ids), "ab");
}

TEST(TokenizerTest, TrainingGrowsVocabAndCompresses)
{
    const std::string corpus = syntheticCorpus(3, 8192);
    BpeTokenizer tok = BpeTokenizer::train(corpus, 512);
    EXPECT_GT(tok.vocabSize(), 300u);
    EXPECT_LE(tok.vocabSize(), 512u);
    const std::string text = syntheticCorpus(3, 512);
    const auto ids = tok.encode(text);
    // BPE must compress text drawn from the training distribution.
    EXPECT_LT(ids.size(), text.size() / 2);
}

TEST(TokenizerTest, RoundTripIsExact)
{
    const std::string corpus = syntheticCorpus(7, 4096);
    BpeTokenizer tok = BpeTokenizer::train(corpus, 400);
    for (u64 seed : {1ull, 2ull, 3ull}) {
        const std::string text = syntheticCorpus(seed, 300);
        EXPECT_EQ(tok.decode(tok.encode(text)), text);
    }
}

TEST(TokenizerTest, RoundTripSurvivesUnseenBytes)
{
    BpeTokenizer tok = BpeTokenizer::train(syntheticCorpus(1, 2048), 320);
    std::string weird;
    for (int b = 0; b < 256; ++b) {
        weird.push_back(static_cast<char>(b));
    }
    EXPECT_EQ(tok.decode(tok.encode(weird)), weird);
}

TEST(TokenizerTest, TrainingIsDeterministic)
{
    const std::string corpus = syntheticCorpus(5, 4096);
    BpeTokenizer a = BpeTokenizer::train(corpus, 384);
    BpeTokenizer b = BpeTokenizer::train(corpus, 384);
    EXPECT_EQ(a.vocabSize(), b.vocabSize());
    const std::string text = syntheticCorpus(9, 256);
    EXPECT_EQ(a.encode(text), b.encode(text));
}

TEST(TokenizerTest, MergedTokensExpandCorrectly)
{
    BpeTokenizer tok = BpeTokenizer::train("aaaaaaaaaa", 260);
    // "aa" must have been merged.
    ASSERT_GT(tok.vocabSize(), 256u);
    auto bytes = tok.tokenBytes(256);
    ASSERT_TRUE(bytes.isOk());
    EXPECT_EQ(*bytes, "aa");
    EXPECT_FALSE(tok.tokenBytes(-1).isOk());
    EXPECT_FALSE(
        tok.tokenBytes(static_cast<i32>(tok.vocabSize())).isOk());
}

TEST(TokenizerTest, EmptyInputYieldsEmptyOutput)
{
    BpeTokenizer tok = BpeTokenizer::train(syntheticCorpus(1, 1024), 300);
    EXPECT_TRUE(tok.encode("").empty());
    EXPECT_EQ(tok.decode({}), "");
}

TEST(TokenizerTest, SyntheticCorpusDeterministicAndSized)
{
    const std::string a = syntheticCorpus(11, 1000);
    const std::string b = syntheticCorpus(11, 1000);
    EXPECT_EQ(a, b);
    EXPECT_GE(a.size(), 1000u);
    EXPECT_LT(a.size(), 1100u);
    EXPECT_NE(a, syntheticCorpus(12, 1000));
}

/**
 * Reference trainer: rebuilds an ordered map of pair counts every round
 * and scans it for the first pair with the highest count.
 */
std::vector<std::pair<i32, i32>>
referenceMerges(const std::string &corpus, u32 target_vocab)
{
    std::vector<std::pair<i32, i32>> merges;
    std::vector<i32> seq;
    for (char c : corpus) {
        seq.push_back(static_cast<i32>(static_cast<u8>(c)));
    }
    while (256 + merges.size() < target_vocab && seq.size() >= 2) {
        std::map<std::pair<i32, i32>, u32> counts;
        for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
            ++counts[{seq[i], seq[i + 1]}];
        }
        std::pair<i32, i32> best{};
        u32 best_count = 1;
        for (const auto &[pair, count] : counts) {
            if (count > best_count) {
                best_count = count;
                best = pair;
            }
        }
        if (best_count <= 1) {
            break;
        }
        const i32 new_id = static_cast<i32>(256 + merges.size());
        merges.push_back(best);
        std::vector<i32> next;
        for (std::size_t i = 0; i < seq.size();) {
            if (i + 1 < seq.size() && seq[i] == best.first &&
                seq[i + 1] == best.second) {
                next.push_back(new_id);
                i += 2;
            } else {
                next.push_back(seq[i]);
                ++i;
            }
        }
        seq.swap(next);
    }
    return merges;
}

constexpr u32 kTargetVocabs[] = {257, 300, 320, 400, 512};

/**
 * Training is greedy, so the merges for a smaller target vocabulary are
 * a prefix of those for the largest: one reference run per corpus
 * covers every target.
 */
TEST(TokenizerTest, TrainingMatchesReferenceTrainer)
{
    for (u64 seed = 1; seed <= 20; ++seed) {
        const std::string corpus = syntheticCorpus(seed, 4096);
        const auto reference = referenceMerges(corpus, 512);
        for (u32 vocab : kTargetVocabs) {
            const std::size_t len =
                std::min<std::size_t>(vocab - 256, reference.size());
            const std::vector<std::pair<i32, i32>> want(
                reference.begin(), reference.begin() + len);
            EXPECT_EQ(BpeTokenizer::train(corpus, vocab).merges(), want)
                << "seed=" << seed << " vocab=" << vocab;
        }
    }
}

TEST(TokenizerTest, TieHeavyCorporaMatchReferenceTrainer)
{
    for (const std::string corpus :
         {"abababab", "aaaaaaaaaa", "", "x", "abba abba baab"}) {
        for (u32 vocab : kTargetVocabs) {
            EXPECT_EQ(BpeTokenizer::train(corpus, vocab).merges(),
                      referenceMerges(corpus, vocab))
                << "corpus=\"" << corpus << "\" vocab=" << vocab;
        }
    }
}

TEST(TokenizerTest, ModelTokenizerEqualsAFreshTrainingOnEveryCall)
{
    // The first call trains and stores the seed's tokenizer; later calls
    // return copies of it. Every one must be the training's result.
    const std::string text = syntheticCorpus(13, 512);
    for (u64 seed : {101u, 106u}) {
        const BpeTokenizer want =
            BpeTokenizer::train(syntheticCorpus(seed, 8192), 320);
        for (int call = 0; call < 3; ++call) {
            const BpeTokenizer got = trainModelTokenizer(seed);
            EXPECT_EQ(got.merges(), want.merges())
                << "seed=" << seed << " call=" << call;
            EXPECT_EQ(got.encode(text), want.encode(text));
            EXPECT_EQ(got.decode(got.encode(text)), text);
        }
    }
}

} // namespace
} // namespace medusa::llm
