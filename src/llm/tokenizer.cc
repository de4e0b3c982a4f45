#include "llm/tokenizer.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"
#include "llm/synthetic_store.h"

namespace medusa::llm {

BpeTokenizer
BpeTokenizer::train(const std::string &corpus, u32 target_vocab)
{
    BpeTokenizer tok;
    tok.expansions_.resize(256);
    for (int b = 0; b < 256; ++b) {
        tok.expansions_[b] = std::string(1, static_cast<char>(b));
    }
    if (target_vocab <= 256) {
        return tok;
    }

    // Work sequence: the corpus as token ids, merged in place each round.
    std::vector<i32> seq(corpus.begin(), corpus.end());
    for (auto &v : seq) {
        v = static_cast<i32>(static_cast<u8>(v));
    }

    // Pair counts in a flat dim x dim table, key = first * dim + second,
    // so key order is pair order. Every id stays below dim: merges are
    // capped by target_vocab and, since each one shortens the work
    // sequence, by the corpus length.
    const u64 dim = std::min<u64>(target_vocab, 256 + seq.size());
    std::vector<u32> counts(dim * dim, 0);
    auto key = [dim](i32 first, i32 second) {
        return static_cast<u64>(first) * dim + static_cast<u64>(second);
    };
    while (tok.vocabSize() < target_vocab && seq.size() >= 2) {
        // Count adjacent pairs in one pass, tracking the most frequent
        // (ties to the smallest pair, for determinism).
        u64 best_key = 0;
        u32 best_count = 0;
        for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
            const u64 k = key(seq[i], seq[i + 1]);
            const u32 c = ++counts[k];
            if (c > best_count || (c == best_count && k < best_key)) {
                best_count = c;
                best_key = k;
            }
        }
        // Reset only the entries this round touched.
        for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
            counts[key(seq[i], seq[i + 1])] = 0;
        }
        if (best_count <= 1) {
            break; // nothing repeats; no compression left
        }
        const std::pair<i32, i32> best{static_cast<i32>(best_key / dim),
                                       static_cast<i32>(best_key % dim)};
        const i32 new_id = static_cast<i32>(tok.vocabSize());
        tok.merges_.push_back(best);
        tok.merge_to_id_[best] = new_id;
        tok.expansions_.push_back(tok.expansions_[best.first] +
                                  tok.expansions_[best.second]);
        // Apply the merge over the work sequence.
        std::vector<i32> next;
        next.reserve(seq.size());
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
    return tok;
}

StatusOr<BpeTokenizer>
BpeTokenizer::fromMerges(const std::vector<std::pair<i32, i32>> &merges)
{
    BpeTokenizer tok;
    tok.expansions_.resize(256);
    for (int b = 0; b < 256; ++b) {
        tok.expansions_[b] = std::string(1, static_cast<char>(b));
    }
    for (const auto &pair : merges) {
        const i32 new_id = static_cast<i32>(tok.vocabSize());
        // A merge may only reference byte tokens or earlier merges.
        if (pair.first < 0 || pair.second < 0 || pair.first >= new_id ||
            pair.second >= new_id) {
            return invalidArgument(
                "merge " + std::to_string(new_id - 256) +
                " references out-of-range token id");
        }
        tok.merges_.push_back(pair);
        tok.merge_to_id_[pair] = new_id;
        tok.expansions_.push_back(
            tok.expansions_[static_cast<std::size_t>(pair.first)] +
            tok.expansions_[static_cast<std::size_t>(pair.second)]);
    }
    return tok;
}

std::vector<i32>
BpeTokenizer::encode(const std::string &text) const
{
    std::vector<i32> seq(text.begin(), text.end());
    for (auto &v : seq) {
        v = static_cast<i32>(static_cast<u8>(v));
    }
    // Iteratively apply the lowest-ranked (earliest-learned) applicable
    // merge — the canonical BPE encode.
    while (seq.size() >= 2) {
        i32 best_id = -1;
        std::size_t best_pos = 0;
        for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
            auto it = merge_to_id_.find({seq[i], seq[i + 1]});
            if (it != merge_to_id_.end() &&
                (best_id < 0 || it->second < best_id)) {
                best_id = it->second;
                best_pos = i;
            }
        }
        if (best_id < 0) {
            break;
        }
        // Merge every occurrence of this pair in one pass.
        const auto pair = merges_[static_cast<std::size_t>(best_id) - 256];
        std::vector<i32> next;
        next.reserve(seq.size());
        for (std::size_t i = 0; i < seq.size();) {
            if (i + 1 < seq.size() && seq[i] == pair.first &&
                seq[i + 1] == pair.second) {
                next.push_back(best_id);
                i += 2;
            } else {
                next.push_back(seq[i]);
                ++i;
            }
        }
        seq.swap(next);
        (void)best_pos;
    }
    return seq;
}

std::string
BpeTokenizer::decode(const std::vector<i32> &ids) const
{
    std::string out;
    for (i32 id : ids) {
        auto bytes = tokenBytes(id);
        MEDUSA_CHECK(bytes.isOk(), "decode of invalid token id " << id);
        out += *bytes;
    }
    return out;
}

StatusOr<std::string>
BpeTokenizer::tokenBytes(i32 id) const
{
    if (id < 0 || static_cast<std::size_t>(id) >= expansions_.size()) {
        return invalidArgument("token id out of range: " +
                               std::to_string(id));
    }
    return expansions_[static_cast<std::size_t>(id)];
}

std::string
syntheticCorpus(u64 seed, std::size_t approx_bytes)
{
    // A Zipf-ish vocabulary of synthetic words gives BPE realistic
    // repeated structure to learn from.
    static const char *const kSyllables[] = {
        "ser", "ver", "less", "ten", "sor", "gra", "ph",  "cud", "mod",
        "el",  "in",  "fer",  "ence", "ma", "ter", "ial", "ize", "la",
        "ten", "cy",  "ker",  "nel",  "cap", "tur", "ing", "tok", "en",
    };
    constexpr std::size_t kNumSyllables =
        sizeof(kSyllables) / sizeof(kSyllables[0]);

    Rng rng(seed);
    // Build a fixed word list; earlier words are sampled more often.
    std::vector<std::string> words;
    for (int w = 0; w < 160; ++w) {
        std::string word;
        const int parts = 1 + static_cast<int>(rng.nextBounded(3));
        for (int p = 0; p < parts; ++p) {
            word += kSyllables[rng.nextBounded(kNumSyllables)];
        }
        words.push_back(word);
    }

    std::string corpus;
    corpus.reserve(approx_bytes + 64);
    int sentence_len = 0;
    while (corpus.size() < approx_bytes) {
        // Zipf-like: index ~ floor(N * u^2) favours small indexes.
        const f64 u = rng.nextDouble();
        const auto idx = static_cast<std::size_t>(
            static_cast<f64>(words.size()) * u * u);
        corpus += words[std::min(idx, words.size() - 1)];
        if (++sentence_len >= 8 + static_cast<int>(rng.nextBounded(8))) {
            corpus += ". ";
            sentence_len = 0;
        } else {
            corpus += ' ';
        }
    }
    return corpus;
}

BpeTokenizer
trainModelTokenizer(u64 model_seed)
{
    static SyntheticStore<u64, BpeTokenizer> store;
    return store.get(model_seed, [&] {
        return BpeTokenizer::train(syntheticCorpus(model_seed, 8192),
                                   256 + 64);
    });
}

} // namespace medusa::llm
