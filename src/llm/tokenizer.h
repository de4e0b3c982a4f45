/**
 * @file
 * A byte-pair-encoding tokenizer.
 *
 * Stage ❸ of the loading phase loads each model's tokenizer. The
 * reproduction implements real BPE — training over a corpus, encoding
 * via iterative lowest-rank merges, and exact-round-trip decoding — so
 * the serving path tokenizes genuine text. Each zoo model trains its
 * tokenizer deterministically from its seed over a synthetic corpus; the
 * *timing* of tokenizer loading is charged from the model's real
 * vocabulary size (see CostModel::tokenizer_per_entry_ns).
 */

#ifndef MEDUSA_LLM_TOKENIZER_H
#define MEDUSA_LLM_TOKENIZER_H

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace medusa::llm {

/**
 * Byte-level BPE: ids 0..255 are raw bytes, ids >= 256 are merges.
 */
class BpeTokenizer
{
  public:
    /**
     * Learn merges from @p corpus until the vocabulary reaches
     * @p target_vocab ids (or no pair repeats). Each round merges the
     * most frequent adjacent pair, ties going to the smallest
     * (left, right). Pair counts live in a flat table of
     * min(target_vocab, 256 + corpus size)^2 counters, sized for the
     * small vocabularies the zoo trains.
     */
    static BpeTokenizer train(const std::string &corpus, u32 target_vocab);

    /** Encode text into token ids by iterative lowest-rank merging. */
    std::vector<i32> encode(const std::string &text) const;

    /** Decode ids back to the exact original bytes. */
    std::string decode(const std::vector<i32> &ids) const;

    /** Total vocabulary size (256 byte tokens + merges). */
    u32 vocabSize() const { return 256 + static_cast<u32>(merges_.size()); }

    /** The byte expansion of a token id. */
    StatusOr<std::string> tokenBytes(i32 id) const;

    /** The learned merge list, in rank order (for materialization). */
    const std::vector<std::pair<i32, i32>> &merges() const
    {
        return merges_;
    }

    /**
     * Rebuild a tokenizer from a materialized merge list — the inverse
     * of merges(). Equivalent to the training that produced the list,
     * minus the corpus scan: fromMerges(t.merges()) encodes and decodes
     * identically to t.
     */
    static StatusOr<BpeTokenizer>
    fromMerges(const std::vector<std::pair<i32, i32>> &merges);

  private:
    /** merge index -> (left id, right id). */
    std::vector<std::pair<i32, i32>> merges_;
    /** (left, right) -> merged id; rank == merged id (lower = earlier). */
    std::map<std::pair<i32, i32>, i32> merge_to_id_;
    /** token id -> byte string (cached expansions). */
    std::vector<std::string> expansions_;
};

/**
 * Deterministic synthetic text with natural-language-like word/sentence
 * structure; used as tokenizer training corpus and example input.
 */
std::string syntheticCorpus(u64 seed, std::size_t approx_bytes);

/**
 * The tokenizer a model loads: BPE trained over the model's synthetic
 * corpus, deterministic in @p model_seed. Trained once per process per
 * seed (llm/synthetic_store.h); each call returns a copy of that
 * tokenizer. ModelRuntime::loadTokenizer calls it, and so does anything
 * that needs the model's merge list without a runtime.
 */
BpeTokenizer trainModelTokenizer(u64 model_seed);

} // namespace medusa::llm

#endif // MEDUSA_LLM_TOKENIZER_H
