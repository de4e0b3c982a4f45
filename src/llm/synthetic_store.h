/**
 * @file
 * The process-wide store of synthesized model files.
 *
 * A zoo model's "files" — its weight tensors and its tokenizer — are
 * pure functions of the model's seed and shape, so every process that
 * loads a model synthesizes the same bytes. The weight loader and the
 * tokenizer loader each keep one SyntheticStore, so a file is
 * synthesized once per host process and every later load copies it:
 * the host-side analogue of a host-DRAM checkpoint tier. The virtual
 * clock does not move, because the loaders charge their simulated reads
 * exactly as before; the store only removes host work (DESIGN.md §6
 * "The synthetic model store").
 */

#ifndef MEDUSA_LLM_SYNTHETIC_STORE_H
#define MEDUSA_LLM_SYNTHETIC_STORE_H

#include <map>
#include <mutex>
#include <shared_mutex>
#include <utility>

namespace medusa::llm {

/**
 * An insert-only map from every input of a synthesis to its output.
 * Entries are immutable and never evicted, so a returned reference
 * stays valid for the life of the process. Thread-safe: a miss
 * synthesizes outside the lock and takes the mutex exclusively only to
 * insert; when two threads race on one key, the first insert wins and
 * both get its (identical) value.
 */
template <typename Key, typename Value>
class SyntheticStore
{
  public:
    template <typename Synthesize>
    const Value &
    get(const Key &key, Synthesize &&synthesize)
    {
        {
            std::shared_lock lock(mutex_);
            auto it = entries_.find(key);
            if (it != entries_.end()) {
                return it->second;
            }
        }
        Value made = synthesize();
        std::unique_lock lock(mutex_);
        return entries_.try_emplace(key, std::move(made)).first->second;
    }

  private:
    std::shared_mutex mutex_;
    std::map<Key, Value> entries_;
};

} // namespace medusa::llm

#endif // MEDUSA_LLM_SYNTHETIC_STORE_H
