/**
 * @file
 * Integration hooks the inference runtime exposes to Medusa.
 *
 * Medusa's recorder (offline phase) observes the identities ("tags")
 * of long-lived buffers — the token-id/position/block-table inputs and
 * the KV cache tensors — so it can classify allocations and let the
 * online phase re-bind those buffers after the allocation-sequence
 * replay.
 */

#ifndef MEDUSA_LLM_HOOKS_H
#define MEDUSA_LLM_HOOKS_H

#include <string>

#include "common/types.h"

namespace medusa::llm {

/** Observer of engine-level events; implemented by Medusa's recorder. */
class EngineObserver
{
  public:
    virtual ~EngineObserver() = default;

    /** A long-lived buffer was allocated and given a stable tag. */
    virtual void
    onTagBuffer(const std::string &tag, DeviceAddr addr)
    {
        (void)tag;
        (void)addr;
    }
};

} // namespace medusa::llm

#endif // MEDUSA_LLM_HOOKS_H
