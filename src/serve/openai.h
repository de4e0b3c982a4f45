/**
 * @file
 * OpenAI-compatible API surface: request parsing / validation for
 * `/v1/completions` and `/v1/chat/completions`, the JSON bodies of
 * streaming chunks and complete responses, and the deterministic
 * placeholder token text the simulated engine "generates".
 *
 * The functional LLM stack produces token *timings*, not language, so
 * the served text is a deterministic pseudo-random word stream seeded
 * by the request id — stable across runs, which the smoke tests and
 * serve_test rely on.
 */

#ifndef MEDUSA_SERVE_OPENAI_H
#define MEDUSA_SERVE_OPENAI_H

#include <string>
#include <string_view>

#include "common/json.h"

namespace medusa::serve {

/** Validation limits the server imposes on client requests. */
struct ApiLimits
{
    u32 max_prompt_tokens = 32768;
    u32 max_output_tokens = 4096;
    /** max_tokens when the client omits the field. */
    u32 default_max_tokens = 16;
};

/** One validated completion / chat-completion call. */
struct CompletionCall
{
    /** True for /v1/chat/completions. */
    bool chat = false;
    bool stream = false;
    std::string model;
    /** Flattened prompt (chat: newline-joined message contents). */
    std::string prompt;
    /** Heuristic token count of the prompt (see approxTokenCount). */
    u32 prompt_tokens = 0;
    u32 max_tokens = 0;
};

/**
 * Parse and validate a request body. @p chat selects the
 * chat-completions schema (messages[] instead of prompt). Returns
 * kInvalidArgument with a client-presentable message on bad input.
 */
StatusOr<CompletionCall> parseCompletionCall(const Json &body, bool chat,
                                             const ApiLimits &limits);

/** ~4 bytes per token, at least 1 (the paper's profiling heuristic). */
u32 approxTokenCount(std::string_view text);

/** Deterministic word for token @p index of request @p seed. */
std::string tokenText(u64 seed, u32 index);

/** "cmpl-..." / "chatcmpl-..." id derived from @p seed. */
std::string completionId(bool chat, u64 seed);

/** One streaming SSE chunk body (OpenAI delta framing). */
std::string completionChunkJson(const CompletionCall &call,
                                std::string_view id,
                                std::string_view token, bool first);

/** The terminal streaming chunk carrying finish_reason. */
std::string completionDoneJson(const CompletionCall &call,
                               std::string_view id,
                               std::string_view finish_reason);

/** A complete non-streaming response body. */
std::string completionResponseJson(const CompletionCall &call,
                                   std::string_view id,
                                   std::string_view text,
                                   u32 completion_tokens,
                                   std::string_view finish_reason);

/** OpenAI-style error envelope: {"error":{message,type,code}}. */
std::string errorJson(int status, std::string_view type,
                      std::string_view message);

} // namespace medusa::serve

#endif // MEDUSA_SERVE_OPENAI_H
