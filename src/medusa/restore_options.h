/**
 * @file
 * Online-phase configuration and reporting types, shared by the
 * single-GPU engine (restore.h), the replay building blocks (replay.h)
 * and the tensor-parallel driver (tp.h).
 */

#ifndef MEDUSA_MEDUSA_RESTORE_OPTIONS_H
#define MEDUSA_MEDUSA_RESTORE_OPTIONS_H

#include <string>
#include <vector>

#include "common/fault.h"
#include "common/pipeline_options.h"
#include "common/types.h"

namespace medusa::core {

/**
 * What a failed restore attempt degrades to. In every mode the
 * simulated GPU process is first rolled back to pristine (the restore
 * is transactional), so the fallback path always starts from a clean
 * process, exactly as if the instance had been relaunched.
 */
enum class FallbackMode : u8
{
    /** Propagate the failure; the cold start fails. */
    kFail,
    /** Run the classic profile+capture cold start on the clean process. */
    kVanillaColdStart,
    /** Retry the restore (with backoff) before degrading to vanilla. */
    kRetryThenVanilla,
};

/** Policy for degrading a failed restore (see FallbackMode). */
struct FallbackPolicy
{
    FallbackMode mode = FallbackMode::kFail;
    /** Total restore attempts before vanilla (kRetryThenVanilla). */
    u32 max_attempts = 3;
    /** Simulated pause before the first retry. */
    f64 backoff_sec = 0.05;
    /** Growth factor applied to the pause after each retry. */
    f64 backoff_multiplier = 2.0;
};

/** Online-phase configuration (ablation switches). */
struct RestoreOptions
{
    /** §5.2 first-layer triggering-kernels + module enumeration. */
    bool use_triggering_kernels = true;
    /** dlsym()+cudaGetFuncBySymbol path for symbol-table kernels. */
    bool use_dlsym = true;
    /** Restore permanent-buffer contents (off only for experiments). */
    bool restore_contents = true;
    /**
     * Cross-cutting pipeline knobs (lint gate, validation, fault
     * injection, trace/metrics sinks) — shared shape with
     * OfflineOptions and ClusterOptions.
     */
    PipelineOptions pipeline;
    /** What to do when a restore attempt fails mid-flight. */
    FallbackPolicy fallback;
};

} // namespace medusa::core

#endif // MEDUSA_MEDUSA_RESTORE_OPTIONS_H
