/**
 * @file
 * Always-on invariant checks: MEDUSA_PANIC prints a formatted message
 * and aborts (a simulator bug); MEDUSA_CHECK panics when its condition
 * is false. Recoverable errors are Statuses (status.h).
 */

#ifndef MEDUSA_COMMON_LOGGING_H
#define MEDUSA_COMMON_LOGGING_H

#include <sstream>
#include <string>

namespace medusa {

namespace detail {

/** Print message and abort; used for internal invariant violations. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

} // namespace detail

} // namespace medusa

/** Internal invariant violated: print and abort (simulator bug). */
#define MEDUSA_PANIC(expr)                                                   \
    do {                                                                     \
        std::ostringstream medusa_panic_oss;                                 \
        medusa_panic_oss << expr;                                            \
        ::medusa::detail::panicImpl(__FILE__, __LINE__,                      \
                                    medusa_panic_oss.str());                 \
    } while (0)

/** Assert-like check that is always on (also in release builds). */
#define MEDUSA_CHECK(cond, expr)                                             \
    do {                                                                     \
        if (!(cond)) {                                                       \
            MEDUSA_PANIC("check failed: " #cond ": " << expr);               \
        }                                                                    \
    } while (0)

#endif // MEDUSA_COMMON_LOGGING_H
