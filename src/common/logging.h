/**
 * @file
 * Always-on invariant checks: MEDUSA_PANIC prints a formatted message
 * and aborts (a simulator bug); MEDUSA_CHECK panics when its condition
 * is false. Recoverable errors are Statuses (status.h).
 *
 * A check's failure path formats its message through an ostringstream,
 * which is far larger than the comparison it guards. MEDUSA_CHECK
 * therefore builds and raises the message in an out-of-line, cold,
 * noreturn lambda: the call site keeps only the compare and a branch
 * to .text.unlikely, so a checked accessor (LaunchParams::push,
 * ParamView::at) still inlines into its callers.
 */

#ifndef MEDUSA_COMMON_LOGGING_H
#define MEDUSA_COMMON_LOGGING_H

#include <sstream>
#include <string>

namespace medusa {

namespace detail {

/** Print message and abort; used for internal invariant violations. */
[[noreturn, gnu::cold]] void panicImpl(const char *file, int line,
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

/**
 * Assert-like check that is always on (also in release builds). On
 * failure it aborts with "check failed: <cond>: <message>"; the message
 * is formatted only then, out of line (see the file comment).
 */
#define MEDUSA_CHECK(cond, expr)                                             \
    do {                                                                     \
        if (!(cond)) [[unlikely]] {                                          \
            [&]() __attribute__((cold, noinline, noreturn)) {                \
                MEDUSA_PANIC("check failed: " #cond ": " << expr);           \
            }();                                                             \
        }                                                                    \
    } while (0)

#endif // MEDUSA_COMMON_LOGGING_H
