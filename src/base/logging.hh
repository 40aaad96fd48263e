/**
 * @file
 * Logging and error-exit helpers in the gem5 tradition.
 *
 * panic()  -- an internal invariant was violated (a bug in this library);
 *             prints and aborts so a core dump / debugger can be used.
 * fatal()  -- the caller/user asked for something unsupportable (bad
 *             configuration, invalid arguments); prints and exits(1).
 * warn()   -- something questionable happened but simulation continues.
 */

#ifndef MACH_BASE_LOGGING_HH
#define MACH_BASE_LOGGING_HH

#include <cstdarg>
#include <string>

namespace mach
{

/** Print a formatted message tagged "panic:" and abort(). */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a formatted message tagged "fatal:" and exit(1). */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a formatted message tagged "warn:". */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Suppress or re-enable warn() output (used by tests). */
void setLogQuiet(bool quiet);

/**
 * Assert that an invariant holds; panic with the stringized expression
 * otherwise. Active in all build types (unlike assert()).
 */
#define MACH_ASSERT(expr)                                                  \
    do {                                                                   \
        if (!(expr)) {                                                     \
            ::mach::panic("assertion failed at %s:%d: %s",                 \
                          __FILE__, __LINE__, #expr);                      \
        }                                                                  \
    } while (0)

} // namespace mach

#endif // MACH_BASE_LOGGING_HH
