#include "base/logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace mach
{

namespace
{
/**
 * Atomic because farm worker threads (src/farm) call setLogQuiet /
 * warn concurrently; stderr itself is line-locked by libc.
 */
std::atomic<bool> log_quiet{false};

void
vlog(const char *tag, const char *fmt, va_list ap)
{
    std::fprintf(stderr, "%s: ", tag);
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
}
} // namespace

void
setLogQuiet(bool quiet)
{
    log_quiet.store(quiet, std::memory_order_relaxed);
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vlog("panic", fmt, ap);
    va_end(ap);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vlog("fatal", fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    if (log_quiet.load(std::memory_order_relaxed))
        return;
    va_list ap;
    va_start(ap, fmt);
    vlog("warn", fmt, ap);
    va_end(ap);
}

} // namespace mach
