#include "farm/farm.hh"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <thread>

namespace mach::farm
{

void
runMany(std::vector<std::function<void()>> jobs, unsigned workers)
{
    if (workers <= 1 || jobs.size() <= 1) {
        for (auto &job : jobs)
            job();
        return;
    }
    // Claiming an index is the only shared step; thread start and join
    // order every job's closure and results against the caller.
    std::atomic<std::size_t> next{0};
    const auto drain = [&jobs, &next] {
        for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
             i < jobs.size();
             i = next.fetch_add(1, std::memory_order_relaxed))
            jobs[i]();
    };
    std::vector<std::thread> threads(
        std::min<std::size_t>(workers, jobs.size()));
    for (std::thread &t : threads)
        t = std::thread(drain);
    for (std::thread &t : threads)
        t.join();
}

unsigned
defaultJobs(unsigned fallback)
{
    if (const char *env = std::getenv("MACH_FARM_JOBS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v >= 1)
            return static_cast<unsigned>(v);
    }
    if (fallback == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        return hw == 0 ? 1 : hw;
    }
    return fallback;
}

} // namespace mach::farm
