/**
 * @file
 * Shared helpers for the table-reproduction benchmark binaries.
 */

#ifndef MACH_BENCH_BENCH_COMMON_HH
#define MACH_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/agora.hh"
#include "apps/camelot.hh"
#include "apps/mach_build.hh"
#include "apps/parthenon.hh"
#include "apps/workload.hh"
#include "base/logging.hh"
#include "farm/farm.hh"
#include "vm/kernel.hh"

namespace mach::bench
{

/** One evaluation application run on a fresh kernel. */
struct AppRun
{
    std::string label;
    apps::WorkloadResult result;
    Tick runtime = 0;
    /** Events the run consumed a sequence number for (scheduledCount). */
    std::uint64_t events = 0;
    /** Of those, fiber wakes the run loop took inline (elidedWakes). */
    std::uint64_t elided_wakes = 0;
};

/**
 * Workload scale factor from the MACH_BENCH_SCALE environment variable
 * (default 1). The default runs are time-compressed relative to the
 * paper's 7.5-60 minute applications; a larger scale multiplies the
 * work (jobs, transactions, successive runs) for event counts closer
 * to the paper's, at proportionally longer host time.
 */
inline unsigned
benchScale()
{
    const char *env = std::getenv("MACH_BENCH_SCALE");
    if (env == nullptr)
        return 1;
    const int value = std::atoi(env);
    return value >= 1 ? static_cast<unsigned>(value) : 1;
}

/** Factory for the four Section 5.2 applications by index 0..3. */
inline std::unique_ptr<apps::Workload>
makeApp(unsigned index)
{
    const unsigned scale = benchScale();
    switch (index) {
      case 0: {
        apps::MachBuild::Params params;
        params.jobs *= scale;
        return std::make_unique<apps::MachBuild>(params);
      }
      case 1: {
        apps::Parthenon::Params params;
        params.runs *= scale;
        return std::make_unique<apps::Parthenon>(params);
      }
      case 2: {
        apps::Agora::Params params;
        params.runs *= scale;
        params.regions *= scale;
        return std::make_unique<apps::Agora>(params);
      }
      case 3: {
        apps::Camelot::Params params;
        params.transactions *= scale;
        return std::make_unique<apps::Camelot>(params);
      }
    }
    fatal("makeApp: bad index %u", index);
}

inline const char *
appLabel(unsigned index)
{
    static const char *labels[] = {"Mach", "Parthenon", "Agora",
                                   "Camelot"};
    return labels[index];
}

/** Run application @p index on a fresh machine with @p config. */
inline AppRun
runApp(unsigned index, const hw::MachineConfig &config)
{
    vm::Kernel kernel(config);
    std::unique_ptr<apps::Workload> app = makeApp(index);
    AppRun run;
    run.label = appLabel(index);
    run.result = app->execute(kernel);
    run.runtime = run.result.virtual_runtime;
    run.events = kernel.machine().ctx().queue().scheduledCount();
    run.elided_wakes = kernel.machine().ctx().elidedWakes();
    return run;
}

/**
 * Run-farm width for the bench binaries, from MACH_BENCH_JOBS
 * (default 1: the bit-exact serial path). The sweeps below are one
 * independent machine per config, so any width produces the same
 * numbers -- farm width only changes the wall clock.
 */
inline unsigned
benchJobs()
{
    const char *env = std::getenv("MACH_BENCH_JOBS");
    if (env == nullptr)
        return 1;
    const int value = std::atoi(env);
    return value >= 1 ? static_cast<unsigned>(value) : 1;
}

/** Host hardware threads (1 when the runtime cannot tell). */
inline unsigned
hostCores()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n != 0 ? n : 1;
}

/**
 * Effective farm width for a bench that would like @p requested
 * workers. An explicit MACH_BENCH_JOBS always wins (the per-bench
 * farm opt-in/opt-out knob); otherwise the request is clamped to the
 * host's core count -- a farmed sweep is pure simulation with no
 * shared prefix to reuse, so oversubscribing cores only adds
 * context-switch thrash and measures as a slowdown (the bench_sweep
 * 0.90x regression on a 1-core host). A clamped width of 1 means
 * "farming cannot win here": benches should take their serial path
 * and say so.
 */
inline unsigned
farmWidth(unsigned requested)
{
    if (std::getenv("MACH_BENCH_JOBS") != nullptr)
        return benchJobs();
    return std::min(requested, hostCores());
}

/**
 * Run every measurement job concurrently on benchJobs() workers (or
 * @p jobs when nonzero) and return when all are done. Jobs must
 * write results into their own indexed slots and must not print --
 * collect first, then report serially so tables stay ordered.
 */
inline void
runFarmed(std::vector<std::function<void()>> jobs, unsigned jobs_override = 0)
{
    farm::runMany(std::move(jobs),
                  jobs_override != 0 ? jobs_override : benchJobs());
}

/** One config point of a farmed application sweep. */
struct SweepSpec
{
    unsigned app = 0; ///< makeApp index.
    hw::MachineConfig config;
};

/**
 * Run one fresh machine per spec, farmed across the bench width, and
 * return the AppRuns indexed like @p specs (never completion order).
 */
inline std::vector<AppRun>
runAppSweep(const std::vector<SweepSpec> &specs, unsigned jobs_override = 0)
{
    std::vector<AppRun> runs(specs.size());
    std::vector<std::function<void()>> jobs;
    jobs.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        jobs.push_back([&specs, &runs, i] {
            runs[i] = runApp(specs[i].app, specs[i].config);
        });
    runFarmed(std::move(jobs), jobs_override);
    return runs;
}

inline void
printRuntime(const AppRun &run)
{
    std::printf("  %-10s virtual runtime %6.1f s\n", run.label.c_str(),
                static_cast<double>(run.runtime) / kSec);
}

} // namespace mach::bench

#endif // MACH_BENCH_BENCH_COMMON_HH
