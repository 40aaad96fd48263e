/**
 * @file
 * The run farm: campaigns of independent simulations, run side by side.
 *
 * The simulator is single-threaded by construction -- one Machine, one
 * host thread, fibers interleaved at explicit simulation points -- but
 * campaigns (explorer sweeps, bench config sweeps, machsim --repeat)
 * are embarrassingly parallel: every probe or config is an independent
 * deterministic run on its own Machine. runMany runs N such fully
 * isolated machines concurrently, one per worker thread.
 *
 * Isolation contract (docs/SIMULATOR.md "Run farm"): a Machine (or
 * vm::Kernel) must be constructed, driven, and inspected on a single
 * worker -- fiber scheduler state is thread-local, and a fiber's saved
 * context links back to the resuming thread's scheduler slot. Jobs
 * therefore own their machines wholesale; only plain results cross
 * threads, after join. Determinism is preserved by indexing results by
 * job, never by completion order.
 *
 * Workers self-schedule: every caller hands over its whole batch at
 * once, and each worker claims the next unclaimed job from one shared
 * atomic index until the batch is exhausted. An idle worker always
 * takes the next job, and no job waits behind a busy worker, so long
 * jobs never convoy behind a slow one.
 */

#ifndef MACH_FARM_FARM_HH
#define MACH_FARM_FARM_HH

#include <functional>
#include <vector>

#include "farm/fork_pool.hh"

namespace mach::farm
{

/** How a campaign (probe batch, config sweep, seed batch) is run. */
struct FarmOptions
{
    /** Concurrent runs; 1 = the bit-exact serial path, no threads. */
    unsigned jobs = 1;
    /**
     * Allow fork-style prefix snapshots where the batch supports them
     * (probes sharing an unperturbed warmup prefix). Snapshots never
     * change results -- only whether the prefix is re-simulated.
     */
    bool snapshots = true;
};

/**
 * Run every job in @p jobs to completion on min(@p workers, jobs)
 * threads that self-schedule over the batch, and return when all have
 * finished. With workers <= 1 the jobs run inline on the calling
 * thread, in order, with no threads created -- the bit-exact serial
 * path. Results must be communicated through the closures (indexed
 * slots), never by completion order.
 */
void runMany(std::vector<std::function<void()>> jobs, unsigned workers);

/**
 * Farm width from the MACH_FARM_JOBS environment variable, falling
 * back to @p fallback (0 = the host's hardware concurrency).
 */
unsigned defaultJobs(unsigned fallback = 1);

} // namespace mach::farm

#endif // MACH_FARM_FARM_HH
