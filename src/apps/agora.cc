#include "apps/agora.hh"

#include <vector>

#include "base/logging.hh"

namespace mach::apps
{

namespace
{
/** Worker threads in every phase (the 15-way searches). */
constexpr unsigned kWorkers = 15;
/** Pages per shared region. */
constexpr unsigned kRegionPages = 45;

/** Phase coordination between the master and the workers. */
struct AgoraControl
{
    /** Master bumps this to release the workers into the next phase. */
    unsigned generation = 0;
    /** Workers increment this when they finish the current phase. */
    unsigned done = 0;
    /** Region being populated or searched in this phase. */
    VAddr region = 0;
    unsigned region_pages = 0;
    /** Nonzero when workers should exit. */
    bool stop = false;
};
} // namespace

void
Agora::run(vm::Kernel &kernel, kern::Thread &driver)
{
    vm::Task *task = kernel.createTask("agora");
    Rng rng(params_.seed);

    kern::Thread *master = kernel.spawnThread(
        task, "agora-master", [&](kern::Thread &self) {
            AgoraControl ctl;
            const unsigned n = kWorkers;

            // Persistent workers: they stay alive (and on their
            // processors) across all phases, which is what makes the
            // setup-phase reprotects shoot 11-15 processors.
            std::vector<kern::Thread *> workers;
            for (unsigned w = 0; w < n; ++w) {
                workers.push_back(kernel.spawnThread(
                    task, "agora-worker" + std::to_string(w),
                    [&, w](kern::Thread &worker) {
                        Rng wrng(params_.seed + 31 * w);
                        unsigned my_gen = 0;
                        for (;;) {
                            while (ctl.generation == my_gen && !ctl.stop)
                                worker.sleep(2 * kMsec);
                            if (ctl.stop)
                                break;
                            my_gen = ctl.generation;

                            const unsigned span =
                                ctl.region_pages / n;
                            const VAddr mine =
                                ctl.region + w * span * kPageSize;
                            if (ctl.region != 0 && my_gen <=
                                params_.regions) {
                                // Setup phase: populate my slice of
                                // the write-once region, announcing
                                // progress through kernel message
                                // buffers. Freeing each touched buffer
                                // while all fifteen workers are busy is
                                // what produces the paper's large
                                // (11-15 processor) setup shootdowns.
                                for (unsigned p = 0; p < span; ++p) {
                                    const bool ok = worker.store32(
                                        mine + p * kPageSize,
                                        0xa60a0000 + w * 64 + p);
                                    MACH_ASSERT(ok);
                                    worker.compute(Tick(
                                        wrng.exponential(16.0) * kMsec));
                                    if (wrng.chance(0.2)) {
                                        const VAddr msg =
                                            kernel.kmemAlloc(worker,
                                                             kPageSize);
                                        const bool sent = worker.store32(
                                            msg, 0x6e550000 + w);
                                        MACH_ASSERT(sent);
                                        kernel.kmemFree(worker, msg,
                                                        kPageSize);
                                        worker.compute(Tick(
                                            wrng.exponential(4.0) *
                                            kMsec));
                                    }
                                }
                            } else if (ctl.region != 0) {
                                // Search phase: read shared memory,
                                // expand wavefronts.
                                for (unsigned step = 0; step < 12;
                                     ++step) {
                                    const unsigned p =
                                        static_cast<unsigned>(
                                            wrng.below(
                                                ctl.region_pages));
                                    std::uint32_t value = 0;
                                    const bool ok = worker.load32(
                                        ctl.region + p * kPageSize,
                                        &value);
                                    MACH_ASSERT(ok);
                                    worker.compute(Tick(
                                        wrng.exponential(14.0) *
                                        kMsec));
                                    ++waves_processed;
                                }
                            }
                            ++ctl.done;
                        }
                    }));
            }

            auto run_phase = [&](VAddr region, unsigned pages) {
                ctl.region = region;
                ctl.region_pages = pages;
                ctl.done = 0;
                ++ctl.generation;
                while (ctl.done < n)
                    self.sleep(3 * kMsec);
            };

            // ---- Setup: build the write-once shared regions --------
            std::vector<VAddr> regions;
            for (unsigned r = 0; r < params_.regions; ++r) {
                VAddr region = 0;
                const bool ok = kernel.vmAllocate(
                    self, *task, &region, kRegionPages * kPageSize, true);
                MACH_ASSERT(ok);
                run_phase(region, kRegionPages);
                regions.push_back(region);
            }

            // ---- The 15-way searches, run again and again ----------
            for (unsigned run = 0; run < params_.runs; ++run) {
                run_phase(regions[run % regions.size()], kRegionPages);

                // Between runs the workers wait (their processors go
                // idle) while the master recycles touched kernel
                // bookkeeping buffers: small shootdowns involving the
                // few processors still busy.
                const VAddr note = kernel.kmemAlloc(self, kPageSize);
                const bool ok = self.store32(note, run);
                MACH_ASSERT(ok);
                self.sleep(40 * kMsec);
                kernel.kmemFree(self, note, kPageSize);
            }

            ctl.stop = true;
            for (kern::Thread *worker : workers)
                self.join(*worker);
        });

    driver.join(*master);
}

} // namespace mach::apps
