#include "apps/parthenon.hh"

#include <deque>
#include <vector>

#include "base/logging.hh"

namespace mach::apps
{

namespace
{
/** Initial workpile items per run. */
constexpr unsigned kSeedItems = 22;
/** Expansion depth of each seed item. */
constexpr unsigned kDepth = 3;

/** One unit of proof search. */
struct WorkItem
{
    Tick cost;
    unsigned depth;
};
} // namespace

void
Parthenon::run(vm::Kernel &kernel, kern::Thread &driver)
{
    vm::Task *task = kernel.createTask("parthenon");
    Rng rng(params_.seed);

    for (unsigned run = 0; run < params_.runs; ++run) {
        // Central workpile (host-side state guarded by a kernel mutex).
        kern::Mutex pile_lock("workpile");
        std::deque<WorkItem> pile;
        unsigned outstanding = 0;
        for (unsigned i = 0; i < kSeedItems; ++i) {
            pile.push_back({Tick(rng.exponential(70.0) * kMsec), kDepth});
        }

        // The run's workpile control block lives in (touched) kernel
        // memory; its free at the end of the run is one of the few
        // kernel shootdowns Parthenon causes even with lazy evaluation.
        kern::Thread *main_thread = kernel.spawnThread(
            task, "parthenon-main" + std::to_string(run),
            [&, run](kern::Thread &self) {
                const VAddr pile_buf =
                    kernel.kmemAlloc(self, 2 * kPageSize);
                const bool stored = self.store32(pile_buf, run + 1);
                MACH_ASSERT(stored);

                unsigned next_worker = 0;
                auto worker_body = [&](kern::Thread &worker) {
                    Rng wrng(params_.seed + run * 7919 +
                             104729 * ++next_worker);
                    (void)worker;
                    for (;;) {
                        pile_lock.lock(worker);
                        if (pile.empty() && outstanding == 0) {
                            pile_lock.unlock(worker);
                            break;
                        }
                        if (pile.empty()) {
                            pile_lock.unlock(worker);
                            worker.sleep(4 * kMsec);
                            continue;
                        }
                        WorkItem item = pile.front();
                        pile.pop_front();
                        ++outstanding;
                        pile_lock.unlock(worker);

                        worker.compute(item.cost);
                        ++items_processed;

                        // Hold intermediate results in fresh memory
                        // (allocated as needed, never deallocated).
                        if (wrng.chance(0.25)) {
                            VAddr res = 0;
                            const bool got = kernel.vmAllocate(
                                worker, *worker.task(), &res,
                                static_cast<std::uint32_t>(
                                    wrng.range(1, 3)) *
                                    kPageSize,
                                true);
                            if (got)
                                worker.store32(res, 0x4e5317);
                        }

                        pile_lock.lock(worker);
                        if (item.depth > 0) {
                            const unsigned kids =
                                static_cast<unsigned>(wrng.range(0, 2));
                            for (unsigned c = 0; c < kids; ++c) {
                                pile.push_back(
                                    {Tick(wrng.exponential(50.0) * kMsec),
                                     item.depth - 1});
                            }
                        }
                        --outstanding;
                        pile_lock.unlock(worker);
                    }
                };

                // Start the workers, paying the cthread stack-setup
                // protocol for each: allocate an aligned stack region,
                // reserve the first page for private data, reprotect
                // the second page to no-access as a guard.
                std::vector<kern::Thread *> workers;
                std::vector<std::pair<VAddr, VAddr>> thread_mem;
                for (unsigned w = 0; w < params_.workers; ++w) {
                    const Tick t0 = kernel.machine().now();
                    VAddr stack = 0;
                    bool ok = kernel.vmAllocate(self, *task, &stack,
                                                16 * kPageSize, true);
                    MACH_ASSERT(ok);
                    ok = self.store32(stack, 0x7712ead0 + w);
                    MACH_ASSERT(ok);
                    kernel.vmProtect(self, *task, stack + kPageSize,
                                     kPageSize, ProtNone);
                    const VAddr control =
                        kernel.kmemAlloc(self, 2 * kPageSize);
                    thread_startup_total += kernel.machine().now() - t0;

                    thread_mem.push_back({stack, control});
                    workers.push_back(kernel.spawnThread(
                        task, "prover" + std::to_string(w),
                        worker_body));
                }

                // Mid-run: recycle the touched pile buffer while the
                // workers are all busy proving -- the occasional
                // kernel shootdown Parthenon causes even with lazy
                // evaluation on.
                self.sleep(150 * kMsec);
                kernel.kmemFree(self, pile_buf, 2 * kPageSize);

                for (kern::Thread *worker : workers)
                    self.join(*worker);

                // Teardown: release the per-thread control blocks
                // (never touched, so lazily skipped) and the stacks.
                for (auto &[stack, control] : thread_mem) {
                    kernel.kmemFree(self, control, 2 * kPageSize);
                    kernel.vmDeallocate(self, *task, stack,
                                        16 * kPageSize);
                }
            });

        driver.join(*main_thread);
    }
}

} // namespace mach::apps
