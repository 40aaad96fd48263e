#include "chk/scenario.hh"

#include <cstdio>
#include <utility>
#include <vector>

#include "chk/vmgen.hh"
#include "dev/dma_device.hh"
#include "kern/cpu.hh"
#include "kern/thread.hh"
#include "pmap/shootdown.hh"
#include "vm/kernel.hh"
#include "vm/task.hh"

namespace mach::chk
{

void
ScenarioState::failPredicate(std::string why)
{
    if (predicate_ok) {
        predicate_ok = false;
        note = std::move(why);
    }
}

void
ScenarioState::failCoverage(std::string why)
{
    if (coverage_ok) {
        coverage_ok = false;
        if (note.empty())
            note = std::move(why);
    }
}

namespace
{

/**
 * One writer child: hammers its page with counter increments while
 * the page is writable and falls back to reads while it is not. A
 * write that succeeds lands at the access-return instant, so any
 * counter movement observed strictly after a protection revocation
 * completed went through a stale translation.
 */
kern::Thread::Body
writerChild(vm::Kernel &kernel, VAddr va, const bool *stop, Tick gap,
            Tick masked_section)
{
    return [&kernel, va, stop, gap, masked_section](kern::Thread &self) {
        std::uint32_t n = 0;
        while (!*stop) {
            kern::AccessResult r = self.access(va, ProtWrite);
            if (r.ok)
                kernel.machine().mem().write32(r.paddr, ++n);
            else
                self.access(va, ProtRead);
            if (masked_section != 0)
                kernel.kernelSection(self, masked_section);
            self.cpu().advance(gap);
        }
    };
}

/**
 * The revoke-and-watch step shared by every storm: reprotect
 * [base + page*kPageSize) read-only, snapshot the writer counters,
 * wait, snapshot again. Counters may not move while revoked.
 */
void
watchRevoked(vm::Kernel &kernel, kern::Thread &self, vm::Task &task,
             VAddr base, unsigned pages, Tick settle,
             ScenarioState *state, const char *who, unsigned round)
{
    if (!kernel.vmProtect(self, task, base, pages * kPageSize,
                          ProtRead)) {
        state->failPredicate("vmProtect(read-only) failed");
        return;
    }
    std::vector<std::uint32_t> before(pages, 0);
    std::vector<std::uint32_t> after(pages, 0);
    for (unsigned i = 0; i < pages; ++i)
        kernel.vmRead(self, task, base + i * kPageSize, &before[i], 4);
    self.sleep(settle);
    for (unsigned i = 0; i < pages; ++i)
        kernel.vmRead(self, task, base + i * kPageSize, &after[i], 4);
    for (unsigned i = 0; i < pages; ++i) {
        if (after[i] != before[i]) {
            char msg[96];
            std::snprintf(msg, sizeof(msg),
                          "%s round %u: page %u counter moved "
                          "%u -> %u through a revoked mapping",
                          who, round, i, before[i], after[i]);
            state->failPredicate(msg);
        }
    }
    if (!kernel.vmProtect(self, task, base, pages * kPageSize,
                          ProtReadWrite))
        state->failPredicate("vmProtect(restore) failed");
}

/** Extra scenario-specific coverage, checked as the storm ends. */
using Coverage = std::function<void(vm::Kernel &, ScenarioState *)>;

/**
 * The generic storm: @p children writer threads on CPUs 1..children,
 * a driver on CPU 0 revoking and restoring write access for
 * @p rounds rounds with the watch predicate armed. With
 * @p masked_section nonzero the writers interleave interrupt-masked
 * kernel sections between accesses.
 */
Scenario::Driver
stormDriver(unsigned children, unsigned rounds, Tick warmup,
            Tick settle, Tick masked_section = 0,
            Coverage extra = {})
{
    return [=](vm::Kernel &kernel, kern::Thread &drv,
               ScenarioState *state) {
        vm::Task *task = kernel.createTask("chk-storm");
        VAddr base = 0;
        if (!kernel.vmAllocate(drv, *task, &base, children * kPageSize,
                               true)) {
            state->failPredicate("vmAllocate failed");
            return;
        }
        bool stop = false;
        const unsigned ncpus = kernel.machine().ncpus();
        std::vector<kern::Thread *> kids;
        for (unsigned i = 0; i < children; ++i) {
            kids.push_back(kernel.spawnThread(
                task, "chk-kid",
                writerChild(kernel, base + i * kPageSize, &stop,
                            250 * kUsec, masked_section),
                1 + static_cast<std::int64_t>(i % (ncpus - 1))));
        }
        drv.sleep(warmup);
        for (unsigned round = 0; round < rounds; ++round) {
            watchRevoked(kernel, drv, *task, base, children, settle,
                         state, "storm", round);
            drv.sleep(settle);
        }
        stop = true;
        for (kern::Thread *t : kids)
            drv.join(*t);
        if (kernel.machine().cfg().shootdown_policy !=
                hw::ShootdownPolicy::DelayedFlush &&
            kernel.pmaps().shoot().initiated == 0)
            state->failCoverage("storm: no shootdown ran");
        if (extra)
            extra(kernel, state);
    };
}

/**
 * Two initiators reprotecting different pages of the same pmap
 * concurrently, each with its own writer to watch. Exercises the
 * initiator-waits-while-another-initiates interleavings and the
 * respond-while-spinning path of Section 4.
 */
Scenario::Driver
concurrentInitiatorsDriver(unsigned initiators, unsigned rounds)
{
    return [=](vm::Kernel &kernel, kern::Thread &drv,
               ScenarioState *state) {
        vm::Task *task = kernel.createTask("chk-conc");
        VAddr base = 0;
        if (!kernel.vmAllocate(drv, *task, &base,
                               initiators * kPageSize, true)) {
            state->failPredicate("vmAllocate failed");
            return;
        }
        bool stop = false;
        std::vector<kern::Thread *> all;
        for (unsigned i = 0; i < initiators; ++i) {
            all.push_back(kernel.spawnThread(
                task, "chk-kid",
                writerChild(kernel, base + i * kPageSize, &stop,
                            250 * kUsec, 0),
                1 + static_cast<std::int64_t>(i)));
        }
        drv.sleep(2 * kMsec);
        for (unsigned i = 0; i < initiators; ++i) {
            const VAddr page = base + i * kPageSize;
            all.push_back(kernel.spawnThread(
                nullptr, "chk-init",
                [&kernel, state, task, page, rounds,
                 i](kern::Thread &self) {
                    for (unsigned r = 0; r < rounds; ++r) {
                        watchRevoked(kernel, self, *task, page, 1,
                                     kMsec, state,
                                     i == 0 ? "init0" : "init1", r);
                        self.sleep(kMsec);
                    }
                },
                1 + static_cast<std::int64_t>(initiators + i)));
        }
        // Join initiators first, then release the writers.
        for (std::size_t i = initiators; i < all.size(); ++i)
            drv.join(*all[i]);
        stop = true;
        for (unsigned i = 0; i < initiators; ++i)
            drv.join(*all[i]);
        if (kernel.pmaps().shoot().initiated < rounds * initiators / 2)
            state->failCoverage("concurrent: too few shootdowns");
    };
}

/**
 * Idle-drain race: kernel workers touch kmem pages on CPUs 1..k and
 * exit, parking those CPUs in the idle loop with kernel translations
 * still cached. The driver then frees the pages -- queueing actions
 * at the idle CPUs without interrupts (the Section 4 idle
 * optimization) -- and wakes the CPUs so the idle-exit path must
 * drain before any kernel translation is used.
 */
Scenario::Driver
idleDrainDriver(unsigned k)
{
    return [=](vm::Kernel &kernel, kern::Thread &drv,
               ScenarioState *state) {
        std::vector<VAddr> vas(k, 0);
        std::vector<kern::Thread *> workers;
        for (unsigned i = 0; i < k; ++i) {
            workers.push_back(kernel.spawnThread(
                nullptr, "chk-kw",
                [&kernel, &vas, i](kern::Thread &self) {
                    vas[i] = kernel.kmemAlloc(self, kPageSize);
                    if (vas[i] == 0)
                        return;
                    for (unsigned j = 0; j < 8; ++j) {
                        self.store32(vas[i], j);
                        self.cpu().advance(100 * kUsec);
                    }
                },
                1 + static_cast<std::int64_t>(i)));
        }
        for (kern::Thread *w : workers)
            drv.join(*w);
        drv.sleep(2 * kMsec); // let the worker CPUs park idle
        const std::uint64_t drains_before =
            kernel.pmaps().shoot().idle_drains;
        for (unsigned i = 0; i < k; ++i) {
            if (vas[i] != 0)
                kernel.kmemFree(drv, vas[i], kPageSize);
        }
        // Wake each parked CPU with fresh kernel work that itself
        // touches kmem right after the idle exit.
        std::vector<kern::Thread *> wakers;
        for (unsigned i = 0; i < k; ++i) {
            wakers.push_back(kernel.spawnThread(
                nullptr, "chk-wake",
                [&kernel](kern::Thread &self) {
                    VAddr va = kernel.kmemAlloc(self, kPageSize);
                    if (va == 0)
                        return;
                    self.store32(va, 1);
                    kernel.kmemFree(self, va, kPageSize);
                },
                1 + static_cast<std::int64_t>(i)));
        }
        for (kern::Thread *w : wakers)
            drv.join(*w);
        if (kernel.pmaps().shoot().idle_drains == drains_before)
            state->failCoverage("idle-drain: no idle drain fired");
    };
}

/**
 * Action-queue overflow: with a 2-entry queue, one worker caches
 * several distinct kernel pages and parks idle; the driver then frees
 * them one by one, overflowing the idle CPU's queue so the eventual
 * idle-exit drain must fall back to a full TLB flush.
 */
Scenario::Driver
overflowDriver(unsigned pages)
{
    return [=](vm::Kernel &kernel, kern::Thread &drv,
               ScenarioState *state) {
        std::vector<VAddr> vas(pages, 0);
        kern::Thread *worker = kernel.spawnThread(
            nullptr, "chk-kw",
            [&kernel, &vas, pages](kern::Thread &self) {
                for (unsigned i = 0; i < pages; ++i) {
                    vas[i] = kernel.kmemAlloc(self, kPageSize);
                    if (vas[i] != 0)
                        self.store32(vas[i], i);
                }
                self.cpu().advance(200 * kUsec);
            },
            1);
        drv.join(*worker);
        drv.sleep(2 * kMsec); // park CPU 1 in the idle loop
        const std::uint64_t overflows_before =
            kernel.pmaps().shoot().queue_overflows;
        for (unsigned i = 0; i < pages; ++i) {
            if (vas[i] != 0)
                kernel.kmemFree(drv, vas[i], kPageSize);
        }
        kern::Thread *waker = kernel.spawnThread(
            nullptr, "chk-wake",
            [&kernel](kern::Thread &self) {
                VAddr va = kernel.kmemAlloc(self, kPageSize);
                if (va != 0) {
                    self.store32(va, 1);
                    kernel.kmemFree(self, va, kPageSize);
                }
            },
            1);
        drv.join(*waker);
        if (kernel.pmaps().shoot().queue_overflows == overflows_before)
            state->failCoverage("overflow: queue never overflowed");
    };
}

hw::MachineConfig
smallConfig(unsigned ncpus = 6)
{
    hw::MachineConfig config;
    config.ncpus = ncpus;
    config.seed = 0x5eed5eedull;
    return config;
}

/** A two-node machine small enough for the explorer to grind on. */
hw::MachineConfig
numaConfig(unsigned ncpus = 8, unsigned nodes = 2)
{
    hw::MachineConfig config = smallConfig(ncpus);
    config.numa_nodes = nodes;
    return config;
}

/**
 * Migration-during-shootdown: one page hammered by a writer on each
 * node while the driver revokes and restores write access. Every
 * restore refaults both writers, so one of them always counts a
 * remote fault; at the migrate threshold the page is stolen
 * (pageProtect shootdown + copy) mid-storm, racing the driver's own
 * reprotect shootdowns -- the stale-translation hazard the oracle
 * audits.
 */
Scenario::Driver
numaMigrateDriver(unsigned rounds)
{
    return [=](vm::Kernel &kernel, kern::Thread &drv,
               ScenarioState *state) {
        vm::Task *task = kernel.createTask("chk-migrate");
        VAddr base = 0;
        if (!kernel.vmAllocate(drv, *task, &base, kPageSize, true)) {
            state->failPredicate("vmAllocate failed");
            return;
        }
        bool stop = false;
        const unsigned ncpus = kernel.machine().ncpus();
        // One writer per node, both on the same page: the frame lands
        // on whichever node faults first, so the other writer's
        // refaults are remote.
        kern::Thread *near = kernel.spawnThread(
            task, "chk-kid",
            writerChild(kernel, base, &stop, 250 * kUsec, 0), 1);
        kern::Thread *far = kernel.spawnThread(
            task, "chk-kid",
            writerChild(kernel, base, &stop, 250 * kUsec, 0),
            static_cast<std::int64_t>(ncpus - 1));
        drv.sleep(4 * kMsec);
        for (unsigned round = 0; round < rounds; ++round) {
            watchRevoked(kernel, drv, *task, base, 1, 2 * kMsec, state,
                         "migrate", round);
            drv.sleep(2 * kMsec);
        }
        stop = true;
        drv.join(*near);
        drv.join(*far);
        if (kernel.page_migrations == 0)
            state->failCoverage("migrate: no page migrated");
    };
}

Scenario
storm(std::string name, std::string summary, hw::MachineConfig config,
      Tick bound = 400 * kMsec)
{
    Scenario s;
    s.name = std::move(name);
    s.summary = std::move(summary);
    s.config = config;
    s.bound = bound;
    s.driver = stormDriver(3, 3, 4 * kMsec, 2 * kMsec);
    return s;
}

/** A small tagged-TLB machine running the LazyAsid policy. */
hw::MachineConfig
lazyAsidConfig()
{
    hw::MachineConfig config = smallConfig(4);
    config.setShootdownPolicy(hw::ShootdownPolicy::LazyAsid);
    // No scheduler timer: a tick landing while the driver is mid-op
    // can park it until the *next* tick (up to a full period), which
    // would push an unperturbed revoke out of the writer's on-CPU
    // window and make the baseline's in-window timing nondeterministic
    // in practice. All threads here block voluntarily, so dispatch
    // stays prompt without preemption.
    config.timer_period = 0;
    return config;
}

/**
 * The lazy-ASID alternation: a writer in task A pinned to CPU 1
 * alternates with a filler thread in task B on the same processor, so
 * A's tagged TLB entries survive on CPU 1 while B's space is the
 * current one there. The driver (CPU 0) keys each revocation off the
 * writer's touch signal: unperturbed, the revoke lands inside the
 * writer's 500 us on-CPU window, A is current on CPU 1, and the
 * policy takes the ordinary IPI path -- the run survives even with
 * the generation check planted out. Only a schedule that delays the
 * revoke into the writer's 2.5 ms sleep makes CPU 1 a deferred-flush
 * target; the healthy context-load hook then flushes A's stale
 * entries when the writer wakes, while the planted bug
 * (PlantedBug::SkipAsidGenCheck) leaves the revoked translation live
 * and the writer's next store lands through it.
 *
 * After the writer exits, one more revocation is issued while the
 * filler's space is current: that one must take the deferred path
 * even unperturbed, which is the baseline coverage check that the
 * lazy machinery engaged at all.
 */
void
lazyAsidDriver(vm::Kernel &kernel, kern::Thread &drv,
               ScenarioState *state)
{
    vm::Task *task = kernel.createTask("chk-asid");
    vm::Task *other = kernel.createTask("chk-asid-b");
    VAddr target = 0;
    VAddr fill = 0;
    if (!kernel.vmAllocate(drv, *task, &target, kPageSize, true) ||
        !kernel.vmAllocate(drv, *other, &fill, kPageSize, true)) {
        state->failPredicate("vmAllocate failed");
        return;
    }
    bool stop_writer = false;
    bool stop_filler = false;
    // Touch signal, bumped right after each store; the driver keys its
    // revoke off it so the revoke lands while the writer still owns
    // its on-CPU window.
    std::uint32_t beat = 0;
    kern::Thread *writer = kernel.spawnThread(
        task, "chk-kid",
        [&kernel, target, &stop_writer, &beat](kern::Thread &self) {
            std::uint32_t n = 0;
            while (!stop_writer) {
                kern::AccessResult r = self.access(target, ProtWrite);
                if (r.ok)
                    kernel.machine().mem().write32(r.paddr, ++n);
                else
                    self.access(target, ProtRead);
                ++beat;
                // On-CPU window: A stays current here. It must
                // comfortably cover the driver's beat-to-revoke
                // latency (the vm op's kernel section and map walk are
                // a few hundred us), so only an injected delay pushes
                // the revoke past it.
                self.cpu().advance(2000 * kUsec);
                // Off-CPU window: the filler's space is context-loaded
                // over A's.
                self.sleep(2500 * kUsec);
            }
        },
        1);
    kern::Thread *filler = kernel.spawnThread(
        other, "chk-filler",
        [fill, &stop_filler](kern::Thread &self) {
            while (!stop_filler) {
                self.access(fill, ProtRead);
                self.compute(200 * kUsec);
                // Voluntary yield: with the scheduler timer off, the
                // woken writer is only dispatched at a block point, so
                // keep them frequent.
                self.sleep(100 * kUsec);
            }
        },
        1);
    drv.sleep(4 * kMsec);
    for (unsigned round = 0; round < 3; ++round) {
        const std::uint32_t seen = beat;
        while (beat == seen)
            drv.sleep(20 * kUsec);
        // The 4 ms settle spans the writer's wakeup (its 2.5 ms sleep
        // plus the filler's sub-300-us dispatch grain), so a store
        // through a stale surviving entry always lands inside the
        // watch.
        watchRevoked(kernel, drv, *task, target, 1, 4 * kMsec, state,
                     "asid", round);
        drv.sleep(2 * kMsec);
    }
    stop_writer = true;
    drv.join(*writer);
    // Coverage revoke: A cannot be current on CPU 1 now.
    if (!kernel.vmProtect(drv, *task, target, kPageSize, ProtRead))
        state->failPredicate("vmProtect(cover) failed");
    stop_filler = true;
    drv.join(*filler);
    if (kernel.pmaps().shoot().flushes_deferred == 0)
        state->failCoverage("asid: no deferred flush");
}

// ---- Device / IOTLB scenarios (docs/DEVICES.md) --------------------

/**
 * Re-arm DMA after a protection restore: increases are repaired
 * lazily by faults, and a device cannot fault -- its walks keep
 * seeing the read-only PTE until a CPU touch repairs the mapping.
 * This is the CPU half of a real driver's buffer-recycle cycle.
 */
void
repairForDma(vm::Kernel &kernel, kern::Thread &drv, vm::Task &task,
             VAddr va, unsigned pages)
{
    kern::Thread *fixer = kernel.spawnThread(
        &task, "chk-repair",
        [va, pages](kern::Thread &self) {
            for (unsigned i = 0; i < pages; ++i)
                self.access(va + i * kPageSize, ProtWrite);
        },
        1);
    drv.join(*fixer);
}

/** A small machine with @p devices DMA devices on a 4-entry IOTLB. */
hw::MachineConfig
devConfig(unsigned devices, unsigned ncpus = 4)
{
    hw::MachineConfig config = smallConfig(ncpus);
    config.devices = devices;
    config.iotlb_entries = 4;
    return config;
}

/**
 * The device storm shared by dev-dma-race and broken-iotlb: device 0
 * streams DMA writes into a target page, sweeping 2x-capacity decoy
 * reads after each write so the target's IOTLB entry is evicted (and
 * walked afresh) every beat. The driver keys each revocation off the
 * device's beat signal plus a margin, so the unperturbed revoke lands
 * in the inter-beat gap, long after the sweep -- only a perturbation
 * that parks the device inside the sweep leaves the stale writable
 * entry resident across the revoke.
 *
 * Right after each revocation the driver toggles protection on an
 * unrelated task's page @p probes times: each toggle is a pmap op,
 * and each op is a stale-translation audit. The healthy drain leaves
 * nothing for those audits to find; the planted drain bug
 * (PlantedBug::SkipIotlbInvalidate) clears the action-needed excuse
 * while skipping the invalidations, so a probe landing between the
 * device's drain and the sweep's eviction sees the stale writable
 * entry against the read-only PTE.
 *
 * The predicate is the device-side analog of watchRevoked: the
 * writes_committed counter may not move between the revocation's
 * completion and the restore -- the initiator's device sync already
 * waited out any in-flight transfer, and every later write must fault
 * on the read-only PTE.
 */
Scenario::Driver
devStormDriver(unsigned rounds, unsigned decoys, Tick margin,
               Tick settle, unsigned probes)
{
    return [=](vm::Kernel &kernel, kern::Thread &drv,
               ScenarioState *state) {
        vm::Task *task = kernel.createTask("chk-dev");
        vm::Task *aud = kernel.createTask("chk-dev-audit");
        VAddr base = 0;
        VAddr probe = 0;
        if (!kernel.vmAllocate(drv, *task, &base,
                               (1 + decoys) * kPageSize, true) ||
            !kernel.vmAllocate(drv, *aud, &probe, kPageSize, true)) {
            state->failPredicate("vmAllocate failed");
            return;
        }
        // Fault every page in up front: the IOMMU walker does not
        // fault -- a DMA against an unmapped page is a dropped
        // operation, not a lazy fill.
        kern::Thread *toucher = kernel.spawnThread(
            task, "chk-touch",
            [decoys, base](kern::Thread &self) {
                for (unsigned i = 0; i <= decoys; ++i)
                    self.access(base + i * kPageSize, ProtWrite);
            },
            1);
        drv.join(*toucher);
        kern::Thread *audtouch = kernel.spawnThread(
            aud, "chk-touch",
            [probe](kern::Thread &self) {
                self.access(probe, ProtWrite);
            },
            1);
        drv.join(*audtouch);

        dev::DmaDevice &device = kernel.device(0);
        dev::DmaStream stream;
        stream.pmap = &task->pmap();
        stream.target = vaToVpn(base);
        stream.decoy_base = vaToVpn(base + kPageSize);
        stream.decoys = decoys;
        // The idle gap must swallow the driver's whole revoke
        // pipeline: from the beat bump it observes, through the
        // margin, the VM-op entry costs, and the locked pmap section
        // up to the drain request -- ~1.2 ms all told. A device walk
        // that starts while that section holds the lock stalls
        // in-flight until the drain request aborts it, so a gap
        // shorter than the pipeline would park the device inside the
        // locked window on every unperturbed beat.
        stream.gap = 1500 * kUsec;
        device.startStream(stream);
        drv.sleep(2 * kMsec);
        for (unsigned round = 0; round < rounds; ++round) {
            // Sync to the device: wait out the current beat, then the
            // margin (the sweep takes ~70 us unperturbed), so the
            // revoke lands in the gap.
            const std::uint64_t seen = device.beat();
            while (device.beat() == seen)
                drv.sleep(20 * kUsec);
            drv.sleep(margin);
            if (!kernel.vmProtect(drv, *task, base, kPageSize,
                                  ProtRead)) {
                state->failPredicate("vmProtect(read-only) failed");
                break;
            }
            const std::uint64_t committed = device.writes_committed;
            for (unsigned p = 0; p < probes; ++p) {
                drv.sleep(25 * kUsec);
                kernel.vmProtect(drv, *aud, probe, kPageSize,
                                 (p & 1) ? ProtReadWrite : ProtRead);
            }
            drv.sleep(settle);
            if (device.writes_committed != committed) {
                char msg[96];
                std::snprintf(
                    msg, sizeof(msg),
                    "dev round %u: DMA write committed "
                    "through a revoked mapping (%llu -> %llu)",
                    round, static_cast<unsigned long long>(committed),
                    static_cast<unsigned long long>(
                        device.writes_committed));
                state->failPredicate(msg);
            }
            if (!kernel.vmProtect(drv, *task, base, kPageSize,
                                  ProtReadWrite))
                state->failPredicate("vmProtect(restore) failed");
            repairForDma(kernel, drv, *task, base, 1);
            drv.sleep(settle);
        }
        device.stop();
        while (device.streaming())
            drv.sleep(100 * kUsec);
        if (device.writes_committed == 0)
            state->failCoverage("dev: no DMA write committed");
        if (device.dma_faults == 0)
            state->failCoverage("dev: no revoked DMA was dropped");
        if (kernel.pmaps().shoot().device_commands == 0)
            state->failCoverage("dev: no device command sent");
    };
}

/**
 * dev-masked: with a 2 ms wire occupancy every revocation lands
 * mid-transfer -- the device is the "masked responder" of the device
 * world, unable to apply its queued action until the wire is quiet.
 * The initiator's drain request bounds the conflict at
 * hw::kDevDrainBound: the transfer aborts, nothing lands in memory, and
 * the initiator's device sync observes a quiet wire before the pmap
 * change is made.
 */
Scenario::Driver
devAbortDriver(unsigned rounds)
{
    return [=](vm::Kernel &kernel, kern::Thread &drv,
               ScenarioState *state) {
        vm::Task *task = kernel.createTask("chk-dev-mask");
        VAddr base = 0;
        if (!kernel.vmAllocate(drv, *task, &base, kPageSize, true)) {
            state->failPredicate("vmAllocate failed");
            return;
        }
        kern::Thread *toucher = kernel.spawnThread(
            task, "chk-touch",
            [base](kern::Thread &self) { self.access(base, ProtWrite); },
            1);
        drv.join(*toucher);

        dev::DmaDevice &device = kernel.device(0);
        dev::DmaStream stream;
        stream.pmap = &task->pmap();
        stream.target = vaToVpn(base);
        stream.gap = 100 * kUsec;
        device.startStream(stream);
        for (unsigned round = 0; round < rounds; ++round) {
            // The beat bumps at a commit; the next transfer spans
            // [gap, gap + 2 ms] after it, so a revoke half a
            // millisecond in is reliably mid-transfer.
            const std::uint64_t seen = device.beat();
            while (device.beat() == seen)
                drv.sleep(20 * kUsec);
            drv.sleep(500 * kUsec);
            if (!kernel.vmProtect(drv, *task, base, kPageSize,
                                  ProtRead)) {
                state->failPredicate("vmProtect(read-only) failed");
                break;
            }
            const std::uint64_t committed = device.writes_committed;
            drv.sleep(2 * kMsec);
            if (device.writes_committed != committed) {
                char msg[96];
                std::snprintf(
                    msg, sizeof(msg),
                    "mask round %u: aborted/revoked DMA "
                    "write landed (%llu -> %llu)",
                    round, static_cast<unsigned long long>(committed),
                    static_cast<unsigned long long>(
                        device.writes_committed));
                state->failPredicate(msg);
            }
            if (!kernel.vmProtect(drv, *task, base, kPageSize,
                                  ProtReadWrite))
                state->failPredicate("vmProtect(restore) failed");
            repairForDma(kernel, drv, *task, base, 1);
            drv.sleep(kMsec);
        }
        device.stop();
        while (device.streaming())
            drv.sleep(100 * kUsec);
        if (device.dma_aborts == 0)
            state->failCoverage("mask: no transfer aborted");
        if (kernel.pmaps().shoot().device_sync_waits == 0)
            state->failCoverage("mask: no device sync wait");
        if (device.writes_committed == 0)
            state->failCoverage("mask: no DMA write committed");
    };
}

/**
 * dev-numa-remote: two devices on a two-node machine -- device 0 on
 * node 0, device 1 on node 1 (MachineConfig::nodeOfDevice) -- each
 * streaming DMA writes into its own page of one task. The driver's
 * revocations must deliver consistency commands to both, the node-1
 * command crossing the interconnect at remote cost, while the healthy
 * drains keep both IOTLBs clean.
 */
Scenario::Driver
devNumaDriver(unsigned rounds)
{
    return [=](vm::Kernel &kernel, kern::Thread &drv,
               ScenarioState *state) {
        vm::Task *task = kernel.createTask("chk-dev-numa");
        VAddr base = 0;
        if (!kernel.vmAllocate(drv, *task, &base, 2 * kPageSize,
                               true)) {
            state->failPredicate("vmAllocate failed");
            return;
        }
        kern::Thread *toucher = kernel.spawnThread(
            task, "chk-touch",
            [base](kern::Thread &self) {
                self.access(base, ProtWrite);
                self.access(base + kPageSize, ProtWrite);
            },
            1);
        drv.join(*toucher);

        // No decoys: the entries stay resident, so steady state runs
        // on IOTLB hits and every revocation has a live entry to kill
        // on each device.
        for (unsigned d = 0; d < 2; ++d) {
            dev::DmaStream stream;
            stream.pmap = &task->pmap();
            stream.target = vaToVpn(base + d * kPageSize);
            stream.gap = 300 * kUsec;
            kernel.device(d).startStream(stream);
        }
        drv.sleep(2 * kMsec);
        for (unsigned round = 0; round < rounds; ++round) {
            if (!kernel.vmProtect(drv, *task, base, 2 * kPageSize,
                                  ProtRead)) {
                state->failPredicate("vmProtect(read-only) failed");
                break;
            }
            const std::uint64_t committed =
                kernel.device(0).writes_committed +
                kernel.device(1).writes_committed;
            drv.sleep(1500 * kUsec);
            const std::uint64_t now_committed =
                kernel.device(0).writes_committed +
                kernel.device(1).writes_committed;
            if (now_committed != committed) {
                char msg[96];
                std::snprintf(
                    msg, sizeof(msg),
                    "numa-dev round %u: DMA write committed "
                    "through a revoked mapping (%llu -> %llu)",
                    round, static_cast<unsigned long long>(committed),
                    static_cast<unsigned long long>(now_committed));
                state->failPredicate(msg);
            }
            if (!kernel.vmProtect(drv, *task, base, 2 * kPageSize,
                                  ProtReadWrite))
                state->failPredicate("vmProtect(restore) failed");
            repairForDma(kernel, drv, *task, base, 2);
            drv.sleep(1500 * kUsec);
        }
        for (unsigned d = 0; d < 2; ++d)
            kernel.device(d).stop();
        while (kernel.device(0).streaming() ||
               kernel.device(1).streaming())
            drv.sleep(100 * kUsec);
        if (kernel.pmaps().shoot().cross_node_device_commands == 0)
            state->failCoverage("numa-dev: no cross-node command");
        if (kernel.device(0).tlb().hits + kernel.device(1).tlb().hits ==
            0)
            state->failCoverage("numa-dev: no IOTLB hit");
        if (kernel.device(0).writes_committed +
                kernel.device(1).writes_committed ==
            0)
            state->failCoverage("numa-dev: no DMA write committed");
    };
}

} // namespace

std::vector<Scenario>
builtinScenarios()
{
    std::vector<Scenario> out;

    out.push_back(storm("storm-baseline",
                        "writer/reprotect storm, Multimax baseline",
                        smallConfig()));

    {
        Scenario s;
        s.name = "concurrent-initiators";
        s.summary = "two initiators reprotecting one pmap";
        s.config = smallConfig();
        s.bound = 400 * kMsec;
        s.driver = concurrentInitiatorsDriver(2, 3);
        out.push_back(s);
    }
    {
        Scenario s;
        s.name = "idle-drain";
        s.summary = "kernel shootdown vs idle CPUs draining on exit";
        s.config = smallConfig();
        s.bound = 400 * kMsec;
        s.driver = idleDrainDriver(3);
        out.push_back(s);
    }
    {
        Scenario s;
        s.name = "overflow-full-flush";
        s.summary = "action-queue overflow forces the full flush";
        s.config = smallConfig();
        s.config.action_queue_size = 2;
        s.bound = 400 * kMsec;
        s.driver = overflowDriver(5);
        out.push_back(s);
    }
    {
        Scenario s;
        s.name = "masked-responder";
        s.summary = "responders inside interrupt-masked sections";
        s.config = smallConfig();
        s.bound = 600 * kMsec;
        s.driver = stormDriver(3, 3, 4 * kMsec, 3 * kMsec,
                               1200 * kUsec);
        out.push_back(s);
    }

    // ---- Section 9 hardware options, one storm each ----------------
    {
        hw::MachineConfig c = smallConfig();
        c.high_priority_ipi = true;
        out.push_back(storm("hw-hipri-ipi",
                            "high-priority shootdown interrupt", c));
    }
    {
        hw::MachineConfig c = smallConfig();
        c.ipi_send = hw::IpiSend::Multicast;
        out.push_back(storm("hw-multicast", "multicast IPI", c));
    }
    {
        hw::MachineConfig c = smallConfig();
        c.ipi_send = hw::IpiSend::Broadcast;
        out.push_back(storm("hw-broadcast", "broadcast IPI", c));
    }
    {
        hw::MachineConfig c = smallConfig();
        c.tlb_software_reload = true;
        out.push_back(
            storm("hw-software-reload", "software TLB reload", c));
    }
    {
        hw::MachineConfig c = smallConfig();
        c.tlb_refmod = hw::TlbRefmod::None;
        out.push_back(storm("hw-no-writeback",
                            "TLB without ref/mod writeback", c));
    }
    {
        hw::MachineConfig c = smallConfig();
        c.tlb_refmod = hw::TlbRefmod::Interlocked;
        out.push_back(storm("hw-interlocked-refmod",
                            "interlocked ref/mod updates", c));
    }
    {
        hw::MachineConfig c = smallConfig();
        c.setShootdownPolicy(hw::ShootdownPolicy::RemoteInvalidate);
        out.push_back(storm("hw-remote-invalidate",
                            "remote TLB entry invalidation", c));
    }
    {
        hw::MachineConfig c = smallConfig();
        c.tlb_asid_tags = true;
        out.push_back(
            storm("hw-asid-tags", "address-space tagged TLB", c));
    }
    {
        hw::MachineConfig c = smallConfig();
        c.virtual_cache = true;
        c.tlb_refmod = hw::TlbRefmod::None;
        out.push_back(storm("hw-virtual-cache",
                            "virtually addressed cache flushes", c));
    }
    {
        hw::MachineConfig c = smallConfig(8);
        c.kernel_pools = 2;
        out.push_back(storm("pools",
                            "Section 8 per-pool kernel restructuring",
                            c));
    }
    {
        hw::MachineConfig c = smallConfig();
        c.setShootdownPolicy(hw::ShootdownPolicy::DelayedFlush);
        out.push_back(storm("delayed-flush",
                            "technique 2: timer-based delayed flush",
                            c, 1200 * kMsec));
    }

    // ---- NUMA scenarios (docs/NUMA.md) -----------------------------
    {
        Scenario s;
        s.name = "numa-storm";
        s.summary = "2-node storm: delegate IPIs + local forwarding";
        s.config = numaConfig();
        s.bound = 600 * kMsec;
        // 5 writers on an 8-CPU/2-node box put two targets on node 1,
        // so a cross-node shootdown needs both the delegate IPI and
        // the delegate's local forward.
        s.driver = stormDriver(
            5, 3, 4 * kMsec, 2 * kMsec, 0,
            [](vm::Kernel &kernel, ScenarioState *state) {
                if (kernel.pmaps().shoot().cross_node_ipis == 0)
                    state->failCoverage("numa: no cross-node IPI");
                if (kernel.pmaps().shoot().forwarded_ipis == 0)
                    state->failCoverage("numa: no forwarded IPI");
            });
        out.push_back(s);
    }
    {
        Scenario s;
        s.name = "numa-concurrent-initiators";
        s.summary = "initiators on different nodes, one pmap";
        s.config = numaConfig();
        s.bound = 600 * kMsec;
        // Initiator threads land on CPUs 3 and 4 = nodes 0 and 1.
        s.driver = concurrentInitiatorsDriver(2, 3);
        out.push_back(s);
    }
    {
        Scenario s;
        s.name = "numa-migration";
        s.summary = "migrate-on-remote-fault racing the storm";
        s.config = numaConfig();
        s.config.numa_placement = hw::PlacementPolicy::Migrate;
        s.config.numa_migrate_threshold = 2;
        s.bound = 600 * kMsec;
        s.driver = numaMigrateDriver(4);
        out.push_back(s);
    }
    {
        Scenario s;
        s.name = "numa-replicas";
        s.summary = "per-node page-table replicas under the storm";
        s.config = numaConfig();
        s.config.numa_pt_replicas = true;
        s.bound = 600 * kMsec;
        s.driver = stormDriver(
            5, 3, 4 * kMsec, 2 * kMsec, 0,
            [](vm::Kernel &kernel, ScenarioState *state) {
                if (kernel.pmaps().kernelPmap().table().replicas() < 2)
                    state->failCoverage("replicas: not enabled");
            });
        out.push_back(s);
    }
    {
        Scenario s;
        s.name = "numa-masked-delegate";
        s.summary = "delegate CPUs stuck in masked sections";
        s.config = numaConfig();
        s.bound = 800 * kMsec;
        // Writers interleave interrupt-masked sections, so the node-1
        // delegate is often unable to take its cross-node IPI -- the
        // forward set must still drain (idle exit or a later respond)
        // for every shootdown to terminate within the bound.
        s.driver = stormDriver(
            5, 3, 4 * kMsec, 3 * kMsec, 1200 * kUsec,
            [](vm::Kernel &kernel, ScenarioState *state) {
                if (kernel.pmaps().shoot().forwarded_ipis == 0)
                    state->failCoverage("delegate: no forwarded IPI");
            });
        out.push_back(s);
    }

    // ---- Device / IOTLB scenarios (docs/DEVICES.md) ----------------
    {
        // Healthy twin of broken-iotlb: same machine, same driver,
        // but the drain applies its invalidations, so neither the
        // commit predicate nor the audit probes ever fire.
        Scenario s;
        s.name = "dev-dma-race";
        s.summary = "DMA stream racing revocations through an IOTLB";
        s.config = devConfig(1);
        s.bound = 600 * kMsec;
        s.driver = devStormDriver(3, 8, 250 * kUsec, 1500 * kUsec, 8);
        out.push_back(s);
    }
    {
        Scenario s;
        s.name = "dev-masked";
        s.summary = "revocations against a device mid-transfer";
        s.config = devConfig(1);
        s.config.dev_transfer_cost = 2 * kMsec;
        s.bound = 600 * kMsec;
        s.driver = devAbortDriver(3);
        out.push_back(s);
    }
    {
        Scenario s;
        s.name = "dev-numa-remote";
        s.summary = "device on the remote node answering commands";
        s.config = numaConfig();
        s.config.devices = 2;
        s.config.iotlb_entries = 4;
        s.bound = 600 * kMsec;
        s.driver = devNumaDriver(3);
        out.push_back(s);
    }

    {
        // Healthy twin of broken-asid: same machine, same schedule
        // sensitivity, but the context-load generation check is live,
        // so every deferred flush is applied before the writer's
        // space becomes current again.
        Scenario s;
        s.name = "policy-lazy-asid";
        s.summary = "lazy-ASID deferred flushes under revocation";
        s.config = lazyAsidConfig();
        s.bound = 400 * kMsec;
        s.driver = lazyAsidDriver;
        out.push_back(s);
    }

    // ---- Generated (property-based) scenarios ----------------------
    // Two vmgen entries ride in the library so the explorer lanes and
    // the span-balance validator exercise generated workloads by
    // default; any other vmgen-<seed>[x<nodes>] name still resolves
    // on demand through resolveScenario().
    {
        VmGenOptions g;
        g.seed = 1;
        out.push_back(vmgenScenario(g));
    }
    {
        VmGenOptions g;
        g.seed = 2;
        g.numa_nodes = 2;
        g.ncpus = 4;
        out.push_back(vmgenScenario(g));
    }
    // The device-enabled NUMA param point: the same generated op
    // sequence with a DMA device attached to the fuzz task, so every
    // revocation also runs the device command / drain path and each
    // DMA op is checked against the model ("vmgen-3x2d").
    {
        VmGenOptions g;
        g.seed = 3;
        g.numa_nodes = 2;
        g.ncpus = 4;
        g.devices = true;
        out.push_back(vmgenScenario(g));
    }

    return out;
}

Scenario
brokenStallScenario()
{
    Scenario s;
    s.name = "broken-stall";
    s.summary = "planted bug: responders skip the phase-2 stall";
    s.config = smallConfig();
    s.config.planted_bug = hw::PlantedBug::SkipResponderStall;
    s.bound = 400 * kMsec;
    // One writer: with a single responder the no-stall window is a
    // few microseconds wide and the unperturbed run happens to
    // survive it, so detection genuinely requires exploration.
    s.driver = stormDriver(1, 3, 4 * kMsec, 2 * kMsec);
    return s;
}

Scenario
brokenReplicaScenario()
{
    Scenario s;
    s.name = "broken-replica";
    s.summary = "planted bug: replica sync deferred past the rejoin";
    // One CPU per node: the writer (CPU 1) walks the node-1 replica,
    // which the planted bug leaves stale for a window after the
    // initiator (CPU 0) unlocks -- a reload in that window re-caches
    // the revoked PTE. The window is a single memory access wide, so
    // the unperturbed run survives and detection requires exploration
    // (the oracle's TLB-vs-primary audit catches the stale entry).
    s.config = numaConfig(2, 2);
    s.config.numa_pt_replicas = true;
    s.config.planted_bug = hw::PlantedBug::DeferReplicaSync;
    s.bound = 600 * kMsec;
    s.driver = stormDriver(1, 3, 4 * kMsec, 2 * kMsec);
    return s;
}

Scenario
brokenL0Scenario()
{
    Scenario s;
    s.name = "broken-l0";
    s.summary = "planted bug: responders skip the L0 cache clear";
    s.config = smallConfig(4);
    s.config.planted_bug = hw::PlantedBug::SkipL0Invalidate;
    s.bound = 400 * kMsec;
    s.driver = [](vm::Kernel &kernel, kern::Thread &drv,
                  ScenarioState *state) {
        vm::Task *task = kernel.createTask("chk-l0");
        // Twice the 4-slot L0: a fast-path hit does not refill, so a
        // sweep of exactly l0_size pages can be partially resident and
        // leave the target slot alive. At 2x the capacity every sweep
        // access has reuse distance >= 8 and must miss, so four of its
        // fills land before the sweep ends and the target slot is out
        // by construction.
        constexpr unsigned kDecoys = 8;
        VAddr base = 0;
        if (!kernel.vmAllocate(drv, *task, &base,
                               (1 + kDecoys) * kPageSize, true)) {
            state->failPredicate("vmAllocate failed");
            return;
        }
        const VAddr target = base;
        const VAddr decoys = base + kPageSize;
        bool stop = false;
        // Loop counter, bumped right after the target touch. The
        // driver keys its revoke off this signal so the revoke lands a
        // fixed interval after the touch -- far past the decoy sweep
        // that flushes the target out of the L0, unless a perturbation
        // parks the writer inside the sweep.
        std::uint32_t beat = 0;
        kern::Thread *writer = kernel.spawnThread(
            task, "chk-kid",
            [&kernel, target, decoys, &stop, &beat](kern::Thread &self) {
                std::uint32_t n = 0;
                while (!stop) {
                    kern::AccessResult r = self.access(target, ProtWrite);
                    if (r.ok)
                        kernel.machine().mem().write32(r.paddr, ++n);
                    else
                        self.access(target, ProtRead);
                    ++beat;
                    // The sweep: a few microseconds of decoy walks,
                    // after which the target slot has rotated out of
                    // the 4-entry L0.
                    for (unsigned i = 0; i < kDecoys; ++i)
                        self.access(decoys + i * kPageSize, ProtRead);
                    self.cpu().advance(250 * kUsec);
                }
            },
            1);
        drv.sleep(4 * kMsec);
        for (unsigned round = 0; round < 3; ++round) {
            // Sync to the writer: wait out the current beat, then give
            // the sweep 250 us to finish (it takes ~40 us unperturbed)
            // before revoking. Only a schedule that delays the sweep
            // by most of that margin leaves the stale slot resident at
            // the revoke's completion.
            const std::uint32_t seen = beat;
            while (beat == seen)
                drv.sleep(20 * kUsec);
            drv.sleep(250 * kUsec);
            watchRevoked(kernel, drv, *task, target, 1, 2 * kMsec, state,
                         "l0", round);
            drv.sleep(2 * kMsec);
        }
        stop = true;
        drv.join(*writer);
        if (kernel.pmaps().shoot().initiated == 0)
            state->failCoverage("l0: no shootdown ran");
    };
    return s;
}

Scenario
brokenAsidScenario()
{
    Scenario s;
    s.name = "broken-asid";
    s.summary = "planted bug: context load skips the ASID check";
    // Same machine and driver as policy-lazy-asid, but the LazyAsid
    // context-load hook returns before consulting the deferred-flush
    // set, so a space whose flush was deferred comes back current
    // with its revoked translations still live. Unperturbed, every
    // revoke lands inside the writer's on-CPU window (no defer on
    // CPU 1), so the run survives; detection requires a schedule that
    // pushes a revoke into the writer's sleep.
    s.config = lazyAsidConfig();
    s.config.planted_bug = hw::PlantedBug::SkipAsidGenCheck;
    s.bound = 400 * kMsec;
    s.driver = lazyAsidDriver;
    return s;
}

Scenario
brokenIotlbScenario()
{
    Scenario s;
    s.name = "broken-iotlb";
    s.summary = "planted bug: device drain skips the invalidations";
    // Same machine and driver as dev-dma-race, but the device's drain
    // clears the action-needed flag (the audit excuse) and charges
    // full cost while skipping the IOTLB invalidations. Unperturbed,
    // every drain runs when the decoy sweep has already evicted the
    // target's entry, so nothing stale survives and the baseline
    // passes; a schedule that parks the device inside the sweep
    // leaves the stale writable entry resident and flag-less when the
    // driver's audit probes land, which the oracle's IOTLB-vs-page-
    // table audit flags.
    s.config = devConfig(1);
    s.config.planted_bug = hw::PlantedBug::SkipIotlbInvalidate;
    s.bound = 600 * kMsec;
    s.driver = devStormDriver(3, 8, 250 * kUsec, 1500 * kUsec, 8);
    return s;
}

const Scenario *
findScenario(const std::vector<Scenario> &library,
             const std::string &name)
{
    for (const Scenario &s : library) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

std::vector<Scenario>
plantedBugScenarios()
{
    return {brokenStallScenario(), brokenReplicaScenario(),
            brokenL0Scenario(), brokenAsidScenario(),
            brokenIotlbScenario()};
}

bool
resolveScenario(const std::string &name, Scenario *out)
{
    VmGenOptions g;
    if (parseVmgenName(name, &g)) {
        *out = vmgenScenario(g);
        return true;
    }
    const auto take = [&](std::vector<Scenario> library) {
        for (Scenario &s : library) {
            if (s.name == name) {
                *out = std::move(s);
                return true;
            }
        }
        return false;
    };
    return take(builtinScenarios()) || take(plantedBugScenarios());
}

} // namespace mach::chk
