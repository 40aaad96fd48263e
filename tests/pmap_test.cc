/**
 * @file
 * Tests for the pmap module: operations on physical maps, processor
 * bookkeeping, lazy evaluation, the pv table, and the consistency
 * audit.
 */

#include <gtest/gtest.h>

#include "chk/oracle.hh"
#include "pmap/shootdown.hh"
#include "vm/kernel.hh"

namespace mach
{
namespace
{

hw::MachineConfig
pmapConfig()
{
    setLogQuiet(true);
    hw::MachineConfig config;
    config.ncpus = 4;
    return config;
}

void
inKernel(const hw::MachineConfig &config,
         const std::function<void(vm::Kernel &, kern::Thread &)> &body)
{
    vm::Kernel kernel(config);
    kernel.start();
    bool finished = false;
    kernel.spawnThread(nullptr, "pmap-driver",
                       [&](kern::Thread &driver) {
                           body(kernel, driver);
                           finished = true;
                           kernel.machine().ctx().requestStop();
                       });
    kernel.machine().run();
    ASSERT_TRUE(finished);
}

void
inKernel(const std::function<void(vm::Kernel &, kern::Thread &)> &body)
{
    inKernel(pmapConfig(), body);
}

TEST(PmapOps, EnterInstallsPte)
{
    inKernel([](vm::Kernel &kernel, kern::Thread &drv) {
        auto pmap = kernel.pmaps().createPmap();
        const Pfn frame = kernel.machine().mem().allocFrame();
        pmap->enter(drv, 100, frame, ProtReadWrite);
        const std::uint32_t pte = pmap->table().readPte(100);
        EXPECT_TRUE(hw::pte::valid(pte));
        EXPECT_EQ(hw::pte::pfn(pte), frame);
        EXPECT_EQ(hw::pte::prot(pte), ProtReadWrite);
        kernel.machine().mem().freeFrame(frame);
    });
}

TEST(PmapOps, RemoveClearsRange)
{
    inKernel([](vm::Kernel &kernel, kern::Thread &drv) {
        auto pmap = kernel.pmaps().createPmap();
        std::vector<Pfn> frames;
        for (Vpn v = 10; v < 15; ++v) {
            frames.push_back(kernel.machine().mem().allocFrame());
            pmap->enter(drv, v, frames.back(), ProtRead);
        }
        pmap->remove(drv, 11, 14);
        EXPECT_FALSE(hw::pte::valid(pmap->table().readPte(11)));
        EXPECT_FALSE(hw::pte::valid(pmap->table().readPte(13)));
        EXPECT_TRUE(hw::pte::valid(pmap->table().readPte(10)));
        EXPECT_TRUE(hw::pte::valid(pmap->table().readPte(14)));
        for (Pfn f : frames)
            kernel.machine().mem().freeFrame(f);
    });
}

TEST(PmapOps, ProtectPreservesRefModBits)
{
    inKernel([](vm::Kernel &kernel, kern::Thread &drv) {
        auto pmap = kernel.pmaps().createPmap();
        const Pfn frame = kernel.machine().mem().allocFrame();
        pmap->enter(drv, 7, frame, ProtReadWrite);
        // Simulate hardware setting ref/mod.
        pmap->table().writePte(
            7, hw::pte::make(frame, ProtReadWrite, true, true));
        pmap->protect(drv, 7, 8, ProtRead);
        const std::uint32_t pte = pmap->table().readPte(7);
        EXPECT_EQ(hw::pte::prot(pte), ProtRead);
        EXPECT_TRUE(hw::pte::referenced(pte));
        EXPECT_TRUE(hw::pte::modified(pte));
        kernel.machine().mem().freeFrame(frame);
    });
}

TEST(PmapOps, ReenterSamePfnPreservesRefMod)
{
    inKernel([](vm::Kernel &kernel, kern::Thread &drv) {
        auto pmap = kernel.pmaps().createPmap();
        const Pfn frame = kernel.machine().mem().allocFrame();
        pmap->enter(drv, 7, frame, ProtRead);
        pmap->table().writePte(7,
                               hw::pte::make(frame, ProtRead, true,
                                             false));
        pmap->enter(drv, 7, frame, ProtReadWrite); // Upgrade.
        const std::uint32_t pte = pmap->table().readPte(7);
        EXPECT_TRUE(hw::pte::referenced(pte));
        EXPECT_EQ(hw::pte::prot(pte), ProtReadWrite);
        kernel.machine().mem().freeFrame(frame);
    });
}

TEST(PmapOps, PvTableTracksMappings)
{
    inKernel([](vm::Kernel &kernel, kern::Thread &drv) {
        auto a = kernel.pmaps().createPmap();
        auto b = kernel.pmaps().createPmap();
        const Pfn frame = kernel.machine().mem().allocFrame();
        a->enter(drv, 5, frame, ProtRead);
        b->enter(drv, 9, frame, ProtRead);
        const auto &list = kernel.pmaps().pvList(frame);
        ASSERT_EQ(list.size(), 2u);
        a->remove(drv, 5, 6);
        EXPECT_EQ(kernel.pmaps().pvList(frame).size(), 1u);
        EXPECT_EQ(kernel.pmaps().pvList(frame)[0].pmap, b.get());
        b->remove(drv, 9, 10);
        EXPECT_TRUE(kernel.pmaps().pvList(frame).empty());
        kernel.machine().mem().freeFrame(frame);
    });
}

TEST(PmapOps, PageProtectRemovesEveryMapping)
{
    inKernel([](vm::Kernel &kernel, kern::Thread &drv) {
        auto a = kernel.pmaps().createPmap();
        auto b = kernel.pmaps().createPmap();
        const Pfn frame = kernel.machine().mem().allocFrame();
        a->enter(drv, 5, frame, ProtReadWrite);
        b->enter(drv, 9, frame, ProtReadWrite);
        // Mark one mapping modified.
        a->table().writePte(
            5, hw::pte::make(frame, ProtReadWrite, true, true));

        const bool modified = pmap::Pmap::pageProtect(
            kernel.pmaps(), drv, frame, ProtNone);
        EXPECT_TRUE(modified);
        EXPECT_FALSE(hw::pte::valid(a->table().readPte(5)));
        EXPECT_FALSE(hw::pte::valid(b->table().readPte(9)));
        EXPECT_TRUE(kernel.pmaps().pvList(frame).empty());
        kernel.machine().mem().freeFrame(frame);
    });
}

TEST(PmapOps, PageProtectReportsCleanPage)
{
    inKernel([](vm::Kernel &kernel, kern::Thread &drv) {
        auto a = kernel.pmaps().createPmap();
        const Pfn frame = kernel.machine().mem().allocFrame();
        a->enter(drv, 5, frame, ProtRead);
        EXPECT_FALSE(pmap::Pmap::pageProtect(kernel.pmaps(), drv,
                                             frame, ProtNone));
        kernel.machine().mem().freeFrame(frame);
    });
}

TEST(PmapOps, CollectDropsTablesForRebuild)
{
    inKernel([](vm::Kernel &kernel, kern::Thread &drv) {
        auto pmap = kernel.pmaps().createPmap();
        const Pfn frame = kernel.machine().mem().allocFrame();
        pmap->enter(drv, 123, frame, ProtRead);
        EXPECT_EQ(pmap->table().leafCount(), 1u);
        pmap->collect(drv);
        EXPECT_EQ(pmap->table().leafCount(), 0u);
        // Reconstructed from scratch by later enters (Section 2).
        pmap->enter(drv, 123, frame, ProtRead);
        EXPECT_TRUE(hw::pte::valid(pmap->table().readPte(123)));
        pmap->remove(drv, 123, 124);
        kernel.machine().mem().freeFrame(frame);
    });
}

TEST(PmapBookkeeping, ActivateDeactivateTrackUse)
{
    inKernel([](vm::Kernel &kernel, kern::Thread &drv) {
        auto pmap = kernel.pmaps().createPmap();
        kern::Cpu &cpu = drv.cpu();
        EXPECT_FALSE(pmap->inUse(cpu.id()));
        pmap->activate(cpu);
        EXPECT_TRUE(pmap->inUse(cpu.id()));
        EXPECT_EQ(cpu.cur_pmap, pmap.get());
        EXPECT_EQ(pmap->useCount(), 1u);
        pmap->deactivate(cpu);
        EXPECT_FALSE(pmap->inUse(cpu.id()));
        EXPECT_EQ(cpu.cur_pmap, nullptr);
    });
}

TEST(PmapBookkeeping, DeactivateFlushesTlbOnBaselineHardware)
{
    inKernel([](vm::Kernel &kernel, kern::Thread &drv) {
        auto pmap = kernel.pmaps().createPmap();
        kern::Cpu &cpu = drv.cpu();
        pmap->activate(cpu);
        cpu.tlb().insert(pmap->space(), 4, 99, ProtRead, false);
        pmap->deactivate(cpu);
        EXPECT_EQ(cpu.tlb().validCount(), 0u);
    });
}

TEST(PmapBookkeeping, AsidTagsKeepEntriesAndInUse)
{
    hw::MachineConfig config = pmapConfig();
    config.tlb_asid_tags = true;
    inKernel(config, [](vm::Kernel &kernel, kern::Thread &drv) {
        auto pmap = kernel.pmaps().createPmap();
        kern::Cpu &cpu = drv.cpu();
        pmap->activate(cpu);
        cpu.tlb().insert(pmap->space(), 4, 99, ProtRead, false);
        pmap->deactivate(cpu);
        // Entries survive; the pmap is still considered in use here
        // (Section 10 extension).
        EXPECT_TRUE(cpu.tlb().cachesSpace(pmap->space()));
        EXPECT_TRUE(pmap->inUse(cpu.id()));
        cpu.tlb().flushSpace(pmap->space());
        pmap->clearInUse(cpu.id());
        EXPECT_FALSE(pmap->inUse(cpu.id()));
    });
}

TEST(PmapBookkeeping, KernelPmapInUseEverywhere)
{
    inKernel([](vm::Kernel &kernel, kern::Thread &) {
        pmap::Pmap &kp = kernel.pmaps().kernelPmap();
        EXPECT_TRUE(kp.isKernel());
        for (CpuId id = 0; id < kernel.machine().ncpus(); ++id)
            EXPECT_TRUE(kp.inUse(id));
        EXPECT_EQ(kp.useCount(), kernel.machine().ncpus());
    });
}

TEST(PmapBookkeeping, SpaceIdsAreUniqueAndRegistered)
{
    inKernel([](vm::Kernel &kernel, kern::Thread &) {
        auto a = kernel.pmaps().createPmap();
        auto b = kernel.pmaps().createPmap();
        EXPECT_NE(a->space(), b->space());
        EXPECT_EQ(kernel.pmaps().pmapForSpace(a->space()), a.get());
        EXPECT_EQ(kernel.pmaps().pmapForSpace(b->space()), b.get());
        const hw::SpaceId freed = a->space();
        a.reset();
        EXPECT_EQ(kernel.pmaps().pmapForSpace(freed), nullptr);
    });
}

TEST(PmapLazy, UntouchedRangeSkipsShootdown)
{
    inKernel([](vm::Kernel &kernel, kern::Thread &drv) {
        auto pmap = kernel.pmaps().createPmap();
        const pmap::ShootdownController &shoot = kernel.pmaps().shoot();
        const std::uint64_t avoided = shoot.lazy_avoided;
        const std::uint64_t initiated = shoot.initiated;
        pmap->remove(drv, 1000, 1010); // Nothing mapped there.
        EXPECT_EQ(shoot.lazy_avoided, avoided + 1);
        EXPECT_EQ(shoot.initiated, initiated);
    });
}

TEST(PmapLazy, DisabledLazyShootsWhenLeafPresent)
{
    hw::MachineConfig config = pmapConfig();
    config.lazy_evaluation = false;
    inKernel(config, [](vm::Kernel &kernel, kern::Thread &drv) {
        auto pmap = kernel.pmaps().createPmap();
        // Mark the pmap in use on another CPU so a shootdown is
        // actually required.
        pmap->activate(kernel.machine().cpu(1));
        const Pfn frame = kernel.machine().mem().allocFrame();
        pmap->enter(drv, 50, frame, ProtReadWrite);
        pmap->remove(drv, 50, 51);
        // Now the leaf exists but holds no valid PTE; without lazy
        // evaluation, removing again still shoots.
        const std::uint64_t before = kernel.pmaps().shoot().initiated;
        pmap->remove(drv, 52, 53);
        EXPECT_EQ(kernel.pmaps().shoot().initiated, before + 1);
        kernel.machine().mem().freeFrame(frame);
    });
}

TEST(PmapLazy, DisabledLazyStillSkipsMissingLeaves)
{
    hw::MachineConfig config = pmapConfig();
    config.lazy_evaluation = false;
    inKernel(config, [](vm::Kernel &kernel, kern::Thread &drv) {
        auto pmap = kernel.pmaps().createPmap();
        pmap->activate(kernel.machine().cpu(1));
        // The residual structure knowledge: an entirely absent second-
        // level table still short-circuits the check (Section 7.2).
        const std::uint64_t before = kernel.pmaps().shoot().initiated;
        pmap->remove(drv, 5000, 5004);
        EXPECT_EQ(kernel.pmaps().shoot().initiated, before);
    });
}

TEST(PmapOps, LivePmapDestructionRebuiltByFaults)
{
    // Section 2: "Pmaps can even be destroyed at runtime; they will be
    // reconstructed from scratch as page faults occur." Collect a
    // running task's pmap while its threads actively use it.
    inKernel([](vm::Kernel &kernel, kern::Thread &drv) {
        vm::Task *task = kernel.createTask("phoenix");
        VAddr va = 0;
        bool stop = false;
        bool data_ok = true;

        kern::Thread *reader = kernel.spawnThread(
            task, "reader",
            [&](kern::Thread &self) {
                ASSERT_TRUE(kernel.vmAllocate(self, *task, &va,
                                              4 * kPageSize, true));
                for (int i = 0; i < 4; ++i)
                    ASSERT_TRUE(
                        self.store32(va + i * kPageSize, 500 + i));
                while (!stop) {
                    for (int i = 0; i < 4; ++i) {
                        std::uint32_t value = 0;
                        if (!self.load32(va + i * kPageSize, &value) ||
                            value != static_cast<std::uint32_t>(500 +
                                                                i)) {
                            data_ok = false;
                        }
                    }
                    self.cpu().advance(2 * kMsec);
                }
            },
            1);
        drv.sleep(20 * kMsec);

        // Throw the page tables away out from under the reader.
        kern::Thread *collector = kernel.spawnThread(
            task, "collector",
            [&](kern::Thread &self) { task->pmap().collect(self); },
            2);
        drv.join(*collector);
        EXPECT_EQ(task->pmap().table().leafCount(), 0u);

        drv.sleep(30 * kMsec); // Faults rebuild the pmap.
        stop = true;
        drv.join(*reader);

        EXPECT_TRUE(data_ok);
        EXPECT_GT(task->pmap().table().leafCount(), 0u);
        EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
    });
}

TEST(PmapAudit, DetectsStaleEntry)
{
    inKernel([](vm::Kernel &kernel, kern::Thread &drv) {
        auto pmap = kernel.pmaps().createPmap();
        const Pfn frame = kernel.machine().mem().allocFrame();
        pmap->enter(drv, 30, frame, ProtReadWrite);
        EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());

        // Plant a stale entry behind the pmap's back.
        kernel.machine().cpu(2).tlb().insert(pmap->space(), 31, frame,
                                             ProtReadWrite, false);
        const auto violations = kernel.pmaps().auditTlbConsistency();
        ASSERT_EQ(violations.size(), 1u);
        EXPECT_NE(violations[0].find("cpu2"), std::string::npos);
        kernel.machine().cpu(2).tlb().flushAll();
        pmap->remove(drv, 30, 31);
        kernel.machine().mem().freeFrame(frame);
    });
}

TEST(PmapAudit, DetectsProtMismatch)
{
    inKernel([](vm::Kernel &kernel, kern::Thread &drv) {
        auto pmap = kernel.pmaps().createPmap();
        const Pfn frame = kernel.machine().mem().allocFrame();
        pmap->enter(drv, 30, frame, ProtRead);
        kernel.machine().cpu(1).tlb().insert(pmap->space(), 30, frame,
                                             ProtReadWrite, false);
        EXPECT_FALSE(kernel.pmaps().auditTlbConsistency().empty());
        kernel.machine().cpu(1).tlb().flushAll();
        pmap->remove(drv, 30, 31);
        kernel.machine().mem().freeFrame(frame);
    });
}

TEST(PmapAudit, DetectsSkippedL0Invalidation)
{
    // Plant the one bug the L0 cache can introduce: a flush that the
    // indexed TLB honors but the L0 misses. PlantedBug::SkipL0Invalidate
    // disables all L0 maintenance, so after a flushAll the L0 keeps
    // serving the dead translation -- the audit must say so.
    hw::MachineConfig config = pmapConfig();
    config.planted_bug = hw::PlantedBug::SkipL0Invalidate;
    inKernel(config, [](vm::Kernel &kernel, kern::Thread &drv) {
        auto pmap = kernel.pmaps().createPmap();
        const Pfn frame = kernel.machine().mem().allocFrame();
        pmap->enter(drv, 30, frame, ProtReadWrite);
        hw::Tlb &tlb = kernel.machine().cpu(2).tlb();
        tlb.insert(pmap->space(), 30, frame, ProtReadWrite, false);
        tlb.lookup(pmap->space(), 30, ProtRead, 0); // L0 caches it.
        EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());

        // The mapping goes away; the responder-style flush empties the
        // indexed TLB but (planted bug) leaves the L0 slot behind.
        tlb.flushAll();
        pmap->remove(drv, 30, 31);
        const auto violations = kernel.pmaps().auditTlbConsistency();
        ASSERT_FALSE(violations.empty());
        EXPECT_NE(violations[0].find("L0"), std::string::npos);
        EXPECT_NE(violations[0].find("cpu2"), std::string::npos);
        kernel.machine().mem().freeFrame(frame);
    });
}

TEST(PmapAudit, OracleCatchesSkippedL0Invalidation)
{
    // Same planted bug, but caught the way real checker runs catch it:
    // the stale-translation oracle's post-operation audit hook.
    hw::MachineConfig config = pmapConfig();
    config.planted_bug = hw::PlantedBug::SkipL0Invalidate;
    inKernel(config, [](vm::Kernel &kernel, kern::Thread &drv) {
        chk::Oracle oracle(kernel);
        auto pmap = kernel.pmaps().createPmap();
        const Pfn frame = kernel.machine().mem().allocFrame();
        pmap->enter(drv, 30, frame, ProtReadWrite);
        hw::Tlb &tlb = kernel.machine().cpu(2).tlb();
        tlb.insert(pmap->space(), 30, frame, ProtReadWrite, false);
        tlb.lookup(pmap->space(), 30, ProtRead, 0);
        tlb.flushAll(); // Indexed entries die; the L0 slot survives.

        // The next completed pmap operation triggers the oracle's
        // audit, which must flag the undead L0 translation once the
        // page tables stop backing it.
        pmap->remove(drv, 30, 31);
        EXPECT_FALSE(oracle.clean());
        EXPECT_GT(oracle.violationCount(), 0u);
        kernel.machine().mem().freeFrame(frame);
    });
}

TEST(PmapAudit, OracleCleanWithL0Enabled)
{
    // Control for the planted-bug runs: correct L0 maintenance keeps
    // the oracle quiet through the same flush-and-remove sequence.
    inKernel([](vm::Kernel &kernel, kern::Thread &drv) {
        chk::Oracle oracle(kernel);
        auto pmap = kernel.pmaps().createPmap();
        const Pfn frame = kernel.machine().mem().allocFrame();
        pmap->enter(drv, 30, frame, ProtReadWrite);
        hw::Tlb &tlb = kernel.machine().cpu(2).tlb();
        tlb.insert(pmap->space(), 30, frame, ProtReadWrite, false);
        tlb.lookup(pmap->space(), 30, ProtRead, 0);
        tlb.flushAll();
        pmap->remove(drv, 30, 31);
        oracle.finalCheck();
        EXPECT_TRUE(oracle.clean());
        EXPECT_EQ(oracle.violationCount(), 0u);
        kernel.machine().mem().freeFrame(frame);
    });
}

TEST(ShootdownUnit, ActionQueueOverflowEscalatesToFullFlush)
{
    hw::MachineConfig config = pmapConfig();
    config.action_queue_size = 2;
    inKernel(config, [](vm::Kernel &kernel, kern::Thread &drv) {
        auto pmap = kernel.pmaps().createPmap();
        kern::Cpu &remote = kernel.machine().cpu(2);
        pmap->activate(remote);
        // Park entries in the remote TLB so the flush is observable.
        remote.tlb().insert(pmap->space(), 900, 3, ProtRead, false);

        const Pfn frame = kernel.machine().mem().allocFrame();
        for (Vpn v = 0; v < 6; ++v)
            pmap->enter(drv, v, frame, ProtReadWrite);
        // Remote CPU 2 is idle (no thread), so actions queue up
        // without being drained; the queue overflows.
        for (Vpn v = 0; v < 6; ++v)
            pmap->remove(drv, v, v + 1);
        EXPECT_GT(kernel.pmaps().shoot().queue_overflows, 0u);
        EXPECT_TRUE(
            kernel.pmaps().shoot().stateFor(remote.id()).overflow);
        kernel.machine().mem().freeFrame(frame);
    });
}

} // namespace
} // namespace mach
