/**
 * @file
 * The `device` test tier: DMA devices as first-class shootdown
 * responders (docs/DEVICES.md).
 *
 * Three layers:
 *
 *  - Unit tests against a live kernel drive single DMA operations
 *    from a test fiber and check the responder contract directly:
 *    IOTLB fill and hit, translation faults, the idle device sitting
 *    on queued consistency actions until its next operation boundary,
 *    the in-flight transfer abort under a drain request, detach
 *    removing the device from the responder set, and Section 9's
 *    remote invalidation reaching the IOTLB.
 *
 *  - The device scenarios from the checker library re-run under every
 *    shootdown-avoidance policy (the same adaptation rules as the
 *    strategy tier), plus a digest-determinism check with a device
 *    configured.
 *
 *  - The golden detection test for the planted
 *    PlantedBug::SkipIotlbInvalidate bug: the explorer must find a
 *    schedule where a stale IOTLB entry survives the drain, minimize
 *    it, and replay it bit-exactly while the healthy twin shrugs it
 *    off.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/perturb.hh"
#include "chk/explorer.hh"
#include "chk/scenario.hh"
#include "dev/dma_device.hh"
#include "hw/machine_config.hh"
#include "kern/machine.hh"
#include "pmap/pmap.hh"
#include "pmap/shootdown.hh"
#include "sim/context.hh"
#include "vm/kernel.hh"
#include "vm/task.hh"

namespace mach
{
namespace
{

hw::MachineConfig
deviceConfig(unsigned devices = 1)
{
    setLogQuiet(true);
    hw::MachineConfig config;
    config.ncpus = 4;
    config.devices = devices;
    config.iotlb_entries = 4;
    config.seed = 0x5eed5eedull;
    return config;
}

/**
 * Run @p body as the driver thread of a fresh kernel built from
 * @p config; the body must leave the machine stoppable (the helper
 * requests the stop when it returns).
 */
void
inKernel(const hw::MachineConfig &config,
         const std::function<void(vm::Kernel &, kern::Thread &)> &body)
{
    vm::Kernel kernel(config);
    kernel.start();
    bool finished = false;
    kernel.spawnThread(nullptr, "dev-driver",
                       [&](kern::Thread &driver) {
                           body(kernel, driver);
                           finished = true;
                           kernel.machine().ctx().requestStop();
                       });
    kernel.machine().run();
    ASSERT_TRUE(finished);
}

/** Fault @p pages pages at @p base into @p task with write access. */
void
touchPages(vm::Kernel &kernel, kern::Thread &drv, vm::Task *task,
           VAddr base, unsigned pages)
{
    kern::Thread *toucher = kernel.spawnThread(
        task, "dev-touch", [base, pages](kern::Thread &self) {
            for (unsigned i = 0; i < pages; ++i)
                self.access(base + i * kPageSize, ProtWrite);
        });
    drv.join(*toucher);
}

TEST(DeviceResponders, IdsNodesAndRegistration)
{
    hw::MachineConfig config = deviceConfig(3);
    vm::Kernel kernel(config);

    ASSERT_EQ(kernel.deviceCount(), 3u);
    const pmap::ShootdownController &shoot = kernel.pmaps().shoot();
    ASSERT_EQ(shoot.responders().size(), 3u);
    for (unsigned i = 0; i < 3; ++i) {
        dev::DmaDevice &device = kernel.device(i);
        // Devices extend the CPU id space: ids [ncpus, ncpus+devices).
        EXPECT_EQ(device.id(), config.ncpus + i);
        EXPECT_EQ(device.index(), i);
        EXPECT_EQ(device.node(), config.nodeOfDevice(i));
        EXPECT_EQ(device.describe(), "dev" + std::to_string(i));
        EXPECT_EQ(shoot.responders()[i], &device);
    }
}

TEST(DeviceResponders, NodeAssignmentRoundRobins)
{
    hw::MachineConfig config;
    config.numa_nodes = 2;
    EXPECT_EQ(config.nodeOfDevice(0), 0u);
    EXPECT_EQ(config.nodeOfDevice(1), 1u);
    EXPECT_EQ(config.nodeOfDevice(2), 0u);
    config.numa_nodes = 1;
    EXPECT_EQ(config.nodeOfDevice(5), 0u);
}

TEST(DmaDevice, ReadWriteCommitHitAndFault)
{
    inKernel(deviceConfig(), [](vm::Kernel &kernel, kern::Thread &drv) {
        vm::Task *task = kernel.createTask("dma-unit");
        VAddr base = 0;
        ASSERT_TRUE(kernel.vmAllocate(drv, *task, &base, 2 * kPageSize,
                                      true));
        touchPages(kernel, drv, task, base, 2);

        dev::DmaDevice &device = kernel.device(0);
        pmap::Pmap &pmap = task->pmap();
        device.attachTo(pmap);

        bool done = false;
        kernel.machine().ctx().spawn("dma-ops", [&] {
            // First write misses the IOTLB and walks.
            EXPECT_TRUE(device.dmaWrite(pmap, vaToVpn(base), 0,
                                        0xfeedfaceu));
            EXPECT_EQ(device.iommu_walks, 1u);
            EXPECT_EQ(device.writes_committed, 1u);
            // A read of the same page hits the filled entry.
            const std::uint64_t hits_before = device.tlb().hits;
            EXPECT_TRUE(device.dmaRead(pmap, vaToVpn(base)));
            EXPECT_GT(device.tlb().hits, hits_before);
            EXPECT_EQ(device.iommu_walks, 1u);
            // Devices cannot page fault: an unmapped page drops the op.
            EXPECT_FALSE(
                device.dmaRead(pmap, vaToVpn(base) + 0x1000));
            EXPECT_EQ(device.dma_faults, 1u);
            done = true;
        });
        while (!done)
            drv.sleep(20 * kUsec);

        // The committed write is visible through the VM system.
        std::uint32_t value = 0;
        ASSERT_TRUE(kernel.vmRead(drv, *task, base, &value, 4));
        EXPECT_EQ(value, 0xfeedfaceu);

        kernel.machine().ctx().spawn("dma-detach",
                                     [&] { device.detachFrom(pmap); });
        drv.sleep(100 * kUsec);
    });
}

TEST(DmaDevice, IdleDeviceSitsOnQueuedActionsUntilNextOp)
{
    inKernel(deviceConfig(), [](vm::Kernel &kernel, kern::Thread &drv) {
        vm::Task *task = kernel.createTask("dma-queue");
        VAddr base = 0;
        ASSERT_TRUE(
            kernel.vmAllocate(drv, *task, &base, kPageSize, true));
        touchPages(kernel, drv, task, base, 1);

        dev::DmaDevice &device = kernel.device(0);
        pmap::Pmap &pmap = task->pmap();
        device.attachTo(pmap);
        pmap::ShootdownController &shoot = kernel.pmaps().shoot();
        pmap::CpuShootState &st = shoot.stateFor(device.id());

        int phase = 0;
        kernel.machine().ctx().spawn("dma-ops", [&] {
            sim::Context &ctx = kernel.machine().ctx();
            // Phase 0: fill the IOTLB entry for the target page.
            EXPECT_TRUE(
                device.dmaWrite(pmap, vaToVpn(base), 0, 0xaau));
            phase = 1;
            while (phase < 2)
                ctx.sleep(20 * kUsec);
            // Phase 2: the next operation boundary drains the queued
            // invalidation first, so the write sees the revoked PTE
            // and is dropped -- never the stale IOTLB entry.
            const std::uint64_t drains_before = device.drains;
            EXPECT_FALSE(
                device.dmaWrite(pmap, vaToVpn(base), 0, 0xbbu));
            EXPECT_GT(device.drains, drains_before);
            EXPECT_EQ(device.dma_faults, 1u);
            // Read access is still allowed; the walk refills.
            EXPECT_TRUE(device.dmaRead(pmap, vaToVpn(base)));
            phase = 3;
        });
        while (phase < 1)
            drv.sleep(20 * kUsec);

        // Revoke write access. The device is idle (no transfer in
        // flight), so the action queues at it -- like an idle CPU --
        // and the initiator completes without waiting for a drain.
        const std::uint64_t commands_before = shoot.device_commands;
        ASSERT_TRUE(
            kernel.vmProtect(drv, *task, base, kPageSize, ProtRead));
        EXPECT_GT(shoot.device_commands, commands_before);
        EXPECT_TRUE(st.action_needed);

        phase = 2;
        while (phase < 3)
            drv.sleep(20 * kUsec);
        EXPECT_FALSE(st.action_needed);
        EXPECT_EQ(device.writes_committed, 1u);

        kernel.machine().ctx().spawn("dma-detach",
                                     [&] { device.detachFrom(pmap); });
        drv.sleep(100 * kUsec);
    });
}

TEST(DmaDevice, OverflowedDeviceQueueDrainsAsOneIotlbFlush)
{
    hw::MachineConfig config = deviceConfig();
    // One slot: the second action queued at the idle device overflows.
    config.action_queue_size = 1;
    inKernel(config, [](vm::Kernel &kernel, kern::Thread &drv) {
        vm::Task *task = kernel.createTask("dma-overflow");
        VAddr base = 0;
        ASSERT_TRUE(
            kernel.vmAllocate(drv, *task, &base, 2 * kPageSize, true));
        touchPages(kernel, drv, task, base, 2);

        dev::DmaDevice &device = kernel.device(0);
        pmap::Pmap &pmap = task->pmap();
        device.attachTo(pmap);
        pmap::CpuShootState &st =
            kernel.pmaps().shoot().stateFor(device.id());

        int phase = 0;
        kernel.machine().ctx().spawn("dma-ops", [&] {
            sim::Context &ctx = kernel.machine().ctx();
            // Phase 0: cache both pages in the IOTLB.
            EXPECT_TRUE(
                device.dmaWrite(pmap, vaToVpn(base), 0, 0xaau));
            EXPECT_TRUE(device.dmaWrite(
                pmap, vaToVpn(base + kPageSize), 0, 0xaau));
            phase = 1;
            while (phase < 2)
                ctx.sleep(20 * kUsec);
            // Phase 2: the drain at this operation boundary finds the
            // overflow and flushes the whole IOTLB once, so the write
            // walks, sees the revoked PTE, and is refused.
            EXPECT_EQ(device.tlb().full_flushes, 0u);
            EXPECT_FALSE(
                device.dmaWrite(pmap, vaToVpn(base), 0, 0xbbu));
            EXPECT_EQ(device.tlb().full_flushes, 1u);
            EXPECT_FALSE(st.overflow);
            phase = 3;
        });
        while (phase < 1)
            drv.sleep(20 * kUsec);

        // Revoke write access page by page while the device idles: the
        // first action fills its queue, the second overflows it.
        ASSERT_TRUE(
            kernel.vmProtect(drv, *task, base, kPageSize, ProtRead));
        ASSERT_TRUE(kernel.vmProtect(drv, *task, base + kPageSize,
                                     kPageSize, ProtRead));
        EXPECT_TRUE(st.overflow);

        phase = 2;
        while (phase < 3)
            drv.sleep(20 * kUsec);
        EXPECT_FALSE(st.action_needed);
        EXPECT_EQ(device.writes_committed, 2u);
        EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());

        kernel.machine().ctx().spawn("dma-detach",
                                     [&] { device.detachFrom(pmap); });
        drv.sleep(100 * kUsec);
    });
}

TEST(DmaDevice, DrainRequestAbortsInFlightWrite)
{
    hw::MachineConfig config = deviceConfig();
    // A long transfer so the revocation reliably lands mid-flight.
    config.dev_transfer_cost = 5 * kMsec;
    inKernel(config, [](vm::Kernel &kernel, kern::Thread &drv) {
        vm::Task *task = kernel.createTask("dma-abort");
        VAddr base = 0;
        ASSERT_TRUE(
            kernel.vmAllocate(drv, *task, &base, kPageSize, true));
        touchPages(kernel, drv, task, base, 1);

        dev::DmaDevice &device = kernel.device(0);
        pmap::Pmap &pmap = task->pmap();
        device.attachTo(pmap);

        int phase = 0;
        bool committed = true;
        kernel.machine().ctx().spawn("dma-ops", [&] {
            phase = 1;
            committed =
                device.dmaWrite(pmap, vaToVpn(base), 0, 0xccu);
            phase = 2;
        });
        while (phase < 1)
            drv.sleep(20 * kUsec);
        drv.sleep(1 * kMsec); // Mid-transfer (ends at +5 ms).

        // The revocation requests a drain; the transfer must abort
        // within hw::kDevDrainBound and nothing may land in memory.
        const Tick revoke_at = kernel.machine().now();
        ASSERT_TRUE(
            kernel.vmProtect(drv, *task, base, kPageSize, ProtRead));
        const Tick revoke_took = kernel.machine().now() - revoke_at;
        EXPECT_LT(revoke_took, 1 * kMsec)
            << "initiator waited for the full transfer instead of "
               "the bounded drain";

        while (phase < 2)
            drv.sleep(20 * kUsec);
        EXPECT_FALSE(committed);
        EXPECT_EQ(device.dma_aborts, 1u);
        EXPECT_EQ(device.writes_committed, 0u);
        EXPECT_GE(kernel.pmaps().shoot().device_sync_waits, 1u);

        std::uint32_t value = 0xdeadbeefu;
        ASSERT_TRUE(kernel.vmRead(drv, *task, base, &value, 4));
        EXPECT_EQ(value, 0u) << "aborted DMA write landed in memory";

        kernel.machine().ctx().spawn("dma-detach",
                                     [&] { device.detachFrom(pmap); });
        drv.sleep(100 * kUsec);
    });
}

TEST(DmaDevice, DetachLeavesResponderSetForTheSpace)
{
    inKernel(deviceConfig(), [](vm::Kernel &kernel, kern::Thread &drv) {
        vm::Task *task = kernel.createTask("dma-detach");
        VAddr base = 0;
        ASSERT_TRUE(
            kernel.vmAllocate(drv, *task, &base, kPageSize, true));
        touchPages(kernel, drv, task, base, 1);

        dev::DmaDevice &device = kernel.device(0);
        pmap::Pmap &pmap = task->pmap();

        bool done = false;
        kernel.machine().ctx().spawn("dma-ops", [&] {
            device.attachTo(pmap);
            EXPECT_TRUE(
                device.dmaWrite(pmap, vaToVpn(base), 0, 0xddu));
            device.detachFrom(pmap);
            done = true;
        });
        while (!done)
            drv.sleep(20 * kUsec);

        // After detach no initiator queues at the device for this
        // space: the revocation is CPU-only.
        pmap::ShootdownController &shoot = kernel.pmaps().shoot();
        const std::uint64_t commands_before = shoot.device_commands;
        ASSERT_TRUE(
            kernel.vmProtect(drv, *task, base, kPageSize, ProtRead));
        EXPECT_EQ(shoot.device_commands, commands_before);
        EXPECT_FALSE(
            shoot.stateFor(device.id()).action_needed);
    });
}

/**
 * Section 9's remote invalidation with a device attached: the
 * initiator shoots the entries straight out of the IOTLB, as out of
 * the CPU TLBs, with no interrupt and no queued action. A revocation
 * within tlb_flush_threshold pages invalidates its range; a wider one
 * flushes the whole space, so an IOTLB entry outside the range goes
 * too.
 */
TEST(DmaDevice, RemoteInvalidationReachesTheIotlb)
{
    hw::MachineConfig config = deviceConfig();
    config.setShootdownPolicy(hw::ShootdownPolicy::RemoteInvalidate);
    inKernel(config, [](vm::Kernel &kernel, kern::Thread &drv) {
        constexpr unsigned kPages = 8;
        vm::Task *task = kernel.createTask("dma-remote");
        VAddr base = 0;
        ASSERT_TRUE(kernel.vmAllocate(drv, *task, &base,
                                      kPages * kPageSize, true));
        touchPages(kernel, drv, task, base, kPages);
        // A reader on CPU 1 keeps the pmap in use there, so every
        // revocation also shoots a CPU TLB.
        bool stop = false;
        kern::Thread *reader = kernel.spawnThread(
            task, "dev-reader",
            [base, &stop](kern::Thread &self) {
                while (!stop) {
                    self.access(base, ProtRead);
                    self.cpu().advance(100 * kUsec);
                }
            },
            1);

        dev::DmaDevice &device = kernel.device(0);
        pmap::Pmap &pmap = task->pmap();
        const hw::SpaceId space = pmap.space();
        const Vpn first = vaToVpn(base);
        pmap::ShootdownController &shoot = kernel.pmaps().shoot();
        const auto dma = [&](Vpn vpn) {
            bool ok = false;
            bool done = false;
            kernel.machine().ctx().spawn("dma-op", [&] {
                ok = device.dmaWrite(pmap, vpn, 0, 0xaau);
                done = true;
            });
            while (!done)
                drv.sleep(20 * kUsec);
            return ok;
        };
        device.attachTo(pmap);

        // One page: invalidated by range.
        ASSERT_TRUE(dma(first));
        ASSERT_TRUE(device.tlb().cachesMapping(space, first, ProtWrite));
        std::uint64_t commands = shoot.device_commands;
        std::uint64_t remote = shoot.remote_invalidates;
        ASSERT_TRUE(
            kernel.vmProtect(drv, *task, base, kPageSize, ProtRead));
        EXPECT_FALSE(device.tlb().cachesMapping(space, first, ProtRead));
        EXPECT_EQ(shoot.device_commands - commands, 1u);
        EXPECT_EQ(shoot.remote_invalidates - remote, 2u); // CPU 1 + dev
        EXPECT_FALSE(dma(first));

        // Five pages (> tlb_flush_threshold): the space is flushed,
        // page 7's entry outside the range included.
        for (const unsigned page : {1u, 2u, 3u, 7u})
            ASSERT_TRUE(dma(first + page));
        commands = shoot.device_commands;
        remote = shoot.remote_invalidates;
        ASSERT_TRUE(kernel.vmProtect(drv, *task, base + kPageSize,
                                     5 * kPageSize, ProtRead));
        EXPECT_FALSE(device.tlb().cachesSpace(space));
        EXPECT_EQ(shoot.device_commands - commands, 1u);
        EXPECT_EQ(shoot.remote_invalidates - remote, 2u);
        EXPECT_FALSE(dma(first + 1));
        EXPECT_TRUE(dma(first + 7));
        EXPECT_EQ(device.dma_faults, 2u);
        for (CpuId id = 0; id < kernel.machine().ncpus(); ++id)
            EXPECT_FALSE(kernel.machine().cpu(id).tlb().cachesMapping(
                space, first + 1, ProtWrite));
        EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());

        stop = true;
        drv.join(*reader);
        kernel.machine().ctx().spawn("dma-detach",
                                     [&] { device.detachFrom(pmap); });
        drv.sleep(100 * kUsec);
    });
}

/** Remote invalidation cannot pull an entry out from under a transfer
 *  on the wire: the initiator waits the transfer out first. */
TEST(DmaDevice, RemoteInvalidationWaitsOutATransferInFlight)
{
    hw::MachineConfig config = deviceConfig();
    config.setShootdownPolicy(hw::ShootdownPolicy::RemoteInvalidate);
    config.dev_transfer_cost = 2 * kMsec;
    inKernel(config, [](vm::Kernel &kernel, kern::Thread &drv) {
        vm::Task *task = kernel.createTask("dma-remote-wait");
        VAddr base = 0;
        ASSERT_TRUE(
            kernel.vmAllocate(drv, *task, &base, kPageSize, true));
        touchPages(kernel, drv, task, base, 1);

        dev::DmaDevice &device = kernel.device(0);
        pmap::Pmap &pmap = task->pmap();
        device.attachTo(pmap);
        bool done = false;
        kernel.machine().ctx().spawn("dma-op", [&] {
            device.dmaWrite(pmap, vaToVpn(base), 0, 0xccu);
            done = true;
        });
        drv.sleep(500 * kUsec); // Mid-transfer (ends at +2 ms).
        ASSERT_TRUE(device.inFlight());

        ASSERT_TRUE(
            kernel.vmProtect(drv, *task, base, kPageSize, ProtRead));
        EXPECT_FALSE(device.inFlight());
        EXPECT_GE(kernel.pmaps().shoot().device_sync_waits, 1u);
        EXPECT_FALSE(device.tlb().cachesMapping(
            pmap.space(), vaToVpn(base), ProtRead));
        EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
        while (!done)
            drv.sleep(20 * kUsec);

        kernel.machine().ctx().spawn("dma-detach",
                                     [&] { device.detachFrom(pmap); });
        drv.sleep(100 * kUsec);
    });
}

// ---- Scenario-level checks -----------------------------------------

/** The four avoidance policies beyond the 1989 baseline. */
constexpr hw::ShootdownPolicy kAvoidancePolicies[] = {
    hw::ShootdownPolicy::LazyAsid,
    hw::ShootdownPolicy::Batched,
    hw::ShootdownPolicy::RangeFlush,
    hw::ShootdownPolicy::ReuseElide,
};

/**
 * The device scenarios stay clean under every avoidance policy: the
 * healthy twin of the planted bug in particular must hold across the
 * full matrix (the strategy tier runs this too; the device lane is
 * self-contained so CI can gate on `ctest -L device` alone).
 */
TEST(DeviceScenarios, CleanAcrossPolicyMatrix)
{
    const std::vector<chk::Scenario> library = chk::builtinScenarios();
    const char *names[] = {"dev-dma-race", "dev-masked",
                           "dev-numa-remote"};
    chk::Explorer explorer;
    for (const char *name : names) {
        const chk::Scenario *base = chk::findScenario(library, name);
        ASSERT_NE(base, nullptr) << name;
        for (hw::ShootdownPolicy policy : kAvoidancePolicies) {
            chk::Scenario scenario = *base;
            // Every device scenario runs the baseline on a TLB with
            // ref/mod writeback, so every policy applies.
            scenario.config.setShootdownPolicy(policy);
            const chk::TrialResult r =
                explorer.runTrial(scenario, SchedulePerturber{});
            const std::string tag =
                std::string(name) + " / policy " +
                std::to_string(static_cast<int>(policy));
            EXPECT_TRUE(r.completed) << tag << " did not finish";
            EXPECT_TRUE(r.predicate_ok) << tag << ": " << r.note;
            EXPECT_EQ(r.violation_count, 0u)
                << tag << ": "
                << (r.violations.empty() ? "" : r.violations.front());
        }
    }
}

/** Device runs replay to equal digests under equal schedules. */
TEST(DeviceScenarios, TrialDigestIsDeterministic)
{
    const std::vector<chk::Scenario> library = chk::builtinScenarios();
    const chk::Scenario *race =
        chk::findScenario(library, "dev-dma-race");
    ASSERT_NE(race, nullptr);

    SchedulePerturber p;
    std::string error;
    ASSERT_TRUE(
        SchedulePerturber::parse("e150+40000,b60+7000", &p, &error))
        << error;

    chk::Explorer explorer;
    const chk::TrialResult a = explorer.runTrial(*race, p);
    const chk::TrialResult b = explorer.runTrial(*race, p);
    EXPECT_TRUE(a.completed);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.end_time, b.end_time);
    EXPECT_EQ(a.events_fired, b.events_fired);
}

/**
 * The golden detection test for the fifth planted bug. The device
 * drain that skips its IOTLB invalidations is schedule-dependent: the
 * decoy sweep always evicts the target's stale entry on the
 * unperturbed baseline, so the explorer must find a schedule parking
 * the device inside the sweep across the driver's revocation, where
 * the oracle's audit (landed by the scenario's probe pmap ops)
 * catches the stale writable entry.
 */
TEST(BrokenProtocol, ExplorerCatchesSkippedIotlbInvalidate)
{
    const chk::Scenario broken = chk::brokenIotlbScenario();
    chk::Explorer explorer;
    // The stale window is one sweep-parked drain per revoke round;
    // give the sweep the same deepened budget as the other
    // single-window planted bugs.
    chk::ExploreOptions opt;
    opt.systematic_budget = 200;
    opt.random_budget = 400;
    const chk::ExploreResult res = explorer.explore(broken, opt);

    ASSERT_FALSE(res.baseline_failed)
        << "planted bug should be schedule-dependent, but the "
           "baseline already failed: "
        << res.baseline.note;
    ASSERT_GT(res.failures, 0u)
        << "explorer missed the planted skipped-IOTLB-invalidate bug";

    // The failure is a stale device translation: the oracle's
    // IOTLB-vs-page-table audit flags the un-excused entry and/or a
    // DMA write lands through the revoked mapping.
    EXPECT_TRUE(res.first_failure.violation_count > 0 ||
                !res.first_failure.predicate_ok)
        << "unexpected failure mode (liveness?)";

    // Minimization produced a no-larger, still-failing reproducer.
    ASSERT_FALSE(res.minimized_schedule.empty());
    EXPECT_GE(res.minimized.size(), 1u);
    EXPECT_LE(res.minimized.size(), res.first_failing.size());
    EXPECT_TRUE(res.minimized_result.failed());

    // The string round-trips and replays the failure bit-exactly.
    SchedulePerturber replay;
    std::string error;
    ASSERT_TRUE(SchedulePerturber::parse(res.minimized_schedule,
                                         &replay, &error))
        << error;
    EXPECT_EQ(replay.format(), res.minimized_schedule);
    const chk::TrialResult once = explorer.runTrial(broken, replay);
    const chk::TrialResult twice = explorer.runTrial(broken, replay);
    EXPECT_TRUE(once.failed());
    EXPECT_EQ(once.digest, twice.digest);

    // The healthy drain (invalidations applied) shrugs off the same
    // adversarial schedule.
    const std::vector<chk::Scenario> library = chk::builtinScenarios();
    const chk::Scenario *fixed =
        chk::findScenario(library, "dev-dma-race");
    ASSERT_NE(fixed, nullptr);
    const chk::TrialResult healthy = explorer.runTrial(*fixed, replay);
    EXPECT_FALSE(healthy.failed())
        << (healthy.violations.empty() ? healthy.note
                                       : healthy.violations.front());
}

} // namespace
} // namespace mach
