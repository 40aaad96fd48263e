/**
 * @file
 * Tests for the Section 3 delayed-flush consistency technique, the
 * Section 8 kernel-pool restructuring, and the validate() rules tying
 * avoidance policies to their knobs.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "apps/agora.hh"
#include "apps/camelot.hh"
#include "apps/consistency_tester.hh"
#include "apps/mach_build.hh"
#include "apps/parthenon.hh"
#include "obs/probe.hh"
#include "pmap/shootdown.hh"
#include "vm/kernel.hh"

namespace mach
{
namespace
{

void
inKernel(const hw::MachineConfig &config,
         const std::function<void(vm::Kernel &, kern::Thread &)> &body)
{
    setLogQuiet(true);
    vm::Kernel kernel(config);
    kernel.start();
    bool finished = false;
    kernel.spawnThread(nullptr, "strategy-driver",
                       [&](kern::Thread &driver) {
                           body(kernel, driver);
                           finished = true;
                           kernel.machine().ctx().requestStop();
                       });
    kernel.machine().run();
    ASSERT_TRUE(finished);
}

// ---------------------------------------------------------------------
// Delayed flush (technique 2)
// ---------------------------------------------------------------------

hw::MachineConfig
delayedConfig()
{
    setLogQuiet(true);
    hw::MachineConfig config;
    config.ncpus = 8;
    config.setShootdownPolicy(hw::ShootdownPolicy::DelayedFlush);
    return config;
}

TEST(DelayedFlush, TesterStaysConsistent)
{
    vm::Kernel kernel(delayedConfig());
    // Stats mode runs every probe site (recording is timing-neutral),
    // the delayed-flush wait's included.
    obs::Recorder &rec = kernel.machine().recorder();
    rec.enableStats();
    apps::ConsistencyTester tester({.children = 5, .warmup = 25 * kMsec});
    tester.execute(kernel);
    EXPECT_TRUE(tester.consistent());
    // It really went through the delayed path, not a shootdown.
    const pmap::ShootdownController &shoot = kernel.pmaps().shoot();
    EXPECT_GT(shoot.delayed_waits, 0u);
    EXPECT_EQ(shoot.interrupts_sent, 0u);
    // Every wait reached the latency histogram.
    EXPECT_EQ(rec.metrics()
                  .histogram(obs::kShootDelayedFlushWait.histogram)
                  .count(),
              shoot.delayed_waits);
}

TEST(DelayedFlush, MappingChangeWaitsOutTheFlushes)
{
    inKernel(delayedConfig(), [](vm::Kernel &kernel, kern::Thread &drv) {
        vm::Task *task = kernel.createTask("t");
        VAddr va = 0;
        bool stop = false;

        // One thread keeps the page hot on another processor.
        kern::Thread *toucher = kernel.spawnThread(
            task, "toucher",
            [&](kern::Thread &self) {
                ASSERT_TRUE(kernel.vmAllocate(self, *task, &va,
                                              kPageSize, true));
                while (!stop) {
                    self.access(va, ProtWrite);
                    self.cpu().advance(500 * kUsec);
                }
            },
            1);
        kern::Thread *protector = kernel.spawnThread(
            task, "protector",
            [&](kern::Thread &self) {
                self.sleep(30 * kMsec);
                const Tick before = kernel.machine().now();
                ASSERT_TRUE(kernel.vmProtect(self, *task, va,
                                             kPageSize, ProtRead));
                const Tick took = kernel.machine().now() - before;
                // The op had to wait for a timer-driven flush: its
                // latency is of timer-period magnitude, far beyond a
                // shootdown's ~1 ms.
                EXPECT_GT(took, 3 * kMsec);
                stop = true;
            },
            2);
        drv.join(*protector);
        drv.join(*toucher);
    });
}

TEST(DelayedFlush, RequiresNoWritebackTlb)
{
    // Set by hand, the technique keeps the writeback TLB it cannot run
    // on.
    hw::MachineConfig config;
    config.shootdown_policy = hw::ShootdownPolicy::DelayedFlush;
    EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                "tlb_refmod");
}

TEST(DelayedFlush, RejectsDevices)
{
    // The wait covers the processors' timer-driven flushes only; no
    // timer or idle edge ever flushes a device IOTLB.
    hw::MachineConfig config;
    config.setShootdownPolicy(hw::ShootdownPolicy::DelayedFlush);
    config.devices = 2;
    EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                "MachineConfig: delayed-flush .* device IOTLB");
}

TEST(RangeFlushCrossover, BaselineAcceptsThresholdAboveCrossover)
{
    // Only RangeFlush reads the crossover, so a per-entry threshold
    // above it is legal under every other policy.
    hw::MachineConfig config;
    config.tlb_flush_threshold = 64;
    EXPECT_EXIT(
        {
            config.validate();
            std::exit(0);
        },
        ::testing::ExitedWithCode(0), "");
}

TEST(RangeFlushCrossover, RangeFlushRejectsCrossoverBelowThreshold)
{
    hw::MachineConfig config;
    config.shootdown_policy = hw::ShootdownPolicy::RangeFlush;
    config.tlb_flush_threshold = 64;
    EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                "tlb_flush_threshold");
}

TEST(PolicyPrerequisite, SetShootdownPolicyImpliesTheTlbFeature)
{
    hw::MachineConfig lazy;
    lazy.setShootdownPolicy(hw::ShootdownPolicy::LazyAsid);
    EXPECT_TRUE(lazy.tlb_asid_tags);
    hw::MachineConfig elide;
    elide.setShootdownPolicy(hw::ShootdownPolicy::ReuseElide);
    EXPECT_TRUE(elide.tlb_software_reload);
    // Delayed flush and remote invalidation need a TLB that does not
    // write ref/mod bits back blindly; an interlocked one stays.
    hw::MachineConfig delayed;
    delayed.setShootdownPolicy(hw::ShootdownPolicy::DelayedFlush);
    EXPECT_EQ(delayed.tlb_refmod, hw::TlbRefmod::None);
    hw::MachineConfig remote;
    remote.tlb_refmod = hw::TlbRefmod::Interlocked;
    remote.setShootdownPolicy(hw::ShootdownPolicy::RemoteInvalidate);
    EXPECT_EQ(remote.tlb_refmod, hw::TlbRefmod::Interlocked);

    // Setting the field by hand skips the prerequisite; validate()
    // still names it.
    hw::MachineConfig bare;
    bare.shootdown_policy = hw::ShootdownPolicy::LazyAsid;
    EXPECT_EXIT(bare.validate(), ::testing::ExitedWithCode(1),
                "tlb_asid_tags");
}

TEST(DelayedFlush, IdleProcessorsDoNotStallTheWait)
{
    // Only the initiator's CPU and one toucher run; the other six are
    // idle and take no timer interrupts -- the wait must still end.
    vm::Kernel kernel(delayedConfig());
    apps::ConsistencyTester tester({.children = 1, .warmup = 20 * kMsec});
    const apps::WorkloadResult result = tester.execute(kernel);
    EXPECT_TRUE(tester.consistent());
    EXPECT_EQ(result.analysis.user_initiator.events, 1u);
}

// ---------------------------------------------------------------------
// Kernel pools (Section 8)
// ---------------------------------------------------------------------

hw::MachineConfig
pooledConfig(unsigned ncpus = 16, unsigned pools = 4)
{
    setLogQuiet(true);
    hw::MachineConfig config;
    config.ncpus = ncpus;
    config.kernel_pools = pools;
    return config;
}

TEST(KernelPools, ValidateRejectsUnevenSplit)
{
    hw::MachineConfig config;
    config.ncpus = 16;
    config.kernel_pools = 3;
    EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                "kernel_pools");
}

TEST(KernelPools, PoolGeometry)
{
    vm::Kernel kernel(pooledConfig(16, 4));
    kern::Machine &m = kernel.machine();
    EXPECT_EQ(m.poolOfCpu(0), 0u);
    EXPECT_EQ(m.poolOfCpu(3), 0u);
    EXPECT_EQ(m.poolOfCpu(4), 1u);
    EXPECT_EQ(m.poolOfCpu(15), 3u);

    const Vpn kernel_lo = vaToVpn(kern::Machine::kKernelBase);
    EXPECT_EQ(m.poolOfKernelVpn(kernel_lo), 0);
    EXPECT_EQ(m.poolOfKernelVpn(kernel_lo - 1), -1); // User space.
}

TEST(KernelPools, KmemComesFromTheCallersPoolSlice)
{
    inKernel(pooledConfig(16, 4), [](vm::Kernel &kernel,
                                     kern::Thread &drv) {
        struct Alloc
        {
            CpuId cpu;
            VAddr va;
        };
        std::vector<Alloc> allocs;
        std::vector<kern::Thread *> threads;
        for (CpuId id : {0u, 5u, 10u, 15u}) {
            threads.push_back(kernel.spawnThread(
                nullptr, "alloc" + std::to_string(id),
                [&kernel, &allocs, id](kern::Thread &self) {
                    const VAddr va = kernel.kmemAlloc(self, kPageSize);
                    ASSERT_NE(va, 0u);
                    allocs.push_back({id, va});
                    kernel.kmemFree(self, va, kPageSize);
                },
                static_cast<std::int64_t>(id)));
        }
        for (kern::Thread *t : threads)
            drv.join(*t);

        kern::Machine &m = kernel.machine();
        for (const Alloc &alloc : allocs) {
            EXPECT_EQ(m.poolOfKernelVpn(vaToVpn(alloc.va)),
                      static_cast<int>(m.poolOfCpu(alloc.cpu)))
                << "cpu " << alloc.cpu;
        }
    });
}

TEST(KernelPools, PoolLocalFreeShootsOnlyThePool)
{
    inKernel(pooledConfig(16, 4), [](vm::Kernel &kernel,
                                     kern::Thread &drv) {
        // Keep every CPU busy so any of them *could* be synchronized.
        bool stop = false;
        std::vector<kern::Thread *> spinners;
        for (CpuId id = 1; id < 16; ++id) {
            spinners.push_back(kernel.spawnThread(
                nullptr, "spin" + std::to_string(id),
                [&stop](kern::Thread &self) {
                    while (!stop)
                        self.cpu().advance(1 * kMsec);
                },
                static_cast<std::int64_t>(id)));
        }
        drv.sleep(10 * kMsec);

        kern::Thread *worker = kernel.spawnThread(
            nullptr, "pool-worker",
            [&kernel](kern::Thread &self) {
                kernel.machine().xpr().reset();
                const VAddr buf = kernel.kmemAlloc(self, kPageSize);
                ASSERT_TRUE(self.store32(buf, 1));
                kernel.kmemFree(self, buf, kPageSize);
            },
            0);
        drv.join(*worker);
        stop = true;
        for (kern::Thread *t : spinners)
            drv.join(*t);

        const xpr::RunAnalysis analysis =
            xpr::analyze(kernel.machine().xpr());
        ASSERT_GE(analysis.kernel_initiator.events, 1u);
        // Pool 0 holds CPUs 0-3; the initiator is CPU 0, so at most
        // three processors are shot at despite 15 busy ones.
        EXPECT_LE(analysis.kernel_initiator.procs.max(), 3.0);
    });
}

TEST(KernelPools, ConsistencyHeldWithinThePool)
{
    // A kernel buffer shared by two threads in the same pool: when one
    // frees it, the other must take a fault rather than read through a
    // stale entry.
    inKernel(pooledConfig(16, 4), [](vm::Kernel &kernel,
                                     kern::Thread &drv) {
        VAddr buf = 0;
        bool freed = false;
        kern::Thread *owner = kernel.spawnThread(
            nullptr, "owner",
            [&](kern::Thread &self) {
                buf = kernel.kmemAlloc(self, kPageSize);
                ASSERT_TRUE(self.store32(buf, 0x600d));
                self.sleep(40 * kMsec);
                kernel.kmemFree(self, buf, kPageSize);
                freed = true;
            },
            1);
        kern::Thread *peer = kernel.spawnThread(
            nullptr, "peer",
            [&](kern::Thread &self) {
                self.sleep(15 * kMsec); // Buffer exists and is hot.
                std::uint32_t value = 0;
                ASSERT_TRUE(self.load32(buf, &value));
                EXPECT_EQ(value, 0x600du);
                while (!freed)
                    self.cpu().advance(1 * kMsec);
                // After the free, the mapping is gone here too.
                EXPECT_FALSE(self.load32(buf, &value));
            },
            2); // Same pool as CPU 1 (pool 0 is CPUs 0-3).
        drv.join(*owner);
        drv.join(*peer);
        EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
    });
}

TEST(RelatedWork, ThompsonMipsConfiguration)
{
    // Section 10: Thompson et al. implemented TLB consistency on a
    // MIPS-based multiprocessor -- software-reloaded TLBs with
    // address-space tags and no flush on context switch. The extended
    // shootdown algorithm must stay correct on that hardware shape.
    hw::MachineConfig config;
    config.ncpus = 8;
    config.tlb_software_reload = true;
    config.tlb_asid_tags = true;
    setLogQuiet(true);
    vm::Kernel kernel(config);
    apps::ConsistencyTester tester({.children = 6, .warmup = 20 * kMsec});
    const apps::WorkloadResult result = tester.execute(kernel);
    EXPECT_TRUE(tester.consistent());
    EXPECT_EQ(result.analysis.user_initiator.events, 1u);
    // Software reload means responders never stall: cheap responses.
    EXPECT_LT(result.analysis.responder.time_usec.mean(), 100.0);
}

TEST(Stress, AllFourApplicationsSequentiallyOnOneMachine)
{
    // The machine must be reusable across workloads: tasks torn down,
    // instrumentation reset, no state bleeding between runs.
    setLogQuiet(true);
    hw::MachineConfig config;
    vm::Kernel kernel(config);

    {
        apps::MachBuild app({.jobs = 6, .concurrency = 3});
        app.execute(kernel);
        EXPECT_EQ(app.jobs_completed, 6u);
        EXPECT_EQ(kernel.tasks().size(), 0u);
    }
    {
        apps::Parthenon::Params params;
        params.runs = 1;
        apps::Parthenon app(params);
        const apps::WorkloadResult result = app.execute(kernel);
        // xpr was reset between runs: only this workload's events.
        EXPECT_LE(result.analysis.kernel_initiator.events, 10u);
    }
    {
        apps::Agora::Params params;
        params.runs = 2;
        params.regions = 1;
        apps::Agora app(params);
        app.execute(kernel);
    }
    {
        apps::Camelot app({.transactions = 20});
        const apps::WorkloadResult result = app.execute(kernel);
        EXPECT_GT(result.analysis.user_initiator.events, 0u);
    }
    EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
}

TEST(KernelPools, TesterUnaffectedByPools)
{
    // User-pmap shootdowns are orthogonal to kernel pools.
    vm::Kernel kernel(pooledConfig(16, 4));
    apps::ConsistencyTester tester({.children = 9, .warmup = 20 * kMsec});
    const apps::WorkloadResult result = tester.execute(kernel);
    EXPECT_TRUE(tester.consistent());
    EXPECT_EQ(result.analysis.user_initiator.procs.max(), 9.0);
}

} // namespace
} // namespace mach
