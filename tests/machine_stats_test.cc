/**
 * @file
 * Tests for the machine-wide statistics capture/report module.
 */

#include <gtest/gtest.h>

#include "apps/consistency_tester.hh"
#include "hw/bus.hh"
#include "xpr/machine_stats.hh"
#include "vm/kernel.hh"

namespace mach
{
namespace
{

TEST(MachineStatsTest, CaptureReflectsActivity)
{
    setLogQuiet(true);
    hw::MachineConfig config;
    vm::Kernel kernel(config);

    apps::ConsistencyTester tester({.children = 4, .warmup = 15 * kMsec});
    tester.execute(kernel);

    // Counters accumulate from machine construction, so the capture
    // after the run covers all of the run's activity.
    const xpr::MachineStats after = xpr::MachineStats::capture(kernel);

    EXPECT_EQ(after.cpus.size(), 16u);
    EXPECT_GE(after.shootdowns_initiated, 1u);
    EXPECT_GE(after.ipis_sent, 4u);
    EXPECT_GT(after.faults_resolved, 0u);
    EXPECT_GT(after.zero_fills, 0u);
    EXPECT_GT(after.now_usec, 0u);

    const xpr::CpuStats totals = after.totals();
    EXPECT_GT(totals.tlb_hits, 0u);
    EXPECT_GT(totals.tlb_misses, 0u);
    EXPECT_GT(totals.interrupts_taken, 0u);
    EXPECT_GT(totals.hitRatio(), 0.0);
    EXPECT_LT(totals.hitRatio(), 1.0);
}

TEST(MachineStatsTest, XprOverflowIsDetectedAndWarned)
{
    setLogQuiet(true);
    hw::MachineConfig config;
    config.xpr_capacity = 4; // Absurdly small: guaranteed wrap.
    vm::Kernel kernel(config);
    apps::ConsistencyTester tester({.children = 6, .warmup = 15 * kMsec});
    tester.execute(kernel);
    EXPECT_TRUE(kernel.machine().xpr().overflowed());
    EXPECT_EQ(kernel.machine().xpr().size(), 4u);
}

TEST(MachineStatsTest, MemAccessPaysBusContention)
{
    setLogQuiet(true);
    hw::MachineConfig config;
    config.ncpus = 2;
    config.mem_jitter = 0;
    config.bus_contended_jitter = 0;
    config.bus_contention_threshold = 1;
    vm::Kernel kernel(config);
    kernel.start();
    kernel.spawnThread(nullptr, "bus-probe", [&](kern::Thread &self) {
        kern::Machine &m = kernel.machine();
        const Tick t0 = m.now();
        self.cpu().memAccess(10);
        const Tick uncontended = m.now() - t0;

        hw::Bus::User a(m.bus());
        hw::Bus::User b(m.bus()); // Above threshold now.
        const Tick t1 = m.now();
        self.cpu().memAccess(10);
        const Tick contended = m.now() - t1;
        EXPECT_GT(contended, uncontended);
        EXPECT_EQ(contended - uncontended,
                  10 * hw::kBusPenaltyPerUser);
        kernel.machine().ctx().requestStop();
    });
    kernel.machine().run();
}

TEST(MachineStatsTest, ReportMentionsEverySection)
{
    setLogQuiet(true);
    hw::MachineConfig config;
    vm::Kernel kernel(config);
    apps::ConsistencyTester tester({.children = 2, .warmup = 10 * kMsec});
    tester.execute(kernel);

    const std::string report =
        xpr::MachineStats::capture(kernel).report();
    EXPECT_NE(report.find("tlb:"), std::string::npos);
    EXPECT_NE(report.find("vm :"), std::string::npos);
    EXPECT_NE(report.find("tlb consistency:"), std::string::npos);
    EXPECT_NE(report.find("shootdowns"), std::string::npos);
}

} // namespace
} // namespace mach
