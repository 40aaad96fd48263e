/**
 * @file
 * Tests of the shootdown algorithm against the Section 5.1 tester and
 * the whole-machine TLB consistency audit.
 */

#include <gtest/gtest.h>

#include "apps/consistency_tester.hh"
#include "vm/kernel.hh"

namespace mach
{
namespace
{

hw::MachineConfig
quietConfig()
{
    hw::MachineConfig config;
    setLogQuiet(true);
    return config;
}

TEST(ShootdownTester, MaintainsConsistencyWith4Children)
{
    hw::MachineConfig config = quietConfig();
    vm::Kernel kernel(config);
    apps::ConsistencyTester tester({.children = 4, .warmup = 20 * kMsec});
    const apps::WorkloadResult result = tester.execute(kernel);

    EXPECT_TRUE(tester.consistent());
    // Exactly one user-pmap shootdown involving exactly k processors.
    ASSERT_EQ(result.analysis.user_initiator.events, 1u);
    EXPECT_EQ(result.analysis.user_initiator.procs.max(), 4.0);
    // Children really did increment before dying.
    for (std::uint32_t v : tester.finalCounters())
        EXPECT_GT(v, 0u);
    // And the machine ends TLB-consistent.
    EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
}

TEST(ShootdownTester, DetectsInconsistencyWhenShootdownDisabled)
{
    hw::MachineConfig config = quietConfig();
    config.setShootdownPolicy(hw::ShootdownPolicy::Off);
    vm::Kernel kernel(config);
    apps::ConsistencyTester tester({.children = 4, .warmup = 20 * kMsec});
    tester.execute(kernel);

    // The simulated hardware is faithful enough that disabling the
    // algorithm produces a real inconsistency: stale writable entries
    // let children keep incrementing after the page went read-only.
    EXPECT_FALSE(tester.consistent());
    // Note the audit of TLBs against page tables cannot be asserted
    // inconsistent here: the stale entries' modify-bit writeback
    // *corrupts the PTE back to read-write* (the second Section 3
    // hazard), after which TLB and page table agree with each other --
    // and both disagree with what the VM layer asked for.
}

} // namespace
} // namespace mach
