/**
 * @file
 * Tests for the text trace -- the recorder's line renderer -- over the
 * shootdown, fault, scheduler and interrupt boundaries, and for the
 * category parser behind `machsim --trace`.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/consistency_tester.hh"
#include "kern/machine.hh"
#include "obs/recorder.hh"
#include "vm/kernel.hh"

namespace mach
{
namespace
{

/**
 * A tester run with the given text-trace categories captured. The
 * lines outlive the kernel, whose teardown still emits events.
 */
struct TracedTester
{
    explicit TracedTester(std::uint32_t categories, unsigned children = 2)
        : kernel(hw::MachineConfig{})
    {
        setLogQuiet(true);
        kernel.machine().recorder().enableText(
            categories,
            [this](const std::string &line) { lines.push_back(line); });
        apps::ConsistencyTester tester(
            {.children = children, .warmup = 10 * kMsec});
        tester.execute(kernel);
    }

    bool
    anyContains(const std::string &needle) const
    {
        for (const std::string &line : lines) {
            if (line.find(needle) != std::string::npos)
                return true;
        }
        return false;
    }

    std::vector<std::string> lines;
    vm::Kernel kernel;
};

TEST(Trace, ParseCategories)
{
    std::uint32_t mask = 0;
    std::string bad;
    EXPECT_TRUE(obs::parseCategories("shoot", &mask, &bad));
    EXPECT_EQ(mask, obs::kShootCategory.bit);
    EXPECT_TRUE(obs::parseCategories("shoot,vm", &mask, &bad));
    EXPECT_EQ(mask, obs::kShootCategory.bit | obs::kVmCategory.bit);
    EXPECT_TRUE(obs::parseCategories("sched,irq,tlb", &mask, &bad));
    EXPECT_EQ(mask, obs::kSchedCategory.bit | obs::kIrqCategory.bit |
                        obs::kTlbCategory.bit);
    EXPECT_TRUE(obs::parseCategories("all", &mask, &bad));
    EXPECT_EQ(mask, obs::kAllCategories);
    // Unknown names -- the retired spellings included -- fail and are
    // named, so `machsim --trace bogus` can say what it rejected.
    EXPECT_FALSE(obs::parseCategories("shoot,bogus", &mask, &bad));
    EXPECT_EQ(bad, "bogus");
    EXPECT_FALSE(obs::parseCategories("shootdown", &mask, &bad));
    EXPECT_EQ(bad, "shootdown");
    EXPECT_FALSE(obs::parseCategories("", &mask, &bad));
    EXPECT_EQ(bad, "");
}

TEST(Trace, DisabledProducesNothing)
{
    // No categories: no lines, and the recorder stays off...
    TracedTester off(0);
    EXPECT_FALSE(off.kernel.machine().recorder().enabled());
    EXPECT_TRUE(off.lines.empty());

    // ...and a timeline recording renders nothing unless asked to.
    setLogQuiet(true);
    std::vector<std::string> lines;
    vm::Kernel kernel{hw::MachineConfig{}};
    obs::Recorder &rec = kernel.machine().recorder();
    rec.enable();
    rec.enableText(0, [&lines](const std::string &line) {
        lines.push_back(line);
    });
    apps::ConsistencyTester tester({.children = 2, .warmup = 10 * kMsec});
    tester.execute(kernel);
    EXPECT_FALSE(rec.events().empty());
    EXPECT_TRUE(lines.empty());
}

TEST(Trace, ShootdownPathEmitsInitiateAndRespond)
{
    const TracedTester run(obs::kShootCategory.bit, 3);
    EXPECT_TRUE(run.anyContains("[shoot] cpu3 B shoot.initiate pages=1"));
    EXPECT_TRUE(run.anyContains("E shoot.initiate"));
    EXPECT_TRUE(run.anyContains("B shoot.sync waiting_on=3"));
    EXPECT_TRUE(run.anyContains("B shoot.respond had_work=1"));
    EXPECT_FALSE(run.anyContains("[vm]"));
}

TEST(Trace, VmCategoryCoversFaults)
{
    const TracedTester run(obs::kVmCategory.bit);
    EXPECT_TRUE(run.anyContains("[vm] thread:"));
    EXPECT_TRUE(run.anyContains("B vm.fault va="));
    EXPECT_TRUE(run.anyContains("E vm.fault"));
    // The children die of a genuine failed write fault.
    EXPECT_GT(run.kernel.faults_failed, 0u);
    // No shootdown lines leak into the vm category.
    EXPECT_FALSE(run.anyContains("[shoot]"));
}

TEST(Trace, SchedAndIrqCategoriesEmitLines)
{
    const TracedTester run(obs::kSchedCategory.bit | obs::kIrqCategory.bit,
                           4);
    EXPECT_TRUE(run.anyContains("[sched] cpu0 i sched.dispatch detail="));
    EXPECT_TRUE(run.anyContains("B idle"));
    EXPECT_TRUE(run.anyContains("[irq] cpu0 B irq.shootdown "
                                "post_to_deliver_ns="));
    EXPECT_TRUE(run.anyContains("E irq.shootdown"));
    EXPECT_FALSE(run.anyContains("[shoot]"));
}

TEST(Trace, LinesCarrySimulatedTimestamps)
{
    const TracedTester run(obs::kAllCategories);
    ASSERT_FALSE(run.lines.empty());
    // Every line begins with a right-aligned microsecond timestamp.
    for (const std::string &line : run.lines) {
        ASSERT_GT(line.size(), 15u) << line;
        EXPECT_EQ(line.substr(10, 5), " us [") << line;
        EXPECT_NE(line[9], ' ') << line;
    }
    // A fork child's lines carry its file tag.
    obs::setProcessFileTag("child3");
    const TracedTester child(obs::kShootCategory.bit);
    obs::setProcessFileTag("");
    ASSERT_FALSE(child.lines.empty());
    EXPECT_EQ(child.lines.front().rfind("[child3] ", 0), 0u);
}

} // namespace
} // namespace mach
