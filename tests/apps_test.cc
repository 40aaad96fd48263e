/**
 * @file
 * Integration tests: each evaluation application runs end to end on a
 * fresh simulated machine and exhibits the qualitative behaviour the
 * paper reports for it.
 */

#include <gtest/gtest.h>

#include "apps/agora.hh"
#include "apps/camelot.hh"
#include "apps/consistency_tester.hh"
#include "apps/mach_build.hh"
#include "apps/parthenon.hh"
#include "vm/kernel.hh"

namespace mach
{
namespace
{

hw::MachineConfig
appConfig()
{
    setLogQuiet(true);
    return hw::MachineConfig{};
}

TEST(MachBuildApp, BuildsJobsWithOnlyKernelShootdowns)
{
    hw::MachineConfig config = appConfig();
    vm::Kernel kernel(config);
    apps::MachBuild::Params params;
    params.jobs = 12;
    params.concurrency = 6;
    apps::MachBuild app(params);
    const apps::WorkloadResult result = app.execute(kernel);

    EXPECT_EQ(app.jobs_completed, 12u);
    // "The Mach kernel build uses multiple processors only for
    // throughput; it does not share memory among user tasks."
    EXPECT_EQ(result.analysis.user_initiator.events, 0u);
    EXPECT_GT(result.analysis.kernel_initiator.events, 0u);
    EXPECT_GT(result.lazy_avoided, 0u);
    EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
    // All job tasks were destroyed.
    EXPECT_EQ(kernel.tasks().size(), 0u);
}

TEST(ParthenonApp, ProcessesWorkpileWithAlmostNoShootdowns)
{
    hw::MachineConfig config = appConfig();
    vm::Kernel kernel(config);
    apps::Parthenon::Params params;
    params.runs = 2;
    apps::Parthenon app(params);
    const apps::WorkloadResult result = app.execute(kernel);

    EXPECT_GT(app.items_processed, 0u);
    // With lazy evaluation the stack-guard reprotects are elided.
    EXPECT_EQ(result.analysis.user_initiator.events, 0u);
    EXPECT_LE(result.analysis.kernel_initiator.events, 6u);
    EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
}

TEST(ParthenonApp, WithoutLazyEveryLaterThreadStartShoots)
{
    hw::MachineConfig config = appConfig();
    config.lazy_evaluation = false;
    vm::Kernel kernel(config);
    apps::Parthenon::Params params;
    params.runs = 2;
    params.workers = 10;
    apps::Parthenon app(params);
    const apps::WorkloadResult result = app.execute(kernel);

    // The first thread of each run has no parallel sibling yet, so
    // runs x (workers - 1) user shootdowns.
    EXPECT_EQ(result.analysis.user_initiator.events,
              params.runs * (params.workers - 1));
    EXPECT_GT(result.analysis.kernel_initiator.events, 6u);
}

TEST(AgoraApp, BimodalKernelShootdowns)
{
    hw::MachineConfig config = appConfig();
    vm::Kernel kernel(config);
    apps::Agora app(apps::Agora::Params{});
    const apps::WorkloadResult result = app.execute(kernel);

    EXPECT_GT(app.waves_processed, 0u);
    EXPECT_EQ(result.analysis.user_initiator.events, 0u);
    const auto &k = result.analysis.kernel_initiator;
    ASSERT_GT(k.events, 0u);
    // Setup-phase events involve most of the machine, steady-state
    // events only a few processors: both modes must be present.
    EXPECT_GE(k.procs.max(), 11.0);
    EXPECT_LE(k.procs.min(), 4.0);
    EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
}

TEST(CamelotApp, OnlyAppWithUserShootdowns)
{
    hw::MachineConfig config = appConfig();
    vm::Kernel kernel(config);
    apps::Camelot::Params params;
    params.transactions = 60;
    apps::Camelot app(params);
    const apps::WorkloadResult result = app.execute(kernel);

    EXPECT_EQ(app.commits, 60u);
    EXPECT_GT(result.analysis.user_initiator.events, 0u);
    EXPECT_GT(result.analysis.kernel_initiator.events, 0u);
    // Mostly one page per user shootdown, as in Table 3.
    EXPECT_LT(result.analysis.user_initiator.pages.mean(), 4.0);
    EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
}

TEST(TesterApp, CountersAdvanceBeforeReprotectOnly)
{
    hw::MachineConfig config = appConfig();
    vm::Kernel kernel(config);
    apps::ConsistencyTester tester({.children = 3, .warmup = 15 * kMsec});
    tester.execute(kernel);

    ASSERT_TRUE(tester.consistent());
    ASSERT_EQ(tester.savedCounters().size(), 3u);
    for (unsigned i = 0; i < 3; ++i) {
        EXPECT_GT(tester.savedCounters()[i], 0u);
        EXPECT_EQ(tester.savedCounters()[i], tester.finalCounters()[i]);
    }
}

TEST(TesterApp, ResponderEventsAreSampled)
{
    hw::MachineConfig config = appConfig();
    vm::Kernel kernel(config);
    // All children on CPUs 0-4 which are the sampled responders.
    apps::ConsistencyTester tester({.children = 4, .warmup = 15 * kMsec});
    const apps::WorkloadResult result = tester.execute(kernel);
    EXPECT_GT(result.analysis.responder.events, 0u);
    EXPECT_LE(result.analysis.responder.events, 4u);
}

TEST(TesterApp, WorksOnTinyMachine)
{
    hw::MachineConfig config = appConfig();
    config.ncpus = 2;
    vm::Kernel kernel(config);
    apps::ConsistencyTester tester({.children = 1, .warmup = 10 * kMsec});
    const apps::WorkloadResult result = tester.execute(kernel);
    EXPECT_TRUE(tester.consistent());
    EXPECT_EQ(result.analysis.user_initiator.events, 1u);
}

/** Frees a range it never touched, then destroys the task. */
class FreeUntouchedThenExit : public apps::Workload
{
  public:
    std::string name() const override { return "free-untouched"; }

    void
    run(vm::Kernel &kernel, kern::Thread &driver) override
    {
        vm::Task *task = kernel.createTask("short-lived");
        VAddr va = 0;
        ASSERT_TRUE(
            kernel.vmAllocate(driver, *task, &va, 8 * kPageSize, true));
        ASSERT_TRUE(kernel.vmDeallocate(driver, *task, va, 8 * kPageSize));
        kernel.destroyTask(driver, task);
    }
};

TEST(WorkloadResult, CountsLazyAvoidanceOfDestroyedTasks)
{
    // The lazy-evaluation check skips the free's shootdown (no page
    // of the range was ever mapped); the task is gone by the time the
    // run ends, and the skipped shootdown still counts.
    hw::MachineConfig config = appConfig();
    vm::Kernel kernel(config);
    FreeUntouchedThenExit app;
    const apps::WorkloadResult result = app.execute(kernel);
    EXPECT_TRUE(kernel.tasks().empty());
    EXPECT_EQ(result.lazy_avoided, 1u);
}

} // namespace
} // namespace mach
