/**
 * @file
 * The run farm's contract: farming is a wall-clock optimization and
 * nothing else. Every observable result -- explorer verdicts, trial
 * counts, minimized schedules, and the determinism golden digests --
 * must be bit-identical whatever the farm shape: 1 or 8 worker
 * threads, fork snapshots on or off, main thread or farm worker.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "apps/consistency_tester.hh"
#include "base/perturb.hh"
#include "chk/explorer.hh"
#include "chk/scenario.hh"
#include "farm/farm.hh"
#include "farm/fork_pool.hh"
#include "vm/kernel.hh"
#include "xpr/machine_stats.hh"

#include "fiber_waves.hh"

namespace
{

using namespace mach;

/** The four farm shapes every result must be invariant under. */
struct Shape
{
    const char *name;
    farm::FarmOptions farm;
};

const Shape kShapes[] = {
    {"serial", {1, false}},
    {"jobs8", {8, false}},
    {"snapshots", {1, true}},
    {"jobs8+snapshots", {8, true}},
};

// ---------------------------------------------------------------------
// runMany and forkMany themselves.
// ---------------------------------------------------------------------

TEST(FarmPool, RunManyExecutesEveryJobOnceAcrossWidths)
{
    for (unsigned workers : {1u, 2u, 8u}) {
        constexpr unsigned kJobs = 100;
        std::atomic<unsigned> total{0};
        std::vector<std::atomic<unsigned>> per_job(kJobs);
        std::vector<std::function<void()>> jobs;
        for (unsigned i = 0; i < kJobs; ++i)
            jobs.push_back([&total, &per_job, i] {
                per_job[i].fetch_add(1);
                total.fetch_add(1);
            });
        farm::runMany(std::move(jobs), workers);
        EXPECT_EQ(total.load(), kJobs) << workers << " workers";
        for (unsigned i = 0; i < kJobs; ++i)
            EXPECT_EQ(per_job[i].load(), 1u)
                << "job " << i << ", " << workers << " workers";
    }
}

TEST(FarmPool, WorkerThreadsRecycleTheirOwnFiberStacks)
{
    // Each worker keeps its own free list of fiber stacks; eight jobs
    // on four workers reuse them across jobs as well as Contexts.
    constexpr unsigned kJobs = 8;
    sim::test::FiberWaves waves[kJobs];
    std::vector<std::function<void()>> jobs;
    for (unsigned i = 0; i < kJobs; ++i)
        jobs.push_back([&waves, i] {
            waves[i] = sim::test::runFiberWaves(100 + i);
        });
    farm::runMany(std::move(jobs), 4);
    for (unsigned i = 0; i < kJobs; ++i) {
        EXPECT_EQ(waves[i].intact_frames, sim::test::kWaveIntactFrames)
            << "job " << i;
        EXPECT_EQ(waves[i].reused_stacks,
                  waves[i].second_context_fibers)
            << "job " << i;
    }
}

TEST(FarmPool, ForkManyReturnsChildPayloadsInOrder)
{
    if (!farm::forkAvailable())
        GTEST_SKIP() << "fork isolation unavailable on this build";
    const std::vector<std::optional<std::string>> got = farm::forkMany(
        5, 3, [](unsigned index) {
            return "child-" + std::to_string(index * 7);
        });
    ASSERT_EQ(got.size(), 5u);
    for (unsigned i = 0; i < 5; ++i) {
        ASSERT_TRUE(got[i].has_value()) << i;
        EXPECT_EQ(*got[i], "child-" + std::to_string(i * 7));
    }
}

// ---------------------------------------------------------------------
// Explorer invariance across farm shapes.
// ---------------------------------------------------------------------

TEST(FarmDeterminism, TrialBatchesMatchTheSerialLoop)
{
    const std::vector<chk::Scenario> library = chk::builtinScenarios();
    const chk::Scenario *storm =
        chk::findScenario(library, "storm-baseline");
    ASSERT_NE(storm, nullptr);

    // A mixed batch: unperturbed, event delays across the whole index
    // space, bus delays, multi-directive, and a duplicate.
    const char *texts[] = {
        "",
        "e120+50000",
        "e700+250000,b40+9000",
        "b200+30000",
        "e1100+900000",
        "e120+50000",
    };
    std::vector<SchedulePerturber> probes;
    for (const char *text : texts) {
        SchedulePerturber p;
        ASSERT_TRUE(SchedulePerturber::parse(text, &p, nullptr))
            << text;
        probes.push_back(p);
    }

    const chk::Explorer serial;
    std::vector<chk::TrialResult> want;
    for (const SchedulePerturber &p : probes)
        want.push_back(serial.runTrial(*storm, p));

    for (const Shape &shape : kShapes) {
        const chk::Explorer farmed(nullptr, shape.farm);
        const std::vector<chk::TrialResult> got =
            farmed.runTrials(*storm, probes);
        ASSERT_EQ(got.size(), want.size()) << shape.name;
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].digest, want[i].digest)
                << shape.name << " probe " << texts[i];
            EXPECT_EQ(got[i].completed, want[i].completed)
                << shape.name << " probe " << texts[i];
            EXPECT_EQ(got[i].predicate_ok, want[i].predicate_ok)
                << shape.name << " probe " << texts[i];
            EXPECT_EQ(got[i].violation_count, want[i].violation_count)
                << shape.name << " probe " << texts[i];
            EXPECT_EQ(got[i].events_fired, want[i].events_fired)
                << shape.name << " probe " << texts[i];
            EXPECT_EQ(got[i].end_time, want[i].end_time)
                << shape.name << " probe " << texts[i];
        }
    }
}

TEST(FarmDeterminism, PassingCampaignIsInvariantAcrossShapes)
{
    const std::vector<chk::Scenario> library = chk::builtinScenarios();
    const chk::Scenario *storm =
        chk::findScenario(library, "storm-baseline");
    ASSERT_NE(storm, nullptr);

    chk::ExploreOptions opt;
    opt.systematic_budget = 18;
    opt.random_budget = 30;

    bool have_first = false;
    chk::ExploreResult first;
    for (const Shape &shape : kShapes) {
        chk::Explorer explorer(nullptr, shape.farm);
        const chk::ExploreResult res = explorer.explore(*storm, opt);
        EXPECT_FALSE(res.foundFailure()) << shape.name;
        if (!have_first) {
            first = res;
            have_first = true;
            continue;
        }
        EXPECT_EQ(res.trials, first.trials) << shape.name;
        EXPECT_EQ(res.failures, first.failures) << shape.name;
        EXPECT_EQ(res.baseline.digest, first.baseline.digest)
            << shape.name;
        EXPECT_EQ(res.baseline.events_fired,
                  first.baseline.events_fired)
            << shape.name;
    }
}

TEST(FarmDeterminism, BrokenStallDetectionIsInvariantAcrossShapes)
{
    const chk::Scenario broken = chk::brokenStallScenario();

    // A tight budget: enough for the systematic sweep to hit the
    // planted bug, small enough that running the campaign four times
    // stays cheap.
    chk::ExploreOptions opt;
    opt.systematic_budget = 60;
    opt.random_budget = 60;
    opt.minimize_budget = 60;

    bool have_first = false;
    chk::ExploreResult first;
    for (const Shape &shape : kShapes) {
        chk::Explorer explorer(nullptr, shape.farm);
        const chk::ExploreResult res = explorer.explore(broken, opt);
        ASSERT_FALSE(res.baseline_failed) << shape.name;
        ASSERT_GT(res.failures, 0u)
            << shape.name << ": explorer missed the planted bug";
        ASSERT_FALSE(res.minimized_schedule.empty()) << shape.name;
        EXPECT_TRUE(res.minimized_result.failed()) << shape.name;
        if (!have_first) {
            first = res;
            have_first = true;
            continue;
        }
        // The whole campaign transcript matches the serial one: same
        // trial count, same first failure, same minimized reproducer.
        EXPECT_EQ(res.trials, first.trials) << shape.name;
        EXPECT_EQ(res.failures, first.failures) << shape.name;
        EXPECT_EQ(res.first_failing.format(),
                  first.first_failing.format())
            << shape.name;
        EXPECT_EQ(res.first_failure.digest, first.first_failure.digest)
            << shape.name;
        EXPECT_EQ(res.minimized_schedule, first.minimized_schedule)
            << shape.name;
        EXPECT_EQ(res.minimized_result.digest,
                  first.minimized_result.digest)
            << shape.name;
    }
}

// ---------------------------------------------------------------------
// The determinism golden digests, reproduced on farm worker threads.
// The values are the same ones tests/determinism_test.cc pins on the
// main thread; xpr::runDigest implements the shared formula. If these
// fail while determinism_test passes, some cross-machine state leaked
// between concurrent Machine instances.
// ---------------------------------------------------------------------

std::uint64_t
fnv1aU64(std::uint64_t hash, std::uint64_t value)
{
    for (unsigned i = 0; i < 8; ++i) {
        hash ^= (value >> (8 * i)) & 0xff;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/** Tester (6 children) followed by a denser 12-child storm. */
std::uint64_t
stormDigest(std::uint64_t seed, bool software_reload, bool *consistent)
{
    setLogQuiet(true);
    std::uint64_t hash = 0xcbf29ce484222325ull;
    *consistent = true;
    {
        hw::MachineConfig config;
        config.seed = seed;
        config.tlb_software_reload = software_reload;
        vm::Kernel kernel(config);
        apps::ConsistencyTester tester(
            {.children = 6, .warmup = 20 * kMsec});
        tester.execute(kernel);
        *consistent = *consistent && tester.consistent();
        hash = fnv1aU64(hash, xpr::runDigest(kernel));
    }
    {
        hw::MachineConfig config;
        config.seed = seed ^ 0x5702;
        config.tlb_software_reload = software_reload;
        vm::Kernel kernel(config);
        apps::ConsistencyTester tester(
            {.children = 12, .warmup = 30 * kMsec});
        tester.execute(kernel);
        *consistent = *consistent && tester.consistent();
        hash = fnv1aU64(hash, xpr::runDigest(kernel));
    }
    return hash;
}

TEST(FarmGolden, StormDigestsMatchGoldenOnWorkerThreads)
{
    struct Case
    {
        std::uint64_t seed;
        bool software_reload;
        std::uint64_t golden;
    };
    const Case cases[] = {
        {0x1dea1, false, 0xbcf7d61b291003ddull},
        {0x2bead, false, 0x8d49626805e29b8cull},
        {0x1dea1, true, 0xf45a6047acf36e1full},
        {0x2bead, true, 0x74e62422e4263b4cull},
    };

    // All four digest cases concurrently: eight Machine instances
    // total, four live at once on four workers.
    std::uint64_t digests[std::size(cases)] = {};
    bool consistent[std::size(cases)] = {};
    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < std::size(cases); ++i)
        jobs.push_back([&cases, &digests, &consistent, i] {
            digests[i] = stormDigest(cases[i].seed,
                                     cases[i].software_reload,
                                     &consistent[i]);
        });
    farm::runMany(std::move(jobs), 4);

    for (std::size_t i = 0; i < std::size(cases); ++i) {
        EXPECT_TRUE(consistent[i]) << "case " << i;
        EXPECT_EQ(digests[i], cases[i].golden)
            << "seed " << cases[i].seed << " swr "
            << cases[i].software_reload;
    }
}

TEST(FarmGolden, PerturbedReplaysMatchGoldenOnWorkerThreads)
{
    struct Case
    {
        std::uint64_t seed;
        const char *schedule;
        std::uint64_t golden;
    };
    const Case cases[] = {
        {0x1dea1, "e901+350000,e2207+90000,b333+15000",
         0x207711fada9b11d2ull},
        {0x2bead, "e4096+1200000,b77+48000", 0x4ea566a2c56d21b8ull},
    };

    std::uint64_t digests[std::size(cases)] = {};
    bool consistent[std::size(cases)] = {};
    bool parsed[std::size(cases)] = {};
    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < std::size(cases); ++i)
        jobs.push_back([&cases, &digests, &consistent, &parsed, i] {
            setLogQuiet(true);
            SchedulePerturber perturber;
            parsed[i] = SchedulePerturber::parse(cases[i].schedule,
                                                 &perturber, nullptr);
            if (!parsed[i])
                return;
            hw::MachineConfig config;
            config.seed = cases[i].seed;
            vm::Kernel kernel(config);
            kernel.machine().setPerturber(&perturber);
            apps::ConsistencyTester tester(
                {.children = 6, .warmup = 20 * kMsec});
            tester.execute(kernel);
            consistent[i] = tester.consistent();
            kernel.machine().setPerturber(nullptr);
            digests[i] = xpr::runDigest(kernel);
        });
    farm::runMany(std::move(jobs), 2);

    for (std::size_t i = 0; i < std::size(cases); ++i) {
        ASSERT_TRUE(parsed[i]) << cases[i].schedule;
        EXPECT_TRUE(consistent[i]) << cases[i].schedule;
        EXPECT_EQ(digests[i], cases[i].golden) << cases[i].schedule;
    }
}

} // namespace
