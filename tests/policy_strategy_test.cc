/**
 * @file
 * The `strategy` test tier: every shootdown-avoidance policy runs the
 * full checker scenario library under the stale-translation oracle,
 * the same way CI exercises the baseline protocol.
 *
 * Each (scenario, policy) pair re-runs the scenario's unperturbed
 * baseline trial with the policy swapped in through
 * MachineConfig::setShootdownPolicy(), which adds the TLB feature the
 * policy requires. The trial must finish within
 * its liveness bound, hold the scenario's safety predicate, and draw
 * zero oracle violations. Scenario-specific coverage is NOT asserted
 * here: coverage targets the path the scenario was written to stress
 * under its own configuration, and a policy that elides IPIs or
 * defers flushes legitimately steers execution around it.
 *
 * A second group pins per-policy golden runDigests for the Parthenon
 * app, extending the determinism contract (NumaDeterminism,
 * StormDigest) to every policy: any change to a policy's decision
 * points must either leave these bit-identical or consciously
 * re-capture them.
 *
 * A third walks the whole consistency design space -- technique x IPI
 * send x ref/mod TLB -- on one small machine: every point is either
 * rejected by validate() with a message or runs the Section 5.1
 * tester consistently (inconsistently under Off, the negative
 * control).
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "apps/consistency_tester.hh"
#include "apps/parthenon.hh"
#include "base/perturb.hh"
#include "chk/explorer.hh"
#include "chk/scenario.hh"
#include "hw/machine_config.hh"
#include "pmap/policy.hh"
#include "vm/kernel.hh"
#include "xpr/machine_stats.hh"

namespace mach
{
namespace
{

/** The four avoidance policies beyond the 1989 baseline. */
constexpr hw::ShootdownPolicy kAvoidancePolicies[] = {
    hw::ShootdownPolicy::LazyAsid,
    hw::ShootdownPolicy::Batched,
    hw::ShootdownPolicy::RangeFlush,
    hw::ShootdownPolicy::ReuseElide,
};

/**
 * Whether validate() accepts @p config. validate() exits on a reject,
 * so a child process asks it.
 */
bool
validateAccepts(const hw::MachineConfig &config)
{
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
        std::freopen("/dev/null", "w", stderr);
        config.validate();
        std::_Exit(0);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/**
 * Retarget @p config at @p policy through setShootdownPolicy().
 * Returns false when the scenario's own technique replaces the
 * algorithm the policies layer over (delayed-flush,
 * remote-invalidate), or when validate() rejects the result.
 */
bool
retarget(hw::MachineConfig &config, hw::ShootdownPolicy policy)
{
    const hw::ShootdownPolicy own = config.shootdown_policy;
    if (own == hw::ShootdownPolicy::Off ||
        own == hw::ShootdownPolicy::DelayedFlush ||
        own == hw::ShootdownPolicy::RemoteInvalidate)
        return false;
    config.setShootdownPolicy(policy);
    return validateAccepts(config);
}

std::vector<std::string>
scenarioNames()
{
    std::vector<std::string> names;
    for (const chk::Scenario &s : chk::builtinScenarios())
        names.push_back(s.name);
    return names;
}

class PolicyScenario
    : public ::testing::TestWithParam<
          std::tuple<std::string, hw::ShootdownPolicy>>
{
};

TEST_P(PolicyScenario, BaselineTrialStaysOracleClean)
{
    setLogQuiet(true);
    const std::vector<chk::Scenario> library = chk::builtinScenarios();
    const chk::Scenario *found =
        chk::findScenario(library, std::get<0>(GetParam()));
    ASSERT_NE(found, nullptr);

    chk::Scenario scenario = *found;
    const hw::ShootdownPolicy policy = std::get<1>(GetParam());
    if (!retarget(scenario.config, policy)) {
        GTEST_SKIP() << "scenario hardware is incompatible with "
                     << hw::shootdownPolicyName(policy);
    }

    const chk::Explorer explorer;
    const chk::TrialResult res =
        explorer.runTrial(scenario, SchedulePerturber{});

    EXPECT_TRUE(res.completed)
        << scenario.name << " under "
        << hw::shootdownPolicyName(policy)
        << " missed its liveness bound";
    EXPECT_TRUE(res.predicate_ok) << res.note;
    EXPECT_EQ(res.violation_count, 0u)
        << (res.violations.empty() ? res.note
                                   : res.violations.front());
}

INSTANTIATE_TEST_SUITE_P(
    Chk, PolicyScenario,
    ::testing::Combine(::testing::ValuesIn(scenarioNames()),
                       ::testing::ValuesIn(kAvoidancePolicies)),
    [](const ::testing::TestParamInfo<
        std::tuple<std::string, hw::ShootdownPolicy>> &info) {
        std::string name = std::get<0>(info.param);
        name += '_';
        name += hw::shootdownPolicyName(std::get<1>(info.param));
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

// ---------------------------------------------------------------------
// Per-policy Parthenon golden digests.
// ---------------------------------------------------------------------

/** Parthenon on the default Multimax shape under @p policy. */
std::uint64_t
parthenonPolicyDigest(hw::ShootdownPolicy policy)
{
    setLogQuiet(true);
    hw::MachineConfig config;
    config.seed = 0x9a27e70;
    config.setShootdownPolicy(policy);
    vm::Kernel kernel(config);
    apps::Parthenon::Params params;
    params.runs = 2;
    apps::Parthenon app(params);
    app.execute(kernel);
    EXPECT_GT(app.items_processed, 0u);
    EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
    return xpr::runDigest(kernel);
}

TEST(PolicyDeterminism, ParthenonDigestsMatchGolden)
{
    // Golden digests captured when the policy layer landed. The
    // policy counters themselves stay out of runDigest (so the
    // Baseline digest matches pre-policy goldens); these pin the
    // *timing* effect of each policy's decisions instead.
    const std::uint64_t base =
        parthenonPolicyDigest(hw::ShootdownPolicy::Baseline);
    const std::uint64_t lazy =
        parthenonPolicyDigest(hw::ShootdownPolicy::LazyAsid);
    const std::uint64_t batched =
        parthenonPolicyDigest(hw::ShootdownPolicy::Batched);
    const std::uint64_t range =
        parthenonPolicyDigest(hw::ShootdownPolicy::RangeFlush);
    const std::uint64_t reuse =
        parthenonPolicyDigest(hw::ShootdownPolicy::ReuseElide);

    EXPECT_EQ(base, 0xbd656fd606438366ull);
    EXPECT_EQ(lazy, 0x0431eefc07f42c44ull);
    EXPECT_EQ(batched, 0xbd656fd606438366ull);
    EXPECT_EQ(range, 0xbd656fd606438366ull);
    EXPECT_EQ(reuse, 0x00bb60ce0780898full);

    // Parthenon's lazy evaluation leaves so few kernel shootdowns
    // that batching and range selection never diverge from the
    // baseline protocol here -- the digests coincide by design (the
    // strategy_comparison bench is where those policies move the
    // needle). LazyAsid and ReuseElide change fill/flush behaviour
    // on every context switch and reuse, so they genuinely diverge.
    EXPECT_NE(lazy, base);
    EXPECT_NE(reuse, base);

    // Run-to-run: same policy, same digest.
    EXPECT_EQ(parthenonPolicyDigest(hw::ShootdownPolicy::LazyAsid),
              lazy);
    EXPECT_EQ(parthenonPolicyDigest(hw::ShootdownPolicy::Batched),
              batched);
}

// ---------------------------------------------------------------------
// The consistency design space.
// ---------------------------------------------------------------------

using DesignPoint =
    std::tuple<hw::ShootdownPolicy, hw::IpiSend, hw::TlbRefmod>;

/** "baseline_directed_writeback", ... */
std::string
designPointName(const ::testing::TestParamInfo<DesignPoint> &info)
{
    static constexpr const char *kSends[] = {"directed", "multicast",
                                             "broadcast"};
    static constexpr const char *kRefmods[] = {"writeback", "interlocked",
                                               "none"};
    std::string name = hw::shootdownPolicyName(std::get<0>(info.param));
    name += '_';
    name += kSends[static_cast<unsigned>(std::get<1>(info.param))];
    name += '_';
    name += kRefmods[static_cast<unsigned>(std::get<2>(info.param))];
    std::replace(name.begin(), name.end(), '-', '_');
    return name;
}

class ConsistencyDesignSpace
    : public ::testing::TestWithParam<DesignPoint>
{
};

TEST_P(ConsistencyDesignSpace, RejectedOrRunsClean)
{
    setLogQuiet(true);
    const auto [policy, send, refmod] = GetParam();
    hw::MachineConfig config;
    config.ncpus = 4;
    config.ipi_send = send;
    config.tlb_refmod = refmod;
    config.setShootdownPolicy(policy);
    if (!validateAccepts(config)) {
        EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                    "MachineConfig: ");
        return;
    }

    vm::Kernel kernel(config);
    apps::ConsistencyTester tester({.children = 3, .warmup = 20 * kMsec});
    tester.execute(kernel);
    ASSERT_EQ(tester.finalCounters().size(), 3u) << "did not finish";
    if (policy == hw::ShootdownPolicy::Off) {
        EXPECT_FALSE(tester.consistent());
    } else {
        EXPECT_TRUE(tester.consistent());
        EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Points, ConsistencyDesignSpace,
    ::testing::Combine(
        ::testing::Values(hw::ShootdownPolicy::Baseline,
                          hw::ShootdownPolicy::LazyAsid,
                          hw::ShootdownPolicy::Batched,
                          hw::ShootdownPolicy::RangeFlush,
                          hw::ShootdownPolicy::ReuseElide,
                          hw::ShootdownPolicy::Off,
                          hw::ShootdownPolicy::DelayedFlush,
                          hw::ShootdownPolicy::RemoteInvalidate),
        ::testing::Values(hw::IpiSend::Directed, hw::IpiSend::Multicast,
                          hw::IpiSend::Broadcast),
        ::testing::Values(hw::TlbRefmod::Writeback,
                          hw::TlbRefmod::Interlocked,
                          hw::TlbRefmod::None)),
    designPointName);

} // namespace
} // namespace mach
