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
 * A third pins each avoidance technique's own traffic: runDigest and
 * the seven avoidance counters of runs that reach every decision
 * point, so a technique whose branch stops firing fails here even
 * when its digest happens to match the baseline's.
 *
 * A fourth walks the whole consistency design space -- technique x IPI
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
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "apps/camelot.hh"
#include "apps/consistency_tester.hh"
#include "apps/parthenon.hh"
#include "apps/serving.hh"
#include "base/perturb.hh"
#include "chk/explorer.hh"
#include "chk/scenario.hh"
#include "hw/machine_config.hh"
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
    // baseline protocol here -- the digests coincide by design
    // (PolicyCounters below pins runs where they diverge). LazyAsid
    // and ReuseElide change fill/flush behaviour on every context
    // switch and reuse, so they genuinely diverge.
    EXPECT_NE(lazy, base);
    EXPECT_NE(reuse, base);

    // Run-to-run: same policy, same digest.
    EXPECT_EQ(parthenonPolicyDigest(hw::ShootdownPolicy::LazyAsid),
              lazy);
    EXPECT_EQ(parthenonPolicyDigest(hw::ShootdownPolicy::Batched),
              batched);
}

// ---------------------------------------------------------------------
// Per-technique avoidance traffic.
// ---------------------------------------------------------------------

/** A run's runDigest and its seven avoidance counters. */
struct Avoidance
{
    std::uint64_t digest = 0;
    std::uint64_t ipis_elided = 0;
    std::uint64_t flushes_deferred = 0;
    std::uint64_t deferred_flushes_applied = 0;
    std::uint64_t actions_merged = 0;
    std::uint64_t range_invalidates = 0;
    std::uint64_t full_space_flushes = 0;
    std::uint64_t reuse_elisions = 0;

    bool operator==(const Avoidance &) const = default;
};

void
PrintTo(const Avoidance &a, std::ostream *os)
{
    *os << std::hex << "{digest 0x" << a.digest << std::dec
        << ", ipis_elided " << a.ipis_elided << ", flushes_deferred "
        << a.flushes_deferred << ", deferred_flushes_applied "
        << a.deferred_flushes_applied << ", actions_merged "
        << a.actions_merged << ", range_invalidates "
        << a.range_invalidates << ", full_space_flushes "
        << a.full_space_flushes << ", reuse_elisions "
        << a.reuse_elisions << "}";
}

Avoidance
avoidanceOf(vm::Kernel &kernel)
{
    const xpr::MachineStats s = xpr::MachineStats::capture(kernel);
    return {xpr::runDigest(kernel),
            s.ipis_elided,
            s.flushes_deferred,
            s.deferred_flushes_applied,
            s.actions_merged,
            s.range_invalidates,
            s.full_space_flushes,
            s.reuse_elisions};
}

/**
 * `machsim --app serving --tenants 4 --mmap-pages 32 --seed 0x9a27e70
 * --shootdown-policy P`: tenant churn context-switches spaces (LazyAsid),
 * concurrent munmaps queue actions for the same pmap (Batched), and
 * 32-page unmaps cross both RangeFlush thresholds.
 */
Avoidance
servingAvoidance(hw::ShootdownPolicy policy)
{
    setLogQuiet(true);
    hw::MachineConfig config;
    config.seed = 0x9a27e70;
    config.setShootdownPolicy(policy);
    vm::Kernel kernel(config);
    apps::Serving::Params params;
    params.tenants = 4;
    params.mmap_pages = 32;
    params.seed = config.seed;
    apps::Serving(params).execute(kernel);
    return avoidanceOf(kernel);
}

/**
 * A task that frees wired, never-touched buffers while a sibling keeps
 * the space current on another processor: vmWire faults the pages in
 * without a TLB fill, so their reference bits stay clear -- the range
 * ReuseElide proves uncached. Under every other technique each free
 * shoots the sibling.
 */
class WiredBufferFrees : public apps::Workload
{
  public:
    std::string name() const override { return "wired-buffer-frees"; }

    void
    run(vm::Kernel &kernel, kern::Thread &driver) override
    {
        constexpr unsigned kBufPages = 16;
        vm::Task *task = kernel.createTask("wired");
        bool stop = false;
        kern::Thread *sibling = kernel.spawnThread(
            task, "wired.1", [&](kern::Thread &self) {
                VAddr ws = 0;
                ASSERT_TRUE(kernel.vmAllocate(self, *task, &ws,
                                              kPageSize, true));
                for (std::uint32_t i = 0; !stop; ++i) {
                    ASSERT_TRUE(self.store32(ws, i));
                    self.compute(100 * kUsec);
                }
            });
        kern::Thread *mapper = kernel.spawnThread(
            task, "wired.0", [&](kern::Thread &self) {
                for (unsigned round = 0; round < 4; ++round) {
                    VAddr buf = 0;
                    ASSERT_TRUE(kernel.vmAllocate(
                        self, *task, &buf, kBufPages * kPageSize, true));
                    ASSERT_TRUE(kernel.vmWire(
                        self, *task, buf, kBufPages * kPageSize, true));
                    self.compute(300 * kUsec);
                    ASSERT_TRUE(kernel.vmWire(
                        self, *task, buf, kBufPages * kPageSize, false));
                    ASSERT_TRUE(kernel.vmDeallocate(
                        self, *task, buf, kBufPages * kPageSize));
                }
            });
        driver.join(*mapper);
        stop = true;
        driver.join(*sibling);
        kernel.destroyTask(driver, task);
    }
};

Avoidance
wiredBufferAvoidance(hw::ShootdownPolicy policy)
{
    setLogQuiet(true);
    hw::MachineConfig config;
    config.ncpus = 4;
    config.seed = 0x9a27e70;
    config.setShootdownPolicy(policy);
    vm::Kernel kernel(config);
    WiredBufferFrees().execute(kernel);
    EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
    return avoidanceOf(kernel);
}

TEST(PolicyCounters, ServingMatchesGolden)
{
    // The counters stay out of runDigest, so they are pinned beside
    // it.
    const Avoidance base = servingAvoidance(hw::ShootdownPolicy::Baseline);
    const Avoidance lazy = servingAvoidance(hw::ShootdownPolicy::LazyAsid);
    const Avoidance batched =
        servingAvoidance(hw::ShootdownPolicy::Batched);
    const Avoidance range =
        servingAvoidance(hw::ShootdownPolicy::RangeFlush);
    const Avoidance reuse =
        servingAvoidance(hw::ShootdownPolicy::ReuseElide);

    EXPECT_EQ(base, (Avoidance{0x3591ab8c82fd3f73, 0, 0, 0, 0, 0, 0, 0}));
    EXPECT_EQ(lazy,
              (Avoidance{0x4df4c84ae71858c0, 67, 117, 85, 0, 0, 0, 0}));
    EXPECT_EQ(batched,
              (Avoidance{0xa8d0be56c2a4faa0, 0, 0, 0, 43, 0, 0, 0}));
    EXPECT_EQ(range, (Avoidance{0xd80d4f25ab8cd223, 0, 0, 0, 0, 1, 42, 0}));
    // Serving writes every page of each mmap burst before unmapping
    // it, so ReuseElide never finds an untouched range here; its
    // digest differs only through the software-reload TLB it requires.
    EXPECT_EQ(reuse, (Avoidance{0xaeae858ec2ddc9a2, 0, 0, 0, 0, 0, 0, 0}));

    // What any recapture must keep: the baseline avoids nothing, and
    // each technique's own branches fire.
    EXPECT_EQ(base, Avoidance{base.digest});
    EXPECT_GT(lazy.ipis_elided, 0u);
    EXPECT_GT(lazy.flushes_deferred, 0u);
    EXPECT_GT(lazy.deferred_flushes_applied, 0u);
    EXPECT_GT(batched.actions_merged, 0u);
    EXPECT_GT(range.range_invalidates, 0u);
    EXPECT_GT(range.full_space_flushes, 0u);
}

/** Camelot at 300 transactions on the default machine. */
Avoidance
camelotAvoidance(hw::ShootdownPolicy policy)
{
    setLogQuiet(true);
    hw::MachineConfig config;
    config.setShootdownPolicy(policy);
    vm::Kernel kernel(config);
    apps::Camelot({.transactions = 300}).execute(kernel);
    return avoidanceOf(kernel);
}

TEST(PolicyCounters, CamelotBatchedElidesIpis)
{
    // Camelot's responders are often mid-pass when the next initiator
    // posts, so Batched folds those IPIs into the running pass; under
    // Baseline no branch may elide one.
    const Avoidance base = camelotAvoidance(hw::ShootdownPolicy::Baseline);
    const Avoidance batched =
        camelotAvoidance(hw::ShootdownPolicy::Batched);
    EXPECT_EQ(base, (Avoidance{0xfdb97e606eb869a5, 0, 0, 0, 0, 0, 0, 0}));
    EXPECT_EQ(batched,
              (Avoidance{0x499916e733b91e46, 108, 0, 0, 3378, 0, 0, 0}));
    EXPECT_EQ(base, Avoidance{base.digest});
    EXPECT_GT(batched.ipis_elided, 0u);
}

TEST(PolicyCounters, WiredBufferFreesAreReuseElided)
{
    const Avoidance base =
        wiredBufferAvoidance(hw::ShootdownPolicy::Baseline);
    const Avoidance reuse =
        wiredBufferAvoidance(hw::ShootdownPolicy::ReuseElide);
    EXPECT_EQ(base, (Avoidance{0x3aed7759e75cd6dd, 0, 0, 0, 0, 0, 0, 0}));
    EXPECT_EQ(reuse, (Avoidance{0xe83504a11ce53081, 0, 0, 0, 0, 0, 0, 4}));
    EXPECT_EQ(base, Avoidance{base.digest});
    EXPECT_GT(reuse.reuse_elisions, 0u);
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
