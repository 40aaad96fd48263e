/**
 * @file
 * Determinism guarantees: the whole point of the simulated substrate
 * is that every experiment replays bit-identically from its
 * configuration, so results in EXPERIMENTS.md are reproducible.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "apps/camelot.hh"
#include "apps/consistency_tester.hh"
#include "base/perturb.hh"
#include "chk/explorer.hh"
#include "chk/scenario.hh"
#include "hw/tlb.hh"
#include "pmap/shootdown.hh"
#include "vm/kernel.hh"

namespace mach
{
namespace
{

/** Serialize every xpr record of a run into a comparable string. */
std::string
fingerprint(const xpr::Buffer &buffer)
{
    std::ostringstream out;
    buffer.forEach([&out](const xpr::Event &event) {
        out << static_cast<int>(event.kind) << ':' << event.cpu << ':'
            << event.timestamp << ':' << event.kernel_pmap << ':'
            << event.pages << ':' << event.procs << ':'
            << event.elapsed << '\n';
    });
    return out.str();
}

TEST(Determinism, TesterRunsAreBitIdentical)
{
    setLogQuiet(true);
    std::string first;
    for (int round = 0; round < 2; ++round) {
        hw::MachineConfig config;
        config.seed = 0xd37e3;
        vm::Kernel kernel(config);
        apps::ConsistencyTester tester(
            {.children = 6, .warmup = 20 * kMsec});
        tester.execute(kernel);
        const std::string print = fingerprint(kernel.machine().xpr());
        ASSERT_FALSE(print.empty());
        if (round == 0)
            first = print;
        else
            EXPECT_EQ(print, first);
    }
}

TEST(Determinism, CamelotRunsAreBitIdentical)
{
    setLogQuiet(true);
    std::string first;
    Tick first_runtime = 0;
    for (int round = 0; round < 2; ++round) {
        hw::MachineConfig config;
        config.seed = 0xd37e4;
        vm::Kernel kernel(config);
        apps::Camelot app({.transactions = 40});
        const apps::WorkloadResult result = app.execute(kernel);
        const std::string print = fingerprint(kernel.machine().xpr());
        if (round == 0) {
            first = print;
            first_runtime = result.virtual_runtime;
        } else {
            EXPECT_EQ(print, first);
            EXPECT_EQ(result.virtual_runtime, first_runtime);
        }
    }
}

TEST(Determinism, DifferentSeedsDiffer)
{
    setLogQuiet(true);
    std::string prints[2];
    for (int i = 0; i < 2; ++i) {
        hw::MachineConfig config;
        config.seed = 0xd37e5 + i;
        vm::Kernel kernel(config);
        apps::Camelot app({.transactions = 40});
        app.execute(kernel);
        prints[i] = fingerprint(kernel.machine().xpr());
    }
    EXPECT_NE(prints[0], prints[1]);
}

// ---------------------------------------------------------------------
// Determinism digests: a single FNV-1a hash over the xpr event stream,
// every CPU's TLB counters, and the shootdown controller's counters.
// The digest pins the simulator's *entire observable order contract*:
// the (time, insertion-seq) total order of the event queue, the RNG
// draw sequence, and the TLB bookkeeping. Any rewrite of the hot core
// (event heap, indexed TLB, batched bus charging) must leave these
// digests bit-identical -- the golden values below were captured from
// the original std::map event queue and linear-scan TLB.
// ---------------------------------------------------------------------

/** FNV-1a, fixed offsets/primes: stable across platforms and stdlibs. */
std::uint64_t
fnv1a(std::uint64_t hash, const void *data, std::size_t len)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::uint64_t
fnv1aU64(std::uint64_t hash, std::uint64_t value)
{
    return fnv1a(hash, &value, sizeof(value));
}

/** Hash everything the order contract can influence. */
std::uint64_t
runDigest(vm::Kernel &kernel)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    const std::string print = fingerprint(kernel.machine().xpr());
    hash = fnv1a(hash, print.data(), print.size());
    hash = fnv1aU64(hash, kernel.machine().now());
    for (CpuId id = 0; id < kernel.machine().ncpus(); ++id) {
        const hw::Tlb &tlb = kernel.machine().cpu(id).tlb();
        hash = fnv1aU64(hash, tlb.hits);
        hash = fnv1aU64(hash, tlb.misses);
        hash = fnv1aU64(hash, tlb.writebacks);
        hash = fnv1aU64(hash, tlb.flushes);
        hash = fnv1aU64(hash, tlb.single_invalidates);
        hash = fnv1aU64(hash, tlb.full_flushes);
        hash = fnv1aU64(hash, tlb.validCount());
    }
    const pmap::ShootdownController &shoot = kernel.pmaps().shoot();
    hash = fnv1aU64(hash, shoot.initiated);
    hash = fnv1aU64(hash, shoot.delayed_waits);
    hash = fnv1aU64(hash, shoot.interrupts_sent);
    hash = fnv1aU64(hash, shoot.responder_passes);
    hash = fnv1aU64(hash, shoot.idle_drains);
    hash = fnv1aU64(hash, shoot.queue_overflows);
    hash = fnv1aU64(hash, shoot.remote_invalidates);
    return hash;
}

/** Tester (6 children) followed by a denser 12-child shootdown storm. */
std::uint64_t
stormDigest(std::uint64_t seed, bool software_reload,
            bool l0 = true)
{
    setLogQuiet(true);
    std::uint64_t hash = 0xcbf29ce484222325ull;
    {
        hw::MachineConfig config;
        config.seed = seed;
        config.tlb_software_reload = software_reload;
        if (!l0)
            config.tlb_l0_entries = 0;
        vm::Kernel kernel(config);
        apps::ConsistencyTester tester(
            {.children = 6, .warmup = 20 * kMsec});
        tester.execute(kernel);
        EXPECT_TRUE(tester.consistent());
        hash = fnv1aU64(hash, runDigest(kernel));
    }
    {
        hw::MachineConfig config;
        config.seed = seed ^ 0x5702;
        config.tlb_software_reload = software_reload;
        if (!l0)
            config.tlb_l0_entries = 0;
        vm::Kernel kernel(config);
        apps::ConsistencyTester tester(
            {.children = 12, .warmup = 30 * kMsec});
        tester.execute(kernel);
        EXPECT_TRUE(tester.consistent());
        hash = fnv1aU64(hash, runDigest(kernel));
    }
    return hash;
}

struct DigestCase
{
    std::uint64_t seed;
    bool software_reload;
    std::uint64_t golden;
};

TEST(DeterminismDigest, StormDigestsMatchGolden)
{
    // Golden digests captured from the seed implementation (std::map
    // event queue, linear-scan TLB) -- see test comment above. Two
    // seeds x two machine configs (baseline Multimax, software-reload).
    const DigestCase cases[] = {
        {0x1dea1, false, 0xbcf7d61b291003ddull},
        {0x2bead, false, 0x8d49626805e29b8cull},
        {0x1dea1, true, 0xf45a6047acf36e1full},
        {0x2bead, true, 0x74e62422e4263b4cull},
    };
    for (const DigestCase &c : cases) {
        const std::uint64_t first = stormDigest(c.seed,
                                                c.software_reload);
        const std::uint64_t second = stormDigest(c.seed,
                                                 c.software_reload);
        EXPECT_EQ(first, second)
            << "seed " << c.seed << " swr " << c.software_reload;
        EXPECT_EQ(first, c.golden)
            << "seed " << c.seed << " swr " << c.software_reload;
    }
}

TEST(DeterminismDigest, HostCachesAreTimingNeutral)
{
    // The L0 translation cache is a host-speed device only: disabling
    // it (the machsim --no-l0 switch) must reproduce the exact golden
    // digests of the cached runs. A digest divergence here means the
    // L0 changed simulated behaviour.
    const DigestCase cases[] = {
        {0x1dea1, false, 0xbcf7d61b291003ddull},
        {0x2bead, true, 0x74e62422e4263b4cull},
    };
    for (const DigestCase &c : cases) {
        const std::uint64_t uncached =
            stormDigest(c.seed, c.software_reload, /*l0=*/false);
        EXPECT_EQ(uncached, c.golden)
            << "seed " << c.seed << " swr " << c.software_reload;
    }
}

/** One tester run replayed under a fixed perturbation schedule. */
std::uint64_t
perturbedDigest(std::uint64_t seed, const char *schedule)
{
    setLogQuiet(true);
    SchedulePerturber perturber;
    std::string error;
    EXPECT_TRUE(SchedulePerturber::parse(schedule, &perturber, &error))
        << error;
    hw::MachineConfig config;
    config.seed = seed;
    vm::Kernel kernel(config);
    kernel.machine().setPerturber(&perturber);
    apps::ConsistencyTester tester(
        {.children = 6, .warmup = 20 * kMsec});
    tester.execute(kernel);
    EXPECT_TRUE(tester.consistent());
    kernel.machine().setPerturber(nullptr);
    return runDigest(kernel);
}

struct PerturbedCase
{
    std::uint64_t seed;
    const char *schedule;
    std::uint64_t golden;
};

TEST(DeterminismDigest, PerturbedReplaysMatchGolden)
{
    // A perturbation list completely names an interleaving: replaying
    // the same `--schedule` string must be bit-exact, run after run
    // and build after build. These pin the checker's replay contract
    // the same way the storm digests above pin the order contract.
    const PerturbedCase cases[] = {
        {0x1dea1, "e901+350000,e2207+90000,b333+15000",
         0x207711fada9b11d2ull},
        {0x2bead, "e4096+1200000,b77+48000", 0x4ea566a2c56d21b8ull},
    };
    for (const PerturbedCase &c : cases) {
        const std::uint64_t first = perturbedDigest(c.seed,
                                                    c.schedule);
        const std::uint64_t second = perturbedDigest(c.seed,
                                                     c.schedule);
        EXPECT_EQ(first, second) << "schedule " << c.schedule;
        EXPECT_EQ(first, c.golden) << "schedule " << c.schedule;
        // The schedule really steered the run somewhere new: the
        // unperturbed machine with the same seed hashes differently.
        EXPECT_NE(first, perturbedDigest(c.seed, ""))
            << "schedule " << c.schedule;
    }
}

TEST(DeterminismDigest, InterleavingSignaturesAreStable)
{
    // The fuzzer's coverage signal must be a property of the schedule,
    // not of how the trial was observed: the same (scenario, schedule)
    // pair yields the same per-window signature list run after run,
    // with or without the Perfetto exporter attached, and with the
    // host-speed caches (machsim --no-l0) on or off. If any of these
    // diverge, corpus buckets stop naming interleavings and the
    // guided campaign chases observation noise.
    setLogQuiet(true);
    const std::vector<chk::Scenario> library = chk::builtinScenarios();
    const chk::Scenario *storm =
        chk::findScenario(library, "storm-baseline");
    ASSERT_NE(storm, nullptr);

    SchedulePerturber perturber;
    ASSERT_TRUE(SchedulePerturber::parse("e120+350000,b40+48000",
                                         &perturber, nullptr));

    const chk::Explorer explorer;
    const chk::TrialResult once =
        explorer.runTrialRecorded(*storm, perturber, nullptr);
    ASSERT_FALSE(once.signatures.empty());
    const chk::TrialResult again =
        explorer.runTrialRecorded(*storm, perturber, nullptr);
    EXPECT_EQ(once.signatures, again.signatures);
    EXPECT_EQ(once.digest, again.digest);

    // Signing is observation, not simulation: the unsigned trial and
    // a fully recorded trial reproduce the same digest.
    const chk::TrialResult unsigned_run =
        explorer.runTrial(*storm, perturber);
    EXPECT_TRUE(unsigned_run.signatures.empty());
    EXPECT_EQ(unsigned_run.digest, once.digest);
    std::string trace_json;
    const chk::TrialResult recorded =
        explorer.runTrialRecorded(*storm, perturber, &trace_json);
    EXPECT_EQ(recorded.digest, once.digest);
    EXPECT_FALSE(trace_json.empty());

    // The L0 is timing-neutral (HostCachesAreTimingNeutral), so it must
    // also be signature-neutral: the --no-l0 twin of the scenario
    // visits the same interleaving windows.
    chk::Scenario no_l0 = *storm;
    no_l0.config.tlb_l0_entries = 0;
    const chk::TrialResult uncached =
        explorer.runTrialRecorded(no_l0, perturber, nullptr);
    EXPECT_EQ(uncached.signatures, once.signatures);
    EXPECT_EQ(uncached.digest, once.digest);
}

} // namespace
} // namespace mach
