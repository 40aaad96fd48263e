/**
 * @file
 * Reference-model fuzzing of the VM system. The VmFuzz and
 * VmFuzzPolicy arms run the checker's generator (chk/vmgen.hh): a
 * seeded sequence of allocate / write / read / protect / copy / remap
 * / deallocate operations is executed against both the simulated
 * kernel and a host-side model of what the address space should
 * contain, every read is checked against the model and every
 * protection decision against the model's rights, and the trial runs
 * under the stale-translation oracle, which audits every TLB after
 * each pmap operation. The arms below them fuzz paging, fork
 * inheritance and DMA ops.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "base/perturb.hh"
#include "chk/explorer.hh"
#include "chk/vmgen.hh"
#include "vm/kernel.hh"

namespace mach
{
namespace
{

/** Run @p scenario unperturbed and check every verdict the trial
 *  reports: finished, model predicate, coverage, oracle. */
void
expectCleanTrial(const chk::Scenario &scenario)
{
    const chk::TrialResult r =
        chk::Explorer().runTrial(scenario, SchedulePerturber{});
    EXPECT_TRUE(r.completed) << scenario.name;
    EXPECT_TRUE(r.predicate_ok) << scenario.name << ": " << r.note;
    EXPECT_TRUE(r.coverage_ok) << scenario.name << ": " << r.note;
    EXPECT_EQ(r.violation_count, 0u)
        << scenario.name << ": "
        << (r.violations.empty() ? "" : r.violations.front());
}

/** (seed, NUMA node count): every seed runs on the single-bus
 *  Multimax shape and on a 2-node machine, where allocations and
 *  shootdowns cross node boundaries. */
class VmFuzz
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>>
{
};

TEST_P(VmFuzz, MatchesReferenceModel)
{
    setLogQuiet(true);
    expectCleanTrial(chk::vmgenScenario(
        {std::get<0>(GetParam()), 4, std::get<1>(GetParam())}));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, VmFuzz,
    ::testing::Combine(::testing::Values(11, 22, 33, 44, 55, 66, 77,
                                         88, 101, 112, 123, 134, 145,
                                         156, 167, 178),
                       ::testing::Values(1u, 2u)));

/**
 * The same reference-model fuzz under every shootdown-avoidance
 * policy: deferred flushes, coalesced IPIs, range invalidation and
 * reuse elision must all remain invisible to the VM semantics --
 * every read still matches the model, every protection decision
 * still matches the model's rights, and the oracle's TLB-vs-PTE
 * audits still come back clean.
 */
class VmFuzzPolicy
    : public ::testing::TestWithParam<
          std::tuple<hw::ShootdownPolicy, std::uint64_t>>
{
};

TEST_P(VmFuzzPolicy, MatchesReferenceModel)
{
    setLogQuiet(true);
    chk::Scenario scenario =
        chk::vmgenScenario({std::get<1>(GetParam()), 4, 1});
    // Also sets the TLB feature the policy requires.
    scenario.config.setShootdownPolicy(std::get<0>(GetParam()));
    expectCleanTrial(scenario);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, VmFuzzPolicy,
    ::testing::Combine(
        ::testing::Values(hw::ShootdownPolicy::LazyAsid,
                          hw::ShootdownPolicy::Batched,
                          hw::ShootdownPolicy::RangeFlush,
                          hw::ShootdownPolicy::ReuseElide),
        ::testing::Values(11, 55, 123, 178)),
    [](const ::testing::TestParamInfo<
        std::tuple<hw::ShootdownPolicy, std::uint64_t>> &info) {
        std::string name =
            hw::shootdownPolicyName(std::get<0>(info.param));
        std::replace(name.begin(), name.end(), '-', '_');
        return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// The same fuzz under memory pressure: the pageout daemon steals pages
// between operations, so reads exercise pagein and busy-page waits on
// top of the COW machinery. The model must still match exactly.
// ---------------------------------------------------------------------

class VmFuzzPaged : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(VmFuzzPaged, MatchesModelUnderPageout)
{
    const std::uint64_t seed = GetParam();
    setLogQuiet(true);
    hw::MachineConfig config;
    config.ncpus = 4;
    config.seed = seed;
    config.phys_frames = 192;
    config.pageout_low_frames = 120;
    config.pagein_latency = 1 * kMsec;
    config.pageout_latency = 1 * kMsec;
    vm::Kernel kernel(config);
    kernel.start();
    kernel.enablePageout();

    bool finished = false;
    kernel.spawnThread(nullptr, "paged-fuzz", [&](kern::Thread &drv) {
        vm::Task *task = kernel.createTask("paged");
        kern::Thread *body = kernel.spawnThread(
            task, "paged-body", [&](kern::Thread &self) {
                Rng rng(seed * 48271 + 3);
                std::map<VAddr, std::uint32_t> model;

                // Working set bigger than the pageout threshold
                // allows, so pages keep cycling to backing store.
                for (int i = 0; i < 90; ++i) {
                    VAddr va = 0;
                    ASSERT_TRUE(kernel.vmAllocate(self, *task, &va,
                                                  kPageSize, true));
                    const auto value =
                        static_cast<std::uint32_t>(rng.next());
                    ASSERT_TRUE(self.store32(va, value));
                    model[va] = value;
                }

                for (int op = 0; op < 150; ++op) {
                    auto it = model.begin();
                    std::advance(it, static_cast<long>(
                                         rng.below(model.size())));
                    if (rng.chance(0.35)) {
                        const auto value =
                            static_cast<std::uint32_t>(rng.next());
                        ASSERT_TRUE(self.store32(it->first, value));
                        it->second = value;
                    } else {
                        std::uint32_t value = 0;
                        ASSERT_TRUE(self.load32(it->first, &value));
                        ASSERT_EQ(value, it->second)
                            << "page 0x" << std::hex << it->first;
                    }
                    if (op % 10 == 0)
                        self.sleep(5 * kMsec); // Let the daemon work.
                }
            });
        drv.join(*body);
        finished = true;
        kernel.machine().ctx().requestStop();
    });
    kernel.machine().run();
    ASSERT_TRUE(finished);
    EXPECT_GT(kernel.pager().pageouts, 0u)
        << "test produced no memory pressure";
    EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmFuzzPaged,
                         ::testing::Values(7, 17, 27, 37));

// ---------------------------------------------------------------------
// Multi-task fork fuzz: a region is inherited across random forks with
// random Share/Copy/None inheritance; writes happen from random tasks.
// The model represents Share as an aliased value map and Copy as a
// snapshot, which is exactly the semantics Section 2 promises.
// ---------------------------------------------------------------------

class ForkFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ForkFuzz, InheritanceSemanticsMatchModel)
{
    const std::uint64_t seed = GetParam();
    setLogQuiet(true);
    hw::MachineConfig config;
    config.ncpus = 8;
    config.seed = seed;
    vm::Kernel kernel(config);
    kernel.start();

    constexpr unsigned kPages = 4;
    bool finished = false;

    kernel.spawnThread(nullptr, "fork-fuzz", [&](kern::Thread &drv) {
        Rng rng(seed * 6364136223846793005ull + 1442695040888963407ull);

        struct Node
        {
            vm::Task *task;
            // Share aliases the map; Copy snapshots it; None -> null.
            std::shared_ptr<std::map<unsigned, std::uint32_t>> values;
        };
        std::vector<Node> nodes;

        VAddr region = 0;
        {
            vm::Task *root = kernel.createTask("fz-root");
            kern::Thread *init = kernel.spawnThread(
                root, "init", [&](kern::Thread &self) {
                    ASSERT_TRUE(kernel.vmAllocate(
                        self, *root, &region, kPages * kPageSize,
                        true));
                    for (unsigned p = 0; p < kPages; ++p)
                        ASSERT_TRUE(self.store32(
                            region + p * kPageSize, 1000 + p));
                });
            drv.join(*init);
            auto values = std::make_shared<
                std::map<unsigned, std::uint32_t>>();
            for (unsigned p = 0; p < kPages; ++p)
                (*values)[p] = 1000 + p;
            nodes.push_back({root, values});
        }

        auto run_in = [&](vm::Task *task,
                          const std::function<void(kern::Thread &)>
                              &body) {
            kern::Thread *agent =
                kernel.spawnThread(task, "agent", body);
            drv.join(*agent);
        };

        for (int op = 0; op < 80; ++op) {
            const std::uint64_t kind = rng.below(100);
            Node &node = nodes[rng.below(nodes.size())];

            if (kind < 20 && nodes.size() < 5) {
                // Fork with a random inheritance on the region.
                static const vm::Inherit kInherits[] = {
                    vm::Inherit::Share, vm::Inherit::Copy,
                    vm::Inherit::None};
                const vm::Inherit inherit = kInherits[rng.below(3)];
                vm::Task *parent = node.task;
                auto parent_values = node.values;
                vm::Task *child = nullptr;
                run_in(parent, [&](kern::Thread &self) {
                    ASSERT_TRUE(kernel.vmInherit(
                        self, *parent, region, kPages * kPageSize,
                        inherit));
                    child = kernel.forkTask(self, *parent,
                                            "fz-child");
                });
                Node fresh{child, nullptr};
                if (parent_values != nullptr) {
                    if (inherit == vm::Inherit::Share) {
                        fresh.values = parent_values; // Aliased.
                    } else if (inherit == vm::Inherit::Copy) {
                        fresh.values = std::make_shared<
                            std::map<unsigned, std::uint32_t>>(
                            *parent_values); // Snapshot.
                    }
                }
                nodes.push_back(fresh);
            } else if (kind < 60) {
                // Write from this task.
                const unsigned page =
                    static_cast<unsigned>(rng.below(kPages));
                const auto value =
                    static_cast<std::uint32_t>(rng.next());
                run_in(node.task, [&](kern::Thread &self) {
                    const bool ok = self.store32(
                        region + page * kPageSize, value);
                    ASSERT_EQ(ok, node.values != nullptr);
                });
                if (node.values != nullptr)
                    (*node.values)[page] = value;
            } else {
                // Read from this task and check the model.
                const unsigned page =
                    static_cast<unsigned>(rng.below(kPages));
                run_in(node.task, [&](kern::Thread &self) {
                    std::uint32_t value = 0;
                    const bool ok = self.load32(
                        region + page * kPageSize, &value);
                    ASSERT_EQ(ok, node.values != nullptr);
                    if (ok) {
                        ASSERT_EQ(value, node.values->at(page))
                            << "task " << node.task->name() << " page "
                            << page << " seed " << seed;
                    }
                });
            }
        }
        finished = true;
        kernel.machine().ctx().requestStop();
    });
    kernel.machine().run();
    ASSERT_TRUE(finished);
    EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForkFuzz,
                         ::testing::Values(3, 13, 23, 43, 53));

// ---------------------------------------------------------------------
// The device-enabled param point: the library generator (chk/vmgen.hh)
// with a DMA device attached to the fuzz task, on UMA and 2-node NUMA
// shapes. Each DMA read/write is predicted by the model and each
// revocation runs the device command / drain path; the trial runs
// under the stale-translation oracle via the explorer harness, which
// is also what auto-enrolls these shapes as checker scenarios.
// ---------------------------------------------------------------------

class VmFuzzDevice
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>>
{
};

TEST_P(VmFuzzDevice, MatchesModelWithDmaOps)
{
    setLogQuiet(true);
    chk::VmGenOptions o;
    o.seed = std::get<0>(GetParam());
    o.numa_nodes = std::get<1>(GetParam());
    if (o.numa_nodes > 1)
        o.ncpus = 2 * o.numa_nodes;
    o.devices = true;
    expectCleanTrial(chk::vmgenScenario(o));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, VmFuzzDevice,
    ::testing::Combine(::testing::Values(3, 7, 21, 42),
                       ::testing::Values(1u, 2u)));

} // namespace
} // namespace mach
