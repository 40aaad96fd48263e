/**
 * @file
 * Reference-model fuzzing of the VM system: a random sequence of
 * allocate / write / read / protect / copy / deallocate operations is
 * executed against both the simulated kernel and a simple host-side
 * model of what an address space should contain; every read is checked
 * against the model and every protection decision against the model's
 * rights. Parameterized over seeds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
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

/** The reference model: per-page value and rights. */
struct ModelPage
{
    std::uint32_t value = 0; // Fresh anonymous memory reads zero.
    Prot prot = ProtReadWrite;
};

/** (seed, NUMA node count): every seed runs on the single-bus
 *  Multimax shape and on a 2-node machine, where allocations and
 *  shootdowns cross node boundaries. */
class VmFuzz
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>>
{
};

/**
 * The fuzz body, shared by the machine-shape arm and the
 * shootdown-policy arm: run the op sequence for @p seed on a kernel
 * built from @p config and check every observation against the
 * host-side model.
 */
void
runFuzzAgainstModel(const hw::MachineConfig &config, std::uint64_t seed)
{
    vm::Kernel kernel(config);
    kernel.start();

    bool finished = false;
    int ops_done = 0;

    kernel.spawnThread(nullptr, "fuzz-driver", [&](kern::Thread &drv) {
        vm::Task *task = kernel.createTask("fuzz");
        kern::Thread *body = kernel.spawnThread(
            task, "fuzz-body", [&](kern::Thread &self) {
                Rng rng(seed * 2654435761u + 1);
                std::map<VAddr, ModelPage> model;

                auto random_page = [&]() -> VAddr {
                    if (model.empty())
                        return 0;
                    auto it = model.begin();
                    std::advance(it, static_cast<long>(
                                         rng.below(model.size())));
                    return it->first;
                };

                for (int op = 0; op < 220; ++op, ++ops_done) {
                    const std::uint64_t kind = rng.below(100);
                    if (kind < 20 || model.empty()) {
                        // Allocate 1-5 pages.
                        const std::uint32_t pages =
                            static_cast<std::uint32_t>(rng.range(1, 5));
                        VAddr va = 0;
                        ASSERT_TRUE(kernel.vmAllocate(
                            self, *task, &va, pages * kPageSize, true));
                        for (std::uint32_t p = 0; p < pages; ++p)
                            model[va + p * kPageSize] = ModelPage{};
                    } else if (kind < 45) {
                        // Write a random page.
                        const VAddr page = random_page();
                        const auto value =
                            static_cast<std::uint32_t>(rng.next());
                        const bool ok = self.store32(page, value);
                        ModelPage &m = model.at(page);
                        if (protAllows(m.prot, ProtWrite)) {
                            ASSERT_TRUE(ok) << "page 0x" << std::hex
                                            << page;
                            m.value = value;
                        } else {
                            ASSERT_FALSE(ok);
                        }
                    } else if (kind < 70) {
                        // Read a random page and check the model.
                        const VAddr page = random_page();
                        std::uint32_t value = 0;
                        const bool ok = self.load32(page, &value);
                        const ModelPage &m = model.at(page);
                        if (protAllows(m.prot, ProtRead)) {
                            ASSERT_TRUE(ok);
                            ASSERT_EQ(value, m.value)
                                << "page 0x" << std::hex << page
                                << " op " << std::dec << op;
                        } else {
                            ASSERT_FALSE(ok);
                        }
                    } else if (kind < 83) {
                        // Re-protect a random page.
                        const VAddr page = random_page();
                        static const Prot kChoices[] = {
                            ProtNone, ProtRead, ProtReadWrite};
                        const Prot prot =
                            kChoices[rng.below(3)];
                        ASSERT_TRUE(kernel.vmProtect(
                            self, *task, page, kPageSize, prot));
                        model.at(page).prot = prot;
                    } else if (kind < 88) {
                        // Remap: move a page's contents to a fresh
                        // mapping (munmap + mmap + carry the value),
                        // exercising address reuse right after a
                        // deallocation's shootdown.
                        const VAddr page = random_page();
                        const ModelPage m = model.at(page);
                        std::uint32_t carried = 0;
                        const bool readable =
                            protAllows(m.prot, ProtRead);
                        if (readable) {
                            ASSERT_TRUE(self.load32(page, &carried));
                        }
                        ASSERT_TRUE(kernel.vmDeallocate(
                            self, *task, page, kPageSize));
                        model.erase(page);
                        VAddr fresh = 0;
                        ASSERT_TRUE(kernel.vmAllocate(
                            self, *task, &fresh, kPageSize, true));
                        model[fresh] = ModelPage{};
                        if (readable) {
                            ASSERT_TRUE(self.store32(fresh, carried));
                            model.at(fresh).value = carried;
                        }
                    } else if (kind < 93) {
                        // Virtual-copy a random page; the copy gets
                        // the source's current value, then diverges.
                        const VAddr page = random_page();
                        const ModelPage &src = model.at(page);
                        if (!protAllows(src.prot, ProtRead))
                            continue;
                        VAddr copy = 0;
                        ASSERT_TRUE(kernel.vmCopy(self, *task, page,
                                                  kPageSize, &copy));
                        model[copy] =
                            ModelPage{src.value, src.prot};
                        // Write the copy; the source must not move.
                        if (protAllows(src.prot, ProtWrite)) {
                            const auto value =
                                static_cast<std::uint32_t>(rng.next());
                            ASSERT_TRUE(self.store32(copy, value));
                            model.at(copy).value = value;
                        }
                        std::uint32_t check = 0;
                        ASSERT_TRUE(self.load32(page, &check));
                        ASSERT_EQ(check, model.at(page).value);
                    } else {
                        // Deallocate a random page.
                        const VAddr page = random_page();
                        ASSERT_TRUE(kernel.vmDeallocate(
                            self, *task, page, kPageSize));
                        model.erase(page);
                        std::uint32_t value = 0;
                        ASSERT_FALSE(self.load32(page, &value));
                    }
                }

                // Full final sweep against the model.
                for (const auto &[page, m] : model) {
                    std::uint32_t value = 0;
                    const bool ok = self.load32(page, &value);
                    if (protAllows(m.prot, ProtRead)) {
                        ASSERT_TRUE(ok);
                        ASSERT_EQ(value, m.value)
                            << "final sweep page 0x" << std::hex
                            << page;
                    } else {
                        ASSERT_FALSE(ok);
                    }
                }
            });
        drv.join(*body);
        finished = true;
        kernel.machine().ctx().requestStop();
    });

    kernel.machine().run();
    ASSERT_TRUE(finished);
    EXPECT_EQ(ops_done, 220);
    EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
}

TEST_P(VmFuzz, MatchesReferenceModel)
{
    const std::uint64_t seed = std::get<0>(GetParam());
    setLogQuiet(true);
    hw::MachineConfig config;
    config.ncpus = 4;
    config.seed = seed;
    config.numa_nodes = std::get<1>(GetParam());
    runFuzzAgainstModel(config, seed);
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
 * still matches the model's rights, and the end-of-run TLB-vs-PTE
 * audit still comes back clean.
 */
class VmFuzzPolicy
    : public ::testing::TestWithParam<
          std::tuple<hw::ShootdownPolicy, std::uint64_t>>
{
};

TEST_P(VmFuzzPolicy, MatchesReferenceModel)
{
    const hw::ShootdownPolicy policy = std::get<0>(GetParam());
    const std::uint64_t seed = std::get<1>(GetParam());
    setLogQuiet(true);
    hw::MachineConfig config;
    config.ncpus = 4;
    config.seed = seed;
    // Also sets the TLB feature the policy requires.
    config.setShootdownPolicy(policy);
    runFuzzAgainstModel(config, seed);
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

    chk::Explorer explorer;
    const chk::TrialResult r =
        explorer.runTrial(chk::vmgenScenario(o), SchedulePerturber{});
    EXPECT_TRUE(r.completed) << "seed " << o.seed;
    EXPECT_TRUE(r.predicate_ok) << r.note;
    EXPECT_TRUE(r.coverage_ok) << r.note;
    EXPECT_EQ(r.violation_count, 0u)
        << (r.violations.empty() ? "" : r.violations.front());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, VmFuzzDevice,
    ::testing::Combine(::testing::Values(3, 7, 21, 42),
                       ::testing::Values(1u, 2u)));

} // namespace
} // namespace mach
