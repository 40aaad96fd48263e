/**
 * @file
 * Property-based tests, parameterized over RNG seeds and machine
 * shapes. The central invariant, checked after randomized operation
 * sequences on multi-processor machines:
 *
 *   once a mutating VM operation has returned, no TLB on the machine
 *   caches a translation that grants more than the current page
 *   tables do, and no reader ever observes data written through a
 *   mapping that was already revoked.
 */

#include <gtest/gtest.h>

#include "apps/consistency_tester.hh"
#include "pmap/shootdown.hh"
#include "vm/kernel.hh"

namespace mach
{
namespace
{

hw::MachineConfig
propConfig(std::uint64_t seed, unsigned ncpus = 8)
{
    setLogQuiet(true);
    hw::MachineConfig config;
    config.ncpus = ncpus;
    config.seed = seed;
    return config;
}

// ---------------------------------------------------------------------
// Randomized protect/read invariant.
// ---------------------------------------------------------------------

class RandomOpsProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomOpsProperty, NoWritesLandAfterRevocation)
{
    const std::uint64_t seed = GetParam();
    vm::Kernel kernel(propConfig(seed));
    kernel.start();
    bool finished = false;

    kernel.spawnThread(nullptr, "prop-driver", [&](kern::Thread &drv) {
        vm::Task *task = kernel.tasks().empty()
                             ? kernel.createTask("prop")
                             : kernel.tasks()[0].get();
        constexpr unsigned kWriters = 5;

        VAddr page = 0;
        // Shared host-side view of each counter page's writability.
        struct Slot
        {
            bool writable = true;
            bool stop = false;
        };
        std::vector<Slot> slots(kWriters);

        kern::Thread *main_thread = kernel.spawnThread(
            task, "prop-main", [&](kern::Thread &self) {
                Rng rng(seed * 31 + 7);
                ASSERT_TRUE(kernel.vmAllocate(
                    self, *task, &page, kWriters * kPageSize, true));

                std::vector<kern::Thread *> writers;
                for (unsigned w = 0; w < kWriters; ++w) {
                    writers.push_back(kernel.spawnThread(
                        task, "w" + std::to_string(w),
                        [&, w](kern::Thread &writer) {
                            const VAddr va = page + w * kPageSize;
                            std::uint32_t value = 0;
                            while (!slots[w].stop) {
                                const kern::AccessResult r =
                                    writer.access(va, ProtWrite);
                                if (r.ok) {
                                    kernel.machine().mem().write32(
                                        r.paddr, ++value);
                                } else {
                                    // Revoked: wait for permission.
                                    writer.sleep(3 * kMsec);
                                }
                                writer.cpu().advance(300 * kUsec);
                            }
                        },
                        static_cast<std::int64_t>(w % 4)));
                }

                // Randomly revoke and restore write access; while a
                // page is revoked its counter must be frozen.
                for (int round = 0; round < 12; ++round) {
                    const unsigned w = static_cast<unsigned>(
                        rng.below(kWriters));
                    const VAddr va = page + w * kPageSize;

                    slots[w].writable = false;
                    ASSERT_TRUE(kernel.vmProtect(self, *task, va,
                                                 kPageSize, ProtRead));
                    const kern::AccessResult r1 =
                        self.access(va, ProtRead);
                    ASSERT_TRUE(r1.ok);
                    const std::uint32_t snap =
                        kernel.machine().mem().read32(r1.paddr);

                    self.sleep(Tick(rng.range(5, 25)) * kMsec);

                    const kern::AccessResult r2 =
                        self.access(va, ProtRead);
                    ASSERT_TRUE(r2.ok);
                    const std::uint32_t later =
                        kernel.machine().mem().read32(r2.paddr);
                    ASSERT_EQ(later, snap)
                        << "counter " << w
                        << " advanced after write revocation "
                           "(seed "
                        << seed << ")";

                    ASSERT_TRUE(kernel.vmProtect(
                        self, *task, va, kPageSize, ProtReadWrite));
                    slots[w].writable = true;
                    self.sleep(Tick(rng.range(2, 10)) * kMsec);
                }

                for (auto &slot : slots)
                    slot.stop = true;
                for (kern::Thread *writer : writers)
                    self.join(*writer);
            });

        drv.join(*main_thread);
        finished = true;
        kernel.machine().ctx().requestStop();
    });

    kernel.machine().run();
    ASSERT_TRUE(finished);
    EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomOpsProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34,
                                           55, 89));

// ---------------------------------------------------------------------
// Concurrent kernel + user shootdowns never deadlock.
// ---------------------------------------------------------------------

class ConcurrentShootProperty
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ConcurrentShootProperty, KernelAndUserInitiatorsCoexist)
{
    const std::uint64_t seed = GetParam();
    vm::Kernel kernel(propConfig(seed, 8));
    kernel.start();
    bool finished = false;

    kernel.spawnThread(nullptr, "mix-driver", [&](kern::Thread &drv) {
        vm::Task *task = kernel.createTask("mixer");
        std::vector<kern::Thread *> threads;

        // User-pmap initiators: threads of one task protecting and
        // unprotecting touched pages.
        for (int i = 0; i < 3; ++i) {
            threads.push_back(kernel.spawnThread(
                task, "user-init" + std::to_string(i),
                [&kernel, task, seed, i](kern::Thread &self) {
                    Rng rng(seed + i);
                    VAddr va = 0;
                    ASSERT_TRUE(kernel.vmAllocate(
                        self, *task, &va, 4 * kPageSize, true));
                    for (int round = 0; round < 8; ++round) {
                        for (int p = 0; p < 4; ++p)
                            ASSERT_TRUE(self.store32(
                                va + p * kPageSize, round));
                        ASSERT_TRUE(kernel.vmProtect(
                            self, *task, va, 4 * kPageSize, ProtRead));
                        self.compute(Tick(rng.range(1, 5)) * kMsec);
                        ASSERT_TRUE(kernel.vmProtect(
                            self, *task, va, 4 * kPageSize,
                            ProtReadWrite));
                    }
                }));
        }

        // Kernel-pmap initiators: kernel threads churning kmem.
        for (int i = 0; i < 3; ++i) {
            threads.push_back(kernel.spawnThread(
                nullptr, "kern-init" + std::to_string(i),
                [&kernel, seed, i](kern::Thread &self) {
                    Rng rng(seed * 17 + i);
                    for (int round = 0; round < 8; ++round) {
                        const VAddr buf =
                            kernel.kmemAlloc(self, 2 * kPageSize);
                        ASSERT_NE(buf, 0u);
                        ASSERT_TRUE(self.store32(buf, round));
                        self.compute(Tick(rng.range(1, 4)) * kMsec);
                        kernel.kmemFree(self, buf, 2 * kPageSize);
                    }
                }));
        }

        for (kern::Thread *t : threads)
            drv.join(*t);
        finished = true;
        kernel.machine().ctx().requestStop();
    });

    // Bounded run: if the initiators deadlock (the two-initiator
    // "shooting at each other" hazard of Section 4), the driver never
    // finishes and this bound expires with finished == false.
    kernel.machine().run(kernel.machine().now() + 300 * kSec);
    ASSERT_TRUE(finished) << "deadlock between concurrent shootdowns "
                             "(seed "
                          << seed << ")";
    EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
    EXPECT_GT(kernel.pmaps().shoot().initiated, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConcurrentShootProperty,
                         ::testing::Values(101, 202, 303, 404, 505,
                                           606));

// ---------------------------------------------------------------------
// The Section 5.1 tester across machine and thread-count shapes.
// ---------------------------------------------------------------------

struct TesterShape
{
    unsigned ncpus;
    unsigned children;
};

class TesterShapeProperty
    : public ::testing::TestWithParam<TesterShape>
{
};

TEST_P(TesterShapeProperty, ConsistentWithExactlyKProcessorsShot)
{
    const TesterShape shape = GetParam();
    vm::Kernel kernel(propConfig(shape.ncpus * 131 + shape.children,
                                 shape.ncpus));
    apps::ConsistencyTester tester(
        {.children = shape.children, .warmup = 15 * kMsec});
    const apps::WorkloadResult result = tester.execute(kernel);

    EXPECT_TRUE(tester.consistent());
    ASSERT_EQ(result.analysis.user_initiator.events, 1u);
    EXPECT_EQ(result.analysis.user_initiator.procs.max(),
              static_cast<double>(shape.children));
    EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TesterShapeProperty,
    ::testing::Values(TesterShape{2, 1}, TesterShape{4, 2},
                      TesterShape{4, 3}, TesterShape{8, 5},
                      TesterShape{8, 7}, TesterShape{16, 10},
                      TesterShape{16, 15}, TesterShape{32, 24}));

// ---------------------------------------------------------------------
// The tester under every hardware option (the variants are correct,
// not just fast).
// ---------------------------------------------------------------------

enum class HwOption
{
    Baseline,
    Multicast,
    Broadcast,
    SoftwareReload,
    NoWriteback,
    InterlockedRefmod,
    VirtualCache,
    RemoteInvalidate,
    HighPriorityIpi,
    AsidTags,
};

class HwOptionProperty : public ::testing::TestWithParam<HwOption>
{
};

TEST_P(HwOptionProperty, TesterStaysConsistent)
{
    hw::MachineConfig config = propConfig(0xfeed);
    config.ncpus = 8;
    switch (GetParam()) {
      case HwOption::Baseline:
        break;
      case HwOption::Multicast:
        config.ipi_send = hw::IpiSend::Multicast;
        break;
      case HwOption::Broadcast:
        config.ipi_send = hw::IpiSend::Broadcast;
        break;
      case HwOption::SoftwareReload:
        config.tlb_software_reload = true;
        break;
      case HwOption::NoWriteback:
        config.tlb_refmod = hw::TlbRefmod::None;
        break;
      case HwOption::InterlockedRefmod:
        config.tlb_refmod = hw::TlbRefmod::Interlocked;
        break;
      case HwOption::VirtualCache:
        config.virtual_cache = true;
        config.tlb_refmod = hw::TlbRefmod::None;
        config.tlb_entries = 512;
        break;
      case HwOption::RemoteInvalidate:
        config.setShootdownPolicy(hw::ShootdownPolicy::RemoteInvalidate);
        break;
      case HwOption::HighPriorityIpi:
        config.high_priority_ipi = true;
        break;
      case HwOption::AsidTags:
        config.tlb_asid_tags = true;
        break;
    }

    vm::Kernel kernel(config);
    apps::ConsistencyTester tester({.children = 6, .warmup = 20 * kMsec});
    tester.execute(kernel);
    EXPECT_TRUE(tester.consistent());
}

INSTANTIATE_TEST_SUITE_P(
    Options, HwOptionProperty,
    ::testing::Values(HwOption::Baseline, HwOption::Multicast,
                      HwOption::Broadcast, HwOption::SoftwareReload,
                      HwOption::NoWriteback,
                      HwOption::InterlockedRefmod,
                      HwOption::VirtualCache,
                      HwOption::RemoteInvalidate,
                      HwOption::HighPriorityIpi, HwOption::AsidTags));

} // namespace
} // namespace mach
