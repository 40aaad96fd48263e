/**
 * @file
 * Edge-case tests: object lifetimes across COW chains, map-level unit
 * behaviour (the first-fit hint checked against a plain scan), deep
 * shadow chains from repeated forks, and combinations of the optional
 * machine features.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>

#include "apps/camelot.hh"
#include "apps/mach_build.hh"
#include "apps/consistency_tester.hh"
#include "base/rng.hh"
#include "pmap/shootdown.hh"
#include "vm/kernel.hh"

namespace mach
{
namespace
{

void
inKernel(hw::MachineConfig config,
         const std::function<void(vm::Kernel &, kern::Thread &)> &body)
{
    setLogQuiet(true);
    vm::Kernel kernel(config);
    kernel.start();
    bool finished = false;
    kernel.spawnThread(nullptr, "edge-driver",
                       [&](kern::Thread &driver) {
                           body(kernel, driver);
                           finished = true;
                           kernel.machine().ctx().requestStop();
                       });
    kernel.machine().run();
    ASSERT_TRUE(finished);
}

hw::MachineConfig
config4()
{
    hw::MachineConfig config;
    config.ncpus = 4;
    return config;
}

void
inTask(vm::Kernel &kernel, kern::Thread &driver, vm::Task *task,
       const std::function<void(kern::Thread &)> &body)
{
    kern::Thread *thread = kernel.spawnThread(task, "edge-body", body);
    driver.join(*thread);
}

TEST(VmEdge, CopySurvivesSourceDeallocation)
{
    // The shadow chain keeps the backing object alive: deallocating
    // the source range must not free pages the copy still reads.
    inKernel(config4(), [](vm::Kernel &kernel, kern::Thread &drv) {
        vm::Task *task = kernel.createTask("t");
        inTask(kernel, drv, task, [&](kern::Thread &self) {
            VAddr src = 0;
            ASSERT_TRUE(kernel.vmAllocate(self, *task, &src,
                                          2 * kPageSize, true));
            ASSERT_TRUE(self.store32(src, 0x5a5a));
            VAddr copy = 0;
            ASSERT_TRUE(kernel.vmCopy(self, *task, src, 2 * kPageSize,
                                      &copy));
            ASSERT_TRUE(
                kernel.vmDeallocate(self, *task, src, 2 * kPageSize));

            std::uint32_t value = 0;
            ASSERT_TRUE(self.load32(copy, &value));
            EXPECT_EQ(value, 0x5a5au);
            // And the copy is still independently writable.
            ASSERT_TRUE(self.store32(copy, 0x1111));
        });
    });
}

TEST(VmEdge, GrandchildForkDeepChain)
{
    // Fork of a fork: the grandchild reads pre-fork data through a
    // two-deep shadow chain, and all three generations stay isolated.
    inKernel(config4(), [](vm::Kernel &kernel, kern::Thread &drv) {
        vm::Task *parent = kernel.createTask("gen0");
        inTask(kernel, drv, parent, [&](kern::Thread &self) {
            VAddr va = 0;
            ASSERT_TRUE(
                kernel.vmAllocate(self, *parent, &va, kPageSize, true));
            ASSERT_TRUE(self.store32(va, 100));

            vm::Task *child = kernel.forkTask(self, *parent, "gen1");
            kern::Thread *in_child = kernel.spawnThread(
                child, "gen1-main", [&](kern::Thread &ct) {
                    std::uint32_t value = 0;
                    ASSERT_TRUE(ct.load32(va, &value));
                    EXPECT_EQ(value, 100u);
                    ASSERT_TRUE(ct.store32(va, 200));

                    vm::Task *grandchild =
                        kernel.forkTask(ct, *child, "gen2");
                    kern::Thread *in_gc = kernel.spawnThread(
                        grandchild, "gen2-main",
                        [&](kern::Thread &gt) {
                            std::uint32_t v = 0;
                            ASSERT_TRUE(gt.load32(va, &v));
                            EXPECT_EQ(v, 200u); // The child's view.
                            ASSERT_TRUE(gt.store32(va, 300));
                        });
                    ct.join(*in_gc);

                    // The grandchild's write is invisible here.
                    ASSERT_TRUE(ct.load32(va, &value));
                    EXPECT_EQ(value, 200u);
                });
            self.join(*in_child);

            // And the parent still sees its original data.
            std::uint32_t value = 0;
            ASSERT_TRUE(self.load32(va, &value));
            EXPECT_EQ(value, 100u);
        });
    });
}

TEST(VmEdge, RepeatedCopiesChainAndStayCorrect)
{
    inKernel(config4(), [](vm::Kernel &kernel, kern::Thread &drv) {
        vm::Task *task = kernel.createTask("t");
        inTask(kernel, drv, task, [&](kern::Thread &self) {
            VAddr va = 0;
            ASSERT_TRUE(
                kernel.vmAllocate(self, *task, &va, kPageSize, true));
            ASSERT_TRUE(self.store32(va, 0));

            // copy-of-copy-of-copy, each written after copying.
            VAddr prev = va;
            for (std::uint32_t gen = 1; gen <= 5; ++gen) {
                VAddr next = 0;
                ASSERT_TRUE(kernel.vmCopy(self, *task, prev, kPageSize,
                                          &next));
                std::uint32_t inherited = 0xff;
                ASSERT_TRUE(self.load32(next, &inherited));
                EXPECT_EQ(inherited, gen - 1);
                ASSERT_TRUE(self.store32(next, gen));
                prev = next;
            }
            // The original is still zero.
            std::uint32_t value = 0xff;
            ASSERT_TRUE(self.load32(va, &value));
            EXPECT_EQ(value, 0u);
        });
    });
}

TEST(VmEdge, ShareSurvivesLaterCopyFork)
{
    // Regression for a bug the fork fuzzer found: after parent and
    // child1 share a region, a *later* copy-fork of the parent must
    // not detach the sharers from each other.
    inKernel(config4(), [](vm::Kernel &kernel, kern::Thread &drv) {
        vm::Task *parent = kernel.createTask("p");
        inTask(kernel, drv, parent, [&](kern::Thread &self) {
            VAddr va = 0;
            ASSERT_TRUE(
                kernel.vmAllocate(self, *parent, &va, kPageSize, true));
            ASSERT_TRUE(self.store32(va, 1));
            ASSERT_TRUE(kernel.vmInherit(self, *parent, va, kPageSize,
                                         vm::Inherit::Share));
            vm::Task *sharer = kernel.forkTask(self, *parent, "share");

            // Now a copy-fork of the parent (snapshot semantics).
            ASSERT_TRUE(kernel.vmInherit(self, *parent, va, kPageSize,
                                         vm::Inherit::Copy));
            vm::Task *snap = kernel.forkTask(self, *parent, "snap");

            // Parent writes; the sharer must see it, the snapshot not.
            ASSERT_TRUE(self.store32(va, 2));
            kern::Thread *in_sharer = kernel.spawnThread(
                sharer, "sh", [&](kern::Thread &st) {
                    std::uint32_t value = 0;
                    ASSERT_TRUE(st.load32(va, &value));
                    EXPECT_EQ(value, 2u) << "share broke";
                    ASSERT_TRUE(st.store32(va, 3));
                });
            self.join(*in_sharer);
            std::uint32_t value = 0;
            ASSERT_TRUE(self.load32(va, &value));
            EXPECT_EQ(value, 3u); // Sharer's write visible to parent.

            kern::Thread *in_snap = kernel.spawnThread(
                snap, "sn", [&](kern::Thread &st) {
                    std::uint32_t v = 0;
                    ASSERT_TRUE(st.load32(va, &v));
                    EXPECT_EQ(v, 1u) << "snapshot leaked later writes";
                });
            self.join(*in_snap);
        });
    });
}

TEST(VmEdge, ShareOfPendingCopyResolvesCleanly)
{
    // Share-forking an entry that is itself a pending virtual copy:
    // the pending copy resolves so both sharers alias one object,
    // while the earlier COW peer keeps its snapshot.
    inKernel(config4(), [](vm::Kernel &kernel, kern::Thread &drv) {
        vm::Task *parent = kernel.createTask("p");
        inTask(kernel, drv, parent, [&](kern::Thread &self) {
            VAddr va = 0;
            ASSERT_TRUE(
                kernel.vmAllocate(self, *parent, &va, kPageSize, true));
            ASSERT_TRUE(self.store32(va, 10));
            // First a copy-fork: parent's entry now needs_copy.
            vm::Task *peer = kernel.forkTask(self, *parent, "peer");

            // Then a share-fork of the same (pending-copy) entry.
            ASSERT_TRUE(kernel.vmInherit(self, *parent, va, kPageSize,
                                         vm::Inherit::Share));
            vm::Task *sharer = kernel.forkTask(self, *parent, "share");

            ASSERT_TRUE(self.store32(va, 20));
            kern::Thread *in_sharer = kernel.spawnThread(
                sharer, "sh", [&](kern::Thread &st) {
                    std::uint32_t value = 0;
                    ASSERT_TRUE(st.load32(va, &value));
                    EXPECT_EQ(value, 20u);
                });
            self.join(*in_sharer);
            kern::Thread *in_peer = kernel.spawnThread(
                peer, "pe", [&](kern::Thread &st) {
                    std::uint32_t value = 0;
                    ASSERT_TRUE(st.load32(va, &value));
                    EXPECT_EQ(value, 10u); // Pre-share snapshot.
                });
            self.join(*in_peer);
        });
    });
}

TEST(VmEdge, VmCopyOfSharedRegionIsEager)
{
    inKernel(config4(), [](vm::Kernel &kernel, kern::Thread &drv) {
        vm::Task *parent = kernel.createTask("p");
        inTask(kernel, drv, parent, [&](kern::Thread &self) {
            VAddr va = 0;
            ASSERT_TRUE(
                kernel.vmAllocate(self, *parent, &va, kPageSize, true));
            ASSERT_TRUE(self.store32(va, 5));
            ASSERT_TRUE(kernel.vmInherit(self, *parent, va, kPageSize,
                                         vm::Inherit::Share));
            vm::Task *sharer = kernel.forkTask(self, *parent, "share");
            (void)sharer;

            // A virtual copy of the (now shared) region snapshots it.
            VAddr dup = 0;
            ASSERT_TRUE(
                kernel.vmCopy(self, *parent, va, kPageSize, &dup));
            ASSERT_TRUE(self.store32(va, 6)); // Post-copy write.
            std::uint32_t value = 0;
            ASSERT_TRUE(self.load32(dup, &value));
            EXPECT_EQ(value, 5u);
            // And the share pair still shares.
            kern::Thread *in_sharer = kernel.spawnThread(
                sharer, "sh", [&](kern::Thread &st) {
                    std::uint32_t v = 0;
                    ASSERT_TRUE(st.load32(va, &v));
                    EXPECT_EQ(v, 6u);
                });
            self.join(*in_sharer);
        });
    });
}

TEST(VmMapUnit, FindSpaceInRespectsBounds)
{
    vm::VmMap map("unit", 0x10000, 0x100000);
    const VAddr slice_lo = 0x40000, slice_hi = 0x80000;
    EXPECT_EQ(map.findSpaceIn(slice_lo, slice_hi, 4 * kPageSize),
              slice_lo);

    vm::VmMapEntry entry;
    entry.start = slice_lo;
    entry.end = slice_lo + 8 * kPageSize;
    entry.object = nullptr;
    map.insert(entry);
    EXPECT_EQ(map.findSpaceIn(slice_lo, slice_hi, kPageSize),
              slice_lo + 8 * kPageSize);
    // A request bigger than the slice's free space fails.
    EXPECT_EQ(map.findSpaceIn(slice_lo, slice_hi,
                              slice_hi - slice_lo),
              0u);
    // Other slices are unaffected.
    EXPECT_EQ(map.findSpaceIn(0x80000, 0x100000, kPageSize), 0x80000u);
}

TEST(VmMapUnit, LookupBoundaries)
{
    vm::VmMap map("unit", 0x10000, 0x100000);
    vm::VmMapEntry entry;
    entry.start = 0x20000;
    entry.end = 0x23000;
    map.insert(entry);
    EXPECT_EQ(map.lookup(0x1ffff), nullptr);
    EXPECT_NE(map.lookup(0x20000), nullptr);
    EXPECT_NE(map.lookup(0x22fff), nullptr);
    EXPECT_EQ(map.lookup(0x23000), nullptr);
}

TEST(VmMapUnit, ClipAndApplySkipsHoles)
{
    vm::VmMap map("unit", 0x10000, 0x100000);
    for (VAddr base : {0x20000u, 0x40000u}) {
        vm::VmMapEntry entry;
        entry.start = base;
        entry.end = base + 2 * kPageSize;
        map.insert(entry);
    }
    unsigned visited = 0;
    map.clipAndApply(0x10000, 0x100000,
                     [&](vm::VmMapEntry &) { ++visited; });
    EXPECT_EQ(visited, 2u);
}

/** findSpaceIn() as a plain first-fit scan from the bottom of the map. */
VAddr
linearFindSpace(const vm::VmMap &map, VAddr lo, VAddr hi,
                std::uint32_t size)
{
    VAddr candidate = lo;
    for (const auto &[start, entry] : map.entries()) {
        if (entry.end <= candidate)
            continue;
        if (start >= hi)
            break;
        if (start >= candidate && start - candidate >= size)
            return candidate;
        candidate = std::max(candidate, entry.end);
    }
    return candidate < hi && hi - candidate >= size ? candidate : 0;
}

/** True when no entry of @p map overlaps [start, end). */
bool
unmapped(const vm::VmMap &map, VAddr start, VAddr end)
{
    const auto &entries = map.entries();
    const auto next = entries.lower_bound(start);
    if (next != entries.end() && next->first < end)
        return false;
    return next == entries.begin() || std::prev(next)->second.end <= start;
}

TEST(VmMapUnit, FindSpaceMatchesLinearScan)
{
    // Seeded random insert/erase/clip/simplify sequences; after every
    // step the hint must be the lowest unmapped address, and the
    // hinted first fit must equal the plain scan over the whole map,
    // over each of four kmemAlloc-style pool slices, and over a
    // random window.
    constexpr VAddr kLo = 0x10000;
    constexpr unsigned kPages = 256;
    constexpr VAddr kHi = kLo + kPages * kPageSize;
    constexpr unsigned kSlices = 4;
    constexpr VAddr kSpan = (kHi - kLo) / kSlices;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed, "test.vm_map.first_free");
        vm::VmMap map("diff", kLo, kHi);
        const auto page = [&](std::uint64_t n) {
            return kLo + static_cast<VAddr>(n) * kPageSize;
        };
        for (unsigned step = 0; step < 600; ++step) {
            const auto &entries = map.entries();
            const std::uint64_t op = rng.below(10);
            if (op < 4) {
                // At the first fit, as vmAllocate(anywhere) places, or
                // anywhere free. Offsets follow addresses, so simplify
                // merges neighbours as well as clipped pieces.
                const auto size =
                    static_cast<std::uint32_t>(rng.range(1, 8) * kPageSize);
                const VAddr at = rng.below(2) == 0 ? map.findSpace(size)
                                                   : page(rng.below(kPages));
                if (at != 0 && at + size <= kHi &&
                    unmapped(map, at, at + size)) {
                    vm::VmMapEntry entry;
                    entry.start = at;
                    entry.end = at + size;
                    entry.offset = (at - kLo) >> kPageShift;
                    map.insert(entry);
                }
            } else if (op < 7) {
                if (!entries.empty())
                    map.erase(std::next(entries.begin(),
                                        static_cast<std::ptrdiff_t>(
                                            rng.below(entries.size())))
                                  ->first);
            } else if (op < 9) {
                const VAddr a = page(rng.below(kPages));
                const VAddr b = std::min(kHi, a + static_cast<VAddr>(
                                                      rng.range(1, 16)) *
                                                      kPageSize);
                map.clipAndApply(a, b, [](vm::VmMapEntry &) {});
            } else {
                const VAddr a = page(rng.below(kPages));
                map.simplify(a, std::min(kHi, a + 32 * kPageSize));
            }

            // The hint is exact, not merely safe: the lowest
            // unmapped address.
            VAddr hole = kLo;
            for (auto it = entries.find(kLo); it != entries.end() &&
                                              it->first == hole;
                 ++it)
                hole = it->second.end;
            ASSERT_EQ(map.firstFree(), hole)
                << "seed " << seed << " step " << step;

            const VAddr w_lo = page(rng.below(kPages));
            const VAddr w_hi = std::min(
                kHi, w_lo + static_cast<VAddr>(rng.range(1, 64)) * kPageSize);
            for (const std::uint32_t pages : {1u, 2u, 5u, 17u}) {
                const std::uint32_t size = pages * kPageSize;
                ASSERT_EQ(map.findSpace(size),
                          linearFindSpace(map, kLo, kHi, size))
                    << "seed " << seed << " step " << step;
                for (unsigned k = 0; k < kSlices; ++k) {
                    const VAddr lo = kLo + k * kSpan;
                    ASSERT_EQ(map.findSpaceIn(lo, lo + kSpan, size),
                              linearFindSpace(map, lo, lo + kSpan, size))
                        << "seed " << seed << " step " << step
                        << " slice " << k;
                }
                ASSERT_EQ(map.findSpaceIn(w_lo, w_hi, size),
                          linearFindSpace(map, w_lo, w_hi, size))
                    << "seed " << seed << " step " << step << " window";
            }
        }
    }
}

TEST(FeatureCombo, AsidTagsFullWorkload)
{
    hw::MachineConfig config = config4();
    config.ncpus = 16;
    config.tlb_asid_tags = true;
    setLogQuiet(true);
    vm::Kernel kernel(config);
    apps::Camelot app({.transactions = 40});
    app.execute(kernel);
    EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
}

TEST(FeatureCombo, PoolsPlusRemoteInvalidate)
{
    hw::MachineConfig config;
    config.ncpus = 16;
    config.kernel_pools = 4;
    config.setShootdownPolicy(hw::ShootdownPolicy::RemoteInvalidate);
    setLogQuiet(true);
    vm::Kernel kernel(config);
    apps::ConsistencyTester tester({.children = 6, .warmup = 15 * kMsec});
    tester.execute(kernel);
    EXPECT_TRUE(tester.consistent());
    EXPECT_EQ(kernel.pmaps().shoot().interrupts_sent, 0u);
}

TEST(FeatureCombo, DelayedFlushWithPageout)
{
    hw::MachineConfig config;
    config.ncpus = 4;
    config.setShootdownPolicy(hw::ShootdownPolicy::DelayedFlush);
    config.phys_frames = 128;
    config.pageout_low_frames = 80;
    config.pagein_latency = 2 * kMsec;
    config.pageout_latency = 2 * kMsec;
    inKernel(config, [](vm::Kernel &kernel, kern::Thread &drv) {
        kernel.enablePageout();
        vm::Task *task = kernel.createTask("dfp");
        kern::Thread *worker = kernel.spawnThread(
            task, "worker", [&](kern::Thread &self) {
                VAddr va = 0;
                ASSERT_TRUE(kernel.vmAllocate(self, *task, &va,
                                              56 * kPageSize, true));
                for (unsigned i = 0; i < 56; ++i)
                    ASSERT_TRUE(
                        self.store32(va + i * kPageSize, 7000 + i));
                self.sleep(300 * kMsec);
                for (unsigned i = 0; i < 56; ++i) {
                    std::uint32_t value = 0;
                    ASSERT_TRUE(
                        self.load32(va + i * kPageSize, &value));
                    ASSERT_EQ(value, 7000 + i);
                }
            });
        drv.join(*worker);
        EXPECT_GT(kernel.pager().pageouts, 0u);
    });
}

TEST(WorkloadParams, SerialMachBuildCompletes)
{
    setLogQuiet(true);
    hw::MachineConfig config;
    vm::Kernel kernel(config);
    apps::MachBuild app({.jobs = 4, .concurrency = 1});
    app.execute(kernel);
    EXPECT_EQ(app.jobs_completed, 4u);
}

} // namespace
} // namespace mach
