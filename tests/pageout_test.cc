/**
 * @file
 * Pageout/pagein tests: "even basic virtual memory management
 * functions such as pagein and pageout will not (in general) work
 * correctly unless the TLBs of all CPUs have the same image of the
 * current state of a physical page" (Section 1).
 */

#include <gtest/gtest.h>

#include "vm/kernel.hh"

namespace mach
{
namespace
{

hw::MachineConfig
tinyMemoryConfig()
{
    setLogQuiet(true);
    hw::MachineConfig config;
    config.ncpus = 4;
    // Small memory so the pageout daemon has real work: ~512 KB, with
    // the low-water mark high enough that the test workloads push the
    // free count below it.
    config.phys_frames = 128;
    config.pageout_low_frames = 80;
    // Fast backing store keeps the test quick.
    config.pagein_latency = 2 * kMsec;
    config.pageout_latency = 2 * kMsec;
    return config;
}

void
inKernel(const hw::MachineConfig &config,
         const std::function<void(vm::Kernel &, kern::Thread &)> &body)
{
    vm::Kernel kernel(config);
    kernel.start();
    kernel.enablePageout();
    bool finished = false;
    kernel.spawnThread(nullptr, "pageout-driver",
                       [&](kern::Thread &driver) {
                           body(kernel, driver);
                           finished = true;
                           kernel.machine().ctx().requestStop();
                       });
    kernel.machine().run();
    ASSERT_TRUE(finished);
}

TEST(PagerUnit, StoreRoundTrip)
{
    hw::PhysMem mem(16);
    vm::DefaultPager pager(&mem);
    const Pfn src = mem.allocFrame();
    const Pfn dst = mem.allocFrame();
    for (std::uint32_t i = 0; i < kPageSize; i += 4)
        mem.write32((src << kPageShift) + i, i ^ 0x5a5a);

    EXPECT_FALSE(pager.contains(7, 3));
    pager.pageOut(7, 3, src);
    EXPECT_TRUE(pager.contains(7, 3));
    EXPECT_EQ(pager.storedPages(), 1u);

    pager.pageIn(7, 3, dst);
    EXPECT_FALSE(pager.contains(7, 3)); // Image consumed.
    for (std::uint32_t i = 0; i < kPageSize; i += 4)
        ASSERT_EQ(mem.read32((dst << kPageShift) + i), i ^ 0x5a5a);
}

TEST(PagerUnit, ImagesAreKeyedByObjectAndOffset)
{
    hw::PhysMem mem(16);
    vm::DefaultPager pager(&mem);
    const Pfn frame = mem.allocFrame();
    mem.write32(frame << kPageShift, 111);
    pager.pageOut(1, 0, frame);
    mem.write32(frame << kPageShift, 222);
    pager.pageOut(1, 1, frame);
    mem.write32(frame << kPageShift, 333);
    pager.pageOut(2, 0, frame);

    Pfn in = mem.allocFrame();
    pager.pageIn(1, 1, in);
    EXPECT_EQ(mem.read32(in << kPageShift), 222u);
    pager.pageIn(2, 0, in);
    EXPECT_EQ(mem.read32(in << kPageShift), 333u);
    EXPECT_TRUE(pager.contains(1, 0));
}

TEST(PagerUnit, ForgetDropsOneObjectsImages)
{
    hw::PhysMem mem(16);
    vm::DefaultPager pager(&mem);
    const Pfn frame = mem.allocFrame();
    pager.pageOut(5, 0, frame);
    pager.pageOut(5, 9, frame);
    pager.pageOut(6, 0, frame);
    pager.forget(5);
    EXPECT_FALSE(pager.contains(5, 0));
    EXPECT_FALSE(pager.contains(5, 9));
    EXPECT_TRUE(pager.contains(6, 0));
    EXPECT_EQ(pager.storedPages(), 1u);
}

TEST(Pageout, DataSurvivesPageoutPageinRoundTrip)
{
    inKernel(tinyMemoryConfig(), [](vm::Kernel &kernel,
                                    kern::Thread &drv) {
        vm::Task *task = kernel.createTask("pager-victim");
        constexpr unsigned kPages = 56;
        VAddr va = 0;

        kern::Thread *worker = kernel.spawnThread(
            task, "toucher", [&](kern::Thread &self) {
                ASSERT_TRUE(kernel.vmAllocate(self, *task, &va,
                                              kPages * kPageSize,
                                              true));
                // Fill with a recognizable pattern; this pressure
                // pushes free frames below the pageout threshold.
                for (unsigned i = 0; i < kPages; ++i) {
                    ASSERT_TRUE(self.store32(va + i * kPageSize,
                                             0xbeef0000 + i));
                }
                // Give the daemon time to steal pages.
                self.sleep(400 * kMsec);
                // Everything must read back intact (pagein).
                for (unsigned i = 0; i < kPages; ++i) {
                    std::uint32_t value = 0;
                    ASSERT_TRUE(
                        self.load32(va + i * kPageSize, &value));
                    ASSERT_EQ(value, 0xbeef0000 + i) << "page " << i;
                }
            });
        drv.join(*worker);
        EXPECT_GT(kernel.pager().pageouts, 0u);
        EXPECT_GT(kernel.pager().pageins, 0u);
        EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
    });
}

TEST(Pageout, StolenPagesLoseTheirMappingsEverywhere)
{
    inKernel(tinyMemoryConfig(), [](vm::Kernel &kernel,
                                    kern::Thread &drv) {
        vm::Task *task = kernel.createTask("shared");
        constexpr unsigned kPages = 60;
        VAddr va = 0;
        bool stop = false;

        // Two threads on different CPUs share the pages while the
        // daemon steals them; the pageProtect shootdowns must keep
        // every TLB honest, so no thread ever reads stale data.
        kern::Thread *writer = kernel.spawnThread(
            task, "writer",
            [&](kern::Thread &self) {
                ASSERT_TRUE(kernel.vmAllocate(self, *task, &va,
                                              kPages * kPageSize,
                                              true));
                for (unsigned i = 0; i < kPages; ++i)
                    ASSERT_TRUE(self.store32(va + i * kPageSize,
                                             0xaa000000 + i));
                while (!stop) {
                    for (unsigned i = 0; i < kPages; i += 7) {
                        std::uint32_t value = 0;
                        ASSERT_TRUE(
                            self.load32(va + i * kPageSize, &value));
                        ASSERT_EQ(value, 0xaa000000 + i);
                    }
                    self.sleep(20 * kMsec);
                }
            },
            0);
        drv.sleep(100 * kMsec);
        kern::Thread *reader = kernel.spawnThread(
            task, "reader",
            [&](kern::Thread &self) {
                for (int round = 0; round < 10; ++round) {
                    for (unsigned i = 3; i < kPages; i += 11) {
                        std::uint32_t value = 0;
                        ASSERT_TRUE(
                            self.load32(va + i * kPageSize, &value));
                        ASSERT_EQ(value, 0xaa000000 + i);
                    }
                    self.sleep(25 * kMsec);
                }
                stop = true;
            },
            1);
        drv.join(*reader);
        drv.join(*writer);
        EXPECT_GT(kernel.pager().pageouts, 0u);
        EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
    });
}

TEST(Pageout, WiredKernelPagesAreNeverStolen)
{
    inKernel(tinyMemoryConfig(), [](vm::Kernel &kernel,
                                    kern::Thread &drv) {
        // Touch kernel memory, then create pressure from a user task;
        // the kernel page must remain resident and intact.
        const VAddr kbuf = kernel.kmemAlloc(drv, kPageSize);
        ASSERT_TRUE(drv.store32(kbuf, 0x5151));

        vm::Task *task = kernel.createTask("pressure");
        kern::Thread *worker = kernel.spawnThread(
            task, "pressure", [&](kern::Thread &self) {
                VAddr va = 0;
                ASSERT_TRUE(kernel.vmAllocate(self, *task, &va,
                                              60 * kPageSize, true));
                for (unsigned i = 0; i < 60; ++i)
                    ASSERT_TRUE(
                        self.store32(va + i * kPageSize, i));
                self.sleep(300 * kMsec);
            });
        drv.join(*worker);

        std::uint32_t value = 0;
        ASSERT_TRUE(drv.load32(kbuf, &value));
        EXPECT_EQ(value, 0x5151u);
        kernel.kmemFree(drv, kbuf, kPageSize);
    });
}

TEST(PageoutDeathTest, EnablingAfterAPageablePageIsFatal)
{
    // The daemon's list takes pages only while pageout is enabled, so
    // a page zero-filled earlier could never be paged out.
    const auto late = [] {
        vm::Kernel kernel(tinyMemoryConfig());
        kernel.start();
        kernel.spawnThread(nullptr, "late", [&](kern::Thread &drv) {
            vm::Task *task = kernel.createTask("early");
            VAddr va = 0;
            kernel.vmAllocate(drv, *task, &va, kPageSize, true);
            const std::uint32_t word = 1;
            kernel.vmWrite(drv, *task, va, &word, sizeof word);
            kernel.enablePageout();
            kernel.machine().ctx().requestStop();
        });
        kernel.machine().run();
    };
    EXPECT_EXIT(late(), ::testing::ExitedWithCode(1), "enablePageout");
}

} // namespace
} // namespace mach
