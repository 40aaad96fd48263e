/**
 * @file
 * Tests for the kernel substrate: locks, threads, scheduler, interrupt
 * delivery, and the I/O device.
 */

#include <gtest/gtest.h>

#include <vector>

#include "vm/kernel.hh"

namespace mach
{
namespace
{

hw::MachineConfig
smallConfig(unsigned ncpus = 4)
{
    setLogQuiet(true);
    hw::MachineConfig config;
    config.ncpus = ncpus;
    return config;
}

/** Run @p body in a fresh kernel's driver thread, then drain. */
void
inKernel(const hw::MachineConfig &config,
         const std::function<void(vm::Kernel &, kern::Thread &)> &body)
{
    vm::Kernel kernel(config);
    kernel.start();
    bool finished = false;
    kernel.spawnThread(nullptr, "test-driver",
                       [&](kern::Thread &driver) {
                           body(kernel, driver);
                           finished = true;
                           kernel.machine().ctx().requestStop();
                       });
    kernel.machine().run();
    ASSERT_TRUE(finished) << "driver thread did not complete";
}

// ---------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------

TEST(Mutex, ProvidesMutualExclusion)
{
    inKernel(smallConfig(), [](vm::Kernel &kernel, kern::Thread &drv) {
        kern::Mutex mutex("test");
        int counter = 0;
        int max_inside = 0;
        int inside = 0;
        std::vector<kern::Thread *> threads;
        for (int i = 0; i < 6; ++i) {
            threads.push_back(kernel.spawnThread(
                nullptr, "m" + std::to_string(i),
                [&](kern::Thread &self) {
                    for (int j = 0; j < 5; ++j) {
                        mutex.lock(self);
                        ++inside;
                        max_inside = std::max(max_inside, inside);
                        self.compute(2 * kMsec);
                        ++counter;
                        --inside;
                        mutex.unlock(self);
                        self.compute(1 * kMsec);
                    }
                }));
        }
        for (kern::Thread *t : threads)
            drv.join(*t);
        EXPECT_EQ(counter, 30);
        EXPECT_EQ(max_inside, 1);
        EXPECT_FALSE(mutex.locked());
        EXPECT_GT(mutex.contended_acquires, 0u);
    });
}

TEST(Mutex, UncontendedFastPath)
{
    inKernel(smallConfig(), [](vm::Kernel &, kern::Thread &drv) {
        kern::Mutex mutex("fast");
        mutex.lock(drv);
        EXPECT_TRUE(mutex.locked());
        mutex.unlock(drv);
        EXPECT_FALSE(mutex.locked());
        EXPECT_EQ(mutex.contended_acquires, 0u);
    });
}

TEST(Mutex, WakesWaitersInArrivalOrder)
{
    inKernel(smallConfig(8), [](vm::Kernel &kernel, kern::Thread &drv) {
        kern::Mutex mutex("fifo");
        std::vector<int> order;

        // The holder keeps the lock while three waiters queue up in a
        // known order, then releases; the handoff chain must preserve
        // arrival order.
        kern::Thread *holder = kernel.spawnThread(
            nullptr, "holder", [&](kern::Thread &self) {
                mutex.lock(self);
                self.sleep(30 * kMsec);
                mutex.unlock(self);
            });
        std::vector<kern::Thread *> waiters;
        for (int i = 0; i < 3; ++i) {
            // Stagger arrivals decisively.
            kern::Thread *waiter = kernel.spawnThread(
                nullptr, "waiter" + std::to_string(i),
                [&, i](kern::Thread &self) {
                    self.sleep((i + 1) * 3 * kMsec);
                    mutex.lock(self);
                    order.push_back(i);
                    mutex.unlock(self);
                });
            waiters.push_back(waiter);
        }
        drv.join(*holder);
        for (kern::Thread *w : waiters)
            drv.join(*w);
        EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    });
}

TEST(Threads, WakeupOfFinishedThreadIsNoop)
{
    inKernel(smallConfig(), [](vm::Kernel &kernel, kern::Thread &drv) {
        kern::Thread *quick =
            kernel.spawnThread(nullptr, "quick", [](kern::Thread &) {});
        drv.join(*quick);
        kernel.machine().sched().wakeup(*quick); // Must not revive it.
        drv.sleep(10 * kMsec);
        EXPECT_EQ(quick->state(), kern::ThreadState::Done);
    });
}

// ---------------------------------------------------------------------
// RwMutex
// ---------------------------------------------------------------------

TEST(RwMutex, ReadersShareWritersExclude)
{
    inKernel(smallConfig(8), [](vm::Kernel &kernel, kern::Thread &drv) {
        kern::RwMutex rw("test-rw");
        int readers_inside = 0;
        int max_readers = 0;
        bool writer_inside = false;
        bool violation = false;

        std::vector<kern::Thread *> threads;
        for (int i = 0; i < 4; ++i) {
            threads.push_back(kernel.spawnThread(
                nullptr, "r" + std::to_string(i),
                [&](kern::Thread &self) {
                    for (int j = 0; j < 4; ++j) {
                        rw.lockRead(self);
                        if (writer_inside)
                            violation = true;
                        ++readers_inside;
                        max_readers =
                            std::max(max_readers, readers_inside);
                        self.compute(3 * kMsec);
                        --readers_inside;
                        rw.unlockRead(self);
                        self.compute(1 * kMsec);
                    }
                }));
        }
        for (int i = 0; i < 2; ++i) {
            threads.push_back(kernel.spawnThread(
                nullptr, "w" + std::to_string(i),
                [&](kern::Thread &self) {
                    for (int j = 0; j < 3; ++j) {
                        rw.lockWrite(self);
                        if (writer_inside || readers_inside > 0)
                            violation = true;
                        writer_inside = true;
                        self.compute(2 * kMsec);
                        writer_inside = false;
                        rw.unlockWrite(self);
                        self.compute(2 * kMsec);
                    }
                }));
        }
        for (kern::Thread *t : threads)
            drv.join(*t);
        EXPECT_FALSE(violation);
        EXPECT_GT(max_readers, 1) << "readers never overlapped";
        EXPECT_EQ(rw.readers(), 0u);
        EXPECT_FALSE(rw.writeLocked());
    });
}

// ---------------------------------------------------------------------
// SpinLock
// ---------------------------------------------------------------------

TEST(SpinLockTest, RaisesAndRestoresSpl)
{
    inKernel(smallConfig(), [](vm::Kernel &, kern::Thread &drv) {
        kern::SpinLock lock("spl-test", hw::SplDevice);
        EXPECT_EQ(drv.cpu().spl(), hw::Spl0);
        lock.lock(drv.cpu());
        EXPECT_EQ(drv.cpu().spl(), hw::SplDevice);
        EXPECT_TRUE(lock.heldBy(drv.cpu()));
        lock.unlock(drv.cpu());
        EXPECT_EQ(drv.cpu().spl(), hw::Spl0);
        EXPECT_FALSE(lock.locked());
    });
}

TEST(SpinLockTest, ExcludesAcrossCpus)
{
    inKernel(smallConfig(), [](vm::Kernel &kernel, kern::Thread &drv) {
        kern::SpinLock lock("contend", hw::SplDevice);
        int inside = 0;
        bool violated = false;
        std::vector<kern::Thread *> threads;
        for (int i = 0; i < 3; ++i) {
            threads.push_back(kernel.spawnThread(
                nullptr, "s" + std::to_string(i),
                [&](kern::Thread &self) {
                    for (int j = 0; j < 4; ++j) {
                        lock.lock(self.cpu());
                        if (inside != 0)
                            violated = true;
                        ++inside;
                        self.cpu().advanceNoPoll(500 * kUsec);
                        --inside;
                        lock.unlock(self.cpu());
                        self.compute(300 * kUsec);
                    }
                },
                i)); // Pin to distinct CPUs.
        }
        for (kern::Thread *t : threads)
            drv.join(*t);
        EXPECT_FALSE(violated);
    });
}

// ---------------------------------------------------------------------
// Threads and scheduling
// ---------------------------------------------------------------------

TEST(Threads, SleepTakesSimulatedTime)
{
    inKernel(smallConfig(), [](vm::Kernel &kernel, kern::Thread &drv) {
        const Tick before = kernel.machine().now();
        drv.sleep(25 * kMsec);
        EXPECT_GE(kernel.machine().now(), before + 25 * kMsec);
    });
}

TEST(Threads, ComputeConsumesAtLeastRequestedTime)
{
    inKernel(smallConfig(), [](vm::Kernel &kernel, kern::Thread &drv) {
        const Tick before = kernel.machine().now();
        drv.compute(40 * kMsec);
        EXPECT_GE(kernel.machine().now(), before + 40 * kMsec);
    });
}

TEST(Threads, JoinWaitsForCompletion)
{
    inKernel(smallConfig(), [](vm::Kernel &kernel, kern::Thread &drv) {
        bool child_done = false;
        kern::Thread *child = kernel.spawnThread(
            nullptr, "child", [&](kern::Thread &self) {
                self.compute(30 * kMsec);
                child_done = true;
            });
        drv.join(*child);
        EXPECT_TRUE(child_done);
        EXPECT_EQ(child->state(), kern::ThreadState::Done);
    });
}

TEST(Threads, JoinFinishedThreadReturnsImmediately)
{
    inKernel(smallConfig(), [](vm::Kernel &kernel, kern::Thread &drv) {
        kern::Thread *child =
            kernel.spawnThread(nullptr, "quick", [](kern::Thread &) {});
        drv.sleep(50 * kMsec); // Let it finish first.
        drv.join(*child);      // Must not hang.
        SUCCEED();
    });
}

TEST(Threads, ManyJoinersAllWake)
{
    inKernel(smallConfig(), [](vm::Kernel &kernel, kern::Thread &drv) {
        kern::Thread *target = kernel.spawnThread(
            nullptr, "target",
            [](kern::Thread &self) { self.compute(20 * kMsec); });
        int woke = 0;
        std::vector<kern::Thread *> joiners;
        for (int i = 0; i < 5; ++i) {
            joiners.push_back(kernel.spawnThread(
                nullptr, "j" + std::to_string(i),
                [&, target](kern::Thread &self) {
                    self.join(*target);
                    ++woke;
                }));
        }
        for (kern::Thread *j : joiners)
            drv.join(*j);
        EXPECT_EQ(woke, 5);
    });
}

TEST(Threads, AffinityPinsToCpu)
{
    inKernel(smallConfig(4), [](vm::Kernel &kernel, kern::Thread &drv) {
        CpuId observed = 999;
        kern::Thread *pinned = kernel.spawnThread(
            nullptr, "pinned",
            [&](kern::Thread &self) {
                observed = self.cpu().id();
                self.compute(5 * kMsec);
                // Still there after computing.
                observed = self.cpu().id();
            },
            2);
        drv.join(*pinned);
        EXPECT_EQ(observed, 2u);
    });
}

TEST(Threads, LoadSpreadsAcrossCpus)
{
    inKernel(smallConfig(4), [](vm::Kernel &kernel, kern::Thread &drv) {
        std::vector<CpuId> where;
        std::vector<kern::Thread *> threads;
        for (int i = 0; i < 3; ++i) {
            threads.push_back(kernel.spawnThread(
                nullptr, "w" + std::to_string(i),
                [&where](kern::Thread &self) {
                    where.push_back(self.cpu().id());
                    self.compute(30 * kMsec);
                }));
        }
        for (kern::Thread *t : threads)
            drv.join(*t);
        // Three concurrent compute-bound threads must land on three
        // distinct processors.
        std::sort(where.begin(), where.end());
        EXPECT_EQ(std::unique(where.begin(), where.end()) -
                      where.begin(),
                  3);
    });
}

TEST(Threads, TimeshareMoreThreadsThanCpus)
{
    hw::MachineConfig config = smallConfig(1);
    inKernel(config, [](vm::Kernel &kernel, kern::Thread &drv) {
        // Two compute-bound threads on one CPU must both finish
        // (round-robin at quantum boundaries).
        std::vector<kern::Thread *> threads;
        int done = 0;
        for (int i = 0; i < 2; ++i) {
            threads.push_back(kernel.spawnThread(
                nullptr, "t" + std::to_string(i),
                [&done](kern::Thread &self) {
                    self.compute(120 * kMsec);
                    ++done;
                },
                0));
        }
        for (kern::Thread *t : threads)
            drv.join(*t);
        EXPECT_EQ(done, 2);
    });
}

TEST(Threads, IdleFlagTracksActivity)
{
    inKernel(smallConfig(2), [](vm::Kernel &kernel, kern::Thread &drv) {
        drv.sleep(10 * kMsec);
        // While only the driver runs, some CPU must be idle.
        kern::Machine &m = kernel.machine();
        unsigned idle = 0;
        for (CpuId id = 0; id < m.ncpus(); ++id)
            idle += m.cpu(id).idle ? 1 : 0;
        EXPECT_GE(idle, 1u);
    });
}

// ---------------------------------------------------------------------
// Interrupts
// ---------------------------------------------------------------------

TEST(Interrupts, SplMasksAndDeferredDeliveryOnLowering)
{
    inKernel(smallConfig(2), [](vm::Kernel &kernel, kern::Thread &drv) {
        kern::Machine &m = kernel.machine();
        int handled = 0;
        m.setIrqHandler(hw::Irq::Shootdown,
                        [&](kern::Cpu &) { ++handled; });

        kern::Cpu &cpu = drv.cpu();
        const hw::Spl saved = cpu.setSpl(hw::SplHigh);
        m.intr().post(cpu.id(), hw::Irq::Shootdown);
        cpu.advanceNoPoll(1 * kMsec);
        EXPECT_EQ(handled, 0); // Masked.
        cpu.setSpl(saved);     // Lowering polls.
        EXPECT_EQ(handled, 1);
    });
}

TEST(Interrupts, KickWakesSleepingCpuPromptly)
{
    inKernel(smallConfig(2), [](vm::Kernel &kernel, kern::Thread &drv) {
        kern::Machine &m = kernel.machine();
        Tick handled_at = 0;
        m.setIrqHandler(hw::Irq::Shootdown, [&](kern::Cpu &) {
            handled_at = m.now();
        });

        kern::Thread *sleeper = kernel.spawnThread(
            nullptr, "computer",
            [](kern::Thread &self) { self.compute(500 * kMsec); }, 1);
        drv.sleep(5 * kMsec);
        const Tick posted_at = m.now();
        m.intr().post(1, hw::Irq::Shootdown);
        drv.sleep(5 * kMsec);
        EXPECT_GT(handled_at, 0u);
        // Delivered at IPI latency, not at the end of the computation.
        EXPECT_LT(handled_at - posted_at, 1 * kMsec);
        drv.join(*sleeper);
    });
}

TEST(Interrupts, KickCancelsThePendingNap)
{
    // A kick swaps the sleeper's pending wake for a prompt one. The
    // old wake must be cancelled, not left queued as a stray: the
    // sleep publishes its wake's handle before the fiber blocks.
    inKernel(smallConfig(2), [](vm::Kernel &kernel, kern::Thread &drv) {
        kern::Machine &m = kernel.machine();
        m.setIrqHandler(hw::Irq::Shootdown, [](kern::Cpu &) {});
        kern::Thread *sleeper = kernel.spawnThread(
            nullptr, "computer",
            [](kern::Thread &self) { self.compute(500 * kMsec); }, 1);
        drv.sleep(5 * kMsec);
        const std::size_t pending = m.ctx().queue().size();
        const std::uint64_t scheduled = m.ctx().queue().scheduledCount();
        m.intr().post(1, hw::Irq::Shootdown);
        EXPECT_EQ(m.ctx().queue().scheduledCount(), scheduled + 1);
        EXPECT_EQ(m.ctx().queue().size(), pending);
        drv.join(*sleeper);
    });
}

TEST(Interrupts, TimerInterruptsFireOnBusyCpus)
{
    hw::MachineConfig config = smallConfig(2);
    inKernel(config, [](vm::Kernel &, kern::Thread &drv) {
        const std::uint64_t before = drv.cpu().interrupts_taken;
        drv.compute(200 * kMsec); // Several timer periods.
        EXPECT_GT(drv.cpu().interrupts_taken, before);
    });
}

TEST(IoDeviceTest, RequestBlocksUntilCompletion)
{
    inKernel(smallConfig(2), [](vm::Kernel &kernel, kern::Thread &drv) {
        const Tick before = kernel.machine().now();
        kernel.io().request(drv, 30 * kMsec);
        EXPECT_GE(kernel.machine().now(), before + 30 * kMsec);
        EXPECT_EQ(kernel.io().completions, 1u);
    });
}

TEST(IoDeviceTest, ConcurrentRequestsAllComplete)
{
    inKernel(smallConfig(4), [](vm::Kernel &kernel, kern::Thread &drv) {
        std::vector<kern::Thread *> threads;
        for (int i = 0; i < 6; ++i) {
            threads.push_back(kernel.spawnThread(
                nullptr, "io" + std::to_string(i),
                [&kernel, i](kern::Thread &self) {
                    kernel.io().request(self,
                                        (10 + 7 * i) * kMsec);
                }));
        }
        for (kern::Thread *t : threads)
            drv.join(*t);
        EXPECT_EQ(kernel.io().completions, 6u);
    });
}

} // namespace
} // namespace mach
