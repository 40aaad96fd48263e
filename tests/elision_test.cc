/**
 * @file
 * Self-wake elision and direct handoff at machine scale. Context::run()
 * takes a fiber's wake inline when nothing else could run first, and
 * a blocking fiber dispatches a wake at the queue front itself,
 * switching straight to the woken fiber; runGuarded() does neither,
 * which makes it the reference. Whole workloads -- the Section 5.1
 * tester, the serving tier, a NUMA machine, and a machine with DMA
 * devices -- must give identical digests, event counts, and clocks
 * either way, and both fast paths must actually fire on serving
 * traffic, so a change that quietly disables one fails here.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "apps/consistency_tester.hh"
#include "apps/serving.hh"
#include "dev/dma_device.hh"
#include "vm/kernel.hh"
#include "vm/task.hh"
#include "xpr/machine_stats.hh"

namespace mach
{
namespace
{

/** What one drive of a workload observed. */
struct Outcome
{
    std::uint64_t digest = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t scheduled = 0;
    std::uint64_t elided = 0;
    std::uint64_t handoffs = 0;
    Tick now = 0;
};

/**
 * A DMA device's driver: stream against a private page and flip its
 * protection forever, so each flip is a shootdown the device answers.
 */
void
deviceCycle(vm::Kernel &kernel, unsigned index, kern::Thread &drv)
{
    vm::Task *task = kernel.createTask("dma" + std::to_string(index));
    VAddr base = 0;
    ASSERT_TRUE(kernel.vmAllocate(drv, *task, &base, kPageSize, true));
    const auto touch = [&] {
        drv.join(*kernel.spawnThread(task, "dma-touch",
                                     [base](kern::Thread &self) {
                                         self.access(base, ProtWrite);
                                     }));
    };
    touch();
    dev::DmaStream stream;
    stream.pmap = &task->pmap();
    stream.target = vaToVpn(base);
    stream.gap = 200 * kUsec;
    kernel.device(index).startStream(stream);
    drv.sleep((1 + index) * 700 * kUsec);
    while (kernel.vmProtect(drv, *task, base, kPageSize, ProtRead)) {
        drv.sleep(500 * kUsec);
        if (!kernel.vmProtect(drv, *task, base, kPageSize, ProtReadWrite))
            return;
        touch();
        drv.sleep(1500 * kUsec);
    }
}

/**
 * Run @p app on a fresh kernel the way Workload::execute does, but
 * drain the machine with run() or, when @p guarded, with runGuarded()
 * behind watermarks it can never reach.
 */
Outcome
drive(const hw::MachineConfig &config, apps::Workload &app, bool guarded)
{
    setLogQuiet(true);
    vm::Kernel kernel(config);
    kern::Machine &machine = kernel.machine();
    kernel.start();
    for (unsigned i = 0; i < kernel.deviceCount(); ++i) {
        kernel.spawnThread(nullptr, "dma-drv",
                           [&kernel, i](kern::Thread &self) {
                               deviceCycle(kernel, i, self);
                           });
    }
    kernel.spawnThread(nullptr, "driver", [&](kern::Thread &driver) {
        app.run(kernel, driver);
        machine.ctx().requestStop();
    });

    Outcome out;
    if (guarded) {
        const kern::Machine::PrefixRun prefix =
            machine.runPrefix(~std::uint64_t{0}, ~std::uint64_t{0},
                              ~Tick{0});
        EXPECT_FALSE(prefix.parked);
        out.dispatched = prefix.events;
    } else {
        out.dispatched = machine.run();
    }
    out.digest = xpr::runDigest(kernel);
    out.scheduled = machine.ctx().queue().scheduledCount();
    out.elided = machine.ctx().elidedWakes();
    out.handoffs = machine.ctx().handoffs();
    out.now = machine.now();
    return out;
}

apps::Serving::Params
servingParams()
{
    apps::Serving::Params params;
    params.tenants = 6;
    params.concurrency = 3;
    params.requests_per_tenant = 3;
    return params;
}

hw::MachineConfig
servingConfig()
{
    hw::MachineConfig config;
    config.ncpus = 8;
    config.seed = 0xe11de;
    return config;
}

/** Drive a fresh workload from @p make both ways and compare. */
template <typename Make>
void
expectRunMatchesReference(const hw::MachineConfig &config, Make make)
{
    auto fast_app = make();
    auto reference_app = make();
    const Outcome fast = drive(config, fast_app, false);
    const Outcome reference = drive(config, reference_app, true);
    EXPECT_EQ(fast.digest, reference.digest);
    EXPECT_EQ(fast.dispatched, reference.dispatched);
    EXPECT_EQ(fast.scheduled, reference.scheduled);
    EXPECT_EQ(fast.now, reference.now);
    EXPECT_GT(fast.elided, 0u);
    EXPECT_GT(fast.handoffs, 0u);
    EXPECT_EQ(reference.elided, 0u);
    EXPECT_EQ(reference.handoffs, 0u);
}

TEST(WakeElision, TesterMatchesGuardedReference)
{
    hw::MachineConfig config;
    config.seed = 0x7e57;
    expectRunMatchesReference(config, [] {
        return apps::ConsistencyTester(
            {.children = 6, .warmup = 20 * kMsec});
    });
}

TEST(WakeElision, ServingMatchesGuardedReference)
{
    expectRunMatchesReference(servingConfig(),
                              [] { return apps::Serving(servingParams()); });
}

TEST(WakeElision, NumaServingMatchesGuardedReference)
{
    hw::MachineConfig config = servingConfig();
    config.numa_nodes = 2;
    expectRunMatchesReference(config,
                              [] { return apps::Serving(servingParams()); });
}

TEST(WakeElision, TwoDeviceServingMatchesGuardedReference)
{
    hw::MachineConfig config = servingConfig();
    config.devices = 2;
    expectRunMatchesReference(config,
                              [] { return apps::Serving(servingParams()); });
}

TEST(WakeElision, FastPathCarriesServingTraffic)
{
    // On the serving tier about half of all wakes lead the queue; a
    // floor of 20% leaves room for workload changes but not for a fast
    // path that has stopped firing.
    setLogQuiet(true);
    vm::Kernel kernel(servingConfig());
    apps::Serving serving(servingParams());
    serving.execute(kernel);
    const sim::Context &ctx = kernel.machine().ctx();
    const double share = static_cast<double>(ctx.elidedWakes()) /
                         static_cast<double>(
                             kernel.machine().ctx().queue().scheduledCount());
    EXPECT_GE(share, 0.20) << ctx.elidedWakes() << " elided wakes";
}

TEST(WakeElision, HandoffCarriesServingTraffic)
{
    // On the serving tier block() dispatches 84% of the events that
    // are queued (not elided) itself; a floor of 50% leaves room for
    // workload changes but not for a handoff that has stopped firing.
    setLogQuiet(true);
    vm::Kernel kernel(servingConfig());
    apps::Serving serving(servingParams());
    serving.execute(kernel);
    sim::Context &ctx = kernel.machine().ctx();
    const std::uint64_t queued =
        ctx.queue().scheduledCount() - ctx.elidedWakes();
    const double share = static_cast<double>(ctx.handoffs()) /
                         static_cast<double>(queued);
    EXPECT_GE(share, 0.50) << ctx.handoffs() << " of " << queued
                           << " queued events handed off";
}

} // namespace
} // namespace mach
