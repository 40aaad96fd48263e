#include "apps/workload.hh"

#include "base/logging.hh"
#include "dev/dma_device.hh"
#include "pmap/shootdown.hh"
#include "vm/task.hh"

namespace mach::apps
{

namespace
{

/**
 * Device-driver thread for DMA device @p index: owns a private buffer
 * task the device streams against, and periodically revokes/restores
 * write access to the stream's target page -- the remap cycle a real
 * driver performs when it recycles DMA buffers. Each revocation is a
 * shootdown whose responder set includes the device, so any workload
 * run with --devices exercises the device command / drain / sync
 * phases without the applications having to know devices exist.
 * Free-runs until the workload's requestStop().
 */
void
deviceDriver(vm::Kernel &kernel, unsigned index, kern::Thread &drv)
{
    const hw::MachineConfig &cfg = kernel.machine().cfg();
    dev::DmaDevice &device = kernel.device(index);
    vm::Task *task =
        kernel.createTask("dma" + std::to_string(index));
    // Half-capacity decoy sweep: steady state runs on IOTLB hits, so
    // the IOMMU walks that do happen are mostly refills after a
    // revocation invalidated the entries.
    const unsigned decoys = cfg.iotlb_entries / 2;
    VAddr base = 0;
    if (!kernel.vmAllocate(drv, *task, &base,
                           (1 + decoys) * kPageSize, true))
        return;
    kern::Thread *toucher = kernel.spawnThread(
        task, "dma" + std::to_string(index) + "-touch",
        [base, decoys](kern::Thread &self) {
            for (unsigned i = 0; i <= decoys; ++i)
                self.access(base + i * kPageSize, ProtWrite);
        });
    drv.join(*toucher);

    dev::DmaStream stream;
    stream.pmap = &task->pmap();
    stream.target = vaToVpn(base);
    stream.decoy_base = vaToVpn(base + kPageSize);
    stream.decoys = decoys;
    stream.gap = 200 * kUsec;
    device.startStream(stream);

    // The buffer-recycle cycle; stagger the phase per device so the
    // revocations of a multi-device machine do not land in lockstep.
    drv.sleep((1 + index) * 700 * kUsec);
    while (true) {
        if (!kernel.vmProtect(drv, *task, base, kPageSize, ProtRead))
            return;
        drv.sleep(500 * kUsec);
        if (!kernel.vmProtect(drv, *task, base, kPageSize,
                              ProtReadWrite))
            return;
        // Protection increases are repaired lazily by faults, and a
        // device cannot fault: a CPU touch re-arms the DMA target --
        // the CPU half of a real driver's recycle cycle.
        kern::Thread *fixer = kernel.spawnThread(
            task, "dma" + std::to_string(index) + "-fix",
            [base](kern::Thread &self) {
                self.access(base, ProtWrite);
            });
        drv.join(*fixer);
        drv.sleep(1500 * kUsec);
    }
}

} // namespace

WorkloadResult
Workload::execute(vm::Kernel &kernel)
{
    kern::Machine &machine = kernel.machine();
    kernel.start();

    // With --devices, each device gets its own buffer task, stream,
    // and driver thread. Spawned before the workload driver so event
    // ordering is deterministic; with devices == 0 nothing changes.
    for (unsigned i = 0; i < kernel.deviceCount(); ++i) {
        kernel.spawnThread(nullptr, "dma" + std::to_string(i) + "-drv",
                           [&kernel, i](kern::Thread &self) {
                               deviceDriver(kernel, i, self);
                           });
    }

    machine.xpr().reset();

    const Tick start = machine.now();
    kernel.spawnThread(nullptr, name() + "-driver",
                       [this, &kernel](kern::Thread &driver) {
                           run(kernel, driver);
                           kernel.machine().ctx().requestStop();
                       });
    machine.run();

    WorkloadResult result;
    result.virtual_runtime = machine.now() - start;
    result.analysis = xpr::analyze(machine.xpr());
    result.lazy_avoided = kernel.pmaps().shoot().lazy_avoided;
    // analyze() above already warned if the xpr buffer overflowed; the
    // flag travels on result.analysis.overflowed for the driver.
    return result;
}

} // namespace mach::apps
