#include "kern/io_device.hh"

#include "base/logging.hh"
#include "base/rng.hh"
#include "kern/machine.hh"
#include "kern/sched.hh"

namespace mach::kern
{

IoDevice::IoDevice(Machine *machine) : machine_(machine)
{
    machine_->setIrqHandler(hw::Irq::Device,
                            [this](Cpu &cpu) { serviceInterrupt(cpu); });
}

void
IoDevice::request(Thread &thread, Tick latency)
{
    if (latency == 0)
        latency = 1;
    Machine &m = *machine_;
    // Submitting the request manipulates device queues at splbio:
    // another of the interrupt-masked kernel windows that delay
    // shootdown responses (Section 8).
    Cpu &cpu = thread.cpu();
    const hw::Spl saved = cpu.setSpl(hw::SplDevice);
    cpu.advance(80 * kUsec +
                Tick(m.rng().exponential(120.0) * kUsec));
    cpu.setSpl(saved);
    m.ctx().scheduleCall(m.now() + latency, &IoDevice::complete, this,
                         reinterpret_cast<std::uintptr_t>(&thread));
    m.sched().blockCurrent(thread.cpu());
}

void
IoDevice::complete(void *device, std::uint64_t thread)
{
    IoDevice &d = *static_cast<IoDevice *>(device);
    d.completed_.push_back(reinterpret_cast<Thread *>(thread));
    d.machine_->intr().post(d.intr_target_, hw::Irq::Device);
}

void
IoDevice::serviceInterrupt(Cpu &cpu)
{
    // The service routine runs with device (and on baseline hardware,
    // shootdown) interrupts masked -- these are exactly the "varying
    // intervals for which interrupts are disabled" that skew kernel
    // shootdown times in Section 8: many short intervals, few long
    // ones (the heavy-tailed service below).
    Rng &rng = machine_->rng();
    Tick service = 150 * kUsec + Tick(rng.exponential(180.0) * kUsec);
    if (rng.chance(0.05)) {
        // Occasionally the device needs a slow error-recovery /
        // retry pass.
        service += Tick(rng.exponential(2500.0) * kUsec);
    }
    cpu.advance(service);
    while (!completed_.empty()) {
        Thread *thread = completed_.front();
        completed_.pop_front();
        ++completions;
        cpu.advance(50 * kUsec);
        machine_->sched().wakeup(*thread);
    }
}

} // namespace mach::kern
