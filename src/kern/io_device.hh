/**
 * @file
 * Simulated I/O device.
 *
 * The Mach-build workload performs disk reads and writes; completions
 * arrive as device interrupts whose service routines run with device
 * (and therefore, on baseline hardware, shootdown) interrupts masked.
 * Those masked windows are a major cause of the extra latency and skew
 * of kernel-pmap shootdowns (Section 8), so the device model matters to
 * the shape of Table 2.
 */

#ifndef MACH_KERN_IO_DEVICE_HH
#define MACH_KERN_IO_DEVICE_HH

#include <cstdint>
#include <deque>

#include "base/types.hh"

namespace mach::kern
{

class Cpu;
class Machine;
class Thread;

/** A DMA-style device: submit a request, block, completion interrupt. */
class IoDevice
{
  public:
    explicit IoDevice(Machine *machine);

    /**
     * Issue a request taking @p latency of device time and block the
     * calling thread until the completion interrupt service wakes it.
     */
    void request(Thread &thread, Tick latency);

    /** Interrupt service routine (registered for Irq::Device). */
    void serviceInterrupt(Cpu &cpu);

    std::uint64_t completions = 0;

  private:
    /** Completion event (raw call: @p device, token = Thread *). */
    static void complete(void *device, std::uint64_t thread);

    Machine *machine_;
    std::deque<Thread *> completed_;
    /** CPU that takes this device's interrupts (like a Multimax SCC). */
    CpuId intr_target_ = 0;
};

} // namespace mach::kern

#endif // MACH_KERN_IO_DEVICE_HH
