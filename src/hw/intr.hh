/**
 * @file
 * Inter-processor and device interrupt delivery.
 *
 * Each CPU has one pending line per interrupt source; posting an already
 * pending source merges with it (which is why the initiator checks "is a
 * shootdown interrupt already pending" before adding a processor to its
 * interrupt list -- Section 4, omitted detail 3). Delivery is decided by
 * the target CPU's current interrupt priority level: a source is
 * deliverable when its priority exceeds the level. The kick callback
 * lets a sleeping simulated CPU be woken promptly when a deliverable
 * interrupt arrives.
 */

#ifndef MACH_HW_INTR_HH
#define MACH_HW_INTR_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "base/types.hh"
#include "hw/machine_config.hh"

namespace mach::hw
{

/** Per-machine interrupt controller. */
class InterruptController
{
  public:
    /**
     * Invoked when a post makes a new interrupt pending on a CPU. A
     * callback because tests/hw_test.cc drives a controller with a
     * fake one and no machine.
     */
    using KickFn = std::function<void(CpuId)>;

    InterruptController(const MachineConfig *config, unsigned ncpus);

    /**
     * Raise @p irq on @p target. Returns false (and does nothing more)
     * if the line was already pending. @p now stamps the post time for
     * post-to-delivery latency observability; merged posts keep the
     * earlier stamp (the line has been pending since then).
     */
    bool post(CpuId target, Irq irq, Tick now = 0);

    /** Is @p irq currently pending on @p cpu? */
    bool pending(CpuId cpu, Irq irq) const;

    /**
     * Simulated time of the oldest unacknowledged post of @p irq on
     * @p cpu (0 when the poster did not pass a timestamp). Read by the
     * delivery loop before clear() to compute post-to-deliver latency.
     */
    Tick postTick(CpuId cpu, Irq irq) const;

    /** Acknowledge (clear) @p irq on @p cpu. */
    void clear(CpuId cpu, Irq irq);

    /**
     * Highest-priority pending source deliverable at level @p spl, or
     * -1 when none. Priorities come from MachineConfig::irqPriority.
     */
    int deliverable(CpuId cpu, Spl spl) const;

    /** Register the wakeup callback (one per machine). */
    void setKick(KickFn kick) { kick_ = std::move(kick); }

  private:
    const MachineConfig *config_;
    /** pending_[cpu] is a bitmask indexed by Irq. */
    std::vector<std::uint8_t> pending_;
    /** post_ticks_[cpu * kNumIrqs + irq] = time of the oldest post. */
    std::vector<Tick> post_ticks_;
    KickFn kick_;
};

} // namespace mach::hw

#endif // MACH_HW_INTR_HH
