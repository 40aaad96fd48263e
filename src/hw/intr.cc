#include "hw/intr.hh"

#include "base/logging.hh"

namespace mach::hw
{

InterruptController::InterruptController(const MachineConfig *config,
                                         unsigned ncpus)
    : config_(config), pending_(ncpus, 0),
      post_ticks_(std::size_t{ncpus} * kNumIrqs, 0)
{
}

bool
InterruptController::post(CpuId target, Irq irq, Tick now)
{
    MACH_ASSERT(target < pending_.size());
    const std::uint8_t bit =
        static_cast<std::uint8_t>(1u << static_cast<unsigned>(irq));
    if (pending_[target] & bit)
        return false; // Merged; the original post's stamp stands.
    pending_[target] |= bit;
    post_ticks_[target * kNumIrqs + static_cast<unsigned>(irq)] = now;
    if (kick_)
        kick_(target);
    return true;
}

Tick
InterruptController::postTick(CpuId cpu, Irq irq) const
{
    MACH_ASSERT(cpu < pending_.size());
    return post_ticks_[cpu * kNumIrqs + static_cast<unsigned>(irq)];
}

bool
InterruptController::pending(CpuId cpu, Irq irq) const
{
    MACH_ASSERT(cpu < pending_.size());
    return (pending_[cpu] >> static_cast<unsigned>(irq)) & 1u;
}

void
InterruptController::clear(CpuId cpu, Irq irq)
{
    MACH_ASSERT(cpu < pending_.size());
    pending_[cpu] &=
        static_cast<std::uint8_t>(~(1u << static_cast<unsigned>(irq)));
}

int
InterruptController::deliverable(CpuId cpu, Spl spl) const
{
    MACH_ASSERT(cpu < pending_.size());
    const std::uint8_t mask = pending_[cpu];
    if (!mask)
        return -1;

    int best = -1;
    int best_prio = -1;
    for (unsigned i = 0; i < kNumIrqs; ++i) {
        if (!((mask >> i) & 1u))
            continue;
        const Irq irq = static_cast<Irq>(i);
        const int prio = static_cast<int>(config_->irqPriority(irq));
        if (prio > static_cast<int>(spl) && prio > best_prio) {
            best = static_cast<int>(i);
            best_prio = prio;
        }
    }
    return best;
}

} // namespace mach::hw
