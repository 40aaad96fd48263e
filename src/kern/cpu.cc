#include "kern/cpu.hh"

#include "base/logging.hh"
#include "kern/machine.hh"
#include "obs/probe.hh"

namespace mach::kern
{

namespace
{
/** Idle nap length; idle CPUs are woken by kicks and enqueues. */
constexpr Tick kIdleNap = 10 * kSec;

const obs::Site &
irqSite(hw::Irq irq)
{
    switch (irq) {
      case hw::Irq::Shootdown: return obs::kIrqShootdown;
      case hw::Irq::Timer: return obs::kIrqTimer;
      default: return obs::kIrqDevice;
    }
}
} // namespace

Cpu::Cpu(Machine *machine, CpuId id)
    : machine_(machine), id_(id), node_(machine->nodeOfCpu(id)),
      tlb_(&machine->cfg(), &machine->mem())
{
}

hw::Bus &
Cpu::bus()
{
    return machine_->bus(node_);
}

hw::Spl
Cpu::setSpl(hw::Spl level)
{
    const hw::Spl old = spl_;
    spl_ = level;
    if (level < old)
        pollInterrupts();
    return old;
}

void
Cpu::pollInterrupts()
{
    // Only the fiber currently executing on this CPU may poll; events
    // and other CPUs' fibers interact through kick() instead.
    for (;;) {
        const int irq_index = machine_->intr().deliverable(id_, spl_);
        if (irq_index < 0)
            return;
        const auto irq = static_cast<hw::Irq>(irq_index);
        const obs::Site &site = irqSite(irq);
        obs::Recorder &rec = machine_->recorder();
        if (rec.enabled()) {
            // Post-to-deliver latency: how long the line sat pending
            // (spl masking, sleeping target, dispatch backlog).
            const Tick posted = machine_->intr().postTick(id_, irq);
            const Tick latency =
                posted != 0 ? machine_->now() - posted : 0;
            rec.begin(rec.cpuTrack(id_), site,
                      obs::Arg{"post_to_deliver_ns", latency});
            rec.metrics().histogram(site.histogram).record(latency / kUsec);
        }
        machine_->intr().clear(id_, irq);
        ++interrupts_taken;

        // Hardware raises the priority level to the source's own level
        // while the service routine runs, which blocks further
        // interrupts from the same source ("responders must disable
        // further shootdown interrupts while servicing one -- most
        // hardware does this by default", Section 4).
        const hw::Spl saved = spl_;
        spl_ = machine_->cfg().irqPriority(irq);

        // Dispatch overhead: state save (with its natural variation)
        // plus a handful of shootdown / handler structure accesses that
        // miss in the write-through cache and pay current bus prices.
        Tick dispatch = hw::kIntrDispatchCost +
                        machine_->rng().below(hw::kIntrDispatchJitter);
        dispatch += bus().accessCost(4);
        advanceNoPoll(dispatch);

        machine_->dispatchIrq(irq, *this);

        advanceNoPoll(hw::kIntrReturnCost);
        if (rec.enabled())
            rec.end(rec.cpuTrack(id_), site);
        spl_ = saved;
    }
}

void
Cpu::kick()
{
    if (sleeping_fiber_ != 0 &&
        machine_->intr().deliverable(id_, spl_) >= 0) {
        wakeSleeper();
    }
}

void
Cpu::wakeSleeper()
{
    if (sleeping_fiber_ == 0)
        return;
    machine_->ctx().cancel(sleep_event_);
    machine_->ctx().scheduleWake(
        sleeping_fiber_, machine_->now() + hw::kIpiLatency);
    // Clear it now, so a second kick before the sleeper runs finds no
    // sleeper and schedules nothing.
    sleeping_fiber_ = 0;
}

void
Cpu::preemptibleSleep(Tick dt)
{
    sim::Context &ctx = machine_->ctx();
    if (sleeping_fiber_ != 0) {
        panic("cpu%u: preemptibleSleep by fiber '%s' while fiber '%s' "
              "is already registered asleep here",
              id_, ctx.fiberName(ctx.currentFiber()).c_str(),
              ctx.fiberName(sleeping_fiber_).c_str());
    }
    sleeping_fiber_ = ctx.currentFiber();
    // blockUntil stores the wake's id before blocking, so a kick
    // arriving meanwhile can cancel it.
    ctx.blockUntil(ctx.now() + dt, &sleep_event_);
    sleeping_fiber_ = 0;
    // Cancel in case we were woken by a different (earlier) event and
    // the original wake is still pending; harmless if already fired.
    ctx.cancel(sleep_event_);
    sleep_event_ = {};
}

void
Cpu::advance(Tick dt)
{
    sim::Context &ctx = machine_->ctx();
    const Tick deadline = ctx.now() + dt;
    pollInterrupts();
    while (ctx.now() < deadline) {
        preemptibleSleep(deadline - ctx.now());
        pollInterrupts();
    }
}

void
Cpu::advanceNoPoll(Tick dt)
{
    // Loop so that a stale wake event (from an earlier cancelled sleep
    // or a crossed scheduler wake) cannot shorten the time consumed.
    sim::Context &ctx = machine_->ctx();
    const Tick deadline = ctx.now() + dt;
    while (ctx.now() < deadline)
        ctx.sleep(deadline - ctx.now());
}

void
Cpu::spinOnce()
{
    advance(hw::kSpinQuantum + bus().accessCost());
}

void
Cpu::memAccess(unsigned count)
{
    advance(bus().accessCost(count));
}

void
Cpu::idleWait()
{
    preemptibleSleep(kIdleNap);
    pollInterrupts();
}

} // namespace mach::kern
