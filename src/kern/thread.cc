#include "kern/thread.hh"

#include <algorithm>

#include "base/logging.hh"
#include "kern/machine.hh"
#include "kern/sched.hh"

namespace mach::kern
{

namespace
{

/** A timed sleep's wakeup (raw call: @p sched, token = Thread *). */
void
wakeSleeper(void *sched, std::uint64_t thread)
{
    static_cast<Sched *>(sched)->wakeup(*reinterpret_cast<Thread *>(thread));
}

} // namespace

Thread::Thread(Machine *machine, vm::Task *task, std::string name,
               Body body)
    : machine_(machine), task_(task), name_(std::move(name)),
      body_(std::move(body))
{
}

Cpu &
Thread::cpu()
{
    MACH_ASSERT(state_ == ThreadState::Running && cpu_ != nullptr);
    return *cpu_;
}

void
Thread::compute(Tick dt)
{
    while (dt > 0) {
        Cpu &here = cpu();
        Tick slice = Sched::kQuantum > quantum_used_
                         ? Sched::kQuantum - quantum_used_
                         : 0;
        if (slice == 0)
            slice = Sched::kQuantum;
        const Tick chunk = std::min(dt, slice);
        here.advance(chunk);
        dt -= chunk;
        quantum_used_ += chunk;
        if (quantum_used_ >= Sched::kQuantum || here.need_resched) {
            quantum_used_ = 0;
            here.need_resched = false;
            yield();
        }
    }
}

void
Thread::sleep(Tick dt)
{
    if (dt == 0)
        dt = 1;
    Machine &m = *machine_;
    m.ctx().scheduleCall(m.now() + dt, &wakeSleeper, &m.sched(),
                         reinterpret_cast<std::uintptr_t>(this));
    m.sched().blockCurrent(cpu());
}

void
Thread::yield()
{
    machine_->sched().yieldCurrent(cpu());
}

void
Thread::join(Thread &other)
{
    MACH_ASSERT(&other != this);
    if (other.state_ == ThreadState::Done)
        return;
    other.joiners_.push_back(this);
    machine_->sched().blockCurrent(cpu());
    MACH_ASSERT(other.state_ == ThreadState::Done);
}

bool
Thread::load32(VAddr va, std::uint32_t *out)
{
    const AccessResult result = access(va, ProtRead);
    if (!result.ok)
        return false;
    *out = machine_->mem().read32(result.paddr);
    return true;
}

bool
Thread::store32(VAddr va, std::uint32_t value)
{
    const AccessResult result = access(va, ProtWrite);
    if (!result.ok)
        return false;
    machine_->mem().write32(result.paddr, value);
    return true;
}

} // namespace mach::kern
