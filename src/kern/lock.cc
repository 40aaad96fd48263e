#include "kern/lock.hh"

#include "base/logging.hh"
#include "hw/bus.hh"
#include "kern/cpu.hh"
#include "kern/machine.hh"
#include "kern/sched.hh"
#include "kern/thread.hh"

namespace mach::kern
{

void
SpinLock::lock(Cpu &cpu)
{
    // The fixed-priority discipline of Section 4: a lock may only be
    // requested at or below its associated interrupt priority level.
    MACH_ASSERT(cpu.spl() <= level_);
    const hw::Spl saved = cpu.setSpl(level_);
    rawLock(cpu);
    saved_spl_ = saved;
}

void
SpinLock::unlock(Cpu &cpu)
{
    const hw::Spl saved = saved_spl_;
    rawUnlock(cpu);
    cpu.setSpl(saved);
}

void
SpinLock::rawLock(Cpu &cpu)
{
    MACH_ASSERT(holder_ != cpu.id()); // No recursive locking.
    cpu.advanceNoPoll(hw::kLockAcquireCost);
    if (holder_ >= 0) {
        hw::Bus::User user(cpu.bus());
        while (holder_ >= 0)
            cpu.spinOnce();
    }
    holder_ = cpu.id();
}

void
SpinLock::rawUnlock(Cpu &cpu)
{
    MACH_ASSERT(heldBy(cpu));
    cpu.advanceNoPoll(hw::kLockReleaseCost);
    holder_ = -1;
}

bool
SpinLock::heldBy(const Cpu &cpu) const
{
    return holder_ == cpu.id();
}

void
Mutex::lock(Thread &thread)
{
    Machine &machine = thread.machine();
    thread.cpu().advanceNoPoll(hw::kLockAcquireCost);
    bool waited = false;
    while (holder_ != nullptr) {
        waited = true;
        waiters_.push_back(&thread);
        machine.sched().blockCurrent(thread.cpu());
    }
    holder_ = &thread;
    if (waited)
        ++contended_acquires;
}

void
Mutex::unlock(Thread &thread)
{
    MACH_ASSERT(holder_ == &thread);
    Machine &machine = thread.machine();
    thread.cpu().advanceNoPoll(hw::kLockReleaseCost);
    holder_ = nullptr;
    if (!waiters_.empty()) {
        Thread *next = waiters_.front();
        waiters_.pop_front();
        machine.sched().wakeup(*next);
    }
}

void
RwMutex::wakeAll(Thread &thread)
{
    Sched &sched = thread.machine().sched();
    while (!waiters_.empty()) {
        Thread *next = waiters_.front();
        waiters_.pop_front();
        sched.wakeup(*next);
    }
}

void
RwMutex::lockRead(Thread &thread)
{
    Machine &machine = thread.machine();
    thread.cpu().advanceNoPoll(hw::kLockAcquireCost);
    while (writer_ != nullptr || writers_waiting_ > 0) {
        waiters_.push_back(&thread);
        machine.sched().blockCurrent(thread.cpu());
    }
    ++readers_;
}

void
RwMutex::unlockRead(Thread &thread)
{
    MACH_ASSERT(readers_ > 0);
    thread.cpu().advanceNoPoll(hw::kLockReleaseCost);
    --readers_;
    if (readers_ == 0)
        wakeAll(thread);
}

void
RwMutex::lockWrite(Thread &thread)
{
    Machine &machine = thread.machine();
    thread.cpu().advanceNoPoll(hw::kLockAcquireCost);
    ++writers_waiting_;
    while (writer_ != nullptr || readers_ > 0) {
        waiters_.push_back(&thread);
        machine.sched().blockCurrent(thread.cpu());
    }
    --writers_waiting_;
    writer_ = &thread;
}

void
RwMutex::unlockWrite(Thread &thread)
{
    MACH_ASSERT(writer_ == &thread);
    thread.cpu().advanceNoPoll(hw::kLockReleaseCost);
    writer_ = nullptr;
    wakeAll(thread);
}

} // namespace mach::kern
