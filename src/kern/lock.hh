/**
 * @file
 * Spin locks with fixed interrupt-priority association.
 *
 * Section 4: "potential deadlocks result from an interaction of the
 * shootdown algorithm's barrier synchronization at interrupt level with
 * inconsistent interrupt protection of locks. They are avoided by
 * associating a fixed interrupt priority (with respect to the shootdown
 * interrupt) with every lock in the system. Locks are requested at their
 * associated interrupt priority level and can only be held at that level
 * or higher."
 *
 * SpinLock enforces exactly that discipline: lock() raises the CPU to
 * the lock's level (asserting the current level does not exceed it) and
 * unlock() restores the saved level. The pmap lock is special-cased in
 * the pmap module because its acquisition protocol (Figure 1) also
 * removes the acquiring processor from the active set.
 */

#ifndef MACH_KERN_LOCK_HH
#define MACH_KERN_LOCK_HH

#include <cstdint>
#include <deque>
#include <string>

#include "base/types.hh"
#include "hw/machine_config.hh"

namespace mach::kern
{

class Cpu;
class Thread;

/** A busy-waiting mutual-exclusion lock with an associated SPL. */
class SpinLock
{
  public:
    SpinLock(std::string name, hw::Spl level)
        : name_(std::move(name)), level_(level)
    {
    }

    SpinLock(const SpinLock &) = delete;
    SpinLock &operator=(const SpinLock &) = delete;

    /**
     * Acquire: raise the caller to the lock's interrupt priority level
     * and spin (consuming simulated time, registered as a bus user)
     * until the lock is free.
     */
    void lock(Cpu &cpu);

    /** Release and restore the interrupt priority saved by lock(). */
    void unlock(Cpu &cpu);

    /**
     * Acquire without touching the interrupt priority level. Used by
     * the Figure 1 pmap-lock protocol, which manages SPL and the active
     * set itself.
     */
    void rawLock(Cpu &cpu);
    /** Release without restoring SPL. */
    void rawUnlock(Cpu &cpu);

    bool locked() const { return holder_ >= 0; }
    bool heldBy(const Cpu &cpu) const;

    const std::string &name() const { return name_; }
    hw::Spl level() const { return level_; }

  private:
    std::string name_;
    hw::Spl level_;
    /** Holding CPU id, or -1 when free. */
    std::int64_t holder_ = -1;
    hw::Spl saved_spl_ = hw::Spl0;
};

/**
 * A blocking mutual-exclusion lock: contending threads sleep instead of
 * spinning. Used by workloads for long-held resources (workpiles, the
 * serialized Unix-compatibility code in the Mach-build model) where a
 * spin lock would burn simulated CPU unrealistically.
 */
class Mutex
{
  public:
    explicit Mutex(std::string name) : name_(std::move(name)) {}

    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    /** Acquire, blocking the calling thread while held elsewhere. */
    void lock(Thread &thread);

    /** Release and wake one waiter. */
    void unlock(Thread &thread);

    bool locked() const { return holder_ != nullptr; }
    const std::string &name() const { return name_; }

    /** Acquisitions that had to wait for another holder. */
    std::uint64_t contended_acquires = 0;

  private:
    std::string name_;
    Thread *holder_ = nullptr;
    std::deque<Thread *> waiters_;
};

/**
 * A blocking reader-writer lock with writer preference, in the style
 * of the Mach vm_map locks: page faults share the map as readers (and
 * can proceed in parallel on many processors), while address-space
 * mutations take it exclusively.
 */
class RwMutex
{
  public:
    explicit RwMutex(std::string name) : name_(std::move(name)) {}

    RwMutex(const RwMutex &) = delete;
    RwMutex &operator=(const RwMutex &) = delete;

    void lockRead(Thread &thread);
    void unlockRead(Thread &thread);
    void lockWrite(Thread &thread);
    void unlockWrite(Thread &thread);

    bool writeLocked() const { return writer_ != nullptr; }
    unsigned readers() const { return readers_; }
    const std::string &name() const { return name_; }

  private:
    /** Wake every waiter; they re-evaluate their entry conditions. */
    void wakeAll(Thread &thread);

    std::string name_;
    unsigned readers_ = 0;
    Thread *writer_ = nullptr;
    unsigned writers_waiting_ = 0;
    std::deque<Thread *> waiters_;
};

} // namespace mach::kern

#endif // MACH_KERN_LOCK_HH
