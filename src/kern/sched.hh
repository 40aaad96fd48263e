/**
 * @file
 * Per-CPU run queues with idle loops.
 *
 * The scheduler is deliberately simple -- threads are placed on the
 * least-loaded CPU (or a pinned one), run until they block, yield, or
 * exhaust a quantum, and idle CPUs park on an idle thread. What matters
 * for the reproduction is the idle-set behaviour of Section 4: idle
 * processors do not receive shootdown interrupts, and must check for
 * queued consistency actions and execute them before becoming active.
 * The idle loop does that check on its way out, with a direct call to
 * the kernel's pmap::ShootdownController::idleExit; dispatch does the
 * pmap deactivate/activate of an address-space switch the same way.
 */

#ifndef MACH_KERN_SCHED_HH
#define MACH_KERN_SCHED_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "base/types.hh"
#include "kern/thread.hh"

namespace mach::kern
{

class Machine;

/** The machine-wide scheduler. */
class Sched
{
  public:
    explicit Sched(Machine *machine);
    ~Sched();

    /** Scheduling quantum for round-robin timeslicing. */
    static constexpr Tick kQuantum = 50 * kMsec;

    /**
     * Bring up the idle threads. Idempotent: later calls (e.g. from a
     * second workload run on the same kernel) are no-ops.
     */
    void start();

    /**
     * Create and start a thread. @p pin >= 0 binds it to that CPU (the
     * Section 5.1 tester pins children to distinct processors so a
     * k-thread run shoots exactly k CPUs).
     */
    Thread *spawn(vm::Task *task, std::string name, Thread::Body body,
                  std::int64_t pin = -1);

    /** Make a blocked thread runnable again. */
    void wakeup(Thread &thread);

    /** All threads ever spawned (kept for join/inspection). */
    const std::vector<std::unique_ptr<Thread>> &threads() const
    {
        return threads_;
    }

    // ---- Internal transitions (called from Thread) --------------------

    /** Current thread blocks; dispatch the next one. */
    void blockCurrent(Cpu &cpu);
    /** Current thread yields if something else is runnable. */
    void yieldCurrent(Cpu &cpu);

  private:
    friend class Thread;

    /** Pick a CPU for a newly runnable thread. */
    Cpu &placeThread(Thread &thread);
    /** Enqueue on a specific CPU and un-idle it if necessary. */
    void enqueue(Cpu &cpu, Thread &thread);
    /**
     * Dispatch the next runnable thread (or idle) on @p cpu, switching
     * pmaps when it runs in another task.
     */
    void dispatchNext(Cpu &cpu);
    /** Body of each per-CPU idle thread. */
    void idleLoop(Thread &self);
    /** Ensure the thread's fiber exists and resumes as Running. */
    void makeRunning(Cpu &cpu, Thread &thread);
    /** Park the calling thread's fiber until it is Running again. */
    void parkUntilRunning(Thread &thread);

    Machine *machine_;
    std::vector<std::unique_ptr<Thread>> threads_;
    std::vector<std::deque<Thread *>> runq_;
    bool started_ = false;
};

} // namespace mach::kern

#endif // MACH_KERN_SCHED_HH
