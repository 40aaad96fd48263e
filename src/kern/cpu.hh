/**
 * @file
 * One simulated processor.
 *
 * A Cpu does not own an execution context of its own; the fibers of the
 * threads scheduled on it (or of its idle loop) execute "on" it and
 * consume simulated time through it. Interrupts are dispatched on
 * whatever fiber is currently advancing time on the CPU, exactly as a
 * hardware interrupt runs on the interrupted stack.
 *
 * The public fields active / in the idle set mirror the processor sets
 * of the shootdown algorithm (Section 4): `active` means "actively
 * performing virtual-to-physical translations on any pmap".
 */

#ifndef MACH_KERN_CPU_HH
#define MACH_KERN_CPU_HH

#include <cstdint>
#include <optional>

#include "base/types.hh"
#include "hw/machine_config.hh"
#include "hw/tlb.hh"
#include "sim/context.hh"

namespace mach::pmap
{
class Pmap;
} // namespace mach::pmap

namespace mach::hw
{
class Bus;
} // namespace mach::hw

namespace mach::kern
{

class Machine;
class Thread;

/** Result of a simulated memory access through the MMU. */
struct AccessResult
{
    bool ok = false;    ///< False on an unrecoverable fault.
    PAddr paddr = 0;    ///< Valid when ok.
};

/** A simulated processor. */
class Cpu
{
  public:
    Cpu(Machine *machine, CpuId id);

    CpuId id() const { return id_; }
    Machine &machine() { return *machine_; }
    hw::Tlb &tlb() { return tlb_; }

    /** NUMA node this processor belongs to (0 on non-NUMA machines). */
    unsigned node() const { return node_; }
    /** This processor's node-local bus. */
    hw::Bus &bus();

    // ---- Shootdown-visible processor state --------------------------

    /** Actively performing virtual-to-physical translations. */
    bool active = true;
    /** Member of the idle processor set. */
    bool idle = false;
    /** Set by the timer interrupt to request a reschedule. */
    bool need_resched = false;

    /** The pmap of the task currently running here (null when none). */
    pmap::Pmap *cur_pmap = nullptr;
    /** Thread currently dispatched on this CPU (idle thread counts). */
    Thread *cur_thread = nullptr;
    /** This CPU's dedicated idle thread (set by the scheduler). */
    Thread *idle_thread = nullptr;

    // ---- Interrupt priority level ------------------------------------

    hw::Spl spl() const { return spl_; }

    /**
     * Set the interrupt priority level, returning the previous one.
     * Lowering the level polls for pending interrupts that the new
     * level permits, so deferred shootdowns are taken promptly --
     * "the interrupts will be acted upon before performing any memory
     * references that may use inconsistent TLB entries" (Section 4).
     */
    hw::Spl setSpl(hw::Spl level);

    /**
     * Dispatch any pending interrupts deliverable at the current level.
     * Called from advance boundaries and on level lowering.
     */
    void pollInterrupts();

    /**
     * Notification from the interrupt controller that a source was
     * posted; wakes the fiber currently sleeping on this CPU early if
     * the source is deliverable.
     */
    void kick();

    // ---- Time consumption (call only from the fiber running here) ----

    /**
     * Consume @p dt of simulated time, taking deliverable interrupts at
     * the earliest opportunity (their service time is extra).
     */
    void advance(Tick dt);

    /** Consume time with no interrupt polling (dispatch accounting). */
    void advanceNoPoll(Tick dt);

    /** One busy-wait poll: a bus-priced probe plus the spin quantum. */
    void spinOnce();

    /** Consume the cost of @p count memory accesses at current load. */
    void memAccess(unsigned count = 1);

    /**
     * Park in the idle loop: nap until kicked by an interrupt or woken
     * by the scheduler, then poll interrupts. Callers loop on their
     * own predicates (spurious wakeups are allowed).
     */
    void idleWait();

    /**
     * Unconditionally wake whatever fiber is sleeping on this CPU (used
     * by the scheduler when enqueueing work on an idle processor).
     */
    void wakeSleeper();

    // ---- MMU access path ---------------------------------------------

    /**
     * Perform a data access to virtual address @p va requiring @p want
     * rights: TLB probe, hardware (or software) reload on miss, and a
     * call to vm::Kernel::handleFault when the translation is absent or
     * insufficient. Returns the physical address, or !ok when the VM
     * system reports an unrecoverable fault (e.g. a write to a page
     * that is now read-only -- what the Section 5.1 tester's child
     * threads die of).
     */
    AccessResult access(VAddr va, Prot want);

    /**
     * Pick the pmap that translates @p va on this CPU: the kernel pmap
     * for kernel addresses, else the current task's (null when none).
     */
    pmap::Pmap *pmapFor(VAddr va);

    // ---- Statistics ----------------------------------------------------

    std::uint64_t interrupts_taken = 0;
    std::uint64_t faults_taken = 0;
    /** Translated accesses that resolved to a remote node's frame. */
    std::uint64_t remote_mem_accesses = 0;

  private:
    friend class Machine;

    /**
     * Sleep up to @p dt; returns early when kicked by a deliverable
     * interrupt posting. Spurious early wakeups are possible and are
     * handled by the callers' loops.
     */
    void preemptibleSleep(Tick dt);

    Machine *machine_;
    CpuId id_;
    unsigned node_;
    hw::Tlb tlb_;
    hw::Spl spl_ = hw::Spl0;

    /** Fiber currently in preemptibleSleep on this CPU, if any. */
    sim::FiberId sleeping_fiber_ = 0;
    sim::EventId sleep_event_{};
};

} // namespace mach::kern

#endif // MACH_KERN_CPU_HH
