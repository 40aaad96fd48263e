/**
 * @file
 * Cooperative fibers built on ucontext + setjmp.
 *
 * Every simulated execution context (a kernel thread running on a
 * simulated CPU, an idle loop, a workload driver) is a Fiber. Exactly one
 * fiber runs at a time on the single host thread, so simulated shared
 * state never needs host-level synchronization; interleaving happens only
 * at explicit simulation points (sim::Context::block and friends), which
 * is what makes every experiment deterministic and replayable.
 *
 * ucontext is used only to enter a fresh stack for the first time
 * (makecontext is the portable way to do that). Every steady-state
 * switch uses _setjmp/_longjmp instead: swapcontext saves and restores
 * the signal mask with an rt_sigprocmask syscall per switch, which
 * dominates switch cost, while _setjmp/_longjmp are pure user-space
 * register save/restore. The simulator never relies on per-fiber
 * signal masks, so the two are equivalent here.
 */

#ifndef MACH_SIM_FIBER_HH
#define MACH_SIM_FIBER_HH

#include <ucontext.h>

#include <csetjmp>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>

namespace mach::sim
{

/** A cooperatively scheduled execution context with its own stack. */
class Fiber
{
  public:
    using Entry = std::function<void()>;

    /** Every fiber's stack size; generous because VM faults nest deeply. */
    static constexpr std::size_t kStackSize = 256 * 1024;

    /**
     * Create a fiber that will run @p entry when first switched to.
     * The fiber does not start executing until resume() is called.
     */
    Fiber(std::string name, Entry entry);
    /** Hands the stack back to this host thread's free list. */
    ~Fiber();

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /** True once entry() has returned. */
    bool finished() const { return finished_; }

    const std::string &name() const { return name_; }

    /**
     * The fiber currently executing, or nullptr when control is in the
     * scheduler (main context).
     */
    static Fiber *current();

    /**
     * Transfer control from the scheduler to this fiber. Must be called
     * from the main context only; returns when the fiber blocks or
     * finishes.
     */
    void resume();

    /**
     * Transfer control from this fiber back to the scheduler. Must be
     * called from within the currently running fiber.
     */
    static void yieldToScheduler();

  private:
    static void trampoline(unsigned hi, unsigned lo);
    void start();

    std::string name_;
    Entry entry_;
    /**
     * kStackSize bytes, never initialised: a fiber writes every stack
     * slot before it reads it. Recycled through a per-host-thread free
     * list, so a spawn usually reuses a finished fiber's stack.
     */
    std::unique_ptr<unsigned char[]> stack_;
    /** First-entry context (stack setup); unused after start(). */
    ucontext_t context_;
    /** Resume point of a blocked fiber (set by yieldToScheduler). */
    std::jmp_buf env_;
    bool started_ = false;
    bool finished_ = false;
#if defined(__SANITIZE_THREAD__)
    /**
     * This fiber's ThreadSanitizer context. TSan keeps one shadow
     * stack and jmp_buf list per context; sharing the scheduler's
     * would let its _setjmp discard the fibers' resume points.
     */
    void *tsan_fiber_ = nullptr;
#endif
};

} // namespace mach::sim

#endif // MACH_SIM_FIBER_HH
