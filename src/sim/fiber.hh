/**
 * @file
 * Cooperative fibers built on ucontext + __builtin_setjmp.
 *
 * Every simulated execution context (a kernel thread running on a
 * simulated CPU, an idle loop, a workload driver) is a Fiber. Exactly one
 * fiber runs at a time on the single host thread, so simulated shared
 * state never needs host-level synchronization; interleaving happens only
 * at explicit simulation points (sim::Context::block and friends), which
 * is what makes every experiment deterministic and replayable.
 *
 * ucontext is used only to enter a fresh stack for the first time
 * (makecontext is the portable way to do that). Every later switch is
 * a __builtin_setjmp/__builtin_longjmp pair: swapcontext saves and
 * restores the signal mask with an rt_sigprocmask syscall per switch,
 * and glibc's _setjmp/longjmp still pay for _longjmp_unwind, pointer
 * demangling and a saved-mask check on every jump. The builtins save
 * only the frame pointer, stack pointer and resume address; GCC makes
 * the function that calls __builtin_setjmp keep every other register
 * in its own frame. The simulator never relies on per-fiber signal
 * masks, so the forms are equivalent here.
 *
 * A switch goes from the scheduler to a fiber (resume), from a fiber
 * back to the scheduler (yieldToScheduler), or straight from one fiber
 * to another (switchTo, which sim::Context::block uses to hand a wake
 * off without the round trip through the scheduler).
 */

#ifndef MACH_SIM_FIBER_HH
#define MACH_SIM_FIBER_HH

#include <ucontext.h>

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

    /**
     * Transfer control from the running fiber straight to @p next, a
     * started, unfinished, blocked fiber; returns when some fiber or
     * the scheduler switches back to the caller. The next yield to the
     * scheduler, from whichever fiber, returns from the resume() that
     * started the chain.
     */
    static void switchTo(Fiber &next);

    /** True once resume() has entered the fiber for the first time. */
    bool started() const { return started_; }

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
    /**
     * Resume point of a blocked fiber (set by yieldToScheduler and
     * switchTo): the five words __builtin_setjmp fills.
     */
    void *env_[5] = {};
    bool started_ = false;
    bool finished_ = false;
#if defined(__SANITIZE_THREAD__)
    /**
     * This fiber's ThreadSanitizer context. TSan keeps one shadow
     * stack per context and sees none of the builtin jumps, so every
     * jump switches to its target's context first.
     */
    void *tsan_fiber_ = nullptr;
#endif
};

} // namespace mach::sim

#endif // MACH_SIM_FIBER_HH
