#include "sim/fiber.hh"

#include <cstdint>

#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

#include "base/logging.hh"

namespace mach::sim
{

namespace
{
/**
 * The fiber currently executing; null while in the scheduler. One slot
 * per host thread: the run farm (src/farm) drives one Machine per
 * worker thread, and each machine's fibers yield to the scheduler
 * context of the thread that resumed them, so the two threads never
 * share fiber state.
 */
thread_local Fiber *current_fiber = nullptr;
/** Resume point of the scheduler (main) context, set by resume(). */
thread_local std::jmp_buf scheduler_env;
#if defined(__SANITIZE_THREAD__)
/** The scheduler's TSan context, set by resume(). */
thread_local void *scheduler_tsan_fiber = nullptr;
#endif
} // namespace

Fiber::Fiber(std::string name, Entry entry, std::size_t stack_size)
    : name_(std::move(name)), entry_(std::move(entry)), stack_(stack_size)
{
    MACH_ASSERT(entry_ != nullptr);
#if defined(__SANITIZE_THREAD__)
    tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber()
{
    // Destroying a live, unfinished fiber would leak whatever it holds on
    // its stack; the simulation tears fibers down only after completion
    // or at whole-machine destruction where leaked stack state is inert.
#if defined(__SANITIZE_THREAD__)
    __tsan_destroy_fiber(tsan_fiber_);
#endif
}

Fiber *
Fiber::current()
{
    return current_fiber;
}

void
Fiber::trampoline(unsigned hi, unsigned lo)
{
    auto bits = (static_cast<std::uint64_t>(hi) << 32) |
                static_cast<std::uint64_t>(lo);
    reinterpret_cast<Fiber *>(static_cast<std::uintptr_t>(bits))->start();
}

void
Fiber::start()
{
    entry_();
    finished_ = true;
    yieldToScheduler();
    panic("resumed a finished fiber: %s", name_.c_str());
}

void
Fiber::resume()
{
    MACH_ASSERT(current_fiber == nullptr);
    MACH_ASSERT(!finished_);

    current_fiber = this;
    if (_setjmp(scheduler_env) == 0) {
#if defined(__SANITIZE_THREAD__)
        scheduler_tsan_fiber = __tsan_get_current_fiber();
        __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
        if (!started_) {
            // First entry: only ucontext can redirect execution onto
            // the fiber's own fresh stack. setcontext never returns --
            // the fiber comes back via the _longjmp in
            // yieldToScheduler, landing in the branch above.
            started_ = true;
            if (getcontext(&context_) != 0)
                panic("getcontext failed");
            context_.uc_stack.ss_sp = stack_.data();
            context_.uc_stack.ss_size = stack_.size();
            context_.uc_link = nullptr;
            auto bits = static_cast<std::uint64_t>(
                reinterpret_cast<std::uintptr_t>(this));
            makecontext(&context_,
                        reinterpret_cast<void (*)()>(&Fiber::trampoline),
                        2, static_cast<unsigned>(bits >> 32),
                        static_cast<unsigned>(bits & 0xffffffffu));
            setcontext(&context_);
            panic("setcontext into fiber %s failed", name_.c_str());
        }
        std::longjmp(env_, 1);
    }
    current_fiber = nullptr;
}

void
Fiber::yieldToScheduler()
{
    Fiber *self = current_fiber;
    MACH_ASSERT(self != nullptr);
    // The blocked-fiber frame below stays alive until the matching
    // _longjmp(env_) in resume() reenters it.
    if (_setjmp(self->env_) == 0) {
#if defined(__SANITIZE_THREAD__)
        __tsan_switch_to_fiber(scheduler_tsan_fiber, 0);
#endif
        std::longjmp(scheduler_env, 1);
    }
}

} // namespace mach::sim
