#include "sim/fiber.hh"

#include <cstdint>
#include <vector>

// No-op poisoning macros unless ASan is on.
#include <sanitizer/asan_interface.h>
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
thread_local void *scheduler_env[5];
#if defined(__SANITIZE_THREAD__)
/** The scheduler's TSan context, set by resume(). */
thread_local void *scheduler_tsan_fiber = nullptr;
#endif

/**
 * Resume the context a __builtin_setjmp saved in @p env. GCC requires
 * the __builtin_longjmp to sit in another function than its setjmp,
 * never inlined into it. TSan leaves this one uninstrumented: its
 * function-entry record would land on the target's shadow stack (the
 * caller has switched TSan contexts), and no exit would ever pop it.
 */
[[noreturn]] __attribute__((noinline, no_sanitize_thread)) void
jump(void **env)
{
    __builtin_longjmp(env, 1);
}

using Stack = std::unique_ptr<unsigned char[]>;

/**
 * Stacks of this host thread's destroyed fibers, which its next spawns
 * reuse. A machine's fibers live and die on the thread that runs it,
 * and sequential machines on one thread (a bench's configurations, a
 * farm worker's jobs) share the list, so a thread holds no more stacks
 * than it ever had fibers alive at once, and their pages are already
 * resident.
 */
struct StackList
{
    std::vector<Stack> stacks;
    ~StackList();
};

thread_local StackList free_stacks;
/**
 * Set once free_stacks is destroyed at thread exit. A fiber destroyed
 * later (a machine with static storage duration) frees its stack.
 */
thread_local bool free_stacks_gone = false;

StackList::~StackList()
{
    free_stacks_gone = true;
}

Stack
takeStack()
{
    if (free_stacks_gone || free_stacks.stacks.empty())
        return std::make_unique_for_overwrite<unsigned char[]>(
            Fiber::kStackSize);
    Stack stack = std::move(free_stacks.stacks.back());
    free_stacks.stacks.pop_back();
    // The previous fiber's frames left their redzones poisoned.
    ASAN_UNPOISON_MEMORY_REGION(stack.get(), Fiber::kStackSize);
    return stack;
}

void
recycleStack(Stack stack)
{
    if (free_stacks_gone)
        return;
    // Until it is handed out again, any access is a use after free.
    ASAN_POISON_MEMORY_REGION(stack.get(), Fiber::kStackSize);
    free_stacks.stacks.push_back(std::move(stack));
}
} // namespace

Fiber::Fiber(std::string name, Entry entry)
    : name_(std::move(name)), entry_(std::move(entry)),
      stack_(takeStack())
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
    recycleStack(std::move(stack_));
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
    if (__builtin_setjmp(scheduler_env) == 0) {
#if defined(__SANITIZE_THREAD__)
        scheduler_tsan_fiber = __tsan_get_current_fiber();
        __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
        if (!started_) {
            // First entry: only ucontext can redirect execution onto
            // the fiber's own fresh stack. setcontext never returns --
            // the fiber (or one it switched to) comes back via the
            // jump in yieldToScheduler, landing past the branch above.
            started_ = true;
            if (getcontext(&context_) != 0)
                panic("getcontext failed");
            context_.uc_stack.ss_sp = stack_.get();
            context_.uc_stack.ss_size = kStackSize;
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
        jump(env_);
    }
    current_fiber = nullptr;
}

void
Fiber::yieldToScheduler()
{
    Fiber *self = current_fiber;
    MACH_ASSERT(self != nullptr);
    // The blocked-fiber frame below stays alive until resume() or
    // switchTo() jumps back into it.
    if (__builtin_setjmp(self->env_) == 0) {
#if defined(__SANITIZE_THREAD__)
        __tsan_switch_to_fiber(scheduler_tsan_fiber, 0);
#endif
        jump(scheduler_env);
    }
}

void
Fiber::switchTo(Fiber &next)
{
    Fiber *self = current_fiber;
    MACH_ASSERT(self != nullptr && self != &next);
    MACH_ASSERT(next.started_ && !next.finished_);
    // As in yieldToScheduler, but the jump lands in next's frame.
    if (__builtin_setjmp(self->env_) == 0) {
        current_fiber = &next;
#if defined(__SANITIZE_THREAD__)
        __tsan_switch_to_fiber(next.tsan_fiber_, 0);
#endif
        jump(next.env_);
    }
}

} // namespace mach::sim
