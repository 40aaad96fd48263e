#include "sim/context.hh"

#include <utility>

#include "base/logging.hh"

namespace mach::sim
{

FiberId
Context::spawn(std::string name, Fiber::Entry entry, Tick delay)
{
    fibers_.push_back(
        std::make_unique<Fiber>(std::move(name), std::move(entry)));
    ++live_fibers_;
    const FiberId id = fibers_.size();
    scheduleWake(id, now_ + delay);
    return id;
}

std::string
Context::fiberName(FiberId id) const
{
    const Fiber *f = fiber(id);
    return f == nullptr ? "<gone>" : f->name();
}

FiberId
Context::currentFiber() const
{
    MACH_ASSERT(current_id_ != 0);
    return current_id_;
}

bool
Context::frontIsTakeable() const
{
    if (!eliding_ || stop_requested_ || queue_.empty())
        return false;
    const EventQueue::Front front = queue_.front();
    if (front.when > until_ || front.fn != &Context::wakeTrampoline ||
        front.ctx != this)
        return false;
    // Only resume() can enter a fiber's fresh stack.
    const Fiber *next = fiber(front.token);
    return next == nullptr || next->started();
}

bool
Context::takeWake(Tick when, FiberId id)
{
    MACH_ASSERT(when >= now_);
    now_ = when;
    ++handoffs_;
    if (id == current_id_)
        return true;
    Fiber *next = fiber(id);
    if (next == nullptr)
        return false; // Fiber finished before a stale wake fired.
    current_id_ = id;
    Fiber::switchTo(*next);
    return true;
}

void
Context::block()
{
    MACH_ASSERT(Fiber::current() != nullptr);
    // Take the front wake as dispatch() would, but from this fiber.
    while (frontIsTakeable()) {
        const EventQueue::Front front = queue_.front();
        queue_.popFront();
        if (takeWake(front.when, front.token))
            return;
    }
    Fiber::yieldToScheduler();
}

EventId
Context::scheduleWake(FiberId id, Tick when)
{
    MACH_ASSERT(id != 0);
    MACH_ASSERT(when >= now_);
    return queue_.scheduleRaw(when, &Context::wakeTrampoline, this, id);
}

void
Context::wakeTrampoline(void *ctx, std::uint64_t token)
{
    static_cast<Context *>(ctx)->resumeFiber(
        static_cast<FiberId>(token));
}

EventId
Context::scheduleCall(Tick when, EventQueue::RawFn fn, void *ctx,
                      std::uint64_t token)
{
    MACH_ASSERT(when >= now_);
    return queue_.scheduleRaw(when, fn, ctx, token);
}

void
Context::cancel(EventId id)
{
    queue_.cancel(id);
}

void
Context::blockUntil(Tick when, EventId *pending)
{
    const FiberId self = currentFiber();
    MACH_ASSERT(when >= now_);
    if (eliding_ && !stop_requested_ && queue_.claimNext(&when, until_)) {
        now_ = when;
        ++elided_wakes_;
        if (pending != nullptr)
            *pending = {};
        return;
    }
    if (frontIsTakeable()) {
        // claimNext() declined the wake, so it orders after the front:
        // queue it and take the front in one heap operation.
        const EventQueue::Exchange taken = queue_.scheduleAndPopFront(
            when, &Context::wakeTrampoline, this, self);
        if (pending != nullptr)
            *pending = taken.id;
        if (takeWake(taken.front.when, taken.front.token))
            return;
        // A finished fiber's wake: block() looks at the next front.
    } else {
        const EventId id = scheduleWake(self, when);
        if (pending != nullptr)
            *pending = id;
    }
    block();
}

void
Context::sleep(Tick dt)
{
    blockUntil(now_ + dt);
}

void
Context::resumeFiber(FiberId id)
{
    Fiber *f = fiber(id);
    if (f == nullptr)
        return; // Fiber finished before a stale wake fired.

    FiberId prev = current_id_;
    current_id_ = id;
    f->resume();
    // block() may have handed control on: the fiber that yielded back
    // is the current one, not necessarily the one resumed.
    const FiberId back = std::exchange(current_id_, prev);

    if (fiber(back)->finished()) {
        fibers_[back - 1].reset();
        --live_fibers_;
    }
}

std::uint64_t
Context::run(Tick until)
{
    return dispatch(until, nullptr, nullptr);
}

std::uint64_t
Context::runGuarded(Tick until, const std::function<bool()> &stop_after,
                    bool *hit_guard)
{
    MACH_ASSERT(stop_after != nullptr);
    *hit_guard = false;
    return dispatch(until, &stop_after, hit_guard);
}

std::uint64_t
Context::dispatch(Tick until, const std::function<bool()> *stop_after,
                  bool *hit_guard)
{
    MACH_ASSERT(Fiber::current() == nullptr);
    MACH_ASSERT(!running_);
    running_ = true;
    // A guard must see every event, so only an unguarded run elides.
    eliding_ = stop_after == nullptr;
    until_ = until;
    stop_requested_ = false;
    const std::uint64_t inline_before = elided_wakes_ + handoffs_;

    std::uint64_t dispatched = 0;
    while (!queue_.empty() && !stop_requested_) {
        const Tick when = queue_.nextTime();
        if (when > until)
            break;
        MACH_ASSERT(when >= now_);
        // Advance the clock first: the event body reads it as its own
        // fire time.
        now_ = when;
        queue_.fireFront();
        ++dispatched;
        // A stop request wins over the guard: the run is complete, so
        // resuming it would be wrong regardless of the watermark.
        if (stop_after != nullptr && !stop_requested_ && (*stop_after)()) {
            *hit_guard = true;
            break;
        }
    }

    running_ = false;
    eliding_ = false;
    return dispatched + (elided_wakes_ + handoffs_ - inline_before);
}

} // namespace mach::sim
