/**
 * @file
 * Closures on the raw-only event queue, for the sim and perturbation
 * tests: each closure is kept here and scheduled as a raw call that
 * runs it by index, so a test can still write its event bodies as
 * lambdas.
 */

#ifndef MACH_TESTS_CLOSURE_EVENTS_HH
#define MACH_TESTS_CLOSURE_EVENTS_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "base/types.hh"
#include "sim/context.hh"
#include "sim/event_queue.hh"

namespace mach::sim::test
{

/** Keeps every closure it schedules; must outlive those events. */
class ClosureEvents
{
  public:
    /** Schedule @p fn to run at @p when on @p queue. */
    EventId
    at(EventQueue &queue, Tick when, std::function<void()> fn)
    {
        return queue.scheduleRaw(when, &ClosureEvents::run, this,
                                 keep(std::move(fn)));
    }

    /** Schedule @p fn to run at @p when through Context::scheduleCall. */
    EventId
    at(Context &ctx, Tick when, std::function<void()> fn)
    {
        return ctx.scheduleCall(when, &ClosureEvents::run, this,
                                keep(std::move(fn)));
    }

  private:
    std::uint64_t
    keep(std::function<void()> fn)
    {
        fns_.push_back(std::move(fn));
        return fns_.size() - 1;
    }

    static void
    run(void *self, std::uint64_t index)
    {
        static_cast<ClosureEvents *>(self)->fns_[index]();
    }

    /** A deque, so a running closure stays put while it schedules. */
    std::deque<std::function<void()>> fns_;
};

} // namespace mach::sim::test

#endif // MACH_TESTS_CLOSURE_EVENTS_HH
