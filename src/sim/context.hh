/**
 * @file
 * The simulation context: virtual clock, run loop, and fiber scheduling.
 *
 * One Context underlies one simulated machine. Code running inside fibers
 * advances time by sleeping on the context; the run loop interleaves all
 * fibers in deterministic (time, sequence) order.
 */

#ifndef MACH_SIM_CONTEXT_HH
#define MACH_SIM_CONTEXT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/types.hh"
#include "sim/event_queue.hh"
#include "sim/fiber.hh"

namespace mach::sim
{

/** Identifies a spawned fiber; stays valid after the fiber is reaped. */
using FiberId = std::uint64_t;

/** Virtual clock plus fiber scheduler for one simulated machine. */
class Context
{
  public:
    Context() = default;

    Context(const Context &) = delete;
    Context &operator=(const Context &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Current simulated time in whole microseconds (for reporting). */
    Tick nowUsec() const { return now_ / kUsec; }

    /**
     * Create a fiber and schedule it to start at time now() + @p delay.
     * The Context owns the fiber's storage until the fiber finishes.
     */
    FiberId spawn(std::string name, Fiber::Entry entry, Tick delay = 0);

    /** The id of the fiber currently executing; panics in scheduler. */
    FiberId currentFiber() const;

    /**
     * Block the current fiber until some event wakes it. Must be called
     * from within a fiber.
     *
     * Direct handoff: inside run() (never runGuarded(), whose guard
     * must see every event), with no stop requested, while the next
     * event lies within run()'s horizon and is a wake of a fiber that
     * has started, block() dispatches it itself, exactly as run()
     * would: it advances now() and counts as dispatched. Its own wake
     * returns at once, a finished fiber's is dropped and the next event
     * looked at, and any other fiber is switched to directly, without
     * the round trip through the scheduler. Every other case (a
     * scheduleCall() event, a fiber's first wake, the horizon, a stop,
     * an empty queue) yields to the scheduler. Outcomes are identical.
     */
    void block();

    /**
     * Schedule fiber @p id to resume at absolute time @p when. Waking a
     * fiber that has since finished is a harmless no-op, so races between
     * wakeups and completion need no special handling at call sites.
     */
    EventId scheduleWake(FiberId id, Tick when);

    /**
     * Schedule @p fn(@p ctx, @p token) at absolute time @p when. It
     * runs on the scheduler's stack and must not block.
     */
    EventId scheduleCall(Tick when, EventQueue::RawFn fn, void *ctx,
                         std::uint64_t token);

    /** Cancel a pending wake or call. No-op if already fired. */
    void cancel(EventId id);

    /**
     * From within a fiber: scheduleWake(currentFiber(), @p when), then
     * block(). The wake's id is stored to @p pending (if non-null)
     * *before* blocking, so another fiber can cancel() it meanwhile.
     *
     * Self-wake elision: inside run() (never runGuarded(), whose guard
     * must see every event), with no stop requested, a wake whose
     * perturbed time is within run()'s horizon and strictly earlier
     * than every live event is taken inline instead: it consumes its
     * sequence number, advances now(), counts as dispatched, and
     * leaves an invalid id in @p pending. Outcomes are identical. A
     * wake that is not elided is queued, and block() may still hand
     * off to whatever leads the queue; when it would, the wake is
     * queued and the front taken in one heap operation
     * (EventQueue::scheduleAndPopFront).
     */
    void blockUntil(Tick when, EventId *pending = nullptr);

    /**
     * From within a fiber: advance simulated time by @p dt without any
     * possibility of early wakeup.
     */
    void sleep(Tick dt);

    /**
     * Dispatch events one at a time, in (time, sequence) order, until
     * the queue is empty, simulated time would pass @p until, or a stop
     * is requested. Returns the number of events dispatched, counting
     * the wakes blockUntil() took inline and those block() handed off.
     */
    std::uint64_t run(Tick until = ~Tick{0});

    /**
     * The same loop as run(), but it evaluates @p stop_after after
     * every dispatched event and stops once it returns true, and it
     * never elides or hands off a wake (the guard must see every
     * event). Used by the run farm to park a machine at a
     * prefix-snapshot point (a deterministic event-insertion /
     * bus-access watermark) from which fork-style clones resume. On
     * return *hit_guard says whether the guard ended the run (true) or
     * the queue drained, time ran out, or a stop was requested (false)
     * -- in the latter cases the run is complete and clones must not
     * resume it, or they would drain events a stop-requested serial
     * run leaves pending.
     */
    std::uint64_t runGuarded(Tick until,
                             const std::function<bool()> &stop_after,
                             bool *hit_guard);

    /** Make run() return after the current event completes. */
    void requestStop() { stop_requested_ = true; }

    /** Number of live (spawned, unfinished) fibers. */
    std::size_t liveFiberCount() const { return live_fibers_; }

    /** Wakes blockUntil() has taken inline: a counter, not a setting. */
    std::uint64_t elidedWakes() const { return elided_wakes_; }

    /** Wakes block() has dispatched itself: a counter, not a setting. */
    std::uint64_t handoffs() const { return handoffs_; }

    /** Expose the queue for white-box tests and micro benchmarks. */
    EventQueue &queue() { return queue_; }

    /** Name of a live fiber (diagnostics); "<gone>" after it finishes. */
    std::string fiberName(FiberId id) const;

  private:
    /** The live fiber @p id, or nullptr once it has finished. */
    Fiber *
    fiber(FiberId id) const
    {
        return id - 1 < fibers_.size() ? fibers_[id - 1].get() : nullptr;
    }
    void resumeFiber(FiberId id);
    /**
     * Whether block() may take the front event itself: inside run()
     * with no stop requested, the queue not empty, and the front a
     * wake within the horizon of a fiber that has started (or has
     * since finished).
     */
    bool frontIsTakeable() const;
    /**
     * Dispatch a taken wake of fiber @p id due at @p when: advance
     * now() and count it, then return to the caller if it is this
     * fiber's own, or switch to the woken fiber and return once this
     * one runs again. False, without a switch, if @p id has finished.
     */
    bool takeWake(Tick when, FiberId id);
    /**
     * run() and runGuarded(): a null @p stop_after allows elision and
     * handoff.
     */
    std::uint64_t dispatch(Tick until,
                           const std::function<bool()> *stop_after,
                           bool *hit_guard);
    /** EventQueue raw-event thunk for fiber wakes (token = FiberId). */
    static void wakeTrampoline(void *ctx, std::uint64_t token);

    EventQueue queue_;
    Tick now_ = 0;
    bool stop_requested_ = false;
    bool running_ = false;
    /**
     * Inside run(), not runGuarded(): blockUntil may elide and block
     * may hand off, up to until_.
     */
    bool eliding_ = false;
    Tick until_ = 0;
    std::uint64_t elided_wakes_ = 0;
    std::uint64_t handoffs_ = 0;
    FiberId current_id_ = 0;
    /** Indexed by FiberId - 1; null once the fiber has finished. */
    std::vector<std::unique_ptr<Fiber>> fibers_;
    std::size_t live_fibers_ = 0;
};

} // namespace mach::sim

#endif // MACH_SIM_CONTEXT_HH
