/**
 * @file
 * Unit tests for the simulator core: event queue, fibers, context.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/perturb.hh"
#include "base/rng.hh"
#include "sim/context.hh"
#include "sim/event_queue.hh"
#include "sim/fiber.hh"

#include "closure_events.hh"
#include "fiber_waves.hh"

namespace mach::sim
{
namespace
{

/** A raw event that does nothing. */
void
noop(void *, std::uint64_t)
{
}

TEST(EventQueue, FiresInTimeOrder)
{
    test::ClosureEvents calls;
    EventQueue q;
    std::vector<int> order;
    calls.at(q, 30, [&] { order.push_back(3); });
    calls.at(q, 10, [&] { order.push_back(1); });
    calls.at(q, 20, [&] { order.push_back(2); });

    while (!q.empty())
        q.fireFront();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickFiresInScheduleOrder)
{
    test::ClosureEvents calls;
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        calls.at(q, 5, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.fireFront();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelRemovesEvent)
{
    test::ClosureEvents calls;
    EventQueue q;
    bool fired = false;
    EventId id = calls.at(q, 10, [&] { fired = true; });
    calls.at(q, 20, [] {});
    q.cancel(id);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.fireFront(), 20u);
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireIsNoop)
{
    test::ClosureEvents calls;
    EventQueue q;
    EventId id = calls.at(q, 10, [] {});
    q.fireFront();
    q.cancel(id); // Must not crash or disturb anything.
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelDefaultIdIsNoop)
{
    EventQueue q;
    q.cancel(EventId{});
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeReportsEarliest)
{
    test::ClosureEvents calls;
    EventQueue q;
    calls.at(q, 50, [] {});
    calls.at(q, 40, [] {});
    EXPECT_EQ(q.nextTime(), 40u);
}

TEST(Context, SleepAdvancesVirtualTime)
{
    Context ctx;
    Tick woke_at = 0;
    ctx.spawn("sleeper", [&] {
        ctx.sleep(100);
        woke_at = ctx.now();
    });
    ctx.run();
    EXPECT_EQ(woke_at, 100u);
    EXPECT_EQ(ctx.now(), 100u);
}

TEST(Context, ZeroFibersAfterCompletion)
{
    Context ctx;
    ctx.spawn("a", [&] { ctx.sleep(1); });
    ctx.spawn("b", [&] { ctx.sleep(2); });
    EXPECT_EQ(ctx.liveFiberCount(), 2u);
    ctx.run();
    EXPECT_EQ(ctx.liveFiberCount(), 0u);
}

TEST(Context, InterleavesFibersDeterministically)
{
    Context ctx;
    std::string trace;
    ctx.spawn("a", [&] {
        trace += 'a';
        ctx.sleep(10);
        trace += 'A';
    });
    ctx.spawn("b", [&] {
        trace += 'b';
        ctx.sleep(5);
        trace += 'B';
    });
    ctx.run();
    EXPECT_EQ(trace, "abBA");
}

TEST(Context, WakeResumesBlockedFiber)
{
    Context ctx;
    bool resumed = false;
    FiberId blocked = ctx.spawn("blocked", [&] {
        ctx.block();
        resumed = true;
    });
    ctx.spawn("waker", [&] {
        ctx.sleep(50);
        ctx.scheduleWake(blocked, ctx.now());
    });
    ctx.run();
    EXPECT_TRUE(resumed);
    EXPECT_EQ(ctx.now(), 50u);
}

TEST(Context, WakeOfFinishedFiberIsIgnored)
{
    Context ctx;
    FiberId id = ctx.spawn("quick", [] {});
    ctx.spawn("late-waker", [&] {
        ctx.sleep(10);
        ctx.scheduleWake(id, ctx.now() + 5);
    });
    ctx.run(); // Must not panic or resurrect the finished fiber.
    EXPECT_EQ(ctx.liveFiberCount(), 0u);
}

TEST(Context, RunUntilBoundsTime)
{
    test::ClosureEvents calls;
    Context ctx;
    int ticks = 0;
    std::function<void()> tick = [&] {
        ++ticks;
        calls.at(ctx, ctx.now() + 10, tick);
    };
    calls.at(ctx, 0, tick);
    ctx.run(35);
    EXPECT_EQ(ticks, 4); // t = 0, 10, 20, 30.
    EXPECT_LE(ctx.now(), 35u);
}

TEST(Context, RequestStopEndsRun)
{
    test::ClosureEvents calls;
    Context ctx;
    int events = 0;
    calls.at(ctx, 1, [&] { ++events; });
    calls.at(ctx, 2, [&] {
        ++events;
        ctx.requestStop();
    });
    calls.at(ctx, 3, [&] { ++events; });
    ctx.run();
    EXPECT_EQ(events, 2);
    // A later run() drains the remainder.
    ctx.run();
    EXPECT_EQ(events, 3);
}

TEST(Context, SpawnFromWithinFiber)
{
    Context ctx;
    std::vector<int> order;
    ctx.spawn("parent", [&] {
        order.push_back(1);
        ctx.spawn("child", [&] { order.push_back(2); });
        ctx.sleep(10);
        order.push_back(3);
    });
    ctx.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Context, ManyFibersAllComplete)
{
    Context ctx;
    int done = 0;
    for (int i = 0; i < 200; ++i) {
        ctx.spawn("f" + std::to_string(i), [&ctx, &done, i] {
            ctx.sleep(static_cast<Tick>(i % 17));
            ++done;
        });
    }
    ctx.run();
    EXPECT_EQ(done, 200);
}

TEST(Context, FiberNameLookup)
{
    Context ctx;
    FiberId id = ctx.spawn("named", [&] { ctx.sleep(5); });
    EXPECT_EQ(ctx.fiberName(id), "named");
    ctx.run();
    EXPECT_EQ(ctx.fiberName(id), "<gone>");
}

TEST(Context, NestedSpawnDeepChain)
{
    // Each fiber spawns the next; all must run.
    Context ctx;
    int depth = 0;
    std::function<void(int)> chain = [&](int remaining) {
        ++depth;
        if (remaining > 0) {
            ctx.spawn("link", [&chain, remaining] {
                chain(remaining - 1);
            });
        }
    };
    ctx.spawn("root", [&] { chain(50); });
    ctx.run();
    EXPECT_EQ(depth, 51);
}

TEST(Fiber, CurrentIsNullInScheduler)
{
    EXPECT_EQ(Fiber::current(), nullptr);
    Context ctx;
    const Fiber *seen = nullptr;
    ctx.spawn("probe", [&] { seen = Fiber::current(); });
    ctx.run();
    EXPECT_NE(seen, nullptr);
    EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, StacksAreRecycledAcrossContextsOnOneThread)
{
    const test::FiberWaves waves = test::runFiberWaves(7);
    EXPECT_EQ(waves.intact_frames, test::kWaveIntactFrames);
    // The second Context never needs more stacks at once than the
    // first left on this thread's free list.
    EXPECT_EQ(waves.second_context_fibers,
              test::kWavesPerContext * test::kFibersPerWave);
    EXPECT_EQ(waves.reused_stacks, waves.second_context_fibers);
}

TEST(EventQueue, ScheduledCountIsMonotonic)
{
    test::ClosureEvents calls;
    EventQueue q;
    EXPECT_EQ(q.scheduledCount(), 0u);
    EventId a = calls.at(q, 1, [] {});
    calls.at(q, 2, [] {});
    EXPECT_EQ(q.scheduledCount(), 2u);
    q.cancel(a); // Cancellation does not un-count.
    EXPECT_EQ(q.scheduledCount(), 2u);
}

TEST(Context, RunReturnsDispatchedCount)
{
    test::ClosureEvents calls;
    Context ctx;
    for (int i = 0; i < 5; ++i)
        calls.at(ctx, i + 1, [] {});
    EXPECT_EQ(ctx.run(3), 3u);
    EXPECT_EQ(ctx.run(), 2u);
}

TEST(Context, SpawnDelayDefersStart)
{
    Context ctx;
    Tick started_at = 0;
    ctx.spawn(
        "late", [&] { started_at = ctx.now(); }, 250);
    ctx.run();
    EXPECT_EQ(started_at, 250u);
}

TEST(Context, DeterministicReplay)
{
    // Two identical simulations produce identical traces.
    auto run_once = [] {
        Context ctx;
        std::string trace;
        for (int i = 0; i < 5; ++i) {
            ctx.spawn("f" + std::to_string(i), [&ctx, &trace, i] {
                for (int j = 0; j < 3; ++j) {
                    trace += static_cast<char>('a' + i);
                    ctx.sleep(static_cast<Tick>((i * 7 + j * 3) % 11 +
                                                1));
                }
            });
        }
        ctx.run();
        return trace;
    };
    EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------
// Event-heap internals: stale items, same-tick order, slab recycling.
// ---------------------------------------------------------------------

TEST(EventQueue, CancelThenFireSkipsTombstone)
{
    // Cancel the event at the front of the heap, and one behind it:
    // the front must move past each stale item to the live event
    // behind it, on the same tick and on a later one.
    test::ClosureEvents calls;
    EventQueue q;
    std::vector<int> order;
    EventId dead_same = calls.at(q, 10, [&] { order.push_back(-1); });
    calls.at(q, 10, [&] { order.push_back(1); });
    EventId dead_later = calls.at(q, 20, [&] { order.push_back(-2); });
    calls.at(q, 30, [&] { order.push_back(2); });
    q.cancel(dead_same);
    q.cancel(dead_later);

    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.nextTime(), 10u);
    while (!q.empty())
        q.fireFront();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, InterleavedTicksKeepSequenceOrder)
{
    // Alternate scheduling between two ticks; pops must still follow
    // global (when, seq) order.
    test::ClosureEvents calls;
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
        const Tick when = (i % 2 == 0) ? 100 : 200;
        calls.at(q, when, [&order, i] { order.push_back(i); });
    }
    while (!q.empty())
        q.fireFront();
    EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6, 1, 3, 5, 7}));
}

TEST(EventQueue, FreeListBoundsSlabAcrossChurn)
{
    // A million schedule/cancel cycles (the kicked-idle-nap pattern)
    // must recycle slab nodes rather than grow the slab, and the bulk
    // cleanup must drop the stale heap items even though their tick
    // never reaches the front.
    test::ClosureEvents calls;
    EventQueue q;
    bool fired = false;
    calls.at(q, 1, [&] { fired = true; });
    for (int i = 0; i < 1'000'000; ++i) {
        EventId id = q.scheduleRaw(1'000'000 + i % 97, &noop, nullptr, 0);
        q.cancel(id);
    }
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.scheduledCount(), 1'000'001u);
    // The slab high-water mark stays tiny compared to the churn count.
    EXPECT_LT(q.slabSize(), 1000u);
    // cancel() frees a slot at once, so the slots in use are exactly
    // the live events; every other slot is back on the free list.
    EXPECT_EQ(q.slabSize() - q.freeNodeCount(), 1u);

    EXPECT_EQ(q.fireFront(), 1u);
    EXPECT_TRUE(fired);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SlabSlotReuseDoesNotConfuseCancel)
{
    // A stale EventId whose slab slot has been recycled by a newer
    // event must not cancel the newer event.
    test::ClosureEvents calls;
    EventQueue q;
    EventId old_id = calls.at(q, 10, [] {});
    q.fireFront(); // Slot returns to the free list.

    bool fired = false;
    calls.at(q, 20, [&] { fired = true; }); // Reuses the slot.
    q.cancel(old_id);                       // Stale handle: must no-op.
    EXPECT_EQ(q.size(), 1u);
    q.fireFront();
    EXPECT_TRUE(fired);
}

/** Fire everything, recording each event's fire time and tag. */
std::vector<std::pair<Tick, int>>
drain(EventQueue &q, std::vector<int> &tags)
{
    std::vector<std::pair<Tick, int>> out;
    while (!q.empty()) {
        const Tick when = q.fireFront();
        out.emplace_back(when, tags.back());
    }
    return out;
}

TEST(EventQueue, AlternatingTicksFireInWhenSeqOrderEitherWayRound)
{
    // Alternate between two ticks, starting with the earlier one and
    // then with the later one: pops must follow (when, seq) exactly.
    test::ClosureEvents calls;
    const Tick a = 1000;
    const Tick b = 1001;
    for (const bool later_first : {false, true}) {
        EventQueue q;
        std::vector<int> tags;
        for (int i = 0; i < 8; ++i) {
            const Tick when = ((i % 2 == 0) != later_first) ? a : b;
            calls.at(q, when, [&tags, i] { tags.push_back(i); });
        }
        const auto fired = drain(q, tags);
        std::vector<std::pair<Tick, int>> want;
        for (int i = 0; i < 8; ++i)
            if (((i % 2 == 0) != later_first))
                want.emplace_back(a, i);
        for (int i = 0; i < 8; ++i)
            if (((i % 2 == 0) == later_first))
                want.emplace_back(b, i);
        EXPECT_EQ(fired, want);
    }
}

TEST(EventQueue, RunFiresEventScheduledForItsOwnTickAfterPendingOnes)
{
    // Two ticks scheduled interleaved and dispatched through run(),
    // with an event body appending to its own tick: the appended event
    // fires after the tick's pending events and before the next tick.
    test::ClosureEvents calls;
    const Tick a = 500;
    const Tick b = 501;
    Context ctx;
    std::vector<int> order;
    calls.at(ctx, a, [&] { order.push_back(0); });
    calls.at(ctx, b, [&] { order.push_back(10); });
    calls.at(ctx, a, [&] {
        order.push_back(1);
        calls.at(ctx, a, [&] { order.push_back(3); });
    });
    calls.at(ctx, b, [&] { order.push_back(11); });
    calls.at(ctx, a, [&] { order.push_back(2); });
    EXPECT_EQ(ctx.run(), 6u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 10, 11}));
}

TEST(EventQueue, BulkCancelLeavesSurvivorsInSequenceOrder)
{
    // Cancel most events on two ticks, scheduled in alternating runs
    // of 100 -- enough stale items to trigger the bulk cleanup -- and
    // the survivors still fire in (when, seq) order.
    test::ClosureEvents calls;
    const Tick a = 77;
    const Tick b = 78;
    EventQueue q;
    std::vector<int> tags;
    std::vector<EventId> ids;
    for (int i = 0; i < 400; ++i) {
        const Tick when = (i / 100) % 2 == 0 ? a : b; // a, b, a, b runs
        ids.push_back(
            calls.at(q, when, [&tags, i] { tags.push_back(i); }));
    }
    std::vector<std::pair<Tick, int>> want;
    for (int i = 0; i < 400; ++i) {
        // Keep two events of the first a-run, none of the first b-run,
        // three of the second a-run, all of the second b-run.
        const bool keep = i == 10 || i == 90 || (i >= 200 && i < 203) ||
                          i >= 300;
        if (!keep)
            q.cancel(ids[i]);
    }
    EXPECT_EQ(q.size(), 105u);
    for (int i : {10, 90, 200, 201, 202})
        want.emplace_back(a, i);
    for (int i = 300; i < 400; ++i)
        want.emplace_back(b, i);
    EXPECT_EQ(drain(q, tags), want);
}

// ---------------------------------------------------------------------
// The order contract against a reference queue.
// ---------------------------------------------------------------------

/**
 * An EventQueue driven in lockstep with the contract it implements: a
 * std::map keyed by (fire time, insertion sequence). The reference
 * applies the perturber's eventDelay() itself. Every operation returns
 * "" when the two agree after it, or what differed.
 */
class ReferenceQueue
{
  public:
    enum CancelKind { Live, Fired, Cancelled, Default, kCancelKinds };

    explicit ReferenceQueue(const SchedulePerturber *perturber)
        : perturber_(perturber)
    {
        queue_.setPerturber(perturber);
    }

    Tick now() const { return now_; }
    std::size_t size() const { return ref_.size(); }
    /** Events scheduled so far; tags are 0 .. scheduled() - 1. */
    int scheduled() const { return static_cast<int>(ids_.size()); }

    /**
     * Schedule the next tag at @p when: with @p raw its own raw call,
     * else a closure through the test adapter.
     */
    std::string
    schedule(Tick when, bool raw)
    {
        const int tag = scheduled();
        ++seq_;
        const std::pair<Tick, std::uint64_t> key{when + delay(seq_), seq_};
        ids_.push_back(
            raw ? queue_.scheduleRaw(when, &ReferenceQueue::fireRaw,
                                     &fired_,
                                     static_cast<std::uint64_t>(tag))
                : calls_.at(queue_, when, [this, tag] { fired_ = tag; }));
        keys_.push_back(key);
        state_.push_back(Live);
        ref_.emplace(key, tag);
        return agree("schedule");
    }

    /** Cancel @p tag's event, or a default id for a negative tag. */
    std::string
    cancel(int tag)
    {
        if (tag < 0) {
            ++cancels[Default];
            queue_.cancel(EventId{});
            return agree("cancel(default)");
        }
        ++cancels[state_[tag]];
        queue_.cancel(ids_[tag]);
        if (state_[tag] == Live) {
            ref_.erase(keys_[tag]);
            state_[tag] = Cancelled;
        }
        return agree("cancel");
    }

    std::string
    fireFront()
    {
        if (ref_.empty())
            return "";
        const auto [key, tag] = *ref_.begin();
        ref_.erase(ref_.begin());
        state_[tag] = Fired;
        fired_ = -1;
        const Tick when = queue_.fireFront();
        now_ = when;
        if (when != key.first || fired_ != tag) {
            return "fired tag " + std::to_string(fired_) + " at " +
                   std::to_string(when) + ", want tag " +
                   std::to_string(tag) + " at " +
                   std::to_string(key.first);
        }
        return agree("fireFront");
    }

    std::string
    nextTime()
    {
        if (ref_.empty())
            return "";
        if (queue_.nextTime() != ref_.begin()->first.first)
            return "nextTime " + std::to_string(queue_.nextTime());
        return agree("nextTime");
    }

    /**
     * scheduleAndPopFront(@p offset past the front): the reference
     * inserts the next tag's key and erases its first. The payload
     * returned for the front is run here, to read its tag.
     */
    std::string
    scheduleAndPopFront(Tick offset)
    {
        if (ref_.empty())
            return "";
        const auto [front_key, front_tag] = *ref_.begin();
        const int tag = scheduled();
        ++seq_;
        const Tick when = front_key.first + offset;
        const std::pair<Tick, std::uint64_t> key{when + delay(seq_), seq_};
        const EventQueue::Exchange got = queue_.scheduleAndPopFront(
            when, &ReferenceQueue::fireRaw, &fired_,
            static_cast<std::uint64_t>(tag));
        ids_.push_back(got.id);
        keys_.push_back(key);
        state_.push_back(Live);
        ref_.emplace(key, tag);
        ref_.erase(front_key);
        state_[front_tag] = Fired;
        fired_ = -1;
        got.front.fn(got.front.ctx, got.front.token);
        now_ = got.front.when;
        ++exchanges;
        if (got.front.when != front_key.first || fired_ != front_tag) {
            return "popped tag " + std::to_string(fired_) + " at " +
                   std::to_string(got.front.when) + ", want tag " +
                   std::to_string(front_tag) + " at " +
                   std::to_string(front_key.first);
        }
        return agree("scheduleAndPopFront");
    }

    /** claimNext(@p when, @p until); a claimed wake advances now(). */
    std::string
    claimNext(Tick when, Tick until)
    {
        const Tick at = when + delay(seq_ + 1);
        const bool want = at <= until &&
                          (ref_.empty() || at < ref_.begin()->first.first);
        Tick got = when;
        if (queue_.claimNext(&got, until) != want ||
            got != (want ? at : when))
            return "claimNext gave " + std::to_string(got);
        ++claims[want];
        if (want) {
            ++seq_;
            now_ = at;
        }
        return agree("claimNext");
    }

    /** cancel() calls by the kind of id they named. */
    std::uint64_t cancels[kCancelKinds] = {};
    /** claimNext() calls that declined [0] and claimed [1]. */
    std::uint64_t claims[2] = {};
    /** scheduleAndPopFront() calls on a non-empty queue. */
    std::uint64_t exchanges = 0;

  private:
    static void
    fireRaw(void *ctx, std::uint64_t token)
    {
        *static_cast<int *>(ctx) = static_cast<int>(token);
    }

    Tick
    delay(std::uint64_t seq) const
    {
        return perturber_ == nullptr ? 0 : perturber_->eventDelay(seq);
    }

    std::string
    agree(const char *op) const
    {
        if (queue_.size() != ref_.size() ||
            queue_.empty() != ref_.empty() ||
            queue_.scheduledCount() != seq_) {
            return std::string(op) + ": size " +
                   std::to_string(queue_.size()) + " want " +
                   std::to_string(ref_.size()) + ", scheduled " +
                   std::to_string(queue_.scheduledCount()) + " want " +
                   std::to_string(seq_);
        }
        return "";
    }

    const SchedulePerturber *perturber_;
    test::ClosureEvents calls_;
    EventQueue queue_;
    std::map<std::pair<Tick, std::uint64_t>, int> ref_;
    std::vector<EventId> ids_;
    std::vector<std::pair<Tick, std::uint64_t>> keys_;
    std::vector<CancelKind> state_;
    std::uint64_t seq_ = 0;
    Tick now_ = 0;
    int fired_ = -1;
};

/**
 * 120k seeded operations: schedule/scheduleRaw at now() plus a mix of
 * same-tick, near and far offsets; cancels of live, fired, cancelled
 * and default ids; fireFront, nextTime, scheduleAndPopFront at the
 * front's tick plus such an offset, and claimNext with a finite
 * horizon. Phases of 1000 operations steer the queue toward 4 to 256
 * pending events. Every 20k operations a cancel-heavy burst schedules
 * 2000 far-future events and cancels 95% of them, so cancelled events
 * far outnumber live ones and the queue's bulk cleanup runs.
 */
void
runAgainstReference(const SchedulePerturber *perturber)
{
    ReferenceQueue q(perturber);
    Rng rng(0x0de7'a11e);
    auto offset = [&rng]() -> Tick {
        switch (rng.below(4)) {
          case 0:
            return 0;
          case 1:
            return rng.below(4);
          case 2:
            return rng.below(64);
          default:
            return rng.below(5000);
        }
    };
    std::size_t target = 0;
    for (int op = 0; op < 120'000; ++op) {
        if (op % 1000 == 0)
            target = std::size_t{4} << (2 * rng.below(4));
        if (op % 20'000 == 10'000) {
            const Tick far = q.now() + 10'000'000;
            const int first = q.scheduled();
            for (int k = 0; k < 2000; ++k) {
                ASSERT_EQ(q.schedule(far + rng.below(500), k % 2 == 0),
                          "")
                    << "burst at op " << op;
            }
            for (int k = 0; k < 2000; ++k) {
                if (k % 20 != 0) {
                    ASSERT_EQ(q.cancel(first + k), "")
                        << "burst at op " << op;
                }
            }
            continue;
        }
        const bool grow = q.size() < target;
        const std::uint64_t pick = rng.below(100);
        std::string diff;
        if (pick < (grow ? 50u : 25u)) {
            diff = q.schedule(q.now() + offset(), pick % 2 == 0);
        } else if (pick < 70) {
            // Mostly recent tags, so live ids are common.
            const int n = q.scheduled();
            const int back = static_cast<int>(rng.below(64));
            diff = q.cancel(rng.below(16) == 0 || n == 0
                                ? -1
                                : std::max(0, n - 1 - back));
        } else if (pick < 86) {
            diff = q.fireFront();
        } else if (pick < 92) {
            diff = q.scheduleAndPopFront(offset());
        } else if (pick < 95) {
            diff = q.nextTime();
        } else {
            diff = q.claimNext(q.now() + offset(),
                               q.now() + rng.below(256));
        }
        ASSERT_EQ(diff, "") << "op " << op;
    }
    while (q.size() > 0)
        ASSERT_EQ(q.fireFront(), "") << "drain";
    for (const std::uint64_t count : q.cancels)
        EXPECT_GT(count, 0u);
    EXPECT_GT(q.claims[0], 0u);
    EXPECT_GT(q.claims[1], 0u);
    EXPECT_GT(q.exchanges, 0u);
}

TEST(EventQueueOrder, MatchesReferenceUnperturbed)
{
    runAgainstReference(nullptr);
}

TEST(EventQueueOrder, MatchesReferenceUnderDelayDirectives)
{
    // One sequence in eight slips by up to 3000 ticks: enough to
    // reorder same-tick and near events and to push claimable wakes
    // behind pending ones.
    SchedulePerturber perturber;
    Rng rng(0xde1a'75ed);
    for (std::uint64_t seq = 1; seq <= 80'000; ++seq) {
        if (rng.below(8) == 0)
            perturber.delayEvent(seq, rng.below(3000));
    }
    runAgainstReference(&perturber);
}

// ---------------------------------------------------------------------
// Self-wake elision (Context::blockUntil).
// ---------------------------------------------------------------------

TEST(ContextElision, ElidedWakeConsumesSequenceAndCounts)
{
    Context ctx;
    std::vector<Tick> woke;
    ctx.spawn("solo", [&] {
        for (int i = 0; i < 3; ++i) {
            ctx.sleep(10);
            woke.push_back(ctx.now());
        }
    });
    // Only the spawn is ever queued: each wake is the next event, so
    // all three are taken inline, yet each consumes its sequence
    // number and counts as dispatched.
    EXPECT_EQ(ctx.run(), 4u);
    EXPECT_EQ(ctx.elidedWakes(), 3u);
    EXPECT_EQ(ctx.queue().scheduledCount(), 4u);
    EXPECT_EQ(woke, (std::vector<Tick>{10, 20, 30}));
}

/** What one run of the interleaving scenarios below observed. */
struct Observed
{
    std::string trace;
    std::uint64_t dispatched = 0;
    std::uint64_t scheduled = 0;
    std::uint64_t elided = 0;
    std::uint64_t handoffs = 0;
    Tick now = 0;
    /** Slab slots ever allocated, and those on the free list, at the end. */
    std::size_t slab = 0;
    std::size_t free_nodes = 0;

    bool
    operator==(const Observed &o) const
    {
        return trace == o.trace && dispatched == o.dispatched &&
               scheduled == o.scheduled && now == o.now;
    }
};

/**
 * Five fibers with staggered sleeps plus a periodic callback, so some
 * wakes lead the queue and some do not; drained by run() or by
 * runGuarded() with a never-true guard (the no-elision reference).
 */
Observed
interleave(bool guarded, const SchedulePerturber *perturber = nullptr)
{
    test::ClosureEvents calls;
    Context ctx;
    ctx.queue().setPerturber(perturber);
    Observed out;
    for (int i = 0; i < 5; ++i) {
        ctx.spawn("f" + std::to_string(i), [&ctx, &out, i] {
            for (int j = 0; j < 4; ++j) {
                out.trace += static_cast<char>('a' + i);
                out.trace += std::to_string(ctx.now()) + ' ';
                ctx.sleep(static_cast<Tick>((i * 37 + j * 53) % 101 + 1));
            }
        });
    }
    std::function<void()> tick = [&] {
        out.trace += "t" + std::to_string(ctx.now()) + ' ';
        if (ctx.now() < 30)
            calls.at(ctx, ctx.now() + 9, tick);
    };
    calls.at(ctx, 4, tick);
    if (guarded) {
        bool hit = true;
        out.dispatched =
            ctx.runGuarded(~Tick{0}, [] { return false; }, &hit);
        EXPECT_FALSE(hit);
    } else {
        out.dispatched = ctx.run();
    }
    out.scheduled = ctx.queue().scheduledCount();
    out.elided = ctx.elidedWakes();
    out.handoffs = ctx.handoffs();
    out.now = ctx.now();
    return out;
}

TEST(ContextElision, RunMatchesRunGuardedReference)
{
    const Observed fast = interleave(false);
    const Observed reference = interleave(true);
    EXPECT_EQ(fast, reference);
    EXPECT_GT(fast.elided, 0u);
    EXPECT_GT(fast.handoffs, 0u);
    // runGuarded's guard must see every event: it never elides and
    // never hands off.
    EXPECT_EQ(reference.elided, 0u);
    EXPECT_EQ(reference.handoffs, 0u);
}

TEST(ContextElision, DirectiveOnElidedSequenceStillDelaysWake)
{
    // Alone on the queue, the fiber's sleep (sequence 2) is elided;
    // a directive on that sequence must still move the wake.
    SchedulePerturber perturber;
    perturber.delayEvent(2, 7);
    Context ctx;
    ctx.queue().setPerturber(&perturber);
    Tick woke = 0;
    ctx.spawn("solo", [&] {
        ctx.sleep(10);
        woke = ctx.now();
    });
    EXPECT_EQ(ctx.run(), 2u);
    EXPECT_EQ(woke, 17u);
    EXPECT_EQ(ctx.elidedWakes(), 1u);

    // Every directive in a sweep gives the same schedule with elision
    // as without, including delays that push a wake behind others.
    for (std::uint64_t seq = 1; seq < 40; ++seq) {
        SchedulePerturber p;
        p.delayEvent(seq, 6);
        EXPECT_EQ(interleave(false, &p), interleave(true, &p))
            << "directive e" << seq << "+6";
    }
}

TEST(ContextElision, DelayBehindAnotherEventIsNotElided)
{
    // Sequence 3 is the fiber's sleep; pushing it past the call at 12
    // must let the call run first.
    test::ClosureEvents calls;
    for (const Tick extra : {Tick{0}, Tick{5}}) {
        SchedulePerturber perturber;
        perturber.delayEvent(3, extra);
        Context ctx;
        if (extra > 0)
            ctx.queue().setPerturber(&perturber);
        std::string trace;
        ctx.spawn("a", [&] {
            ctx.sleep(10);
            trace += "A" + std::to_string(ctx.now());
        });
        calls.at(ctx, 12, [&] { trace += "b12"; });
        ctx.run();
        EXPECT_EQ(trace, extra == 0 ? "A10b12" : "b12A15");
        EXPECT_EQ(ctx.elidedWakes(), extra == 0 ? 1u : 0u);
    }
}

TEST(ContextElision, NeverElidesPastUntil)
{
    Context ctx;
    Tick woke = 0;
    ctx.spawn("sleeper", [&] {
        ctx.sleep(100);
        woke = ctx.now();
    });
    EXPECT_EQ(ctx.run(50), 1u); // The spawn only.
    EXPECT_EQ(ctx.now(), 0u);
    EXPECT_EQ(ctx.elidedWakes(), 0u);
    EXPECT_EQ(ctx.queue().size(), 1u);
    EXPECT_EQ(ctx.run(), 1u);
    EXPECT_EQ(woke, 100u);
}

TEST(ContextElision, NeverElidesAfterRequestStop)
{
    Context ctx;
    Tick woke = 0;
    ctx.spawn("stopper", [&] {
        ctx.requestStop();
        ctx.sleep(10);
        woke = ctx.now();
    });
    EXPECT_EQ(ctx.run(), 1u);
    EXPECT_EQ(woke, 0u);
    EXPECT_EQ(ctx.now(), 0u);
    EXPECT_EQ(ctx.elidedWakes(), 0u);
    EXPECT_EQ(ctx.queue().size(), 1u); // The wake stays pending.
    EXPECT_EQ(ctx.run(), 1u);
    EXPECT_EQ(woke, 10u);
}

TEST(ContextElision, RunGuardedNeverElides)
{
    Context ctx;
    ctx.spawn("solo", [&] {
        for (int i = 0; i < 3; ++i)
            ctx.sleep(10);
    });
    bool hit = true;
    EXPECT_EQ(ctx.runGuarded(~Tick{0}, [] { return false; }, &hit), 4u);
    EXPECT_FALSE(hit);
    EXPECT_EQ(ctx.elidedWakes(), 0u);
    EXPECT_EQ(ctx.queue().scheduledCount(), 4u);
    EXPECT_EQ(ctx.now(), 30u);
}

TEST(ContextElision, BlockUntilPublishesPendingWake)
{
    // A wake that cannot be elided is stored to *pending before the
    // fiber blocks, so another fiber can cancel it meanwhile; an
    // elided one leaves an invalid id behind.
    Context ctx;
    EventId pending;
    Tick woke = 0;
    const FiberId napper = ctx.spawn("napper", [&] {
        ctx.blockUntil(1000, &pending);
        woke = ctx.now();
        ctx.blockUntil(ctx.now() + 5, &pending);
        EXPECT_FALSE(pending.valid());
    });
    ctx.spawn("waker", [&] {
        ctx.sleep(10);
        ASSERT_TRUE(pending.valid());
        ctx.cancel(pending);
        ctx.scheduleWake(napper, ctx.now() + 1);
    });
    ctx.run();
    EXPECT_EQ(woke, 11u);
    EXPECT_EQ(ctx.now(), 16u);
}

// ---------------------------------------------------------------------
// Direct handoff (Context::block).
// ---------------------------------------------------------------------

/** A program: spawns and schedules on a fresh Context, logging to a trace. */
using Program = std::function<void(Context &, std::string &)>;

/**
 * Run @p program to @p until and then to the end, by run() or, when
 * @p guarded, by runGuarded() with a never-true guard. After each of
 * the two runs the trace gets its count, clock, queue size and live
 * fibers; handoffs holds the first run's handoffs only.
 */
Observed
runProgram(const Program &program, bool guarded, Tick until)
{
    Context ctx;
    Observed out;
    program(ctx, out.trace);
    const auto drain = [&](Tick horizon) {
        std::uint64_t dispatched = 0;
        if (guarded) {
            bool hit = true;
            dispatched =
                ctx.runGuarded(horizon, [] { return false; }, &hit);
            EXPECT_FALSE(hit);
        } else {
            dispatched = ctx.run(horizon);
        }
        out.dispatched += dispatched;
        out.trace += "| " + std::to_string(dispatched) + " events, now " +
                     std::to_string(ctx.now()) + ", " +
                     std::to_string(ctx.queue().size()) + " queued, " +
                     std::to_string(ctx.liveFiberCount()) + " live ";
    };
    drain(until);
    out.handoffs = ctx.handoffs();
    drain(~Tick{0});
    out.scheduled = ctx.queue().scheduledCount();
    out.elided = ctx.elidedWakes();
    out.now = ctx.now();
    out.slab = ctx.queue().slabSize();
    out.free_nodes = ctx.queue().freeNodeCount();
    return out;
}

/**
 * Run @p program both ways and expect the same trace, counts and
 * clock; returns run()'s side. An elided wake never takes a slab
 * node, so when run() elided nothing the slab must match too: a
 * handoff allocates and frees nodes in the scheduler's order.
 */
Observed
expectHandoffMatchesReference(const Program &program,
                              Tick until = ~Tick{0})
{
    const Observed fast = runProgram(program, false, until);
    const Observed reference = runProgram(program, true, until);
    EXPECT_EQ(fast, reference) << "run():        " << fast.trace
                               << "\nrunGuarded(): " << reference.trace;
    EXPECT_EQ(reference.handoffs, 0u);
    if (fast.elided == 0) {
        EXPECT_EQ(fast.slab, reference.slab);
        EXPECT_EQ(fast.free_nodes, reference.free_nodes);
    }
    return fast;
}

std::string
at(const Context &ctx, char tag)
{
    return tag + std::to_string(ctx.now()) + ' ';
}

TEST(ContextHandoff, StaleWakeOfFinishedFiberIsDropped)
{
    const Observed fast = expectHandoffMatchesReference(
        [](Context &ctx, std::string &trace) {
            const FiberId quick =
                ctx.spawn("quick", [&] { trace += at(ctx, 'q'); });
            ctx.spawn("a", [&ctx, &trace, quick] {
                ctx.sleep(5);
                // The stale wake leads; the own wake follows it.
                ctx.scheduleWake(quick, ctx.now() + 1);
                ctx.scheduleWake(ctx.currentFiber(), ctx.now() + 2);
                ctx.block();
                trace += at(ctx, 'a');
            });
        });
    // Both taken in block(): the stale wake dropped, the own one
    // returned to.
    EXPECT_EQ(fast.handoffs, 2u);
    EXPECT_NE(fast.trace.find("a7 "), std::string::npos) << fast.trace;
}

TEST(ContextHandoff, FirstWakeOfNeverStartedFiberGoesThroughScheduler)
{
    const Observed fast = expectHandoffMatchesReference(
        [](Context &ctx, std::string &trace) {
            ctx.spawn("a", [&] {
                ctx.spawn("late", [&] { trace += at(ctx, 'L'); }, 3);
                ctx.scheduleWake(ctx.currentFiber(), ctx.now() + 5);
                ctx.block();
                trace += at(ctx, 'A');
            });
        });
    // Only resume() can enter the late fiber's fresh stack.
    EXPECT_EQ(fast.handoffs, 0u);
    EXPECT_EQ(fast.trace.substr(0, 6), "L3 A5 ");
}

TEST(ContextHandoff, OwnWakeAtFrontReturnsAtOnce)
{
    const Observed fast = expectHandoffMatchesReference(
        [](Context &ctx, std::string &trace) {
            ctx.spawn("a", [&] {
                for (int i = 0; i < 3; ++i) {
                    ctx.scheduleWake(ctx.currentFiber(), ctx.now() + 4);
                    ctx.block();
                    trace += at(ctx, 'a');
                }
            });
        });
    EXPECT_EQ(fast.handoffs, 3u);
    EXPECT_EQ(fast.trace.substr(0, 9), "a4 a8 a12");
}

TEST(ContextHandoff, CallbackBetweenWakesRunsOnSchedulerStack)
{
    test::ClosureEvents calls;
    const Observed fast = expectHandoffMatchesReference(
        [&calls](Context &ctx, std::string &trace) {
            const FiberId b = ctx.spawn("b", [&] {
                ctx.block();
                trace += at(ctx, 'B');
                ctx.block();
                trace += at(ctx, 'b');
            });
            ctx.spawn("a", [&calls, &ctx, &trace, b] {
                calls.at(ctx, ctx.now() + 1, [&] {
                    trace += Fiber::current() == nullptr ? "c " : "C! ";
                });
                ctx.scheduleWake(b, ctx.now() + 2);
                // The callback leads: a yields to the scheduler, which
                // runs it and resumes b; b hands off to a at 3.
                ctx.sleep(3);
                trace += at(ctx, 'A');
                ctx.scheduleWake(b, ctx.now());
            });
        });
    EXPECT_EQ(fast.handoffs, 1u);
    EXPECT_EQ(fast.trace.substr(0, 12), "c B2 A3 b3 |");
}

TEST(ContextHandoff, RequestStopFromFiberEndsRunBeforeHandoff)
{
    const Observed fast = expectHandoffMatchesReference(
        [](Context &ctx, std::string &trace) {
            const FiberId b = ctx.spawn("b", [&] {
                ctx.block();
                trace += at(ctx, 'b');
            });
            ctx.spawn("a", [&ctx, &trace, b] {
                ctx.scheduleWake(b, ctx.now() + 1);
                ctx.requestStop();
                ctx.sleep(5);
                trace += at(ctx, 'a');
            });
        });
    // The stopped run ends at 0 with both wakes pending; the second
    // run drains them (b's through the scheduler, a's too).
    EXPECT_EQ(fast.handoffs, 0u);
    EXPECT_EQ(fast.trace.substr(0, 36),
              "| 2 events, now 0, 2 queued, 2 live ");
}

TEST(ContextHandoff, NeverHandsOffPastUntil)
{
    const Observed fast = expectHandoffMatchesReference(
        [](Context &ctx, std::string &trace) {
            const FiberId b = ctx.spawn("b", [&] {
                ctx.block();
                trace += at(ctx, 'b');
                ctx.block();
                trace += at(ctx, 'B');
            });
            ctx.spawn("a", [&ctx, &trace, b] {
                ctx.scheduleWake(b, ctx.now() + 10);
                ctx.sleep(20);
                trace += at(ctx, 'a');
                ctx.scheduleWake(b, ctx.now());
            });
        },
        15);
    // a hands off to b at 10; b's block finds a's wake at 20 past the
    // horizon and yields, ending the first run at 10.
    EXPECT_EQ(fast.handoffs, 1u);
    EXPECT_EQ(fast.trace.substr(0, 41),
              "b10 | 3 events, now 10, 1 queued, 2 live ");
}

TEST(ContextHandoff, FiberFinishingAfterHandoffIsReaped)
{
    const Observed fast = expectHandoffMatchesReference(
        [](Context &ctx, std::string &trace) {
            const FiberId b = ctx.spawn("b", [&] {
                ctx.block();
                trace += at(ctx, 'b');
            });
            ctx.spawn("a", [&ctx, &trace, b] {
                ctx.scheduleWake(b, ctx.now() + 1);
                ctx.sleep(2);
                // b finished after the handoff reached it and went
                // back through the scheduler, which must reap it, not
                // the fiber it had resumed (this one).
                trace += at(ctx, 'a') + ctx.fiberName(b) + ' ';
            });
        });
    EXPECT_EQ(fast.handoffs, 1u);
    EXPECT_EQ(fast.trace,
              "b1 a2 <gone> | 4 events, now 2, 0 queued, 0 live "
              "| 0 events, now 2, 0 queued, 0 live ");
}

// A declined wake (blockUntil's claimNext() said no) is queued and
// the front taken in one heap operation when block() would take it.

TEST(ContextHandoff, DeclinedWakeDropsFinishedFibersWakeThenTakesOwn)
{
    // a's sleep is sequence 4; the directive moves it from 3 to 7.
    SchedulePerturber perturber;
    perturber.delayEvent(4, 4);
    const Observed fast = expectHandoffMatchesReference(
        [&perturber](Context &ctx, std::string &trace) {
            ctx.queue().setPerturber(&perturber);
            const FiberId quick =
                ctx.spawn("quick", [&] { trace += at(ctx, 'q'); });
            ctx.spawn("a", [&ctx, &trace, quick] {
                ctx.scheduleWake(quick, ctx.now() + 1);
                // quick's stale wake leads: the sleep is declined and
                // queued as the stale wake comes off, and block() then
                // takes a's own wake.
                ctx.sleep(3);
                trace += at(ctx, 'a');
            });
        });
    EXPECT_EQ(fast.elided, 0u);
    EXPECT_EQ(fast.handoffs, 2u);
    EXPECT_EQ(fast.trace, "q0 a7 | 4 events, now 7, 0 queued, 0 live "
                          "| 0 events, now 7, 0 queued, 0 live ");
}

TEST(ContextHandoff, DeclinedWakeBehindOwnWakeReturnsAtOnce)
{
    const Observed fast = expectHandoffMatchesReference(
        [](Context &ctx, std::string &trace) {
            ctx.spawn("a", [&] {
                ctx.scheduleWake(ctx.currentFiber(), ctx.now() + 2);
                // a's own wake at 2 leads: a runs on at 2, its wake at
                // 5 queued. The free list is empty here, so the new
                // node must grow the slab before the front's is freed.
                ctx.sleep(5);
                trace += at(ctx, 'a');
                ctx.block();
                trace += at(ctx, 'A');
            });
        });
    EXPECT_EQ(fast.elided, 0u);
    EXPECT_EQ(fast.handoffs, 2u);
    EXPECT_EQ(fast.slab, 2u);
    EXPECT_EQ(fast.trace.substr(0, 6), "a2 A5 ");
}

TEST(ContextHandoff, StaleItemLeftAtRootIsSwept)
{
    const Observed fast = expectHandoffMatchesReference(
        [](Context &ctx, std::string &trace) {
            const FiberId b = ctx.spawn("b", [&] {
                ctx.block();
                trace += at(ctx, 'b');
                ctx.block();
                trace += at(ctx, 'B');
            });
            ctx.spawn("a", [&ctx, &trace, b] {
                ctx.scheduleWake(b, ctx.now() + 1);
                const EventId nap =
                    ctx.scheduleWake(ctx.currentFiber(), ctx.now() + 2);
                ctx.cancel(nap);
                // b's wake comes off and a's wake at 5 sinks below the
                // cancelled nap at 2, which must not stay the front:
                // its freed slot now holds a's wake.
                ctx.sleep(5);
                trace += at(ctx, 'a');
                ctx.scheduleWake(b, ctx.now());
            });
        });
    EXPECT_EQ(fast.elided, 0u);
    EXPECT_EQ(fast.handoffs, 2u);
    EXPECT_EQ(fast.trace.substr(0, 9), "b1 a5 B5 ");
}

TEST(ContextHandoff, DeclinedWakePastUntilOnEmptyQueueYields)
{
    const Observed fast = expectHandoffMatchesReference(
        [](Context &ctx, std::string &trace) {
            ctx.spawn("a", [&] {
                // Nothing else is queued and the wake lies past the
                // horizon: there is no front to take.
                ctx.sleep(100);
                trace += at(ctx, 'a');
            });
        },
        50);
    EXPECT_EQ(fast.handoffs, 0u);
    EXPECT_EQ(fast.trace, "| 1 events, now 0, 1 queued, 1 live a100 "
                          "| 1 events, now 100, 0 queued, 0 live ");
}

} // namespace
} // namespace mach::sim
