/**
 * @file
 * Unit tests for the simulator core: event queue, fibers, context.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "base/perturb.hh"
#include "sim/context.hh"
#include "sim/event_queue.hh"
#include "sim/fiber.hh"

#include "fiber_waves.hh"

namespace mach::sim
{
namespace
{

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });

    while (!q.empty()) {
        Tick when = 0;
        q.popFront(&when)();
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickFiresInScheduleOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    while (!q.empty()) {
        Tick when = 0;
        q.popFront(&when)();
    }
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelRemovesEvent)
{
    EventQueue q;
    bool fired = false;
    EventId id = q.schedule(10, [&] { fired = true; });
    q.schedule(20, [] {});
    q.cancel(id);
    EXPECT_EQ(q.size(), 1u);
    Tick when = 0;
    q.popFront(&when)();
    EXPECT_FALSE(fired);
    EXPECT_EQ(when, 20u);
}

TEST(EventQueue, CancelAfterFireIsNoop)
{
    EventQueue q;
    EventId id = q.schedule(10, [] {});
    Tick when = 0;
    q.popFront(&when);
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
    EventQueue q;
    q.schedule(50, [] {});
    q.schedule(40, [] {});
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
    Context ctx;
    int ticks = 0;
    std::function<void()> tick = [&] {
        ++ticks;
        ctx.scheduleCall(ctx.now() + 10, tick);
    };
    ctx.scheduleCall(0, tick);
    ctx.run(35);
    EXPECT_EQ(ticks, 4); // t = 0, 10, 20, 30.
    EXPECT_LE(ctx.now(), 35u);
}

TEST(Context, RequestStopEndsRun)
{
    Context ctx;
    int events = 0;
    ctx.scheduleCall(1, [&] { ++events; });
    ctx.scheduleCall(2, [&] {
        ++events;
        ctx.requestStop();
    });
    ctx.scheduleCall(3, [&] { ++events; });
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
    EventQueue q;
    EXPECT_EQ(q.scheduledCount(), 0u);
    EventId a = q.schedule(1, [] {});
    q.schedule(2, [] {});
    EXPECT_EQ(q.scheduledCount(), 2u);
    q.cancel(a); // Cancellation does not un-count.
    EXPECT_EQ(q.scheduledCount(), 2u);
}

TEST(Context, RunReturnsDispatchedCount)
{
    Context ctx;
    for (int i = 0; i < 5; ++i)
        ctx.scheduleCall(i + 1, [] {});
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
// Event-heap internals: tombstones, same-tick chains, slab recycling.
// ---------------------------------------------------------------------

TEST(EventQueue, CancelThenFireSkipsTombstone)
{
    // Cancel an event that is already at the front of its tick chain;
    // the next pop must sweep past the tombstone to the live event
    // behind it, on the same tick and on a later one.
    EventQueue q;
    std::vector<int> order;
    EventId dead_same = q.schedule(10, [&] { order.push_back(-1); });
    q.schedule(10, [&] { order.push_back(1); });
    EventId dead_later = q.schedule(20, [&] { order.push_back(-2); });
    q.schedule(30, [&] { order.push_back(2); });
    q.cancel(dead_same);
    q.cancel(dead_later);

    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.nextTime(), 10u);
    while (!q.empty()) {
        Tick when = 0;
        q.popFront(&when)();
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, InterleavedTicksKeepSequenceOrder)
{
    // Alternate scheduling between two ticks so each tick's FIFO chain
    // is built up interleaved; pops must still follow global
    // (when, seq) order.
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
        const Tick when = (i % 2 == 0) ? 100 : 200;
        q.schedule(when, [&order, i] { order.push_back(i); });
    }
    while (!q.empty()) {
        Tick when = 0;
        q.popFront(&when)();
    }
    EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6, 1, 3, 5, 7}));
}

TEST(EventQueue, FreeListBoundsSlabAcrossChurn)
{
    // A million schedule/cancel cycles (the kicked-idle-nap pattern)
    // must recycle slab nodes rather than grow the slab: tombstone
    // compaction reclaims cancelled nodes even though their tick never
    // reaches the front.
    EventQueue q;
    bool fired = false;
    q.schedule(1, [&] { fired = true; });
    for (int i = 0; i < 1'000'000; ++i) {
        EventId id = q.schedule(1'000'000 + i % 97, [] {});
        q.cancel(id);
    }
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.scheduledCount(), 1'000'001u);
    // The slab high-water mark stays tiny compared to the churn count.
    EXPECT_LT(q.slabSize(), 1000u);
    // In-use slots are the one live event plus at most the tombstone
    // compaction threshold's worth of not-yet-swept cancelled nodes;
    // every other slot is back on the free list.
    EXPECT_LE(q.slabSize() - q.freeNodeCount(), 65u);

    Tick when = 0;
    q.popFront(&when)();
    EXPECT_TRUE(fired);
    EXPECT_EQ(when, 1u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SlabSlotReuseDoesNotConfuseCancel)
{
    // A stale EventId whose slab slot has been recycled by a newer
    // event must not cancel the newer event.
    EventQueue q;
    EventId old_id = q.schedule(10, [] {});
    Tick when = 0;
    q.popFront(&when); // Slot returns to the free list.

    bool fired = false;
    q.schedule(20, [&] { fired = true; }); // Reuses the slot.
    q.cancel(old_id);                      // Stale handle: must no-op.
    EXPECT_EQ(q.size(), 1u);
    q.popFront(&when)();
    EXPECT_TRUE(fired);
}

TEST(EventQueue, ManySameTickEventsUseOneHeapSlot)
{
    // The bucket layout's point: simultaneous events share one heap
    // item, so the heap tracks distinct ticks, not events.
    EventQueue q;
    for (int i = 0; i < 100; ++i)
        q.schedule(7, [] {});
    q.schedule(9, [] {});
    EXPECT_EQ(q.size(), 101u);
    EXPECT_EQ(q.pendingTickCount(), 2u);
    while (!q.empty()) {
        Tick when = 0;
        q.popFront(&when)();
    }
}

// ---------------------------------------------------------------------
// Tick cache: collisions and ticks split across buckets.
// ---------------------------------------------------------------------

/**
 * A tick that evicts @p a from the tick cache: scheduling a, then it,
 * then a again opens a second bucket for a. Found by probing, so the
 * tests do not depend on the cache's hash.
 */
Tick
collidingTick(Tick a)
{
    for (Tick b = a + 1; b < a + 100'000; ++b) {
        EventQueue q;
        q.schedule(a, [] {});
        q.schedule(b, [] {});
        q.schedule(a, [] {});
        if (q.pendingTickCount() == 3)
            return b;
    }
    ADD_FAILURE() << "no tick collides with " << a;
    return a + 1;
}

/** Pop everything, recording each event's tag and fire time. */
std::vector<std::pair<Tick, int>>
drain(EventQueue &q, std::vector<int> &tags)
{
    std::vector<std::pair<Tick, int>> out;
    while (!q.empty()) {
        Tick when = 0;
        q.popFront(&when)();
        out.emplace_back(when, tags.back());
    }
    return out;
}

TEST(EventQueue, CollidingTicksFireInWhenSeqOrder)
{
    // Alternate between two ticks that share a cache slot, with the
    // later tick scheduled first as well: every switch evicts the
    // other tick's bucket, so both ticks end up split, and pops must
    // still follow (when, seq) exactly.
    const Tick a = 1000;
    const Tick b = collidingTick(a);
    for (const bool later_first : {false, true}) {
        EventQueue q;
        std::vector<int> tags;
        for (int i = 0; i < 8; ++i) {
            const Tick when = ((i % 2 == 0) != later_first) ? a : b;
            q.schedule(when, [&tags, i] { tags.push_back(i); });
        }
        EXPECT_EQ(q.pendingTickCount(), 8u); // Every event split off.
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

TEST(EventQueue, SplitTickKeepsOrderInTickBatches)
{
    // One tick split across three buckets, dispatched through run()'s
    // tick batches, with an event body appending to the same tick: the
    // batch must cross the bucket boundaries in sequence order.
    const Tick a = 500;
    const Tick b = collidingTick(a);
    Context ctx;
    std::vector<int> order;
    ctx.scheduleCall(a, [&] { order.push_back(0); });
    ctx.scheduleCall(b, [&] { order.push_back(10); });
    ctx.scheduleCall(a, [&] {
        order.push_back(1);
        ctx.scheduleCall(a, [&] { order.push_back(3); });
    });
    ctx.scheduleCall(b, [&] { order.push_back(11); });
    ctx.scheduleCall(a, [&] { order.push_back(2); });
    EXPECT_EQ(ctx.queue().pendingTickCount(), 5u);
    EXPECT_EQ(ctx.run(), 6u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 10, 11}));
}

TEST(EventQueue, CancelAndCompactAcrossSplitTick)
{
    // Cancel most events on a split tick -- enough to trigger bulk
    // compaction -- and the survivors of both buckets still fire in
    // sequence order while wholly cancelled buckets are retired.
    const Tick a = 77;
    const Tick b = collidingTick(a);
    EventQueue q;
    std::vector<int> tags;
    std::vector<EventId> ids;
    for (int i = 0; i < 400; ++i) {
        const Tick when = (i / 100) % 2 == 0 ? a : b; // a, b, a, b runs
        ids.push_back(
            q.schedule(when, [&tags, i] { tags.push_back(i); }));
    }
    EXPECT_EQ(q.pendingTickCount(), 4u);
    std::vector<std::pair<Tick, int>> want;
    for (int i = 0; i < 400; ++i) {
        // Keep two events of the first a-bucket, none of the first
        // b-bucket, three of the second a-bucket, all of the second b.
        const bool keep = i == 10 || i == 90 || (i >= 200 && i < 203) ||
                          i >= 300;
        if (!keep)
            q.cancel(ids[i]);
    }
    EXPECT_EQ(q.size(), 105u);
    // Compaction ran (tombstones outnumbered live events) and retired
    // the all-cancelled bucket.
    EXPECT_EQ(q.pendingTickCount(), 3u);
    for (int i : {10, 90, 200, 201, 202})
        want.emplace_back(a, i);
    for (int i = 300; i < 400; ++i)
        want.emplace_back(b, i);
    EXPECT_EQ(drain(q, tags), want);
    EXPECT_EQ(q.pendingTickCount(), 0u);
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
    Tick now = 0;

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
            ctx.scheduleCall(ctx.now() + 9, tick);
    };
    ctx.scheduleCall(4, tick);
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
    out.now = ctx.now();
    return out;
}

TEST(ContextElision, RunMatchesRunGuardedReference)
{
    const Observed fast = interleave(false);
    const Observed reference = interleave(true);
    EXPECT_EQ(fast, reference);
    EXPECT_GT(fast.elided, 0u);
    // runGuarded's guard must see every event: it never elides.
    EXPECT_EQ(reference.elided, 0u);
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
        ctx.scheduleCall(12, [&] { trace += "b12"; });
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

} // namespace
} // namespace mach::sim
