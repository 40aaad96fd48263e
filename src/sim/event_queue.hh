/**
 * @file
 * Deterministic, cancellable discrete-event queue.
 *
 * Events fire in (time, insertion-sequence) order, so two events scheduled
 * for the same tick fire in the order they were scheduled. This total
 * order is the root of the simulator's determinism.
 *
 * The implementation is built for throughput on the simulator's hot
 * path (every sleep, wake, timer tick, and IPI is one event):
 *
 *   - same-tick events chain into a FIFO bucket (their arrival order IS
 *     their sequence order), and a binary min-heap of 16-byte items
 *     orders the open buckets by (tick, creation sequence) -- so a burst
 *     of simultaneous events pays the O(log n) sift once, not once per
 *     event, and popping within a bucket is O(1);
 *   - a 256-entry direct-mapped cache maps a tick to its newest open
 *     bucket, so appending to a pending tick never probes or touches
 *     the heap; a miss (new or evicted tick) just opens another bucket,
 *     whose sequence numbers all exceed the older bucket's;
 *   - payloads live in a slab of recycled nodes (free-list), so neither
 *     scheduling nor cancelling allocates once the slab is warm;
 *   - cancel() is O(1): it releases the payload's resources immediately
 *     and leaves a tombstone in its bucket chain that is reclaimed when
 *     the chain drains (or compacted in bulk when tombstones outnumber
 *     live events);
 *   - fiber wakes -- the dominant event kind -- are stored as a raw
 *     (function pointer, context, token) triple, bypassing
 *     std::function entirely on the schedule *and* dispatch paths.
 *
 * None of this changes the order contract: buckets fire in (tick,
 * creation sequence) order and chains preserve insertion order within
 * a bucket, which is exactly the (when, seq) total order the original
 * std::map implementation used. tests/determinism_test.cc pins that
 * contract with golden digests.
 */

#ifndef MACH_SIM_EVENT_QUEUE_HH
#define MACH_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "base/perturb.hh"
#include "base/types.hh"

namespace mach::sim
{

/** Opaque handle identifying a scheduled event, usable for cancellation. */
struct EventId
{
    Tick when = 0;
    std::uint64_t seq = 0;
    /** Slab slot the payload occupies (cancellation hint). */
    std::uint32_t slot = 0;

    bool valid() const { return seq != 0; }

    bool
    operator<(const EventId &other) const
    {
        if (when != other.when)
            return when < other.when;
        return seq < other.seq;
    }
};

/** Time-ordered queue of callbacks. */
class EventQueue
{
  public:
    using Callback = std::function<void()>;
    /** Allocation-free payload: fn(ctx, token) at fire time. */
    using RawFn = void (*)(void *ctx, std::uint64_t token);

    /** Schedule @p cb to fire at absolute time @p when. */
    EventId schedule(Tick when, Callback cb);

    /**
     * Schedule an allocation-free event: at fire time @p fn is invoked
     * with (@p ctx, @p token). This is the fiber-wake fast path --
     * sim::Context passes itself and the fiber id, so the sleep/wake
     * cycle never touches std::function.
     */
    EventId scheduleRaw(Tick when, RawFn fn, void *ctx,
                        std::uint64_t token);

    /**
     * Remove a previously scheduled event. Cancelling an event that has
     * already fired (or was already cancelled) is a harmless no-op, which
     * simplifies callers that race wakeups against cancellations.
     */
    void cancel(EventId id);

    bool empty() const { return live_ == 0; }
    std::size_t size() const { return live_; }

    /** Time of the earliest pending event; panics if empty. */
    Tick nextTime() const;

    /**
     * Remove and return the earliest event's callback, storing its
     * scheduled time in @p when. Panics if empty, and panics on raw
     * events (only fireFront can dispatch those).
     */
    Callback popFront(Tick *when);

    /**
     * Remove and invoke the earliest event, returning its scheduled
     * time. Dispatches raw events directly. Panics if empty.
     */
    Tick fireFront();

    /**
     * Dispatch every live event pending at the earliest tick as one
     * batch -- the run loop's path. One front sweep and one heap
     * round trip cover the whole tick instead of one per event; order
     * within the tick is the bucket's FIFO chain, i.e. insertion-
     * sequence order, so the (time, seq) contract (and with it every
     * golden digest and perturbation replay) is untouched. Events an
     * event body schedules *for the current tick* join the same batch,
     * exactly as repeated fireFront() calls would dispatch them.
     *
     * Returns 0 without advancing @p *now when the queue is empty or
     * the front tick lies beyond @p until. Otherwise stores the
     * batch's tick into @p *now (asserting it is monotonic) before the
     * first dispatch and returns the count dispatched. Dispatch stops
     * after the current event once @p *stop reads true, mirroring the
     * per-event requestStop() check of the unbatched loop.
     */
    std::uint64_t fireTickBatch(Tick until, Tick *now,
                                const bool *stop);

    /**
     * The self-wake fast path (Context::blockUntil). If an event
     * scheduled now for @p *when, after its perturbation delay, would
     * fire no later than @p until and strictly before every pending
     * event, consume its sequence number as schedule() would, store the
     * delayed time in @p *when and return true; else change nothing.
     */
    bool claimNext(Tick *when, Tick until);

    /** Sequence numbers consumed, claimNext() included (monotonic). */
    std::uint64_t scheduledCount() const { return next_seq_ - 1; }

    /**
     * Install (or clear, with nullptr) a perturbation schedule. Each
     * schedule/scheduleRaw consults it by insertion sequence and adds
     * the directed extra delay to the event's firing time. Delays are
     * strictly additive, so `when >= now` is preserved and the (time,
     * seq) order contract is untouched -- the perturbed run is just a
     * different, equally deterministic schedule. The perturber must
     * outlive the queue or be cleared first; a null perturber (the
     * default) costs one predicted-taken branch per schedule.
     */
    void setPerturber(const SchedulePerturber *perturber)
    {
        perturber_ = perturber;
    }

    /** Slab slots currently on the free-list (white-box tests). */
    std::size_t freeNodeCount() const;

    /** Slab capacity ever allocated (white-box tests). */
    std::size_t slabSize() const { return slab_.size(); }

    /** Open buckets: distinct pending ticks plus splits (white-box). */
    std::size_t pendingTickCount() const { return heap_.size(); }

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /**
     * The sequence word carries the slab slot in its low bits, so one
     * 64-bit compare orders same-tick events by insertion sequence and
     * one mask recovers the payload. Bounds the slab at 2^20 nodes
     * (pending-event high-water mark, not total events) and the
     * insertion counter at 2^44 events.
     */
    static constexpr unsigned kSlotBits = 20;
    static constexpr std::uint64_t kSlotMask =
        (std::uint64_t{1} << kSlotBits) - 1;
    /**
     * Node::seq sentinel for a cancelled node still linked into its
     * bucket chain. Real packed sequences are >= 1 << kSlotBits and
     * free slots are 0, so the value cannot collide with either.
     */
    static constexpr std::uint64_t kCancelledSeq = 1;

    /** Slab-resident payload; seq == 0 marks a free slot. */
    struct Node
    {
        std::uint64_t seq = 0; ///< Packed (sequence << kSlotBits | slot).
        RawFn raw_fn = nullptr;
        void *raw_ctx = nullptr;
        std::uint64_t raw_token = 0;
        Callback cb;
        /** Free-list link when free, same-tick FIFO link when pending. */
        std::uint32_t next = kNil;
    };

    /** FIFO of one tick's events; when free, head links the free list. */
    struct Bucket
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };

    /** Heap item: one per open bucket; (when, key) pairs are unique. */
    struct HeapItem
    {
        Tick when;
        /** Packed (creation sequence << kSlotBits | bucket index). */
        std::uint64_t key;

        bool
        operator<(const HeapItem &o) const
        {
            return when != o.when ? when < o.when : key < o.key;
        }
    };

    /** Tick -> newest open bucket; bucket == kNil marks an empty entry. */
    struct TickCacheEntry
    {
        Tick when = 0;
        std::uint32_t bucket = kNil;
    };
    static constexpr std::size_t kTickCacheEntries = 256;

    static std::size_t
    tickCacheIndex(Tick when)
    {
        return (when * 0x9E3779B97F4A7C15ull) >> 56;
    }

    std::uint32_t allocNode();
    void releaseNode(std::uint32_t slot);
    std::uint32_t allocBucket();
    void releaseBucket(const HeapItem &item);
    Node &clearPayload(std::uint32_t slot);
    /** Release the node in @p slot and run its payload. */
    void dispatch(std::uint32_t slot);
    /** Append a filled node to @p when's newest bucket, or open one. */
    EventId enqueue(Tick when, std::uint32_t slot);
    void siftUp(std::size_t i);
    void siftDown(std::size_t i);
    /** Release the front bucket and pop it off the heap. */
    void popFrontBucket();
    /**
     * Drop cancelled nodes off the front bucket's chain (and empty
     * buckets off the heap) until a live event leads; panics if none.
     */
    void
    sweepFront()
    {
        if (heap_.empty() ||
            slab_[buckets_[heap_.front().key & kSlotMask].head].seq ==
                kCancelledSeq)
            sweepTombstones();
    }
    void sweepTombstones();
    /** Unlink the front event; sweepFront must have run. */
    std::uint32_t takeFront();
    /** Drop every tombstone and rebuild the heap (amortized, bulk). */
    void compact();

    std::vector<HeapItem> heap_;
    std::vector<Node> slab_;
    std::vector<Bucket> buckets_;
    /** Sized by the first enqueue: building a machine allocates none. */
    std::vector<TickCacheEntry> tick_cache_;
    std::uint32_t free_head_ = kNil;
    std::uint32_t bucket_free_head_ = kNil;
    std::uint64_t next_seq_ = 1;
    const SchedulePerturber *perturber_ = nullptr;
    /** Scheduled, not yet fired or cancelled. */
    std::size_t live_ = 0;
    /** Cancelled nodes still linked into bucket chains. */
    std::size_t tombstones_ = 0;
};

} // namespace mach::sim

#endif // MACH_SIM_EVENT_QUEUE_HH
