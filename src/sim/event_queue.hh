/**
 * @file
 * Deterministic, cancellable discrete-event queue.
 *
 * Events fire in (time, insertion-sequence) order, so two events scheduled
 * for the same tick fire in the order they were scheduled. This total
 * order is the root of the simulator's determinism.
 *
 * The queue is one binary min-heap of 16-byte (when, key) items, where
 * the key packs the insertion sequence above the payload's slab slot:
 *
 *   - payloads live in a slab of recycled nodes (free list), so neither
 *     scheduling nor cancelling allocates once the slab is warm;
 *   - cancel() frees the payload's node at once and leaves its heap
 *     item behind, stale: an item whose key no longer matches its
 *     slot's is dropped when it reaches the front, and one bulk pass
 *     drops them all once they outnumber live events by more than 64;
 *   - every payload is one raw (function pointer, context, token)
 *     call: fiber wakes, timer ticks, sleeps and I/O completions
 *     alike, so no event carries or dispatches a closure;
 *   - a fiber that queues its own wake and takes the front in its
 *     place (Context::blockUntil's handoff) does both in one sift
 *     from the root, scheduleAndPopFront(), instead of a push and a
 *     pop.
 *
 * Keys are unique and sequence-ordered, so the heap pops in exact
 * (when, seq) order. tests/determinism_test.cc pins that contract with
 * golden digests, and tests/sim_test.cc checks it against a std::map
 * reference.
 */

#ifndef MACH_SIM_EVENT_QUEUE_HH
#define MACH_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "base/perturb.hh"
#include "base/types.hh"

namespace mach::sim
{

/** Opaque handle identifying a scheduled event, usable for cancellation. */
struct EventId
{
    /** Packed (insertion sequence << 20 | slab slot); 0 for none. */
    std::uint64_t seq = 0;

    bool valid() const { return seq != 0; }
};

/** Time-ordered queue of raw calls. */
class EventQueue
{
  public:
    /** The one payload kind: fn(ctx, token) at fire time. */
    using RawFn = void (*)(void *ctx, std::uint64_t token);

    /**
     * Schedule @p fn to be invoked with (@p ctx, @p token) at absolute
     * time @p when. sim::Context passes itself and the fiber id for a
     * wake; kern passes the owning object and a thread pointer or CPU
     * id.
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
     * Remove and invoke the earliest event, returning its scheduled
     * time. Panics if empty.
     */
    Tick fireFront();

    /** The earliest event, as front() shows it. */
    struct Front
    {
        Tick when;
        RawFn fn;
        void *ctx;
        std::uint64_t token;
    };

    /** The earliest event, left in place. Panics if empty. */
    Front front() const;

    /**
     * Remove the earliest event as fireFront() does, but do not invoke
     * it: the caller acts on what front() showed (Context::block takes
     * a fiber wake this way). Returns its time. Panics if empty.
     */
    Tick popFront();

    /** What scheduleAndPopFront() removed and what it scheduled. */
    struct Exchange
    {
        Front front;
        EventId id;
    };

    /**
     * scheduleRaw(@p when, @p fn, @p ctx, @p token) then popFront(),
     * as one heap operation: the new item takes the root and sifts
     * down once, where a push would climb the heap and a pop sink
     * through it. The new event, after its perturbation delay, must
     * order after the front (Context::blockUntil passes a wake that
     * claimNext() declined). Everything else is as the two calls
     * leave it: one sequence number consumed, the new node allocated
     * before the front's is freed, the stale items behind the front
     * swept. Returns the front as front() showed it and the new
     * event's id. Panics if empty.
     */
    Exchange scheduleAndPopFront(Tick when, RawFn fn, void *ctx,
                                 std::uint64_t token);

    /**
     * The self-wake fast path (Context::blockUntil). If an event
     * scheduled now for @p *when, after its perturbation delay, would
     * fire no later than @p until and strictly before every pending
     * event, consume its sequence number as scheduleRaw() would, store
     * the delayed time in @p *when and return true; else change
     * nothing.
     */
    bool claimNext(Tick *when, Tick until);

    /** Sequence numbers consumed, claimNext() included (monotonic). */
    std::uint64_t scheduledCount() const { return next_seq_ - 1; }

    /**
     * Install (or clear, with nullptr) a perturbation schedule.
     * scheduleRaw consults it by insertion sequence and adds the
     * directed extra delay to the event's firing time. Delays are
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

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /**
     * The key carries the slab slot in its low bits, so one 64-bit
     * compare orders same-tick events by insertion sequence and one
     * mask recovers the payload. Bounds the slab at 2^20 nodes
     * (pending-event high-water mark, not total events) and the
     * insertion counter at 2^44 events.
     */
    static constexpr unsigned kSlotBits = 20;
    static constexpr std::uint64_t kSlotMask =
        (std::uint64_t{1} << kSlotBits) - 1;

    /** Slab-resident payload; seq == 0 marks a free slot. */
    struct Node
    {
        std::uint64_t seq = 0; ///< Key of the pending event it holds.
        RawFn fn = nullptr;
        void *ctx = nullptr;
        std::uint64_t token = 0;
        std::uint32_t next_free = kNil;
    };
    static_assert(sizeof(Node) <= 40, "a slab node is five words");

    /** Heap item; stale once its slot no longer holds @p key. */
    struct Item
    {
        Tick when;
        std::uint64_t key;
    };

    bool
    stale(const Item &item) const
    {
        return slab_[item.key & kSlotMask].seq != item.key;
    }

    std::uint32_t allocNode();
    /** Mark @p slot free and put it on the free list. */
    void releaseNode(std::uint32_t slot);
    /**
     * scheduleRaw() and scheduleAndPopFront(): apply the perturbation
     * delay, take a sequence number and a slab node for the payload,
     * and return the heap item, not yet in the heap.
     */
    Item newItem(Tick when, RawFn fn, void *ctx, std::uint64_t token);
    /** Remove the front item from the heap. */
    void popItem();
    /**
     * Put @p item at the root in place of the front item and sift it
     * down to its rank; it must order after the front.
     */
    void replaceRoot(const Item &item);
    /**
     * fireFront() and popFront(): pop the live front item and sweep
     * the stale ones behind it; its slot still holds the payload.
     */
    Item unlinkFront();
    /** Pop stale items until a live one (or nothing) leads. */
    void sweepFront();

    /** Min-heap on (when, key); the front is live or the heap empty. */
    std::vector<Item> heap_;
    std::vector<Node> slab_;
    std::uint32_t free_head_ = kNil;
    std::uint64_t next_seq_ = 1;
    const SchedulePerturber *perturber_ = nullptr;
    /** Scheduled, not yet fired or cancelled; the rest of heap_ is stale. */
    std::size_t live_ = 0;
};

} // namespace mach::sim

#endif // MACH_SIM_EVENT_QUEUE_HH
