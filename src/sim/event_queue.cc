#include "sim/event_queue.hh"

#include <algorithm>

#include "base/logging.hh"

namespace mach::sim
{

namespace
{

/** The std heap algorithms keep the greatest item on top: the earliest. */
constexpr auto kLater = [](const auto &a, const auto &b) {
    return a.when != b.when ? a.when > b.when : a.key > b.key;
};

} // namespace

std::uint32_t
EventQueue::allocNode()
{
    if (free_head_ == kNil) {
        slab_.emplace_back();
        return static_cast<std::uint32_t>(slab_.size() - 1);
    }
    const std::uint32_t slot = free_head_;
    free_head_ = slab_[slot].next_free;
    return slot;
}

void
EventQueue::releaseNode(std::uint32_t slot)
{
    Node &node = slab_[slot];
    node.seq = 0;
    node.next_free = free_head_;
    free_head_ = slot;
}

// ---- Scheduling ---------------------------------------------------------

EventQueue::Item
EventQueue::newItem(Tick when, RawFn fn, void *ctx, std::uint64_t token)
{
    MACH_ASSERT(fn != nullptr);
    if (perturber_ != nullptr)
        when += perturber_->eventDelay(next_seq_);
    const std::uint32_t slot = allocNode();
    MACH_ASSERT(slot <= kSlotMask);
    const std::uint64_t key = (next_seq_++ << kSlotBits) | slot;
    Node &node = slab_[slot];
    node.seq = key;
    node.fn = fn;
    node.ctx = ctx;
    node.token = token;
    return {when, key};
}

EventId
EventQueue::scheduleRaw(Tick when, RawFn fn, void *ctx,
                        std::uint64_t token)
{
    const Item item = newItem(when, fn, ctx, token);
    heap_.push_back(item);
    std::push_heap(heap_.begin(), heap_.end(), kLater);
    ++live_;
    return EventId{item.key};
}

bool
EventQueue::claimNext(Tick *when, Tick until)
{
    Tick at = *when;
    if (perturber_ != nullptr)
        at += perturber_->eventDelay(next_seq_);
    // Equal to the front tick is not enough: the pending events there
    // hold lower sequence numbers and would fire first.
    if (at > until || (live_ != 0 && at >= nextTime()))
        return false;
    ++next_seq_;
    *when = at;
    return true;
}

void
EventQueue::cancel(EventId id)
{
    const std::uint64_t slot = id.seq & kSlotMask;
    if (!id.valid() || slot >= slab_.size() || slab_[slot].seq != id.seq)
        return; // Already fired or cancelled; the slot moved on.
    // The heap item stays behind, stale; the slot is free at once.
    releaseNode(static_cast<std::uint32_t>(slot));
    MACH_ASSERT(live_ > 0);
    --live_;
    // A sleep/cancel-heavy phase (kicked idle naps, re-armed timeouts)
    // can leave stale items whose ticks lie far in the future, where
    // the front sweep would never reach them. Drop them in bulk once
    // they outnumber live items by more than 64 (every heap item not
    // live is stale); amortized O(1) per cancel.
    if (heap_.size() - live_ > live_ + 64) {
        std::erase_if(heap_,
                      [this](const Item &item) { return stale(item); });
        std::make_heap(heap_.begin(), heap_.end(), kLater);
    }
    sweepFront();
}

// ---- Dispatch -----------------------------------------------------------

void
EventQueue::popItem()
{
    std::pop_heap(heap_.begin(), heap_.end(), kLater);
    heap_.pop_back();
}

void
EventQueue::sweepFront()
{
    while (!heap_.empty() && stale(heap_.front()))
        popItem();
}

Tick
EventQueue::nextTime() const
{
    MACH_ASSERT(live_ > 0);
    return heap_.front().when;
}

EventQueue::Front
EventQueue::front() const
{
    MACH_ASSERT(live_ > 0);
    const Item &item = heap_.front();
    const Node &node = slab_[item.key & kSlotMask];
    return {item.when, node.fn, node.ctx, node.token};
}

EventQueue::Item
EventQueue::unlinkFront()
{
    MACH_ASSERT(live_ > 0);
    const Item front = heap_.front();
    popItem();
    --live_;
    // The one sweep per dispatch: the next front is live before the
    // payload runs and may schedule or cancel.
    sweepFront();
    return front;
}

void
EventQueue::replaceRoot(const Item &item)
{
    MACH_ASSERT(kLater(item, heap_.front()));
    // Move the earlier child up until the item leads both children:
    // a wake due soon stops near the root, above the stale items and
    // far-off naps that a pop's hole would sink through.
    const std::size_t size = heap_.size();
    std::size_t hole = 0;
    for (std::size_t child = 1; child < size; child = 2 * hole + 1) {
        if (child + 1 < size && kLater(heap_[child], heap_[child + 1]))
            ++child;
        if (kLater(heap_[child], item))
            break;
        heap_[hole] = heap_[child];
        hole = child;
    }
    heap_[hole] = item;
}

EventQueue::Exchange
EventQueue::scheduleAndPopFront(Tick when, RawFn fn, void *ctx,
                                std::uint64_t token)
{
    MACH_ASSERT(live_ > 0);
    // The new node comes off the free list before the front's goes
    // back on it, as with scheduleRaw() then popFront().
    const Item item = newItem(when, fn, ctx, token);
    const Item front = heap_.front();
    replaceRoot(item);
    sweepFront();
    const auto slot = static_cast<std::uint32_t>(front.key & kSlotMask);
    const Node &node = slab_[slot];
    const Exchange out{{front.when, node.fn, node.ctx, node.token},
                       EventId{item.key}};
    releaseNode(slot);
    return out;
}

Tick
EventQueue::popFront()
{
    const Item front = unlinkFront();
    releaseNode(static_cast<std::uint32_t>(front.key & kSlotMask));
    return front.when;
}

Tick
EventQueue::fireFront()
{
    const Item front = unlinkFront();
    const auto slot = static_cast<std::uint32_t>(front.key & kSlotMask);
    const Node &node = slab_[slot];
    const RawFn fn = node.fn;
    void *ctx = node.ctx;
    const std::uint64_t token = node.token;
    // Free the slot first: the call may schedule into it.
    releaseNode(slot);
    fn(ctx, token);
    return front.when;
}

std::size_t
EventQueue::freeNodeCount() const
{
    std::size_t count = 0;
    for (std::uint32_t slot = free_head_; slot != kNil;
         slot = slab_[slot].next_free)
        ++count;
    return count;
}

} // namespace mach::sim
