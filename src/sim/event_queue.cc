#include "sim/event_queue.hh"

#include <utility>

#include "base/logging.hh"

namespace mach::sim
{

std::uint32_t
EventQueue::allocNode()
{
    if (free_head_ != kNil) {
        const std::uint32_t slot = free_head_;
        free_head_ = slab_[slot].next;
        slab_[slot].next = kNil;
        return slot;
    }
    slab_.emplace_back();
    return static_cast<std::uint32_t>(slab_.size() - 1);
}

EventQueue::Node &
EventQueue::clearPayload(std::uint32_t slot)
{
    Node &node = slab_[slot];
    node.raw_fn = nullptr;
    node.raw_ctx = nullptr;
    node.raw_token = 0;
    node.cb = nullptr; // Release closure resources eagerly.
    return node;
}

void
EventQueue::releaseNode(std::uint32_t slot)
{
    Node &node = clearPayload(slot);
    node.seq = 0;
    node.next = free_head_;
    free_head_ = slot;
}

std::uint32_t
EventQueue::allocBucket()
{
    if (bucket_free_head_ == kNil) {
        buckets_.emplace_back();
        return static_cast<std::uint32_t>(buckets_.size() - 1);
    }
    const std::uint32_t index = bucket_free_head_;
    bucket_free_head_ = buckets_[index].head;
    return index;
}

void
EventQueue::releaseBucket(const HeapItem &item)
{
    const auto index = static_cast<std::uint32_t>(item.key & kSlotMask);
    // The cache holds open buckets only: a drained bucket must never
    // take appends again, even if a new event lands on its tick.
    TickCacheEntry &cached = tick_cache_[tickCacheIndex(item.when)];
    if (cached.bucket == index)
        cached.bucket = kNil;
    buckets_[index].head = bucket_free_head_;
    bucket_free_head_ = index;
}

// ---- Scheduling ---------------------------------------------------------

EventId
EventQueue::enqueue(Tick when, std::uint32_t slot)
{
    MACH_ASSERT(slot <= kSlotMask);
    const std::uint64_t seq = (next_seq_++ << kSlotBits) | slot;
    slab_[slot].seq = seq;
    slab_[slot].next = kNil;

    if (tick_cache_.empty())
        tick_cache_.resize(kTickCacheEntries);
    TickCacheEntry &cached = tick_cache_[tickCacheIndex(when)];
    if (cached.bucket != kNil && cached.when == when) {
        // The tick's newest bucket is open (so never empty): FIFO
        // append. Arrival order is sequence order, so the chain keeps
        // the (when, seq) contract without touching the heap.
        Bucket &bucket = buckets_[cached.bucket];
        slab_[bucket.tail].next = slot;
        bucket.tail = slot;
    } else {
        // A new tick, or one whose bucket the cache evicted: open a
        // bucket. Its creation sequence is above every sequence in an
        // older bucket of the same tick, which therefore fires first.
        const std::uint32_t index = allocBucket();
        MACH_ASSERT(index <= kSlotMask);
        buckets_[index] = {slot, slot};
        cached = {when, index};
        heap_.push_back({when, (seq & ~kSlotMask) | index});
        siftUp(heap_.size() - 1);
    }
    ++live_;
    return EventId{when, seq, slot};
}

EventId
EventQueue::schedule(Tick when, Callback cb)
{
    MACH_ASSERT(cb != nullptr);
    if (perturber_ != nullptr)
        when += perturber_->eventDelay(next_seq_);
    const std::uint32_t slot = allocNode();
    slab_[slot].cb = std::move(cb);
    return enqueue(when, slot);
}

EventId
EventQueue::scheduleRaw(Tick when, RawFn fn, void *ctx,
                        std::uint64_t token)
{
    MACH_ASSERT(fn != nullptr);
    if (perturber_ != nullptr)
        when += perturber_->eventDelay(next_seq_);
    const std::uint32_t slot = allocNode();
    Node &node = slab_[slot];
    node.raw_fn = fn;
    node.raw_ctx = ctx;
    node.raw_token = token;
    return enqueue(when, slot);
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
    if (!id.valid())
        return;
    if (id.slot >= slab_.size() || slab_[id.slot].seq != id.seq)
        return; // Already fired or cancelled; the slot moved on.
    // The node stays linked in its bucket chain (no back pointers to
    // unlink in O(1)); release its resources now and let the chain
    // sweep reclaim the slot when the tick drains.
    clearPayload(id.slot).seq = kCancelledSeq;
    MACH_ASSERT(live_ > 0);
    --live_;
    ++tombstones_;
    // A sleep/cancel-heavy phase (kicked idle naps, re-armed timeouts)
    // can flood the chains with tombstones whose ticks lie far in the
    // future, where the front sweep would never reach them. Compact in
    // bulk once they dominate; amortized O(1) per cancel.
    if (tombstones_ > 64 && tombstones_ > live_)
        compact();
}

// ---- Heap of distinct ticks ---------------------------------------------

void
EventQueue::siftUp(std::size_t i)
{
    HeapItem item = heap_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!(item < heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = item;
}

void
EventQueue::siftDown(std::size_t i)
{
    const std::size_t n = heap_.size();
    HeapItem item = heap_[i];
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && heap_[child + 1] < heap_[child])
            ++child;
        if (!(heap_[child] < item))
            break;
        heap_[i] = heap_[child];
        i = child;
    }
    heap_[i] = item;
}

void
EventQueue::popFrontBucket()
{
    releaseBucket(heap_.front());
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty())
        siftDown(0);
}

void
EventQueue::sweepTombstones()
{
    for (;;) {
        MACH_ASSERT(!heap_.empty());
        Bucket &bucket = buckets_[heap_.front().key & kSlotMask];
        while (bucket.head != kNil &&
               slab_[bucket.head].seq == kCancelledSeq) {
            const std::uint32_t dead = bucket.head;
            bucket.head = slab_[dead].next;
            releaseNode(dead);
            MACH_ASSERT(tombstones_ > 0);
            --tombstones_;
        }
        if (bucket.head != kNil)
            return;
        // The bucket drained to nothing but tombstones: retire it.
        popFrontBucket();
    }
}

std::uint32_t
EventQueue::takeFront()
{
    Bucket &bucket = buckets_[heap_.front().key & kSlotMask];
    const std::uint32_t slot = bucket.head;
    bucket.head = slab_[slot].next;
    if (bucket.head == kNil)
        popFrontBucket();
    --live_;
    return slot;
}

void
EventQueue::compact()
{
    std::size_t kept = 0;
    for (const HeapItem &item : heap_) {
        Bucket &bucket = buckets_[item.key & kSlotMask];
        // Relink the chain keeping only live nodes; order within the
        // chain (= sequence order) is preserved.
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
        std::uint32_t slot = bucket.head;
        while (slot != kNil) {
            const std::uint32_t next = slab_[slot].next;
            if (slab_[slot].seq == kCancelledSeq) {
                releaseNode(slot);
            } else {
                if (tail == kNil)
                    head = slot;
                else
                    slab_[tail].next = slot;
                slab_[slot].next = kNil;
                tail = slot;
            }
            slot = next;
        }
        if (head == kNil) {
            releaseBucket(item);
            continue;
        }
        bucket.head = head;
        bucket.tail = tail;
        heap_[kept++] = item;
    }
    heap_.resize(kept);
    tombstones_ = 0;
    // Bottom-up heapify. The internal layout differs from the
    // incremental one, but buckets still pop in unique (when, key)
    // order, so observable behavior is unchanged.
    for (std::size_t i = heap_.size() / 2; i-- > 0;)
        siftDown(i);
}

// ---- Dispatch -----------------------------------------------------------

Tick
EventQueue::nextTime() const
{
    // Sweeping tombstones mutates only host-side bookkeeping, never
    // the logical queue contents; keep the observing API const.
    auto *self = const_cast<EventQueue *>(this);
    self->sweepFront();
    return heap_.front().when;
}

EventQueue::Callback
EventQueue::popFront(Tick *when)
{
    sweepFront();
    *when = heap_.front().when;
    const std::uint32_t slot = takeFront();
    Node &node = slab_[slot];
    MACH_ASSERT(node.cb != nullptr); // Raw events need fireFront().
    Callback cb = std::move(node.cb);
    releaseNode(slot);
    return cb;
}

void
EventQueue::dispatch(std::uint32_t slot)
{
    Node &node = slab_[slot];
    if (node.raw_fn != nullptr) {
        const RawFn fn = node.raw_fn;
        void *ctx = node.raw_ctx;
        const std::uint64_t token = node.raw_token;
        releaseNode(slot);
        fn(ctx, token);
    } else {
        Callback cb = std::move(node.cb);
        releaseNode(slot);
        cb();
    }
}

Tick
EventQueue::fireFront()
{
    sweepFront();
    const Tick when = heap_.front().when;
    dispatch(takeFront());
    return when;
}

std::uint64_t
EventQueue::fireTickBatch(Tick until, Tick *now, const bool *stop)
{
    if (live_ == 0)
        return 0;
    sweepFront();
    const Tick when = heap_.front().when;
    if (when > until)
        return 0;
    MACH_ASSERT(when >= *now);
    // Advance the clock before dispatch: event bodies read it as
    // their own fire time.
    *now = when;
    std::uint64_t dispatched = 0;
    for (;;) {
        dispatch(takeFront());
        ++dispatched;
        if (*stop || live_ == 0)
            break;
        // A dispatched body may have scheduled or cancelled events at
        // this very tick; re-sweep so the front is live before
        // deciding whether the batch continues.
        sweepFront();
        if (heap_.front().when != when)
            break;
    }
    return dispatched;
}

std::size_t
EventQueue::freeNodeCount() const
{
    std::size_t count = 0;
    for (std::uint32_t slot = free_head_; slot != kNil;
         slot = slab_[slot].next)
        ++count;
    return count;
}

} // namespace mach::sim
