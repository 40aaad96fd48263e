#include "xpr/xpr.hh"

#include "base/logging.hh"

namespace mach::xpr
{

Buffer::Buffer(std::size_t capacity) : capacity_(capacity)
{
    MACH_ASSERT(capacity > 0);
}

void
Buffer::reset()
{
    head_ = 0;
    count_ = 0;
    overflowed_ = false;
}

void
Buffer::record(const Event &event)
{
    if (!enabled_)
        return;
    if (ring_.size() < capacity_) {
        // Still growing toward the configured capacity; the write
        // position is the end of the vector by construction.
        ring_.push_back(event);
        head_ = ring_.size() == capacity_ ? 0 : ring_.size();
        ++count_;
        return;
    }
    ring_[head_] = event;
    head_ = (head_ + 1) % capacity_;
    if (count_ < capacity_)
        ++count_;
    else
        overflowed_ = true;
}

std::size_t
Buffer::size() const
{
    return count_;
}

} // namespace mach::xpr
