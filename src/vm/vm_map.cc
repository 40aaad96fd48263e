#include "vm/vm_map.hh"

#include <algorithm>

#include "base/logging.hh"

namespace mach::vm
{

VmMap::VmMap(std::string name, VAddr range_lo, VAddr range_hi)
    : name_(std::move(name)), range_lo_(range_lo), range_hi_(range_hi),
      first_free_(range_lo), lock_(name_ + "-map")
{
    MACH_ASSERT(pageTrunc(range_lo) == range_lo);
    MACH_ASSERT(pageTrunc(range_hi) == range_hi);
    MACH_ASSERT(range_lo < range_hi);
}

VmMapEntry *
VmMap::lookup(VAddr va)
{
    auto it = entries_.upper_bound(va);
    if (it == entries_.begin())
        return nullptr;
    --it;
    VmMapEntry &entry = it->second;
    return (va >= entry.start && va < entry.end) ? &entry : nullptr;
}

VAddr
VmMap::findSpace(std::uint32_t size) const
{
    return findSpaceIn(range_lo_, range_hi_, size);
}

VAddr
VmMap::findSpaceIn(VAddr lo, VAddr hi, std::uint32_t size) const
{
    MACH_ASSERT(size > 0 && pageRound(size) == size);
    MACH_ASSERT(lo >= range_lo_ && hi <= range_hi_ && lo < hi);
    // Everything below first_free_ is mapped, so a first fit from lo
    // cannot start there; resume the scan at the entry holding (or
    // else following) the first address that could.
    VAddr candidate = std::max(lo, first_free_);
    auto it = entries_.upper_bound(candidate);
    if (it != entries_.begin())
        --it;
    for (; it != entries_.end(); ++it) {
        const auto &[start, entry] = *it;
        if (entry.end <= candidate)
            continue;
        if (start >= hi)
            break;
        if (start >= candidate && start - candidate >= size)
            return candidate;
        if (entry.end > candidate)
            candidate = entry.end;
    }
    if (candidate < hi && hi - candidate >= size)
        return candidate;
    return 0;
}

VmMapEntry *
VmMap::insert(const VmMapEntry &entry)
{
    MACH_ASSERT(pageTrunc(entry.start) == entry.start);
    MACH_ASSERT(pageTrunc(entry.end) == entry.end);
    MACH_ASSERT(entry.start < entry.end);
    MACH_ASSERT(entry.start >= range_lo_ && entry.end <= range_hi_);

    // Check against neighbours for overlap.
    auto it = entries_.upper_bound(entry.start);
    if (it != entries_.end())
        MACH_ASSERT(it->second.start >= entry.end);
    if (it != entries_.begin()) {
        auto prev = std::prev(it);
        MACH_ASSERT(prev->second.end <= entry.start);
    }

    auto [pos, inserted] = entries_.emplace(entry.start, entry);
    MACH_ASSERT(inserted);
    if (entry.start == first_free_) {
        // Closing the lowest hole may join the run to the entries
        // already mapped above it.
        for (auto next = pos;
             next != entries_.end() && next->first == first_free_; ++next)
            first_free_ = next->second.end;
    }
    return &pos->second;
}

void
VmMap::clip(VAddr va)
{
    VmMapEntry *entry = lookup(va);
    if (entry == nullptr || entry->start == va)
        return;

    VmMapEntry tail = *entry;
    const std::uint32_t delta_pages = (va - entry->start) >> kPageShift;
    tail.start = va;
    tail.offset = entry->offset + delta_pages;
    entry->end = va;
    entries_.emplace(tail.start, tail);
}

void
VmMap::erase(VAddr start)
{
    const auto erased = entries_.erase(start);
    MACH_ASSERT(erased == 1);
    // An entry below the lowest hole lay in the contiguous run, which
    // now ends at its start.
    if (start < first_free_)
        first_free_ = start;
}

unsigned
VmMap::simplify(VAddr start, VAddr end)
{
    unsigned merges = 0;
    auto it = entries_.lower_bound(start);
    if (it != entries_.begin())
        --it; // The entry just before may merge with the first inside.
    while (it != entries_.end()) {
        auto next = std::next(it);
        // The entry beginning exactly at `end` may merge with the last
        // in-range entry, so only stop strictly beyond the range.
        if (next == entries_.end() || next->second.start > end)
            break;
        VmMapEntry &a = it->second;
        const VmMapEntry &b = next->second;
        const bool contiguous =
            a.end == b.start && a.object == b.object &&
            a.offset + a.sizePages() == b.offset &&
            a.cur_prot == b.cur_prot && a.max_prot == b.max_prot &&
            a.inheritance == b.inheritance &&
            a.needs_copy == b.needs_copy && a.shared == b.shared;
        if (contiguous) {
            a.end = b.end;
            entries_.erase(next);
            ++merges;
            // Stay on 'a'; it may merge with the new neighbour too.
        } else {
            it = next;
        }
    }
    return merges;
}

std::uint64_t
VmMap::mappedBytes() const
{
    std::uint64_t total = 0;
    for (const auto &[start, entry] : entries_)
        total += entry.end - entry.start;
    return total;
}

} // namespace mach::vm
