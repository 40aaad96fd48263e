#include "hw/phys_mem.hh"

#include <algorithm>
#include <cstring>

#include "base/logging.hh"

namespace mach::hw
{

PhysMem::PhysMem(std::uint32_t frames, unsigned nodes)
    : total_frames_(frames), frames_per_node_(frames / nodes)
{
    MACH_ASSERT(frames >= 2 && nodes >= 1 && frames / nodes >= 2);
    // Each partition hands out its low PFNs first, which keeps test
    // output stable and readable. With one node this is the original
    // single free list.
    partitions_.reserve(nodes);
    for (unsigned node = 0; node < nodes; ++node) {
        const Pfn lo = node == 0 ? 1 : node * frames_per_node_;
        const Pfn hi = node + 1 == nodes ? frames
                                         : (node + 1) * frames_per_node_;
        partitions_.push_back({lo, hi, {}});
    }
}

std::uint32_t
PhysMem::freeFrames() const
{
    std::uint32_t total = 0;
    for (unsigned node = 0; node < nodes(); ++node)
        total += freeFramesOnNode(node);
    return total;
}

std::uint32_t
PhysMem::freeFramesOnNode(unsigned node) const
{
    const Partition &part = partitions_[node];
    return part.end - part.next +
           static_cast<std::uint32_t>(part.freed.size());
}

Pfn
PhysMem::allocFrame(unsigned node)
{
    MACH_ASSERT(node < nodes());
    for (unsigned offset = 0; offset < nodes(); ++offset) {
        Partition &part = partitions_[(node + offset) % nodes()];
        Pfn pfn = 0;
        if (!part.freed.empty()) {
            pfn = part.freed.back();
            part.freed.pop_back();
        } else if (part.next < part.end) {
            pfn = part.next++;
        } else {
            continue;
        }
        zeroFrame(pfn);
        return pfn;
    }
    panic("PhysMem: out of physical frames (%u total)", total_frames_);
}

void
PhysMem::freeFrame(Pfn pfn)
{
    MACH_ASSERT(validPfn(pfn));
    if (pfn < frames_.size())
        frames_[pfn].reset();
    partitions_[nodeOfPfn(pfn)].freed.push_back(pfn);
}

bool
PhysMem::validPfn(Pfn pfn) const
{
    return pfn >= 1 && pfn < total_frames_;
}

PhysMem::Frame &
PhysMem::frameFor(PAddr addr) const
{
    const Pfn pfn = addr >> kPageShift;
    MACH_ASSERT(pfn < total_frames_);
    if (pfn >= frames_.size()) {
        // Grow geometrically, but never past the last frame.
        frames_.reserve(std::min<std::size_t>(
            total_frames_, std::max<std::size_t>(2 * frames_.size(),
                                                 pfn + 1)));
        frames_.resize(pfn + 1);
    }
    auto &slot = frames_[pfn];
    if (!slot)
        slot = std::make_unique<Frame>(kPageSize, 0);
    return *slot;
}

std::uint32_t
PhysMem::read32(PAddr addr) const
{
    MACH_ASSERT((addr & 3) == 0);
    const Frame &frame = frameFor(addr);
    std::uint32_t value = 0;
    std::memcpy(&value, frame.data() + (addr & kPageMask), 4);
    return value;
}

void
PhysMem::write32(PAddr addr, std::uint32_t value)
{
    MACH_ASSERT((addr & 3) == 0);
    Frame &frame = frameFor(addr);
    std::memcpy(frame.data() + (addr & kPageMask), &value, 4);
}

std::uint8_t
PhysMem::read8(PAddr addr) const
{
    return frameFor(addr)[addr & kPageMask];
}

void
PhysMem::write8(PAddr addr, std::uint8_t value)
{
    frameFor(addr)[addr & kPageMask] = value;
}

void
PhysMem::copyFrame(Pfn dst, Pfn src)
{
    MACH_ASSERT(validPfn(dst) && validPfn(src) && dst != src);
    Frame &d = frameFor(dst << kPageShift);
    const Frame &s = frameFor(src << kPageShift);
    std::copy(s.begin(), s.end(), d.begin());
}

void
PhysMem::zeroFrame(Pfn pfn)
{
    MACH_ASSERT(pfn < total_frames_);
    if (pfn < frames_.size() && frames_[pfn])
        std::fill(frames_[pfn]->begin(), frames_[pfn]->end(), 0);
}

} // namespace mach::hw
