/**
 * @file
 * A reference for hw::PhysMem's frame allocation order, shared by the hw
 * and NUMA tests. It keeps the allocator's original representation: one
 * vector of free PFNs per node, filled high to low, allocated from the
 * back, with freed frames pushed on the back. Every digest and committed
 * table depends on that order.
 */

#ifndef MACH_TESTS_PHYS_MEM_REFERENCE_HH
#define MACH_TESTS_PHYS_MEM_REFERENCE_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "base/rng.hh"
#include "hw/phys_mem.hh"

namespace mach::hw::test
{

class ReferenceFrameLists
{
  public:
    ReferenceFrameLists(std::uint32_t frames, unsigned nodes)
        : per_node_(frames / nodes), lists_(nodes)
    {
        for (unsigned node = 0; node < nodes; ++node) {
            const Pfn lo = node == 0 ? 1 : node * per_node_;
            const Pfn hi = node + 1 == nodes ? frames
                                             : (node + 1) * per_node_;
            for (Pfn pfn = hi; pfn-- > lo;)
                lists_[node].push_back(pfn);
        }
    }

    /** The frame allocFrame(@p node) must return; 0 when exhausted. */
    Pfn
    alloc(unsigned node)
    {
        for (unsigned offset = 0; offset < lists_.size(); ++offset) {
            auto &list = lists_[(node + offset) % lists_.size()];
            if (list.empty())
                continue;
            const Pfn pfn = list.back();
            list.pop_back();
            return pfn;
        }
        return 0;
    }

    void free(Pfn pfn) { lists_[nodeOf(pfn)].push_back(pfn); }

    unsigned
    nodeOf(Pfn pfn) const
    {
        return std::min<unsigned>(pfn / per_node_, nodes() - 1);
    }

    unsigned nodes() const { return static_cast<unsigned>(lists_.size()); }

    std::uint32_t
    freeOnNode(unsigned node) const
    {
        return static_cast<std::uint32_t>(lists_[node].size());
    }

    std::uint32_t
    freeTotal() const
    {
        std::uint32_t total = 0;
        for (unsigned node = 0; node < nodes(); ++node)
            total += freeOnNode(node);
        return total;
    }

  private:
    std::uint32_t per_node_;
    std::vector<std::vector<Pfn>> lists_;
};

/** What a sequence exercised, so a test can insist on coverage. */
struct OrderRun
{
    /** Allocations served by a partition other than the requested one. */
    unsigned fallbacks = 0;
    /** Steps that left memory completely allocated. */
    unsigned exhausted = 0;
};

/**
 * Drive a fresh PhysMem(@p frames, @p nodes) and the reference through
 * @p steps seeded allocFrame/freeFrame steps, asserting the returned
 * PFN, freeFrames() and every freeFramesOnNode() after each one. Phases
 * alternate between mostly allocating until memory is exhausted and
 * mostly freeing (in random order) until none is held. Call it under
 * ASSERT_NO_FATAL_FAILURE.
 */
inline void
expectReferenceOrder(std::uint32_t frames, unsigned nodes,
                     std::uint64_t seed, OrderRun *run,
                     unsigned steps = 10000)
{
    PhysMem mem(frames, nodes);
    ReferenceFrameLists ref(frames, nodes);
    Rng rng(seed);
    std::vector<Pfn> held;
    bool filling = true;
    for (unsigned step = 0; step < steps; ++step) {
        if (ref.freeTotal() == 0)
            filling = false;
        else if (held.empty())
            filling = true;
        const bool alloc = ref.freeTotal() > 0 &&
                           (held.empty() || rng.chance(filling ? 0.8 : 0.2));
        if (alloc) {
            const auto node = static_cast<unsigned>(rng.below(nodes));
            const Pfn pfn = mem.allocFrame(node);
            ASSERT_EQ(pfn, ref.alloc(node))
                << "step " << step << ", node " << node;
            if (ref.nodeOf(pfn) != node)
                ++run->fallbacks;
            held.push_back(pfn);
        } else {
            const std::size_t i = rng.below(held.size());
            const Pfn pfn = held[i];
            held[i] = held.back();
            held.pop_back();
            ref.free(pfn);
            mem.freeFrame(pfn);
        }
        ASSERT_EQ(mem.freeFrames(), ref.freeTotal()) << "step " << step;
        for (unsigned node = 0; node < nodes; ++node)
            ASSERT_EQ(mem.freeFramesOnNode(node), ref.freeOnNode(node))
                << "step " << step << ", node " << node;
        if (ref.freeTotal() == 0)
            ++run->exhausted;
    }
}

} // namespace mach::hw::test

#endif // MACH_TESTS_PHYS_MEM_REFERENCE_HH
