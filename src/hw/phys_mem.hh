/**
 * @file
 * Simulated physical memory with a frame allocator.
 *
 * Frames are backed by host memory allocated lazily on first touch, so a
 * 64 MB simulated machine costs only what it actually uses. Page tables
 * live in this memory, which is what lets the TLB's reference/modify-bit
 * writeback genuinely race with pmap updates (Section 3).
 */

#ifndef MACH_HW_PHYS_MEM_HH
#define MACH_HW_PHYS_MEM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "base/types.hh"

namespace mach::hw
{

/** Byte-addressable simulated physical memory plus frame free list. */
class PhysMem
{
  public:
    /**
     * Create memory with @p frames 4 KB frames split into @p nodes
     * contiguous NUMA partitions (node i owns [i*frames/nodes,
     * (i+1)*frames/nodes), the last node taking any remainder). Frame
     * 0 is reserved. With one node (the default) the allocator is
     * bit-identical to the pre-NUMA single free list.
     */
    explicit PhysMem(std::uint32_t frames, unsigned nodes = 1);

    std::uint32_t freeFrames() const;
    /** Free frames remaining in @p node's partition. */
    std::uint32_t freeFramesOnNode(unsigned node) const;

    unsigned nodes() const
    {
        return static_cast<unsigned>(partitions_.size());
    }

    /** NUMA node owning @p pfn's partition. */
    unsigned nodeOfPfn(Pfn pfn) const
    {
        const unsigned node = pfn / frames_per_node_;
        return node < nodes() ? node : nodes() - 1;
    }

    /**
     * Allocate a zeroed frame; panics when memory is exhausted (the
     * evaluation runs with adequate physical memory, per Section 5; the
     * pageout path frees frames before this can trigger).
     */
    Pfn allocFrame() { return allocFrame(0); }

    /**
     * Allocate a zeroed frame from @p node's partition, falling back
     * to the other partitions in deterministic ascending-offset order
     * when the preferred one is exhausted.
     */
    Pfn allocFrame(unsigned node);

    /** Return a frame to its partition's free list. */
    void freeFrame(Pfn pfn);

    /** True when @p pfn names an allocatable (non-reserved) frame. */
    bool validPfn(Pfn pfn) const;

    /** 32-bit aligned loads and stores. */
    std::uint32_t read32(PAddr addr) const;
    void write32(PAddr addr, std::uint32_t value);

    /** Byte access (used by vm_read/vm_write style copies). */
    std::uint8_t read8(PAddr addr) const;
    void write8(PAddr addr, std::uint8_t value);

    /** Copy a whole frame (used by copy-on-write resolution). */
    void copyFrame(Pfn dst, Pfn src);
    /** Zero-fill a whole frame. */
    void zeroFrame(Pfn pfn);

  private:
    using Frame = std::vector<std::uint8_t>;

    /**
     * One NUMA partition's free frames: [next, end) were never
     * allocated, and freed holds the rest, most recently freed last.
     * Popping freed before advancing next hands out frames in exactly
     * the order of a list filled high to low whose frees push on top.
     */
    struct Partition
    {
        Pfn next = 0;
        Pfn end = 0;
        std::vector<Pfn> freed;
    };

    /** @p addr's frame, materialized (zeroed) on first touch. */
    Frame &frameFor(PAddr addr) const;

    std::uint32_t total_frames_;
    std::uint32_t frames_per_node_;
    /**
     * Frame contents by PFN: null until first touch, and the table
     * itself ends at the highest PFN touched so far.
     */
    mutable std::vector<std::unique_ptr<Frame>> frames_;
    std::vector<Partition> partitions_;
};

} // namespace mach::hw

#endif // MACH_HW_PHYS_MEM_HH
