/**
 * @file
 * Address maps: the machine-independent description of an address space.
 *
 * A VmMap is an ordered set of non-overlapping entries, each mapping a
 * page-aligned virtual range onto a window of a VmObject with current
 * and maximum protections and an inheritance attribute. All
 * authoritative mapping state lives here; pmaps are a lazily updated
 * cache of it (Section 2).
 */

#ifndef MACH_VM_VM_MAP_HH
#define MACH_VM_VM_MAP_HH

#include <cstdint>
#include <map>
#include <string>

#include "base/types.hh"
#include "kern/lock.hh"
#include "vm/vm_object.hh"

namespace mach::vm
{

/** Inheritance of an address range across task creation (Section 2). */
enum class Inherit : std::uint8_t
{
    None,  ///< Child gets nothing here.
    Share, ///< Child shares the memory read-write with the parent.
    Copy,  ///< Child gets a virtual (copy-on-write) copy.
};

/** One mapping entry. */
struct VmMapEntry
{
    VAddr start = 0;
    VAddr end = 0;
    ObjectPtr object;
    /** Page offset into the object corresponding to start. */
    std::uint32_t offset = 0;
    Prot cur_prot = ProtReadWrite;
    Prot max_prot = ProtReadWrite;
    Inherit inheritance = Inherit::Copy;
    /**
     * The entry references an object that must be copied before being
     * written through this mapping (pending copy-on-write).
     */
    bool needs_copy = false;
    /**
     * The object is read-write shared with another map (Share
     * inheritance). Virtual copies of shared entries are resolved
     * eagerly (a physical copy), because marking a shared object
     * copy-on-write would detach the sharers from each other.
     */
    bool shared = false;

    std::uint32_t sizePages() const { return (end - start) >> kPageShift; }
};

/** An address space map. */
class VmMap
{
  public:
    VmMap(std::string name, VAddr range_lo, VAddr range_hi);

    const std::string &name() const { return name_; }

    /**
     * Serializes operations on this map. A blocking lock, as in Mach:
     * waiters sleep with interrupts enabled, so a processor waiting
     * for a map lock can still take shootdown interrupts -- the
     * discipline that keeps map locks out of the lock/interrupt
     * deadlock the paper's fixed-priority rule exists to prevent
     * (Section 4).
     */
    kern::RwMutex &lock() { return lock_; }

    /** The entry containing @p va, or null. */
    VmMapEntry *lookup(VAddr va);

    /**
     * Find a free gap of @p size bytes, searching upward from the low
     * end of the map's range. Returns 0 when the space is exhausted.
     */
    VAddr findSpace(std::uint32_t size) const;

    /**
     * Like findSpace but restricted to [lo, hi) -- used for the
     * Section 8 pool slices of the kernel map.
     */
    VAddr findSpaceIn(VAddr lo, VAddr hi, std::uint32_t size) const;

    /** Insert a new entry; panics on overlap or misalignment. */
    VmMapEntry *insert(const VmMapEntry &entry);

    /**
     * Split entries so that [start, end) is exactly covered by whole
     * entries, then invoke @p fn on each covered entry in order.
     * Ranges over holes simply skip the holes.
     */
    template <typename Fn>
    void
    clipAndApply(VAddr start, VAddr end, Fn &&fn)
    {
        clip(start);
        clip(end);
        auto it = entries_.lower_bound(start);
        while (it != entries_.end() && it->second.start < end) {
            auto next = std::next(it);
            fn(it->second);
            it = next;
        }
    }

    /** Remove an entry (by its start address). */
    void erase(VAddr start);

    /**
     * Coalesce adjacent entries that are identical in everything but
     * extent (same object at contiguous offsets, same protections,
     * inheritance and copy state) -- Mach's vm_map_simplify, undoing
     * the fragmentation that clipping leaves behind. Returns the
     * number of merges performed.
     */
    unsigned simplify(VAddr start, VAddr end);

    const std::map<VAddr, VmMapEntry> &entries() const
    {
        return entries_;
    }

    /**
     * For changing what entries map (Kernel::forkTask); their extents
     * and the set of entries change only through insert(), erase(),
     * clipAndApply() and simplify(), which keep first_free_.
     */
    std::map<VAddr, VmMapEntry> &entries() { return entries_; }

    /** Total mapped bytes. */
    std::uint64_t mappedBytes() const;

    /** The first_free_ hint (white-box tests). */
    VAddr firstFree() const { return first_free_; }

  private:
    /** Split the entry containing @p va so an entry boundary lands
     *  exactly at @p va (no-op if va is already a boundary or a hole).
     */
    void clip(VAddr va);

    std::string name_;
    VAddr range_lo_;
    VAddr range_hi_;
    std::map<VAddr, VmMapEntry> entries_;
    /**
     * Mach's first_free hint: the end of the run of contiguous entries
     * that starts at range_lo_, so the lowest unmapped address. insert()
     * advances it and erase() pulls it back; clip() and simplify()
     * change no coverage, so they leave it alone. findSpaceIn() starts
     * its first-fit scan here instead of at the bottom of the map.
     */
    VAddr first_free_;
    kern::RwMutex lock_;
};

} // namespace mach::vm

#endif // MACH_VM_VM_MAP_HH
