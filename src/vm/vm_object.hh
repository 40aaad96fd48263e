/**
 * @file
 * Virtual memory objects and resident pages.
 *
 * A VmObject is a container of pages backed (optionally) by a pager.
 * Copy-on-write is implemented with shadow chains: a shadow object
 * holds privately modified pages and defers to the object it shadows
 * for everything else. Chains arise from fork with copy inheritance,
 * vm_copy, and Mach-style virtual-copy message passing (Section 2).
 */

#ifndef MACH_VM_VM_OBJECT_HH
#define MACH_VM_VM_OBJECT_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>

#include "base/types.hh"
#include "hw/phys_mem.hh"

namespace mach::vm
{

class VmObject;
using ObjectPtr = std::shared_ptr<VmObject>;

/** A resident page of an object. */
struct VmPage
{
    Pfn pfn = 0;
    /** Wired pages are never chosen by the pageout daemon. */
    bool wired = false;
    /**
     * Page is in transit to backing store; faulters must wait rather
     * than re-map a frame that is about to be freed.
     */
    bool busy = false;
    /**
     * Faults taken on this page from a node other than the frame's,
     * since the last migration (Migrate placement policy only).
     */
    std::uint16_t remote_faults = 0;
};

/** Result of a shadow-chain lookup. */
struct PageLookup
{
    VmObject *object = nullptr; ///< Object the page was found in.
    VmPage *page = nullptr;
    unsigned depth = 0;         ///< 0 = found in the top object.
};

/** A memory object: pages plus an optional shadow (backing) object. */
class VmObject
{
  public:
    /**
     * Create a top-level (anonymous) object of @p size pages. The
     * object frees its remaining resident frames back to @p mem when
     * the last reference drops.
     */
    static ObjectPtr create(hw::PhysMem *mem, std::uint32_t size_pages);

    /** Create a shadow of @p backing starting at @p backing_offset. */
    static ObjectPtr makeShadow(ObjectPtr backing,
                                std::uint32_t backing_offset,
                                std::uint32_t size_pages);

    ~VmObject();

    std::uint64_t id() const { return id_; }
    std::uint32_t sizePages() const { return size_pages_; }

    const ObjectPtr &shadowRef() const { return shadow_; }
    std::uint32_t shadowOffset() const { return shadow_offset_; }

    /** Page resident in this object at @p offset (pages), or null. */
    VmPage *lookupLocal(std::uint32_t offset);

    /**
     * Search this object and its shadow chain for the page at
     * @p offset (pages, relative to this object).
     */
    PageLookup lookupChain(std::uint32_t offset);

    /** Insert a page at @p offset; panics if one is already there. */
    VmPage *insertPage(std::uint32_t offset, Pfn pfn);

    /** Remove the page at @p offset (frame freeing is the caller's). */
    void removePage(std::uint32_t offset);

    /** All resident pages (offset -> page). */
    const std::map<std::uint32_t, VmPage> &pages() const
    {
        return pages_;
    }
    std::map<std::uint32_t, VmPage> &pages() { return pages_; }

    /** Depth of the shadow chain below this object. */
    unsigned chainDepth() const;

  private:
    VmObject() = default;

    // Atomic: see Task::next_id_ -- shared across farmed machines,
    // identity-only (the pager keys on it but never iterates in id
    // order).
    static std::atomic<std::uint64_t> next_id_;

    hw::PhysMem *mem_ = nullptr;
    std::uint64_t id_ = 0;
    std::uint32_t size_pages_ = 0;
    ObjectPtr shadow_;
    std::uint32_t shadow_offset_ = 0;
    std::map<std::uint32_t, VmPage> pages_;
};

} // namespace mach::vm

#endif // MACH_VM_VM_OBJECT_HH
