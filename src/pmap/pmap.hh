/**
 * @file
 * The physical map (pmap) module -- the machine-dependent half of the
 * Mach VM system (Section 2).
 *
 * A Pmap owns one two-level page table plus the bookkeeping the
 * shootdown algorithm needs: the set of processors using the pmap and
 * an exclusive lock. The machine-independent VM layer invokes validate /
 * invalidate / protection-change operations on virtual ranges and
 * physical pages; it is up to this module to decide when and how TLB
 * consistency actions are carried out (policy-mechanism separation).
 *
 * Pmaps are lazily updated: the VM system keeps all authoritative
 * mapping state in machine-independent structures and only calls enter()
 * from the page-fault path, so a pmap usually presents an incomplete
 * view of valid memory. That laziness is what makes the lazy-evaluation
 * check pay off (Table 1): operations on never-touched ranges find no
 * valid PTEs and skip the shootdown entirely, because TLBs do not cache
 * invalid mappings.
 */

#ifndef MACH_PMAP_PMAP_HH
#define MACH_PMAP_PMAP_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/cpuset.hh"
#include "base/types.hh"
#include "hw/page_table.hh"
#include "hw/tlb.hh"
#include "kern/lock.hh"
#include "kern/machine.hh"
#include "kern/thread.hh"

namespace mach::pmap
{

class PmapSystem;
class ShootdownController;

/** One address space's physical map. */
class Pmap
{
  public:
    Pmap(PmapSystem *sys, bool is_kernel);
    ~Pmap();

    Pmap(const Pmap &) = delete;
    Pmap &operator=(const Pmap &) = delete;

    bool isKernel() const { return is_kernel_; }
    /** TLB tag for this address space. */
    hw::SpaceId space() const { return space_; }

    hw::PageTable &table() { return table_; }
    const hw::PageTable &table() const { return table_; }

    /** True while a processor holds the pmap's exclusive lock. */
    bool locked() const { return lock_.locked(); }

    // ---- Operations invoked by the machine-independent VM layer ----
    // All run in the calling thread's context and consume simulated
    // time; all follow the Figure 1 initiator protocol when a TLB
    // inconsistency could result.

    /**
     * Establish a mapping vpn -> pfn with @p prot. Replacing or
     * downgrading an existing valid mapping is treated as a potential
     * inconsistency; creating a brand-new mapping is not (TLBs do not
     * cache invalid entries).
     */
    void enter(kern::Thread &thread, Vpn vpn, Pfn pfn, Prot prot,
               bool wired = false);

    /** Invalidate all mappings in [start, end). */
    void remove(kern::Thread &thread, Vpn start, Vpn end);

    /**
     * Set protection on [start, end). Reductions follow the shootdown
     * protocol; pure increases update PTEs without consistency actions
     * (temporary inconsistency is harmless when protection increases --
     * the technique-3 optimization of Section 3).
     */
    void protect(kern::Thread &thread, Vpn start, Vpn end, Prot prot);

    /**
     * Reduce protection on (or remove, when @p prot is ProtNone) every
     * mapping of physical page @p pfn, in whatever pmaps it appears --
     * the pageout path. Returns true when any mapping had the modify
     * bit set.
     */
    static bool pageProtect(PmapSystem &sys, kern::Thread &thread,
                            Pfn pfn, Prot prot);

    /**
     * Throw away all leaf page tables. The pmap is reconstructed from
     * scratch by subsequent page faults (Section 2).
     */
    void collect(kern::Thread &thread);

    // ---- Processor bookkeeping --------------------------------------

    /** This pmap is now translating on @p cpu. */
    void activate(kern::Cpu &cpu);
    /**
     * This pmap stops translating on @p cpu. On hardware without
     * address-space tags the whole TLB is flushed (Multimax behaviour);
     * with tags the entries -- and therefore the in-use bit -- persist
     * until explicitly flushed (Section 10 extension).
     */
    void deactivate(kern::Cpu &cpu);

    bool inUse(CpuId id) const { return in_use_.test(id); }
    /** Set of processors currently using this pmap. */
    const CpuSet &users() const { return in_use_; }
    /** True when any processor other than @p self uses this pmap. */
    bool othersUsing(CpuId self) const;
    /** Number of processors using this pmap. */
    unsigned useCount() const { return in_use_.count(); }

    /** Clear the in-use bit after an explicit full flush (ASID mode). */
    void clearInUse(CpuId id) { in_use_.clear(id); }

    // ---- Device bookkeeping -----------------------------------------
    // DMA-capable devices occupy the tail of the responder id space
    // (ids >= ncpus, see dev/dma_device.hh). The in-use set carries
    // CPU and device bits alike, so othersUsing() triggers the
    // shootdown protocol even when only a device's IOTLB still caches
    // the space.

    /** Device @p id starts caching this space in its IOTLB. */
    void attachDevice(CpuId id) { in_use_.set(id); }
    /**
     * Device @p id stops caching this space. The caller must have
     * drained pending actions and flushed the space from the IOTLB
     * first (dev::DmaDevice::detachFrom does both).
     */
    void detachDevice(CpuId id) { in_use_.clear(id); }

  private:
    friend class ShootdownController;
    friend class PmapSystem;

    /**
     * The Figure 1 initiator skeleton: disable interrupts, leave the
     * active set, take the pmap lock, decide whether an inconsistent
     * TLB may result (the lazy-evaluation check), run the shootdown
     * phases if so, apply @p change (phase 3), then unlock, rejoin the
     * active set and restore the interrupt state (which services any
     * shootdowns queued at us meanwhile).
     *
     * @p reduces must be true when the change invalidates mappings or
     * reduces protection; only such changes can create inconsistencies.
     */
    template <typename Fn>
    void updateMappings(kern::Thread &thread, Vpn start, Vpn end,
                        bool reduces, Fn &&change);

    /** Lazy-evaluation check: could this range be cached in any TLB? */
    bool mayBeCached(kern::Cpu &cpu, Vpn start, Vpn end,
                     unsigned *mapped_pages);

    PmapSystem *sys_;
    bool is_kernel_;
    hw::SpaceId space_;
    hw::PageTable table_;
    kern::SpinLock lock_;
    CpuSet in_use_;
    /** Watermarks of ever-entered vpns; bound collect()'s scan range. */
    Vpn low_water_ = ~Vpn{0};
    Vpn high_water_ = 0;
};

/** A physical-to-virtual (pv) mapping record for pageProtect. */
struct PvEntry
{
    Pmap *pmap;
    Vpn vpn;
};

/**
 * Machine-wide pmap state: the kernel pmap, the shootdown controller,
 * space-id allocation, and the pv table. Exactly one per Machine (the
 * vm::Kernel builds it); its controller registers the shootdown
 * interrupt handler.
 */
class PmapSystem
{
  public:
    explicit PmapSystem(kern::Machine &machine);
    ~PmapSystem();

    kern::Machine &machine() { return machine_; }
    Pmap &kernelPmap() { return *kernel_pmap_; }
    ShootdownController &shoot() { return *shoot_; }

    /** Create a user pmap. */
    std::unique_ptr<Pmap> createPmap();

    // ---- pv table ----------------------------------------------------

    void pvAdd(Pfn pfn, Pmap *pmap, Vpn vpn);
    void pvRemove(Pfn pfn, Pmap *pmap, Vpn vpn);
    const std::vector<PvEntry> &pvList(Pfn pfn) const;

    /** Pmap registered under a TLB space id (null when destroyed). */
    Pmap *pmapForSpace(hw::SpaceId space) const;

    /**
     * Audit every TLB on the machine against the current page tables:
     * a cached entry must never grant rights its PTE does not. Returns
     * human-readable descriptions of violations (empty = consistent).
     * Meaningful only at quiescent points (no pmap operation in
     * flight); used by the property tests and the Section 5.1 tester.
     */
    std::vector<std::string> auditTlbConsistency() const;

    /**
     * True while any pmap's exclusive lock is held, i.e. some pmap
     * operation is in flight somewhere on the machine. The checker's
     * oracle uses this to restrict audits to quiescent instants.
     */
    bool anyPmapLocked() const;

    /**
     * Install (or clear) a host-side hook invoked after every completed
     * pmap mapping operation (enter/remove/protect/collect), on the
     * initiator's fiber, once the pmap is unlocked and the initiator
     * has rejoined the active set. Consumes no simulated time; the
     * checker's stale-translation oracle lives here. A hook rather than
     * a call because every run outside the checker has no oracle.
     */
    using PostOpHook = std::function<void(Pmap &)>;
    void setPostOpHook(PostOpHook hook) { post_op_hook_ = std::move(hook); }

  private:
    friend class Pmap;

    kern::Machine &machine_;
    std::unique_ptr<ShootdownController> shoot_;
    std::unique_ptr<Pmap> kernel_pmap_;
    hw::SpaceId next_space_ = 1;
    std::unordered_map<Pfn, std::vector<PvEntry>> pv_;
    std::vector<PvEntry> empty_pv_;
    std::unordered_map<hw::SpaceId, Pmap *> spaces_;
    PostOpHook post_op_hook_;
};

} // namespace mach::pmap

#endif // MACH_PMAP_PMAP_HH
