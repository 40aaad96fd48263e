/**
 * @file
 * Per-processor translation lookaside buffer model.
 *
 * The baseline TLB has the two features that make software consistency
 * hard (Section 3):
 *
 *   1. Hardware reload: a miss walks the page table in memory and can
 *      re-cache an entry the moment it is (re)validated -- so flushing
 *      before the pmap change is useless.
 *   2. Reference/modify-bit writeback: the first write through a cached
 *      entry writes the entry's image back to the PTE in memory to set
 *      the modify bit, which can clobber a concurrent pmap update --
 *      so flushing cannot simply be postponed until after the change.
 *
 * MachineConfig selects the Section 9 alternatives: software reload,
 * a tlb_refmod that never writes ref/mod bits back (None, RP3) or
 * interlocks the update (Interlocked, MC88200), remote invalidation
 * (shootdown_policy RemoteInvalidate, MC88200), and address-space tags
 * (MIPS R2000).
 *
 * Entries are tagged with the owning pmap's identity. Without ASID tags
 * the TLB is flushed on every address-space switch (as on the Multimax);
 * with them, entries from many spaces coexist.
 *
 * Like the hardware, the buffer is a fully-associative array of entries
 * with valid bits and a round-robin victim cursor: a probe scans it and
 * a flush clears the valid bits it covers. Callers charge the simulated
 * costs (kTlbLookupCost, kTlbFlushCost, kVcSearchCostPerLine). Two
 * host-side shortcuts sit in front of the scan and never change a
 * result:
 *
 *   - an L0 last-translation cache (tlb_l0_entries slots, default 4):
 *     the most recent distinct (space, vpn) probes resolve by a handful
 *     of 64-bit compares. An L0 hit is served WITHOUT rechecking the
 *     entry -- the invariant is that a slot is populated only while its
 *     backing entry is valid, and every path that retires or flushes
 *     entries clears the matching slots. A missed invalidation would be
 *     a genuine stale-translation bug, which is why
 *     PmapSystem::auditTlbConsistency() audits the L0's servable
 *     translations (l0Translations()) exactly like entries();
 *   - a negative memo: the key of the last probe that missed, so the
 *     insert after every lookup miss skips the scan.
 */

#ifndef MACH_HW_TLB_HH
#define MACH_HW_TLB_HH

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "base/types.hh"
#include "hw/machine_config.hh"
#include "hw/page_table.hh"

namespace mach::obs
{
class Recorder;
} // namespace mach::obs

namespace mach::hw
{

/** Identifies an address space (one pmap) to the TLB. */
using SpaceId = std::uint32_t;
constexpr SpaceId kNoSpace = 0;

/** One cached translation. */
struct TlbEntry
{
    bool valid = false;
    SpaceId space = kNoSpace;
    Vpn vpn = 0;
    Pfn pfn = 0;
    Prot prot = ProtNone;
    bool ref = false;
    bool mod = false;
};

/** Outcome of a TLB probe. */
struct TlbLookup
{
    bool hit = false;
    bool prot_ok = false;       ///< Entry allows the requested access.
    bool did_writeback = false; ///< Hardware wrote ref/mod bits to memory.
    Pfn pfn = 0;
};

/** A single processor's TLB. */
class Tlb
{
  public:
    /**
     * @p entry_override resizes the buffer away from the config's CPU
     * geometry (0 keeps config->tlb_entries). Device IOTLBs use it to
     * get their own --iotlb-entries capacity.
     */
    Tlb(const MachineConfig *config, PhysMem *mem,
        unsigned entry_override = 0);

    /**
     * Probe for (space, vpn) wanting @p want access. On a write hit with
     * the modify bit clear, baseline hardware performs the asynchronous
     * ref/mod writeback to the PTE at @p pte_addr (clobbering whatever is
     * there -- the Section 3 hazard); an Interlocked tlb_refmod
     * rechecks the PTE first, and None writes nothing.
     */
    TlbLookup lookup(SpaceId space, Vpn vpn, Prot want, PAddr pte_addr);

    /**
     * Install a translation after a reload (hardware or software). The
     * replacement policy is round-robin over the whole entry array.
     */
    void insert(SpaceId space, Vpn vpn, Pfn pfn, Prot prot, bool mod);

    /** Invalidate one page's entry for @p space, if cached. */
    void invalidatePage(SpaceId space, Vpn vpn);

    /**
     * Invalidate entries for [start, end) in @p space: page by page
     * when the range is narrower than the buffer, else in one pass.
     */
    void invalidateRange(SpaceId space, Vpn start, Vpn end);

    /** Invalidate every entry belonging to @p space. */
    void flushSpace(SpaceId space);

    /** Invalidate the whole buffer. */
    void flushAll();

    /**
     * Deferred-flush support for the lazy-asid avoidance policy
     * (ShootdownPolicy::LazyAsid): mark @p space's cached translations
     * stale WITHOUT flushing them. The entries keep serving -- that is
     * the deferral window the policy trades the IPI for -- until the
     * space is next loaded on this CPU and the context-load hook calls
     * consumeDeferredFlush(). Pure bookkeeping, no counters move.
     */
    void deferFlush(SpaceId space) { deferred_.insert(space); }

    /**
     * Apply (and clear) a pending deferred flush for @p space. Returns
     * true when a flush was actually performed, so the caller can
     * charge kTlbFlushCost for it.
     */
    bool consumeDeferredFlush(SpaceId space);

    /** True when @p space has a deferred flush pending. */
    bool hasDeferredFlush(SpaceId space) const
    {
        return deferred_.contains(space);
    }

    /** True when any valid entry belongs to @p space (tests). */
    bool cachesSpace(SpaceId space) const;

    /**
     * True when an entry for (space, vpn) is cached with at least
     * @p prot rights (used by consistency-audit tests).
     */
    bool cachesMapping(SpaceId space, Vpn vpn, Prot prot) const;

    /** Count of valid entries (diagnostics). O(1). */
    unsigned validCount() const { return valid_count_; }

    /**
     * Attach the machine's timeline recorder: flush and invalidate
     * operations emit instants on @p track when recording is enabled.
     * The hot lookup/insert path is never instrumented.
     */
    void attachObs(obs::Recorder *recorder, std::uint32_t track)
    {
        obs_ = recorder;
        obs_track_ = track;
    }

    /** Raw entry array (white-box inspection by audits and tests). */
    const std::vector<TlbEntry> &entries() const { return entries_; }

    /**
     * Every translation the L0 cache would currently serve, as
     * entry-shaped records (valid always true, key from the slot,
     * pfn/prot/ref/mod from the backing entry). The consistency audit
     * checks these against the page tables exactly like entries();
     * with correct invalidation they are a subset of the valid entries,
     * so the audit only ever fires on a real missed invalidation.
     */
    std::vector<TlbEntry> l0Translations() const;

    // Event counters for benchmarks and tests.
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t flushes = 0;
    std::uint64_t single_invalidates = 0;
    /**
     * Whole-buffer flushes only; serves as the flush epoch the
     * delayed-flush consistency technique synchronizes against.
     */
    std::uint64_t full_flushes = 0;

    /**
     * L0 cache traffic (host-side only; never part of the determinism
     * digest -- the digest hashes the counters above, whose values are
     * identical with the L0 on or off).
     */
    std::uint64_t l0_hits = 0;
    std::uint64_t l0_misses = 0;

  private:
    /** L0 slot: a (space, vpn) key and the entry it resolved to. */
    struct L0Slot
    {
        /** (space << 32) | vpn; kNoL0Key marks an empty slot. */
        std::uint64_t key;
        std::uint32_t entry; ///< Index into entries_.
    };
    static constexpr unsigned kL0MaxEntries = 4;
    /** Space kNoSpace is reserved and vpns are 20-bit, so no real key
     *  ever has all 64 bits set. */
    static constexpr std::uint64_t kNoL0Key = ~std::uint64_t{0};

    static std::uint64_t l0Key(SpaceId space, Vpn vpn)
    {
        return (static_cast<std::uint64_t>(space) << 32) | vpn;
    }
    /** Populate a slot for a translation that just resolved. */
    void l0Fill(std::uint64_t key, std::uint32_t entry_index);
    /** Drop the slot caching @p key, if any (entry retirement). */
    void l0ClearKey(std::uint64_t key);
    /** Drop every slot belonging to @p space (flushSpace). */
    void l0ClearSpace(SpaceId space);
    /** Drop every slot (flushAll). */
    void l0ClearAll();

    /** Clear @p entry's valid bit and any L0 slot for its key. */
    void retireEntry(TlbEntry &entry);
    /** Fill @p entry as a valid translation. */
    void fillEntry(TlbEntry &entry, SpaceId space, Vpn vpn, Pfn pfn,
                   Prot prot, bool mod);

    /**
     * Locate the valid entry for (space, vpn), or null. @p fill_l0
     * caches a scan hit in the L0; invalidation probes pass false --
     * maintenance must not allocate into a translation cache it is
     * about to clear (under the planted
     * PlantedBug::SkipL0Invalidate bug that allocation would plant the
     * very stale slot the protocol was retiring, on every drain).
     */
    TlbEntry *find(SpaceId space, Vpn vpn, bool fill_l0 = true);

    const MachineConfig *config_;
    PhysMem *mem_;
    std::vector<TlbEntry> entries_;
    unsigned next_victim_ = 0;
    /** Count of valid entries. */
    unsigned valid_count_ = 0;

    /** L0 slots; only the first l0_size_ are ever used. */
    L0Slot l0_[kL0MaxEntries];
    /** Configured slot count (0 = disabled). */
    unsigned l0_size_ = 0;
    /** Round-robin refill cursor. */
    unsigned l0_fill_ = 0;
    /**
     * Negative counterpart of the L0: the key of the last find() that
     * missed. A miss can only turn into a hit through fillEntry (the
     * one place entries become valid), which clears the memo -- so a
     * repeat of the same key (every lookup-miss-then-insert pair)
     * skips the scan. Host-side only.
     */
    std::uint64_t last_miss_key_ = kNoL0Key;

    /**
     * Lazy-asid deferral: spaces whose translations are stale and must
     * be flushed before the space is next used on this CPU (deferFlush
     * / consumeDeferredFlush). flushSpace removes its space, since a
     * flush leaves nothing stale to defer. flushAll leaves the set
     * alone, so the next context load still performs (and charges)
     * the deferred flush.
     */
    std::unordered_set<SpaceId> deferred_;

    /** Timeline recorder (null until attachObs; see attachObs). */
    obs::Recorder *obs_ = nullptr;
    std::uint32_t obs_track_ = 0;
};

} // namespace mach::hw

#endif // MACH_HW_TLB_HH
