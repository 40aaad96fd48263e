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
 * Feature flags on MachineConfig select the Section 9 alternatives:
 * software reload, no-writeback (RP3), interlocked writeback implied by
 * no_refmod_writeback handling, remote invalidation (MC88200), and
 * address-space tags (MIPS R2000).
 *
 * Entries are tagged with the owning pmap's identity. Without ASID tags
 * the TLB is flushed on every address-space switch (as on the Multimax);
 * with them, entries from many spaces coexist.
 *
 * Host-performance organization (the simulated *costs* -- lookup cost,
 * tlb_flush_cost, vc_search_cost_per_line -- are charged by callers and
 * are completely unchanged by any of this):
 *
 *   - probes go through an open-addressed hash index keyed on
 *     (space, vpn) instead of scanning the entry array, O(1) expected;
 *   - flushAll is an O(1) generation bump: entries are live only while
 *     their fill-time generation matches the buffer's, so no scan ever
 *     clears valid bits on the hot path;
 *   - flushSpace is an O(1) per-space generation bump with the same
 *     trick, and per-space live counts make cachesSpace O(1);
 *   - with tlb_associativity > 0 the buffer is set-associative
 *     (index = hash of (space, vpn), per-set round-robin victims); the
 *     default 0 keeps the fully-associative global round-robin behavior
 *     of the original Multimax model, bit-for-bit;
 *   - an L0 last-translation cache (tlb_l0_entries slots, default 4)
 *     sits in front of both organizations: the most recent distinct
 *     (space, vpn) probes resolve by a handful of 64-bit compares with
 *     no hashing and no index walk. An L0 hit is served WITHOUT
 *     revalidating against the generations -- the invariant is that a
 *     slot is populated only while its backing entry is live, and every
 *     path that retires or flushes entries clears the matching slots.
 *     A missed invalidation would be a genuine stale-translation bug,
 *     which is why PmapSystem::auditTlbConsistency() audits the L0's
 *     servable translations (l0Translations()) exactly like entries().
 */

#ifndef MACH_HW_TLB_HH
#define MACH_HW_TLB_HH

#include <cstdint>
#include <unordered_map>
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

    // Host-side liveness tags (see file comment). An entry is live only
    // when valid and both generations match the buffer's current ones;
    // entries() reconciles the valid bits before exposing the array.
    std::uint64_t gen = 0;        ///< Buffer generation at fill time.
    std::uint64_t space_gen = 0;  ///< Space generation at fill time.
    std::uint32_t space_slot = 0; ///< Dense index of the space's state.
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
     * get their own --iotlb-entries capacity; an overridden buffer is
     * always fully associative (device IOTLBs have no set geometry).
     */
    Tlb(const MachineConfig *config, PhysMem *mem,
        unsigned entry_override = 0);

    /**
     * Probe for (space, vpn) wanting @p want access. On a write hit with
     * the modify bit clear, baseline hardware performs the asynchronous
     * ref/mod writeback to the PTE at @p pte_addr (clobbering whatever is
     * there -- the Section 3 hazard) unless tlb_no_refmod_writeback.
     */
    TlbLookup lookup(SpaceId space, Vpn vpn, Prot want, PAddr pte_addr);

    /**
     * Install a translation after a reload (hardware or software). The
     * replacement policy is round-robin: over the whole entry array
     * when fully associative (the default), within the indexed set
     * when tlb_associativity > 0.
     */
    void insert(SpaceId space, Vpn vpn, Pfn pfn, Prot prot, bool mod);

    /** Invalidate one page's entry for @p space, if cached. */
    void invalidatePage(SpaceId space, Vpn vpn);

    /** Invalidate entries for [start, end) in @p space. */
    void invalidateRange(SpaceId space, Vpn start, Vpn end);

    /** Invalidate every entry belonging to @p space. O(1). */
    void flushSpace(SpaceId space);

    /** Invalidate the whole buffer. O(1). */
    void flushAll();

    /**
     * Tagged-generation support for the lazy-asid avoidance policy
     * (ShootdownPolicy::LazyAsid): mark @p space's cached translations
     * stale WITHOUT flushing them. The entries keep serving -- that is
     * the deferral window the policy trades the IPI for -- until the
     * space is next loaded on this CPU and the context-load hook calls
     * consumeDeferredFlush(). Pure bookkeeping, no counters move.
     */
    void deferFlush(SpaceId space);

    /**
     * Apply (and clear) a pending deferred flush for @p space. Returns
     * true when a flush was actually performed, so the caller can
     * charge tlb_flush_cost for it.
     */
    bool consumeDeferredFlush(SpaceId space);

    /** True when @p space has a deferred flush pending. */
    bool hasDeferredFlush(SpaceId space) const;

    /** True when any valid entry belongs to @p space. O(1). */
    bool cachesSpace(SpaceId space) const;

    /**
     * True when an entry for (space, vpn) is cached with at least
     * @p prot rights (used by consistency-audit tests).
     */
    bool cachesMapping(SpaceId space, Vpn vpn, Prot prot) const;

    /** Count of valid entries (diagnostics). O(1). */
    unsigned validCount() const { return live_count_; }

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

    /**
     * Raw entry array (white-box inspection by audits and tests). The
     * valid bits are reconciled against the generation tags first, so
     * the returned view reads exactly as if flushes cleared eagerly.
     */
    const std::vector<TlbEntry> &entries() const;

    /**
     * Every translation the L0 cache would currently serve, as
     * entry-shaped records (valid always true, key from the slot,
     * pfn/prot/ref/mod from the backing entry). The consistency audit
     * checks these against the page tables exactly like entries();
     * with correct invalidation they are a subset of the live entries,
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
    /** Bookkeeping for one address space seen by this TLB. */
    struct SpaceState
    {
        std::uint64_t flush_gen = 0; ///< Bumped by flushSpace.
        std::uint64_t seen_gen = 0;  ///< Buffer gen `live` is valid for.
        unsigned live = 0;           ///< Live entries, under seen_gen.
        /**
         * Lazy-asid deferral: the space's translations are stale and
         * must be flushed before the space is next used on this CPU
         * (deferFlush / consumeDeferredFlush). Cleared by any
         * flushSpace, since a flush leaves nothing stale to defer.
         */
        bool deferred = false;
    };

    static constexpr std::uint32_t kEmptySlot = ~std::uint32_t{0};

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

    bool setAssociative() const { return assoc_ > 0; }
    static std::uint64_t hashKey(SpaceId space, Vpn vpn);
    bool entryLive(const TlbEntry &entry) const;
    /** Live count for a space, 0 when its state is stale. */
    unsigned spaceLive(std::uint32_t slot) const;
    /** Normalize a space's count to the current generation, then ref. */
    SpaceState &touchSpace(std::uint32_t slot);
    std::uint32_t spaceSlot(SpaceId space);
    /** Take an entry out of the live set (index slot stays, stale). */
    void retireEntry(TlbEntry &entry);
    /** Fill @p entry and enter it into the live set and the index. */
    void fillEntry(TlbEntry &entry, SpaceId space, Vpn vpn, Pfn pfn,
                   Prot prot, bool mod);

    /**
     * Locate the live entry for (space, vpn), or null. @p fill_l0
     * caches a slow-path hit in the L0; invalidation probes pass
     * false -- maintenance must not allocate into a translation
     * cache it is about to clear (under the planted
     * PlantedBug::SkipL0Invalidate bug that allocation would plant the
     * very stale slot the protocol was retiring, on every drain).
     */
    TlbEntry *find(SpaceId space, Vpn vpn, bool fill_l0 = true);
    const TlbEntry *find(SpaceId space, Vpn vpn) const;

    // Fully-associative (hash index) machinery.
    void indexInsert(std::uint32_t entry_index);
    void rebuildIndex();

    const MachineConfig *config_;
    PhysMem *mem_;
    std::vector<TlbEntry> entries_;
    /** Ways per set (0 = fully associative); see the ctor. */
    unsigned assoc_ = 0;
    unsigned next_victim_ = 0;

    /** L0 slots; only the first l0_size_ are ever used. */
    L0Slot l0_[kL0MaxEntries];
    /** Configured slot count (0 = disabled). */
    unsigned l0_size_ = 0;
    /** Round-robin refill cursor. */
    unsigned l0_fill_ = 0;
    /**
     * Negative counterpart of the L0: the key of the last find() that
     * missed. A miss can only turn into a hit through fillEntry (the
     * one place entries enter the live set), which clears the memo --
     * so a repeat of the same key (every lookup-miss-then-insert pair)
     * skips the probe chain entirely. Host-side only.
     */
    std::uint64_t last_miss_key_ = kNoL0Key;

    /** Buffer generation; bumped by flushAll. */
    std::uint64_t gen_ = 1;
    /** Live entries across all spaces. */
    unsigned live_count_ = 0;

    /** Dense per-space states plus the id -> dense slot map. */
    std::vector<SpaceState> space_states_;
    std::unordered_map<SpaceId, std::uint32_t> space_index_;

    /**
     * Open-addressed index: slot -> entry index, validated against the
     * entry's key and liveness on probe (so flushes need not touch it).
     * Only used when fully associative; sets are scanned directly.
     */
    std::vector<std::uint32_t> index_;
    std::uint32_t index_mask_ = 0;
    /** Non-empty index slots (live or stale); triggers rebuilds. */
    std::uint32_t index_used_ = 0;

    /** Per-set round-robin victim cursors (set-associative mode). */
    std::vector<std::uint32_t> set_victims_;

    /** Timeline recorder (null until attachObs; see attachObs). */
    obs::Recorder *obs_ = nullptr;
    std::uint32_t obs_track_ = 0;
};

} // namespace mach::hw

#endif // MACH_HW_TLB_HH
