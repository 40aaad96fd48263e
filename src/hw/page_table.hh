/**
 * @file
 * Two-level page tables in the style of the NS32382 MMU.
 *
 * A 32-bit virtual address splits 10/10/12: the top 10 bits index a root
 * table of 1024 entries, the next 10 bits index a page-sized leaf table
 * of 1024 PTEs, and the low 12 bits are the page offset. Leaf tables are
 * allocated on demand in page-sized chunks; the pmap module exploits this
 * structure for its residual lazy evaluation ("if the pmap module ever
 * finds a missing second level page table entry, it knows that an entire
 * page of second level entries is missing", Section 7.2).
 *
 * Both table levels live in simulated physical memory, so the TLB's
 * hardware reload and reference/modify-bit writeback operate on the very
 * same words the pmap module updates -- faithfully reproducing the races
 * of Section 3. Every walk reads both levels from that memory, so a
 * rewritten PTE or a collected leaf is visible to the next walk.
 */

#ifndef MACH_HW_PAGE_TABLE_HH
#define MACH_HW_PAGE_TABLE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/types.hh"
#include "hw/phys_mem.hh"

namespace mach::hw
{

/** PTE bit layout (32-bit entries at both levels). */
namespace pte
{
constexpr std::uint32_t kValid = 1u << 0;
constexpr std::uint32_t kWrite = 1u << 1;
constexpr std::uint32_t kRef = 1u << 2;
constexpr std::uint32_t kMod = 1u << 3;
constexpr std::uint32_t kPfnShift = kPageShift;

constexpr std::uint32_t
make(Pfn pfn, Prot prot, bool ref = false, bool mod = false)
{
    std::uint32_t v = (pfn << kPfnShift) | kValid;
    if (protAllows(prot, ProtWrite))
        v |= kWrite;
    if (ref)
        v |= kRef;
    if (mod)
        v |= kMod;
    return v;
}

constexpr bool valid(std::uint32_t v) { return (v & kValid) != 0; }
constexpr bool writable(std::uint32_t v) { return (v & kWrite) != 0; }
constexpr bool referenced(std::uint32_t v) { return (v & kRef) != 0; }
constexpr bool modified(std::uint32_t v) { return (v & kMod) != 0; }
constexpr Pfn pfn(std::uint32_t v) { return v >> kPfnShift; }

constexpr Prot
prot(std::uint32_t v)
{
    if (!valid(v))
        return ProtNone;
    return writable(v) ? ProtReadWrite : ProtRead;
}
} // namespace pte

/** Result of a hardware page-table walk. */
struct WalkResult
{
    std::uint32_t pte = 0;       ///< Leaf PTE value (0 if none).
    unsigned memory_reads = 0;   ///< Accesses performed by the walker.
    bool leaf_present = false;   ///< Second-level table existed.
};

/** One pmap's two-level page table. */
class PageTable
{
  public:
    static constexpr unsigned kEntriesPerTable = kPageSize / 4;
    /** Pages of VA space covered by one leaf table. */
    static constexpr unsigned kPagesPerLeaf = kEntriesPerTable;

    explicit PageTable(PhysMem *mem);
    ~PageTable();

    PageTable(const PageTable &) = delete;
    PageTable &operator=(const PageTable &) = delete;

    /** Physical address of the root table (for diagnostics). */
    PAddr rootAddr() const;

    // ---- numaPTE-style per-node replicas ----------------------------

    /**
     * Give every NUMA node its own full copy of this table (node 0
     * keeps the primary). Replica roots and leaves are allocated from
     * the owning node's memory partition, so a node's walks (and its
     * ref/mod writebacks) stay node-local; writePte fans out to every
     * replica under the pmap lock. Call before any PTE is written.
     */
    void enableReplicas(unsigned nodes);

    unsigned replicas() const
    {
        return static_cast<unsigned>(replica_roots_.size()) + 1;
    }

    /**
     * TEST ONLY -- defer replica fan-out: writePte updates only the
     * primary and records the write; replicas catch up at the next
     * syncReplicas(). The planted bug behind
     * PlantedBug::DeferReplicaSync.
     */
    void setDeferredSync(bool on) { deferred_sync_ = on; }
    bool deferredSyncPending() const { return !pending_.empty(); }
    /** Apply deferred writes to the replicas. */
    void syncReplicas();

    /**
     * Compare every replica against the primary over [start, end),
     * ignoring the per-node ref/mod bits. Returns human-readable
     * divergence descriptions (empty = coherent); meaningful only at
     * quiescent points, like the TLB audit.
     */
    std::vector<std::string> replicaDivergence(Vpn start,
                                               Vpn end) const;

    /**
     * Hardware walk as the MMU performs it: read root entry, then leaf
     * PTE. Never allocates; returns pte = 0 when any level is missing.
     * @p node selects the walking processor's replica (0 = primary;
     * ignored unless replicas are enabled).
     */
    WalkResult walk(Vpn vpn, unsigned node = 0) const;

    /** True when the leaf table covering @p vpn exists. */
    bool leafPresent(Vpn vpn) const;

    /**
     * Read the PTE for @p vpn; 0 when unmapped (missing levels read as
     * invalid, matching hardware). With replicas enabled the ref/mod
     * bits of every replica are OR-merged in, since each node's
     * hardware writes them back into its own copy.
     */
    std::uint32_t readPte(Vpn vpn) const;

    /**
     * Write the PTE for @p vpn, allocating the leaf table on demand.
     * Writing 0 (invalid) never allocates. Fans out to every replica
     * (immediately, or at the next syncReplicas() in deferred mode).
     */
    void writePte(Vpn vpn, std::uint32_t value);

    /**
     * Physical address of the PTE word for @p vpn in @p node's replica
     * (0 = primary); 0 if the leaf is missing.
     */
    PAddr pteAddr(Vpn vpn, unsigned node = 0) const;

    /**
     * Invoke @p fn for every valid PTE with vpn in [start, end),
     * skipping whole missing leaf tables (the residual lazy-evaluation
     * structure knowledge). @p fn may rewrite the PTE via writePte.
     */
    void forEachValid(Vpn start, Vpn end,
                      const std::function<void(Vpn,
                                               std::uint32_t)> &fn) const;

    /** Count of valid PTEs in [start, end) (skips missing leaves). */
    unsigned countValid(Vpn start, Vpn end) const;

    /**
     * Free all leaf tables, invalidating every mapping. The pmap can be
     * reconstructed from scratch by subsequent page faults (Section 2).
     */
    void collect();

    /** Number of leaf tables currently allocated. */
    unsigned leafCount() const { return leaf_count_; }

  private:
    /**
     * Leaf-table base for @p node's replica at @p root_index; 0 when
     * the root entry is invalid.
     */
    PAddr leafBase(unsigned node, unsigned root_index) const;

    std::uint32_t rootEntry(Vpn vpn) const;
    /** Root frame of @p node's replica (node 0 = the primary). */
    Pfn rootOf(unsigned node) const
    {
        return node == 0 ? root_pfn_ : replica_roots_[node - 1];
    }
    /** Write @p value into one replica, allocating its leaf on demand. */
    void replicaWrite(unsigned node, Vpn vpn, std::uint32_t value);
    /** Free every leaf of one replica and zero its root. */
    void collectReplica(unsigned node);

    PhysMem *mem_;
    Pfn root_pfn_;
    unsigned leaf_count_ = 0;
    /** Replica root frames for nodes 1..N-1 (empty = no replication). */
    std::vector<Pfn> replica_roots_;
    bool deferred_sync_ = false;
    /** Writes awaiting replica fan-out (deferred mode only). */
    std::vector<std::pair<Vpn, std::uint32_t>> pending_;
};

} // namespace mach::hw

#endif // MACH_HW_PAGE_TABLE_HH
