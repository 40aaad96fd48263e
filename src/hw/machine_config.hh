/**
 * @file
 * Configuration of the simulated multiprocessor.
 *
 * The default values model the paper's testbed: a 16-processor NS32332
 * Encore Multimax with NS32382 MMUs, a shared bus with write-through
 * caches, and a free-running microsecond clock. The timing constants
 * (the hw::k* costs below) are calibrated once (see
 * bench/fig2_basic_cost) so that the Section 5.1 tester reproduces
 * Figure 2: a basic shootdown cost of ~430 us for the first processor
 * plus ~55 us per additional processor, with a bus-contention knee once
 * more than 12 processors are active. They are part of the model, not
 * knobs: no table re-tunes them.
 *
 * MachineConfig holds the knobs callers turn: machine shape, the
 * feature flags selecting the hardware-support options the paper
 * discusses in Section 9, and the policy toggles used by the evaluation
 * (lazy evaluation on/off for Table 1, instrumentation on/off for
 * Section 6.1).
 */

#ifndef MACH_HW_MACHINE_CONFIG_HH
#define MACH_HW_MACHINE_CONFIG_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "base/types.hh"

namespace mach::hw
{

// ---- Calibrated costs (Figure 2; see the file comment) ---------------

// TLB.

/** Cost of a TLB hit lookup. */
inline constexpr Tick kTlbLookupCost = 150;
/** Cost of invalidating one entry. */
inline constexpr Tick kTlbInvalidateCost = 8 * kUsec;
/** Cost of flushing the entire buffer. */
inline constexpr Tick kTlbFlushCost = 20 * kUsec;
/** Extra cost of a hardware reload (page-table walk), per level. */
inline constexpr Tick kTlbReloadCostPerLevel = 2 * kUsec;

// Memory and bus.

/** Uncontended cost of one memory access. */
inline constexpr Tick kMemAccessCost = 600;
/**
 * Additional cost per access per bus user beyond
 * MachineConfig::bus_contention_threshold.
 */
inline constexpr Tick kBusPenaltyPerUser = 6000;

// Interrupt structure.

/** Initiator-side cost to send one directed IPI. */
inline constexpr Tick kIpiSendCost = 42 * kUsec;
/** Peak uniform jitter added per IPI send. */
inline constexpr Tick kIpiSendJitter = 6 * kUsec;
/** Wire latency from send until the target can notice the IPI. */
inline constexpr Tick kIpiLatency = 15 * kUsec;
/** State save / dispatch overhead entering an interrupt handler. */
inline constexpr Tick kIntrDispatchCost = 80 * kUsec;
/** Peak uniform jitter of the dispatch (state-save variation). */
inline constexpr Tick kIntrDispatchJitter = 16 * kUsec;
/** Overhead returning from an interrupt handler. */
inline constexpr Tick kIntrReturnCost = 12 * kUsec;
// Both jitters are drawn unconditionally, and Rng::below() needs a
// positive bound.
static_assert(kIpiSendJitter > 0 && kIntrDispatchJitter > 0);

/**
 * Initiator-side fixed overhead of starting a shootdown: building
 * the list, touching the (uncached) shootdown structures, saving
 * state. Calibrated against Figure 2's ~430 us intercept.
 */
inline constexpr Tick kShootdownSetupCost = 266 * kUsec;

/** Time consumed by one timer interrupt service. */
inline constexpr Tick kTimerServiceCost = 120 * kUsec;

// Kernel primitives.

/** Acquiring / releasing an uncontended spin lock. */
inline constexpr Tick kLockAcquireCost = 6 * kUsec;
inline constexpr Tick kLockReleaseCost = 2 * kUsec;
/** Busy-wait polling interval while spinning on a lock or flag. */
inline constexpr Tick kSpinQuantum = 4 * kUsec;
// A spin poll must advance the clock, or the shootdown spin loops
// (initiator sync, responder stall, device drain) never yield to the
// processors they wait on.
static_assert(kSpinQuantum > 0);
/** Context switch cost (state save/restore, excluding TLB flush). */
inline constexpr Tick kCtxSwitchCost = 150 * kUsec;
/** Fixed overhead of a pmap operation (entry, checks). */
inline constexpr Tick kPmapOpBaseCost = 60 * kUsec;
/** Cost of the lazy-evaluation validity check, per page examined. */
inline constexpr Tick kLazyCheckCostPerPage = 500;

// Machine-independent VM.

/** Fixed overhead of servicing a page fault (trap, map lookup). */
inline constexpr Tick kFaultBaseCost = 250 * kUsec;
/** Fixed overhead of a VM address-space operation. */
inline constexpr Tick kVmOpBaseCost = 150 * kUsec;
/** Zero-filling a fresh page. */
inline constexpr Tick kZeroFillCost = 900 * kUsec;
/** Copying a page to resolve copy-on-write. */
inline constexpr Tick kPageCopyCost = 1800 * kUsec;

// Instrumentation (Section 6).

/** Cost of gathering and storing one xpr event record. */
inline constexpr Tick kXprRecordCost = 4 * kUsec;
/**
 * Responder events are recorded on CPUs [0, kXprResponderCpus) only,
 * to avoid lock contention in the instrumentation: the paper sampled
 * 5 of its 16 processors.
 */
inline constexpr unsigned kXprResponderCpus = 5;

// Section 9 hardware-support options.

/** Cost of loading the bit vector and triggering a multicast. */
inline constexpr Tick kMulticastSendCost = 22 * kUsec;
/** Cost of a broadcast IPI to all other CPUs. */
inline constexpr Tick kBroadcastSendCost = 18 * kUsec;
/** Cost for the initiator to invalidate one remote TLB's entries. */
inline constexpr Tick kRemoteInvalidateCost = 10 * kUsec;
/**
 * Cost per virtual-cache directory line examined during an
 * invalidation (MachineConfig::virtual_cache).
 */
inline constexpr Tick kVcSearchCostPerLine = 600;

// Avoidance policies.

/**
 * Batched policy: an IPI to a target is elided only when the
 * target's last shootdown IPI was posted within this window and
 * the target provably has not finished its responder pass (the
 * action flag is still up and the pass is live or pending).
 */
inline constexpr Tick kIpiCoalesceWindow = 400 * kUsec;
/**
 * RangeFlush policy: more pages than this in one invalidation and the
 * responder flushes the whole target space instead of walking the
 * range. validate() rejects RangeFlush with a tlb_flush_threshold
 * above it.
 */
inline constexpr unsigned kRangeFlushCrossover = 16;

// DMA devices and IOMMU.

/** IOMMU walk cost per page-table level (the device's "reload"). */
inline constexpr Tick kIommuWalkCostPerLevel = 3 * kUsec;
/** IOTLB probe cost preceding each DMA transfer. */
inline constexpr Tick kIotlbLookupCost = 300;
/**
 * Initiator-side cost of posting one invalidation command to a
 * device (the IOMMU command-queue write). Scaled by NUMA distance
 * when the device hangs off a remote node, like an IPI.
 */
inline constexpr Tick kDevCmdCost = 30 * kUsec;
/**
 * Bound on how long a revoke can wait for a device's in-flight
 * DMA: a device that cannot finish its transfer within this many
 * ticks of the drain request aborts it instead (the ATS-style
 * invalidate-completion deadline). This is what keeps shootdown
 * latency bounded when devices join the responder set.
 */
inline constexpr Tick kDevDrainBound = 60 * kUsec;

/** Interrupt sources, lowest priority first. */
enum class Irq : std::uint8_t
{
    Shootdown = 0,  ///< TLB-shootdown inter-processor interrupt.
    Timer = 1,      ///< Periodic scheduler clock.
    Device = 2,     ///< Disk and other device completion interrupts.
};
constexpr unsigned kNumIrqs = 3;

/**
 * Interrupt priority levels. An interrupt is deliverable when its
 * priority exceeds the CPU's current level. SplHigh masks everything,
 * matching "both the initiator and responder should disable all
 * interrupts during a shootdown" (Section 4).
 */
enum Spl : std::uint8_t
{
    Spl0 = 0,       ///< Everything enabled.
    SplSoft = 1,    ///< Shootdown IPIs masked (baseline hardware).
    SplDevice = 2,  ///< Device + timer interrupts masked as well.
    SplHigh = 3,    ///< All interrupts masked.
};

/**
 * How TLB consistency is maintained (docs/ALGORITHM.md). Baseline is
 * the paper's eager Figure-1 protocol. The four avoidance policies
 * after it elide or defer work the 1989 algorithm would have done,
 * and every one of them must keep the stale-translation oracle clean
 * across the full scenario library. The last three replace the
 * algorithm outright: nothing (the negative control), Section 3's
 * timer-driven delayed flush, or Section 9's remote invalidation.
 */
enum class ShootdownPolicy : std::uint8_t
{
    /** The paper's Figure-1 algorithm, bit-identical to PR 1-7. */
    Baseline,
    /**
     * ASID-generation lazy invalidation: when the target CPU is not
     * currently running the pmap's address space (its entries survive
     * only under tlb_asid_tags), mark the space's tag generation stale
     * in that TLB instead of interrupting the CPU. The deferred flush
     * is consumed by the context-load hook the next time the space is
     * activated there. Requires tlb_asid_tags.
     */
    LazyAsid,
    /**
     * Batched/coalesced shootdowns: a target that already has its
     * action flag raised and is inside its responder loop (or has the
     * IPI still pending) within kIpiCoalesceWindow of the last IPI
     * will observe the new queue entry on the same pass, so the
     * initiator skips the redundant IPI and merges duplicate queue
     * ranges.
     */
    Batched,
    /**
     * Range invalidation vs full-space flush: between the per-entry
     * threshold (tlb_flush_threshold) and kRangeFlushCrossover pages
     * the responder invalidates the exact range; beyond the crossover
     * it flushes only the target space's entries instead of the whole
     * buffer, preserving other spaces' working sets under ASID tags.
     */
    RangeFlush,
    /**
     * mmap-reuse flush elision (arXiv 2409.10946): skip the shootdown
     * entirely when every affected PTE is provably cached in no TLB --
     * valid but never referenced since its last fill, which this
     * simulator's fill path makes sound because every TLB fill sets
     * the reference bit at the fill instant. Requires a TLB that
     * maintains ref/mod bits (tlb_refmod not None) and software
     * reload.
     */
    ReuseElide,
    /**
     * No consistency actions: the Section 5.1 tester then detects
     * genuine inconsistencies. Exists only so tests can prove the
     * algorithm is load-bearing.
     */
    Off,
    /**
     * Section 3's technique 2: delay use of changed mappings until
     * every buffer has been flushed by code executed in response to
     * timer interrupts. Correct, but "the additional buffer flushes
     * ... can be expensive", and every mapping change waits out a
     * timer period. Requires timer interrupts and a tlb_refmod other
     * than Writeback (as on the MIPS systems that used it), since
     * nothing stalls remote processors during the update.
     */
    DelayedFlush,
    /**
     * Section 9's remote invalidation (MC88200 style): the initiator
     * shoots the entries out of remote TLBs itself, with no interrupts
     * and no responders. Requires a tlb_refmod other than Writeback.
     */
    RemoteInvalidate,
};

/** How an initiator interrupts its targets (Section 9). */
enum class IpiSend : std::uint8_t
{
    /** One directed IPI per target (the Multimax). */
    Directed,
    /** One multicast IPI to a set of CPUs at fixed cost. */
    Multicast,
    /** Broadcast IPI to all other CPUs at fixed cost (over-interrupts). */
    Broadcast,
};

/** What the TLB does with reference/modify bits (Sections 3 and 9). */
enum class TlbRefmod : std::uint8_t
{
    /** Blind writeback of the entry's PTE image (the Section 3 hazard). */
    Writeback,
    /**
     * MMU access to the reference/modify bits is an interlocked
     * read-modify-write that checks mapping validity (MC88200 style;
     * the 80386 attempts this): instead of blindly rewriting the PTE
     * from the TLB's image, the hardware reads the current PTE, faults
     * if it no longer maps validly, and otherwise ORs in ref/mod.
     * This eliminates the page-table corruption hazard, so shootdown
     * interrupts can be postponed until after the pmap change
     * (Section 9, third TLB redesign bullet).
     */
    Interlocked,
    /**
     * The TLB never writes reference/modify bits back to memory (RP3
     * style): page faults detect modifications instead, so in-progress
     * pmap updates cannot be corrupted and responders need not stall.
     */
    None,
};

/**
 * VM page-placement policy on NUMA shapes (ignored at numa_nodes == 1,
 * where every frame is node-local by construction).
 */
enum class PlacementPolicy : std::uint8_t
{
    /** Allocate the frame on the faulting CPU's node. */
    FirstTouch,
    /** Round-robin frames across nodes by virtual page number. */
    Interleave,
    /**
     * First-touch, plus migrate a page to the faulting node once it
     * has taken numa_migrate_threshold faults from remote nodes. The
     * migration itself revokes the mapping with a shootdown before the
     * frame copy -- the new stale-translation hazard the chk oracle
     * audits.
     */
    Migrate,
};

/**
 * TEST ONLY -- a protocol bug planted so the model checker's golden
 * tests can prove the stale-translation oracle catches it (see
 * docs/CHECKER.md). Never set outside tests and checker scenarios.
 */
enum class PlantedBug : std::uint8_t
{
    None,
    /**
     * Responders skip the phase-2 stall on hardware that requires it,
     * so a hardware reload (or a ref/mod writeback) can race the
     * initiator's pmap change exactly as Section 3 warns.
     */
    SkipResponderStall,
    /**
     * The host-side L0 translation cache skips its invalidation
     * maintenance, so flushes and entry retirements leave it serving
     * stale translations (a missed invalidation must be a checker
     * failure, not a silent wrong answer).
     */
    SkipL0Invalidate,
    /**
     * The lazy-asid context-load hook skips its stale-generation
     * check, so a deferred flush marked while the space was switched
     * out is never consumed when the space is next loaded -- the
     * classic forgotten generation bump. Requires the LazyAsid policy.
     */
    SkipAsidGenCheck,
    /**
     * pmap updates write the primary page table immediately but sync
     * the per-node replicas only after dropping the pmap lock, so a
     * remote hardware reload can re-cache the pre-change PTE from its
     * stale local replica. Requires numa_pt_replicas.
     */
    DeferReplicaSync,
    /**
     * A device's drain acknowledges the queued consistency actions
     * without invalidating its IOTLB entries, so a revoked translation
     * keeps serving DMA. Requires devices > 0.
     */
    SkipIotlbInvalidate,
};

/**
 * The knobs of one simulated machine. Its costs are the calibrated
 * hw::k* constants above; a member here must be set by some caller
 * (the Lint.MachineConfigKnobsAreAssigned test checks).
 */
struct MachineConfig
{
    /** Number of processors. The Multimax under test had 16. */
    unsigned ncpus = 16;

    /** Physical memory in 4 KB frames (default 64 MB). */
    std::uint32_t phys_frames = 16384;

    /** Deterministic seed for all machine-level randomness. */
    std::uint64_t seed = 0x4d616368u; // "Mach"

    // ---- TLB geometry ----------------------------------------------

    /** Entries per TLB. */
    unsigned tlb_entries = 64;

    /**
     * Host-side L0 last-translation cache in front of the TLB's entry
     * array: the most recent N (space, vpn) translations are served
     * without scanning the array. Purely a host-speed device -- hits
     * and misses, simulated costs, and replacement decisions are
     * identical to the scan, and the stale-translation oracle audits
     * the L0's servable translations exactly like TLB entries. 0
     * disables (machsim --no-l0); at most 4 slots.
     */
    unsigned tlb_l0_entries = 4;

    /**
     * Invalidation policy threshold (Section 4, omitted detail 1):
     * beyond this many pages it is cheaper to flush the whole buffer
     * than to invalidate individual entries.
     */
    unsigned tlb_flush_threshold = 4;

    // ---- Memory and bus ---------------------------------------------

    /** Peak uniform jitter per access (cache hit/miss variation). */
    Tick mem_jitter = 300;

    /**
     * Bus congestion: once more than this many CPUs are actively using
     * the bus, each access pays a penalty per extra user. Previous
     * Multimax experiments put the knee at ~12 active processors
     * (Section 7.1).
     */
    unsigned bus_contention_threshold = 12;
    /**
     * Peak random jitter per access while contended; models the doubled
     * standard deviation the paper observed at 13-15 processors.
     */
    Tick bus_contended_jitter = 15000;

    // ---- Timer ------------------------------------------------------

    /** Period of the scheduler timer interrupt (0 disables it). */
    Tick timer_period = 16 * kMsec;

    // ---- Backing store ----------------------------------------------

    /** Latency of a pagein from backing store. */
    Tick pagein_latency = 22 * kMsec;
    /** Latency of writing a dirty page to backing store. */
    Tick pageout_latency = 28 * kMsec;
    /** Pageout daemon wakes when free frames drop below this count. */
    std::uint32_t pageout_low_frames = 64;

    // ---- Instrumentation (Section 6) --------------------------------

    /** Record shootdown events into the xpr buffer. */
    bool xpr_enabled = true;
    /** Capacity of the circular event buffer. */
    std::size_t xpr_capacity = 1u << 16;

    // ---- Section 9 hardware-support options -------------------------

    /**
     * Give the shootdown IPI priority above device interrupts, so that
     * code holding device interrupts masked still takes shootdowns.
     */
    bool high_priority_ipi = false;

    /** How shootdown IPIs are sent (see the enum). */
    IpiSend ipi_send = IpiSend::Directed;

    /**
     * Software-reloaded TLB (MIPS style): reload checks whether the pmap
     * is being modified, so responders acknowledge and return instead of
     * stalling while the initiator updates the pmap.
     */
    bool tlb_software_reload = false;

    /** What the TLB does with reference/modify bits (see the enum). */
    TlbRefmod tlb_refmod = TlbRefmod::Writeback;

    /**
     * Tag TLB entries with an address-space identifier and do not flush
     * on context switch (MIPS style, Section 10): a pmap stays "in use"
     * on a processor until its entries are explicitly flushed.
     */
    bool tlb_asid_tags = false;

    /**
     * Model a VMP-style virtually-addressed cache instead of a TLB
     * (Section 9): translation state is embedded in a large cache
     * directory, and invalidating a page mapping requires "an
     * exhaustive search of the cache directory for [entries] in the
     * specified range, with a few optimizations" in software on every
     * processor that has the page mapped. Mechanically the directory
     * behaves like a large translation buffer (size tlb_entries, which
     * callers should raise to cache scale), but every consistency
     * action pays the directory-search cost below instead of a cheap
     * entry invalidate. Requires tlb_refmod None (VMP's cache is
     * software-managed).
     */
    bool virtual_cache = false;

    // ---- Policy toggles ----------------------------------------------

    /**
     * Section 8 restructuring for large machines: divide both the
     * processors and the kernel virtual address space into this many
     * pools. Pool-local kernel memory (kmem) is allocated from the
     * executing processor's pool slice, and kernel-pmap shootdowns on
     * a pool slice interrupt only that pool's processors. Soundness
     * relies on the restructured kernel's discipline that pool-local
     * memory is not shared between pools (threads using it stay
     * pool-affine), exactly as the paper proposes. 1 = the uniform
     * baseline.
     */
    unsigned kernel_pools = 1;

    /**
     * TLB consistency technique (see the enum); set it with
     * setShootdownPolicy(), which also applies its prerequisite.
     * Baseline leaves every code path, counter, and digest input
     * bit-identical to the pre-policy simulator.
     */
    ShootdownPolicy shootdown_policy = ShootdownPolicy::Baseline;

    /**
     * Lazy evaluation (Table 1): skip the shootdown when none of the
     * affected pages are mapped in the physical map.
     */
    bool lazy_evaluation = true;

    /** Per-CPU consistency-action queue depth (overflow => full flush). */
    unsigned action_queue_size = 8;

    // ---- NUMA topology (src/numa) ------------------------------------

    /**
     * Number of NUMA nodes. 1 (default) is the paper's single-bus
     * Multimax and leaves every other numa_* knob inert: the node-0
     * code paths are bit-identical to the pre-NUMA simulator (the
     * determinism-digest goldens pin this). With N > 1 the ncpus
     * processors are split into N contiguous blocks (cpu id /
     * (ncpus/N)), each block sharing a private bus and a contiguous
     * slice of physical memory, joined by a simulated interconnect.
     */
    unsigned numa_nodes = 1;

    /**
     * SLIT-style node distances (local distance is fixed at 10, as in
     * ACPI); a remote memory access or IPI pays the local cost scaled
     * by distance/10. Empty means a uniform remote distance of 25, a
     * bare number ("40") a uniform remote distance, and anything else
     * a full matrix, rows separated by ';', entries by ',' (e.g.
     * "10,25;25,10"): numa_nodes x numa_nodes, symmetric, diagonal 10.
     * Every remote distance lies in [10, 255]. validate() rejects a
     * spec numa::Topology::parseDistance() does not accept.
     */
    std::string numa_distance_spec;

    /** Page placement policy for user/pagein/zero-fill frames. */
    PlacementPolicy numa_placement = PlacementPolicy::FirstTouch;

    /**
     * Remote faults on one page before PlacementPolicy::Migrate moves
     * it to the faulting node.
     */
    unsigned numa_migrate_threshold = 4;

    /**
     * numaPTE-style per-node second-level page-table replicas: every
     * node walks (and writes ref/mod bits into) its own copy of each
     * pmap's page table, kept coherent by write fan-out under the pmap
     * lock plus the shootdown machinery. Replica divergence outside a
     * pmap operation is an oracle violation.
     */
    bool numa_pt_replicas = false;

    // ---- DMA devices and IOMMU (src/dev) -----------------------------

    /**
     * Number of DMA-capable devices (docs/DEVICES.md). 0 (default)
     * leaves the device subsystem entirely unbuilt: no responder ids,
     * no events, no RNG draws, so every existing golden digest is
     * bit-identical. Devices occupy responder ids [ncpus,
     * ncpus + devices) in the shared CpuSet id space and are placed
     * round-robin across NUMA nodes (device i on node i % numa_nodes).
     */
    unsigned devices = 0;

    /**
     * Entries per device IOTLB (the per-device translation cache in
     * front of the IOMMU page-table walker). Shares the hw::Tlb model
     * -- and therefore its generation-flush and audit machinery --
     * with the CPU TLBs, just sized separately.
     */
    unsigned iotlb_entries = 8;

    /** Duration of one DMA transfer (translate -> data movement). */
    Tick dev_transfer_cost = 120 * kUsec;

    /** TEST ONLY -- the checker's planted protocol bug, if any. */
    PlantedBug planted_bug = PlantedBug::None;

    /** Number of CPUs per node (ncpus / numa_nodes). */
    unsigned cpusPerNode() const
    {
        return ncpus / (numa_nodes ? numa_nodes : 1);
    }

    /** NUMA node a device hangs off (round-robin placement). */
    unsigned nodeOfDevice(unsigned dev) const
    {
        return dev % (numa_nodes ? numa_nodes : 1);
    }

    /** Priority of the given interrupt source under this config. */
    Spl irqPriority(Irq irq) const;

    /**
     * Select @p policy together with its TLB prerequisite: lazy-asid
     * needs tlb_asid_tags, reuse-elide needs tlb_software_reload, and
     * delayed-flush and remote-invalidate need a TLB that does not
     * blindly write ref/mod bits back (a Writeback tlb_refmod becomes
     * None). validate() still rejects a config that sets the field by
     * hand without the prerequisite.
     */
    void setShootdownPolicy(ShootdownPolicy policy);

    /** Validate invariants; calls fatal() on nonsense configurations. */
    void validate() const;
};

/** Stable CLI/report name of @p policy ("baseline", "lazy-asid", ...). */
const char *shootdownPolicyName(ShootdownPolicy policy);

/**
 * Parse a machsim --shootdown-policy value. Returns false on an
 * unknown name.
 */
bool parseShootdownPolicy(const std::string &name, ShootdownPolicy *out);

} // namespace mach::hw

#endif // MACH_HW_MACHINE_CONFIG_HH
