/**
 * @file
 * The Mach TLB shootdown algorithm (Section 4, Figure 1).
 *
 * The algorithm forcibly interrupts processors that may hold stale TLB
 * entries ("shooting" the entries out of remote TLBs) and runs in four
 * phases:
 *
 *   1. Initiator: queue consistency-action requests for every processor
 *      using the pmap, set their action-needed flags, send interrupts
 *      to the non-idle ones, and wait for responses.
 *   2. Responders: acknowledge by leaving the active set, then spin
 *      until the initiator's pmap changes are complete (the stall that
 *      hardware reload and ref/mod writeback make necessary).
 *   3. Initiator: perform the pmap changes, then unlock the pmap.
 *   4. Responders: perform the queued TLB invalidations, clear their
 *      action-needed flags, and rejoin the active set.
 *
 * Refinements implemented here, from the paper's list:
 *   - a responder that ceased using the pmap needs no synchronization
 *     (the wait condition is "active AND still using the pmap");
 *   - concurrent initiators cannot deadlock because every initiator
 *     leaves the active set and masks interrupts first;
 *   - responders mask further shootdown interrupts while servicing one,
 *     and one responder pass services all shootdowns in progress;
 *   - idle processors get queued actions but no interrupts, and drain
 *     their queues before leaving the idle set;
 *   - a bounded per-processor action queue whose overflow escalates to
 *     a full TLB flush;
 *   - no duplicate interrupt is sent to a processor that already has a
 *     shootdown interrupt pending;
 *   - per-entry invalidation below a threshold, full flush above it.
 *
 * Section 9 hardware options (multicast/broadcast IPIs, remote TLB
 * invalidation, software reload / no-writeback TLBs, high-priority
 * software interrupt) alter the corresponding steps and are selected by
 * MachineConfig flags.
 *
 * Beyond 1989, four avoidance techniques attack the algorithm's costs
 * (one queued action and one IPI per user of the pmap, and a
 * synchronous rendezvous). MachineConfig::shootdown_policy selects at
 * most one; each is one branch at the decision point it changes, and
 * under every other technique that point does what 1989 did:
 *
 *  - LazyAsid: on a TLB with address-space tags, a processor that is
 *    not running the victim space gets neither an action nor an IPI;
 *    its entries for the space are marked dead (deferTarget) and
 *    flushed when the space is next context-loaded there
 *    (onContextLoad).
 *  - Batched: a request merges into an action already queued for the
 *    same pmap (mergeQueued), and no IPI goes to a processor already
 *    inside its service loop (elideIpi), bounded by a coalescing
 *    window.
 *  - RangeFlush: beyond the per-entry threshold invalidateLocal
 *    invalidates exactly the range, or past a crossover flushes only
 *    the victim space -- never the whole TLB.
 *  - ReuseElide (arXiv 2409.10946): a range whose valid PTEs all have
 *    a clear reference bit is cached in no TLB, so its change needs no
 *    consistency actions at all (reuseElideCheck).
 */

#ifndef MACH_PMAP_SHOOTDOWN_HH
#define MACH_PMAP_SHOOTDOWN_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "base/cpuset.hh"
#include "base/types.hh"
#include "hw/machine_config.hh"
#include "hw/tlb.hh"
#include "kern/lock.hh"

namespace mach::kern
{
class Cpu;
class Machine;
} // namespace mach::kern

namespace mach::dev
{
class DmaDevice;
} // namespace mach::dev

namespace mach::pmap
{

class Pmap;
class PmapSystem;

/** One queued TLB consistency action. */
struct ShootAction
{
    Pmap *pmap;
    Vpn start;
    Vpn end;
};

/** Per-processor shootdown state. */
struct CpuShootState
{
    CpuShootState() : action_lock("shoot-action", hw::SplHigh) {}

    /** Protects the queue (leaf lock, held briefly at SplHigh). */
    kern::SpinLock action_lock;
    std::vector<ShootAction> queue;
    /** Queue overflowed: responder must flush its entire TLB. */
    bool overflow = false;
    /** A TLB consistency action is needed on this processor. */
    bool action_needed = false;
    /**
     * This processor is inside its respond/idle-drain service loop.
     * Set before the loop's first action-needed check and cleared at
     * the instant of its final (false) check, so an initiator that
     * observes it set knows a future re-check will see any action it
     * just queued -- the invariant the Batched policy's IPI elision
     * rests on.
     */
    bool servicing = false;
    /** When the in-progress service pass began (coalescing window). */
    Tick service_entered = 0;
};

/** Machine-wide shootdown machinery. */
class ShootdownController
{
  public:
    explicit ShootdownController(PmapSystem &sys);

    /**
     * Phases 1-2, run by the initiator while holding @p pmap's lock at
     * SplHigh with its active bit clear: queue actions, interrupt the
     * non-idle users of the pmap, and wait until every one of them has
     * either acknowledged (left the active set) or stopped using the
     * pmap. On return the initiator may safely change the pmap.
     *
     * @p mapped_pages is the number of VM pages involved (recorded in
     * the instrumentation, Section 6).
     */
    void shoot(kern::Cpu &self, Pmap &pmap, Vpn start, Vpn end,
               unsigned mapped_pages);

    /** Phases 2 and 4: the shootdown interrupt service routine. */
    void respond(kern::Cpu &cpu);

    /**
     * Two-phase distributed shootdown, forwarding side: post local IPIs
     * to the node-mates an initiator on another node left pending when
     * it interrupted only this node's delegate. Any processor of the
     * node may forward -- the delegate normally does, but a concurrent
     * responder (or a processor leaving the idle set) picks the set up
     * if the delegate is slow, so liveness never hinges on one CPU.
     */
    void drainForwards(kern::Cpu &cpu);

    /**
     * Drain queued actions on a processor leaving the idle set, before
     * it rejoins the active set (Section 4's idle-processor rule).
     * Called by kern::Sched's idle loop.
     */
    void idleExit(kern::Cpu &cpu);

    /** Per-CPU full-flush epoch snapshot for the delayed-flush wait. */
    using FlushSnapshot = std::vector<std::pair<CpuId, std::uint64_t>>;

    /**
     * Technique 2 (Section 3): block the calling thread until every
     * processor in @p snapshot has performed a whole-TLB flush since
     * the snapshot was taken (or stopped using / gone idle on
     * @p pmap). The flushes are driven by timer interrupts and the
     * idle loop, so this typically costs a good fraction of a timer
     * period -- the expense that made Mach choose shootdown instead.
     */
    void delayedFlushWait(kern::Thread &thread, Pmap &pmap,
                          const FlushSnapshot &snapshot,
                          unsigned mapped_pages);

    /** Take the epoch snapshot of every other processor using @p pmap. */
    FlushSnapshot snapshotFlushes(kern::Cpu &self, Pmap &pmap) const;

    /**
     * Apply the per-entry-vs-full-flush invalidation policy to one
     * CPU's own TLB, consuming that CPU's time. Under RangeFlush a
     * range beyond the threshold is invalidated exactly, or past
     * hw::kRangeFlushCrossover its space alone is flushed.
     */
    void invalidateLocal(kern::Cpu &cpu, hw::SpaceId space, Vpn start,
                         Vpn end);

    /**
     * Context-load hook, run by Pmap::activate before @p pmap becomes
     * current on @p cpu. Under LazyAsid it applies the space's
     * deferred flush there, stalling first while the pmap is
     * mid-update; under any other technique it does nothing.
     */
    void onContextLoad(kern::Cpu &cpu, Pmap &pmap);

    /**
     * ReuseElide initiator pre-check, run by Pmap::updateMappings with
     * @p pmap locked once lazy evaluation found consistency actions
     * needed. True when no TLB anywhere can cache [start, end), so the
     * whole consistency step -- local invalidation and shootdown --
     * may be skipped. Always false under any other technique.
     */
    bool reuseElideCheck(kern::Cpu &self, Pmap &pmap, Vpn start,
                         Vpn end);

    CpuShootState &stateFor(CpuId id) { return *state_[id]; }

    /**
     * Enroll a DMA device's IOTLB in the protocol. The device's id()
     * must equal ncpus + (number already registered): devices claim
     * the tail of the CpuSet id space in registration order, and each
     * gets its own CpuShootState slot so queueAction / purgePmap treat
     * it exactly like a processor.
     */
    void registerResponder(dev::DmaDevice *device);

    /** Registered devices, indexed by (id - ncpus). */
    const std::vector<dev::DmaDevice *> &responders() const
    {
        return responders_;
    }

    /** True when this configuration requires responders to stall. */
    bool responderMustStall() const;

    /**
     * True when consistency actions must follow the pmap change
     * instead of preceding it: with remote invalidation (or postponed
     * shootdown interrupts on no-writeback TLBs) nothing stops a
     * hardware reload from re-caching a stale PTE during the update,
     * so stale entries can only be purged once the new PTEs are in
     * place. (With software reload, the reload itself stalls on the
     * locked pmap, so the pre-change order remains safe.)
     */
    bool invalidateAfterChange() const;


    /**
     * Remove queued actions referencing a pmap being destroyed,
     * escalating affected processors to a full flush so the semantics
     * stay conservative (no simulated time is consumed; destruction is
     * a host-level teardown).
     */
    void purgePmap(Pmap *pmap);

    // ---- Statistics --------------------------------------------------

    std::uint64_t initiated = 0;
    /**
     * Consistency steps the lazy-evaluation check skipped (no valid PTE
     * in the range), on every pmap the machine ever had. Host-side,
     * outside runDigest and the stats document.
     */
    std::uint64_t lazy_avoided = 0;
    std::uint64_t delayed_waits = 0;
    std::uint64_t interrupts_sent = 0;
    std::uint64_t responder_passes = 0;
    std::uint64_t idle_drains = 0;
    std::uint64_t queue_overflows = 0;
    std::uint64_t remote_invalidates = 0;
    /** Initiator-to-delegate IPIs that crossed the interconnect. */
    std::uint64_t cross_node_ipis = 0;
    /** Local IPIs posted on a delegate's behalf (phase-two fan-out). */
    std::uint64_t forwarded_ipis = 0;
    /** Invalidate commands posted to device IOTLB responders. */
    std::uint64_t device_commands = 0;
    /** Initiator spins that had to wait out an in-flight DMA. */
    std::uint64_t device_sync_waits = 0;
    /** Device commands that crossed the NUMA interconnect. */
    std::uint64_t cross_node_device_commands = 0;

    // Avoidance counters: host-side, and deliberately not part of
    // runDigest (like cross_node_ipis), so Baseline digests stay the
    // pre-avoidance goldens.

    /** Directed IPIs skipped (target already servicing / deferred). */
    std::uint64_t ipis_elided = 0;
    /** LazyAsid: flushes pushed to the target's next context load. */
    std::uint64_t flushes_deferred = 0;
    /** LazyAsid: deferred flushes actually applied at context load. */
    std::uint64_t deferred_flushes_applied = 0;
    /** Batched: actions folded into an already-queued range. */
    std::uint64_t actions_merged = 0;
    /** RangeFlush: ranged invalidations above the per-entry threshold. */
    std::uint64_t range_invalidates = 0;
    /** RangeFlush: single-space flushes beyond the crossover. */
    std::uint64_t full_space_flushes = 0;
    /** ReuseElide: consistency actions skipped by the ref-bit proof. */
    std::uint64_t reuse_elisions = 0;

  private:
    /** Queue an action on @p target's queue (initiator side). */
    void queueAction(kern::Cpu &self, CpuId target, Pmap &pmap,
                     Vpn start, Vpn end);

    /** Process a processor's queued actions (phase 4 / idle exit). */
    void drainActions(kern::Cpu &cpu);

    /**
     * LazyAsid phase-1 decision for one prospective target: true when
     * its flush of @p pmap was deferred to its next context load of
     * the space, so it needs neither a queued action, an IPI, nor
     * synchronization. Always false under any other technique.
     */
    bool deferTarget(kern::Cpu &self, CpuId target, Pmap &pmap);

    /**
     * Batched range merge, called with the target's action lock held:
     * true when [start, end) was folded into an action already queued
     * for @p pmap. Always false under any other technique.
     */
    bool mergeQueued(std::vector<ShootAction> &queue, Pmap &pmap,
                     Vpn start, Vpn end);

    /**
     * Batched IPI elision, asked per directed IPI after the action is
     * queued: true when @p target is inside its service loop (for at
     * most hw::kIpiCoalesceWindow) and will re-check the action-needed
     * flag it already sees. Always false under any other technique.
     */
    bool elideIpi(CpuId target);

    /**
     * Post one directed shootdown IPI from @p from to @p target,
     * charging @p from the send cost (scaled by NUMA distance) and its
     * jitter.
     */
    void postIpi(kern::Cpu &from, CpuId target);

    /**
     * Charge @p self for one command to device @p dev: @p base, scaled
     * by NUMA distance when the device hangs off another node (counted
     * in cross_node_device_commands).
     */
    void chargeDeviceCommand(kern::Cpu &self, const dev::DmaDevice &dev,
                             Tick base);

    /**
     * With xpr on: @p cpu's initiator record for a shootdown of
     * @p pmap begun at @p t_begin that shot at @p procs processors.
     * Reads the clock, then charges the record cost, then records.
     */
    void recordInitiator(kern::Cpu &cpu, const Pmap &pmap,
                         unsigned mapped_pages, std::size_t procs,
                         Tick t_begin);

    PmapSystem &sys_;
    kern::Machine &machine_;
    std::vector<std::unique_ptr<CpuShootState>> state_;
    std::vector<dev::DmaDevice *> responders_;
    /**
     * Per-node sets of send-list members awaiting a locally forwarded
     * IPI (their queues and action-needed flags are already set; only
     * the interrupt is outstanding). Filled by remote initiators before
     * any IPI leaves, drained by drainForwards.
     */
    std::vector<CpuSet> forward_pending_;
};

} // namespace mach::pmap

#endif // MACH_PMAP_SHOOTDOWN_HH
