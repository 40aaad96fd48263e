/**
 * @file
 * Pluggable shootdown-avoidance policies (beyond the 1989 baseline).
 *
 * The Figure 1 algorithm shoots down every mapping change eagerly: one
 * queued action plus one directed IPI per processor using the pmap,
 * and a synchronous rendezvous before the change may proceed. Decades
 * of follow-on work attack exactly those costs. This layer factors the
 * avoidance decisions out of ShootdownController into a strategy
 * object so they can be selected per machine (MachineConfig::
 * shootdown_policy, `machsim --shootdown-policy`) and evaluated under
 * the same stale-translation oracle as the baseline:
 *
 *  - LazyAsid: on a TLB with address-space tags, a processor that is
 *    not currently running the victim space needs no IPI at all -- the
 *    initiator marks the space's entries there as dead (a deferred
 *    flush, the software analogue of bumping an ASID generation) and
 *    the flush happens when the space is next context-loaded on that
 *    processor.
 *  - Batched: pending invalidations aimed at a processor that is
 *    already servicing a shootdown merge into its in-progress pass
 *    instead of raising a fresh IPI, bounded by a coalescing window;
 *    queued actions for the same pmap merge into one range.
 *  - RangeFlush: models hardware with ranged invalidation: between the
 *    per-entry threshold and a crossover the responder invalidates
 *    exactly [start, end); beyond the crossover it flushes only the
 *    victim space -- never the whole TLB, so bystander spaces keep
 *    their entries.
 *  - ReuseElide: "skip TLB flushes for reused pages within mmap's"
 *    (arXiv 2409.10946): every TLB fill sets the PTE's reference bit,
 *    so a valid PTE with the bit still clear provably has no cached
 *    translation anywhere and its pages need no consistency action.
 *
 * Each hook defaults to "do what 1989 did", and the Baseline policy
 * overrides nothing, so configurations that never select a policy are
 * bit-identical to the pre-policy simulator (the pinned runDigest
 * goldens enforce this). The three techniques that replace the
 * algorithm (Off, DelayedFlush, RemoteInvalidate) avoid nothing either
 * and run the Baseline object.
 */

#ifndef MACH_PMAP_POLICY_HH
#define MACH_PMAP_POLICY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "base/types.hh"
#include "hw/machine_config.hh"
#include "hw/tlb.hh"

namespace mach::kern
{
class Cpu;
class Machine;
} // namespace mach::kern

namespace mach::pmap
{

class Pmap;
class ShootdownController;
struct ShootAction;

/**
 * Strategy interface consulted by ShootdownController and Pmap at the
 * points where a shootdown (or part of one) can be avoided. All
 * defaults preserve the baseline algorithm exactly.
 */
class ShootdownPolicy
{
  public:
    ShootdownPolicy(ShootdownController &shoot, kern::Machine &machine)
        : shoot_(shoot), machine_(machine)
    {}
    virtual ~ShootdownPolicy() = default;

    ShootdownPolicy(const ShootdownPolicy &) = delete;
    ShootdownPolicy &operator=(const ShootdownPolicy &) = delete;

    /**
     * Phase-1 hook, called for each prospective target before its
     * action is queued. Returning true means the target needs neither
     * a queued action, an IPI, nor synchronization for this shootdown
     * (LazyAsid: the flush was deferred to the target's next context
     * load of the space).
     */
    virtual bool deferTarget(kern::Cpu &self, CpuId target, Pmap &pmap,
                             Vpn start, Vpn end)
    {
        (void)self;
        (void)target;
        (void)pmap;
        (void)start;
        (void)end;
        return false;
    }

    /**
     * Send hook, called per directed IPI after the action is queued
     * and the usual pending-interrupt dedup. Returning true elides the
     * IPI (Batched: the target is mid-respond and its service loop is
     * guaranteed to re-check the action-needed flag it already sees).
     */
    virtual bool elideIpi(kern::Cpu &self, CpuId target)
    {
        (void)self;
        (void)target;
        return false;
    }

    /**
     * Queue hook, called with the target's action lock held before a
     * new action is appended. Returning true means the request was
     * folded into an existing queued action (Batched range merge).
     */
    virtual bool mergeQueued(std::vector<ShootAction> &queue, Pmap &pmap,
                             Vpn start, Vpn end)
    {
        (void)queue;
        (void)pmap;
        (void)start;
        (void)end;
        return false;
    }

    /**
     * Local-invalidation hook. Returning true means the policy applied
     * its own invalidation (and charged its cost) in place of the
     * baseline per-entry-vs-full-flush rule (RangeFlush).
     */
    virtual bool invalidate(kern::Cpu &cpu, hw::SpaceId space, Vpn start,
                            Vpn end)
    {
        (void)cpu;
        (void)space;
        (void)start;
        (void)end;
        return false;
    }

    /**
     * Initiator pre-check, called by Pmap::updateMappings after the
     * lazy-evaluation check decided consistency actions are needed.
     * Returning true proves no TLB anywhere caches [start, end) so the
     * whole consistency step -- local invalidation and shootdown --
     * can be skipped (ReuseElide).
     */
    virtual bool reuseElideCheck(kern::Cpu &self, Pmap &pmap, Vpn start,
                                 Vpn end)
    {
        (void)self;
        (void)pmap;
        (void)start;
        (void)end;
        return false;
    }

    /**
     * Context-load hook, called from Pmap::activate before the pmap
     * becomes current on @p cpu (LazyAsid applies any deferred flush
     * here, stalling first if the space is mid-update).
     */
    virtual void onContextLoad(kern::Cpu &cpu, Pmap &pmap)
    {
        (void)cpu;
        (void)pmap;
    }

    // ---- Statistics (host-side; deliberately not part of runDigest,
    // like cross_node_ipis, so Baseline stays bit-identical) ----------

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

  protected:
    ShootdownController &shoot_;
    kern::Machine &machine_;
};

/** Build the policy selected by the machine's configuration. */
std::unique_ptr<ShootdownPolicy>
makeShootdownPolicy(ShootdownController &shoot, kern::Machine &machine);

} // namespace mach::pmap

#endif // MACH_PMAP_POLICY_HH
