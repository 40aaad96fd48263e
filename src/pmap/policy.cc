#include "pmap/policy.hh"

#include <algorithm>

#include "hw/bus.hh"
#include "kern/cpu.hh"
#include "kern/machine.hh"
#include "pmap/pmap.hh"
#include "pmap/shootdown.hh"

namespace mach::pmap
{

namespace
{

/** The 1989 algorithm, exactly: every hook keeps its default. */
class BaselinePolicy : public ShootdownPolicy
{
  public:
    using ShootdownPolicy::ShootdownPolicy;
};

/**
 * ASID-generation lazy invalidation. With address-space tags the
 * entries of a space that is *not current* on some processor are mere
 * residue: that processor cannot translate through them until the
 * space is context-loaded again. So instead of interrupting it, mark
 * the residue dead (a deferred flush -- the software equivalent of
 * bumping the space's ASID generation) and clear the in-use bit; the
 * context-load hook settles the debt before the space can translate
 * there again.
 *
 * Safety: translations only ever come from the current space, so the
 * residue is unreachable while the flag is set; Pmap::activate runs
 * the hook before the space becomes current; the hook stalls while
 * the pmap is mid-update, so the flush cannot land between a defer
 * decision and the pmap change it covers (that would let the reload
 * walk re-cache pre-change PTEs). PlantedBug::SkipAsidGenCheck plants
 * exactly that omitted-flush bug for the checker to find.
 */
class LazyAsidPolicy : public ShootdownPolicy
{
  public:
    using ShootdownPolicy::ShootdownPolicy;

    bool
    deferTarget(kern::Cpu &self, CpuId target, Pmap &pmap, Vpn start,
                Vpn end) override
    {
        (void)start;
        (void)end;
        if (pmap.isKernel())
            return false; // The kernel space is current everywhere.
        kern::Cpu &cpu = machine_.cpu(target);
        if (cpu.cur_pmap == &pmap)
            return false; // Live translations: must interrupt.
        cpu.tlb().deferFlush(pmap.space());
        pmap.clearInUse(target);
        self.memAccess(1);
        ++flushes_deferred;
        if (!cpu.idle &&
            !machine_.intr().pending(target, hw::Irq::Shootdown))
            ++ipis_elided;
        return true;
    }

    void
    onContextLoad(kern::Cpu &cpu, Pmap &pmap) override
    {
        if (pmap.isKernel())
            return;
        hw::Tlb &tlb = cpu.tlb();
        if (!tlb.hasDeferredFlush(pmap.space()))
            return;
        if (machine_.cfg().planted_bug ==
            hw::PlantedBug::SkipAsidGenCheck) {
            // PLANTED BUG (PlantedBug::SkipAsidGenCheck): load the space
            // without applying the deferred flush -- the "skipped
            // generation bump". The stale residue becomes reachable
            // the instant the space is current; the checker's oracle
            // and the broken-asid scenario exist to catch this.
            return;
        }
        if (pmap.locked()) {
            // The space is mid-update: flushing now would let the
            // reload walk re-cache pre-change PTEs. Stall like a
            // responder -- leaving the active set keeps a concurrent
            // initiator's rendezvous deadlock-free.
            const bool was_active = cpu.active;
            cpu.active = false;
            hw::Bus::User bus_user(cpu.bus());
            while (pmap.locked())
                cpu.spinOnce();
            cpu.active = was_active;
        }
        if (tlb.consumeDeferredFlush(pmap.space())) {
            ++deferred_flushes_applied;
            cpu.advanceNoPoll(hw::kTlbFlushCost);
        }
    }
};

/**
 * Batched / coalesced shootdowns. Two coalescing levers: (a) queued
 * actions for the same pmap merge into one covering range, so a
 * responder pass does one ranged invalidation instead of several;
 * (b) a directed IPI is elided when the target is already inside its
 * respond/idle-drain service loop -- its loop is guaranteed to
 * re-check the action-needed flag we just set, so the interrupt would
 * only buy a redundant second dispatch. The elision is bounded by
 * hw::kIpiCoalesceWindow: a target that has been servicing longer than
 * the window (e.g. parked on a long stall) gets the IPI anyway, so
 * coalescing can delay a wakeup by at most the window.
 *
 * Safety: the servicing flag is set before the service loop's first
 * action-needed check and cleared at the same instant as its last
 * (false) check, with no simulated time in between -- so an initiator
 * that observes it set has its freshly-queued action ordered before a
 * future re-check of the loop condition, never after the final one.
 */
class BatchedPolicy : public ShootdownPolicy
{
  public:
    using ShootdownPolicy::ShootdownPolicy;

    bool
    mergeQueued(std::vector<ShootAction> &queue, Pmap &pmap, Vpn start,
                Vpn end) override
    {
        for (ShootAction &action : queue) {
            if (action.pmap != &pmap)
                continue;
            // Fold overlapping or adjacent ranges; disjoint ranges of
            // the same pmap also merge (the responder invalidates a
            // superset, which is always conservative).
            action.start = std::min(action.start, start);
            action.end = std::max(action.end, end);
            ++actions_merged;
            return true;
        }
        return false;
    }

    bool
    elideIpi(kern::Cpu &self, CpuId target) override
    {
        (void)self;
        const CpuShootState &st = shoot_.stateFor(target);
        if (!st.servicing)
            return false;
        if (machine_.now() - st.service_entered > hw::kIpiCoalesceWindow)
            return false;
        ++ipis_elided;
        return true;
    }
};

/**
 * Range invalidation with a full-space-flush crossover. The baseline
 * escalates anything beyond tlb_flush_threshold to a whole-TLB flush,
 * evicting every bystander space; this policy models hardware with a
 * ranged invalidate: up to kRangeFlushCrossover pages it invalidates
 * exactly [start, end) (same per-page cost as the baseline's
 * per-entry loop), and beyond that it flushes only the victim space.
 * The win is not a cheaper instant -- it is every unrelated entry
 * that survives and saves a reload later.
 */
class RangeFlushPolicy : public ShootdownPolicy
{
  public:
    using ShootdownPolicy::ShootdownPolicy;

    bool
    invalidate(kern::Cpu &cpu, hw::SpaceId space, Vpn start,
               Vpn end) override
    {
        const hw::MachineConfig &cfg = machine_.cfg();
        if (cfg.virtual_cache)
            return false; // Directory search; ranges buy nothing.
        const unsigned npages = end - start;
        if (npages <= cfg.tlb_flush_threshold)
            return false; // Identical to the baseline per-entry loop.
        if (npages <= hw::kRangeFlushCrossover) {
            cpu.tlb().invalidateRange(space, start, end);
            cpu.advanceNoPoll(hw::kTlbInvalidateCost * npages);
            ++range_invalidates;
        } else {
            cpu.tlb().flushSpace(space);
            cpu.advanceNoPoll(hw::kTlbFlushCost);
            ++full_space_flushes;
        }
        return true;
    }
};

/**
 * mmap-reuse flush elision (arXiv 2409.10946). Every TLB fill sets
 * the PTE's reference bit at the fill instant, so a valid PTE whose
 * bit is still clear provably has no translation cached in any TLB
 * (or L0 slot) on the machine -- and invalid PTEs are never cached at
 * all. An operation whose whole range passes that test needs no
 * consistency actions: this is exactly the freshly-reused, never-yet-
 * touched mmap region.
 *
 * Race-freedom: the scan runs under the pmap lock, and with software
 * reload (required by validate()) a TLB miss stalls on a locked pmap
 * before walking -- so no fill of this space can land between the
 * scan and the completed change. NUMA replicas are covered because
 * readPte OR-merges the per-node reference bits.
 */
class ReuseElidePolicy : public ShootdownPolicy
{
  public:
    using ShootdownPolicy::ShootdownPolicy;

    bool
    reuseElideCheck(kern::Cpu &self, Pmap &pmap, Vpn start,
                    Vpn end) override
    {
        // Bound the scan: past this many pages the check costs more
        // than the shootdown it might save.
        constexpr unsigned kScanCap = 64;
        const unsigned npages = end - start;
        if (npages == 0 || npages > kScanCap)
            return false;
        self.advanceNoPoll(hw::kLazyCheckCostPerPage * npages);
        // One host instant for the whole scan: fills of this space are
        // stalled on the pmap lock we hold, so the verdict stays true
        // until the operation completes.
        for (Vpn vpn = start; vpn < end; ++vpn) {
            const std::uint32_t pte = pmap.table().readPte(vpn);
            if (hw::pte::valid(pte) && hw::pte::referenced(pte))
                return false;
        }
        ++reuse_elisions;
        return true;
    }
};

} // namespace

std::unique_ptr<ShootdownPolicy>
makeShootdownPolicy(ShootdownController &shoot, kern::Machine &machine)
{
    switch (machine.cfg().shootdown_policy) {
      case hw::ShootdownPolicy::LazyAsid:
        return std::make_unique<LazyAsidPolicy>(shoot, machine);
      case hw::ShootdownPolicy::Batched:
        return std::make_unique<BatchedPolicy>(shoot, machine);
      case hw::ShootdownPolicy::RangeFlush:
        return std::make_unique<RangeFlushPolicy>(shoot, machine);
      case hw::ShootdownPolicy::ReuseElide:
        return std::make_unique<ReuseElidePolicy>(shoot, machine);
      default: // Baseline, and the techniques that replace it.
        return std::make_unique<BaselinePolicy>(shoot, machine);
    }
}

} // namespace mach::pmap
