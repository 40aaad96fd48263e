#include "pmap/pmap.hh"

#include <algorithm>
#include <cstdio>

#include "base/logging.hh"
#include "dev/dma_device.hh"
#include "kern/sched.hh"
#include "obs/probe.hh"
#include "pmap/shootdown.hh"
#include "vm/kernel.hh"
#include "xpr/xpr.hh"

namespace mach::pmap
{

// ---------------------------------------------------------------------
// Pmap
// ---------------------------------------------------------------------

Pmap::Pmap(PmapSystem *sys, bool is_kernel)
    : sys_(sys), is_kernel_(is_kernel), space_(sys->next_space_++),
      table_(&sys->machine().mem()),
      lock_(is_kernel ? "kernel-pmap" : "user-pmap", hw::SplHigh)
{
    const hw::MachineConfig &cfg = sys->machine().cfg();
    if (cfg.numa_pt_replicas && sys->machine().numaNodes() > 1) {
        table_.enableReplicas(sys->machine().numaNodes());
        if (cfg.planted_bug == hw::PlantedBug::DeferReplicaSync)
            table_.setDeferredSync(true);
    }
    sys_->spaces_[space_] = this;
}

Pmap::~Pmap()
{
    // Host-level teardown (no simulated time): drop pv entries that
    // still reference this pmap, scrub any consistency actions queued
    // against it (e.g. on idle processors), and invalidate any TLB
    // entries tagged with its space so no stale state dangles.
    if (low_water_ < high_water_) {
        table_.forEachValid(low_water_, high_water_,
                            [this](Vpn vpn, std::uint32_t entry) {
                                sys_->pvRemove(hw::pte::pfn(entry), this,
                                               vpn);
                            });
    }
    sys_->shoot().purgePmap(this);
    for (CpuId id = 0; id < sys_->machine().ncpus(); ++id) {
        sys_->machine().cpu(id).tlb().flushSpace(space_);
        if (sys_->machine().cpu(id).cur_pmap == this)
            sys_->machine().cpu(id).cur_pmap = nullptr;
    }
    for (dev::DmaDevice *dev : sys_->shoot().responders())
        dev->tlb().flushSpace(space_);
    sys_->spaces_.erase(space_);
}

bool
Pmap::othersUsing(CpuId self) const
{
    CpuSet others = in_use_;
    others.clear(self);
    return !others.empty();
}

void
Pmap::activate(kern::Cpu &cpu)
{
    // Context-load hook: runs before the space becomes current, so a
    // lazily deferred flush (LazyAsid) is applied while the space's
    // residue is still unreachable.
    sys_->shoot().onContextLoad(cpu, *this);
    in_use_.set(cpu.id());
    cpu.cur_pmap = this;
}

void
Pmap::deactivate(kern::Cpu &cpu)
{
    if (cpu.cur_pmap == this)
        cpu.cur_pmap = nullptr;
    if (sys_->machine().cfg().tlb_asid_tags) {
        // Section 10 extension: entries survive the context switch, so
        // the pmap remains in use here until explicitly flushed by a
        // later consistency action.
        return;
    }
    // Multimax behaviour: the TLB is flushed on context switch, so no
    // entries for this space survive.
    cpu.tlb().flushAll();
    in_use_.clear(cpu.id());
}

bool
Pmap::mayBeCached(kern::Cpu &cpu, Vpn start, Vpn end,
                  unsigned *mapped_pages)
{
    const hw::MachineConfig &cfg = sys_->machine().cfg();
    if (cfg.lazy_evaluation) {
        // The full lazy-evaluation check: TLBs cannot cache invalid
        // mappings, so a range with no valid PTEs needs no shootdown.
        const unsigned mapped = table_.countValid(start, end);
        cpu.advanceNoPoll(hw::kLazyCheckCostPerPage * (mapped + 1));
        *mapped_pages = mapped;
        return mapped > 0;
    }

    // Lazy evaluation disabled (the Table 1 experiment): only the
    // residual structure knowledge remains -- a missing second-level
    // table means an entire page of PTEs is missing, so whole-leaf
    // holes are still skipped.
    *mapped_pages = end - start;
    constexpr Vpn leaf_span = hw::PageTable::kPagesPerLeaf;
    for (Vpn vpn = start; vpn < end;
         vpn = (vpn / leaf_span + 1) * leaf_span) {
        if (table_.leafPresent(vpn))
            return true;
    }
    return false;
}

template <typename Fn>
void
Pmap::updateMappings(kern::Thread &thread, Vpn start, Vpn end,
                     bool reduces, Fn &&change)
{
    kern::Cpu &cpu = thread.cpu();
    const hw::MachineConfig &cfg = sys_->machine().cfg();

    // Figure 1 prologue: s = disable_interrupts(); active[mycpu] =
    // FALSE; lock_pmap(pmap). Leaving the active set before spinning on
    // the lock is what makes concurrent initiators deadlock-free.
    const hw::Spl saved = cpu.setSpl(hw::SplHigh);
    cpu.active = false;
    lock_.rawLock(cpu);
    cpu.advanceNoPoll(hw::kPmapOpBaseCost);

    bool need_consistency =
        reduces && cfg.shootdown_policy != hw::ShootdownPolicy::Off;
    unsigned mapped = 0;
    if (need_consistency) {
        need_consistency = mayBeCached(cpu, start, end, &mapped);
        if (!need_consistency)
            ++sys_->shoot().lazy_avoided;
    }
    if (need_consistency &&
        sys_->shoot().reuseElideCheck(cpu, *this, start, end)) {
        // ReuseElide: no page of the range has been referenced
        // since its last consistency-clean instant, so no TLB anywhere
        // caches it and the change needs no consistency actions.
        need_consistency = false;
    }

    const bool delayed =
        cfg.shootdown_policy == hw::ShootdownPolicy::DelayedFlush;

    // On baseline (and software-reload) hardware the consistency
    // actions precede the change; on remote-invalidate or postponed-
    // interrupt hardware they must follow it (see
    // ShootdownController::invalidateAfterChange).
    const bool after = sys_->shoot().invalidateAfterChange();
    auto consistency_actions = [&] {
        if (in_use_.test(cpu.id()))
            sys_->shoot().invalidateLocal(cpu, space_, start, end);
        if (othersUsing(cpu.id()))
            sys_->shoot().shoot(cpu, *this, start, end, mapped);
    };

    ShootdownController::FlushSnapshot snapshot;
    if (need_consistency && delayed) {
        // Technique 2: invalidate locally, remember every other
        // user's flush epoch, and wait (after the change, outside the
        // lock) for timer-driven flushes to catch up.
        if (in_use_.test(cpu.id()))
            sys_->shoot().invalidateLocal(cpu, space_, start, end);
        snapshot = sys_->shoot().snapshotFlushes(cpu, *this);
    } else if (need_consistency && !after) {
        consistency_actions();
    }

    // Phase 3: make changes to the physical map.
    change(cpu);

    if (need_consistency && !delayed && after)
        consistency_actions();

    lock_.rawUnlock(cpu);
    cpu.active = true;

    if (table_.deferredSyncPending()) {
        // TEST ONLY (PlantedBug::DeferReplicaSync): replica fan-out was
        // deferred past the unlock and the active-set rejoin, so a
        // released responder whose stall-exit, drain, and reload all
        // land before the sync below re-caches a pre-change PTE from
        // its node-local replica. The window is one tick wide and a
        // responder's drain alone costs microseconds, so the
        // unperturbed run survives; detection requires a schedule that
        // stretches this event (the explorer's golden find).
        cpu.advanceNoPoll(1);
        table_.syncReplicas();
    }

    // Restoring the interrupt state services any shootdown queued at us
    // while we were initiating ("the interrupts will be acted upon
    // before performing any memory references that may use inconsistent
    // TLB entries").
    cpu.setSpl(saved);

    if (need_consistency && delayed && !snapshot.empty())
        sys_->shoot().delayedFlushWait(thread, *this, snapshot, mapped);

    if (sys_->post_op_hook_)
        sys_->post_op_hook_(*this);
}

void
Pmap::enter(kern::Thread &thread, Vpn vpn, Pfn pfn, Prot prot, bool wired)
{
    (void)wired;
    const std::uint32_t old = table_.readPte(vpn);
    const bool reduces =
        hw::pte::valid(old) && (hw::pte::pfn(old) != pfn ||
                                protReduces(hw::pte::prot(old), prot));

    updateMappings(thread, vpn, vpn + 1, reduces, [&](kern::Cpu &cpu) {
        const std::uint32_t cur = table_.readPte(vpn);
        cpu.memAccess(2);
        bool ref = false, mod = false;
        if (hw::pte::valid(cur)) {
            if (hw::pte::pfn(cur) != pfn) {
                sys_->pvRemove(hw::pte::pfn(cur), this, vpn);
                sys_->pvAdd(pfn, this, vpn);
            } else {
                ref = hw::pte::referenced(cur);
                mod = hw::pte::modified(cur);
            }
        } else {
            sys_->pvAdd(pfn, this, vpn);
        }
        table_.writePte(vpn, hw::pte::make(pfn, prot, ref, mod));
        // Drop any stale local entry so the retried access reloads the
        // new PTE instead of re-faulting on the cached one.
        cpu.tlb().invalidatePage(space_, vpn);

        if (vpn < low_water_)
            low_water_ = vpn;
        if (vpn >= high_water_)
            high_water_ = vpn + 1;
    });
}

void
Pmap::remove(kern::Thread &thread, Vpn start, Vpn end)
{
    updateMappings(thread, start, end, true, [&](kern::Cpu &cpu) {
        table_.forEachValid(start, end,
                            [&](Vpn vpn, std::uint32_t entry) {
                                cpu.memAccess(2);
                                sys_->pvRemove(hw::pte::pfn(entry), this,
                                               vpn);
                                table_.writePte(vpn, 0);
                            });
    });
}

void
Pmap::protect(kern::Thread &thread, Vpn start, Vpn end, Prot prot)
{
    if (prot == ProtNone) {
        remove(thread, start, end);
        return;
    }
    // Only the removal of write permission can strand inconsistent
    // entries; additions of permission are repaired lazily by faults.
    const bool reduces = !protAllows(prot, ProtWrite);

    updateMappings(thread, start, end, reduces, [&](kern::Cpu &cpu) {
        table_.forEachValid(
            start, end, [&](Vpn vpn, std::uint32_t entry) {
                cpu.memAccess(2);
                table_.writePte(
                    vpn, hw::pte::make(hw::pte::pfn(entry), prot,
                                       hw::pte::referenced(entry),
                                       hw::pte::modified(entry)));
                cpu.tlb().invalidatePage(space_, vpn);
            });
    });
}

bool
Pmap::pageProtect(PmapSystem &sys, kern::Thread &thread, Pfn pfn,
                  Prot prot)
{
    // Copy the pv list: removals mutate it underneath us.
    const std::vector<PvEntry> mappings = sys.pvList(pfn);
    bool was_modified = false;
    for (const PvEntry &pv : mappings) {
        const std::uint32_t entry = pv.pmap->table_.readPte(pv.vpn);
        if (hw::pte::modified(entry))
            was_modified = true;
        if (prot == ProtNone)
            pv.pmap->remove(thread, pv.vpn, pv.vpn + 1);
        else
            pv.pmap->protect(thread, pv.vpn, pv.vpn + 1, prot);
    }
    return was_modified;
}

void
Pmap::collect(kern::Thread &thread)
{
    if (low_water_ >= high_water_)
        return; // Nothing was ever entered.
    const Vpn start = low_water_;
    const Vpn end = high_water_;
    updateMappings(thread, start, end, true, [&](kern::Cpu &cpu) {
        table_.forEachValid(start, end,
                            [&](Vpn vpn, std::uint32_t entry) {
                                cpu.memAccess(1);
                                sys_->pvRemove(hw::pte::pfn(entry), this,
                                               vpn);
                            });
        table_.collect();
        low_water_ = ~Vpn{0};
        high_water_ = 0;
    });
}

// ---------------------------------------------------------------------
// PmapSystem
// ---------------------------------------------------------------------

PmapSystem::PmapSystem(kern::Machine &machine) : machine_(machine)
{
    shoot_ = std::make_unique<ShootdownController>(*this);
    kernel_pmap_ = std::unique_ptr<Pmap>(new Pmap(this, true));
    // The kernel is a multi-threaded task potentially executing on all
    // processors, so its pmap is permanently in use everywhere.
    for (CpuId id = 0; id < machine_.ncpus(); ++id)
        kernel_pmap_->in_use_.set(id);
}

PmapSystem::~PmapSystem()
{
    // The kernel pmap's teardown uses the pv table and the space map,
    // so it must run before they are destroyed.
    kernel_pmap_.reset();
}

std::unique_ptr<Pmap>
PmapSystem::createPmap()
{
    return std::unique_ptr<Pmap>(new Pmap(this, false));
}

void
PmapSystem::pvAdd(Pfn pfn, Pmap *pmap, Vpn vpn)
{
    pv_[pfn].push_back({pmap, vpn});
}

void
PmapSystem::pvRemove(Pfn pfn, Pmap *pmap, Vpn vpn)
{
    auto it = pv_.find(pfn);
    if (it == pv_.end())
        return;
    auto &list = it->second;
    list.erase(std::remove_if(list.begin(), list.end(),
                              [&](const PvEntry &pv) {
                                  return pv.pmap == pmap && pv.vpn == vpn;
                              }),
               list.end());
    if (list.empty())
        pv_.erase(it);
}

const std::vector<PvEntry> &
PmapSystem::pvList(Pfn pfn) const
{
    auto it = pv_.find(pfn);
    return it == pv_.end() ? empty_pv_ : it->second;
}

Pmap *
PmapSystem::pmapForSpace(hw::SpaceId space) const
{
    auto it = spaces_.find(space);
    return it == spaces_.end() ? nullptr : it->second;
}

bool
PmapSystem::anyPmapLocked() const
{
    for (const auto &[space, pmap] : spaces_) {
        if (pmap->locked())
            return true;
    }
    return false;
}

std::vector<std::string>
PmapSystem::auditTlbConsistency() const
{
    std::vector<std::string> violations;
    char buf[160];
    // CPU TLBs and device IOTLBs are audited alike: an entry must never
    // grant rights its PTE does not. Entries whose space `excused`
    // accepts are skipped. The host-side L0 serves translations without
    // rechecking the entry array, so a missed L0 invalidation is a
    // genuine stale-translation hazard: everything it would serve gets
    // the same checks, except slots that exactly mirror a valid entry
    // (already audited; with correct L0 maintenance, every slot).
    auto auditTlb = [&](const std::string &label, const hw::Tlb &tlb,
                        auto excused) {
        auto check = [&](const hw::TlbEntry &entry, const char *where) {
            const Pmap *pmap = pmapForSpace(entry.space);
            if (pmap == nullptr) {
                std::snprintf(buf, sizeof(buf),
                              "%s %scaches vpn 0x%x for a destroyed "
                              "space %u",
                              label.c_str(), where, entry.vpn,
                              entry.space);
                violations.emplace_back(buf);
                return;
            }
            const std::uint32_t pte = pmap->table().readPte(entry.vpn);
            if (!hw::pte::valid(pte) ||
                hw::pte::pfn(pte) != entry.pfn ||
                !protAllows(hw::pte::prot(pte), entry.prot)) {
                std::snprintf(buf, sizeof(buf),
                              "%s %scaches vpn 0x%x space %u prot %u "
                              "pfn %u but PTE is 0x%08x",
                              label.c_str(), where, entry.vpn,
                              entry.space,
                              static_cast<unsigned>(entry.prot),
                              entry.pfn, pte);
                violations.emplace_back(buf);
            }
        };
        const std::vector<hw::TlbEntry> &live = tlb.entries();
        for (const hw::TlbEntry &entry : live) {
            if (entry.valid && !excused(entry.space))
                check(entry, "");
        }
        for (const hw::TlbEntry &entry : tlb.l0Translations()) {
            if (excused(entry.space))
                continue;
            const bool mirrors_live = std::any_of(
                live.begin(), live.end(), [&](const hw::TlbEntry &b) {
                    return b.valid && b.space == entry.space &&
                           b.vpn == entry.vpn && b.pfn == entry.pfn &&
                           b.prot == entry.prot;
                });
            if (!mirrors_live)
                check(entry, "L0 ");
        }
    };
    // A responder with consistency actions still queued (typically an
    // idle processor, which receives no interrupts) may legitimately
    // hold stale entries: the algorithm guarantees it will drain the
    // queue before performing any translation.
    for (CpuId id = 0; id < machine_.ncpus(); ++id) {
        kern::Cpu &cpu = const_cast<kern::Machine &>(machine_).cpu(id);
        if (shoot_->stateFor(id).action_needed)
            continue;
        // Residue of a space with a deferred flush pending on this
        // processor is dead by construction (LazyAsid policy): the
        // flush is applied before the space can become current here
        // again. Residue of the *current* space is never excused --
        // a set flag on the running space is exactly the stale state
        // the planted broken-asid variant creates.
        auditTlb("cpu" + std::to_string(id), cpu.tlb(),
                 [&](hw::SpaceId space) {
                     return cpu.tlb().hasDeferredFlush(space) &&
                            (cpu.cur_pmap == nullptr ||
                             cpu.cur_pmap->space() != space);
                 });
    }
    // Devices never participate in the LazyAsid deferral, so nothing
    // of theirs is excused.
    for (dev::DmaDevice *dev : shoot_->responders()) {
        if (shoot_->stateFor(dev->id()).action_needed)
            continue;
        auditTlb(dev->describe(), dev->tlb(),
                 [](hw::SpaceId) { return false; });
    }
    // With per-node page-table replicas, every replica must agree with
    // the primary (modulo per-node ref/mod bits) at quiescent points.
    for (const auto &[space, pmap] : spaces_) {
        if (pmap->table().replicas() < 2 ||
            pmap->table().deferredSyncPending() ||
            pmap->low_water_ >= pmap->high_water_) {
            continue;
        }
        for (const std::string &d : pmap->table().replicaDivergence(
                 pmap->low_water_, pmap->high_water_)) {
            std::snprintf(buf, sizeof(buf), "space %u: %s", space,
                          d.c_str());
            violations.emplace_back(buf);
        }
    }
    return violations;
}

} // namespace mach::pmap

// ---------------------------------------------------------------------
// The MMU access path. This lives in the pmap module because address
// translation is machine-dependent: kern::Cpu declares the interface,
// the pmap module implements it (just as Mach's pmap module owned all
// hardware translation knowledge).
// ---------------------------------------------------------------------

namespace mach::kern
{

pmap::Pmap *
Cpu::pmapFor(VAddr va)
{
    if (va >= Machine::kKernelBase)
        return &machine_->kernel().pmaps().kernelPmap();
    return cur_pmap;
}

AccessResult
Cpu::access(VAddr va, Prot want)
{
    const hw::MachineConfig &cfg = machine_->cfg();
    const Vpn vpn = vaToVpn(va);
    const bool numa = machine_->numaNodes() > 1;

    // Deterministic interconnect penalty for touching a frame that
    // lives on another node's memory: a flat distance-scaled surcharge
    // on top of the bus-priced access (no RNG draws, so single-node
    // runs and their goldens are untouched).
    auto remotePenalty = [&](kern::Cpu &here, Pfn pfn, unsigned count) {
        if (!numa)
            return;
        const Tick extra = machine_->topo().remoteCost(
            here.node_, machine_->mem().nodeOfPfn(pfn),
            hw::kMemAccessCost);
        if (extra == 0)
            return;
        ++here.remote_mem_accesses;
        here.advanceNoPoll(extra * count);
    };

    // The fault path below can block (map locks, pagein) and the
    // thread may be rescheduled onto a different processor, so the
    // executing CPU is re-fetched on every iteration -- the retried
    // probe must hit the TLB of the processor we are *now* on.
    MACH_ASSERT(cur_thread != nullptr);
    kern::Thread *thread = cur_thread;

    for (int attempt = 0; attempt < 256; ++attempt) {
        Cpu &here = thread->cpu();
        pmap::Pmap *pm = here.pmapFor(va);
        if (!pm)
            return {};

        here.advance(hw::kTlbLookupCost);
        // With per-node replicas, this CPU's walker (and its ref/mod
        // writebacks) operate on the node-local copy of the table.
        const PAddr pte_addr = pm->table().pteAddr(vpn, here.node_);
        const hw::TlbLookup look =
            here.tlb_.lookup(pm->space(), vpn, want, pte_addr);
        if (look.hit && look.prot_ok) {
            remotePenalty(here, look.pfn, 1);
            return {true,
                    (look.pfn << kPageShift) | (va & kPageMask)};
        }

        if (!look.hit) {
            // Attribute the whole refill window -- reload stall, walk,
            // writeback, per-level latency -- to the requesting
            // thread's Walk component (one branch when no request is
            // in flight).
            obs::Probe walk_probe(machine_->recorder(), obs::kTlbWalk,
                                  obs::kNoTrack, thread->obs_request);
            if (cfg.tlb_software_reload) {
                // Software reload (MIPS style): the miss handler checks
                // whether the pmap is being modified and stalls only in
                // that case -- this is what lets responders return
                // immediately instead of spinning (Section 9).
                while (pm->locked())
                    here.spinOnce();
            }
            // The walk's PTE read, its ref/mod writeback, and the TLB
            // fill happen at one simulated instant, *before* the walk
            // latency is charged: the charge is preemptible, so an
            // interrupt arriving mid-walk is serviced at its end --
            // the next instruction boundary, as on real hardware --
            // and a responder drain running there must see (and sweep)
            // this fill. Filling after the charge let a pre-change PTE
            // image enter the TLB *after* the drain had already run,
            // a stale translation the schedule explorer can force by
            // landing a shootdown IPI inside the walk window.
            const hw::WalkResult walk = pm->table().walk(vpn, here.node_);
            const Prot pte_prot = hw::pte::prot(walk.pte);
            const bool resolved =
                hw::pte::valid(walk.pte) && protAllows(pte_prot, want);
            if (resolved) {
                const bool writing = protAllows(want, ProtWrite);
                // Hardware maintains the referenced (and, for a write,
                // modified) bit in the PTE as part of the reload.
                if (cfg.tlb_refmod != hw::TlbRefmod::None) {
                    std::uint32_t updated = walk.pte | hw::pte::kRef;
                    if (writing)
                        updated |= hw::pte::kMod;
                    const PAddr addr =
                        pm->table().pteAddr(vpn, here.node_);
                    if (addr != 0)
                        machine_->mem().write32(addr, updated);
                }
                here.tlb_.insert(pm->space(), vpn,
                                 hw::pte::pfn(walk.pte), pte_prot,
                                 writing);
            }
            here.memAccess(walk.memory_reads);
            // A walk through a remote node's page-table frames pays the
            // interconnect surcharge per level read; replicas exist
            // precisely to make this term vanish.
            if (numa && pte_addr != 0) {
                remotePenalty(here,
                              static_cast<Pfn>(pte_addr >> kPageShift),
                              walk.memory_reads);
            }
            here.advance(hw::kTlbReloadCostPerLevel * walk.memory_reads);
            if (resolved)
                continue; // Retry; the next probe (normally) hits.
        }

        // Translation absent or insufficient: page fault.
        ++here.faults_taken;
        if (!machine_->kernel().handleFault(*thread, va, want))
            return {};
    }
    panic("Cpu::access: unresolvable fault loop at va 0x%08x", va);
}

} // namespace mach::kern
