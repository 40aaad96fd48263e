#include "pmap/shootdown.hh"

#include <algorithm>

#include "base/logging.hh"
#include "dev/dma_device.hh"
#include "hw/bus.hh"
#include "kern/cpu.hh"
#include "kern/machine.hh"
#include "obs/probe.hh"
#include "pmap/pmap.hh"
#include "xpr/xpr.hh"

namespace mach::pmap
{

ShootdownController::ShootdownController(PmapSystem &sys)
    : sys_(sys), machine_(sys.machine()),
      forward_pending_(sys.machine().numaNodes())
{
    state_.reserve(machine_.ncpus());
    for (CpuId id = 0; id < machine_.ncpus(); ++id)
        state_.push_back(std::make_unique<CpuShootState>());

    machine_.setIrqHandler(hw::Irq::Shootdown,
                           [this](kern::Cpu &cpu) { respond(cpu); });
}

void
ShootdownController::registerResponder(dev::DmaDevice *device)
{
    // Devices claim the id space tail in registration order so the
    // state_ vector stays index-by-id for CPUs and devices alike.
    MACH_ASSERT(device->id() == machine_.ncpus() + responders_.size());
    responders_.push_back(device);
    state_.push_back(std::make_unique<CpuShootState>());
}

bool
ShootdownController::invalidateAfterChange() const
{
    const hw::MachineConfig &cfg = machine_.cfg();
    return cfg.shootdown_policy == hw::ShootdownPolicy::RemoteInvalidate ||
           (cfg.tlb_refmod != hw::TlbRefmod::Writeback &&
            !cfg.tlb_software_reload);
}

bool
ShootdownController::responderMustStall() const
{
    // The stall exists because hardware reload can re-cache entries
    // mid-update and because the TLB writes ref/mod bits back to the
    // PTE. Either Section 9 remedy removes the need for it.
    const hw::MachineConfig &cfg = machine_.cfg();
    if (cfg.planted_bug == hw::PlantedBug::SkipResponderStall)
        return false; // Planted bug for the checker's golden test.
    return cfg.tlb_refmod == hw::TlbRefmod::Writeback &&
           !cfg.tlb_software_reload;
}

void
ShootdownController::invalidateLocal(kern::Cpu &cpu, hw::SpaceId space,
                                     Vpn start, Vpn end)
{
    const hw::MachineConfig &cfg = machine_.cfg();
    const unsigned npages = end - start;
    if (cfg.virtual_cache) {
        // VMP-style mapping invalidation: an exhaustive software
        // search of the whole cache directory, whatever the range.
        cpu.tlb().invalidateRange(space, start, end);
        cpu.advanceNoPoll(hw::kVcSearchCostPerLine * cfg.tlb_entries);
        return;
    }
    if (npages <= cfg.tlb_flush_threshold) {
        cpu.tlb().invalidateRange(space, start, end);
        cpu.advanceNoPoll(hw::kTlbInvalidateCost * npages);
    } else if (cfg.shootdown_policy == hw::ShootdownPolicy::RangeFlush) {
        // RangeFlush models hardware with a ranged invalidate: up to
        // the crossover it invalidates exactly [start, end) at the
        // per-entry loop's per-page cost, and beyond it flushes only
        // the victim space. The win is not a cheaper instant -- it is
        // every bystander space's entries that survive and save a
        // reload later.
        if (npages <= hw::kRangeFlushCrossover) {
            cpu.tlb().invalidateRange(space, start, end);
            cpu.advanceNoPoll(hw::kTlbInvalidateCost * npages);
            ++range_invalidates;
        } else {
            cpu.tlb().flushSpace(space);
            cpu.advanceNoPoll(hw::kTlbFlushCost);
            ++full_space_flushes;
        }
    } else {
        // Beyond the threshold a full buffer flush is cheaper than
        // individual invalidates (Section 4, omitted detail 1).
        cpu.tlb().flushAll();
        cpu.advanceNoPoll(hw::kTlbFlushCost);
    }
}

bool
ShootdownController::mergeQueued(std::vector<ShootAction> &queue,
                                 Pmap &pmap, Vpn start, Vpn end)
{
    if (machine_.cfg().shootdown_policy != hw::ShootdownPolicy::Batched)
        return false;
    for (ShootAction &action : queue) {
        if (action.pmap != &pmap)
            continue;
        // Fold overlapping or adjacent ranges; disjoint ranges of the
        // same pmap also merge (the responder invalidates a superset,
        // which is always conservative).
        action.start = std::min(action.start, start);
        action.end = std::max(action.end, end);
        ++actions_merged;
        return true;
    }
    return false;
}

void
ShootdownController::queueAction(kern::Cpu &self, CpuId target,
                                 Pmap &pmap, Vpn start, Vpn end)
{
    const hw::MachineConfig &cfg = machine_.cfg();
    CpuShootState &st = *state_[target];
    st.action_lock.rawLock(self);
    if (mergeQueued(st.queue, pmap, start, end)) {
        // Coalesced into an already-queued range (Batched).
        st.action_needed = true;
        self.memAccess(2);
        st.action_lock.rawUnlock(self);
        return;
    }
    if (st.queue.size() >= cfg.action_queue_size) {
        // Overflowing queues escalate to a full TLB flush; the queue is
        // sized so this only happens when the responder would flush the
        // whole buffer anyway (Section 4, omitted detail 2).
        st.overflow = true;
        ++queue_overflows;
        obs::Recorder &rec = machine_.recorder();
        if (rec.enabled()) {
            rec.instant(rec.cpuTrack(target), obs::kShootQueueOverflow,
                        obs::Arg{"by", self.id()});
        }
    } else {
        st.queue.push_back({&pmap, start, end});
    }
    st.action_needed = true;
    self.memAccess(2);
    st.action_lock.rawUnlock(self);
}

bool
ShootdownController::deferTarget(kern::Cpu &self, CpuId target,
                                 Pmap &pmap)
{
    // LazyAsid: with address-space tags, the entries of a space that is
    // not current on some processor are mere residue -- that processor
    // cannot translate through them until the space is context-loaded
    // again. So instead of interrupting it, mark the residue dead (a
    // deferred flush, the software equivalent of bumping the space's
    // ASID generation) and clear the in-use bit; onContextLoad settles
    // the debt before the space can translate there again.
    if (machine_.cfg().shootdown_policy != hw::ShootdownPolicy::LazyAsid)
        return false;
    if (pmap.isKernel())
        return false; // The kernel space is current everywhere.
    kern::Cpu &cpu = machine_.cpu(target);
    if (cpu.cur_pmap == &pmap)
        return false; // Live translations: must interrupt.
    cpu.tlb().deferFlush(pmap.space());
    pmap.clearInUse(target);
    self.memAccess(1);
    ++flushes_deferred;
    if (!cpu.idle && !machine_.intr().pending(target, hw::Irq::Shootdown))
        ++ipis_elided;
    return true;
}

void
ShootdownController::shoot(kern::Cpu &self, Pmap &pmap, Vpn start,
                           Vpn end, unsigned mapped_pages)
{
    const hw::MachineConfig &cfg = machine_.cfg();
    hw::InterruptController &intr = machine_.intr();
    const Tick t_begin = machine_.now();
    ++initiated;

    obs::Recorder &rec = machine_.recorder();
    obs::Probe initiate_probe(rec, obs::kShootInitiate,
                              rec.cpuTrack(self.id()), nullptr,
                              obs::Arg{"pages", mapped_pages},
                              obs::Arg{"npages", end - start});

    self.advanceNoPoll(hw::kShootdownSetupCost);

    // Section 8 pool restructuring: a kernel-pmap shootdown whose
    // range lies entirely inside one pool's kmem slice only concerns
    // that pool's processors (pool-local kernel memory is not shared
    // between pools). Anything else remains machine-global.
    int pool = -1;
    if (pmap.isKernel() && cfg.kernel_pools > 1) {
        const int lo_pool = machine_.poolOfKernelVpn(start);
        if (lo_pool >= 0 && lo_pool == machine_.poolOfKernelVpn(end - 1))
            pool = lo_pool;
    }
    // The other processors using the pmap, within the pool if any.
    const auto concerns = [&](CpuId id) {
        return id != self.id() && pmap.inUse(id) &&
               (pool < 0 ||
                machine_.poolOfCpu(id) == static_cast<unsigned>(pool));
    };

    // ---- Section 9 option: TLBs supporting remote invalidation ------
    // The initiator shoots the entries directly out of the responders'
    // TLBs; no interrupts, no synchronization, no responder overhead.
    if (cfg.shootdown_policy == hw::ShootdownPolicy::RemoteInvalidate) {
        unsigned shot = 0;
        for (CpuId id = 0; id < machine_.ncpus(); ++id) {
            if (!concerns(id))
                continue;
            self.advanceNoPoll(hw::kRemoteInvalidateCost);
            hw::Tlb &remote = machine_.cpu(id).tlb();
            if (end - start > cfg.tlb_flush_threshold)
                remote.flushSpace(pmap.space());
            else
                remote.invalidateRange(pmap.space(), start, end);
            ++remote_invalidates;
            ++shot;
        }
        for (dev::DmaDevice *dev : responders_) {
            if (!pmap.inUse(dev->id()))
                continue;
            chargeDeviceCommand(self, *dev, hw::kRemoteInvalidateCost);
            if (dev->inFlight()) {
                // Even MC88200-style direct invalidation cannot pull a
                // translation out from under a transfer already on the
                // wire: bound the remaining transfer time and wait it
                // out before shooting the IOTLB entry.
                dev->requestDrain();
                ++device_sync_waits;
                hw::Bus::User bus_user(self.bus());
                while (dev->inFlight())
                    self.spinOnce();
            }
            hw::Tlb &iotlb = dev->tlb();
            if (end - start > cfg.tlb_flush_threshold)
                iotlb.flushSpace(pmap.space());
            else
                iotlb.invalidateRange(pmap.space(), start, end);
            ++remote_invalidates;
            ++device_commands;
            ++shot;
        }
        recordInitiator(self, pmap, mapped_pages, shot, t_begin);
        return;
    }

    // ---- Phase 1: queue actions, interrupt, wait ---------------------
    std::vector<CpuId> sync_list;
    std::vector<CpuId> send_list;
    for (CpuId id = 0; id < machine_.ncpus(); ++id) {
        if (!concerns(id))
            continue;
        if (deferTarget(self, id, pmap)) {
            // LazyAsid proved this target can settle up later: no
            // queued action, no IPI, no synchronization.
            continue;
        }
        queueAction(self, id, pmap, start, end);
        kern::Cpu &target = machine_.cpu(id);
        if (target.idle) {
            // Idle processors get no interrupts and no synchronization;
            // they drain their queues before leaving the idle set.
            continue;
        }
        sync_list.push_back(id);
        // Skip the interrupt if one is already pending there
        // (Section 4, omitted detail 3); synchronization still occurs.
        if (!intr.pending(id, hw::Irq::Shootdown))
            send_list.push_back(id);
    }

    // ---- Device responders (IOTLB shootdown) -------------------------
    // Devices take no interrupts; the initiator posts an invalidate
    // command over the (possibly remote) bus instead of an IPI, and
    // the device fiber drains its action queue at its next operation
    // boundary. Only an in-flight DMA forces the initiator to wait --
    // the transfer would otherwise commit through the revoked
    // translation -- and requestDrain() bounds that wait to
    // hw::kDevDrainBound. The avoidance policies are not consulted:
    // device invalidations are always eager (a deferred IOTLB entry
    // has no context-switch flush to settle it later).
    std::vector<dev::DmaDevice *> dev_sync;
    for (dev::DmaDevice *dev : responders_) {
        const CpuId dev_id = dev->id();
        if (!pmap.inUse(dev_id))
            continue;
        queueAction(self, dev_id, pmap, start, end);
        chargeDeviceCommand(self, *dev, hw::kDevCmdCost);
        ++device_commands;
        if (dev->inFlight()) {
            dev->requestDrain();
            dev_sync.push_back(dev);
        }
    }

    // Attribution: the initiating thread's request (if one is in
    // flight) pays for posting the IPIs and then for the sync spin,
    // as two distinct components.
    obs::RequestSlot *const req =
        self.cur_thread != nullptr ? self.cur_thread->obs_request
                                   : nullptr;

    if (!sync_list.empty()) {
        {
            obs::Probe ipi_probe(rec, obs::kShootIpi,
                                 rec.cpuTrack(self.id()), req,
                                 obs::Arg{"targets", send_list.size()});
            if (cfg.ipi_send == hw::IpiSend::Multicast) {
                // One bit-vector load triggers every target at fixed
                // cost.
                self.advanceNoPoll(hw::kMulticastSendCost);
                for (CpuId id : send_list) {
                    intr.post(id, hw::Irq::Shootdown, machine_.now());
                    ++interrupts_sent;
                }
            } else if (cfg.ipi_send == hw::IpiSend::Broadcast) {
                // Interrupt everyone (including innocent bystanders,
                // who pay a dispatch with nothing queued) at fixed
                // cost.
                self.advanceNoPoll(hw::kBroadcastSendCost);
                for (CpuId id = 0; id < machine_.ncpus(); ++id) {
                    if (id == self.id() ||
                        intr.pending(id, hw::Irq::Shootdown)) {
                        continue;
                    }
                    intr.post(id, hw::Irq::Shootdown, machine_.now());
                    ++interrupts_sent;
                }
            } else if (machine_.numaNodes() > 1) {
                // Two-phase distributed shootdown: directed IPIs stay
                // on this node; each remote node gets exactly one
                // cross-interconnect IPI, aimed at a delegate (the
                // node's lowest-numbered target), which re-broadcasts
                // to its node-mates locally. All forwarding sets are
                // filled before the first send leaves, so no delegate
                // can respond and miss its fan-out duty.
                constexpr CpuId kNone = ~CpuId{0};
                std::vector<CpuId> delegates(machine_.numaNodes(),
                                             kNone);
                std::vector<CpuId> local_targets;
                for (CpuId id : send_list) {
                    const unsigned node = machine_.nodeOfCpu(id);
                    if (node == self.node())
                        local_targets.push_back(id);
                    else if (delegates[node] == kNone)
                        delegates[node] = id;
                    else
                        forward_pending_[node].set(id);
                }
                for (CpuId id : local_targets) {
                    if (!elideIpi(id))
                        postIpi(self, id);
                }
                for (const CpuId delegate : delegates) {
                    if (delegate == kNone)
                        continue;
                    postIpi(self, delegate);
                    ++cross_node_ipis;
                }
            } else {
                // Baseline: iterate down the list one directed IPI at
                // a time.
                for (CpuId id : send_list) {
                    if (!elideIpi(id))
                        postIpi(self, id);
                }
            }
        }

        // Wait for every synchronized processor to acknowledge (leave
        // the active set), drain its queued actions, or cease using
        // the pmap. The action-needed term matters on hardware whose
        // responders do not stall (software reload / no writeback):
        // such a responder acknowledges and rejoins the active set in
        // one quick motion, and the initiator would otherwise miss the
        // transient. Spinning processors are bus users; this is where
        // large shootdowns congest the bus (Figure 2's knee).
        obs::Probe sync_probe(rec, obs::kShootSync,
                              rec.cpuTrack(self.id()), req,
                              obs::Arg{"waiting_on", sync_list.size()});
        hw::Bus::User bus_user(self.bus());
        for (CpuId id : sync_list) {
            kern::Cpu &target = machine_.cpu(id);
            CpuShootState &st = *state_[id];
            while (st.action_needed && target.active && pmap.inUse(id))
                self.spinOnce();
        }
    }

    if (!dev_sync.empty()) {
        // Wait out in-flight DMA. A transfer already on the wire
        // commits (or aborts) through the pre-change translation, so
        // the pmap change must not land before the wire is quiet; the
        // drain requests above bounded each wait. A device that
        // finishes its transfer drains its action queue at the same
        // instant, so exiting this spin means the IOTLB entry is gone
        // too (unless the planted SkipIotlbInvalidate bug left
        // it behind -- the stale-translation oracle's catch).
        obs::Probe dev_probe(rec, obs::kShootDeviceSync,
                             rec.cpuTrack(self.id()), req,
                             obs::Arg{"devices", dev_sync.size()});
        hw::Bus::User bus_user(self.bus());
        for (dev::DmaDevice *dev : dev_sync) {
            CpuShootState &st = *state_[dev->id()];
            ++device_sync_waits;
            while (st.action_needed && dev->inFlight() &&
                   pmap.inUse(dev->id())) {
                self.spinOnce();
            }
        }
    }

    recordInitiator(self, pmap, mapped_pages, sync_list.size(), t_begin);
}

void
ShootdownController::recordInitiator(kern::Cpu &cpu, const Pmap &pmap,
                                     unsigned mapped_pages,
                                     std::size_t procs, Tick t_begin)
{
    if (!machine_.cfg().xpr_enabled)
        return;
    const Tick elapsed = machine_.now() - t_begin;
    cpu.advanceNoPoll(hw::kXprRecordCost);
    machine_.xpr().record({xpr::EventKind::ShootInitiator, cpu.id(),
                           machine_.now(), pmap.isKernel(), mapped_pages,
                           static_cast<std::uint32_t>(procs), elapsed});
}

void
ShootdownController::drainActions(kern::Cpu &cpu)
{
    const hw::MachineConfig &cfg = machine_.cfg();
    CpuShootState &st = *state_[cpu.id()];

    obs::Recorder &rec = machine_.recorder();
    obs::Probe drain_probe(rec, obs::kShootDrain, rec.cpuTrack(cpu.id()),
                           nullptr, obs::Arg{"queued", st.queue.size()});

    st.action_lock.rawLock(cpu);
    if (st.overflow) {
        cpu.tlb().flushAll();
        cpu.advanceNoPoll(hw::kTlbFlushCost);
        st.overflow = false;
    } else {
        // By index, not iterators: invalidateLocal advances sim time,
        // so a pmap teardown can run mid-loop. purgePmap sees our held
        // action_lock and nulls entries in place instead of erasing,
        // which keeps the index valid; skip the nulled ones.
        for (std::size_t i = 0; i < st.queue.size(); ++i) {
            const ShootAction &action = st.queue[i];
            if (action.pmap == nullptr)
                continue;
            invalidateLocal(cpu, action.pmap->space(), action.start,
                            action.end);
            // invalidateLocal advanced time; the pmap may have been
            // torn down (and this entry nulled) meanwhile. Re-read
            // before dereferencing it again.
            Pmap *const pmap = st.queue[i].pmap;
            if (pmap != nullptr && cfg.tlb_asid_tags &&
                !pmap->isKernel() && pmap != cpu.cur_pmap) {
                // Section 10 experiment: completely flush entries for
                // an address space that required an invalidation but is
                // not current here, then drop the in-use bit so future
                // shootdowns skip this processor.
                cpu.tlb().flushSpace(pmap->space());
                pmap->clearInUse(cpu.id());
            }
        }
    }
    st.queue.clear();
    st.action_needed = false;
    st.action_lock.rawUnlock(cpu);
}

void
ShootdownController::drainForwards(kern::Cpu &cpu)
{
    CpuSet &pending = forward_pending_[cpu.node()];
    if (pending.empty())
        return;
    // Claim the whole set at one instant (no time passes between the
    // copy and the clear), so a concurrent same-node responder cannot
    // double-forward.
    const CpuSet claimed = pending;
    pending.clearAll();

    hw::InterruptController &intr = machine_.intr();
    claimed.forEach([&](CpuId id) {
        kern::Cpu &target = machine_.cpu(id);
        // The initiator already queued the action; skip targets that
        // drained it meanwhile (idle exit) or already have an IPI
        // pending.
        if (!state_[id]->action_needed || target.idle ||
            intr.pending(id, hw::Irq::Shootdown)) {
            return;
        }
        if (elideIpi(id))
            return;
        postIpi(cpu, id);
        ++forwarded_ipis;
    });
}

void
ShootdownController::postIpi(kern::Cpu &from, CpuId target)
{
    // The send cost scales with the NUMA distance to the target's node
    // (zero extra on the sender's own node), plus the send jitter.
    const Tick send =
        hw::kIpiSendCost +
        machine_.topo().remoteCost(from.node(), machine_.nodeOfCpu(target),
                                   hw::kIpiSendCost) +
        machine_.rng().below(hw::kIpiSendJitter);
    from.advanceNoPoll(send);
    machine_.intr().post(target, hw::Irq::Shootdown, machine_.now());
    ++interrupts_sent;
}

bool
ShootdownController::elideIpi(CpuId target)
{
    // Batched: a target already inside its respond/idle-drain service
    // loop is guaranteed to re-check the action-needed flag just set
    // (CpuShootState::servicing brackets the loop with no simulated
    // time between the flag and the checks), so the IPI would only buy
    // a redundant second dispatch. A target servicing for longer than
    // the coalescing window (e.g. parked on a long stall) gets the IPI
    // anyway, so coalescing delays a wakeup by at most the window.
    if (machine_.cfg().shootdown_policy != hw::ShootdownPolicy::Batched)
        return false;
    const CpuShootState &st = *state_[target];
    if (!st.servicing)
        return false;
    if (machine_.now() - st.service_entered > hw::kIpiCoalesceWindow)
        return false;
    ++ipis_elided;
    return true;
}

void
ShootdownController::chargeDeviceCommand(kern::Cpu &self,
                                         const dev::DmaDevice &dev,
                                         Tick base)
{
    Tick cost = base;
    if (dev.node() != self.node()) {
        cost += machine_.topo().remoteCost(self.node(), dev.node(), base);
        ++cross_node_device_commands;
    }
    self.advanceNoPoll(cost);
}

void
ShootdownController::respond(kern::Cpu &cpu)
{
    const hw::MachineConfig &cfg = machine_.cfg();
    const Tick t_begin = machine_.now();

    // Disable all interrupts for the duration: a device interrupt at
    // the wrong point could stall the whole machine (Section 4).
    const hw::Spl saved = cpu.setSpl(hw::SplHigh);
    drainForwards(cpu);
    CpuShootState &st = *state_[cpu.id()];
    const bool had_work = st.action_needed;

    // The interrupt runs on whatever thread was dispatched here; if
    // that thread had a request in flight, the stall + drain time is
    // the request's Drain component (tail latency stolen by *other*
    // initiators' consistency work). The probe closes after the
    // setSpl() below, which can deliver a nested interrupt.
    obs::Recorder &rec = machine_.recorder();
    obs::Probe respond_probe(
        rec, obs::kShootRespond, rec.cpuTrack(cpu.id()),
        cpu.cur_thread != nullptr ? cpu.cur_thread->obs_request : nullptr,
        obs::Arg{"had_work", had_work ? 1u : 0u});

    // One pass of this loop services every shootdown in progress. The
    // servicing flag brackets the loop exactly: an initiator that sees
    // it set knows its freshly-queued action precedes a future check
    // of this condition (the Batched policy's IPI-elision invariant).
    st.servicing = true;
    st.service_entered = machine_.now();
    while (st.action_needed) {
        ++responder_passes;

        // Phase 2: acknowledge by leaving the active set, then stall
        // until no relevant pmap is mid-update. (The responder must
        // neither read nor write the pmap -- including through TLB
        // reloads and ref/mod writebacks -- while the update is in
        // progress.)
        cpu.active = false;
        cpu.memAccess(1);
        if (responderMustStall()) {
            obs::Probe stall_probe(rec, obs::kShootStall,
                                   rec.cpuTrack(cpu.id()), nullptr);
            hw::Bus::User bus_user(cpu.bus());
            Pmap *kernel = &sys_.kernelPmap();
            Pmap *user = cpu.cur_pmap;
            while (kernel->locked() || (user != nullptr &&
                                        user->locked())) {
                cpu.spinOnce();
            }
        }

        // Phase 4: perform the queued invalidations and rejoin the
        // active set.
        drainActions(cpu);
        cpu.active = true;
    }
    st.servicing = false;

    if (had_work && cfg.xpr_enabled &&
        cpu.id() < hw::kXprResponderCpus) {
        // Responder events are recorded on a few selected processors
        // only, to avoid lock contention in the instrumentation
        // (Section 6).
        const Tick elapsed = machine_.now() - t_begin;
        cpu.advanceNoPoll(hw::kXprRecordCost);
        machine_.xpr().record({xpr::EventKind::ShootResponder, cpu.id(),
                               machine_.now(), false, 0, 0, elapsed});
    }
    cpu.setSpl(saved);
}

void
ShootdownController::idleExit(kern::Cpu &cpu)
{
    if (!forward_pending_[cpu.node()].empty()) {
        // Pick up fan-out work a slow (or since-idled) delegate left
        // behind; liveness must not depend on any single processor.
        const hw::Spl fwd_saved = cpu.setSpl(hw::SplHigh);
        drainForwards(cpu);
        cpu.setSpl(fwd_saved);
    }
    CpuShootState &st = *state_[cpu.id()];
    if (!st.action_needed)
        return;
    ++idle_drains;
    obs::Recorder &rec = machine_.recorder();
    if (rec.enabled()) {
        rec.instant(rec.cpuTrack(cpu.id()), obs::kShootIdleDrain,
                    obs::Arg{"queued", st.queue.size()});
    }

    const hw::Spl saved = cpu.setSpl(hw::SplHigh);
    st.servicing = true;
    st.service_entered = machine_.now();
    while (st.action_needed) {
        if (responderMustStall()) {
            hw::Bus::User bus_user(cpu.bus());
            Pmap *kernel = &sys_.kernelPmap();
            while (kernel->locked())
                cpu.spinOnce();
        }
        drainActions(cpu);
    }
    st.servicing = false;
    cpu.setSpl(saved);
}

ShootdownController::FlushSnapshot
ShootdownController::snapshotFlushes(kern::Cpu &self, Pmap &pmap) const
{
    FlushSnapshot snapshot;
    for (CpuId id = 0; id < machine_.ncpus(); ++id) {
        if (id == self.id() || !pmap.inUse(id))
            continue;
        snapshot.emplace_back(id,
                              machine_.cpu(id).tlb().full_flushes);
    }
    return snapshot;
}

void
ShootdownController::delayedFlushWait(kern::Thread &thread, Pmap &pmap,
                                      const FlushSnapshot &snapshot,
                                      unsigned mapped_pages)
{
    const Tick t_begin = machine_.now();
    ++delayed_waits;

    for (;;) {
        bool all_clean = true;
        for (const auto &[id, epoch] : snapshot) {
            kern::Cpu &cpu = machine_.cpu(id);
            if (!pmap.inUse(id))
                continue; // Its entries were flushed on the switch.
            if (cpu.idle)
                continue; // Idle TLBs are flushed at idle entry/exit.
            if (cpu.tlb().full_flushes > epoch)
                continue;
            all_clean = false;
            break;
        }
        if (all_clean)
            break;
        thread.sleep(1 * kMsec);
    }

    // An instant, not a span: the waiting thread sleeps and may resume
    // on a different CPU, which would split a span across tracks.
    obs::Recorder &rec = machine_.recorder();
    if (rec.enabled()) {
        const Tick waited = machine_.now() - t_begin;
        rec.instant(rec.cpuTrack(thread.cpu().id()),
                    obs::kShootDelayedFlushWait,
                    obs::Arg{"waited_us", waited / kUsec},
                    obs::Arg{"pages", mapped_pages});
        rec.metrics()
            .histogram(obs::kShootDelayedFlushWait.histogram)
            .record(waited / kUsec);
    }

    recordInitiator(thread.cpu(), pmap, mapped_pages, snapshot.size(),
                    t_begin);
}

void
ShootdownController::purgePmap(Pmap *pmap)
{
    for (auto &st : state_) {
        auto &queue = st->queue;
        bool purged = false;
        if (st->action_lock.locked()) {
            // A responder fiber is suspended mid-drain holding the
            // action lock, with an index into this queue live across a
            // sim-time advance. Null the pmap pointers in place --
            // no structural mutation, so the drainer's position stays
            // valid and it skips the dead entries.
            for (ShootAction &action : queue) {
                if (action.pmap == pmap) {
                    action.pmap = nullptr;
                    purged = true;
                }
            }
        } else {
            purged = std::erase_if(queue,
                                   [pmap](const ShootAction &action) {
                                       return action.pmap == pmap;
                                   }) > 0;
        }
        if (purged)
            st->overflow = true; // Escalate to a conservative full flush.
    }
}

void
ShootdownController::onContextLoad(kern::Cpu &cpu, Pmap &pmap)
{
    // LazyAsid's safety: translations only ever come from the current
    // space, so deferred residue is unreachable until Pmap::activate
    // runs this; and it stalls while the pmap is mid-update, so the
    // flush cannot land between a defer decision and the pmap change
    // it covers (the reload walk would re-cache pre-change PTEs).
    if (machine_.cfg().shootdown_policy != hw::ShootdownPolicy::LazyAsid)
        return;
    if (pmap.isKernel())
        return;
    hw::Tlb &tlb = cpu.tlb();
    if (!tlb.hasDeferredFlush(pmap.space()))
        return;
    if (machine_.cfg().planted_bug == hw::PlantedBug::SkipAsidGenCheck) {
        // PLANTED BUG (PlantedBug::SkipAsidGenCheck): load the space
        // without applying the deferred flush -- the "skipped
        // generation bump". The stale residue becomes reachable the
        // instant the space is current; the checker's oracle and the
        // broken-asid scenario exist to catch this.
        return;
    }
    if (pmap.locked()) {
        // The space is mid-update: flushing now would let the reload
        // walk re-cache pre-change PTEs. Stall like a responder --
        // leaving the active set keeps a concurrent initiator's
        // rendezvous deadlock-free.
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

bool
ShootdownController::reuseElideCheck(kern::Cpu &self, Pmap &pmap,
                                     Vpn start, Vpn end)
{
    // ReuseElide (arXiv 2409.10946): every TLB fill sets the PTE's
    // reference bit at the fill instant, so a valid PTE whose bit is
    // still clear has no translation cached in any TLB (or L0 slot) on
    // the machine -- and invalid PTEs are never cached at all. A range
    // that passes needs no consistency actions: its pages were made
    // valid without a TLB fill (vmWire) and no processor has touched
    // them since.
    //
    // Race-freedom: the caller holds the pmap lock, and with software
    // reload (required by validate()) a TLB miss stalls on a locked
    // pmap before walking, so no fill of this space can land between
    // the scan and the completed change. NUMA replicas are covered
    // because readPte OR-merges the per-node reference bits.
    if (machine_.cfg().shootdown_policy != hw::ShootdownPolicy::ReuseElide)
        return false;
    // Bound the scan: past this many pages the check costs more than
    // the shootdown it might save.
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

} // namespace mach::pmap
