#include "dev/dma_device.hh"

#include <algorithm>

#include "base/logging.hh"
#include "hw/bus.hh"
#include "kern/machine.hh"
#include "pmap/pmap.hh"
#include "pmap/shootdown.hh"
#include "sim/context.hh"

namespace mach::dev
{

DmaDevice::DmaDevice(kern::Machine &machine, pmap::PmapSystem &pmaps,
                     unsigned index)
    : machine_(machine), pmaps_(pmaps), index_(index),
      id_(machine.ncpus() + index),
      node_(machine.cfg().nodeOfDevice(index)),
      iotlb_(&machine.cfg(), &machine.mem(),
             machine.cfg().iotlb_entries)
{
}

std::string
DmaDevice::describe() const
{
    return "dev" + std::to_string(index_);
}

void
DmaDevice::requestDrain()
{
    if (!in_flight_ || drain_requested_)
        return;
    drain_requested_ = true;
    // transfer_end_ == 0: the operation is still in its translation
    // phase; the flag alone aborts it before any transfer starts.
    if (transfer_end_ != 0) {
        deadline_ =
            std::min(transfer_end_, machine_.now() + hw::kDevDrainBound);
    }
}

void
DmaDevice::drainPending()
{
    pmap::CpuShootState &st = pmaps_.shoot().stateFor(id_);
    if (!st.action_needed)
        return;
    const hw::MachineConfig &cfg = machine_.cfg();
    ++drains;

    // The whole drain -- applying the invalidations, clearing the
    // queue, the overflow flag and the action-needed flag -- happens
    // at one simulated instant; only then is the accumulated cost
    // slept. That atomicity is what makes skipping the action lock
    // safe: an initiator's queueAction mutates the queue within one
    // instant too, so every interleaving sees either a fully queued
    // action or none. The planted SkipIotlbInvalidate bug skips
    // the invalidations themselves but still clears the flags and
    // charges the cost -- the protocol looks healthy from the
    // initiator's side while stale entries survive in the IOTLB.
    const bool invalidate =
        cfg.planted_bug != hw::PlantedBug::SkipIotlbInvalidate;
    Tick cost = 0;
    if (st.overflow) {
        if (invalidate)
            iotlb_.flushAll();
        cost += hw::kTlbFlushCost;
        st.overflow = false;
    } else {
        for (const pmap::ShootAction &action : st.queue) {
            if (action.pmap == nullptr)
                continue; // Nulled by purgePmap; overflow covers it.
            const unsigned npages = action.end - action.start;
            if (npages > cfg.tlb_flush_threshold) {
                if (invalidate)
                    iotlb_.flushAll();
                cost += hw::kTlbFlushCost;
            } else {
                if (invalidate) {
                    iotlb_.invalidateRange(action.pmap->space(),
                                           action.start, action.end);
                }
                cost += hw::kTlbInvalidateCost * npages;
            }
        }
    }
    st.queue.clear();
    st.action_needed = false;
    if (cost > 0)
        machine_.ctx().sleep(cost);
}

DmaDevice::Xlate
DmaDevice::translate(pmap::Pmap &pmap, Vpn vpn, bool write, Pfn *pfn)
{
    sim::Context &ctx = machine_.ctx();
    const Prot want = write ? ProtWrite : ProtRead;

    ctx.sleep(hw::kIotlbLookupCost);
    if (drain_requested_)
        return Xlate::Aborted;
    // pte_addr 0: the IOTLB never writes ref/mod bits back on a hit --
    // the walker maintains them interlocked at fill time, so device
    // translations are writeback-safe by construction (the Section 9
    // interlocked-update option; what real IOMMUs implement).
    const hw::TlbLookup look =
        iotlb_.lookup(pmap.space(), vpn, want, 0);
    if (look.hit && look.prot_ok) {
        *pfn = look.pfn;
        return Xlate::Ok;
    }

    // IOMMU walk. Like a software-reload miss handler, the walker
    // stalls while the pmap is mid-update, so it can never re-cache a
    // PTE the initiator is in the middle of changing. A drain request
    // aborts the stall: the initiator may be spinning on inFlight()
    // while HOLDING the lock (its shootdown runs inside its pmap
    // update), so waiting it out here would deadlock.
    if (pmap.locked()) {
        hw::Bus::User bus_user(machine_.bus(node_));
        while (pmap.locked()) {
            if (drain_requested_)
                return Xlate::Aborted;
            ctx.sleep(hw::kSpinQuantum);
        }
    }
    if (drain_requested_)
        return Xlate::Aborted;

    // The PTE read, the interlocked ref/mod update, and the IOTLB fill
    // all happen at one instant (cf. the identical reasoning in
    // kern::Cpu::access); the walk latency is slept afterwards.
    const hw::WalkResult walk = pmap.table().walk(vpn, node_);
    const Prot pte_prot = hw::pte::prot(walk.pte);
    hw::Bus &bus = machine_.bus(node_);
    Tick cost = hw::kIommuWalkCostPerLevel * walk.memory_reads +
                bus.accessCost(walk.memory_reads);
    if (!hw::pte::valid(walk.pte) || !protAllows(pte_prot, want)) {
        // Devices cannot page fault; the operation is dropped and the
        // driver is expected to have wired the buffer.
        ++dma_faults;
        ctx.sleep(cost);
        return Xlate::Fault;
    }
    ++iommu_walks;
    std::uint32_t updated = walk.pte | hw::pte::kRef;
    if (write)
        updated |= hw::pte::kMod;
    if (updated != walk.pte) {
        const PAddr addr = pmap.table().pteAddr(vpn, node_);
        if (addr != 0)
            machine_.mem().write32(addr, updated);
    }
    iotlb_.insert(pmap.space(), vpn, hw::pte::pfn(walk.pte), pte_prot,
                  write);
    ctx.sleep(cost);
    if (drain_requested_)
        return Xlate::Aborted;
    *pfn = hw::pte::pfn(walk.pte);
    return Xlate::Ok;
}

bool
DmaDevice::dmaRead(pmap::Pmap &pmap, Vpn vpn)
{
    drainPending();
    // The wire is busy for the whole operation, translation included:
    // an initiator that revokes concurrently spins until the clear,
    // so no operation begun before a revoke consumes memory after the
    // revoke completed (see the file comment in dev/dma_device.hh).
    MACH_ASSERT(!in_flight_);
    in_flight_ = true;
    drain_requested_ = false;
    transfer_end_ = 0;
    Pfn pfn = 0;
    const Xlate xl = translate(pmap, vpn, /*write=*/false, &pfn);
    if (xl != Xlate::Ok) {
        // A revocation racing the translation drops the read rather
        // than consuming a translation the initiator is revoking.
        if (xl == Xlate::Aborted)
            ++dma_aborts;
        in_flight_ = false;
        drain_requested_ = false;
        drainPending();
        return false;
    }
    ++dma_reads;
    hw::Bus &bus = machine_.bus(node_);
    const Tick cost = bus.accessCost();
    (void)machine_.mem().read32(static_cast<PAddr>(pfn)
                                << kPageShift);
    machine_.ctx().sleep(cost);
    in_flight_ = false;
    drain_requested_ = false;
    drainPending();
    return true;
}

bool
DmaDevice::dmaWrite(pmap::Pmap &pmap, Vpn vpn, unsigned offset,
                    std::uint32_t value)
{
    drainPending();
    // In-flight from the first translation cycle, not just the
    // transfer: a revoke landing inside the IOMMU walk's latency
    // window would otherwise complete without waiting, and the
    // transfer would then commit through the just-revoked mapping.
    // Only one operation at a time per device.
    MACH_ASSERT(!in_flight_);
    in_flight_ = true;
    drain_requested_ = false;
    transfer_end_ = 0;
    Pfn pfn = 0;
    const Xlate xl = translate(pmap, vpn, /*write=*/true, &pfn);
    if (xl != Xlate::Ok) {
        if (xl == Xlate::Aborted)
            ++dma_aborts;
        in_flight_ = false;
        drain_requested_ = false;
        drainPending();
        return false;
    }
    ++dma_writes;

    const hw::MachineConfig &cfg = machine_.cfg();
    sim::Context &ctx = machine_.ctx();

    // The transfer occupies the wire until transfer_end_, paced in
    // spin-quantum steps so a drain request (which pulls deadline_ in)
    // is honoured within one quantum.
    transfer_end_ = ctx.now() + cfg.dev_transfer_cost;
    deadline_ = transfer_end_;
    while (ctx.now() < deadline_) {
        const Tick remaining = deadline_ - ctx.now();
        ctx.sleep(std::min<Tick>(remaining, hw::kSpinQuantum));
    }
    const bool aborted = ctx.now() < transfer_end_;
    if (aborted) {
        // The revoke won the race: nothing lands in memory. The
        // healthy protocol depends on this -- a commit here would go
        // through the translation the initiator is revoking.
        ++dma_aborts;
    } else {
        machine_.mem().write32((static_cast<PAddr>(pfn) << kPageShift) |
                                   (offset & kPageMask & ~3u),
                               value);
        ++writes_committed;
    }
    in_flight_ = false;
    drain_requested_ = false;
    transfer_end_ = 0;
    // Drain at the completion instant: the initiator's device-sync
    // spin exits the moment in_flight_ clears, and the stale IOTLB
    // entry must be gone by then.
    drainPending();
    return !aborted;
}

void
DmaDevice::attachTo(pmap::Pmap &pmap)
{
    pmap.attachDevice(id_);
}

void
DmaDevice::detachFrom(pmap::Pmap &pmap)
{
    // Drain until the flag stays clear at a check instant, then flush
    // and detach with no time passing in between -- afterwards no
    // initiator queues at us for this space and no entry of it
    // survives.
    pmap::CpuShootState &st = pmaps_.shoot().stateFor(id_);
    do {
        drainPending();
    } while (st.action_needed);
    iotlb_.flushSpace(pmap.space());
    pmap.detachDevice(id_);
}

void
DmaDevice::startStream(const DmaStream &stream)
{
    MACH_ASSERT(!streaming_);
    MACH_ASSERT(stream.pmap != nullptr);
    streaming_ = true;
    stop_ = false;
    beat_ = 0;
    stream_ = stream;
    attachTo(*stream_.pmap);
    machine_.ctx().spawn(describe() + "-stream",
                         [this] { streamBody(); });
}

void
DmaDevice::streamBody()
{
    sim::Context &ctx = machine_.ctx();
    while (!stop_) {
        // One beat: a DMA write into the target page (the entry the
        // revocation races against), then a read sweep over the decoy
        // pages that evicts the target's IOTLB entry, so the next
        // beat walks afresh.
        dmaWrite(*stream_.pmap, stream_.target,
                 static_cast<unsigned>((beat_ * 4) & kPageMask),
                 static_cast<std::uint32_t>(beat_ + 1));
        // Bump the beat before the sweep (cf. broken-l0's signal): a
        // scenario driver keying a revoke off the beat plus a margin
        // lands it long after the sweep evicted the target's entry --
        // unless a perturbation parks us inside the sweep.
        ++beat_;
        for (unsigned i = 0; i < stream_.decoys && !stop_; ++i)
            dmaRead(*stream_.pmap, stream_.decoy_base + i);
        if (stream_.gap > 0)
            ctx.sleep(stream_.gap);
    }
    detachFrom(*stream_.pmap);
    streaming_ = false;
}

} // namespace mach::dev
