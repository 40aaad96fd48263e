/**
 * @file
 * DMA-capable device with an IOMMU-translated IOTLB.
 *
 * The paper's consistency problem is not CPU-specific: any agent that
 * caches translations must be kept coherent with the pmap module.
 * This model adds the other common translation cache -- a device-side
 * IOTLB fed by an IOMMU page-table walker -- and makes it a
 * first-class responder in the Section 4 shootdown protocol.
 *
 * Devices occupy the tail of the CpuSet id space: ids [0, ncpus) are
 * CPUs, ids [ncpus, ncpus + devices) are the devices registered with
 * ShootdownController::registerResponder(). A Pmap's in-use set
 * carries both kinds of bits, so othersUsing() triggers a shootdown
 * even when only a device still caches the space.
 *
 * The device issues DMA reads and writes against a user address space
 * through its IOTLB:
 *
 *   - An IOTLB hit costs hw::kIotlbLookupCost and resolves immediately.
 *   - A miss invokes the IOMMU walker, which behaves like a
 *     software-reload TLB: it stalls while the target pmap is locked
 *     (so it can never re-cache a PTE mid-update), then walks the
 *     two-level table, updates the referenced (and, for writes,
 *     modified) bit interlocked at the walk instant, and fills the
 *     IOTLB. Because the walker is interlocked and stalls on the
 *     lock, devices never require the responder stall phase -- like
 *     Section 9's software-reload option.
 *
 * The device-specific wrinkle: a DMA *write* occupies the wire for
 * dev_transfer_cost and commits through the translation it consumed
 * at start. A revoke arriving mid-transfer cannot simply invalidate
 * the IOTLB entry -- the transfer would still land through the stale
 * mapping. requestDrain() bounds the conflict: the transfer either
 * completes or aborts within hw::kDevDrainBound, and the initiator spins
 * until the wire is quiet (inFlight() false) before making its pmap
 * changes -- the analogue of the paper's "wait until every user
 * acknowledged", with a bounded rather than interrupt-paced
 * acknowledgement latency. An aborted transfer never commits its write.
 *
 * The in-flight window spans the WHOLE operation, translation
 * included, for reads as well as writes. The walk consumes the PTE at
 * its start instant but charges its latency afterwards; if the
 * operation only became visible once the transfer began, a revoke
 * landing inside that latency window would see an idle device, queue
 * its action, and complete -- and the operation would then consume
 * memory through the just-revoked translation. A drain request that
 * arrives during the translation phase instead aborts the operation
 * before anything lands (the model checker's dev-dma-race exploration
 * is what caught the narrower window).
 *
 * Consistency actions queued at the device (by the initiator, via the
 * shared CpuShootState machinery) are drained at every operation
 * boundary: the drain applies all queued invalidations at one
 * simulated instant and then sleeps the accumulated cost, which makes
 * it atomic against the initiator's time-advancing critical sections
 * without taking the action lock. An idle device may sit on queued
 * actions indefinitely -- exactly like an idle processor -- because
 * it performs no translations until the next drain.
 *
 * PlantedBug::SkipIotlbInvalidate plants the checker's device bug
 * here: the drain clears the action-needed flag and charges full cost
 * but skips the invalidations, leaving stale IOTLB entries the
 * stale-translation oracle must catch.
 */

#ifndef MACH_DEV_DMA_DEVICE_HH
#define MACH_DEV_DMA_DEVICE_HH

#include <cstdint>
#include <string>

#include "base/types.hh"
#include "hw/tlb.hh"

namespace mach::kern
{
class Machine;
} // namespace mach::kern

namespace mach::pmap
{
class Pmap;
class PmapSystem;
} // namespace mach::pmap

namespace mach::dev
{

/** A deterministic DMA access pattern driven by the device fiber. */
struct DmaStream
{
    /** Address space the device DMAs against. */
    pmap::Pmap *pmap = nullptr;
    /** Page receiving one DMA write per beat. */
    Vpn target = 0;
    /** First of @p decoys pages swept with DMA reads each beat. */
    Vpn decoy_base = 0;
    /**
     * Pages read per beat after the target write. Sized past the
     * IOTLB capacity this evicts the target's entry between beats,
     * forcing a fresh IOMMU walk (and a fresh revocation race) every
     * beat.
     */
    unsigned decoys = 0;
    /** Idle time between beats; beats repeat until stop(). */
    Tick gap = 0;
};

/** One DMA-capable device; a responder in the shootdown protocol. */
class DmaDevice
{
  public:
    /**
     * Device @p index (0-based) gets responder id ncpus + index and
     * sits on node MachineConfig::nodeOfDevice(index). Construct
     * after the PmapSystem; the creator must call
     * ShootdownController::registerResponder(this) before the first
     * DMA operation.
     */
    DmaDevice(kern::Machine &machine, pmap::PmapSystem &pmaps,
              unsigned index);

    // ---- Shootdown responder role ------------------------------------

    /** Responder id in the shared CPU+device id space (>= ncpus). */
    CpuId id() const { return id_; }
    /** NUMA node the device's bus interface sits on. */
    unsigned node() const { return node_; }
    /** The IOTLB the shootdown protocol must keep fresh. */
    hw::Tlb &tlb() { return iotlb_; }
    const hw::Tlb &tlb() const { return iotlb_; }

    /**
     * True while an operation that already consumed a translation is
     * still in flight. The initiator may not complete its revoke while
     * this holds: the transfer commits through the old mapping.
     */
    bool inFlight() const { return in_flight_; }

    /**
     * Ask an in-flight operation to complete or abort within
     * hw::kDevDrainBound. Idempotent; a no-op when nothing is in
     * flight. Does not consume the caller's simulated time.
     */
    void requestDrain();

    /** Short label for traces and audit reports, e.g. "dev2". */
    std::string describe() const;

    unsigned index() const { return index_; }

    // ---- DMA operations (fiber context: they consume simulated
    // time, so call only from a fiber -- a device stream, a kernel
    // thread acting as the device driver, or a test fiber) -----------

    /**
     * One DMA read of page @p vpn. Returns false on a translation
     * fault (no mapping, or insufficient protection) or when a
     * concurrent revocation's drain request aborted the operation.
     */
    bool dmaRead(pmap::Pmap &pmap, Vpn vpn);

    /**
     * One DMA write of @p value into @p vpn at byte @p offset. The
     * transfer occupies the wire for dev_transfer_cost; a concurrent
     * requestDrain() may abort it (nothing is written). Returns true
     * only when the write committed.
     */
    bool dmaWrite(pmap::Pmap &pmap, Vpn vpn, unsigned offset,
                  std::uint32_t value);

    /** Enroll in @p pmap's in-use set (before the first operation). */
    void attachTo(pmap::Pmap &pmap);

    /**
     * Leave @p pmap's in-use set: drain queued actions, flush the
     * space from the IOTLB, then clear the in-use bit -- so no stale
     * state dangles once initiators stop queueing at this device.
     * Fiber context (the drain sleeps).
     */
    void detachFrom(pmap::Pmap &pmap);

    // ---- Streaming ----------------------------------------------------

    /**
     * Spawn the device fiber running @p stream (attaches to its pmap
     * first). One stream at a time.
     */
    void startStream(const DmaStream &stream);

    /** Ask a running stream to wind down at its next beat boundary. */
    void stop() { stop_ = true; }

    bool streaming() const { return streaming_; }

    /** Beats completed so far (scenario predicates key off this). */
    std::uint64_t beat() const { return beat_; }

    // ---- Statistics ---------------------------------------------------

    std::uint64_t dma_reads = 0;
    std::uint64_t dma_writes = 0;
    /** Writes whose transfer completed and landed in memory. */
    std::uint64_t writes_committed = 0;
    /** Operations aborted by a drain request before completion. */
    std::uint64_t dma_aborts = 0;
    /** Operations dropped on a translation fault. */
    std::uint64_t dma_faults = 0;
    /** IOMMU page-table walks performed (IOTLB misses). */
    std::uint64_t iommu_walks = 0;
    /** Action-queue drain passes. */
    std::uint64_t drains = 0;

  private:
    /**
     * Apply all queued consistency actions at the current instant,
     * then sleep the accumulated invalidation cost. No-op when the
     * action-needed flag is clear.
     */
    void drainPending();

    /** translate() outcome. */
    enum class Xlate
    {
        Ok,
        /** Invalid PTE or insufficient rights; a fault was counted. */
        Fault,
        /**
         * A drain request arrived mid-translation (the initiator may
         * be spinning on inFlight() while holding the pmap lock the
         * walker stalls on, so the walker must yield, not wait).
         */
        Aborted,
    };

    /**
     * Resolve @p vpn for @p write access: IOTLB probe, then the IOMMU
     * walk on a miss.
     */
    Xlate translate(pmap::Pmap &pmap, Vpn vpn, bool write, Pfn *pfn);

    /** The stream fiber body. */
    void streamBody();

    kern::Machine &machine_;
    pmap::PmapSystem &pmaps_;
    unsigned index_;
    CpuId id_;
    unsigned node_;
    hw::Tlb iotlb_;

    // In-flight transfer state (see file comment). The transfer is
    // modelled as a quantum-paced sleep toward deadline_; a drain
    // request pulls the deadline in, so the wire is quiet within
    // hw::kDevDrainBound (+ one polling quantum) of the request.
    bool in_flight_ = false;
    bool drain_requested_ = false;
    Tick transfer_end_ = 0;
    Tick deadline_ = 0;

    // Stream state.
    DmaStream stream_;
    bool streaming_ = false;
    bool stop_ = false;
    std::uint64_t beat_ = 0;
};

} // namespace mach::dev

#endif // MACH_DEV_DMA_DEVICE_HH
