/**
 * @file
 * Pluggable TLB-consistency responder interface.
 *
 * The paper's protocol talks about "processors using the pmap", but
 * nothing in the algorithm is CPU-specific: any agent that caches
 * translations and can be asked to invalidate them is a responder.
 * This interface widens the shootdown protocol's responder set beyond
 * kern::Cpu so DMA-capable devices with IOTLBs (dev::DmaDevice)
 * participate as first-class members.
 *
 * Responders occupy the tail of the CpuSet id space: ids
 * [0, ncpus) are CPUs, ids [ncpus, ncpus + devices) are registered
 * TlbResponders. A Pmap's in-use set carries both kinds of bits, so
 * othersUsing() naturally triggers a shootdown when only a device
 * still caches the space.
 *
 * The device-specific wrinkle the interface exposes: a device may have
 * a DMA transfer in flight through the translation being revoked. The
 * initiator calls requestDrain(), which bounds the remaining transfer
 * time (complete-or-abort within hw::kDevDrainBound), and then spins
 * until inFlight() clears -- the analogue of the paper's "wait until
 * every user acknowledged", with a bounded rather than interrupt-paced
 * acknowledgement latency.
 */

#ifndef MACH_PMAP_RESPONDER_HH
#define MACH_PMAP_RESPONDER_HH

#include <string>

#include "base/types.hh"

namespace mach::hw
{
class Tlb;
} // namespace mach::hw

namespace mach::pmap
{

/** A non-CPU agent that caches translations and answers shootdowns. */
class TlbResponder
{
  public:
    virtual ~TlbResponder() = default;

    /** Responder id in the shared CPU+device id space (>= ncpus). */
    virtual CpuId id() const = 0;

    /** NUMA node the responder's bus interface sits on. */
    virtual unsigned node() const = 0;

    /** The translation cache the shootdown protocol must keep fresh. */
    virtual hw::Tlb &tlb() = 0;
    virtual const hw::Tlb &tlb() const = 0;

    /**
     * True while a DMA transfer that already consumed a translation is
     * still on the wire. The initiator may not complete its revoke
     * while this holds: the transfer commits through the old mapping.
     */
    virtual bool inFlight() const = 0;

    /**
     * Ask an in-flight transfer to complete or abort within the
     * configured drain bound. Idempotent; a no-op when nothing is in
     * flight. Does not consume the caller's simulated time.
     */
    virtual void requestDrain() = 0;

    /** Short label for traces and audit reports, e.g. "dev2". */
    virtual std::string describe() const = 0;
};

} // namespace mach::pmap

#endif // MACH_PMAP_RESPONDER_HH
