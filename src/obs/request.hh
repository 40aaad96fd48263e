/**
 * @file
 * Request-scoped latency attribution.
 *
 * A serving-tier request wants its end-to-end latency explained, not
 * just measured: of the microseconds a request took, how many went to
 * useful compute, how many to VM faults, TLB refill walks, posting
 * shootdown IPIs, spinning on responders, and servicing *other*
 * initiators' shootdowns as a responder? The decomposition here is
 * exclusive-interval accounting on the requesting thread: a
 * RequestSlot carries a small component stack; every instrumented
 * kernel boundary (vm.fault entry, the pmap walk window, the
 * shootdown IPI-post and sync phases, the responder service routine)
 * is an obs::Probe (obs/probe.hh) whose declaration names its
 * component; the probe pushes it on entry and pops it on exit, and
 * each switch banks the elapsed interval to the component that was
 * current. Time belonging to no instrumented section is Compute, the
 * residual. By
 * construction the components sum *exactly* to the measured
 * end-to-end request latency -- the property tests/serving_test.cc
 * enforces (the acceptance bound is 1%; the identity is integral).
 *
 * Attribution never charges simulated time and draws no randomness:
 * it only reads the simulated clock at boundaries already present in
 * the run. Threads without a slot (every pre-serving workload) pay
 * one pointer test per boundary, so existing goldens are untouched.
 */

#ifndef MACH_OBS_REQUEST_HH
#define MACH_OBS_REQUEST_HH

#include <array>
#include <cstdint>

#include "base/types.hh"
#include "obs/metrics.hh"

namespace mach::obs
{

/** Where a request's wall-clock interval is banked. */
enum class ReqComponent : std::uint8_t
{
    Compute = 0,    ///< Residual: the request's own work (never pushed).
    Fault,          ///< vm.fault resolution (incl. COW, pagein, zfill).
    Walk,           ///< TLB-miss page-table walk + refill window.
    IpiPost,        ///< Shootdown initiator: posting the IPIs.
    ResponderWait,  ///< Shootdown initiator: sync-spin on responders.
    Drain,          ///< Interrupted as a responder: stall + drain.
};

constexpr unsigned kReqComponents = 6;

/** Stable short name for a component ("compute", "fault", ...). */
const char *reqComponentName(ReqComponent component);

/**
 * Per-request attribution state, owned by the workload issuing the
 * request and pointed to by kern::Thread::obs_request while the
 * request is in flight.
 */
class RequestSlot
{
  public:
    /** Arm the slot at request start; current component = Compute. */
    void
    begin(Tick now)
    {
        start_ = last_ = now;
        depth_ = 0;
        stack_[0] = ReqComponent::Compute;
        acc_.fill(0);
    }

    /** Enter a nested component (hook-site entry). */
    void
    push(ReqComponent component, Tick now)
    {
        bank(now);
        if (depth_ + 1 < kMaxDepth)
            ++depth_;
        stack_[depth_] = component;
    }

    /** Leave the current component (hook-site exit). */
    void
    pop(Tick now)
    {
        bank(now);
        if (depth_ > 0)
            --depth_;
    }

    /**
     * Close the request: bank the tail interval (and any components
     * left open by a non-local exit) and return the end-to-end
     * latency. Afterwards components() sums exactly to the return
     * value.
     */
    Tick
    finish(Tick now)
    {
        bank(now);
        depth_ = 0;
        return now - start_;
    }

    /** Per-component totals, indexed by ReqComponent. */
    const std::array<Tick, kReqComponents> &
    components() const
    {
        return acc_;
    }

    Tick start() const { return start_; }

  private:
    void
    bank(Tick now)
    {
        acc_[static_cast<unsigned>(stack_[depth_])] += now - last_;
        last_ = now;
    }

    // Nesting in practice is Compute -> Fault -> IpiPost/ResponderWait
    // with a Drain possibly interrupting any level; 8 is headroom (an
    // overflowing push banks to the parent rather than corrupting).
    static constexpr unsigned kMaxDepth = 8;

    Tick start_ = 0;
    Tick last_ = 0;
    unsigned depth_ = 0;
    std::array<ReqComponent, kMaxDepth> stack_{};
    std::array<Tick, kReqComponents> acc_{};
};

/**
 * Record a finished request into @p metrics: total latency into
 * "serve.request_us" and each nonzero-able component into
 * "serve.<component>_us" (all in whole microseconds, all recorded
 * unconditionally so the histogram set -- and with it the stats-JSON
 * schema -- is identical across runs of the same workload).
 */
void recordRequest(Metrics &metrics, const RequestSlot &slot,
                   Tick total);

} // namespace mach::obs

#endif // MACH_OBS_REQUEST_HH
