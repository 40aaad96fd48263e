/**
 * @file
 * Shared-bus contention model.
 *
 * The Multimax is a bus-based machine with write-through caches; earlier
 * experiments (cited in Section 7.1) showed bus congestion becoming
 * significant once 12 or more processors actively use the bus. During a
 * large shootdown the initiator plus all spinning responders are bus
 * users (interrupt state saves and shootdown-structure polls miss in
 * cache), which is what bends Figure 2 upward and doubles its standard
 * deviation at 13-15 processors.
 *
 * The model: each memory access pays a penalty proportional to the
 * number of current bus users beyond a threshold, plus deterministic
 * pseudo-random jitter while contended.
 */

#ifndef MACH_HW_BUS_HH
#define MACH_HW_BUS_HH

#include "base/perturb.hh"
#include "base/rng.hh"
#include "base/types.hh"
#include "hw/machine_config.hh"

namespace mach::hw
{

/**
 * Tracks active bus users and prices accesses accordingly.
 *
 * On NUMA shapes each node owns one Bus (its CPUs contend only with
 * each other); @p node salts the jitter RNG so the per-node streams
 * are independent. Node 0 with no salt is bit-identical to the
 * single-bus machine, which the determinism goldens pin.
 */
class Bus
{
  public:
    explicit Bus(const MachineConfig *config, unsigned node = 0)
        : config_(config),
          rng_(config->seed ^ 0xb05b05b05ull ^
               (node * 0x9e3779b97f4a7c15ull))
    {
    }

    /** A CPU begins actively using the bus (spinning, bursts of misses). */
    void
    enter()
    {
        ++users_;
    }

    /** The CPU stops actively using the bus. */
    void
    leave()
    {
        MACH_ASSERT(users_ > 0);
        --users_;
    }

    unsigned users() const { return users_; }

    /** Total accesses ever priced (1-based id of the last access). */
    std::uint64_t accessCount() const { return accesses_; }

    /**
     * Install (or clear) a perturbation schedule: the directed extra
     * ticks are added to the cost of the matching access numbers. The
     * access counter is deterministic, so bus perturbations replay
     * exactly like event delays (see base/perturb.hh).
     */
    void setPerturber(const SchedulePerturber *perturber)
    {
        perturber_ = perturber;
    }

    /**
     * Cost of one memory access right now: the uncontended base cost
     * plus congestion penalty and jitter when the bus is saturated.
     */
    Tick
    accessCost()
    {
        Tick cost = kMemAccessCost;
        if (config_->mem_jitter > 0)
            cost += rng_.below(config_->mem_jitter);
        if (users_ > config_->bus_contention_threshold) {
            const unsigned excess =
                users_ - config_->bus_contention_threshold;
            cost += excess * kBusPenaltyPerUser;
            if (config_->bus_contended_jitter > 0)
                cost += rng_.below(config_->bus_contended_jitter);
        }
        ++accesses_;
        if (perturber_ != nullptr)
            cost += perturber_->busDelay(accesses_);
        return cost;
    }

    /**
     * Cost of @p count back-to-back accesses at current prices. Draws
     * the same per-access jitter sequence as @p count accessCost()
     * calls, so tick totals (and the RNG stream) are identical -- the
     * overload only spares callers the per-draw call overhead.
     */
    Tick
    accessCost(unsigned count)
    {
        Tick total = 0;
        for (unsigned i = 0; i < count; ++i)
            total += accessCost();
        return total;
    }

    /** RAII bus-user registration. */
    class User
    {
      public:
        explicit User(Bus &bus) : bus_(bus) { bus_.enter(); }
        ~User() { bus_.leave(); }
        User(const User &) = delete;
        User &operator=(const User &) = delete;

      private:
        Bus &bus_;
    };

  private:
    const MachineConfig *config_;
    Rng rng_;
    unsigned users_ = 0;
    std::uint64_t accesses_ = 0;
    const SchedulePerturber *perturber_ = nullptr;
};

} // namespace mach::hw

#endif // MACH_HW_BUS_HH
