/**
 * @file
 * The simulated multiprocessor: CPUs, bus, memory, interrupt controller
 * and scheduler.
 *
 * A Machine belongs to one vm::Kernel and calls it directly, as Mach's
 * machine-dependent code calls the VM system and the pmap module: the
 * trap path (Cpu::access) resolves faults with vm::Kernel::handleFault,
 * a context switch deactivates and activates pmaps, and a processor
 * leaving the idle set drains its queued consistency actions through
 * the kernel's ShootdownController (Section 4).
 */

#ifndef MACH_KERN_MACHINE_HH
#define MACH_KERN_MACHINE_HH

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "base/rng.hh"
#include "base/types.hh"
#include "hw/bus.hh"
#include "hw/intr.hh"
#include "hw/machine_config.hh"
#include "hw/phys_mem.hh"
#include "kern/cpu.hh"
#include "numa/topology.hh"
#include "sim/context.hh"

namespace mach::vm
{
class Kernel;
} // namespace mach::vm

namespace mach::xpr
{
class Buffer;
} // namespace mach::xpr

namespace mach::obs
{
class Recorder;
} // namespace mach::obs

namespace mach::kern
{

class Sched;

/** One simulated multiprocessor. */
class Machine
{
  public:
    /** Built by @p kernel, which owns the machine and outlives it. */
    Machine(const hw::MachineConfig &config, vm::Kernel &kernel);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    const hw::MachineConfig &cfg() const { return config_; }

    /** The VM system and pmap module this machine runs. */
    vm::Kernel &kernel() { return kernel_; }

    sim::Context &ctx() { return ctx_; }
    hw::PhysMem &mem() { return *mem_; }
    /** Node 0's bus (the only bus on non-NUMA machines). */
    hw::Bus &bus() { return *buses_[0]; }
    /** Bus of NUMA node @p node. */
    hw::Bus &bus(unsigned node) { return *buses_[node]; }
    hw::InterruptController &intr() { return *intr_; }

    // ---- NUMA topology ----------------------------------------------

    const numa::Topology &topo() const { return topo_; }
    unsigned numaNodes() const { return topo_.nodes(); }
    unsigned nodeOfCpu(CpuId id) const { return topo_.nodeOfCpu(id); }

    /** Accesses priced across every node's bus (prefix watermarking). */
    std::uint64_t
    busAccessTotal() const
    {
        std::uint64_t total = 0;
        for (const auto &bus : buses_)
            total += bus->accessCount();
        return total;
    }
    Sched &sched() { return *sched_; }
    Rng &rng() { return rng_; }
    xpr::Buffer &xpr() { return *xpr_; }

    /**
     * The timeline recorder (always constructed, off by default --
     * instrumentation sites test recorder().enabled() first).
     */
    obs::Recorder &recorder() { return *recorder_; }
    const obs::Recorder &recorder() const { return *recorder_; }

    unsigned ncpus() const { return static_cast<unsigned>(cpus_.size()); }
    Cpu &cpu(CpuId id);

    Tick now() const { return ctx_.now(); }

    // ---- Interrupt dispatch -----------------------------------------

    /**
     * Service routine for an interrupt source. A table rather than a
     * direct call because tests replace the shootdown handler
     * (tests/kern_test.cc).
     */
    using IrqHandler = std::function<void(Cpu &)>;

    /** Install the service routine for an interrupt source. */
    void setIrqHandler(hw::Irq irq, IrqHandler handler);

    /** Invoke the handler for @p irq on @p cpu (from Cpu::poll). */
    void dispatchIrq(hw::Irq irq, Cpu &cpu);

    /** First virtual address belonging to the shared kernel space. */
    static constexpr VAddr kKernelBase = 0xc0000000u;
    /** End of the kernel space (exclusive). */
    static constexpr VAddr kKernelHi = 0xfffff000u;

    /** Processor pool of @p id under the Section 8 restructuring. */
    unsigned poolOfCpu(CpuId id) const
    {
        return id / (ncpus() / config_.kernel_pools);
    }

    /**
     * Pool owning kernel virtual page @p vpn, or -1 when the address
     * does not fall squarely into one pool's kmem slice (such ranges
     * are treated as machine-global).
     */
    int poolOfKernelVpn(Vpn vpn) const;

    /**
     * Install (or clear) a perturbation schedule on both the event
     * queue and the bus -- the model checker's and `machsim
     * --schedule`'s single entry point. Must be called before the
     * perturbed events are scheduled (in practice: right after
     * construction, before any workload runs); the perturber must
     * outlive the machine or be cleared first.
     */
    void
    setPerturber(const SchedulePerturber *perturber)
    {
        ctx_.queue().setPerturber(perturber);
        // On NUMA shapes every node bus counts accesses independently,
        // so one b<n> directive fires on whichever bus reaches access
        // n (possibly several) -- deterministic either way.
        for (auto &bus : buses_)
            bus->setPerturber(perturber);
    }

    /** Begin periodic timer interrupts on all CPUs (if configured). */
    void startTimers();

    /** Drive simulation until @p until or until the event queue drains. */
    std::uint64_t run(Tick until = ~Tick{0});

    /** Outcome of runPrefix: how far the machine got and why it parked. */
    struct PrefixRun
    {
        /** Events dispatched by this call. */
        std::uint64_t events = 0;
        /**
         * True when the run parked at the requested watermark and can
         * be resumed; false when it finished on its own (queue drained,
         * time bound reached, or a stop was requested), in which case
         * resuming would over-run what a single run() would have done.
         */
        bool parked = true;
    };

    /**
     * Drive simulation like run(), but park (between events) as soon as
     * the event queue's insertion count reaches @p event_watermark or
     * the bus access count reaches @p bus_watermark. Both counters are
     * deterministic, so the parked state is a replayable prefix of the
     * unperturbed run: the run farm snapshots it (fork-style) and lets
     * each perturbed probe resume from the snapshot instead of
     * re-simulating from tick 0. Callers must leave slack below the
     * smallest perturbed index -- the park point lands at the first
     * event boundary at or past a watermark, and a single event may
     * insert many events / issue many bus accesses before the check.
     */
    PrefixRun runPrefix(std::uint64_t event_watermark,
                        std::uint64_t bus_watermark,
                        Tick until = ~Tick{0});

  private:
    /** One CPU's timer tick (raw call: @p machine, token = CpuId). */
    static void timerTick(void *machine, std::uint64_t id);

    const hw::MachineConfig config_;
    vm::Kernel &kernel_;
    numa::Topology topo_;
    sim::Context ctx_;
    Rng rng_;
    std::unique_ptr<hw::PhysMem> mem_;
    std::vector<std::unique_ptr<hw::Bus>> buses_;
    std::unique_ptr<hw::InterruptController> intr_;
    std::vector<std::unique_ptr<Cpu>> cpus_;
    std::unique_ptr<Sched> sched_;
    std::unique_ptr<xpr::Buffer> xpr_;
    std::unique_ptr<obs::Recorder> recorder_;
    std::array<IrqHandler, hw::kNumIrqs> irq_handlers_{};
    bool timers_on_ = false;
};

} // namespace mach::kern

#endif // MACH_KERN_MACHINE_HH
