#include "kern/machine.hh"

#include "base/logging.hh"
#include "kern/sched.hh"
#include "obs/recorder.hh"
#include "xpr/xpr.hh"

namespace mach::kern
{

Machine::Machine(const hw::MachineConfig &config, vm::Kernel &kernel)
    : config_((config.validate(), config)), kernel_(kernel),
      topo_(&config_), rng_(config.seed)
{
    mem_ = std::make_unique<hw::PhysMem>(config_.phys_frames,
                                         topo_.nodes());
    buses_.reserve(topo_.nodes());
    for (unsigned node = 0; node < topo_.nodes(); ++node)
        buses_.push_back(std::make_unique<hw::Bus>(&config_, node));
    intr_ = std::make_unique<hw::InterruptController>(&config_,
                                                      config_.ncpus);
    intr_->setKick([this](CpuId id) { cpu(id).kick(); });

    cpus_.reserve(config_.ncpus);
    for (CpuId id = 0; id < config_.ncpus; ++id)
        cpus_.push_back(std::make_unique<Cpu>(this, id));

    xpr_ = std::make_unique<xpr::Buffer>(config_.xpr_capacity);
    xpr_->setEnabled(config_.xpr_enabled);

    recorder_ =
        std::make_unique<obs::Recorder>([this] { return ctx_.now(); });
    recorder_->setCpuTracks(config_.ncpus);
    for (CpuId id = 0; id < config_.ncpus; ++id) {
        cpus_[id]->tlb().attachObs(recorder_.get(),
                                   recorder_->cpuTrack(id));
    }

    sched_ = std::make_unique<Sched>(this);

    // Default timer service: consume the tick cost and ask the current
    // thread to reschedule at the next quantum boundary. Occasionally
    // the tick also runs longer spl-protected kernel housekeeping --
    // the "varying intervals for which interrupts are disabled; many
    // short intervals, but few long ones" that give kernel shootdown
    // times their long tail (Section 8).
    setIrqHandler(hw::Irq::Timer, [this](Cpu &cpu) {
        Tick service = hw::kTimerServiceCost;
        if (rng_.chance(0.03))
            service += Tick(rng_.exponential(2500.0) * kUsec);
        if (config_.shootdown_policy ==
            hw::ShootdownPolicy::DelayedFlush) {
            // Technique 2: the periodic tick flushes the whole TLB so
            // that pending mapping changes eventually become safe.
            cpu.tlb().flushAll();
            service += hw::kTlbFlushCost;
        }
        cpu.advance(service);
        cpu.need_resched = true;
    });
}

Machine::~Machine() = default;

Cpu &
Machine::cpu(CpuId id)
{
    MACH_ASSERT(id < cpus_.size());
    return *cpus_[id];
}

void
Machine::setIrqHandler(hw::Irq irq, IrqHandler handler)
{
    irq_handlers_[static_cast<unsigned>(irq)] = std::move(handler);
}

void
Machine::dispatchIrq(hw::Irq irq, Cpu &cpu)
{
    IrqHandler &handler = irq_handlers_[static_cast<unsigned>(irq)];
    if (!handler) {
        warn("unhandled interrupt %u on cpu %u",
             static_cast<unsigned>(irq), cpu.id());
        return;
    }
    handler(cpu);
}

int
Machine::poolOfKernelVpn(Vpn vpn) const
{
    const unsigned pools = config_.kernel_pools;
    if (pools <= 1)
        return -1;
    const Vpn lo = vaToVpn(kKernelBase);
    const Vpn hi = vaToVpn(kKernelHi);
    if (vpn < lo || vpn >= hi)
        return -1;
    const Vpn slice = (hi - lo) / pools;
    const int pool = static_cast<int>((vpn - lo) / slice);
    return pool < static_cast<int>(pools) ? pool : -1;
}

void
Machine::startTimers()
{
    if (config_.timer_period == 0 || timers_on_)
        return;
    timers_on_ = true;
    for (CpuId id = 0; id < ncpus(); ++id) {
        // Stagger ticks so the CPUs' timers do not beat in lockstep.
        const Tick offset =
            config_.timer_period * (id + 1) / (ncpus() + 1);
        ctx_.scheduleCall(now() + offset, &Machine::timerTick, this, id);
    }
}

void
Machine::timerTick(void *machine, std::uint64_t id)
{
    Machine &m = *static_cast<Machine *>(machine);
    const auto target = static_cast<CpuId>(id);
    // Tickless idle: parked processors take no scheduler interrupts.
    if (!m.cpu(target).idle)
        m.intr_->post(target, hw::Irq::Timer, m.now());
    m.ctx_.scheduleCall(m.now() + m.config_.timer_period,
                        &Machine::timerTick, machine, id);
}

std::uint64_t
Machine::run(Tick until)
{
    return ctx_.run(until);
}

Machine::PrefixRun
Machine::runPrefix(std::uint64_t event_watermark,
                   std::uint64_t bus_watermark, Tick until)
{
    PrefixRun out;
    const sim::EventQueue &queue = ctx_.queue();
    out.events = ctx_.runGuarded(
        until,
        [&] {
            return queue.scheduledCount() >= event_watermark ||
                   busAccessTotal() >= bus_watermark;
        },
        &out.parked);
    return out;
}

} // namespace mach::kern
