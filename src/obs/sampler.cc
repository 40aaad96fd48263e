#include "obs/sampler.hh"

#include <deque>
#include <string>
#include <vector>

#include "hw/bus.hh"
#include "hw/phys_mem.hh"
#include "hw/tlb.hh"
#include "kern/cpu.hh"
#include "kern/machine.hh"
#include "obs/recorder.hh"
#include "pmap/pmap.hh"
#include "pmap/shootdown.hh"
#include "vm/kernel.hh"

namespace mach::obs
{

const char *
Sampler::cpuCounterName(const char *suffix, CpuId id)
{
    std::string name = "cpu" + std::to_string(id) + "." + suffix;
    for (const auto &existing : names_) {
        if (existing == name)
            return existing.c_str();
    }
    names_.push_back(std::move(name));
    return names_.back().c_str();
}

Sampler::Sampler(vm::Kernel &kernel, Tick interval) : kernel_(kernel)
{
    kernel_.machine().recorder().sampleEvery(
        interval == 0 ? kMsec : interval, [this] { sample(); });
}

Sampler::~Sampler()
{
    kernel_.machine().recorder().sampleEvery(0, nullptr);
}

void
Sampler::sample()
{
    kern::Machine &machine = kernel_.machine();
    Recorder &rec = machine.recorder();

    const TrackId mt = rec.machineTrack();
    rec.counter(mt, "bus.accesses", machine.busAccessTotal());
    if (machine.numaNodes() > 1) {
        std::uint64_t remote = 0;
        for (CpuId id = 0; id < machine.ncpus(); ++id)
            remote += machine.cpu(id).remote_mem_accesses;
        rec.counter(mt, "numa.remote_accesses", remote);
        pmap::ShootdownController &sc = kernel_.pmaps().shoot();
        rec.counter(mt, "numa.cross_node_ipis", sc.cross_node_ipis);
        rec.counter(mt, "numa.forwarded_ipis", sc.forwarded_ipis);
    }
    rec.counter(mt, "events.queued", machine.ctx().queue().size());
    rec.counter(mt, "mem.free_frames", machine.mem().freeFrames());

    pmap::ShootdownController &shoot = kernel_.pmaps().shoot();
    for (CpuId id = 0; id < machine.ncpus(); ++id) {
        kern::Cpu &cpu = machine.cpu(id);
        const TrackId track = rec.cpuTrack(id);
        const hw::Tlb &tlb = cpu.tlb();
        const std::uint64_t lookups = tlb.hits + tlb.misses;
        rec.counter(track, cpuCounterName("tlb_hit_pct", id),
                    lookups == 0 ? 100 : tlb.hits * 100 / lookups);
        rec.counter(track, cpuCounterName("shoot_q", id),
                    shoot.stateFor(id).queue.size());
        rec.counter(track, cpuCounterName("state", id),
                    cpu.idle ? 0 : (cpu.active ? 2 : 1));
    }
}

} // namespace mach::obs
