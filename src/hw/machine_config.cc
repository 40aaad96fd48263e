#include "hw/machine_config.hh"

#include <vector>

#include "base/logging.hh"
#include "numa/topology.hh"

namespace mach::hw
{

Spl
MachineConfig::irqPriority(Irq irq) const
{
    switch (irq) {
      case Irq::Shootdown:
        // Baseline hardware delivers the shootdown IPI below device
        // priority, so kernel code that masks devices also blocks
        // shootdowns -- the cause of the kernel-shootdown skew in
        // Section 8. The Section 9 option raises it above devices.
        return high_priority_ipi ? SplHigh : SplSoft;
      case Irq::Timer:
      case Irq::Device:
        return SplDevice;
    }
    panic("irqPriority: bad irq %u", static_cast<unsigned>(irq));
}

void
MachineConfig::setShootdownPolicy(ShootdownPolicy policy)
{
    shootdown_policy = policy;
    if (policy == ShootdownPolicy::LazyAsid)
        tlb_asid_tags = true;
    if (policy == ShootdownPolicy::ReuseElide)
        tlb_software_reload = true;
    if ((policy == ShootdownPolicy::DelayedFlush ||
         policy == ShootdownPolicy::RemoteInvalidate) &&
        tlb_refmod == TlbRefmod::Writeback)
        tlb_refmod = TlbRefmod::None;
}

void
MachineConfig::validate() const
{
    if (ncpus == 0 || ncpus > 1024)
        fatal("MachineConfig: ncpus %u out of range [1,1024]", ncpus);
    if (phys_frames < 64)
        fatal("MachineConfig: need at least 64 physical frames");
    if (tlb_entries == 0)
        fatal("MachineConfig: TLB must have at least one entry");
    if (tlb_l0_entries > 4)
        fatal("MachineConfig: tlb_l0_entries (%u) out of range [0,4]",
              tlb_l0_entries);
    if (action_queue_size == 0)
        fatal("MachineConfig: action queue must hold at least one entry");
    if (xpr_capacity == 0)
        fatal("MachineConfig: xpr buffer must hold at least one entry");
    if (timer_period != 0 && timer_period < kMsec) {
        // One tick costs up to ~230 us of dispatch, service and return
        // (plus the occasional housekeeping pass); periods near that
        // never drain, and a run hangs.
        fatal("MachineConfig: timer_period (%llu ns) must be 0 (off) "
              "or at least 1 ms",
              static_cast<unsigned long long>(timer_period));
    }
    if (kernel_pools == 0 || kernel_pools > ncpus ||
        ncpus % kernel_pools != 0) {
        fatal("MachineConfig: kernel_pools (%u) must evenly divide "
              "ncpus (%u)",
              kernel_pools, ncpus);
    }
    if ((shootdown_policy == ShootdownPolicy::DelayedFlush ||
         shootdown_policy == ShootdownPolicy::RemoteInvalidate) &&
        tlb_refmod == TlbRefmod::Writeback) {
        // Both leave remote TLBs live during the pmap update, so a
        // blind ref/mod writeback could corrupt it. Section 9: remote
        // invalidation "can eliminate shootdown interrupts entirely
        // if the reference/modify bit writeback problem is
        // successfully addressed"; delayed flush was used on MIPS
        // systems, whose TLBs write nothing back (Thompson et al.).
        fatal("MachineConfig: %s leaves remote TLBs live during pmap "
              "updates, so it requires tlb_refmod None or Interlocked "
              "(see Section 9)",
              shootdownPolicyName(shootdown_policy));
    }
    if (shootdown_policy == ShootdownPolicy::DelayedFlush &&
        timer_period == 0)
        fatal("MachineConfig: delayed-flush needs timer interrupts to "
              "drive the buffer flushes");
    if (shootdown_policy == ShootdownPolicy::DelayedFlush && devices > 0)
        fatal("MachineConfig: delayed-flush waits out the processors' "
              "timer-driven TLB flushes, and no timer flushes a device "
              "IOTLB; set devices 0");
    if (virtual_cache && tlb_refmod != TlbRefmod::None) {
        fatal("MachineConfig: the virtual-cache model is software "
              "managed; set tlb_refmod None");
    }
    if (shootdown_policy == ShootdownPolicy::LazyAsid &&
        !tlb_asid_tags) {
        fatal("MachineConfig: the lazy-asid policy defers flushes "
              "across context switches, which only a tagged TLB "
              "survives; set tlb_asid_tags");
    }
    if (shootdown_policy == ShootdownPolicy::ReuseElide) {
        if (tlb_refmod == TlbRefmod::None) {
            fatal("MachineConfig: the reuse-elide policy proves pages "
                  "uncached via the reference bit every TLB fill sets; "
                  "tlb_refmod None breaks that proof");
        }
        if (!tlb_software_reload) {
            fatal("MachineConfig: the reuse-elide proof is only "
                  "race-free when TLB misses stall on a locked pmap, "
                  "i.e. with software reload (a hardware walker could "
                  "re-cache a clean page mid-update, after the "
                  "reference bits were scanned); set "
                  "tlb_software_reload");
        }
    }
    if (shootdown_policy == ShootdownPolicy::RangeFlush &&
        kRangeFlushCrossover < tlb_flush_threshold)
        fatal("MachineConfig: range-flush escalates past %u pages, so "
              "tlb_flush_threshold (%u) must be at most that",
              kRangeFlushCrossover, tlb_flush_threshold);
    if (numa_nodes == 0 || numa_nodes > 8)
        fatal("MachineConfig: numa_nodes (%u) out of range [1,8]",
              numa_nodes);
    if (ncpus % numa_nodes != 0) {
        fatal("MachineConfig: numa_nodes (%u) must evenly divide "
              "ncpus (%u)",
              numa_nodes, ncpus);
    }
    if (numa_nodes > 1 && ncpus / numa_nodes > 16) {
        fatal("MachineConfig: a NUMA node is one bus; at most 16 CPUs "
              "per node (got %u)",
              ncpus / numa_nodes);
    }
    if (numa_nodes > 1 && phys_frames / numa_nodes < 64)
        fatal("MachineConfig: need at least 64 physical frames per "
              "NUMA node");
    std::vector<unsigned> distance;
    std::string why;
    if (!numa::Topology::parseDistance(numa_distance_spec, numa_nodes,
                                       &distance, &why))
        fatal("MachineConfig: bad numa_distance_spec \"%s\": %s",
              numa_distance_spec.c_str(), why.c_str());
    if (numa_pt_replicas && numa_nodes < 2)
        fatal("MachineConfig: per-node page-table replicas need "
              "numa_nodes > 1");
    if (ncpus + devices > 1024) {
        fatal("MachineConfig: ncpus (%u) + devices (%u) exceed the "
              "1024-wide responder id space",
              ncpus, devices);
    }
    if (devices > 0 && iotlb_entries == 0)
        fatal("MachineConfig: an IOTLB must have at least one entry");
    if (numa_nodes > 1 && kernel_pools > 1 &&
        kernel_pools % numa_nodes != 0 &&
        numa_nodes % kernel_pools != 0) {
        fatal("MachineConfig: kernel_pools (%u) and numa_nodes (%u) "
              "must nest",
              kernel_pools, numa_nodes);
    }
    switch (planted_bug) {
      case PlantedBug::SkipAsidGenCheck:
        if (shootdown_policy != ShootdownPolicy::LazyAsid)
            fatal("MachineConfig: PlantedBug::SkipAsidGenCheck plants a "
                  "bug in the lazy-asid context-load hook; set "
                  "shootdown_policy to LazyAsid");
        break;
      case PlantedBug::DeferReplicaSync:
        if (!numa_pt_replicas)
            fatal("MachineConfig: PlantedBug::DeferReplicaSync plants a "
                  "bug in the replica sync path; set numa_pt_replicas");
        break;
      case PlantedBug::SkipIotlbInvalidate:
        if (devices == 0)
            fatal("MachineConfig: PlantedBug::SkipIotlbInvalidate plants "
                  "a bug in the device drain path; set devices > 0");
        break;
      default:
        break;
    }
}

const char *
shootdownPolicyName(ShootdownPolicy policy)
{
    switch (policy) {
      case ShootdownPolicy::Baseline:
        return "baseline";
      case ShootdownPolicy::LazyAsid:
        return "lazy-asid";
      case ShootdownPolicy::Batched:
        return "batched";
      case ShootdownPolicy::RangeFlush:
        return "range-flush";
      case ShootdownPolicy::ReuseElide:
        return "reuse-elide";
      case ShootdownPolicy::Off:
        return "off";
      case ShootdownPolicy::DelayedFlush:
        return "delayed-flush";
      case ShootdownPolicy::RemoteInvalidate:
        return "remote-invalidate";
    }
    panic("shootdownPolicyName: bad policy %u",
          static_cast<unsigned>(policy));
}

bool
parseShootdownPolicy(const std::string &name, ShootdownPolicy *out)
{
    static constexpr ShootdownPolicy kAll[] = {
        ShootdownPolicy::Baseline, ShootdownPolicy::LazyAsid,
        ShootdownPolicy::Batched, ShootdownPolicy::RangeFlush,
        ShootdownPolicy::ReuseElide, ShootdownPolicy::Off,
        ShootdownPolicy::DelayedFlush, ShootdownPolicy::RemoteInvalidate};
    for (const ShootdownPolicy policy : kAll) {
        if (name == shootdownPolicyName(policy)) {
            *out = policy;
            return true;
        }
    }
    return false;
}

} // namespace mach::hw
