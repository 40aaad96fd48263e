/**
 * @file
 * Machine-wide statistics collection and reporting.
 *
 * Gathers the counters scattered across the substrates (TLBs, faults,
 * interrupts, shootdown machinery, pager) into one structure that is
 * captured after a run and pretty-printed -- the "utility programs to
 * read the collected data" side of Section 6, generalized beyond
 * shootdown events.
 */

#ifndef MACH_XPR_MACHINE_STATS_HH
#define MACH_XPR_MACHINE_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace mach::vm
{
class Kernel;
} // namespace mach::vm

namespace mach::xpr
{

/** Per-processor counters. */
struct CpuStats
{
    std::uint64_t tlb_hits = 0;
    std::uint64_t tlb_misses = 0;
    std::uint64_t tlb_writebacks = 0;
    std::uint64_t tlb_flushes = 0;
    std::uint64_t tlb_single_invalidates = 0;
    std::uint64_t interrupts_taken = 0;
    std::uint64_t faults_taken = 0;
    std::uint64_t remote_mem_accesses = 0;

    double
    hitRatio() const
    {
        const std::uint64_t total = tlb_hits + tlb_misses;
        return total ? static_cast<double>(tlb_hits) / total : 0.0;
    }
};

/** Per-DMA-device counters (dev::DmaDevice + its IOTLB). */
struct DeviceStats
{
    std::uint64_t dma_reads = 0;
    std::uint64_t dma_writes = 0;
    std::uint64_t writes_committed = 0;
    std::uint64_t dma_aborts = 0;
    std::uint64_t dma_faults = 0;
    std::uint64_t iommu_walks = 0;
    std::uint64_t drains = 0;
    std::uint64_t iotlb_hits = 0;
    std::uint64_t iotlb_misses = 0;
    std::uint64_t iotlb_flushes = 0;
    std::uint64_t iotlb_single_invalidates = 0;
};

/** Snapshot of every counter of interest on a machine. */
struct MachineStats
{
    std::vector<CpuStats> cpus;

    // DMA devices (empty with devices == 0; kept out of runDigest so
    // device-less goldens are unaffected -- same discipline as the
    // policy and NUMA counters below).
    std::vector<DeviceStats> devices;
    std::uint64_t device_commands = 0;
    std::uint64_t device_sync_waits = 0;
    std::uint64_t cross_node_device_commands = 0;

    // Shootdown machinery.
    std::uint64_t shootdowns_initiated = 0;
    std::uint64_t delayed_waits = 0;
    std::uint64_t ipis_sent = 0;
    std::uint64_t responder_passes = 0;
    std::uint64_t idle_drains = 0;
    std::uint64_t queue_overflows = 0;
    std::uint64_t remote_invalidates = 0;

    // Shootdown-avoidance policy counters (all zero under the Baseline
    // policy; kept out of runDigest so pre-policy goldens are
    // unaffected -- each policy pins its own golden instead).
    std::uint64_t ipis_elided = 0;
    std::uint64_t flushes_deferred = 0;
    std::uint64_t deferred_flushes_applied = 0;
    std::uint64_t actions_merged = 0;
    std::uint64_t range_invalidates = 0;
    std::uint64_t full_space_flushes = 0;
    std::uint64_t reuse_elisions = 0;

    // NUMA interconnect (all zero on single-node machines; kept out of
    // runDigest so single-node goldens are unaffected).
    std::uint64_t cross_node_ipis = 0;
    std::uint64_t forwarded_ipis = 0;
    std::uint64_t remote_faults = 0;
    std::uint64_t local_faults = 0;
    std::uint64_t page_migrations = 0;

    // VM system.
    std::uint64_t faults_resolved = 0;
    std::uint64_t faults_failed = 0;
    std::uint64_t cow_copies = 0;
    std::uint64_t zero_fills = 0;
    std::uint64_t pageouts = 0;
    std::uint64_t pageins = 0;

    // Machine totals.
    std::uint64_t now_usec = 0;
    std::uint32_t free_frames = 0;

    /** Capture the current counters of @p kernel's machine. */
    static MachineStats capture(vm::Kernel &kernel);

    /** Machine-wide totals over all CPUs. */
    CpuStats totals() const;

    /** Multi-line human-readable report. */
    std::string report() const;
};

/**
 * FNV-1a digest over a finished run's observable order contract: the
 * xpr event stream, the final clock, every CPU's TLB counters, and
 * the shootdown controller's counters. Equal digests mean equal runs
 * bit-for-bit; `machsim --repeat` prints one per seed and the farm
 * tests compare them across jobs/snapshot modes. The formula matches
 * tests/determinism_test.cc's local copy, which pins golden values --
 * change neither without the other.
 */
std::uint64_t runDigest(vm::Kernel &kernel);

} // namespace mach::xpr

#endif // MACH_XPR_MACHINE_STATS_HH
