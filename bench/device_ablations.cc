/**
 * @file
 * Device ablations: what DMA devices in the responder set do to the
 * paper's shootdown numbers.
 *
 * The 1989 protocol counts processors; docs/DEVICES.md adds DMA
 * devices whose IOTLBs make them first-class shootdown responders.
 * This bench measures the marginal cost of that membership: a driver
 * revokes and restores write access on a hot page while responder
 * threads keep it cached, with 0, 1, or 4 devices streaming DMA
 * against other pages of the same address space. Every revocation
 * must queue a consistency action at each attached device, and a
 * revocation that catches a device mid-operation waits out the
 * bounded drain -- so initiator latency grows with the device count
 * even though the devices never touch the revoked page.
 *
 * The matrix crosses the device count with the shootdown-avoidance
 * policies (--shootdown-policy): avoidance machinery targets
 * processor IPIs, so the device-command traffic is the part of the
 * cost no policy can elide.
 *
 * Results are deterministic for a given scale; the JSON written to
 * BENCH_device.json is a committable baseline that CI archives per
 * run.
 */

#include "bench_common.hh"

#include "dev/dma_device.hh"
#include "obs/metrics.hh"
#include "obs/recorder.hh"
#include "pmap/shootdown.hh"
#include "vm/task.hh"
#include "xpr/analysis.hh"
#include "xpr/machine_stats.hh"

using namespace mach;
using namespace mach::bench;

namespace
{

constexpr unsigned kDeviceCounts[] = {0, 1, 4};
constexpr unsigned kNumDeviceCounts = std::size(kDeviceCounts);

constexpr hw::ShootdownPolicy kPolicies[] = {
    hw::ShootdownPolicy::Baseline,
    hw::ShootdownPolicy::LazyAsid,
    hw::ShootdownPolicy::Batched,
    hw::ShootdownPolicy::RangeFlush,
    hw::ShootdownPolicy::ReuseElide,
};
constexpr unsigned kNumPolicies = std::size(kPolicies);

/** Pages each device sweeps with reads between target writes. */
constexpr unsigned kDecoys = 4;

struct Cell
{
    double mean_usec = 0.0;
    std::uint64_t p99_usec = 0;
    std::uint64_t events = 0;
    std::uint64_t ipis = 0;
    std::uint64_t device_commands = 0;
    std::uint64_t device_sync_waits = 0;
    std::uint64_t dma_writes = 0;
    std::uint64_t dma_aborts = 0;
    std::uint64_t iommu_walks = 0;
    std::uint64_t iotlb_hits = 0;
    std::uint64_t iotlb_misses = 0;
    bool clean = false;
};

Cell
measureCell(unsigned devices, hw::ShootdownPolicy policy)
{
    hw::MachineConfig config;
    config.ncpus = 8;
    config.devices = devices;
    config.seed = 0xdeb1ce;
    config.setShootdownPolicy(policy);

    const unsigned rounds = 100 * benchScale();

    vm::Kernel kernel(config);
    kernel.machine().recorder().enableStats();
    kernel.start();
    bool stop = false;
    kernel.spawnThread(nullptr, "driver", [&](kern::Thread &driver) {
        vm::Task *task = kernel.createTask("devabl");
        // Page 0 is the CPU-hot page the driver revokes; each device
        // gets its own target + decoy chunk in the same address
        // space, so every revocation's responder set includes every
        // attached device.
        const unsigned pages = 1 + devices * (1 + kDecoys);
        VAddr base = 0;
        if (!kernel.vmAllocate(driver, *task, &base,
                               pages * kPageSize, true))
            fatal("vmAllocate failed");
        kern::Thread *toucher = kernel.spawnThread(
            task, "touch", [&, base, pages](kern::Thread &self) {
                for (unsigned i = 0; i < pages; ++i)
                    self.access(base + i * kPageSize, ProtWrite);
            });
        driver.join(*toucher);

        std::vector<kern::Thread *> readers;
        for (int pin = 1; pin <= 3; ++pin) {
            readers.push_back(kernel.spawnThread(
                task, "reader",
                [&, base](kern::Thread &self) {
                    std::uint32_t value = 0;
                    while (!stop) {
                        self.load32(base, &value);
                        self.sleep(200);
                    }
                },
                pin));
        }
        for (unsigned d = 0; d < devices; ++d) {
            const VAddr chunk =
                base + (1 + d * (1 + kDecoys)) * kPageSize;
            dev::DmaStream stream;
            stream.pmap = &task->pmap();
            stream.target = vaToVpn(chunk);
            stream.decoy_base = vaToVpn(chunk + kPageSize);
            stream.decoys = kDecoys;
            stream.gap = 300 * kUsec;
            kernel.device(d).startStream(stream);
        }
        driver.sleep(2 * kMsec); // Warm every cache.

        for (unsigned round = 0; round < rounds; ++round) {
            kernel.vmProtect(driver, *task, base, kPageSize,
                             ProtRead);
            driver.sleep(500);
            kernel.vmProtect(driver, *task, base, kPageSize,
                             ProtReadWrite);
            driver.sleep(500);
        }
        for (unsigned d = 0; d < devices; ++d)
            kernel.device(d).stop();
        for (unsigned d = 0; d < devices; ++d) {
            while (kernel.device(d).streaming())
                driver.sleep(100 * kUsec);
        }
        stop = true;
        for (kern::Thread *reader : readers)
            driver.join(*reader);
        kernel.machine().ctx().requestStop();
    });
    kernel.machine().run();

    const xpr::RunAnalysis analysis =
        xpr::analyze(kernel.machine().xpr());
    const xpr::MachineStats stats =
        xpr::MachineStats::capture(kernel);
    Cell cell;
    cell.mean_usec = analysis.user_initiator.time_usec.mean();
    cell.p99_usec = kernel.machine()
                        .recorder()
                        .metrics()
                        .histogram("shoot.initiator_us")
                        .percentileMille(990);
    cell.events = analysis.user_initiator.events;
    cell.ipis = stats.ipis_sent;
    cell.device_commands = stats.device_commands;
    cell.device_sync_waits = stats.device_sync_waits;
    for (const xpr::DeviceStats &d : stats.devices) {
        cell.dma_writes += d.dma_writes;
        cell.dma_aborts += d.dma_aborts;
        cell.iommu_walks += d.iommu_walks;
        cell.iotlb_hits += d.iotlb_hits;
        cell.iotlb_misses += d.iotlb_misses;
    }
    cell.clean = kernel.pmaps().auditTlbConsistency().empty();
    return cell;
}

double
hitPct(const Cell &cell)
{
    const std::uint64_t total = cell.iotlb_hits + cell.iotlb_misses;
    return total ? 100.0 * static_cast<double>(cell.iotlb_hits) /
                       static_cast<double>(total)
                 : 0.0;
}

void
writeJson(const Cell cells[][kNumPolicies], unsigned scale)
{
    JsonTable table("device_ablations", scale);
    for (unsigned d = 0; d < kNumDeviceCounts; ++d) {
        for (unsigned p = 0; p < kNumPolicies; ++p) {
            const Cell &cell = cells[d][p];
            table.cell(std::string(hw::shootdownPolicyName(kPolicies[p])) +
                       "__dev" + std::to_string(kDeviceCounts[d]));
            table.field("clean", std::uint64_t{cell.clean});
            table.field("latency_usec", cell.mean_usec);
            table.field("latency_p99_us", cell.p99_usec);
            table.field("shootdowns", cell.events);
            table.field("ipis", cell.ipis);
            table.field("device_commands", cell.device_commands);
            table.field("device_sync_waits", cell.device_sync_waits);
            table.field("dma_writes", cell.dma_writes);
            table.field("dma_aborts", cell.dma_aborts);
            table.field("iommu_walks", cell.iommu_walks);
            table.field("iotlb_hit_pct", hitPct(cell));
        }
    }
    table.write("BENCH_device.json");
}

} // namespace

int
main()
{
    setLogQuiet(true);
    const unsigned scale = benchScale();

    static Cell cells[kNumDeviceCounts][kNumPolicies];
    std::vector<std::function<void()>> jobs;
    for (unsigned d = 0; d < kNumDeviceCounts; ++d) {
        for (unsigned p = 0; p < kNumPolicies; ++p)
            jobs.push_back([d, p] {
                cells[d][p] =
                    measureCell(kDeviceCounts[d], kPolicies[p]);
            });
    }
    runFarmed(std::move(jobs));

    std::printf("Devices as shootdown responders "
                "(docs/DEVICES.md): user reprotect latency\n\n");
    std::printf("mean us per reprotect (p99 us)\n");
    std::printf("%-10s", "devices");
    for (unsigned p = 0; p < kNumPolicies; ++p)
        std::printf(" %17s", hw::shootdownPolicyName(kPolicies[p]));
    std::printf("\n");
    for (unsigned d = 0; d < kNumDeviceCounts; ++d) {
        std::printf("%-10u", kDeviceCounts[d]);
        for (unsigned p = 0; p < kNumPolicies; ++p) {
            char buf[32];
            std::snprintf(
                buf, sizeof(buf), "%.0f (%llu)",
                cells[d][p].mean_usec,
                static_cast<unsigned long long>(
                    cells[d][p].p99_usec));
            std::printf(" %17s", buf);
        }
        std::printf("\n");
    }

    std::printf("\nper-cell counters (baseline policy column)\n");
    std::printf("%-10s %10s %10s %12s %12s %12s %12s %12s %10s\n",
                "devices", "shoots", "ipis", "dev-cmds", "sync-waits",
                "dma-writes", "dma-aborts", "iommu-walks",
                "iotlb-hit%");
    for (unsigned d = 0; d < kNumDeviceCounts; ++d) {
        const Cell &cell = cells[d][0];
        std::printf(
            "%-10u %10llu %10llu %12llu %12llu %12llu %12llu "
            "%12llu %9.1f%%\n",
            kDeviceCounts[d],
            static_cast<unsigned long long>(cell.events),
            static_cast<unsigned long long>(cell.ipis),
            static_cast<unsigned long long>(cell.device_commands),
            static_cast<unsigned long long>(cell.device_sync_waits),
            static_cast<unsigned long long>(cell.dma_writes),
            static_cast<unsigned long long>(cell.dma_aborts),
            static_cast<unsigned long long>(cell.iommu_walks),
            hitPct(cell));
    }

    writeJson(cells, scale);
    std::printf("\nwrote BENCH_device.json\n");

    for (unsigned d = 0; d < kNumDeviceCounts; ++d) {
        for (unsigned p = 0; p < kNumPolicies; ++p) {
            if (!cells[d][p].clean) {
                std::printf("FAIL: stale translation left behind "
                            "(devices=%u, policy=%s)\n",
                            kDeviceCounts[d],
                            hw::shootdownPolicyName(kPolicies[p]));
                return 1;
            }
        }
    }
    return 0;
}
