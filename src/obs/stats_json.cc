#include "obs/stats_json.hh"

#include <fstream>

#include "obs/metrics.hh"
#include "obs/recorder.hh"
#include "vm/kernel.hh"
#include "xpr/machine_stats.hh"

namespace mach::obs
{

namespace
{

/** The only strings emitted are names; escape just in case. */
std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
    return out;
}

char
hexDigit(unsigned v)
{
    return v < 10 ? static_cast<char>('0' + v)
                  : static_cast<char>('a' + v - 10);
}

/** Fixed-width hex keeps the digest out of JSON number territory. */
std::string
hex64(std::uint64_t v)
{
    std::string out = "0x";
    for (int shift = 60; shift >= 0; shift -= 4)
        out += hexDigit(static_cast<unsigned>((v >> shift) & 0xf));
    return out;
}

void
histogramJson(std::string &out, const Histogram &h)
{
    out += "{\"count\": " + std::to_string(h.count());
    out += ", \"sum\": " + std::to_string(h.sum());
    out += ", \"min\": " + std::to_string(h.min());
    out += ", \"max\": " + std::to_string(h.max());
    out += ", \"mean\": " + std::to_string(h.mean());
    out += ", \"p50\": " + std::to_string(h.percentileMille(500));
    out += ", \"p90\": " + std::to_string(h.percentileMille(900));
    out += ", \"p99\": " + std::to_string(h.percentileMille(990));
    out += ", \"p999\": " + std::to_string(h.percentileMille(999));
    out += "}";
}

void
counter(std::string &out, const char *name, std::uint64_t value,
        bool last = false)
{
    out += "    ";
    out += jsonString(name);
    out += ": " + std::to_string(value);
    out += last ? "\n" : ",\n";
}

} // namespace

std::string
statsJson(vm::Kernel &kernel, const std::string &app)
{
    kern::Machine &machine = kernel.machine();
    const hw::MachineConfig &cfg = machine.cfg();
    const xpr::MachineStats stats = xpr::MachineStats::capture(kernel);
    const Metrics &metrics = machine.recorder().metrics();

    std::string out = "{\n";
    out += "  \"schema\": \"machsim-stats-v1\",\n";
    out += "  \"app\": " + jsonString(app) + ",\n";
    out += "  \"seed\": " + std::to_string(cfg.seed) + ",\n";
    out += "  \"ncpus\": " + std::to_string(machine.ncpus()) + ",\n";
    out += "  \"numa_nodes\": " + std::to_string(machine.numaNodes()) +
           ",\n";
    out += "  \"policy\": " +
           jsonString(hw::shootdownPolicyName(cfg.shootdown_policy)) +
           ",\n";
    out += "  \"virtual_runtime_us\": " +
           std::to_string(stats.now_usec) + ",\n";
    out += "  \"digest\": " + jsonString(hex64(xpr::runDigest(kernel))) +
           ",\n";

    out += "  \"histograms\": {";
    bool first = true;
    for (const auto &[name, hist] : metrics.entries()) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    " + jsonString(name) + ": ";
        histogramJson(out, *hist);
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"counters\": {\n";
    counter(out, "shootdowns_initiated", stats.shootdowns_initiated);
    counter(out, "delayed_waits", stats.delayed_waits);
    counter(out, "ipis_sent", stats.ipis_sent);
    counter(out, "responder_passes", stats.responder_passes);
    counter(out, "idle_drains", stats.idle_drains);
    counter(out, "queue_overflows", stats.queue_overflows);
    counter(out, "remote_invalidates", stats.remote_invalidates);
    counter(out, "ipis_elided", stats.ipis_elided);
    counter(out, "flushes_deferred", stats.flushes_deferred);
    counter(out, "deferred_flushes_applied",
            stats.deferred_flushes_applied);
    counter(out, "actions_merged", stats.actions_merged);
    counter(out, "range_invalidates", stats.range_invalidates);
    counter(out, "full_space_flushes", stats.full_space_flushes);
    counter(out, "reuse_elisions", stats.reuse_elisions);
    counter(out, "cross_node_ipis", stats.cross_node_ipis);
    counter(out, "forwarded_ipis", stats.forwarded_ipis);
    counter(out, "remote_faults", stats.remote_faults);
    counter(out, "local_faults", stats.local_faults);
    counter(out, "page_migrations", stats.page_migrations);
    counter(out, "faults_resolved", stats.faults_resolved);
    counter(out, "faults_failed", stats.faults_failed);
    counter(out, "cow_copies", stats.cow_copies);
    counter(out, "zero_fills", stats.zero_fills);
    counter(out, "pageouts", stats.pageouts);
    counter(out, "pageins", stats.pageins);
    counter(out, "free_frames", stats.free_frames, true);
    out += "  },\n";

    // Emitted only when devices exist, so device-less stats output
    // stays byte-identical to the pre-device schema.
    if (!stats.devices.empty()) {
        out += "  \"device_counters\": {\n";
        counter(out, "device_commands", stats.device_commands);
        counter(out, "device_sync_waits", stats.device_sync_waits);
        counter(out, "cross_node_device_commands",
                stats.cross_node_device_commands, true);
        out += "  },\n";
        out += "  \"devices\": [";
        for (std::size_t i = 0; i < stats.devices.size(); ++i) {
            const xpr::DeviceStats &d = stats.devices[i];
            out += i == 0 ? "\n" : ",\n";
            out += "    {\"dma_reads\": " + std::to_string(d.dma_reads);
            out += ", \"dma_writes\": " + std::to_string(d.dma_writes);
            out += ", \"writes_committed\": " +
                   std::to_string(d.writes_committed);
            out += ", \"dma_aborts\": " + std::to_string(d.dma_aborts);
            out += ", \"dma_faults\": " + std::to_string(d.dma_faults);
            out += ", \"iommu_walks\": " +
                   std::to_string(d.iommu_walks);
            out += ", \"drains\": " + std::to_string(d.drains);
            out += ", \"iotlb_hits\": " + std::to_string(d.iotlb_hits);
            out += ", \"iotlb_misses\": " +
                   std::to_string(d.iotlb_misses);
            out += ", \"iotlb_flushes\": " +
                   std::to_string(d.iotlb_flushes);
            out += ", \"iotlb_single_invalidates\": " +
                   std::to_string(d.iotlb_single_invalidates);
            out += "}";
        }
        out += "\n  ],\n";
    }

    out += "  \"cpus\": [";
    for (std::size_t i = 0; i < stats.cpus.size(); ++i) {
        const xpr::CpuStats &cpu = stats.cpus[i];
        out += i == 0 ? "\n" : ",\n";
        out += "    {\"tlb_hits\": " + std::to_string(cpu.tlb_hits);
        out += ", \"tlb_misses\": " + std::to_string(cpu.tlb_misses);
        out += ", \"tlb_writebacks\": " +
               std::to_string(cpu.tlb_writebacks);
        out += ", \"tlb_flushes\": " + std::to_string(cpu.tlb_flushes);
        out += ", \"tlb_single_invalidates\": " +
               std::to_string(cpu.tlb_single_invalidates);
        out += ", \"interrupts_taken\": " +
               std::to_string(cpu.interrupts_taken);
        out += ", \"faults_taken\": " + std::to_string(cpu.faults_taken);
        out += ", \"remote_mem_accesses\": " +
               std::to_string(cpu.remote_mem_accesses);
        out += "}";
    }
    out += stats.cpus.empty() ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

bool
writeStatsJson(const std::string &path, vm::Kernel &kernel,
               const std::string &app)
{
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    if (!file)
        return false;
    file << statsJson(kernel, app);
    return static_cast<bool>(file);
}

} // namespace mach::obs
