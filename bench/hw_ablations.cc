/**
 * @file
 * Section 9: hardware support options for TLB consistency.
 *
 * Each option is evaluated two ways:
 *
 *  1. The Section 5.1 tester (k = 4 and k = 14 children) measures the
 *     basic cost: initiator synchronization time, responder ISR time,
 *     and interrupts sent. The tester must report consistency under
 *     every option -- the algorithm variants are load-bearing.
 *
 *  2. The Mach-build workload measures the effect on kernel-pmap
 *     shootdowns, which is where the high-priority software interrupt
 *     pays off: it lets the kernel mask device interrupts without
 *     blocking shootdowns, pulling kernel shootdown times down toward
 *     user shootdown times and removing the long skew tail.
 *
 * Expected shapes, from the paper:
 *  - multicast/broadcast IPIs replace the initiator's serialized send
 *    loop with one fixed cost (broadcast over-interrupts bystanders);
 *  - remote TLB invalidation removes responder overhead entirely and
 *    most of the initiator's synchronization;
 *  - software reload / no-writeback TLBs let responders acknowledge
 *    and return instead of stalling for the update;
 *  - the high-priority software interrupt removes the kernel-pmap
 *    skew caused by interrupt-masked windows.
 */

#include "bench_common.hh"

#include "apps/consistency_tester.hh"
#include "pmap/shootdown.hh"

using namespace mach;
using namespace mach::bench;

namespace
{

struct Option
{
    const char *name;
    void (*apply)(hw::MachineConfig &);
};

const Option kOptions[] = {
    {"baseline", [](hw::MachineConfig &) {}},
    {"multicast-ipi",
     [](hw::MachineConfig &c) { c.ipi_send = hw::IpiSend::Multicast; }},
    {"broadcast-ipi",
     [](hw::MachineConfig &c) { c.ipi_send = hw::IpiSend::Broadcast; }},
    {"software-reload",
     [](hw::MachineConfig &c) { c.tlb_software_reload = true; }},
    {"no-refmod-writeback",
     [](hw::MachineConfig &c) { c.tlb_refmod = hw::TlbRefmod::None; }},
    {"interlocked-refmod",
     [](hw::MachineConfig &c) {
         c.tlb_refmod = hw::TlbRefmod::Interlocked;
     }},
    {"remote-invalidate",
     [](hw::MachineConfig &c) {
         c.setShootdownPolicy(hw::ShootdownPolicy::RemoteInvalidate);
     }},
    {"high-priority-ipi",
     [](hw::MachineConfig &c) { c.high_priority_ipi = true; }},
};

constexpr unsigned kKs[] = {4u, 14u};

/** One tester measurement (one k) under one hardware option. */
struct ProbeCell
{
    bool consistent = false;
    double init_usec = 0.0;
    double resp_usec = 0.0;
    std::uint64_t ipis = 0;
};

ProbeCell
testerProbe(const Option &option, unsigned k)
{
    hw::MachineConfig config;
    option.apply(config);
    config.seed = 0xab1a7e + k;
    vm::Kernel kernel(config);
    apps::ConsistencyTester tester(
        {.children = k, .warmup = 30 * kMsec});
    const apps::WorkloadResult result = tester.execute(kernel);
    ProbeCell cell;
    cell.consistent = tester.consistent();
    const auto &user = result.analysis.user_initiator;
    const auto &resp = result.analysis.responder;
    cell.init_usec = user.time_usec.mean();
    cell.resp_usec = resp.events ? resp.time_usec.mean() : 0.0;
    cell.ipis = kernel.pmaps().shoot().interrupts_sent;
    return cell;
}

struct HipriRow
{
    double mean_usec = 0.0;
    double stddev_usec = 0.0;
    double p90_usec = 0.0;
    std::uint64_t events = 0;
};

HipriRow
measureHipri(bool high)
{
    hw::MachineConfig config;
    config.high_priority_ipi = high;
    config.seed = 0xab1a7e;
    AppRun run = runApp(0, config);
    const auto &k = run.result.analysis.kernel_initiator;
    return HipriRow{k.time_usec.mean(), k.time_usec.stddev(),
                    k.time_usec.percentile(0.9), k.events};
}

struct AsidRow
{
    bool consistent = false;
    std::uint64_t flushes = 0;
};

AsidRow
measureAsid(bool asid)
{
    hw::MachineConfig config;
    config.tlb_asid_tags = asid;
    config.seed = 0xab1a7e;
    vm::Kernel kernel(config);
    apps::ConsistencyTester tester(
        {.children = 6, .warmup = 30 * kMsec});
    tester.execute(kernel);
    AsidRow row;
    row.consistent = tester.consistent();
    for (CpuId id = 0; id < kernel.machine().ncpus(); ++id)
        row.flushes += kernel.machine().cpu(id).tlb().flushes;
    return row;
}

} // namespace

int
main()
{
    setLogQuiet(true);

    // Every cell is an independent machine; measure them all on the
    // bench farm, then print the tables in fixed order.
    constexpr std::size_t kNumOptions = std::size(kOptions);
    std::vector<ProbeCell> cells(kNumOptions * std::size(kKs));
    HipriRow hipri[2];
    AsidRow asid[2];
    std::vector<std::function<void()>> jobs;
    for (std::size_t o = 0; o < kNumOptions; ++o)
        for (std::size_t i = 0; i < std::size(kKs); ++i)
            jobs.push_back([&cells, o, i] {
                cells[o * std::size(kKs) + i] =
                    testerProbe(kOptions[o], kKs[i]);
            });
    for (int high = 0; high < 2; ++high)
        jobs.push_back(
            [&hipri, high] { hipri[high] = measureHipri(high != 0); });
    for (int tags = 0; tags < 2; ++tags)
        jobs.push_back(
            [&asid, tags] { asid[tags] = measureAsid(tags != 0); });
    runFarmed(std::move(jobs));

    std::printf("Section 9 ablations: basic shootdown cost under each "
                "hardware option\n");
    std::printf("(Section 5.1 tester; consistency verified in every "
                "configuration)\n\n");

    for (std::size_t o = 0; o < kNumOptions; ++o) {
        std::printf("%-22s", kOptions[o].name);
        for (std::size_t i = 0; i < std::size(kKs); ++i) {
            const ProbeCell &cell = cells[o * std::size(kKs) + i];
            if (!cell.consistent) {
                std::printf("  !! INCONSISTENT at k=%u\n", kKs[i]);
                return 1;
            }
            std::printf("  k=%-2u init %6.0fus resp %5.0fus ipi %3llu",
                        kKs[i], cell.init_usec, cell.resp_usec,
                        static_cast<unsigned long long>(cell.ipis));
        }
        std::printf("\n");
    }

    // ---- The high-priority software interrupt vs the kernel skew ----
    std::printf("\nkernel-pmap shootdowns (Mach build) with and "
                "without the high-priority software interrupt:\n");
    for (int high = 0; high < 2; ++high) {
        const HipriRow &row = hipri[high];
        std::printf("  %-20s mean %5.0f +- %-5.0f us   90th %5.0f us "
                    "(%llu events)\n",
                    high ? "high-priority ipi" : "baseline",
                    row.mean_usec, row.stddev_usec, row.p90_usec,
                    static_cast<unsigned long long>(row.events));
    }
    std::printf("(paper: the option would reduce kernel shootdown "
                "times to more closely match user shootdowns and "
                "eliminate the skew from interrupt-disabled "
                "windows)\n");

    // ---- Address-space tags (Section 10 extension) -------------------
    std::printf("\naddress-space-tagged TLB (MIPS-style, Section 10 "
                "extension):\n");
    for (int tags = 0; tags < 2; ++tags) {
        const AsidRow &row = asid[tags];
        std::printf("  %-20s consistent %-3s  whole-TLB flushes %llu\n",
                    tags ? "asid tags" : "flush-on-switch",
                    row.consistent ? "yes" : "NO",
                    static_cast<unsigned long long>(row.flushes));
        if (!row.consistent)
            return 1;
    }
    std::printf("(tags keep entries across context switches; the "
                "pmap stays 'in use' until its entries are explicitly "
                "flushed)\n");
    return 0;
}
