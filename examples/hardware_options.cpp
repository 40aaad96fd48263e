/**
 * @file
 * Demonstrates the Section 9 hardware-support options: the same
 * workload under seven TLB/interrupt designs, showing where the
 * initiator and responder costs go.
 *
 *   ./build/examples/hardware_options
 */

#include <cstdio>

#include "apps/consistency_tester.hh"
#include "pmap/shootdown.hh"
#include "vm/kernel.hh"

using namespace mach;

namespace
{

void
runOption(const char *label, hw::MachineConfig config)
{
    config.seed = 0x0b71085;
    vm::Kernel kernel(config);
    apps::ConsistencyTester tester({.children = 10, .warmup = 25 * kMsec});
    const apps::WorkloadResult result = tester.execute(kernel);

    const auto &user = result.analysis.user_initiator;
    const auto &resp = result.analysis.responder;
    std::printf("%-24s init %6.0f us | responder %5.0f us x%-3llu | "
                "IPIs %2llu | consistent %s\n",
                label, user.time_usec.mean(),
                resp.events ? resp.time_usec.mean() : 0.0,
                static_cast<unsigned long long>(resp.events),
                static_cast<unsigned long long>(
                    kernel.pmaps().shoot().interrupts_sent),
                tester.consistent() ? "yes" : "NO!");
}

} // namespace

int
main()
{
    setLogQuiet(true);
    std::printf("Section 9 hardware options, 10-processor shootdown "
                "on a 16-CPU machine\n\n");

    runOption("baseline (Multimax)", {});

    hw::MachineConfig multicast;
    multicast.ipi_send = hw::IpiSend::Multicast;
    runOption("multicast IPI", multicast);

    hw::MachineConfig broadcast;
    broadcast.ipi_send = hw::IpiSend::Broadcast;
    runOption("broadcast IPI", broadcast);

    hw::MachineConfig swreload;
    swreload.tlb_software_reload = true;
    runOption("software-reload TLB", swreload);

    hw::MachineConfig nowb;
    nowb.tlb_refmod = hw::TlbRefmod::None;
    runOption("no ref/mod writeback", nowb);

    hw::MachineConfig remote;
    remote.setShootdownPolicy(hw::ShootdownPolicy::RemoteInvalidate);
    runOption("remote invalidation", remote);

    hw::MachineConfig hipri;
    hipri.high_priority_ipi = true;
    runOption("high-priority sw intr", hipri);

    std::printf("\nreading the table: multicast/broadcast flatten the "
                "send loop; software reload and\nno-writeback TLBs "
                "let responders return without stalling; remote "
                "invalidation\nremoves interrupts and responders "
                "entirely (MC88200-style).\n");
    return 0;
}
