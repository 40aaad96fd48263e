/**
 * @file
 * The Section 5.1 TLB-consistency test program, runnable standalone:
 *
 *   ./build/examples/consistency_tester [children] [--no-shootdown]
 *
 * With the shootdown algorithm enabled (the default) the tester
 * reports consistency; with --no-shootdown it demonstrates the
 * genuine inconsistency that stale TLB entries cause on the simulated
 * hardware.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "apps/consistency_tester.hh"
#include "vm/kernel.hh"

using namespace mach;

int
main(int argc, char **argv)
{
    unsigned children = 8;
    bool shootdown = true;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--no-shootdown") == 0)
            shootdown = false;
        else
            children = static_cast<unsigned>(std::atoi(argv[i]));
    }
    if (children < 1 || children > 15)
        fatal("children must be between 1 and 15 on a 16-CPU machine");

    hw::MachineConfig config;
    if (!shootdown)
        config.setShootdownPolicy(hw::ShootdownPolicy::Off);
    vm::Kernel kernel(config);

    std::printf("TLB consistency tester: %u child threads, shootdown "
                "%s\n",
                children, shootdown ? "ENABLED" : "DISABLED");

    apps::ConsistencyTester tester(
        {.children = children, .warmup = 30 * kMsec});
    const apps::WorkloadResult result = tester.execute(kernel);

    std::printf("\n%-8s %12s %12s\n", "counter", "at-reprotect",
                "final");
    for (unsigned i = 0; i < children; ++i) {
        const bool moved =
            tester.finalCounters()[i] != tester.savedCounters()[i];
        std::printf("%-8u %12u %12u%s\n", i, tester.savedCounters()[i],
                    tester.finalCounters()[i],
                    moved ? "   <-- advanced after reprotect!" : "");
    }

    if (tester.consistent()) {
        std::printf("\nRESULT: consistent -- no counter advanced after "
                    "the page went read-only\n");
    } else {
        std::printf("\nRESULT: INCONSISTENT -- stale writable TLB "
                    "entries let threads keep writing\n");
    }
    if (result.analysis.user_initiator.events == 1) {
        std::printf("the single shootdown involved %.0f processors "
                    "and took %.0f us of initiator time\n",
                    result.analysis.user_initiator.procs.mean(),
                    result.analysis.user_initiator.time_usec.mean());
    }
    return tester.consistent() == shootdown ? 0 : 1;
}
