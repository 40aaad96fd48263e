/**
 * @file
 * Render one shootdown as a per-processor timeline, reconstructed from
 * the recorder's text trace -- a visual walk through the four phases
 * of Figure 1.
 *
 *   ./build/examples/shootdown_timeline [children]
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/consistency_tester.hh"
#include "kern/machine.hh"
#include "obs/recorder.hh"
#include "vm/kernel.hh"
#include "xpr/analysis.hh"

using namespace mach;

int
main(int argc, char **argv)
{
    unsigned children = 4;
    if (argc > 1)
        children = static_cast<unsigned>(std::atoi(argv[1]));
    if (children < 1 || children > 15)
        fatal("children must be in 1..15");

    // Capture the shootdown category of the text trace (the lines
    // outlive the kernel, whose teardown still records).
    std::vector<std::string> lines;
    hw::MachineConfig config;
    vm::Kernel kernel(config);
    kernel.machine().recorder().enableText(
        obs::kShootCategory.bit,
        [&lines](const std::string &line) { lines.push_back(line); });

    apps::ConsistencyTester tester(
        {.children = children, .warmup = 25 * kMsec});
    const apps::WorkloadResult result = tester.execute(kernel);

    std::printf("One %u-processor shootdown, as the trace stream saw "
                "it:\n\n", children);
    for (const std::string &line : lines)
        std::printf("  %s\n", line.c_str());

    const auto &user = result.analysis.user_initiator;
    std::printf("\nphases, per Figure 1:\n");
    std::printf("  1. the initiator queued actions for %.0f "
                "processors and interrupted the busy ones\n",
                user.procs.mean());
    std::printf("  2. each responder acknowledged (left the active "
                "set) and stalled while the pmap was locked\n");
    std::printf("  3. the initiator changed the page table entries "
                "(%.0f us after invoking the algorithm)\n",
                user.time_usec.mean());
    std::printf("  4. the responders invalidated their stale entries "
                "and rejoined the active set\n");
    std::printf("\nconsistency: %s\n",
                tester.consistent() ? "maintained" : "VIOLATED");
    return tester.consistent() ? 0 : 1;
}
