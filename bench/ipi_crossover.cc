/**
 * @file
 * Section 9: the directed-vs-broadcast IPI crossover.
 *
 * "Even a simple interrupt that is broadcast to all other processors
 * would be helpful; beyond some number of processors it is faster to
 * use a broadcast interrupt (and interrupt too many processors) than
 * it is to iterate down the list interrupting one processor at a
 * time."
 *
 * Two costs trade off:
 *  - the initiator's send time: k serialized sends vs one broadcast;
 *  - the bystanders' time: a broadcast interrupts processors with
 *    nothing queued, each paying a dispatch/return for nothing.
 *
 * This harness sweeps k (processors that genuinely need the shootdown)
 * on a 16-processor machine, ten machine seeds per point, and reports
 * both costs (mean and standard deviation over the seeds), plus the
 * machine-wide crossover point.
 */

#include "bench_common.hh"

#include "apps/consistency_tester.hh"
#include "base/stats.hh"
#include "pmap/shootdown.hh"

using namespace mach;
using namespace mach::bench;

namespace
{

struct Probe
{
    double initiator_usec = 0.0;
    std::uint64_t interrupts = 0;
};

constexpr unsigned kRunsPerPoint = 10;

Probe
run(unsigned k, unsigned seed_index, bool broadcast)
{
    hw::MachineConfig config;
    config.ipi_send =
        broadcast ? hw::IpiSend::Broadcast : hw::IpiSend::Directed;
    config.seed = 0xc0550 + k * 131 + seed_index;
    vm::Kernel kernel(config);
    apps::ConsistencyTester tester(
        {.children = k, .warmup = 25 * kMsec});
    const apps::WorkloadResult result = tester.execute(kernel);
    if (!tester.consistent())
        fatal("inconsistency at k=%u broadcast=%d", k, broadcast);
    Probe probe;
    probe.initiator_usec =
        result.analysis.user_initiator.time_usec.mean();
    probe.interrupts = kernel.pmaps().shoot().interrupts_sent;
    return probe;
}

} // namespace

int
main()
{
    setLogQuiet(true);
    // Per-bystander cost of an unnecessary interrupt: dispatch + the
    // null handler pass + return.
    const double bystander_usec =
        static_cast<double>(hw::kIntrDispatchCost + hw::kIntrReturnCost) /
        kUsec;

    std::printf("Section 9: directed vs broadcast shootdown IPIs "
                "(16-processor machine)\n");
    std::printf("(mean+-stddev over %u machine seeds per k)\n\n",
                kRunsPerPoint);
    std::printf("%4s | %16s %16s | %10s %14s %16s\n", "k",
                "iterate init", "broadcast init", "bystanders",
                "bystander cost", "broadcast wins?");

    int crossover = -1;
    for (unsigned k = 1; k <= 15; ++k) {
        Sample iterate, broadcast, bystanders;
        for (unsigned i = 0; i < kRunsPerPoint; ++i) {
            const Probe directed = run(k, i, false);
            const Probe everyone = run(k, i, true);
            iterate.add(directed.initiator_usec);
            broadcast.add(everyone.initiator_usec);
            bystanders.add(static_cast<double>(
                everyone.interrupts > k ? everyone.interrupts - k : 0));
        }
        const double bystander_cost = bystanders.mean() * bystander_usec;

        // Machine-wide accounting: initiator time plus the time burnt
        // on processors that had nothing to invalidate.
        const double iterate_total = iterate.mean();
        const double broadcast_total = broadcast.mean() + bystander_cost;
        const bool wins = broadcast_total < iterate_total;
        if (wins && crossover < 0)
            crossover = static_cast<int>(k);
        if (!wins)
            crossover = -1;
        std::printf("%4u | %8.0f+-%4.0fus %8.0f+-%4.0fus | %10.1f "
                    "%12.0fus %16s\n",
                    k, iterate.mean(), iterate.stddev(),
                    broadcast.mean(), broadcast.stddev(),
                    bystanders.mean(), bystander_cost,
                    wins ? "yes" : "no");
    }

    if (crossover > 0) {
        std::printf("\nbroadcast becomes the better machine-wide "
                    "choice at roughly k = %d of 15 processors\n",
                    crossover);
    } else {
        std::printf("\nno stable crossover on this configuration\n");
    }
    std::printf("(the initiator itself always prefers broadcast; the "
                "bystander overhead is what\nmakes directed "
                "interrupts the right default on small or lightly "
                "shared machines)\n");
    return 0;
}
