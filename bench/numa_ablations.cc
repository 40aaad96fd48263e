/**
 * @file
 * NUMA ablations: what the interconnect does to the paper's numbers.
 *
 * The headline table pits local against remote shootdowns. A driver
 * reprotects a shared page while responder threads -- pinned either to
 * the initiator's node or to remote nodes -- keep the mapping hot, so
 * every reprotect is a real user shootdown. On a remote shoot-set the
 * initiator pays one interconnect IPI per remote node (phase 1) and the
 * node's delegate fans out locally (phase 2), so latency grows with the
 * SLIT distance, not with the remote responder count.
 *
 * A second table sweeps the page-placement policies on a 2-node storm
 * and reports the remote-fault ratio each one leaves behind.
 */

#include "bench_common.hh"

#include "apps/consistency_tester.hh"
#include "pmap/shootdown.hh"
#include "xpr/analysis.hh"
#include "xpr/machine_stats.hh"

using namespace mach;
using namespace mach::bench;

namespace
{

struct ShotRow
{
    std::string label;
    double mean_usec = 0;
    double procs = 0;
    std::uint64_t events = 0;
    std::uint64_t cross_ipis = 0;
    std::uint64_t forwarded = 0;
};

/**
 * Measure user-shootdown latency with @p responders threads keeping a
 * page hot from the CPUs in @p pins while CPU 0 reprotects it.
 */
ShotRow
measureShootdowns(const std::string &label, unsigned nodes,
                  unsigned distance, const std::vector<int> &pins)
{
    hw::MachineConfig config;
    config.ncpus = nodes * 8;
    config.numa_nodes = nodes;
    config.numa_distance_spec = std::to_string(distance);
    config.seed = 0xab1a7e;

    vm::Kernel kernel(config);
    kernel.start();
    bool stop = false;
    kernel.spawnThread(nullptr, "driver", [&](kern::Thread &driver) {
        vm::Task *task = kernel.createTask("ablation");
        VAddr va = 0;
        if (!kernel.vmAllocate(driver, *task, &va, kPageSize, true))
            fatal("vmAllocate failed");

        std::vector<kern::Thread *> threads;
        for (int pin : pins) {
            threads.push_back(kernel.spawnThread(
                task, "responder",
                [&, va](kern::Thread &self) {
                    std::uint32_t value = 0;
                    while (!stop) {
                        self.load32(va, &value);
                        self.sleep(200);
                    }
                },
                pin));
        }
        driver.sleep(2 * kMsec); // Let every responder cache the page.

        for (unsigned round = 0; round < 160; ++round) {
            kernel.vmProtect(driver, *task, va, kPageSize, ProtRead);
            driver.sleep(500);
            kernel.vmProtect(driver, *task, va, kPageSize,
                             ProtReadWrite);
            driver.sleep(500);
        }
        stop = true;
        for (kern::Thread *thread : threads)
            driver.join(*thread);
        kernel.machine().ctx().requestStop();
    });
    kernel.machine().run();

    const xpr::RunAnalysis analysis =
        xpr::analyze(kernel.machine().xpr());
    ShotRow row;
    row.label = label;
    row.mean_usec = analysis.user_initiator.time_usec.mean();
    row.procs = analysis.user_initiator.procs.mean();
    row.events = analysis.user_initiator.events;
    row.cross_ipis = kernel.pmaps().shoot().cross_node_ipis;
    row.forwarded = kernel.pmaps().shoot().forwarded_ipis;
    return row;
}

const char *
policyName(hw::PlacementPolicy policy)
{
    switch (policy) {
      case hw::PlacementPolicy::FirstTouch: return "first-touch";
      case hw::PlacementPolicy::Interleave: return "interleave";
      case hw::PlacementPolicy::Migrate: return "migrate";
    }
    return "?";
}

} // namespace

int
main()
{
    setLogQuiet(true);

    std::printf("NUMA ablation 1: local vs remote shootdown "
                "latency\n\n");
    std::printf("%-26s %6s %10s %8s %10s %10s\n", "shoot set", "shots",
                "mean(us)", "procs", "xnode-ipi", "forwarded");

    // Responders on the initiator's node vs the same count one (or
    // three) interconnect hops away.
    std::vector<ShotRow> rows;
    rows.push_back(measureShootdowns("1-node baseline", 1, 25,
                                     {1, 2, 3}));
    rows.push_back(measureShootdowns("2-node, local set", 2, 25,
                                     {1, 2, 3}));
    rows.push_back(measureShootdowns("2-node, remote d=25", 2, 25,
                                     {9, 10, 11}));
    rows.push_back(measureShootdowns("2-node, remote d=40", 2, 40,
                                     {9, 10, 11}));
    rows.push_back(measureShootdowns("2-node, remote d=60", 2, 60,
                                     {9, 10, 11}));
    rows.push_back(measureShootdowns("4-node, 3 remote nodes", 4, 25,
                                     {9, 17, 25}));
    for (const ShotRow &row : rows)
        std::printf("%-26s %6llu %10.1f %8.1f %10llu %10llu\n",
                    row.label.c_str(),
                    static_cast<unsigned long long>(row.events),
                    row.mean_usec, row.procs,
                    static_cast<unsigned long long>(row.cross_ipis),
                    static_cast<unsigned long long>(row.forwarded));

    // Delta column: the same 3-responder set moved across the
    // interconnect, against the node-local baseline. Delegation makes
    // the d=25 remote set roughly a wash (one interconnect IPI can be
    // cheaper than three directed local sends); the delta then grows
    // with the SLIT distance.
    const double local = rows[1].mean_usec;
    if (local > 0) {
        std::printf("\n%-26s %12s\n", "remote set", "delta vs local");
        for (std::size_t i = 2; i < 5; ++i)
            std::printf("%-26s %+9.1f us (%+.1f%%)\n",
                        rows[i].label.c_str(), rows[i].mean_usec - local,
                        (rows[i].mean_usec / local - 1.0) * 100.0);
    }

    std::printf("\nNUMA ablation 2: placement policy vs remote-fault "
                "ratio (2 nodes, 16 CPUs)\n\n");
    std::printf("%-12s %8s %8s %10s %10s\n", "policy", "local",
                "remote", "ratio", "migrations");
    for (hw::PlacementPolicy policy :
         {hw::PlacementPolicy::FirstTouch,
          hw::PlacementPolicy::Interleave,
          hw::PlacementPolicy::Migrate}) {
        hw::MachineConfig config;
        config.ncpus = 16;
        config.numa_nodes = 2;
        config.numa_placement = policy;
        config.numa_migrate_threshold = 2;
        config.seed = 0xab1a7f;
        vm::Kernel kernel(config);
        apps::ConsistencyTester tester(
            {.children = 12, .warmup = 30 * kMsec});
        tester.execute(kernel);
        if (!tester.consistent()) {
            std::printf("!! inconsistency under %s\n",
                        policyName(policy));
            return 1;
        }
        const std::uint64_t total =
            kernel.local_faults + kernel.remote_faults;
        std::printf("%-12s %8llu %8llu %9.1f%% %10llu\n",
                    policyName(policy),
                    static_cast<unsigned long long>(
                        kernel.local_faults),
                    static_cast<unsigned long long>(
                        kernel.remote_faults),
                    total ? 100.0 * kernel.remote_faults / total : 0.0,
                    static_cast<unsigned long long>(
                        kernel.page_migrations));
    }

    std::printf("\nconclusion: cross-node shootdowns pay one "
                "interconnect IPI per remote node, so latency tracks "
                "the SLIT distance while the delegate keeps the "
                "per-responder cost on the remote node's own bus\n");
    return 0;
}
