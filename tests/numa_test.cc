/**
 * @file
 * The NUMA topology layer end to end: node/distance math, per-node
 * frame allocation, page-placement policies, per-node page-table
 * replicas, the two-phase cross-node shootdown, and the determinism
 * contract at multi-node machine shapes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/consistency_tester.hh"
#include "apps/parthenon.hh"
#include "base/perturb.hh"
#include "chk/explorer.hh"
#include "chk/scenario.hh"
#include "farm/farm.hh"
#include "hw/page_table.hh"
#include "hw/phys_mem.hh"
#include "numa/topology.hh"
#include "obs/recorder.hh"
#include "pmap/shootdown.hh"
#include "vm/kernel.hh"
#include "xpr/machine_stats.hh"

#include "phys_mem_reference.hh"

namespace mach
{
namespace
{

// ---------------------------------------------------------------------
// Topology: node layout, SLIT distances, interconnect cost model.
// ---------------------------------------------------------------------

hw::MachineConfig
numaConfig(unsigned ncpus, unsigned nodes)
{
    setLogQuiet(true);
    hw::MachineConfig config;
    config.ncpus = ncpus;
    config.numa_nodes = nodes;
    return config;
}

TEST(NumaTopology, NodeOfCpuSplitsContiguousBlocks)
{
    const hw::MachineConfig config = numaConfig(32, 2);
    const numa::Topology topo(&config);
    EXPECT_EQ(topo.nodes(), 2u);
    EXPECT_EQ(topo.cpusPerNode(), 16u);
    EXPECT_EQ(topo.nodeOfCpu(0), 0u);
    EXPECT_EQ(topo.nodeOfCpu(15), 0u);
    EXPECT_EQ(topo.nodeOfCpu(16), 1u);
    EXPECT_EQ(topo.nodeOfCpu(31), 1u);
}

TEST(NumaTopology, UniformDistanceAndRemoteCost)
{
    hw::MachineConfig config = numaConfig(32, 4);
    config.numa_distance_spec = "25";
    const numa::Topology topo(&config);
    for (unsigned a = 0; a < 4; ++a)
        for (unsigned b = 0; b < 4; ++b)
            EXPECT_EQ(topo.distance(a, b), a == b ? 10u : 25u);

    // Local accesses never pay; a remote entry d costs (d-10)/10 of
    // the local price on top, deterministically.
    EXPECT_EQ(topo.remoteCost(1, 1, 1000), 0u);
    EXPECT_EQ(topo.remoteCost(0, 2, 1000), 1500u);
    EXPECT_EQ(topo.remoteCost(2, 0, 600), 900u);
}

TEST(NumaTopology, ExplicitMatrixSpec)
{
    hw::MachineConfig config = numaConfig(32, 2);
    config.numa_distance_spec = "10,40;40,10";
    const numa::Topology topo(&config);
    EXPECT_EQ(topo.distance(0, 1), 40u);
    EXPECT_EQ(topo.distance(1, 0), 40u);
    EXPECT_EQ(topo.distance(0, 0), 10u);
    // d=40 => 3x the local price charged as the remote share.
    EXPECT_EQ(topo.remoteCost(0, 1, 1000), 3000u);
}

TEST(NumaTopology, ParseDistanceRejectsBadMatrices)
{
    std::vector<unsigned> out;
    std::string error;
    EXPECT_TRUE(numa::Topology::parseDistance("10,25;25,10", 2, &out,
                                              &error))
        << error;
    EXPECT_EQ(out, (std::vector<unsigned>{10, 25, 25, 10}));

    // Asymmetric.
    EXPECT_FALSE(
        numa::Topology::parseDistance("10,25;30,10", 2, &out, &error));
    // Diagonal must be the ACPI local distance 10.
    EXPECT_FALSE(
        numa::Topology::parseDistance("12,25;25,10", 2, &out, &error));
    // Wrong shape for the node count.
    EXPECT_FALSE(
        numa::Topology::parseDistance("10,25", 2, &out, &error));
    // Off-diagonal below local is nonsense.
    EXPECT_FALSE(
        numa::Topology::parseDistance("10,5;5,10", 2, &out, &error));
}

TEST(NumaTopology, UniformSpecsShareTheMatrixBound)
{
    // Empty is the default 25; a bare number is a uniform remote
    // distance, held to the same [10, 255] as a matrix entry.
    std::vector<unsigned> out;
    std::string error;
    EXPECT_TRUE(numa::Topology::parseDistance("", 2, &out, &error));
    EXPECT_EQ(out, (std::vector<unsigned>{10, 25, 25, 10}));
    EXPECT_TRUE(numa::Topology::parseDistance("255", 2, &out, &error));
    EXPECT_EQ(out, (std::vector<unsigned>{10, 255, 255, 10}));
    EXPECT_FALSE(numa::Topology::parseDistance("300", 2, &out, &error));
    EXPECT_FALSE(numa::Topology::parseDistance("5", 2, &out, &error));

    // validate() runs the same parser, so neither a ragged matrix nor
    // an out-of-range uniform distance gets past it.
    hw::MachineConfig ragged = numaConfig(32, 2);
    ragged.numa_distance_spec = "10,25;25";
    EXPECT_DEATH(ragged.validate(), "numa_distance_spec");
    hw::MachineConfig far = numaConfig(32, 2);
    far.numa_distance_spec = "300";
    EXPECT_DEATH(far.validate(), "numa_distance_spec");
}

TEST(NumaTopology, ValidateRejectsBadShapes)
{
    // ncpus must split evenly into nodes of <= 16 CPUs.
    hw::MachineConfig uneven = numaConfig(30, 4);
    EXPECT_DEATH(uneven.validate(), "evenly divide");
    hw::MachineConfig fat = numaConfig(64, 2);
    EXPECT_DEATH(fat.validate(), "16");
    hw::MachineConfig nine = numaConfig(36, 9);
    EXPECT_DEATH(nine.validate(), "out of range");
    // Replica machinery needs more than one node to replicate across.
    hw::MachineConfig lone = numaConfig(8, 1);
    lone.numa_pt_replicas = true;
    EXPECT_DEATH(lone.validate(), "numa_nodes");

    // The shapes the issue cares about are all fine: 2x16, 4x16, 8x16.
    numaConfig(32, 2).validate();
    numaConfig(64, 4).validate();
    numaConfig(128, 8).validate();
}

// ---------------------------------------------------------------------
// Per-node physical memory partitions.
// ---------------------------------------------------------------------

TEST(NumaPhysMem, PartitionsAndNodeLocalAllocation)
{
    hw::PhysMem mem(400, 4);
    EXPECT_EQ(mem.nodes(), 4u);
    EXPECT_EQ(mem.nodeOfPfn(1), 0u);
    EXPECT_EQ(mem.nodeOfPfn(99), 0u);
    EXPECT_EQ(mem.nodeOfPfn(100), 1u);
    EXPECT_EQ(mem.nodeOfPfn(399), 3u);

    for (unsigned node = 0; node < 4; ++node) {
        const Pfn pfn = mem.allocFrame(node);
        EXPECT_EQ(mem.nodeOfPfn(pfn), node) << "node " << node;
        mem.freeFrame(pfn);
    }
}

TEST(NumaPhysMem, ExhaustedNodeFallsBackDeterministically)
{
    hw::PhysMem mem(128, 2);
    // Drain node 1 completely (node 1 owns [64, 128)).
    std::vector<Pfn> held;
    while (mem.freeFramesOnNode(1) > 0)
        held.push_back(mem.allocFrame(1));
    for (Pfn pfn : held)
        EXPECT_EQ(mem.nodeOfPfn(pfn), 1u);

    // The next node-1 request is satisfied from node 0 instead of
    // panicking; freeing returns frames to their home partitions.
    const Pfn spill = mem.allocFrame(1);
    EXPECT_EQ(mem.nodeOfPfn(spill), 0u);
    mem.freeFrame(spill);
    const std::uint32_t node1_free = mem.freeFramesOnNode(1);
    for (Pfn pfn : held)
        mem.freeFrame(pfn);
    EXPECT_EQ(mem.freeFramesOnNode(1), node1_free + held.size());
}

TEST(NumaPhysMem, AllocationOrderMatchesDescendingFreeLists)
{
    // Every step checked against the original per-node high-to-low
    // lists. The last node takes the remainder: 69 frames of 203 on
    // three nodes, 34 of 130 on four.
    struct Case
    {
        std::uint32_t frames;
        unsigned nodes;
    };
    for (const Case c : {Case{203, 3}, Case{130, 4}, Case{128, 2}}) {
        SCOPED_TRACE(testing::Message()
                     << c.frames << " frames, " << c.nodes << " nodes");
        hw::test::OrderRun run;
        ASSERT_NO_FATAL_FAILURE(hw::test::expectReferenceOrder(
            c.frames, c.nodes, 0x9e3779b9 + c.frames, &run));
        EXPECT_GT(run.fallbacks, 0u);
        EXPECT_GT(run.exhausted, 0u);
    }
}

// ---------------------------------------------------------------------
// Per-node page-table replicas (numaPTE style).
// ---------------------------------------------------------------------

TEST(NumaReplicas, WritePteFansOutToEveryNode)
{
    hw::PhysMem mem(512, 2);
    hw::PageTable table(&mem);
    table.enableReplicas(2);
    EXPECT_EQ(table.replicas(), 2u);

    const Vpn vpn = 0x300;
    table.writePte(vpn, hw::pte::make(42, ProtReadWrite));
    // Both nodes walk to the same translation, through different
    // physical table words in their own memory partitions.
    const hw::WalkResult w0 = table.walk(vpn, 0);
    const hw::WalkResult w1 = table.walk(vpn, 1);
    EXPECT_EQ(w0.pte, w1.pte);
    EXPECT_EQ(hw::pte::pfn(w1.pte), 42u);
    const PAddr p0 = table.pteAddr(vpn, 0);
    const PAddr p1 = table.pteAddr(vpn, 1);
    ASSERT_NE(p0, 0u);
    ASSERT_NE(p1, 0u);
    EXPECT_NE(p0, p1);
    EXPECT_EQ(mem.nodeOfPfn(p0 >> kPageShift), 0u);
    EXPECT_EQ(mem.nodeOfPfn(p1 >> kPageShift), 1u);
    EXPECT_TRUE(table.replicaDivergence(0, 1u << 20).empty());
}

TEST(NumaReplicas, RefModBitsMergeAcrossReplicas)
{
    hw::PhysMem mem(512, 2);
    hw::PageTable table(&mem);
    table.enableReplicas(2);
    const Vpn vpn = 0x21;
    table.writePte(vpn, hw::pte::make(7, ProtReadWrite));

    // Node 1's MMU writes ref/mod back into its own replica only.
    const PAddr p1 = table.pteAddr(vpn, 1);
    mem.write32(p1, mem.read32(p1) | hw::pte::kRef | hw::pte::kMod);
    EXPECT_FALSE(hw::pte::referenced(mem.read32(table.pteAddr(vpn, 0))));
    EXPECT_TRUE(hw::pte::referenced(table.readPte(vpn)));
    EXPECT_TRUE(hw::pte::modified(table.readPte(vpn)));
    // Per-node ref/mod divergence is expected, not a violation.
    EXPECT_TRUE(table.replicaDivergence(0, 1u << 20).empty());
}

TEST(NumaReplicas, DivergenceAuditFlagsStaleReplica)
{
    hw::PhysMem mem(512, 2);
    hw::PageTable table(&mem);
    table.enableReplicas(2);
    const Vpn vpn = 0x44;
    table.writePte(vpn, hw::pte::make(9, ProtReadWrite));

    // Corrupt the replica the way the planted bug would leave it: a
    // pre-change PTE the primary no longer holds.
    mem.write32(table.pteAddr(vpn, 1), hw::pte::make(8, ProtReadWrite));
    const std::vector<std::string> diver =
        table.replicaDivergence(0, 1u << 20);
    ASSERT_EQ(diver.size(), 1u);
    EXPECT_NE(diver[0].find("replica 1"), std::string::npos)
        << diver[0];
    EXPECT_NE(diver[0].find("0x44"), std::string::npos) << diver[0];
}

TEST(NumaReplicas, DeferredSyncCatchesUp)
{
    hw::PhysMem mem(512, 2);
    hw::PageTable table(&mem);
    table.enableReplicas(2);
    const Vpn vpn = 0x55;
    table.writePte(vpn, hw::pte::make(11, ProtReadWrite));

    table.setDeferredSync(true);
    table.writePte(vpn, 0);
    EXPECT_TRUE(table.deferredSyncPending());
    // The primary changed; the replica still maps the revoked page --
    // exactly the stale-translation window of the planted bug.
    EXPECT_FALSE(hw::pte::valid(table.walk(vpn, 0).pte));
    EXPECT_TRUE(hw::pte::valid(table.walk(vpn, 1).pte));

    table.syncReplicas();
    EXPECT_FALSE(table.deferredSyncPending());
    EXPECT_FALSE(hw::pte::valid(table.walk(vpn, 1).pte));
    EXPECT_TRUE(table.replicaDivergence(0, 1u << 20).empty());
}

// ---------------------------------------------------------------------
// Page placement policies.
// ---------------------------------------------------------------------

/** Run @p body as a driver thread on a freshly started kernel. */
void
inKernel(hw::MachineConfig config,
         const std::function<void(vm::Kernel &, kern::Thread &)> &body)
{
    vm::Kernel kernel(config);
    kernel.start();
    bool finished = false;
    kernel.spawnThread(nullptr, "numa-driver",
                       [&](kern::Thread &driver) {
                           body(kernel, driver);
                           finished = true;
                           kernel.machine().ctx().requestStop();
                       });
    kernel.machine().run();
    ASSERT_TRUE(finished);
}

/** Node holding the frame @p va is mapped to in @p task. */
unsigned
nodeOfMapping(vm::Kernel &kernel, vm::Task &task, VAddr va)
{
    const std::uint32_t pte =
        task.pmap().table().readPte(va >> kPageShift);
    EXPECT_TRUE(hw::pte::valid(pte));
    return kernel.machine().mem().nodeOfPfn(hw::pte::pfn(pte));
}

TEST(NumaPlacement, FirstTouchAllocatesOnFaultingNode)
{
    hw::MachineConfig config = numaConfig(8, 2);
    inKernel(config, [](vm::Kernel &kernel, kern::Thread &driver) {
        vm::Task *task = kernel.createTask("first-touch");
        VAddr va = 0;
        ASSERT_TRUE(kernel.vmAllocate(driver, *task, &va,
                                      2 * kPageSize, true));
        // CPU 1 lives on node 0, CPU 5 on node 1; each touches one page.
        kern::Thread *near = kernel.spawnThread(
            task, "near",
            [&](kern::Thread &self) { self.store32(va, 1); }, 1);
        driver.join(*near);
        kern::Thread *far = kernel.spawnThread(
            task, "far",
            [&](kern::Thread &self) {
                self.store32(va + kPageSize, 1);
            },
            5);
        driver.join(*far);

        EXPECT_EQ(nodeOfMapping(kernel, *task, va), 0u);
        EXPECT_EQ(nodeOfMapping(kernel, *task, va + kPageSize), 1u);
        EXPECT_GT(kernel.local_faults, 0u);
    });
}

TEST(NumaPlacement, InterleaveSpreadsPagesAcrossNodes)
{
    hw::MachineConfig config = numaConfig(8, 2);
    config.numa_placement = hw::PlacementPolicy::Interleave;
    inKernel(config, [](vm::Kernel &kernel, kern::Thread &driver) {
        vm::Task *task = kernel.createTask("interleave");
        VAddr va = 0;
        constexpr unsigned kPages = 8;
        ASSERT_TRUE(kernel.vmAllocate(driver, *task, &va,
                                      kPages * kPageSize, true));
        kern::Thread *toucher = kernel.spawnThread(
            task, "touch",
            [&](kern::Thread &self) {
                for (unsigned i = 0; i < kPages; ++i)
                    self.store32(va + i * kPageSize, i);
            },
            1);
        driver.join(*toucher);

        // One CPU touched everything, yet the frames alternate nodes.
        unsigned on_node[2] = {0, 0};
        for (unsigned i = 0; i < kPages; ++i)
            ++on_node[nodeOfMapping(kernel, *task,
                                    va + i * kPageSize)];
        EXPECT_EQ(on_node[0], kPages / 2);
        EXPECT_EQ(on_node[1], kPages / 2);
    });
}

TEST(NumaPlacement, MigrateMovesHotRemotePage)
{
    hw::MachineConfig config = numaConfig(8, 2);
    config.numa_placement = hw::PlacementPolicy::Migrate;
    config.numa_migrate_threshold = 2;
    inKernel(config, [](vm::Kernel &kernel, kern::Thread &driver) {
        vm::Task *task = kernel.createTask("migrate");
        VAddr va = 0;
        ASSERT_TRUE(
            kernel.vmAllocate(driver, *task, &va, kPageSize, true));

        // First touch from node 0 homes the frame there.
        kern::Thread *near = kernel.spawnThread(
            task, "near",
            [&](kern::Thread &self) { self.store32(va, 1); }, 1);
        driver.join(*near);
        ASSERT_EQ(nodeOfMapping(kernel, *task, va), 0u);

        // A node-1 CPU keeps faulting the page (each round revokes the
        // mapping so the next access really faults). At the threshold
        // the page migrates to the faulting node.
        for (unsigned round = 0; round < 3; ++round) {
            ASSERT_TRUE(kernel.vmProtect(driver, *task, va, kPageSize,
                                         ProtNone));
            ASSERT_TRUE(kernel.vmProtect(driver, *task, va, kPageSize,
                                         ProtReadWrite));
            kern::Thread *far = kernel.spawnThread(
                task, "far",
                [&](kern::Thread &self) { self.store32(va, round); },
                5);
            driver.join(*far);
        }

        EXPECT_GT(kernel.remote_faults, 0u);
        EXPECT_GE(kernel.page_migrations, 1u);
        EXPECT_EQ(nodeOfMapping(kernel, *task, va), 1u);
        // Migration revoked the old translation with a shootdown and
        // left every TLB consistent with the moved frame.
        EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
    });
}

// ---------------------------------------------------------------------
// Two-phase cross-node shootdown.
// ---------------------------------------------------------------------

TEST(NumaShootdown, CrossNodeStormsUseDelegates)
{
    hw::MachineConfig config = numaConfig(8, 2);
    config.seed = 0x2d0de5;
    vm::Kernel kernel(config);
    apps::ConsistencyTester tester({.children = 6,
                                    .warmup = 20 * kMsec});
    tester.execute(kernel);
    EXPECT_TRUE(tester.consistent());

    // Phase 1 sends one interconnect IPI per remote node; the delegate
    // fans the rest out locally.
    const pmap::ShootdownController &shoot = kernel.pmaps().shoot();
    EXPECT_GT(shoot.initiated, 0u);
    EXPECT_GT(shoot.cross_node_ipis, 0u);
    EXPECT_GT(shoot.forwarded_ipis, 0u);
    EXPECT_LT(shoot.cross_node_ipis + shoot.forwarded_ipis,
              shoot.interrupts_sent + shoot.forwarded_ipis + 1);

    const xpr::MachineStats stats = xpr::MachineStats::capture(kernel);
    EXPECT_EQ(stats.cross_node_ipis, shoot.cross_node_ipis);
    EXPECT_EQ(stats.forwarded_ipis, shoot.forwarded_ipis);
    EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
}

TEST(NumaShootdown, SingleNodeMachineNeverCrossesTheInterconnect)
{
    hw::MachineConfig config = numaConfig(8, 1);
    config.seed = 0x2d0de6;
    vm::Kernel kernel(config);
    apps::ConsistencyTester tester({.children = 6,
                                    .warmup = 20 * kMsec});
    tester.execute(kernel);
    EXPECT_TRUE(tester.consistent());
    EXPECT_EQ(kernel.pmaps().shoot().cross_node_ipis, 0u);
    EXPECT_EQ(kernel.pmaps().shoot().forwarded_ipis, 0u);
    EXPECT_EQ(kernel.remote_faults, 0u);
}

// ---------------------------------------------------------------------
// Determinism at NUMA shapes.
// ---------------------------------------------------------------------

/** Parthenon on an N-node machine, optionally with the obs recorder. */
std::uint64_t
parthenonDigest(unsigned ncpus, unsigned nodes, bool record)
{
    hw::MachineConfig config = numaConfig(ncpus, nodes);
    config.seed = 0xa27e70 + nodes;
    vm::Kernel kernel(config);
    if (record)
        kernel.machine().recorder().enable();
    apps::Parthenon::Params params;
    params.runs = 2;
    apps::Parthenon app(params);
    app.execute(kernel);
    EXPECT_GT(app.items_processed, 0u);
    EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
    return xpr::runDigest(kernel);
}

TEST(NumaDeterminism, ParthenonDigestsMatchGolden)
{
    // Golden digests captured from the initial NUMA implementation.
    // They pin the multi-node order contract the same way the
    // single-node storm digests do: any change to interconnect
    // costing, delegate fan-out order, or placement must either leave
    // these bit-identical or consciously re-capture them.
    const std::uint64_t two_node = parthenonDigest(16, 2, false);
    const std::uint64_t four_node = parthenonDigest(32, 4, false);
    EXPECT_EQ(two_node, 0x05a1dcc4279b8368ull);
    EXPECT_EQ(four_node, 0xb30c2692ec808cbeull);

    // Run-to-run: same shape, same digest.
    EXPECT_EQ(parthenonDigest(16, 2, false), two_node);
    EXPECT_EQ(parthenonDigest(32, 4, false), four_node);
    // Different topologies genuinely diverge.
    EXPECT_NE(two_node, four_node);
}

TEST(NumaDeterminism, RecordingDoesNotPerturbTheRun)
{
    EXPECT_EQ(parthenonDigest(16, 2, true),
              parthenonDigest(16, 2, false));
}

TEST(NumaDeterminism, FarmShapeInvarianceOnNumaScenario)
{
    const std::vector<chk::Scenario> library = chk::builtinScenarios();
    const chk::Scenario *storm = chk::findScenario(library,
                                                   "numa-storm");
    ASSERT_NE(storm, nullptr);

    std::vector<SchedulePerturber> probes;
    for (const char *text : {"", "e120+50000", "e700+250000,b40+9000"}) {
        SchedulePerturber p;
        ASSERT_TRUE(SchedulePerturber::parse(text, &p, nullptr));
        probes.push_back(p);
    }

    const chk::Explorer serial;
    std::vector<chk::TrialResult> want;
    for (const SchedulePerturber &p : probes)
        want.push_back(serial.runTrial(*storm, p));

    // A 4-wide farm must replay bit-identically.
    const chk::Explorer farmed(nullptr, farm::FarmOptions{4, false});
    const std::vector<chk::TrialResult> got =
        farmed.runTrials(*storm, probes);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].digest, want[i].digest) << "probe " << i;
        EXPECT_EQ(got[i].end_time, want[i].end_time) << "probe " << i;
        EXPECT_EQ(got[i].completed, want[i].completed) << "probe " << i;
    }
}

} // namespace
} // namespace mach
