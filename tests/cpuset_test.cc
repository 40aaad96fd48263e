/**
 * @file
 * CpuSet: the wide shoot-set / in-use-set representation.
 *
 * The original Multimax stopped at 16 processors; the NUMA topology
 * layer composes machines past that, so every set of CPUs in the tree
 * must behave identically at 17, 64, and 128 members -- the shapes
 * that cross the old 16-bit mask, fill one 64-bit word, and span
 * multiple words.
 */

#include <gtest/gtest.h>

#include <vector>

#include "base/cpuset.hh"

namespace
{

using mach::CpuId;
using mach::CpuSet;

std::vector<CpuId>
members(const CpuSet &set)
{
    std::vector<CpuId> out;
    set.forEach([&](CpuId id) { out.push_back(id); });
    return out;
}

TEST(CpuSet, StartsEmpty)
{
    CpuSet set;
    EXPECT_TRUE(set.empty());
    EXPECT_EQ(set.count(), 0u);
    EXPECT_EQ(set.first(), CpuSet::kMaxCpus);
    EXPECT_EQ(set.format(), "{}");
}

TEST(CpuSet, SetClearTestAssign)
{
    CpuSet set;
    set.set(0);
    set.set(16); // First id beyond the paper's 16-bit mask.
    set.set(63);
    set.set(64); // First id in the second word.
    set.set(127);
    EXPECT_TRUE(set.test(0));
    EXPECT_TRUE(set.test(16));
    EXPECT_TRUE(set.test(63));
    EXPECT_TRUE(set.test(64));
    EXPECT_TRUE(set.test(127));
    EXPECT_FALSE(set.test(1));
    EXPECT_FALSE(set.test(65));
    EXPECT_EQ(set.count(), 5u);

    set.clear(64);
    EXPECT_FALSE(set.test(64));
    EXPECT_EQ(set.count(), 4u);

    set.assign(64, true);
    EXPECT_TRUE(set.test(64));
    set.assign(64, false);
    EXPECT_FALSE(set.test(64));

    set.clearAll();
    EXPECT_TRUE(set.empty());
}

TEST(CpuSet, FullMachineShapes)
{
    for (unsigned ncpus : {17u, 64u, 128u}) {
        CpuSet set;
        for (CpuId id = 0; id < ncpus; ++id)
            set.set(id);
        EXPECT_EQ(set.count(), ncpus) << "ncpus=" << ncpus;
        EXPECT_EQ(set.first(), 0u);
        for (CpuId id = 0; id < ncpus; ++id)
            EXPECT_TRUE(set.test(id)) << "ncpus=" << ncpus
                                      << " id=" << id;
        EXPECT_FALSE(set.test(ncpus));

        // Iteration order is ascending id -- the order the shootdown
        // protocol's send loops (and the determinism digests) rely on.
        const std::vector<CpuId> got = members(set);
        ASSERT_EQ(got.size(), ncpus);
        for (CpuId id = 0; id < ncpus; ++id)
            EXPECT_EQ(got[id], id);
    }
}

TEST(CpuSet, SetOperations)
{
    CpuSet a, b;
    for (CpuId id = 0; id < 128; id += 2)
        a.set(id); // evens
    for (CpuId id = 0; id < 128; id += 3)
        b.set(id); // multiples of 3

    CpuSet uni = a;
    uni |= b;
    CpuSet inter = a;
    inter &= b;

    for (CpuId id = 0; id < 128; ++id) {
        EXPECT_EQ(uni.test(id), id % 2 == 0 || id % 3 == 0);
        EXPECT_EQ(inter.test(id), id % 6 == 0);
    }

    CpuSet copy = a;
    EXPECT_TRUE(copy == a);
    copy.clear(0);
    EXPECT_FALSE(copy == a);
}

TEST(CpuSet, FirstSkipsLeadingWords)
{
    CpuSet set;
    set.set(100);
    set.set(900);
    EXPECT_EQ(set.first(), 100u);
    set.clear(100);
    EXPECT_EQ(set.first(), 900u);
}

TEST(CpuSet, FormatCollapsesRuns)
{
    CpuSet set;
    for (CpuId id = 0; id <= 3; ++id)
        set.set(id);
    set.set(8);
    for (CpuId id = 12; id <= 15; ++id)
        set.set(id);
    EXPECT_EQ(set.format(), "{0-3,8,12-15}");

    // A run of exactly two prints as a pair, not a dash range.
    CpuSet pair;
    pair.set(5);
    pair.set(6);
    EXPECT_EQ(pair.format(), "{5,6}");

    // Wide-machine ids format past the old 16-CPU ceiling.
    CpuSet wide;
    for (CpuId id = 16; id < 128; ++id)
        wide.set(id);
    EXPECT_EQ(wide.format(), "{16-127}");
}

TEST(CpuSet, BoundaryIds)
{
    CpuSet set;
    set.set(CpuSet::kMaxCpus - 1);
    EXPECT_TRUE(set.test(CpuSet::kMaxCpus - 1));
    EXPECT_EQ(set.count(), 1u);
    EXPECT_EQ(set.first(), CpuSet::kMaxCpus - 1);
    EXPECT_EQ(members(set).back(), CpuSet::kMaxCpus - 1);
}

TEST(CpuSet, PopulationOpsAtTheCapacityBoundary)
{
    // MachineConfig caps ncpus + devices at exactly kMaxCpus, so the
    // last few ids are reachable responder ids, not dead headroom:
    // every population op must work on the final word's top bits.
    CpuSet set;
    const CpuId last = CpuSet::kMaxCpus - 1;
    for (CpuId id = last - 3; id <= last; ++id)
        set.set(id);
    EXPECT_EQ(set.count(), 4u);
    EXPECT_EQ(set.format(), "{1020-1023}");

    set.clear(last - 1);
    EXPECT_EQ(set.format(), "{1020,1021,1023}");
    set.assign(last - 1, true);
    set.assign(last - 3, false);
    EXPECT_EQ(set.format(), "{1021-1023}");

    // Out-of-range probes are safely "not a member"; the union and
    // intersection of boundary-straddling sets stay in bounds.
    EXPECT_FALSE(set.test(CpuSet::kMaxCpus));
    EXPECT_FALSE(set.test(~CpuId{0}));
    CpuSet other;
    other.set(0);
    other.set(last);
    CpuSet uni = set;
    uni |= other;
    EXPECT_EQ(uni.format(), "{0,1021-1023}");
    CpuSet inter = set;
    inter &= other;
    EXPECT_EQ(inter.format(), "{" + std::to_string(last) + "}");
    EXPECT_EQ(inter.first(), last);
}

TEST(CpuSet, MixedCpuAndDeviceIdSets)
{
    // An in-use set on a device-equipped machine holds both id
    // families: CPUs at [0, ncpus) and devices at [ncpus, ncpus +
    // devices) (dev/dma_device.hh). The set must not care where the
    // family boundary falls, including when it straddles a word.
    const unsigned ncpus = 62;
    const unsigned devices = 4;
    CpuSet in_use;
    for (CpuId cpu = 0; cpu < ncpus; cpu += 2)
        in_use.set(cpu);
    for (unsigned dev = 0; dev < devices; ++dev)
        in_use.set(ncpus + dev);
    EXPECT_EQ(in_use.count(), ncpus / 2 + devices);

    // Splitting by family -- what the shootdown controller does when
    // it walks CPUs and device responders in separate phases -- is a
    // mask intersection, and the two halves partition the set.
    CpuSet cpu_mask;
    for (CpuId cpu = 0; cpu < ncpus; ++cpu)
        cpu_mask.set(cpu);
    CpuSet cpus = in_use;
    cpus &= cpu_mask;
    EXPECT_EQ(cpus.count(), ncpus / 2);
    unsigned seen_devices = 0;
    in_use.forEach([&](CpuId id) {
        if (id >= ncpus) {
            ++seen_devices;
            EXPECT_LT(id, ncpus + devices);
            EXPECT_FALSE(cpus.test(id));
        }
    });
    EXPECT_EQ(seen_devices, devices);

    // The device run straddles the 62/63 -> 64 word boundary and still
    // collapses into one range next to the even-CPU singles.
    EXPECT_EQ(in_use.format().substr(
                  in_use.format().find("60")),
              "60,62-65}");
}

} // namespace
