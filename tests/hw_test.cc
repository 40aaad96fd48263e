/**
 * @file
 * Unit tests for the hardware models: physical memory, page tables,
 * TLBs, the bus contention model, and the interrupt controller.
 */

#include <gtest/gtest.h>

#include <utility>

#include "base/rng.hh"
#include "hw/bus.hh"
#include "hw/intr.hh"
#include "hw/machine_config.hh"
#include "hw/page_table.hh"
#include "hw/phys_mem.hh"
#include "hw/tlb.hh"

#include "phys_mem_reference.hh"

namespace mach::hw
{
namespace
{

// ---------------------------------------------------------------------
// PhysMem
// ---------------------------------------------------------------------

TEST(PhysMem, AllocatesDistinctFrames)
{
    PhysMem mem(64);
    const Pfn a = mem.allocFrame();
    const Pfn b = mem.allocFrame();
    EXPECT_NE(a, b);
    EXPECT_TRUE(mem.validPfn(a));
    EXPECT_TRUE(mem.validPfn(b));
    EXPECT_EQ(mem.freeFrames(), 61u); // 63 allocatable - 2.
}

TEST(PhysMem, FrameZeroIsReserved)
{
    PhysMem mem(64);
    for (std::uint32_t i = 0; i < 63; ++i)
        EXPECT_NE(mem.allocFrame(), 0u);
    EXPECT_EQ(mem.freeFrames(), 0u);
}

TEST(PhysMem, FreedFramesAreReusable)
{
    PhysMem mem(8);
    std::vector<Pfn> frames;
    for (int i = 0; i < 7; ++i)
        frames.push_back(mem.allocFrame());
    for (Pfn f : frames)
        mem.freeFrame(f);
    EXPECT_EQ(mem.freeFrames(), 7u);
    for (int i = 0; i < 7; ++i)
        mem.allocFrame();
}

TEST(PhysMem, ReadWrite32)
{
    PhysMem mem(16);
    const Pfn f = mem.allocFrame();
    const PAddr base = f << kPageShift;
    mem.write32(base + 8, 0xdeadbeef);
    EXPECT_EQ(mem.read32(base + 8), 0xdeadbeefu);
    EXPECT_EQ(mem.read32(base + 12), 0u); // Fresh frames read zero.
}

TEST(PhysMem, ByteAccess)
{
    PhysMem mem(16);
    const Pfn f = mem.allocFrame();
    const PAddr base = f << kPageShift;
    mem.write8(base + 1, 0xab);
    EXPECT_EQ(mem.read8(base + 1), 0xab);
    EXPECT_EQ(mem.read8(base), 0x00);
}

TEST(PhysMem, CopyFrameDuplicatesContents)
{
    PhysMem mem(16);
    const Pfn src = mem.allocFrame();
    const Pfn dst = mem.allocFrame();
    for (std::uint32_t i = 0; i < kPageSize; i += 4)
        mem.write32((src << kPageShift) + i, i * 3 + 1);
    mem.copyFrame(dst, src);
    for (std::uint32_t i = 0; i < kPageSize; i += 4)
        ASSERT_EQ(mem.read32((dst << kPageShift) + i), i * 3 + 1);
}

TEST(PhysMem, ReallocatedFrameIsZeroed)
{
    PhysMem mem(4);
    const Pfn f = mem.allocFrame();
    mem.write32(f << kPageShift, 0x1234);
    mem.freeFrame(f);
    Pfn g;
    do {
        g = mem.allocFrame();
    } while (g != f && mem.freeFrames() > 0);
    ASSERT_EQ(g, f);
    EXPECT_EQ(mem.read32(g << kPageShift), 0u);
}

TEST(PhysMem, AllocationOrderMatchesDescendingFreeList)
{
    // 96 allocatable frames; every step checked against the original
    // high-to-low free list.
    test::OrderRun run;
    ASSERT_NO_FATAL_FAILURE(test::expectReferenceOrder(97, 1, 0xa110c, &run));
    EXPECT_GT(run.exhausted, 0u);
}

TEST(PhysMem, HighestFrameWorksOnFreshMemory)
{
    // Nothing is allocated or touched yet, so each first access lands
    // past every frame the memory has materialized.
    const Pfn top = 63;
    const PAddr last_word = (top << kPageShift) + kPageSize - 4;
    {
        PhysMem mem(64);
        EXPECT_EQ(mem.read32(last_word), 0u);
    }
    {
        PhysMem mem(64);
        mem.write32(last_word, 0xfeedf00d);
        EXPECT_EQ(mem.read32(last_word), 0xfeedf00du);
        mem.copyFrame(1, top);
        EXPECT_EQ(mem.read32((Pfn{1} << kPageShift) + kPageSize - 4),
                  0xfeedf00du);
    }
    {
        PhysMem mem(64);
        mem.write32(Pfn{2} << kPageShift, 0x5eed);
        mem.copyFrame(top, 2);
        EXPECT_EQ(mem.read32(top << kPageShift), 0x5eedu);
        EXPECT_EQ(mem.read32(last_word), 0u);
    }
}

// ---------------------------------------------------------------------
// PTE helpers
// ---------------------------------------------------------------------

TEST(Pte, RoundTripFields)
{
    const std::uint32_t entry = pte::make(0x123, ProtReadWrite, true,
                                          false);
    EXPECT_TRUE(pte::valid(entry));
    EXPECT_TRUE(pte::writable(entry));
    EXPECT_TRUE(pte::referenced(entry));
    EXPECT_FALSE(pte::modified(entry));
    EXPECT_EQ(pte::pfn(entry), 0x123u);
    EXPECT_EQ(pte::prot(entry), ProtReadWrite);
}

TEST(Pte, ReadOnlyAndInvalid)
{
    const std::uint32_t ro = pte::make(7, ProtRead);
    EXPECT_EQ(pte::prot(ro), ProtRead);
    EXPECT_FALSE(pte::writable(ro));
    EXPECT_EQ(pte::prot(0), ProtNone);
    EXPECT_FALSE(pte::valid(0));
}

// ---------------------------------------------------------------------
// PageTable
// ---------------------------------------------------------------------

TEST(PageTable, EmptyWalkMissesWithOneRead)
{
    PhysMem mem(128);
    PageTable table(&mem);
    const WalkResult walk = table.walk(0x400);
    EXPECT_FALSE(pte::valid(walk.pte));
    EXPECT_FALSE(walk.leaf_present);
    EXPECT_EQ(walk.memory_reads, 1u);
}

TEST(PageTable, WriteThenWalk)
{
    PhysMem mem(128);
    PageTable table(&mem);
    table.writePte(0x400, pte::make(9, ProtRead));
    const WalkResult walk = table.walk(0x400);
    EXPECT_TRUE(pte::valid(walk.pte));
    EXPECT_TRUE(walk.leaf_present);
    EXPECT_EQ(walk.memory_reads, 2u);
    EXPECT_EQ(pte::pfn(walk.pte), 9u);
}

TEST(PageTable, LeafAllocatedOnDemandOnly)
{
    PhysMem mem(128);
    PageTable table(&mem);
    EXPECT_EQ(table.leafCount(), 0u);
    table.writePte(0, pte::make(1, ProtRead));
    EXPECT_EQ(table.leafCount(), 1u);
    // Same leaf (vpns 0..1023 share it).
    table.writePte(1023, pte::make(2, ProtRead));
    EXPECT_EQ(table.leafCount(), 1u);
    // Next leaf.
    table.writePte(1024, pte::make(3, ProtRead));
    EXPECT_EQ(table.leafCount(), 2u);
}

TEST(PageTable, InvalidatingUnmappedDoesNotAllocate)
{
    PhysMem mem(128);
    PageTable table(&mem);
    table.writePte(0x12345, 0);
    EXPECT_EQ(table.leafCount(), 0u);
}

TEST(PageTable, ForEachValidSkipsMissingLeaves)
{
    PhysMem mem(128);
    PageTable table(&mem);
    table.writePte(10, pte::make(1, ProtRead));
    table.writePte(5000, pte::make(2, ProtRead));

    std::vector<Vpn> seen;
    table.forEachValid(0, 8192,
                       [&](Vpn vpn, std::uint32_t) { seen.push_back(vpn); });
    EXPECT_EQ(seen, (std::vector<Vpn>{10, 5000}));
}

TEST(PageTable, ForEachValidRespectsRange)
{
    PhysMem mem(128);
    PageTable table(&mem);
    for (Vpn v = 8; v < 16; ++v)
        table.writePte(v, pte::make(v, ProtRead));
    EXPECT_EQ(table.countValid(10, 14), 4u);
    EXPECT_EQ(table.countValid(0, 8), 0u);
    EXPECT_EQ(table.countValid(8, 16), 8u);
}

TEST(PageTable, CollectFreesLeavesAndInvalidatesAll)
{
    PhysMem mem(128);
    PageTable table(&mem);
    const std::uint32_t before = mem.freeFrames();
    table.writePte(0, pte::make(1, ProtRead));
    table.writePte(2048, pte::make(2, ProtRead));
    EXPECT_EQ(mem.freeFrames(), before - 2);
    table.collect();
    EXPECT_EQ(mem.freeFrames(), before);
    EXPECT_EQ(table.countValid(0, 4096), 0u);
    // Usable again afterwards.
    table.writePte(7, pte::make(3, ProtRead));
    EXPECT_EQ(table.countValid(0, 1024), 1u);
}

TEST(PageTable, PteAddrMatchesWalk)
{
    PhysMem mem(128);
    PageTable table(&mem);
    EXPECT_EQ(table.pteAddr(66), 0u);
    table.writePte(66, pte::make(4, ProtReadWrite));
    const PAddr addr = table.pteAddr(66);
    ASSERT_NE(addr, 0u);
    EXPECT_EQ(mem.read32(addr), table.readPte(66));
    // Writing through the raw address is what TLB writeback does.
    mem.write32(addr, pte::make(4, ProtReadWrite, true, true));
    EXPECT_TRUE(pte::modified(table.readPte(66)));
}

TEST(PageTable, RepeatedWalksAgree)
{
    PhysMem mem(128);
    PageTable table(&mem);
    table.writePte(0x400, pte::make(9, ProtRead));
    const WalkResult first = table.walk(0x400);
    const WalkResult second = table.walk(0x400);
    EXPECT_EQ(first.pte, second.pte);
    EXPECT_EQ(first.leaf_present, second.leaf_present);
    EXPECT_EQ(second.memory_reads, 2u);
}

TEST(PageTable, PteRewriteIsVisibleToNextWalk)
{
    // A revocation on an existing leaf is visible to the very next
    // walk: the walker reads the PTE from memory every time.
    PhysMem mem(128);
    PageTable table(&mem);
    table.writePte(7, pte::make(4, ProtReadWrite));
    EXPECT_TRUE(pte::valid(table.walk(7).pte));
    table.writePte(7, 0);
    const WalkResult after = table.walk(7);
    EXPECT_TRUE(after.leaf_present);
    EXPECT_FALSE(pte::valid(after.pte));
}

TEST(PageTable, WalkAfterCollectReadsOnlyTheRoot)
{
    PhysMem mem(128);
    PageTable table(&mem);
    table.writePte(3, pte::make(5, ProtRead));
    EXPECT_TRUE(pte::valid(table.walk(3).pte));
    table.collect();
    // The leaf is freed: the walk sees the now-invalid root and is
    // charged only the single root read.
    const WalkResult after = table.walk(3);
    EXPECT_FALSE(after.leaf_present);
    EXPECT_EQ(after.memory_reads, 1u);
    // Faulted back in afterwards, walks resolve the new leaf.
    table.writePte(3, pte::make(6, ProtRead));
    const WalkResult refaulted = table.walk(3);
    EXPECT_EQ(pte::pfn(refaulted.pte), 6u);
    EXPECT_EQ(refaulted.memory_reads, 2u);
}

TEST(PageTable, ReplicaWalksResolvePerNodeAcrossCollect)
{
    PhysMem mem(128, 2);
    PageTable table(&mem);
    table.enableReplicas(2);
    table.writePte(12, pte::make(8, ProtRead));
    // Both nodes' walks resolve through their own roots.
    EXPECT_EQ(pte::pfn(table.walk(12, 0).pte), 8u);
    EXPECT_EQ(pte::pfn(table.walk(12, 1).pte), 8u);
    // collect() frees primary and replica leaves alike.
    table.collect();
    EXPECT_FALSE(table.walk(12, 0).leaf_present);
    EXPECT_FALSE(table.walk(12, 1).leaf_present);
    // Fault the mapping back in: both nodes resolve the new leaves.
    table.writePte(12, pte::make(9, ProtRead));
    EXPECT_EQ(pte::pfn(table.walk(12, 0).pte), 9u);
    EXPECT_EQ(pte::pfn(table.walk(12, 1).pte), 9u);
}

// ---------------------------------------------------------------------
// Tlb
// ---------------------------------------------------------------------

struct TlbFixture : public ::testing::Test
{
    TlbFixture() : mem(256), tlb(&config, &mem) {}

    MachineConfig config;
    PhysMem mem;
    Tlb tlb;
};

TEST_F(TlbFixture, MissThenHit)
{
    EXPECT_FALSE(tlb.lookup(1, 5, ProtRead, 0).hit);
    tlb.insert(1, 5, 42, ProtRead, false);
    const TlbLookup hit = tlb.lookup(1, 5, ProtRead, 0);
    EXPECT_TRUE(hit.hit);
    EXPECT_TRUE(hit.prot_ok);
    EXPECT_EQ(hit.pfn, 42u);
}

TEST_F(TlbFixture, SpacesAreIsolated)
{
    tlb.insert(1, 5, 42, ProtRead, false);
    EXPECT_FALSE(tlb.lookup(2, 5, ProtRead, 0).hit);
}

TEST_F(TlbFixture, ProtectionInsufficientIsFlagged)
{
    tlb.insert(1, 5, 42, ProtRead, false);
    const TlbLookup look = tlb.lookup(1, 5, ProtWrite, 0);
    EXPECT_TRUE(look.hit);
    EXPECT_FALSE(look.prot_ok);
}

TEST_F(TlbFixture, WriteHitPerformsRefModWriteback)
{
    // Build a PTE in memory, cache it, then write through the entry:
    // the TLB must write its image of the entry back to memory with
    // ref/mod set -- the Section 3 hazard.
    const Pfn leaf = mem.allocFrame();
    const PAddr pte_addr = leaf << kPageShift;
    mem.write32(pte_addr, pte::make(42, ProtReadWrite));

    tlb.insert(1, 5, 42, ProtReadWrite, false);
    const TlbLookup look = tlb.lookup(1, 5, ProtWrite, pte_addr);
    EXPECT_TRUE(look.did_writeback);
    const std::uint32_t after = mem.read32(pte_addr);
    EXPECT_TRUE(pte::referenced(after));
    EXPECT_TRUE(pte::modified(after));

    // Second write: mod already set, no further writeback.
    EXPECT_FALSE(tlb.lookup(1, 5, ProtWrite, pte_addr).did_writeback);
}

TEST_F(TlbFixture, WritebackClobbersConcurrentPteChange)
{
    // The corruption scenario: the PTE is invalidated in memory, but a
    // stale cached entry's writeback blindly rewrites it.
    const Pfn leaf = mem.allocFrame();
    const PAddr pte_addr = leaf << kPageShift;
    mem.write32(pte_addr, pte::make(42, ProtReadWrite));
    tlb.insert(1, 5, 42, ProtReadWrite, false);

    mem.write32(pte_addr, 0); // pmap invalidates the mapping...
    tlb.lookup(1, 5, ProtWrite, pte_addr); // ...writeback resurrects it.
    EXPECT_TRUE(pte::valid(mem.read32(pte_addr)));
}

TEST_F(TlbFixture, InterlockedWritebackPreservesConcurrentChange)
{
    // MC88200-style interlocked ref/mod update: the hardware re-reads
    // the PTE and ORs the bits in, so a concurrent protection change
    // survives and a revoked mapping faults instead of resurrecting.
    config.tlb_refmod = TlbRefmod::Interlocked;
    const Pfn leaf = mem.allocFrame();
    const PAddr pte_addr = leaf << kPageShift;
    mem.write32(pte_addr, pte::make(42, ProtReadWrite));
    tlb.insert(1, 5, 42, ProtReadWrite, false);

    // Concurrent pmap invalidation...
    mem.write32(pte_addr, 0);
    const TlbLookup look = tlb.lookup(1, 5, ProtWrite, pte_addr);
    // ...makes the access fault rather than corrupting the PTE.
    EXPECT_FALSE(look.hit);
    EXPECT_FALSE(pte::valid(mem.read32(pte_addr)));
    // The stale entry was dropped.
    EXPECT_FALSE(tlb.cachesMapping(1, 5, ProtRead));
}

TEST_F(TlbFixture, InterlockedWritebackSetsBitsOnValidMapping)
{
    config.tlb_refmod = TlbRefmod::Interlocked;
    const Pfn leaf = mem.allocFrame();
    const PAddr pte_addr = leaf << kPageShift;
    mem.write32(pte_addr, pte::make(42, ProtReadWrite));
    tlb.insert(1, 5, 42, ProtReadWrite, false);

    const TlbLookup look = tlb.lookup(1, 5, ProtWrite, pte_addr);
    EXPECT_TRUE(look.hit);
    EXPECT_TRUE(look.did_writeback);
    const std::uint32_t after = mem.read32(pte_addr);
    EXPECT_TRUE(pte::referenced(after));
    EXPECT_TRUE(pte::modified(after));
    EXPECT_TRUE(pte::valid(after));
}

TEST_F(TlbFixture, InterlockedWritebackFaultsOnDowngrade)
{
    // The critical case from the paper's footnote: setting the modify
    // bit for a cached mapping whose PTE no longer permits writes must
    // fault, not OR bits into a read-only PTE.
    config.tlb_refmod = TlbRefmod::Interlocked;
    const Pfn leaf = mem.allocFrame();
    const PAddr pte_addr = leaf << kPageShift;
    mem.write32(pte_addr, pte::make(42, ProtReadWrite));
    tlb.insert(1, 5, 42, ProtReadWrite, false);

    mem.write32(pte_addr, pte::make(42, ProtRead)); // Downgraded.
    const TlbLookup look = tlb.lookup(1, 5, ProtWrite, pte_addr);
    EXPECT_FALSE(look.hit);
    EXPECT_FALSE(pte::modified(mem.read32(pte_addr)));
}

TEST_F(TlbFixture, NoWritebackOptionSuppressesHazard)
{
    config.tlb_refmod = TlbRefmod::None;
    const Pfn leaf = mem.allocFrame();
    const PAddr pte_addr = leaf << kPageShift;
    mem.write32(pte_addr, pte::make(42, ProtReadWrite));
    tlb.insert(1, 5, 42, ProtReadWrite, false);
    mem.write32(pte_addr, 0);
    tlb.lookup(1, 5, ProtWrite, pte_addr);
    EXPECT_FALSE(pte::valid(mem.read32(pte_addr)));
}

TEST_F(TlbFixture, InvalidatePage)
{
    tlb.insert(1, 5, 42, ProtRead, false);
    tlb.invalidatePage(1, 5);
    EXPECT_FALSE(tlb.lookup(1, 5, ProtRead, 0).hit);
    EXPECT_EQ(tlb.single_invalidates, 1u);
}

TEST_F(TlbFixture, InvalidateRange)
{
    for (Vpn v = 0; v < 10; ++v)
        tlb.insert(1, v, v + 1, ProtRead, false);
    tlb.invalidateRange(1, 3, 7);
    for (Vpn v = 0; v < 10; ++v) {
        const bool expect_hit = v < 3 || v >= 7;
        EXPECT_EQ(tlb.lookup(1, v, ProtRead, 0).hit, expect_hit)
            << "vpn " << v;
    }
}

TEST_F(TlbFixture, FlushSpaceLeavesOtherSpaces)
{
    tlb.insert(1, 5, 42, ProtRead, false);
    tlb.insert(2, 5, 43, ProtRead, false);
    tlb.flushSpace(1);
    EXPECT_FALSE(tlb.lookup(1, 5, ProtRead, 0).hit);
    EXPECT_TRUE(tlb.lookup(2, 5, ProtRead, 0).hit);
    EXPECT_FALSE(tlb.cachesSpace(1));
    EXPECT_TRUE(tlb.cachesSpace(2));
}

TEST_F(TlbFixture, FlushAllEmptiesBuffer)
{
    for (Vpn v = 0; v < 20; ++v)
        tlb.insert(1, v, v, ProtRead, false);
    tlb.flushAll();
    EXPECT_EQ(tlb.validCount(), 0u);
}

TEST_F(TlbFixture, ReplacementEvictsWhenFull)
{
    for (Vpn v = 0; v < config.tlb_entries + 10; ++v)
        tlb.insert(1, v, v, ProtRead, false);
    EXPECT_EQ(tlb.validCount(), config.tlb_entries);
}

TEST_F(TlbFixture, ReinsertUpdatesInPlace)
{
    tlb.insert(1, 5, 42, ProtRead, false);
    tlb.insert(1, 5, 43, ProtReadWrite, false);
    EXPECT_EQ(tlb.validCount(), 1u);
    const TlbLookup look = tlb.lookup(1, 5, ProtWrite, 0);
    EXPECT_TRUE(look.prot_ok);
    EXPECT_EQ(look.pfn, 43u);
}

TEST_F(TlbFixture, CachesMappingQuery)
{
    tlb.insert(1, 5, 42, ProtRead, false);
    EXPECT_TRUE(tlb.cachesMapping(1, 5, ProtRead));
    EXPECT_FALSE(tlb.cachesMapping(1, 5, ProtWrite));
    EXPECT_FALSE(tlb.cachesMapping(1, 6, ProtRead));
}

TEST_F(TlbFixture, FullyAssociativeEvictionIsGlobalRoundRobin)
{
    // Fill the buffer with distinct pages, then insert one more: the
    // global round-robin cursor has wrapped back to slot 0, so the very
    // first fill is the victim.
    for (Vpn v = 0; v < config.tlb_entries; ++v)
        tlb.insert(1, v, v, ProtRead, false);
    tlb.insert(1, 1000, 99, ProtRead, false);
    EXPECT_FALSE(tlb.lookup(1, 0, ProtRead, 0).hit);
    for (Vpn v = 1; v < config.tlb_entries; ++v)
        EXPECT_TRUE(tlb.lookup(1, v, ProtRead, 0).hit) << "vpn " << v;
    EXPECT_TRUE(tlb.lookup(1, 1000, ProtRead, 0).hit);
}

// ---------------------------------------------------------------------
// L0 translation cache (host-side front of the TLB)
// ---------------------------------------------------------------------

TEST_F(TlbFixture, L0ServesRepeatedHitsIdentically)
{
    tlb.insert(1, 5, 42, ProtRead, false);
    const TlbLookup first = tlb.lookup(1, 5, ProtRead, 0);
    const TlbLookup second = tlb.lookup(1, 5, ProtRead, 0);
    EXPECT_GT(tlb.l0_hits, 0u);
    EXPECT_EQ(first.hit, second.hit);
    EXPECT_EQ(first.pfn, second.pfn);
    EXPECT_EQ(first.prot_ok, second.prot_ok);
    // Simulated hit counters are identical to an uncached TLB's.
    EXPECT_EQ(tlb.hits, 2u);
    EXPECT_EQ(tlb.misses, 0u);
}

TEST_F(TlbFixture, L0InvalidatedOnInvalidatePage)
{
    tlb.insert(1, 5, 42, ProtRead, false);
    EXPECT_TRUE(tlb.lookup(1, 5, ProtRead, 0).hit); // L0 now caches it.
    tlb.invalidatePage(1, 5);
    EXPECT_TRUE(tlb.l0Translations().empty());
    EXPECT_FALSE(tlb.lookup(1, 5, ProtRead, 0).hit);
}

TEST_F(TlbFixture, L0InvalidatedOnInvalidateRange)
{
    for (Vpn v = 0; v < 4; ++v) {
        tlb.insert(1, v, v + 1, ProtRead, false);
        tlb.lookup(1, v, ProtRead, 0);
    }
    tlb.invalidateRange(1, 0, 4);
    EXPECT_TRUE(tlb.l0Translations().empty());
    for (Vpn v = 0; v < 4; ++v)
        EXPECT_FALSE(tlb.lookup(1, v, ProtRead, 0).hit) << "vpn " << v;
}

TEST_F(TlbFixture, L0InvalidatedOnFlushSpacePerSpace)
{
    tlb.insert(1, 5, 42, ProtRead, false);
    tlb.insert(2, 5, 43, ProtRead, false);
    tlb.lookup(1, 5, ProtRead, 0);
    tlb.lookup(2, 5, ProtRead, 0);
    tlb.flushSpace(1);
    // Only the flushed space's slots are dropped.
    for (const TlbEntry &entry : tlb.l0Translations())
        EXPECT_NE(entry.space, 1u);
    EXPECT_FALSE(tlb.lookup(1, 5, ProtRead, 0).hit);
    EXPECT_TRUE(tlb.lookup(2, 5, ProtRead, 0).hit);
}

TEST_F(TlbFixture, L0InvalidatedOnFlushAll)
{
    tlb.insert(1, 5, 42, ProtRead, false);
    tlb.lookup(1, 5, ProtRead, 0);
    tlb.flushAll();
    EXPECT_TRUE(tlb.l0Translations().empty());
    EXPECT_FALSE(tlb.lookup(1, 5, ProtRead, 0).hit);
}

TEST_F(TlbFixture, L0InvalidatedOnEviction)
{
    // Cache vpn 0 in the L0, then wrap the round-robin victim cursor
    // exactly onto its backing entry: the eviction retires the entry
    // and must drop the L0 slot with it.
    tlb.insert(1, 0, 1, ProtRead, false);
    tlb.lookup(1, 0, ProtRead, 0);
    for (Vpn v = 1; v <= config.tlb_entries; ++v)
        tlb.insert(1, v, v + 1, ProtRead, false);
    EXPECT_FALSE(tlb.lookup(1, 0, ProtRead, 0).hit);
}

TEST_F(TlbFixture, L0SeesInPlaceRefresh)
{
    // An insert hit refreshes the backing entry in place; the L0 slot
    // keeps pointing at it and must serve the refreshed translation.
    tlb.insert(1, 5, 42, ProtRead, false);
    tlb.lookup(1, 5, ProtRead, 0);
    tlb.insert(1, 5, 99, ProtReadWrite, false);
    const TlbLookup look = tlb.lookup(1, 5, ProtWrite, 0);
    EXPECT_TRUE(look.hit);
    EXPECT_TRUE(look.prot_ok);
    EXPECT_EQ(look.pfn, 99u);
}

TEST_F(TlbFixture, L0DisabledBehavesIdentically)
{
    // Same deterministic op mix against an L0-less TLB: every simulated
    // observable (results and digest counters) must match bit for bit.
    MachineConfig no_l0_config;
    no_l0_config.tlb_l0_entries = 0;
    Tlb plain(&no_l0_config, &mem);

    const auto mix = [](Tlb &t) {
        for (std::uint32_t i = 0; i < 3000; ++i) {
            const SpaceId space = 1 + i % 3;
            const Vpn vpn = (i * 7) % 128;
            if (!t.lookup(space, vpn, ProtRead, 0).hit)
                t.insert(space, vpn, vpn + 1, ProtReadWrite, false);
            t.lookup(space, vpn, ProtRead, 0);
            if (i % 13 == 0)
                t.invalidatePage(space, vpn);
            if (i % 97 == 0)
                t.flushSpace(space);
            if (i % 501 == 0)
                t.flushAll();
        }
    };
    mix(tlb);
    mix(plain);
    EXPECT_EQ(plain.l0_hits + plain.l0_misses, 0u);
    EXPECT_EQ(tlb.hits, plain.hits);
    EXPECT_EQ(tlb.misses, plain.misses);
    EXPECT_EQ(tlb.flushes, plain.flushes);
    EXPECT_EQ(tlb.single_invalidates, plain.single_invalidates);
    EXPECT_EQ(tlb.full_flushes, plain.full_flushes);
    EXPECT_EQ(tlb.validCount(), plain.validCount());
}

TEST_F(TlbFixture, SkippedL0InvalidationServesStaleTranslation)
{
    // The PlantedBug::SkipL0Invalidate bug: with L0 maintenance
    // disabled, a flushed translation keeps being served from the L0.
    // This is the failure mode the consistency audit must catch (see
    // the pmap audit test); here we prove the knob actually plants it.
    config.planted_bug = hw::PlantedBug::SkipL0Invalidate;
    tlb.insert(1, 5, 42, ProtRead, false);
    tlb.lookup(1, 5, ProtRead, 0);
    tlb.flushSpace(1);
    EXPECT_EQ(tlb.validCount(), 0u);
    EXPECT_FALSE(tlb.l0Translations().empty());
    EXPECT_TRUE(tlb.lookup(1, 5, ProtRead, 0).hit); // Stale!
}

// ---------------------------------------------------------------------
// Tlb golden: one seeded production-API sequence, digested per shape
// ---------------------------------------------------------------------

std::uint64_t
foldU64(std::uint64_t hash, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (8 * i)) & 0xff;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::uint64_t
foldEntry(std::uint64_t hash, const TlbEntry &entry)
{
    hash = foldU64(hash, entry.space);
    hash = foldU64(hash, entry.vpn);
    hash = foldU64(hash, entry.pfn);
    hash = foldU64(hash, entry.prot);
    return foldU64(hash, entry.ref * 2 + entry.mod);
}

/** Every valid entry with its slot, then what the L0 would serve. */
std::uint64_t
foldContents(std::uint64_t hash, const Tlb &tlb)
{
    const std::vector<TlbEntry> &entries = tlb.entries();
    for (std::size_t slot = 0; slot < entries.size(); ++slot) {
        if (entries[slot].valid)
            hash = foldEntry(foldU64(hash, slot), entries[slot]);
    }
    for (const TlbEntry &entry : tlb.l0Translations())
        hash = foldEntry(hash, entry);
    return hash;
}

/**
 * Drive one TLB through 24k seeded operations: lookups (reads and
 * writes, with and without a PTE to write back to), inserts, page and
 * range invalidations on both sides of the buffer width, space and
 * buffer flushes, deferred flushes, and PTE rewrites under the cached
 * entries. Folds every result, every counter and the final contents.
 */
std::uint64_t
tlbSequenceDigest(const MachineConfig &config, unsigned entry_override)
{
    constexpr SpaceId kSpaces = 4;
    PhysMem mem(64);
    const PAddr leaf = mem.allocFrame() << kPageShift;
    Tlb tlb(&config, &mem, entry_override);
    const unsigned width = static_cast<unsigned>(tlb.entries().size());
    const Vpn vpns = width + 16;
    const auto pteAddr = [&](Vpn vpn) { return leaf + 4 * vpn; };
    const auto pfnOf = [](Vpn vpn) { return Pfn{vpn + 100}; };
    for (Vpn vpn = 0; vpn < vpns; ++vpn)
        mem.write32(pteAddr(vpn), pte::make(pfnOf(vpn), ProtReadWrite));

    Rng rng(0x7b1d16e5);
    std::uint64_t hash = 0xcbf29ce484222325ull;
    std::pair<SpaceId, Vpn> recent[4] = {};
    for (unsigned op = 0; op < 24000; ++op) {
        // Half the keys repeat a recent one, so the L0 and the memo see
        // realistic locality; the rest spread over four spaces.
        std::pair<SpaceId, Vpn> key = recent[rng.below(4)];
        if (key.first == kNoSpace || rng.below(2) == 0) {
            key = {static_cast<SpaceId>(1 + rng.below(kSpaces)),
                   static_cast<Vpn>(rng.below(vpns))};
            recent[op % 4] = key;
        }
        const auto [space, vpn] = key;
        const std::uint64_t kind = rng.below(1000);
        if (kind < 500) {
            const Prot want = rng.below(3) == 0 ? ProtWrite : ProtRead;
            const PAddr pte = rng.below(2) == 0 ? pteAddr(vpn) : 0;
            const TlbLookup look = tlb.lookup(space, vpn, want, pte);
            hash = foldU64(hash, look.hit * 4 + look.prot_ok * 2 +
                                     look.did_writeback);
            hash = foldU64(hash, look.pfn);
        } else if (kind < 750) {
            const Prot prot = rng.below(2) == 0 ? ProtRead : ProtReadWrite;
            tlb.insert(space, vpn, pfnOf(vpn), prot, rng.below(4) == 0);
        } else if (kind < 810) {
            tlb.invalidatePage(space, vpn);
        } else if (kind < 818) {
            tlb.invalidateRange(space, vpn,
                                vpn + 1 + rng.below(width - 1));
        } else if (kind < 820) {
            tlb.invalidateRange(space, vpn / 2,
                                vpn / 2 + width + rng.below(width));
        } else if (kind < 823) {
            tlb.flushSpace(space);
        } else if (kind < 824) {
            tlb.flushAll();
        } else if (kind < 834) {
            tlb.deferFlush(space);
        } else if (kind < 850) {
            hash = foldU64(hash, tlb.consumeDeferredFlush(space));
        } else {
            // Revoke, downgrade or remap the PTE under the cache, so
            // interlocked writebacks find changed mappings.
            const std::uint64_t how = rng.below(4);
            mem.write32(pteAddr(vpn),
                        how == 0   ? 0
                        : how == 1 ? pte::make(pfnOf(vpn), ProtRead)
                        : how == 2 ? pte::make(pfnOf(vpn) + 1,
                                               ProtReadWrite)
                                   : pte::make(pfnOf(vpn), ProtReadWrite));
        }
        hash = foldU64(hash, tlb.validCount());
        if (op % 1024 == 1023)
            hash = foldContents(hash, tlb);
    }

    for (const std::uint64_t counter :
         {tlb.hits, tlb.misses, tlb.writebacks, tlb.flushes,
          tlb.single_invalidates, tlb.full_flushes, tlb.l0_hits,
          tlb.l0_misses})
        hash = foldU64(hash, counter);
    hash = foldU64(hash, tlb.validCount());
    hash = foldContents(hash, tlb);
    for (SpaceId space = 1; space <= kSpaces; ++space)
        hash = foldU64(hash, tlb.hasDeferredFlush(space));
    for (Vpn vpn = 0; vpn < vpns; ++vpn)
        hash = foldU64(hash, mem.read32(pteAddr(vpn)));
    return hash;
}

TEST(TlbGolden, SeededSequenceDigestPerShape)
{
    MachineConfig base;
    MachineConfig wide;
    wide.tlb_entries = 512; // The virtual-cache scale.
    MachineConfig no_l0;
    no_l0.tlb_l0_entries = 0;
    MachineConfig interlocked;
    interlocked.tlb_refmod = TlbRefmod::Interlocked;
    MachineConfig planted;
    planted.planted_bug = PlantedBug::SkipL0Invalidate;

    EXPECT_EQ(tlbSequenceDigest(base, 0), 0x6d56703f5eaccff5ull);
    // A 4-entry override buffer: the device IOTLB shape.
    EXPECT_EQ(tlbSequenceDigest(base, 4), 0x727cfbd9cc093ae3ull);
    EXPECT_EQ(tlbSequenceDigest(wide, 0), 0xf4077a7d32857fc7ull);
    EXPECT_EQ(tlbSequenceDigest(no_l0, 0), 0xfaeb54eefe053065ull);
    EXPECT_EQ(tlbSequenceDigest(interlocked, 0), 0x27ec3a1846d8e893ull);
    EXPECT_EQ(tlbSequenceDigest(planted, 0), 0xc2302d6185ccb359ull);
}

// ---------------------------------------------------------------------
// Bus
// ---------------------------------------------------------------------

TEST(Bus, UncontendedCostIsNearBase)
{
    MachineConfig config;
    config.mem_jitter = 0;
    Bus bus(&config);
    EXPECT_EQ(bus.accessCost(), kMemAccessCost);
}

TEST(Bus, PenaltyAboveThreshold)
{
    MachineConfig config;
    config.mem_jitter = 0;
    config.bus_contended_jitter = 0;
    Bus bus(&config);
    for (unsigned i = 0; i < config.bus_contention_threshold; ++i)
        bus.enter();
    EXPECT_EQ(bus.accessCost(), kMemAccessCost);
    bus.enter();
    EXPECT_EQ(bus.accessCost(), kMemAccessCost + kBusPenaltyPerUser);
    bus.enter();
    EXPECT_EQ(bus.accessCost(), kMemAccessCost + 2 * kBusPenaltyPerUser);
}

TEST(Bus, RaiiUserBalances)
{
    MachineConfig config;
    Bus bus(&config);
    {
        Bus::User a(bus);
        Bus::User b(bus);
        EXPECT_EQ(bus.users(), 2u);
    }
    EXPECT_EQ(bus.users(), 0u);
}

TEST(Bus, ContendedJitterVaries)
{
    MachineConfig config;
    config.mem_jitter = 0;
    Bus bus(&config);
    for (unsigned i = 0; i <= config.bus_contention_threshold; ++i)
        bus.enter();
    bool varied = false;
    const Tick first = bus.accessCost();
    for (int i = 0; i < 64 && !varied; ++i)
        varied = bus.accessCost() != first;
    EXPECT_TRUE(varied);
}

// ---------------------------------------------------------------------
// InterruptController
// ---------------------------------------------------------------------

TEST(Intr, PostSetsPendingOnce)
{
    MachineConfig config;
    InterruptController intr(&config, 4);
    EXPECT_TRUE(intr.post(2, Irq::Shootdown));
    EXPECT_TRUE(intr.pending(2, Irq::Shootdown));
    // Second post merges (the "already pending" check of Section 4).
    EXPECT_FALSE(intr.post(2, Irq::Shootdown));
    EXPECT_FALSE(intr.pending(1, Irq::Shootdown));
}

TEST(Intr, ClearAcknowledges)
{
    MachineConfig config;
    InterruptController intr(&config, 4);
    intr.post(0, Irq::Device);
    intr.clear(0, Irq::Device);
    EXPECT_FALSE(intr.pending(0, Irq::Device));
    EXPECT_TRUE(intr.post(0, Irq::Device));
}

TEST(Intr, DeliverableRespectsSpl)
{
    MachineConfig config;
    InterruptController intr(&config, 2);
    intr.post(0, Irq::Shootdown);
    EXPECT_EQ(intr.deliverable(0, Spl0),
              static_cast<int>(Irq::Shootdown));
    // Baseline shootdown priority is SplSoft: masked at SplSoft+.
    EXPECT_EQ(intr.deliverable(0, SplSoft), -1);
    EXPECT_EQ(intr.deliverable(0, SplDevice), -1);
    EXPECT_EQ(intr.deliverable(0, SplHigh), -1);
}

TEST(Intr, HigherPriorityWinsWhenBothPending)
{
    MachineConfig config;
    InterruptController intr(&config, 1);
    intr.post(0, Irq::Shootdown);
    intr.post(0, Irq::Device);
    EXPECT_EQ(intr.deliverable(0, Spl0),
              static_cast<int>(Irq::Device));
    intr.clear(0, Irq::Device);
    EXPECT_EQ(intr.deliverable(0, Spl0),
              static_cast<int>(Irq::Shootdown));
}

TEST(Intr, HighPriorityIpiOptionOutranksDevices)
{
    MachineConfig config;
    config.high_priority_ipi = true;
    InterruptController intr(&config, 1);
    intr.post(0, Irq::Shootdown);
    intr.post(0, Irq::Device);
    // The software interrupt now outranks devices and is deliverable
    // even with devices masked -- the Section 9 proposal.
    EXPECT_EQ(intr.deliverable(0, Spl0),
              static_cast<int>(Irq::Shootdown));
    EXPECT_EQ(intr.deliverable(0, SplDevice),
              static_cast<int>(Irq::Shootdown));
    EXPECT_EQ(intr.deliverable(0, SplHigh), -1);
}

TEST(Intr, KickFiresOnFreshPostOnly)
{
    MachineConfig config;
    InterruptController intr(&config, 2);
    int kicks = 0;
    intr.setKick([&](CpuId) { ++kicks; });
    intr.post(1, Irq::Shootdown);
    intr.post(1, Irq::Shootdown);
    EXPECT_EQ(kicks, 1);
    intr.clear(1, Irq::Shootdown);
    intr.post(1, Irq::Shootdown);
    EXPECT_EQ(kicks, 2);
}

TEST(MachineConfigTest, ValidateRejectsNonsense)
{
    MachineConfig config;
    config.ncpus = 0;
    EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                "ncpus");

    // Set by hand, remote invalidation lacks the TLB it needs.
    MachineConfig remote;
    remote.shootdown_policy = ShootdownPolicy::RemoteInvalidate;
    EXPECT_EXIT(remote.validate(), ::testing::ExitedWithCode(1),
                "tlb_refmod");

    // An empty xpr buffer panics in xpr::Buffer, and a timer period
    // near one tick's service time never drains its ticks (a hang).
    MachineConfig no_xpr;
    no_xpr.xpr_capacity = 0;
    EXPECT_EXIT(no_xpr.validate(), ::testing::ExitedWithCode(1), "xpr");

    MachineConfig fast_timer;
    fast_timer.timer_period = 250 * kUsec;
    EXPECT_EXIT(fast_timer.validate(), ::testing::ExitedWithCode(1),
                "timer_period");

    MachineConfig ms_timer;
    ms_timer.timer_period = kMsec;
    ms_timer.validate(); // The shortest accepted period; must not exit.
}

TEST(HwDeathTest, FreeingReservedFrameAsserts)
{
    PhysMem mem(8);
    EXPECT_DEATH(mem.freeFrame(0), "assertion");
}

TEST(HwDeathTest, ExhaustedPhysMemPanics)
{
    PhysMem mem(4);
    for (int i = 0; i < 3; ++i)
        mem.allocFrame();
    EXPECT_DEATH(mem.allocFrame(), "out of physical frames");
}

TEST(MachineConfigTest, DefaultsAreValid)
{
    MachineConfig config;
    config.validate(); // Must not exit.
    SUCCEED();
}

} // namespace
} // namespace mach::hw
