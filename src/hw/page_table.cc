#include "hw/page_table.hh"

#include <algorithm>
#include <cstdio>

#include "base/logging.hh"

namespace mach::hw
{

namespace
{
constexpr unsigned kLeafBits = 10;
constexpr unsigned kLeafMask = (1u << kLeafBits) - 1;
constexpr std::uint32_t kRefMod = pte::kRef | pte::kMod;

unsigned
rootIndex(Vpn vpn)
{
    return vpn >> kLeafBits;
}

unsigned
leafIndex(Vpn vpn)
{
    return vpn & kLeafMask;
}
} // namespace

PageTable::PageTable(PhysMem *mem) : mem_(mem)
{
    MACH_ASSERT(mem_ != nullptr);
    root_pfn_ = mem_->allocFrame();
}

PAddr
PageTable::leafBase(unsigned node, unsigned root_index) const
{
    const PAddr root_addr = PAddr{rootOf(node)} << kPageShift;
    const std::uint32_t root =
        mem_->read32(root_addr + root_index * 4);
    if (!pte::valid(root))
        return 0;
    return PAddr{pte::pfn(root)} << kPageShift;
}

PageTable::~PageTable()
{
    collect();
    for (unsigned node = 1; node < replicas(); ++node)
        mem_->freeFrame(rootOf(node));
    mem_->freeFrame(root_pfn_);
}

void
PageTable::enableReplicas(unsigned nodes)
{
    MACH_ASSERT(replica_roots_.empty() && leaf_count_ == 0);
    replica_roots_.reserve(nodes - 1);
    for (unsigned node = 1; node < nodes; ++node)
        replica_roots_.push_back(mem_->allocFrame(node));
}

PAddr
PageTable::rootAddr() const
{
    return root_pfn_ << kPageShift;
}

std::uint32_t
PageTable::rootEntry(Vpn vpn) const
{
    return mem_->read32(rootAddr() + rootIndex(vpn) * 4);
}

WalkResult
PageTable::walk(Vpn vpn, unsigned node) const
{
    if (replica_roots_.empty())
        node = 0;
    WalkResult result;
    const PAddr leaf_base = leafBase(node, rootIndex(vpn));
    result.memory_reads = 1;
    if (leaf_base == 0)
        return result;
    result.leaf_present = true;
    result.pte = mem_->read32(leaf_base + leafIndex(vpn) * 4);
    result.memory_reads = 2;
    return result;
}

bool
PageTable::leafPresent(Vpn vpn) const
{
    return pte::valid(rootEntry(vpn));
}

std::uint32_t
PageTable::readPte(Vpn vpn) const
{
    std::uint32_t value = walk(vpn).pte;
    // Each node's MMU writes ref/mod bits back into its own replica;
    // the authoritative view is the union.
    if (!replica_roots_.empty() && pte::valid(value)) {
        for (unsigned node = 1; node < replicas(); ++node) {
            const std::uint32_t copy = walk(vpn, node).pte;
            if (pte::valid(copy))
                value |= copy & kRefMod;
        }
    }
    return value;
}

PAddr
PageTable::pteAddr(Vpn vpn, unsigned node) const
{
    if (replica_roots_.empty())
        node = 0;
    const PAddr leaf_base = leafBase(node, rootIndex(vpn));
    if (leaf_base == 0)
        return 0;
    return leaf_base + leafIndex(vpn) * 4;
}

void
PageTable::replicaWrite(unsigned node, Vpn vpn, std::uint32_t value)
{
    const PAddr root_addr = PAddr{rootOf(node)} << kPageShift;
    const PAddr slot = root_addr + rootIndex(vpn) * 4;
    std::uint32_t root = mem_->read32(slot);
    if (!pte::valid(root)) {
        if (!pte::valid(value))
            return; // Invalidating an unmapped page: nothing to do.
        const Pfn leaf = mem_->allocFrame(node);
        root = pte::make(leaf, ProtReadWrite);
        mem_->write32(slot, root);
    }
    const PAddr leaf_addr =
        (pte::pfn(root) << kPageShift) + leafIndex(vpn) * 4;
    mem_->write32(leaf_addr, value);
}

void
PageTable::writePte(Vpn vpn, std::uint32_t value)
{
    std::uint32_t root = rootEntry(vpn);
    if (!pte::valid(root)) {
        if (!pte::valid(value)) {
            // Invalidating a page the primary never mapped: the
            // replicas cannot have it either (fan-out is a superset).
            return;
        }
        const Pfn leaf = mem_->allocFrame();
        ++leaf_count_;
        root = pte::make(leaf, ProtReadWrite);
        mem_->write32(rootAddr() + rootIndex(vpn) * 4, root);
    }
    const PAddr leaf_addr =
        (pte::pfn(root) << kPageShift) + leafIndex(vpn) * 4;
    mem_->write32(leaf_addr, value);

    if (replica_roots_.empty())
        return;
    if (deferred_sync_) {
        pending_.emplace_back(vpn, value);
        return;
    }
    for (unsigned node = 1; node < replicas(); ++node)
        replicaWrite(node, vpn, value);
}

void
PageTable::syncReplicas()
{
    for (const auto &[vpn, value] : pending_) {
        for (unsigned node = 1; node < replicas(); ++node)
            replicaWrite(node, vpn, value);
    }
    pending_.clear();
}

std::vector<std::string>
PageTable::replicaDivergence(Vpn start, Vpn end) const
{
    std::vector<std::string> diverged;
    if (replica_roots_.empty() || start >= end)
        return diverged;
    char buf[128];
    // Forward direction: every primary mapping must appear identically
    // (modulo per-node ref/mod bits) in every replica.
    forEachValid(start, end, [&](Vpn vpn, std::uint32_t entry) {
        for (unsigned node = 1; node < replicas(); ++node) {
            const std::uint32_t copy = walk(vpn, node).pte;
            if ((copy & ~kRefMod) == (entry & ~kRefMod))
                continue;
            std::snprintf(buf, sizeof(buf),
                          "replica %u vpn 0x%x holds 0x%08x but the "
                          "primary PTE is 0x%08x",
                          node, vpn, copy, entry);
            diverged.emplace_back(buf);
        }
    });
    // Reverse direction: a replica must not map what the primary does
    // not (e.g. a deferred invalidation that never fanned out).
    for (unsigned node = 1; node < replicas(); ++node) {
        Vpn vpn = start;
        while (vpn < end) {
            const PAddr root_addr = PAddr{rootOf(node)} << kPageShift;
            const std::uint32_t root =
                mem_->read32(root_addr + rootIndex(vpn) * 4);
            if (!pte::valid(root)) {
                const Vpn next = (vpn | kLeafMask) + 1;
                vpn = next > vpn ? next : end;
                continue;
            }
            const PAddr leaf_base = pte::pfn(root) << kPageShift;
            const Vpn leaf_end =
                std::min<Vpn>(end, (vpn | kLeafMask) + 1);
            for (; vpn < leaf_end; ++vpn) {
                const std::uint32_t copy =
                    mem_->read32(leaf_base + leafIndex(vpn) * 4);
                if (!pte::valid(copy) || pte::valid(walk(vpn).pte))
                    continue;
                std::snprintf(buf, sizeof(buf),
                              "replica %u maps vpn 0x%x (0x%08x) but "
                              "the primary does not",
                              node, vpn, copy);
                diverged.emplace_back(buf);
            }
        }
    }
    return diverged;
}

void
PageTable::forEachValid(
    Vpn start, Vpn end,
    const std::function<void(Vpn, std::uint32_t)> &fn) const
{
    Vpn vpn = start;
    while (vpn < end) {
        const std::uint32_t root = rootEntry(vpn);
        if (!pte::valid(root)) {
            // Whole leaf missing: skip to the next leaf boundary.
            const Vpn next = (vpn | kLeafMask) + 1;
            vpn = next > vpn ? next : end;
            continue;
        }
        const PAddr leaf_base = pte::pfn(root) << kPageShift;
        const Vpn leaf_end = std::min<Vpn>(end, (vpn | kLeafMask) + 1);
        for (; vpn < leaf_end; ++vpn) {
            const std::uint32_t entry =
                mem_->read32(leaf_base + leafIndex(vpn) * 4);
            if (pte::valid(entry))
                fn(vpn, entry);
        }
    }
}

unsigned
PageTable::countValid(Vpn start, Vpn end) const
{
    unsigned count = 0;
    forEachValid(start, end,
                 [&count](Vpn, std::uint32_t) { ++count; });
    return count;
}

void
PageTable::collectReplica(unsigned node)
{
    const PAddr root_addr = PAddr{rootOf(node)} << kPageShift;
    for (unsigned index = 0; index < kEntriesPerTable; ++index) {
        const PAddr slot = root_addr + index * 4;
        const std::uint32_t root = mem_->read32(slot);
        if (!pte::valid(root))
            continue;
        mem_->freeFrame(pte::pfn(root));
        mem_->write32(slot, 0);
    }
}

void
PageTable::collect()
{
    pending_.clear();
    for (unsigned index = 0; index < kEntriesPerTable; ++index) {
        const PAddr slot = rootAddr() + index * 4;
        const std::uint32_t root = mem_->read32(slot);
        if (!pte::valid(root))
            continue;
        mem_->freeFrame(pte::pfn(root));
        mem_->write32(slot, 0);
        --leaf_count_;
    }
    MACH_ASSERT(leaf_count_ == 0);
    for (unsigned node = 1; node < replicas(); ++node)
        collectReplica(node);
}

} // namespace mach::hw
