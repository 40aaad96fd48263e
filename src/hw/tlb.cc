#include "hw/tlb.hh"

#include <algorithm>

#include "base/logging.hh"
#include "obs/probe.hh"

namespace mach::hw
{

Tlb::Tlb(const MachineConfig *config, PhysMem *mem,
         unsigned entry_override)
    : config_(config), mem_(mem),
      entries_(entry_override != 0 ? entry_override
                                   : config->tlb_entries)
{
    l0_size_ = std::min(config->tlb_l0_entries, kL0MaxEntries);
    for (L0Slot &slot : l0_)
        slot = {kNoL0Key, 0};
}

void
Tlb::l0Fill(std::uint64_t key, std::uint32_t entry_index)
{
    if (l0_size_ == 0)
        return;
    l0_[l0_fill_] = {key, entry_index};
    if (++l0_fill_ >= l0_size_)
        l0_fill_ = 0;
}

void
Tlb::l0ClearKey(std::uint64_t key)
{
    if (config_->planted_bug == PlantedBug::SkipL0Invalidate)
        return;
    for (unsigned i = 0; i < l0_size_; ++i) {
        if (l0_[i].key == key)
            l0_[i].key = kNoL0Key;
    }
}

void
Tlb::l0ClearSpace(SpaceId space)
{
    if (config_->planted_bug == PlantedBug::SkipL0Invalidate)
        return;
    for (unsigned i = 0; i < l0_size_; ++i) {
        if ((l0_[i].key >> 32) == space)
            l0_[i].key = kNoL0Key;
    }
}

void
Tlb::l0ClearAll()
{
    if (config_->planted_bug == PlantedBug::SkipL0Invalidate)
        return;
    for (unsigned i = 0; i < l0_size_; ++i)
        l0_[i].key = kNoL0Key;
}

TlbEntry *
Tlb::find(SpaceId space, Vpn vpn, bool fill_l0)
{
    // L0 fast path: a populated slot is valid by invariant (every
    // retire/flush path clears the matching slots), so a key match is
    // the whole probe.
    const std::uint64_t key = l0Key(space, vpn);
    for (unsigned i = 0; i < l0_size_; ++i) {
        if (l0_[i].key == key) {
            ++l0_hits;
            return &entries_[l0_[i].entry];
        }
    }
    // Negative fast path: a key that just missed cannot have appeared
    // since (only fillEntry adds valid entries, and it clears the memo).
    // Covers the second probe of every lookup-miss + insert pair.
    if (key == last_miss_key_)
        return nullptr;
    if (l0_size_ != 0)
        ++l0_misses;
    for (std::uint32_t i = 0; i < entries_.size(); ++i) {
        TlbEntry &entry = entries_[i];
        if (entry.valid && entry.vpn == vpn && entry.space == space) {
            if (fill_l0)
                l0Fill(key, i);
            return &entry;
        }
    }
    last_miss_key_ = key;
    return nullptr;
}

void
Tlb::retireEntry(TlbEntry &entry)
{
    if (entry.valid) {
        MACH_ASSERT(valid_count_ > 0);
        --valid_count_;
    } else {
        // Only the planted PlantedBug::SkipL0Invalidate bug can route a
        // retire to an entry that is already invalid (a stale L0 slot
        // serving a dead entry to find()); the count must not be
        // decremented twice for it. With L0 maintenance intact every
        // caller holds a valid entry.
        MACH_ASSERT(config_->planted_bug == PlantedBug::SkipL0Invalidate);
    }
    entry.valid = false;
    // Single chokepoint for page invalidations, range invalidations,
    // interlocked-writeback retirements, and insert evictions: the L0
    // must never serve an entry that stopped being valid.
    l0ClearKey(l0Key(entry.space, entry.vpn));
}

void
Tlb::fillEntry(TlbEntry &entry, SpaceId space, Vpn vpn, Pfn pfn,
               Prot prot, bool mod)
{
    entry = {true, space, vpn, pfn, prot, /*ref=*/true, mod};
    ++valid_count_;
    l0Fill(l0Key(space, vpn),
           static_cast<std::uint32_t>(&entry - entries_.data()));
    // The only place a missing key can become valid: drop the memo.
    last_miss_key_ = kNoL0Key;
}

TlbLookup
Tlb::lookup(SpaceId space, Vpn vpn, Prot want, PAddr pte_addr)
{
    TlbLookup result;
    TlbEntry *entry = find(space, vpn);
    if (!entry) {
        ++misses;
        return result;
    }

    ++hits;
    result.hit = true;
    result.pfn = entry->pfn;
    result.prot_ok = protAllows(entry->prot, want);
    if (!result.prot_ok) {
        if (!entry->valid) {
            // A populated L0 slot over a dead entry is reachable only
            // when the planted bug suppressed the L0 maintenance. When
            // the stale rights also deny the access, report a miss so
            // the reload path re-walks and refreshes this entry with
            // the current PTE image -- otherwise the faulting access
            // retries against the same stale rights forever. (When the
            // stale rights suffice, the entry is served as-is: that
            // stale window is exactly the hazard the checker hunts.)
            MACH_ASSERT(config_->planted_bug == PlantedBug::SkipL0Invalidate);
            result.hit = false;
        }
        return result;
    }

    // Hardware maintenance of reference/modify bits. On the first write
    // through a cached entry the baseline TLB writes its image of the
    // PTE back to memory -- blindly, without revalidating it against the
    // current page-table contents. This is the writeback hazard of
    // Section 3: if a pmap update is in flight and the responder has not
    // been stalled, this store can clobber the new PTE.
    const bool write = protAllows(want, ProtWrite);
    entry->ref = true;
    if (write && !entry->mod) {
        if (config_->tlb_refmod == TlbRefmod::Interlocked &&
            pte_addr != 0) {
            // MC88200-style interlocked update: re-read the PTE, check
            // that the mapping is still valid (and still writable --
            // "the read data must be checked in all cases for mapping
            // validity"), and OR the bits in rather than overwriting.
            const std::uint32_t current = mem_->read32(pte_addr);
            if (!pte::valid(current) || !pte::writable(current) ||
                pte::pfn(current) != entry->pfn) {
                // The mapping changed underneath the cached entry: the
                // access must fault instead of completing.
                retireEntry(*entry);
                result.hit = false;
                result.prot_ok = false;
                return result;
            }
            mem_->write32(pte_addr,
                          current | pte::kRef | pte::kMod);
            entry->mod = true;
            ++writebacks;
            result.did_writeback = true;
        } else {
            entry->mod = true;
            if (config_->tlb_refmod == TlbRefmod::Writeback &&
                pte_addr != 0) {
                mem_->write32(pte_addr,
                              pte::make(entry->pfn, entry->prot,
                                        entry->ref, entry->mod));
                ++writebacks;
                result.did_writeback = true;
            }
        }
    }
    return result;
}

void
Tlb::insert(SpaceId space, Vpn vpn, Pfn pfn, Prot prot, bool mod)
{
    TlbEntry *entry = find(space, vpn);
    if (entry) {
        // Refresh in place; the entry is already counted.
        entry->pfn = pfn;
        entry->prot = prot;
        entry->ref = true;
        entry->mod = mod;
        return;
    }
    // Blind global round-robin, exactly as the original flat Multimax
    // model: the victim cursor advances whether or not the victim slot
    // held a valid entry.
    entry = &entries_[next_victim_];
    next_victim_ = (next_victim_ + 1) % entries_.size();
    if (entry->valid)
        retireEntry(*entry);
    fillEntry(*entry, space, vpn, pfn, prot, mod);
}

void
Tlb::invalidatePage(SpaceId space, Vpn vpn)
{
    if (TlbEntry *entry = find(space, vpn, /*fill_l0=*/false)) {
        retireEntry(*entry);
        ++single_invalidates;
    }
}

void
Tlb::invalidateRange(SpaceId space, Vpn start, Vpn end)
{
    if (obs_ != nullptr && obs_->enabled()) {
        obs_->instant(obs_track_, obs::kTlbInvalidateRange,
                      obs::Arg{"npages", end - start});
    }
    if (valid_count_ == 0)
        return;
    if (static_cast<std::uint64_t>(end) - start >= entries_.size()) {
        // Range as wide as the buffer (virtual-cache directory sweeps,
        // span invalidations): one pass over the array beats probing
        // every vpn.
        for (TlbEntry &entry : entries_) {
            if (entry.valid && entry.space == space &&
                entry.vpn >= start && entry.vpn < end) {
                retireEntry(entry);
                ++single_invalidates;
            }
        }
        return;
    }
    for (Vpn vpn = start; vpn < end; ++vpn)
        invalidatePage(space, vpn);
}

void
Tlb::flushSpace(SpaceId space)
{
    if (obs_ != nullptr && obs_->enabled()) {
        obs_->instant(obs_track_, obs::kTlbFlushSpace,
                      obs::Arg{"space", space});
    }
    ++flushes;
    // Any lazily deferred flush is subsumed by this one.
    deferred_.erase(space);
    if (valid_count_ == 0)
        return;
    for (TlbEntry &entry : entries_) {
        if (entry.valid && entry.space == space) {
            entry.valid = false;
            --valid_count_;
        }
    }
    l0ClearSpace(space);
}

void
Tlb::flushAll()
{
    if (obs_ != nullptr && obs_->enabled()) {
        obs_->instant(obs_track_, obs::kTlbFlushAll,
                      obs::Arg{"live", valid_count_});
    }
    ++flushes;
    ++full_flushes;
    if (valid_count_ == 0)
        return;
    for (TlbEntry &entry : entries_)
        entry.valid = false;
    valid_count_ = 0;
    l0ClearAll();
}

bool
Tlb::consumeDeferredFlush(SpaceId space)
{
    if (!deferred_.contains(space))
        return false;
    // flushSpace clears the deferral itself.
    flushSpace(space);
    return true;
}

bool
Tlb::cachesSpace(SpaceId space) const
{
    return std::any_of(entries_.begin(), entries_.end(),
                       [&](const TlbEntry &entry) {
                           return entry.valid && entry.space == space;
                       });
}

bool
Tlb::cachesMapping(SpaceId space, Vpn vpn, Prot prot) const
{
    return std::any_of(entries_.begin(), entries_.end(),
                       [&](const TlbEntry &entry) {
                           return entry.valid && entry.space == space &&
                                  entry.vpn == vpn &&
                                  protAllows(entry.prot, prot);
                       });
}

std::vector<TlbEntry>
Tlb::l0Translations() const
{
    std::vector<TlbEntry> out;
    for (unsigned i = 0; i < l0_size_; ++i) {
        if (l0_[i].key == kNoL0Key)
            continue;
        // Exactly what an L0 hit on this key would serve: the slot's
        // key with the backing entry's translation, unconditionally
        // valid (the L0 never revalidates).
        TlbEntry entry = entries_[l0_[i].entry];
        entry.valid = true;
        entry.space = static_cast<SpaceId>(l0_[i].key >> 32);
        entry.vpn = static_cast<Vpn>(l0_[i].key & 0xffffffffu);
        out.push_back(entry);
    }
    return out;
}

} // namespace mach::hw
