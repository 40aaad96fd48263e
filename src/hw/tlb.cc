#include "hw/tlb.hh"

#include <algorithm>

#include "base/logging.hh"
#include "obs/probe.hh"

namespace mach::hw
{

namespace
{

std::uint32_t
nextPow2(std::uint32_t v)
{
    std::uint32_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

Tlb::Tlb(const MachineConfig *config, PhysMem *mem,
         unsigned entry_override)
    : config_(config), mem_(mem),
      entries_(entry_override != 0 ? entry_override
                                   : config->tlb_entries),
      assoc_(entry_override != 0 ? 0 : config->tlb_associativity)
{
    l0_size_ = std::min(config->tlb_l0_entries, kL0MaxEntries);
    for (L0Slot &slot : l0_)
        slot = {kNoL0Key, 0};
    if (setAssociative()) {
        MACH_ASSERT(entries_.size() % assoc_ == 0);
        set_victims_.assign(entries_.size() / assoc_, 0);
    } else {
        // 4x the entry count keeps the open-addressed index under 25%
        // occupancy right after a rebuild, so probe chains stay short.
        const std::uint32_t capacity = nextPow2(std::max(
            64u, 4 * static_cast<unsigned>(entries_.size())));
        index_.assign(capacity, kEmptySlot);
        index_mask_ = capacity - 1;
    }
}

std::uint64_t
Tlb::hashKey(SpaceId space, Vpn vpn)
{
    std::uint64_t k =
        (static_cast<std::uint64_t>(space) << 32) ^ vpn;
    k *= 0x9E3779B97F4A7C15ull;
    k ^= k >> 29;
    return k;
}

bool
Tlb::entryLive(const TlbEntry &entry) const
{
    return entry.valid && entry.gen == gen_ &&
           entry.space_gen == space_states_[entry.space_slot].flush_gen;
}

unsigned
Tlb::spaceLive(std::uint32_t slot) const
{
    const SpaceState &st = space_states_[slot];
    return st.seen_gen == gen_ ? st.live : 0;
}

Tlb::SpaceState &
Tlb::touchSpace(std::uint32_t slot)
{
    SpaceState &st = space_states_[slot];
    if (st.seen_gen != gen_) {
        // The whole buffer was flushed since this count was maintained;
        // every entry it counted is dead. Normalize lazily.
        st.seen_gen = gen_;
        st.live = 0;
    }
    return st;
}

std::uint32_t
Tlb::spaceSlot(SpaceId space)
{
    const auto [it, inserted] = space_index_.try_emplace(
        space, static_cast<std::uint32_t>(space_states_.size()));
    if (inserted)
        space_states_.emplace_back();
    return it->second;
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
    // L0 fast path: a populated slot is live by invariant (every
    // retire/flush path clears the matching slots), so a key match is
    // the whole probe -- no hashing, no generation checks.
    const std::uint64_t key = l0Key(space, vpn);
    for (unsigned i = 0; i < l0_size_; ++i) {
        if (l0_[i].key == key) {
            ++l0_hits;
            return &entries_[l0_[i].entry];
        }
    }
    // Negative fast path: a key that just missed cannot have appeared
    // since (only fillEntry adds live entries, and it clears the memo).
    // Covers the second probe of every lookup-miss + insert pair.
    if (key == last_miss_key_)
        return nullptr;
    if (l0_size_ != 0)
        ++l0_misses;
    if (live_count_ == 0) {
        last_miss_key_ = key;
        return nullptr;
    }
    if (setAssociative()) {
        const unsigned ways = assoc_;
        const std::size_t set =
            hashKey(space, vpn) % set_victims_.size();
        TlbEntry *base = &entries_[set * ways];
        for (unsigned way = 0; way < ways; ++way) {
            TlbEntry &entry = base[way];
            if (entryLive(entry) && entry.space == space &&
                entry.vpn == vpn) {
                if (fill_l0) {
                    l0Fill(key, static_cast<std::uint32_t>(
                                    &entry - entries_.data()));
                }
                return &entry;
            }
        }
        last_miss_key_ = key;
        return nullptr;
    }
    std::uint32_t slot =
        static_cast<std::uint32_t>(hashKey(space, vpn)) & index_mask_;
    for (;; slot = (slot + 1) & index_mask_) {
        const std::uint32_t ei = index_[slot];
        if (ei == kEmptySlot) {
            last_miss_key_ = key;
            return nullptr;
        }
        TlbEntry &entry = entries_[ei];
        // Stale slots (retired, evicted, or epoch-flushed entries)
        // stay in the chain as tombstones; probe past them.
        if (entryLive(entry) && entry.space == space &&
            entry.vpn == vpn) {
            if (fill_l0)
                l0Fill(key, ei);
            return &entry;
        }
    }
}

const TlbEntry *
Tlb::find(SpaceId space, Vpn vpn) const
{
    return const_cast<Tlb *>(this)->find(space, vpn);
}

void
Tlb::indexInsert(std::uint32_t entry_index)
{
    const TlbEntry &entry = entries_[entry_index];
    std::uint32_t slot =
        static_cast<std::uint32_t>(hashKey(entry.space, entry.vpn)) &
        index_mask_;
    for (;; slot = (slot + 1) & index_mask_) {
        const std::uint32_t ei = index_[slot];
        if (ei == kEmptySlot) {
            index_[slot] = entry_index;
            // Claiming a virgin slot shrinks the empty margin that
            // terminates probes; rebuild before chains degenerate.
            // Half occupancy keeps unsuccessful probes (the common
            // case under churn: every miss walks to an empty slot)
            // to a couple of steps, and a rebuild costs only a few
            // ns amortized per insert at this trip point.
            if (++index_used_ * 2 > index_.size())
                rebuildIndex();
            return;
        }
        if (!entryLive(entries_[ei])) {
            // Recycle a tombstone in this key's own probe chain; the
            // chain stays contiguous for every key probing through it.
            index_[slot] = entry_index;
            return;
        }
        // A live entry's slot: the caller guarantees our key is not
        // cached, so this is some other key. Keep probing.
    }
}

void
Tlb::rebuildIndex()
{
    index_.assign(index_.size(), kEmptySlot);
    index_used_ = 0;
    for (std::uint32_t ei = 0; ei < entries_.size(); ++ei) {
        if (!entryLive(entries_[ei]))
            continue;
        std::uint32_t slot = static_cast<std::uint32_t>(hashKey(
                                 entries_[ei].space,
                                 entries_[ei].vpn)) &
                             index_mask_;
        while (index_[slot] != kEmptySlot)
            slot = (slot + 1) & index_mask_;
        index_[slot] = ei;
        ++index_used_;
    }
}

void
Tlb::retireEntry(TlbEntry &entry)
{
    if (entryLive(entry)) {
        SpaceState &st = touchSpace(entry.space_slot);
        MACH_ASSERT(st.live > 0);
        MACH_ASSERT(live_count_ > 0);
        --st.live;
        --live_count_;
    } else {
        // Only the planted PlantedBug::SkipL0Invalidate bug can route a
        // retire to an entry that already left the live set (a stale
        // L0 slot serving a dead entry to find()); the liveness
        // accounting must not double-decrement for it. With L0
        // maintenance intact every caller holds a live entry.
        MACH_ASSERT(config_->planted_bug == PlantedBug::SkipL0Invalidate);
    }
    entry.valid = false;
    // Single chokepoint for page invalidations, range invalidations,
    // interlocked-writeback retirements, and insert evictions: the L0
    // must never serve an entry that left the live set.
    l0ClearKey(l0Key(entry.space, entry.vpn));
}

void
Tlb::fillEntry(TlbEntry &entry, SpaceId space, Vpn vpn, Pfn pfn,
               Prot prot, bool mod)
{
    const std::uint32_t slot = spaceSlot(space);
    SpaceState &st = touchSpace(slot);
    entry.valid = true;
    entry.space = space;
    entry.vpn = vpn;
    entry.pfn = pfn;
    entry.prot = prot;
    entry.ref = true;
    entry.mod = mod;
    entry.gen = gen_;
    entry.space_gen = st.flush_gen;
    entry.space_slot = slot;
    ++st.live;
    ++live_count_;
    const std::uint32_t entry_index =
        static_cast<std::uint32_t>(&entry - entries_.data());
    if (!setAssociative())
        indexInsert(entry_index);
    l0Fill(l0Key(space, vpn), entry_index);
    // The only place a missing key can become live: drop the memo.
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
        if (!entryLive(*entry)) {
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
        if (config_->tlb_interlocked_refmod && pte_addr != 0) {
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
            if (!config_->tlb_no_refmod_writeback && pte_addr != 0) {
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
        // Refresh in place; liveness bookkeeping is already counted.
        entry->pfn = pfn;
        entry->prot = prot;
        entry->ref = true;
        entry->mod = mod;
        return;
    }
    if (setAssociative()) {
        const unsigned ways = assoc_;
        const std::size_t set =
            hashKey(space, vpn) % set_victims_.size();
        entry = &entries_[set * ways + set_victims_[set]];
        set_victims_[set] = (set_victims_[set] + 1) % ways;
    } else {
        // Blind global round-robin, exactly as the original flat
        // Multimax model: the victim cursor advances whether or not
        // the victim slot held a live entry.
        entry = &entries_[next_victim_];
        next_victim_ = (next_victim_ + 1) % entries_.size();
    }
    if (entryLive(*entry))
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
    if (live_count_ == 0)
        return;
    if (static_cast<std::uint64_t>(end) - start >= entries_.size()) {
        // Range as wide as the buffer (virtual-cache directory sweeps,
        // span invalidations): one pass over the array beats probing
        // every vpn.
        for (auto &entry : entries_) {
            if (entryLive(entry) && entry.space == space &&
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
    const auto it = space_index_.find(space);
    if (it == space_index_.end())
        return;
    SpaceState &st = touchSpace(it->second);
    MACH_ASSERT(live_count_ >= st.live);
    const unsigned died = st.live;
    live_count_ -= st.live;
    st.live = 0;
    // Entries filled under the old space generation are now dead; no
    // scan needed. Any lazily deferred flush is subsumed by this one.
    ++st.flush_gen;
    st.deferred = false;
    l0ClearSpace(space);
    // A bulk flush turns a big slice of the index into tombstones at
    // once; every later miss would probe through them until the next
    // occupancy-triggered rebuild. Rebuilding now is cheaper than the
    // chains (host-side policy only; pure simulated state is above).
    if (!setAssociative() && died * 8 >= entries_.size())
        rebuildIndex();
}

void
Tlb::flushAll()
{
    if (obs_ != nullptr && obs_->enabled()) {
        obs_->instant(obs_track_, obs::kTlbFlushAll,
                      obs::Arg{"live", live_count_});
    }
    ++flushes;
    ++full_flushes;
    // One generation bump kills every entry; per-space counts are
    // normalized lazily the next time each space is touched.
    ++gen_;
    live_count_ = 0;
    l0ClearAll();
    // Every index slot is now a tombstone; empty the index so misses
    // terminate on first probe instead of walking dead chains.
    if (!setAssociative()) {
        index_.assign(index_.size(), kEmptySlot);
        index_used_ = 0;
    }
}

void
Tlb::deferFlush(SpaceId space)
{
    space_states_[spaceSlot(space)].deferred = true;
}

bool
Tlb::consumeDeferredFlush(SpaceId space)
{
    const auto it = space_index_.find(space);
    if (it == space_index_.end() ||
        !space_states_[it->second].deferred)
        return false;
    // flushSpace clears the deferred flag itself.
    flushSpace(space);
    return true;
}

bool
Tlb::hasDeferredFlush(SpaceId space) const
{
    const auto it = space_index_.find(space);
    return it != space_index_.end() &&
           space_states_[it->second].deferred;
}

bool
Tlb::cachesSpace(SpaceId space) const
{
    const auto it = space_index_.find(space);
    if (it == space_index_.end())
        return false;
    return spaceLive(it->second) > 0;
}

bool
Tlb::cachesMapping(SpaceId space, Vpn vpn, Prot prot) const
{
    const TlbEntry *entry = find(space, vpn);
    return entry && protAllows(entry->prot, prot);
}

const std::vector<TlbEntry> &
Tlb::entries() const
{
    // Reconcile the valid bits with the generation tags so white-box
    // inspectors (audits, tests) see the same array an eager-flush
    // implementation would have produced. Cold path only.
    auto *self = const_cast<Tlb *>(this);
    for (TlbEntry &entry : self->entries_) {
        if (entry.valid && !entryLive(entry))
            entry.valid = false;
    }
    return entries_;
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
