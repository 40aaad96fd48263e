/**
 * @file
 * Page-fault resolution and the pageout daemon.
 *
 * The fault handler is where pmaps get lazily populated: the VM system
 * never calls pmap::enter anywhere else, so a pmap reflects exactly the
 * pages a task has touched -- the property the shootdown algorithm's
 * lazy-evaluation check exploits (Section 4).
 */

#include <algorithm>

#include "base/logging.hh"
#include "obs/probe.hh"
#include "vm/kernel.hh"

namespace mach::vm
{

namespace
{

/**
 * Track for spans that must follow @p thread across migrations (faults
 * sleep on pageins and can resume on another CPU): one lazily-created
 * per-thread track, named after the thread.
 */
obs::TrackId
threadTrack(obs::Recorder &rec, kern::Thread &thread)
{
    if (thread.obs_track_id == obs::kNoTrack)
        thread.obs_track_id =
            rec.defineTrack("thread:" + thread.name());
    return thread.obs_track_id;
}

} // namespace

bool
Kernel::resolveSpace(kern::Thread &thread, VAddr va, VmMap **map,
                     pmap::Pmap **pmap)
{
    if (va >= kern::Machine::kKernelBase) {
        *map = &kernel_map_;
        *pmap = &pmap_sys_->kernelPmap();
        return true;
    }
    Task *task = thread.task();
    if (task == nullptr)
        return false;
    *map = &task->map();
    *pmap = &task->pmap();
    return true;
}

bool
Kernel::handleFault(kern::Thread &thread, VAddr va, Prot want)
{
    VmMap *map = nullptr;
    pmap::Pmap *pmap = nullptr;
    if (!resolveSpace(thread, va, &map, &pmap)) {
        ++faults_failed;
        return false;
    }

    obs::Recorder &rec = machine_->recorder();
    obs::Probe fault_probe(rec, obs::kVmFault,
                           rec.enabled() ? threadTrack(rec, thread) : 0,
                           thread.obs_request, obs::Arg{"va", va});

    thread.cpu().advance(hw::kFaultBaseCost);

    // Kernel (trap) entry runs a short stretch with interrupts masked;
    // these leaf critical sections never initiate shootdowns, so they
    // can safely mask the shootdown IPI -- and on baseline hardware
    // they are part of why kernel shootdowns are slower and more
    // skewed than user ones (Section 8).
    kernelSection(thread,
                  40 * kUsec +
                      Tick(machine_->rng().exponential(60.0) * kUsec));

    map->lock().lockRead(thread);
    const bool ok = faultLocked(thread, *map, *pmap, va, want);
    map->lock().unlockRead(thread);

    if (ok)
        ++faults_resolved;
    else
        ++faults_failed;
    return ok;
}

Pfn
Kernel::allocPlacedFrame(kern::Thread &thread, std::uint32_t key)
{
    if (machine_->numaNodes() < 2)
        return machine_->mem().allocFrame();
    unsigned node = thread.cpu().node(); // First-touch (and Migrate).
    if (machine_->cfg().numa_placement ==
        hw::PlacementPolicy::Interleave) {
        node = key % machine_->numaNodes();
    }
    return machine_->mem().allocFrame(node);
}

void
Kernel::migratePage(kern::Thread &thread, VmPage &page,
                    unsigned to_node)
{
    // The pageout steal, aimed at another node instead of the disk:
    // mark the page busy, shoot every mapping of the old frame out of
    // every TLB, copy, then swap the frame under the page.
    page.busy = true;
    const Pfn old = page.pfn;
    pmap::Pmap::pageProtect(*pmap_sys_, thread, old, ProtNone);
    const Pfn fresh = machine_->mem().allocFrame(to_node);
    machine_->mem().copyFrame(fresh, old);
    kernelSection(thread, hw::kPageCopyCost);
    page.pfn = fresh;
    page.remote_faults = 0;
    machine_->mem().freeFrame(old);
    page.busy = false;
    ++page_migrations;

    obs::Recorder &rec = machine_->recorder();
    if (rec.enabled()) {
        rec.instant(rec.cpuTrack(thread.cpu().id()), obs::kVmMigrate,
                    obs::Arg{"pfn", fresh},
                    obs::Arg{"to_node", to_node});
    }
}

void
Kernel::notePlacement(kern::Thread &thread, VmPage &page)
{
    if (machine_->numaNodes() < 2)
        return;
    const unsigned here = thread.cpu().node();
    if (machine_->mem().nodeOfPfn(page.pfn) == here) {
        ++local_faults;
        return;
    }
    ++remote_faults;
    if (machine_->cfg().numa_placement ==
            hw::PlacementPolicy::Migrate &&
        !page.wired && !page.busy &&
        ++page.remote_faults >= machine_->cfg().numa_migrate_threshold) {
        migratePage(thread, page, here);
    }
}

bool
Kernel::faultLocked(kern::Thread &thread, VmMap &map, pmap::Pmap &pmap,
                    VAddr va, Prot want)
{
    const hw::MachineConfig &cfg = machine_->cfg();
    const bool write = protAllows(want, ProtWrite);

    for (int tries = 0; tries < 64; ++tries) {
        VmMapEntry *entry = map.lookup(va);
        if (entry == nullptr || !protAllows(entry->cur_prot, want))
            return false; // Unrecoverable: no mapping or no rights.

        const std::uint32_t entry_page =
            (va - entry->start) >> kPageShift;
        std::uint32_t offset = entry->offset + entry_page;
        PageLookup found = entry->object->lookupChain(offset);

        if (found.page != nullptr && found.page->busy) {
            // Pageout in transit: wait for it to complete, then retry.
            map.lock().unlockRead(thread);
            thread.sleep(5 * kMsec);
            map.lock().lockRead(thread);
            continue;
        }

        // Pending copy-on-write: interpose a shadow object before a
        // write, or before instantiating a fresh page (a fresh page in
        // the shared backing object would leak into the other map).
        if (entry->needs_copy && (write || found.page == nullptr)) {
            entry->object = VmObject::makeShadow(
                entry->object, entry->offset, entry->sizePages());
            entry->offset = 0;
            entry->needs_copy = false;
            thread.cpu().advance(40 * kUsec);
            offset = entry_page;
            found = entry->object->lookupChain(offset);
        }

        VmObject *top = entry->object.get();
        Prot grant = entry->cur_prot;
        VmPage *page = nullptr;

        if (found.page != nullptr) {
            thread.cpu().advance(30 * kUsec + found.depth * 15 * kUsec);
            if (found.depth == 0) {
                page = found.page;
                if (entry->needs_copy) {
                    // Read fault through a pending copy: share the page
                    // read-only so a later write still faults.
                    grant = ProtRead;
                }
            } else if (write) {
                // Copy-on-write resolution: pull a private copy up into
                // the top object.
                const Pfn copy = allocPlacedFrame(thread, offset);
                machine_->mem().copyFrame(copy, found.page->pfn);
                // The page copy runs at splvm (interrupts masked).
                kernelSection(thread, hw::kPageCopyCost);
                if (top->lookupLocal(offset) != nullptr) {
                    // A concurrent fault on another processor resolved
                    // this page while we copied; use its result.
                    machine_->mem().freeFrame(copy);
                    continue;
                }
                page = top->insertPage(offset, copy);
                notePageable(entry->object, offset);
                ++cow_copies;
            } else {
                // Read through the chain: map the backing page with
                // write access withheld so the first write copies.
                page = found.page;
                grant = ProtRead;
            }
        } else {
            // Absent everywhere: pagein from backing store or zero-fill.
            ObjectPtr bottom = entry->object;
            std::uint32_t bottom_offset = offset;
            while (bottom->shadowRef() != nullptr) {
                bottom_offset += bottom->shadowOffset();
                bottom = bottom->shadowRef();
            }
            if (pager_->contains(bottom->id(), bottom_offset)) {
                // Pagein: drop the map lock across the I/O.
                map.lock().unlockRead(thread);
                thread.sleep(cfg.pagein_latency);
                map.lock().lockRead(thread);
                // Revalidate: the world may have changed while asleep.
                if (pager_->contains(bottom->id(), bottom_offset) &&
                    bottom->lookupLocal(bottom_offset) == nullptr) {
                    const Pfn frame =
                        allocPlacedFrame(thread, bottom_offset);
                    pager_->pageIn(bottom->id(), bottom_offset, frame);
                    bottom->insertPage(bottom_offset, frame);
                    notePageable(bottom, bottom_offset);
                }
                continue; // Retry the whole lookup.
            }

            const Pfn frame = allocPlacedFrame(thread, offset);
            // Zero-filling runs at splvm (interrupts masked).
            kernelSection(thread, hw::kZeroFillCost);
            if (top->lookupLocal(offset) != nullptr) {
                // Lost a race with a concurrent zero-fill fault.
                machine_->mem().freeFrame(frame);
                continue;
            }
            page = top->insertPage(offset, frame);
            ++zero_fills;
            if (&map == &kernel_map_) {
                // Kernel memory is wired: the pageout daemon must never
                // steal it.
                page->wired = true;
            } else {
                notePageable(entry->object, offset);
            }
        }

        notePlacement(thread, *page);
        pmap.enter(thread, vaToVpn(va), page->pfn, grant);
        return true;
    }
    panic("vm_fault: page stayed busy/absent at va 0x%08x", va);
}

// ---------------------------------------------------------------------
// Pageout
// ---------------------------------------------------------------------

void
Kernel::notePageable(const ObjectPtr &object, std::uint32_t offset)
{
    if (pageout_enabled_)
        pageable_.push_back({object, offset});
    else
        pageable_skipped_ = true;
}

void
Kernel::enablePageout()
{
    if (pageout_enabled_)
        return;
    if (pageable_skipped_) {
        fatal("Kernel::enablePageout: a pageable page already exists; "
              "enable pageout before the workload touches memory");
    }
    pageout_enabled_ = true;
    spawnThread(nullptr, "pageout",
                [this](kern::Thread &self) { pageoutDaemon(self); });
}

void
Kernel::pageoutDaemon(kern::Thread &self)
{
    const hw::MachineConfig &cfg = machine_->cfg();
    for (;;) {
        if (machine_->mem().freeFrames() >= cfg.pageout_low_frames ||
            pageable_.empty()) {
            self.sleep(50 * kMsec);
            continue;
        }

        PageRef ref = pageable_.front();
        pageable_.pop_front();
        ObjectPtr object = ref.object.lock();
        if (object == nullptr)
            continue; // Object died; nothing to steal.
        VmPage *page = object->lookupLocal(ref.offset);
        if (page == nullptr || page->wired || page->busy)
            continue;

        // Steal the page: mark it busy, invalidate every mapping of
        // the frame (a shootdown source -- "even basic virtual memory
        // management functions such as pagein and pageout will not work
        // correctly unless the TLBs of all CPUs have the same image of
        // the current state of a physical page", Section 1), then write
        // it to backing store and free the frame.
        page->busy = true;
        const Pfn pfn = page->pfn;
        pmap::Pmap::pageProtect(*pmap_sys_, self, pfn, ProtNone);
        pager_->pageOut(object->id(), ref.offset, pfn);
        self.sleep(cfg.pageout_latency);
        object->removePage(ref.offset);
        machine_->mem().freeFrame(pfn);
    }
}

} // namespace mach::vm
