#include "vm/kernel.hh"

#include <algorithm>
#include <cstring>

#include "base/logging.hh"
#include "pmap/shootdown.hh"

namespace mach::vm
{

Kernel::Kernel(const hw::MachineConfig &config)
    : kernel_map_("kernel", kern::Machine::kKernelBase,
                  kern::Machine::kKernelHi)
{
    machine_ = std::make_unique<kern::Machine>(config, *this);
    pmap_sys_ = std::make_unique<pmap::PmapSystem>(*machine_);
    io_ = std::make_unique<kern::IoDevice>(machine_.get());
    pager_ = std::make_unique<DefaultPager>(&machine_->mem());

    // DMA-capable devices: each gets a responder id past the CPUs and
    // enrolls its IOTLB in the shootdown protocol. With devices == 0
    // (the default) nothing here runs and the machine is bit-identical
    // to the device-less build.
    devices_.reserve(config.devices);
    for (unsigned i = 0; i < config.devices; ++i) {
        devices_.push_back(std::make_unique<dev::DmaDevice>(
            *machine_, *pmap_sys_, i));
        pmap_sys_->shoot().registerResponder(devices_.back().get());
    }
}

Kernel::~Kernel()
{
    // Tasks reference the pmap system; tear them down first.
    tasks_.clear();
}

void
Kernel::start()
{
    machine_->sched().start();
    machine_->startTimers();
}

kern::Thread *
Kernel::spawnThread(Task *task, std::string name,
                    kern::Thread::Body body, std::int64_t pin)
{
    return machine_->sched().spawn(task, std::move(name),
                                   std::move(body), pin);
}

Task *
Kernel::createTask(std::string name)
{
    tasks_.push_back(std::make_unique<Task>(this, std::move(name)));
    return tasks_.back().get();
}

Task *
Kernel::forkTask(kern::Thread &thread, Task &parent, std::string name)
{
    Task *child = createTask(std::move(name));

    parent.map().lock().lockWrite(thread);
    thread.cpu().advance(hw::kVmOpBaseCost);

    for (auto &[start, entry] : parent.map().entries()) {
        switch (entry.inheritance) {
          case Inherit::None:
            break;
          case Inherit::Share: {
            if (entry.needs_copy) {
                // Sharing an entry with a pending virtual copy would
                // let parent and child silently diverge (each would
                // later resolve its own private shadow). Resolve the
                // copy now: interpose the shadow so both sides share
                // it, while the earlier copy-on-write peers keep the
                // original backing object.
                entry.object = VmObject::makeShadow(
                    entry.object, entry.offset, entry.sizePages());
                entry.offset = 0;
                entry.needs_copy = false;
            }
            entry.shared = true;
            VmMapEntry shared = entry;
            child->map().insert(shared);
            break;
          }
          case Inherit::Copy: {
            if (entry.shared) {
                // A shared object must never go copy-on-write (that
                // would detach the sharers from each other), so copy
                // inheritance of a shared entry is resolved eagerly
                // with a physical copy -- Mach's copy strategy for
                // permanent/shared memory objects.
                VmMapEntry copy = entry;
                copy.object = deepCopyObject(thread, entry);
                copy.offset = 0;
                copy.shared = false;
                copy.needs_copy = false;
                child->map().insert(copy);
                break;
            }
            VmMapEntry copy = entry;
            copy.needs_copy = true;
            child->map().insert(copy);
            if (!entry.needs_copy) {
                entry.needs_copy = true;
                // Remove write access from the parent's established
                // mappings so its next write faults and copies; this
                // protection reduction is a shootdown source when the
                // parent has threads on other processors.
                if (protAllows(entry.cur_prot, ProtWrite)) {
                    parent.pmap().protect(thread, vaToVpn(entry.start),
                                          vaToVpn(entry.end), ProtRead);
                }
            }
            break;
          }
        }
        thread.cpu().advance(20 * kUsec);
    }

    parent.map().lock().unlockWrite(thread);
    return child;
}

void
Kernel::destroyTask(kern::Thread &thread, Task *task)
{
    MACH_ASSERT(task != nullptr);

    task->map().lock().lockWrite(thread);
    deallocateLocked(thread, task->map(), task->pmap(), kUserLo,
                     kUserHi - kUserLo);
    task->map().lock().unlockWrite(thread);

    // Destroying the pmap itself is cheap: throw the page tables away;
    // they would be rebuilt by faults if the task were still alive
    // (Section 2).
    task->pmap().collect(thread);

    auto it = std::find_if(tasks_.begin(), tasks_.end(),
                           [task](const std::unique_ptr<Task> &t) {
                               return t.get() == task;
                           });
    MACH_ASSERT(it != tasks_.end());
    tasks_.erase(it);
}

// ---------------------------------------------------------------------
// Address-space operations
// ---------------------------------------------------------------------

bool
Kernel::vmAllocate(kern::Thread &thread, Task &task, VAddr *va,
                   std::uint32_t size, bool anywhere)
{
    size = pageRound(size);
    if (size == 0)
        return false;
    VmMap &map = task.map();

    kernelSection(thread,
                  30 * kUsec +
                      Tick(machine_->rng().exponential(50.0) * kUsec));
    map.lock().lockWrite(thread);
    thread.cpu().advance(hw::kVmOpBaseCost);

    VAddr start = anywhere ? map.findSpace(size) : pageTrunc(*va);
    bool ok = start != 0;
    if (ok && !anywhere) {
        // A fixed-address request fails on any overlap.
        for (VAddr probe = start; probe < start + size;
             probe += kPageSize) {
            if (map.lookup(probe) != nullptr) {
                ok = false;
                break;
            }
        }
    }
    if (ok) {
        VmMapEntry entry;
        entry.start = start;
        entry.end = start + size;
        entry.object = VmObject::create(&machine_->mem(),
                                        size >> kPageShift);
        entry.offset = 0;
        entry.cur_prot = ProtReadWrite;
        entry.max_prot = ProtReadWrite;
        entry.inheritance = Inherit::Copy;
        map.insert(entry);
        *va = start;
    }

    map.lock().unlockWrite(thread);
    return ok;
}

void
Kernel::deallocateLocked(kern::Thread &thread, VmMap &map,
                         pmap::Pmap &pmap, VAddr va, std::uint32_t size)
{
    const VAddr end = va + size;
    std::vector<VAddr> doomed;
    map.clipAndApply(va, end, [&](VmMapEntry &entry) {
        // Invalidate whatever the pmap has cached for this range (the
        // lazy-evaluation check inside decides whether any consistency
        // action is really needed).
        pmap.remove(thread, vaToVpn(entry.start), vaToVpn(entry.end));
        doomed.push_back(entry.start);
    });
    for (VAddr start : doomed)
        map.erase(start);
}

bool
Kernel::vmDeallocate(kern::Thread &thread, Task &task, VAddr va,
                     std::uint32_t size)
{
    size = pageRound(size);
    va = pageTrunc(va);
    if (size == 0)
        return false;

    kernelSection(thread,
                  30 * kUsec +
                      Tick(machine_->rng().exponential(50.0) * kUsec));
    task.map().lock().lockWrite(thread);
    thread.cpu().advance(hw::kVmOpBaseCost);
    deallocateLocked(thread, task.map(), task.pmap(), va, size);
    task.map().lock().unlockWrite(thread);
    return true;
}

bool
Kernel::vmProtect(kern::Thread &thread, Task &task, VAddr va,
                  std::uint32_t size, Prot prot)
{
    size = pageRound(size);
    va = pageTrunc(va);
    if (size == 0)
        return false;
    VmMap &map = task.map();

    kernelSection(thread,
                  30 * kUsec +
                      Tick(machine_->rng().exponential(50.0) * kUsec));
    map.lock().lockWrite(thread);
    thread.cpu().advance(hw::kVmOpBaseCost);

    map.clipAndApply(va, va + size, [&](VmMapEntry &entry) {
        const Prot old_prot = entry.cur_prot;
        const Prot new_prot = static_cast<Prot>(
            static_cast<std::uint8_t>(prot) &
            static_cast<std::uint8_t>(entry.max_prot));
        entry.cur_prot = new_prot;
        if (protReduces(old_prot, new_prot)) {
            task.pmap().protect(thread, vaToVpn(entry.start),
                                vaToVpn(entry.end), new_prot);
        }
        // Protection increases are repaired lazily by faults; leaving
        // lesser rights cached is the harmless direction (Section 3,
        // technique 3).
    });
    map.simplify(va, va + size);

    map.lock().unlockWrite(thread);
    return true;
}

bool
Kernel::vmInherit(kern::Thread &thread, Task &task, VAddr va,
                  std::uint32_t size, Inherit inheritance)
{
    size = pageRound(size);
    va = pageTrunc(va);
    if (size == 0)
        return false;

    kernelSection(thread,
                  30 * kUsec +
                      Tick(machine_->rng().exponential(50.0) * kUsec));
    task.map().lock().lockWrite(thread);
    thread.cpu().advance(hw::kVmOpBaseCost);
    task.map().clipAndApply(va, va + size, [&](VmMapEntry &entry) {
        entry.inheritance = inheritance;
    });
    task.map().simplify(va, va + size);
    task.map().lock().unlockWrite(thread);
    return true;
}

bool
Kernel::vmCopy(kern::Thread &thread, Task &task, VAddr src,
               std::uint32_t size, VAddr *dst)
{
    size = pageRound(size);
    src = pageTrunc(src);
    if (size == 0)
        return false;
    VmMap &map = task.map();

    kernelSection(thread,
                  30 * kUsec +
                      Tick(machine_->rng().exponential(50.0) * kUsec));
    map.lock().lockWrite(thread);
    thread.cpu().advance(hw::kVmOpBaseCost);

    const VAddr dst_base = map.findSpace(size);
    bool ok = dst_base != 0;
    if (ok) {
        VAddr cursor = dst_base;
        map.clipAndApply(src, src + size, [&](VmMapEntry &entry) {
            VmMapEntry copy = entry;
            copy.start = cursor;
            copy.end = cursor + (entry.end - entry.start);
            cursor = copy.end;

            if (entry.shared) {
                // Shared objects are copied eagerly (see forkTask).
                copy.object = deepCopyObject(thread, entry);
                copy.offset = 0;
                copy.shared = false;
                copy.needs_copy = false;
                map.insert(copy);
                return;
            }

            copy.needs_copy = true;
            if (!entry.needs_copy) {
                entry.needs_copy = true;
                if (protAllows(entry.cur_prot, ProtWrite)) {
                    task.pmap().protect(thread, vaToVpn(entry.start),
                                        vaToVpn(entry.end), ProtRead);
                }
            }
            map.insert(copy);
        });
        *dst = dst_base;
    }

    map.lock().unlockWrite(thread);
    return ok;
}

bool
Kernel::vmRegion(kern::Thread &thread, Task &task, VAddr *va,
                 RegionInfo *info)
{
    VmMap &map = task.map();
    map.lock().lockRead(thread);
    thread.cpu().advance(hw::kVmOpBaseCost / 2);

    bool found = false;
    for (const auto &[start, entry] : map.entries()) {
        if (entry.end <= *va)
            continue;
        info->start = entry.start;
        info->size = entry.end - entry.start;
        info->cur_prot = entry.cur_prot;
        info->max_prot = entry.max_prot;
        info->inheritance = entry.inheritance;
        info->resident_pages = 0;
        // Count pages resident anywhere in the entry's chain window.
        for (std::uint32_t p = 0; p < entry.sizePages(); ++p) {
            if (entry.object->lookupChain(entry.offset + p).page !=
                nullptr) {
                ++info->resident_pages;
            }
        }
        *va = entry.start;
        found = true;
        break;
    }

    map.lock().unlockRead(thread);
    return found;
}

bool
Kernel::vmWire(kern::Thread &thread, Task &task, VAddr va,
               std::uint32_t size, bool wire)
{
    size = pageRound(size);
    va = pageTrunc(va);
    if (size == 0)
        return false;

    VmMap &map = task.map();
    map.lock().lockWrite(thread);
    thread.cpu().advance(hw::kVmOpBaseCost);

    bool ok = true;
    for (VAddr addr = va; addr < va + size && ok;
         addr += kPageSize) {
        if (wire) {
            // Fault the page in (resident pages are a no-op), then
            // pin whatever page now backs this address.
            ok = faultLocked(thread, map, task.pmap(), addr, ProtRead);
            if (!ok)
                break;
        }
        VmMapEntry *entry = map.lookup(addr);
        if (entry == nullptr) {
            if (wire)
                ok = false;
            continue;
        }
        const std::uint32_t offset =
            entry->offset + ((addr - entry->start) >> kPageShift);
        const PageLookup found = entry->object->lookupChain(offset);
        if (found.page != nullptr)
            found.page->wired = wire;
        else if (wire)
            ok = false;
    }

    map.lock().unlockWrite(thread);
    return ok;
}

bool
Kernel::vmRead(kern::Thread &thread, Task &task, VAddr va, void *buf,
               std::uint32_t len)
{
    VmMap &map = task.map();
    auto *out = static_cast<std::uint8_t *>(buf);

    map.lock().lockWrite(thread);
    bool ok = true;
    for (std::uint32_t done = 0; done < len && ok;) {
        const VAddr addr = va + done;
        ok = faultLocked(thread, map, task.pmap(), addr, ProtRead);
        if (!ok)
            break;
        const std::uint32_t pte =
            task.pmap().table().readPte(vaToVpn(addr));
        const PAddr base = (hw::pte::pfn(pte) << kPageShift);
        const std::uint32_t in_page =
            std::min(len - done, kPageSize - (addr & kPageMask));
        for (std::uint32_t i = 0; i < in_page; ++i)
            out[done + i] = machine_->mem().read8(
                base + ((addr + i) & kPageMask));
        thread.cpu().advance((in_page / 4 + 1) * hw::kMemAccessCost);
        done += in_page;
    }
    map.lock().unlockWrite(thread);
    return ok;
}

bool
Kernel::vmWrite(kern::Thread &thread, Task &task, VAddr va,
                const void *buf, std::uint32_t len)
{
    VmMap &map = task.map();
    const auto *in = static_cast<const std::uint8_t *>(buf);

    map.lock().lockWrite(thread);
    bool ok = true;
    for (std::uint32_t done = 0; done < len && ok;) {
        const VAddr addr = va + done;
        ok = faultLocked(thread, map, task.pmap(), addr, ProtWrite);
        if (!ok)
            break;
        const std::uint32_t pte =
            task.pmap().table().readPte(vaToVpn(addr));
        const PAddr base = (hw::pte::pfn(pte) << kPageShift);
        const std::uint32_t in_page =
            std::min(len - done, kPageSize - (addr & kPageMask));
        for (std::uint32_t i = 0; i < in_page; ++i)
            machine_->mem().write8(base + ((addr + i) & kPageMask),
                                   in[done + i]);
        thread.cpu().advance((in_page / 4 + 1) * hw::kMemAccessCost);
        done += in_page;
    }
    map.lock().unlockWrite(thread);
    return ok;
}

// ---------------------------------------------------------------------
// Kernel memory
// ---------------------------------------------------------------------

void
Kernel::kernelSection(kern::Thread &thread, Tick cost)
{
    // advance() (rather than advanceNoPoll) so that delivery is
    // governed purely by the priority level: on baseline hardware the
    // shootdown IPI is masked here, but with the Section 9
    // high-priority software interrupt it preempts the section.
    kern::Cpu &cpu = thread.cpu();
    const hw::Spl saved = cpu.setSpl(hw::SplDevice);
    cpu.advance(cost);
    cpu.setSpl(saved);
}

ObjectPtr
Kernel::deepCopyObject(kern::Thread &thread, const VmMapEntry &entry)
{
    ObjectPtr fresh =
        VmObject::create(&machine_->mem(), entry.sizePages());
    for (std::uint32_t p = 0; p < entry.sizePages(); ++p) {
        const PageLookup found =
            entry.object->lookupChain(entry.offset + p);
        if (found.page == nullptr)
            continue;
        const Pfn frame = allocPlacedFrame(thread, p);
        machine_->mem().copyFrame(frame, found.page->pfn);
        kernelSection(thread, hw::kPageCopyCost);
        fresh->insertPage(p, frame);
        notePageable(fresh, p);
        ++cow_copies;
    }
    return fresh;
}

VAddr
Kernel::kmemAlloc(kern::Thread &thread, std::uint32_t size)
{
    size = pageRound(size);
    kernelSection(thread,
                  30 * kUsec +
                      Tick(machine_->rng().exponential(40.0) * kUsec));

    kernel_map_.lock().lockWrite(thread);
    thread.cpu().advance(hw::kVmOpBaseCost);

    // Under the Section 8 pool restructuring, kernel memory comes
    // from the executing processor's pool slice so that the eventual
    // free only has to shoot down that pool.
    VAddr va = 0;
    const unsigned pools = machine_->cfg().kernel_pools;
    if (pools > 1) {
        const unsigned pool = machine_->poolOfCpu(thread.cpu().id());
        const VAddr span = pageTrunc(
            (kern::Machine::kKernelHi - kern::Machine::kKernelBase) /
            pools);
        const VAddr lo = kern::Machine::kKernelBase + pool * span;
        va = kernel_map_.findSpaceIn(lo, lo + span, size);
    } else {
        va = kernel_map_.findSpace(size);
    }
    if (va != 0) {
        VmMapEntry entry;
        entry.start = va;
        entry.end = va + size;
        entry.object = VmObject::create(&machine_->mem(),
                                        size >> kPageShift);
        entry.offset = 0;
        entry.cur_prot = ProtReadWrite;
        entry.max_prot = ProtReadWrite;
        entry.inheritance = Inherit::None;
        kernel_map_.insert(entry);
    }

    kernel_map_.lock().unlockWrite(thread);
    return va;
}

void
Kernel::kmemFree(kern::Thread &thread, VAddr va, std::uint32_t size)
{
    size = pageRound(size);
    kernelSection(thread,
                  30 * kUsec +
                      Tick(machine_->rng().exponential(40.0) * kUsec));

    kernel_map_.lock().lockWrite(thread);
    thread.cpu().advance(hw::kVmOpBaseCost);
    deallocateLocked(thread, kernel_map_, pmap_sys_->kernelPmap(), va,
                     size);
    kernel_map_.lock().unlockWrite(thread);
}

} // namespace mach::vm
