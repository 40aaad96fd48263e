/**
 * @file
 * The assembled system: simulated machine + pmap module + Mach VM.
 *
 * vm::Kernel is the public entry point of the library. It brings up a
 * simulated multiprocessor, installs the pmap system (and with it the
 * shootdown algorithm), and exposes the Mach address-space operations
 * of Section 2:
 *
 *   - allocation and deallocation of virtual memory,
 *   - setting protection on virtual memory,
 *   - specification of inheritance,
 *   - reading and writing memory in some other address space,
 *   - virtual-copy (copy-on-write) of regions,
 *   - task creation with share/copy/none inheritance,
 *
 * plus kernel-internal memory (kmem) whose deallocation is the source
 * of kernel-pmap shootdowns, and an optional pageout daemon.
 *
 * Typical use:
 *
 *   hw::MachineConfig config;             // 16-CPU Multimax defaults
 *   vm::Kernel kernel(config);
 *   kernel.start();
 *   vm::Task *task = kernel.createTask("app");
 *   kernel.spawnThread(task, "main", [&](kern::Thread &self) {
 *       VAddr va = 0;
 *       kernel.vmAllocate(self, *task, &va, 4 * kPageSize, true);
 *       self.store32(va, 42);             // faults, maps, writes
 *       kernel.vmProtect(self, *task, va, kPageSize, ProtRead);
 *   });
 *   kernel.machine().run();
 */

#ifndef MACH_VM_KERNEL_HH
#define MACH_VM_KERNEL_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "base/types.hh"
#include "dev/dma_device.hh"
#include "kern/io_device.hh"
#include "kern/machine.hh"
#include "kern/sched.hh"
#include "kern/thread.hh"
#include "pmap/pmap.hh"
#include "vm/pager.hh"
#include "vm/task.hh"
#include "vm/vm_map.hh"

namespace mach::vm
{

/** The whole simulated operating system. */
class Kernel
{
  public:
    explicit Kernel(const hw::MachineConfig &config);
    ~Kernel();

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    kern::Machine &machine() { return *machine_; }
    pmap::PmapSystem &pmaps() { return *pmap_sys_; }
    kern::IoDevice &io() { return *io_; }
    DefaultPager &pager() { return *pager_; }

    // ---- DMA devices (MachineConfig::devices of them) ----------------

    unsigned deviceCount() const
    {
        return static_cast<unsigned>(devices_.size());
    }
    dev::DmaDevice &device(unsigned index) { return *devices_[index]; }
    const std::vector<std::unique_ptr<dev::DmaDevice>> &devices() const
    {
        return devices_;
    }

    /** Bring up idle loops and timers. Call once before machine().run. */
    void start();

    // ---- Threads ------------------------------------------------------

    /**
     * Create and start a thread in @p task (null = kernel thread).
     * @p pin >= 0 binds the thread to that CPU.
     */
    kern::Thread *spawnThread(Task *task, std::string name,
                              kern::Thread::Body body,
                              std::int64_t pin = -1);

    // ---- Tasks ----------------------------------------------------------

    /** Create an empty task. */
    Task *createTask(std::string name);

    /**
     * Create a child task whose address space is built from the
     * parent's entries according to their inheritance attributes
     * (Share / Copy / None). Copy inheritance marks both sides
     * copy-on-write and removes write access from the parent's
     * existing mappings -- which shoots down remote TLBs when the
     * parent runs threads on other processors.
     */
    Task *forkTask(kern::Thread &thread, Task &parent, std::string name);

    /**
     * Tear down a task: deallocate its whole address space (performing
     * the consistency actions that implies) and destroy its pmap. All
     * of the task's threads must have terminated.
     */
    void destroyTask(kern::Thread &thread, Task *task);

    const std::vector<std::unique_ptr<Task>> &tasks() const
    {
        return tasks_;
    }

    // ---- Address-space operations (Section 2) -------------------------

    /**
     * Allocate @p size bytes (page-rounded) in @p task's space. With
     * @p anywhere, *va receives the chosen address; otherwise *va is
     * the requested fixed address. Returns false when the space or
     * address is unavailable.
     */
    bool vmAllocate(kern::Thread &thread, Task &task, VAddr *va,
                    std::uint32_t size, bool anywhere);

    /** Deallocate [va, va+size). */
    bool vmDeallocate(kern::Thread &thread, Task &task, VAddr va,
                      std::uint32_t size);

    /**
     * Set the current protection on [va, va+size). Reductions trigger
     * consistency actions; increases are repaired lazily by faults.
     */
    bool vmProtect(kern::Thread &thread, Task &task, VAddr va,
                   std::uint32_t size, Prot prot);

    /** Set the inheritance attribute on [va, va+size). */
    bool vmInherit(kern::Thread &thread, Task &task, VAddr va,
                   std::uint32_t size, Inherit inheritance);

    /**
     * Virtual-copy [src, src+size) to a fresh range in the same task
     * (Mach message-passing style). The copy is lazy: both ranges go
     * copy-on-write, and write access is removed from the source's
     * existing mappings.
     */
    bool vmCopy(kern::Thread &thread, Task &task, VAddr src,
                std::uint32_t size, VAddr *dst);

    /**
     * Inspect the address space (Mach vm_region): find the first
     * mapped region at or above *va and report its extent and
     * attributes. Returns false when nothing is mapped above *va.
     */
    struct RegionInfo
    {
        VAddr start = 0;
        std::uint32_t size = 0;
        Prot cur_prot = ProtNone;
        Prot max_prot = ProtNone;
        Inherit inheritance = Inherit::Copy;
        std::uint32_t resident_pages = 0;
    };

    bool vmRegion(kern::Thread &thread, Task &task, VAddr *va,
                  RegionInfo *info);

    /**
     * Wire (or unwire) [va, va+size): wiring faults every page in and
     * pins it against the pageout daemon.
     */
    bool vmWire(kern::Thread &thread, Task &task, VAddr va,
                std::uint32_t size, bool wire);

    /** Read bytes from another task's address space. */
    bool vmRead(kern::Thread &thread, Task &task, VAddr va, void *buf,
                std::uint32_t len);

    /** Write bytes into another task's address space. */
    bool vmWrite(kern::Thread &thread, Task &task, VAddr va,
                 const void *buf, std::uint32_t len);

    // ---- Kernel memory -------------------------------------------------

    /** Allocate wired-on-touch kernel memory; 0 on exhaustion. */
    VAddr kmemAlloc(kern::Thread &thread, std::uint32_t size);

    /** Free kernel memory (a kernel-pmap shootdown source). */
    void kmemFree(kern::Thread &thread, VAddr va, std::uint32_t size);

    // ---- Pageout ---------------------------------------------------------

    /**
     * Start the pageout daemon thread. Call it before the first page
     * the daemon's candidate list would take (a user zero-fill, copy or
     * pagein; in practice right after start()): the list is filled only
     * while pageout is enabled. A later call is fatal.
     */
    void enablePageout();

    // ---- Fault handling (called by kern::Cpu::access) -------------------

    /**
     * Resolve a fault at @p va for @p want rights on behalf of
     * @p thread. Returns true when the translation was (re)established
     * and the access should be retried; false for an unrecoverable
     * fault.
     */
    bool handleFault(kern::Thread &thread, VAddr va, Prot want);

    /**
     * Run @p cost of leaf kernel work with interrupts (including the
     * shootdown IPI, on baseline hardware) masked. Such sections never
     * initiate shootdowns or wait on locks, so they cannot deadlock
     * against an initiator -- they only delay their processor's
     * response, which is the Section 8 skew mechanism.
     */
    void kernelSection(kern::Thread &thread, Tick cost);

    std::uint64_t faults_resolved = 0;
    std::uint64_t faults_failed = 0;
    std::uint64_t cow_copies = 0;
    std::uint64_t zero_fills = 0;
    /** Resolved faults whose page frame sat on the faulter's node. */
    std::uint64_t local_faults = 0;
    /** Resolved faults whose page frame sat on another node. */
    std::uint64_t remote_faults = 0;
    /** Pages copied to the faulting node by the Migrate policy. */
    std::uint64_t page_migrations = 0;

  private:
    friend class Task;

    struct PageRef
    {
        std::weak_ptr<VmObject> object;
        std::uint32_t offset;
    };

    /** Resolve a fault with the map lock held. */
    bool faultLocked(kern::Thread &thread, VmMap &map, pmap::Pmap &pmap,
                     VAddr va, Prot want);

    /**
     * Allocate a frame according to the configured NUMA placement
     * policy (@p key steers interleaving; single-node machines fall
     * back to the plain allocator).
     */
    Pfn allocPlacedFrame(kern::Thread &thread, std::uint32_t key);

    /**
     * Migrate-on-remote-fault: steal @p page exactly like the pageout
     * daemon (busy + pageProtect shootdown), copy the frame to
     * @p to_node, and swap it in. Every stale mapping is gone by the
     * time the copy lands -- the hazard the checker's oracle audits.
     */
    void migratePage(kern::Thread &thread, VmPage &page,
                     unsigned to_node);

    /** Count a resolved fault and run the migrate policy on @p page. */
    void notePlacement(kern::Thread &thread, VmPage &page);

    /**
     * Eager physical copy of an entry's currently visible pages into a
     * fresh object (the copy strategy for shared entries, whose
     * objects must never go copy-on-write).
     */
    ObjectPtr deepCopyObject(kern::Thread &thread,
                             const VmMapEntry &entry);

    /**
     * Offer a new pageable page to the pageout daemon's list; only
     * while pageout is enabled, since nothing else reads the list.
     */
    void notePageable(const ObjectPtr &object, std::uint32_t offset);

    /** Map and pmap for an address in the context of @p thread. */
    bool resolveSpace(kern::Thread &thread, VAddr va, VmMap **map,
                      pmap::Pmap **pmap);

    /** Deallocate a range of @p map with entries clipped and removed. */
    void deallocateLocked(kern::Thread &thread, VmMap &map,
                          pmap::Pmap &pmap, VAddr va, std::uint32_t size);

    void pageoutDaemon(kern::Thread &self);

    std::unique_ptr<kern::Machine> machine_;
    // Declared before pmap_sys_: pmap teardown flushes device IOTLBs
    // through ShootdownController::responders(), so the devices must
    // outlive the pmap system (members destroy in reverse order).
    std::vector<std::unique_ptr<dev::DmaDevice>> devices_;
    std::unique_ptr<pmap::PmapSystem> pmap_sys_;
    std::unique_ptr<kern::IoDevice> io_;
    std::unique_ptr<DefaultPager> pager_;
    VmMap kernel_map_;
    std::vector<std::unique_ptr<Task>> tasks_;
    std::deque<PageRef> pageable_;
    bool pageout_enabled_ = false;
    /** notePageable() has passed over a page (pageout was off). */
    bool pageable_skipped_ = false;
};

} // namespace mach::vm

#endif // MACH_VM_KERNEL_HH
