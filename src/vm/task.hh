/**
 * @file
 * Tasks: address spaces plus the threads that run in them.
 *
 * Each address space is associated with a task that may contain one or
 * more threads of control; all memory within a task's address space is
 * completely shared among its threads, which may execute in parallel on
 * multiple processors (Section 2).
 */

#ifndef MACH_VM_TASK_HH
#define MACH_VM_TASK_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "base/types.hh"
#include "pmap/pmap.hh"
#include "vm/vm_map.hh"

namespace mach::vm
{

class Kernel;

/** User virtual address range (below the shared kernel space). */
constexpr VAddr kUserLo = 0x00010000u;
constexpr VAddr kUserHi = 0xc0000000u;

/** One task: a user address map and its pmap. */
class Task
{
  public:
    Task(Kernel *kernel, std::string name);
    ~Task();

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    std::uint64_t id() const { return id_; }
    const std::string &name() const { return name_; }

    Kernel &kernel() { return *kernel_; }
    VmMap &map() { return map_; }
    pmap::Pmap &pmap() { return *pmap_; }

  private:
    // Atomic: tasks in concurrently farmed machines allocate from
    // one counter. IDs are identity-only (never ordered over), so
    // cross-machine interleaving cannot change behavior.
    static std::atomic<std::uint64_t> next_id_;

    Kernel *kernel_;
    std::uint64_t id_;
    std::string name_;
    VmMap map_;
    std::unique_ptr<pmap::Pmap> pmap_;
};

} // namespace mach::vm

#endif // MACH_VM_TASK_HH
