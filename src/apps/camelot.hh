/**
 * @file
 * The "Camelot" evaluation application: an 8-way parallel run of the
 * distributed-transaction performance analyzer (Section 5.2).
 *
 * Camelot makes aggressive use of memory sharing and copy-on-write to
 * implement database access and transaction semantics, and its
 * internal components (e.g. the transaction manager) are themselves
 * multi-threaded. Each transaction virtual-copies a slice of the
 * recoverable database region (a COW protection reduction on a
 * multi-threaded pmap: user shootdown), modifies the copy (COW
 * faults), writes a kernel log buffer to disk (whose free is a kernel
 * shootdown), and deallocates the copy (another user shootdown).
 * Camelot is the only evaluation application that causes user-pmap
 * shootdowns at all (Table 3).
 */

#ifndef MACH_APPS_CAMELOT_HH
#define MACH_APPS_CAMELOT_HH

#include "apps/workload.hh"
#include "base/rng.hh"

namespace mach::apps
{

/** Transaction-processing model. */
class Camelot : public Workload
{
  public:
    struct Params
    {
        /** Total transactions across all servers. */
        unsigned transactions = 200;
        std::uint64_t seed = 0xca3e107;
    };

    explicit Camelot(Params params) : params_(params) {}

    std::string name() const override { return "camelot"; }

    void run(vm::Kernel &kernel, kern::Thread &driver) override;

    std::uint64_t commits = 0;

  private:
    Params params_;
};

} // namespace mach::apps

#endif // MACH_APPS_CAMELOT_HH
