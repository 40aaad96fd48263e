/**
 * @file
 * The "Parthenon" evaluation application: a parallel theorem prover
 * running 15-way parallel (Section 5.2).
 *
 * Worker threads remove work from a central workpile and add new work
 * as it is generated; memory is allocated as needed to hold the
 * intermediate results of the proof search and never deallocated
 * mid-run. The interesting VM behaviour is thread startup: the cthread
 * library allocates a large aligned stack region, reserves the first
 * page for private data, and reprotects the second page to no-access
 * to catch stack overflows. With lazy evaluation that reprotect is
 * free (the guard page has never been touched); without it, every
 * thread start after the first shoots the user pmap (the 70 user
 * events of Table 1, ~4/5 ms added to thread startup).
 */

#ifndef MACH_APPS_PARTHENON_HH
#define MACH_APPS_PARTHENON_HH

#include "apps/workload.hh"
#include "base/rng.hh"

namespace mach::apps
{

/** Parallel theorem prover model. */
class Parthenon : public Workload
{
  public:
    struct Params
    {
        /** Worker threads per run. */
        unsigned workers = 15;
        /** Successive runs (the paper ran it five times). */
        unsigned runs = 5;
        std::uint64_t seed = 0x9a27e7;
    };

    explicit Parthenon(Params params) : params_(params) {}

    std::string name() const override { return "parthenon"; }

    void run(vm::Kernel &kernel, kern::Thread &driver) override;

    /** Time spent inside thread startup, for the Section 7.2 claim. */
    Tick thread_startup_total = 0;
    std::uint64_t items_processed = 0;

  private:
    Params params_;
};

} // namespace mach::apps

#endif // MACH_APPS_PARTHENON_HH
