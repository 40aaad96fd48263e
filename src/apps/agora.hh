/**
 * @file
 * The "Agora" evaluation application: a double-ended wavefront-based
 * shortest-path search running 15-way parallel (Section 5.2).
 *
 * Agora uses shared write-once memory for communication among the
 * workers: during the setup phase the workers populate shared regions
 * which the master then reprotects read-only while all 15 workers are
 * still running -- the large (11-15 processor) shootdowns of the
 * paper's bimodal Agora distribution. Once set up, the search can run
 * again and again without causing any large shootdowns; the remaining
 * small (1-4 processor) events happen between runs while most
 * processors are idle.
 */

#ifndef MACH_APPS_AGORA_HH
#define MACH_APPS_AGORA_HH

#include "apps/workload.hh"
#include "base/rng.hh"

namespace mach::apps
{

/** Shared-memory shortest-path search model. */
class Agora : public Workload
{
  public:
    struct Params
    {
        /** Successive search runs after setup (the paper used five). */
        unsigned runs = 5;
        /** Write-once shared regions built during setup. */
        unsigned regions = 3;
        std::uint64_t seed = 0xa60a;
    };

    explicit Agora(Params params) : params_(params) {}

    std::string name() const override { return "agora"; }

    void run(vm::Kernel &kernel, kern::Thread &driver) override;

    std::uint64_t waves_processed = 0;

  private:
    Params params_;
};

} // namespace mach::apps

#endif // MACH_APPS_AGORA_HH
