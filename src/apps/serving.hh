/**
 * @file
 * The production serving tier: a multi-tenant request-serving workload
 * with per-request SLO attribution.
 *
 * The 1989 paper measured four batch applications and reported mean
 * shootdown costs; a production serving system cares about the tail --
 * the p99.9 request stalled behind somebody else's cross-node
 * shootdown. This workload generates the millions-of-users *shape* at
 * simulation scale, in the Virtuoso spirit of imitating OS
 * memory-management behaviour without modelling every instruction:
 *
 *  - N short-lived tenant address spaces, forked from a shared "exec
 *    server" image and destroyed after a burst of requests
 *    (fork/exec/exit churn; fork's COW write-revocations are
 *    shootdowns against the parent);
 *  - one shared read-mostly "binary" region, inherited Share by every
 *    tenant (the sharing-degree knob);
 *  - per-request mmap/munmap bursts (the munmap is a user shootdown
 *    against the tenant's sibling threads on other processors) and
 *    kernel log-buffer churn (kernel shootdowns);
 *  - a Zipf-distributed request-class mix: class k costs ~(k+1)x the
 *    base work but occurs with probability proportional to
 *    1/(k+1)^s.
 *
 * Every request runs under an obs::RequestSlot, so its latency is
 * decomposed into compute / fault / walk / ipi-post / responder-wait /
 * drain components (see obs/request.hh); totals are accumulated on
 * the workload for the attribution tests and recorded into
 * obs::Metrics histograms (serve.request_us + per-component) when the
 * recorder is enabled.
 */

#ifndef MACH_APPS_SERVING_HH
#define MACH_APPS_SERVING_HH

#include <array>

#include "apps/workload.hh"
#include "base/rng.hh"
#include "obs/request.hh"

namespace mach::apps
{

/** Multi-tenant request-serving workload generator. */
class Serving : public Workload
{
  public:
    struct Params
    {
        /** Tenant address spaces created over the run (the churn). */
        unsigned tenants = 24;
        /** Live tenants at any instant (the fork/exit pipeline depth). */
        unsigned concurrency = 8;
        /** Threads per tenant: 1 server + N-1 siblings keeping the
         *  space in use on other processors. */
        unsigned threads_per_tenant = 2;
        /** Requests each tenant serves before exiting. */
        unsigned requests_per_tenant = 6;
        /** Zipf skew s: class k has weight 1/(k+1)^s. */
        double zipf_s = 1.2;
        /** Hot per-tenant working set (pages). */
        unsigned ws_pages = 16;
        /** Shared read-mostly binary region (pages). */
        unsigned binary_pages = 64;
        /** Pages mapped (and unmapped) per request. */
        unsigned mmap_pages = 4;
        /** Fraction of accesses that touch a never-touched page. */
        double fault_mix = 0.35;
        /** Fraction of accesses that read the shared binary. */
        double sharing = 0.3;
        std::uint64_t seed = 0x5e12e;
    };

    explicit Serving(Params params) : params_(params) {}

    /**
     * Page frames a run of @p params can hold at once on a machine of
     * @p cfg, saturating at UINT64_MAX. Serving never pages out, so
     * the binary and the exec image stay resident alongside, per live
     * tenant, its working set, cold arena, one mmap burst, its
     * siblings' pages, a copy of each image page and a kernel log
     * buffer, plus every space's page tables (one copy per node with
     * page-table replicas). A shape that needs more than the machine
     * has would run out of frames part way through. Not counted: the
     * exec server's image copies left in its shadow chain by earlier
     * forks (the VM never collapses a chain), about 1.4 frames per
     * tenant forked; 8 per tenant, their bound, would reject shapes
     * that run.
     */
    static std::uint64_t framesNeeded(const Params &params,
                                      const hw::MachineConfig &cfg);

    std::string name() const override { return "serving"; }

    void run(vm::Kernel &kernel, kern::Thread &driver) override;

    // ---- Aggregates (for the attribution + SLO tests) ----------------

    /** Requests completed across all tenants. */
    std::uint64_t requests_completed = 0;
    /** Sum of end-to-end request latencies (ticks). */
    Tick request_ticks = 0;
    /** Sum of per-component attributed time, indexed by
     *  obs::ReqComponent; sums to request_ticks by construction. */
    std::array<Tick, obs::kReqComponents> component_ticks{};

  private:
    void serve(vm::Kernel &kernel, kern::Thread &self, unsigned tenant,
               VAddr binary);
    void sibling(vm::Kernel &kernel, kern::Thread &self,
                 unsigned tenant, unsigned index, VAddr binary,
                 const bool *stop);

    Params params_;
};

} // namespace mach::apps

#endif // MACH_APPS_SERVING_HH
