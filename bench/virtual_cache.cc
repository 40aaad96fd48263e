/**
 * @file
 * Section 9: physical TLBs vs a VMP-style virtual-address cache.
 *
 * "Another alternative is to use virtual address caches. This
 * completely eliminates the TLB consistency problem by eliminating
 * the TLBs. Unfortunately it substitutes a mapping consistency
 * problem that is more difficult to solve; invalidating a page
 * mapping can require that the page be flushed from all virtual
 * caches. The designers of VMP ... have chosen to implement this
 * flush by 'an exhaustive search of the cache directory for [entries]
 * in the specified range, with a few optimizations' in software on
 * every processor that has the page mapped. ... The resulting
 * increase in invalidation overhead should be considered by
 * multiprocessor designers when choosing between virtual and physical
 * cache designs."
 *
 * The virtual-cache machine embeds translations in a 512-line cache
 * directory; every mapping invalidation pays an exhaustive software
 * directory search per responding processor, where the baseline TLB
 * pays a few entry invalidates or one cheap buffer flush.
 */

#include "bench_common.hh"

#include "apps/consistency_tester.hh"
#include "pmap/shootdown.hh"

using namespace mach;
using namespace mach::bench;

namespace
{

struct CacheDesign
{
    const char *name;
    double initiator_usec;
    double responder_usec;
    bool consistent;
};

CacheDesign
measure(bool virtual_cache, unsigned k)
{
    hw::MachineConfig config;
    config.seed = 0x7ca0e + k;
    // Both designs are software-managed (no ref/mod writeback), so
    // the only difference measured is the invalidation mechanism
    // itself: per-entry invalidates vs exhaustive directory search.
    config.tlb_refmod = hw::TlbRefmod::None;
    if (virtual_cache) {
        config.virtual_cache = true;
        config.tlb_entries = 512; // Cache-directory scale.
    }
    vm::Kernel kernel(config);
    apps::ConsistencyTester tester(
        {.children = k, .warmup = 25 * kMsec});
    const apps::WorkloadResult result = tester.execute(kernel);
    CacheDesign out;
    out.name = virtual_cache ? "virtual cache (VMP)" : "physical TLB";
    out.initiator_usec =
        result.analysis.user_initiator.time_usec.mean();
    out.responder_usec =
        result.analysis.responder.events
            ? result.analysis.responder.time_usec.mean()
            : 0.0;
    out.consistent = tester.consistent();
    return out;
}

} // namespace

int
main()
{
    setLogQuiet(true);
    std::printf("Section 9: invalidation overhead, physical TLB vs "
                "virtual-address cache\n");
    std::printf("(one page-mapping invalidation involving k "
                "processors)\n\n");
    std::printf("%-22s %4s %16s %16s %12s\n", "design", "k",
                "initiator(us)", "responder(us)", "consistent");

    bool all_ok = true;
    for (unsigned k : {4u, 10u}) {
        for (bool vc : {false, true}) {
            const CacheDesign design = measure(vc, k);
            all_ok = all_ok && design.consistent;
            std::printf("%-22s %4u %16.0f %16.0f %12s\n", design.name,
                        k, design.initiator_usec,
                        design.responder_usec,
                        design.consistent ? "yes" : "NO");
        }
    }

    std::printf("\nthe virtual cache eliminates TLBs but each mapping "
                "invalidation becomes an\nexhaustive software "
                "directory search on every processor with the page "
                "mapped --\nthe increased invalidation overhead the "
                "paper warns designers to weigh.\n");
    return all_ok ? 0 : 1;
}
