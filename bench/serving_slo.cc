/**
 * @file
 * Serving-tier SLO sweep: request tail latency under multi-tenant
 * churn, across shootdown-avoidance policies and machine shapes.
 *
 * The 1989 paper reports mean shootdown costs for batch applications;
 * a serving tier lives and dies by its p99.9. This bench runs the
 * apps::Serving workload (fork/exec/exit churn, shared binary,
 * per-request mmap/munmap bursts) over a tenants x policy x NUMA-shape
 * grid and reports the request-latency and shootdown-initiator
 * percentiles from the stats-only recorder -- the numbers a
 * --stats-json consumer would scrape, produced without storing a
 * single timeline event.
 *
 * Simulated numbers are deterministic for a given scale, so the JSON
 * written to BENCH_serving.json is a committable baseline: CI requires
 * a fresh run to match the committed file byte for byte, so a
 * deliberate behaviour change refreshes it in the same commit.
 */

#include "bench_common.hh"

#include <algorithm>

#include "apps/serving.hh"
#include "obs/metrics.hh"
#include "obs/recorder.hh"
#include "xpr/machine_stats.hh"

using namespace mach;
using namespace mach::bench;

namespace
{

constexpr hw::ShootdownPolicy kPolicies[] = {
    hw::ShootdownPolicy::Baseline,
    hw::ShootdownPolicy::LazyAsid,
    hw::ShootdownPolicy::Batched,
    hw::ShootdownPolicy::ReuseElide,
};
constexpr unsigned kNumPolicies = std::size(kPolicies);

constexpr unsigned kTenantCounts[] = {8, 16, 24};
constexpr unsigned kNumTenantCounts = std::size(kTenantCounts);

/** Machine shapes: one flat 16-CPU node and a 4-node NUMA box. */
struct Shape
{
    const char *label;
    unsigned numa_nodes;
    unsigned ncpus;
};
constexpr Shape kShapes[] = {
    {"n1", 1, 16},
    {"n4", 4, 32},
};
constexpr unsigned kNumShapes = std::size(kShapes);

/** Percentiles of one latency histogram, in usec. */
struct Tail
{
    std::uint64_t p50 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t p999 = 0;
    std::uint64_t count = 0;
};

Tail
tailOf(const obs::Histogram &h)
{
    Tail t;
    t.p50 = h.percentileMille(500);
    t.p99 = h.percentileMille(990);
    t.p999 = h.percentileMille(999);
    t.count = h.count();
    return t;
}

struct Cell
{
    Tail request;
    Tail shootdown;
    std::uint64_t ipis = 0;
    std::uint64_t shootdowns = 0;
    double runtime_ms = 0.0;
    bool clean = false;
};

Cell
runCell(unsigned tenants, hw::ShootdownPolicy policy,
        const Shape &shape)
{
    hw::MachineConfig config;
    config.seed = 0x5e12e;
    config.ncpus = shape.ncpus;
    config.numa_nodes = shape.numa_nodes;
    config.setShootdownPolicy(policy);

    vm::Kernel kernel(config);
    kernel.machine().recorder().enableStats();

    apps::Serving::Params params;
    params.tenants = tenants;
    params.requests_per_tenant *= benchScale();
    apps::Serving app(params);
    const apps::WorkloadResult result = app.execute(kernel);

    obs::Metrics &metrics = kernel.machine().recorder().metrics();
    Cell cell;
    cell.request = tailOf(metrics.histogram("serve.request_us"));
    cell.shootdown = tailOf(metrics.histogram("shoot.initiator_us"));
    const xpr::MachineStats stats = xpr::MachineStats::capture(kernel);
    cell.ipis = stats.ipis_sent;
    cell.shootdowns = stats.shootdowns_initiated;
    cell.runtime_ms =
        static_cast<double>(result.virtual_runtime) / kMsec;
    cell.clean = kernel.pmaps().auditTlbConsistency().empty();
    return cell;
}

std::string
cellKey(hw::ShootdownPolicy policy, unsigned tenants,
        const Shape &shape)
{
    return std::string(hw::shootdownPolicyName(policy)) + "__t" +
           std::to_string(tenants) + "__" + shape.label;
}

void
writeJson(const Cell cells[][kNumTenantCounts][kNumShapes],
          unsigned scale)
{
    JsonTable table("serving_slo", scale);
    for (unsigned p = 0; p < kNumPolicies; ++p) {
        for (unsigned t = 0; t < kNumTenantCounts; ++t) {
            for (unsigned s = 0; s < kNumShapes; ++s) {
                const Cell &cell = cells[p][t][s];
                table.cell(cellKey(kPolicies[p], kTenantCounts[t],
                                   kShapes[s]));
                table.field("request_p50_us", cell.request.p50);
                table.field("request_p99_us", cell.request.p99);
                table.field("request_p999_us", cell.request.p999);
                table.field("shootdown_p50_us", cell.shootdown.p50);
                table.field("shootdown_p99_us", cell.shootdown.p99);
                table.field("shootdown_p999_us", cell.shootdown.p999);
                table.field("requests", cell.request.count);
                table.field("shootdowns", cell.shootdowns);
                table.field("ipis", cell.ipis);
                table.field("runtime_ms", cell.runtime_ms);
            }
        }
    }
    table.write("BENCH_serving.json");
}

} // namespace

int
main()
{
    setLogQuiet(true);
    const unsigned scale = benchScale();

    // One fresh machine per cell, farmed; indexed slots keep the
    // tables ordered regardless of completion order.
    static Cell cells[kNumPolicies][kNumTenantCounts][kNumShapes];
    std::vector<std::function<void()>> jobs;
    for (unsigned p = 0; p < kNumPolicies; ++p)
        for (unsigned t = 0; t < kNumTenantCounts; ++t)
            for (unsigned s = 0; s < kNumShapes; ++s)
                jobs.push_back([p, t, s] {
                    cells[p][t][s] =
                        runCell(kTenantCounts[t], kPolicies[p],
                                kShapes[s]);
                });
    // As wide as the host has cores unless MACH_FARM_JOBS says
    // otherwise: the cells share no prefix, so more workers than
    // cores only add context switches.
    runFarmed(std::move(jobs),
              std::min(kNumPolicies * kNumTenantCounts * kNumShapes,
                       farm::defaultJobs(0)));

    bool all_clean = true;
    for (unsigned s = 0; s < kNumShapes; ++s) {
        std::printf("\nserving tail latency, %s (%u CPUs / %u "
                    "node(s)), usec\n",
                    kShapes[s].label, kShapes[s].ncpus,
                    kShapes[s].numa_nodes);
        std::printf("%-12s %8s %10s %10s %10s %12s %12s %8s\n",
                    "policy", "tenants", "req_p50", "req_p99",
                    "req_p999", "shoot_p99", "shoot_p999", "ipis");
        for (unsigned p = 0; p < kNumPolicies; ++p) {
            for (unsigned t = 0; t < kNumTenantCounts; ++t) {
                const Cell &cell = cells[p][t][s];
                all_clean = all_clean && cell.clean;
                std::printf(
                    "%-12s %8u %10llu %10llu %10llu %12llu %12llu "
                    "%8llu\n",
                    hw::shootdownPolicyName(kPolicies[p]),
                    kTenantCounts[t],
                    static_cast<unsigned long long>(cell.request.p50),
                    static_cast<unsigned long long>(cell.request.p99),
                    static_cast<unsigned long long>(
                        cell.request.p999),
                    static_cast<unsigned long long>(
                        cell.shootdown.p99),
                    static_cast<unsigned long long>(
                        cell.shootdown.p999),
                    static_cast<unsigned long long>(cell.ipis));
            }
        }
    }

    // The SLO headline: best policy p999 vs baseline, per shape, at
    // the largest tenant count.
    std::printf("\np999 vs baseline (t=%u):\n",
                kTenantCounts[kNumTenantCounts - 1]);
    for (unsigned s = 0; s < kNumShapes; ++s) {
        const std::uint64_t base =
            cells[0][kNumTenantCounts - 1][s].request.p999;
        for (unsigned p = 1; p < kNumPolicies; ++p) {
            const std::uint64_t got =
                cells[p][kNumTenantCounts - 1][s].request.p999;
            std::printf("  %-4s %-12s %8llu us vs %llu us (%+.1f%%)\n",
                        kShapes[s].label,
                        hw::shootdownPolicyName(kPolicies[p]),
                        static_cast<unsigned long long>(got),
                        static_cast<unsigned long long>(base),
                        base != 0 ? 100.0 *
                                        (static_cast<double>(got) -
                                         static_cast<double>(base)) /
                                        static_cast<double>(base)
                                  : 0.0);
        }
    }

    writeJson(cells, scale);
    std::printf("\nwrote BENCH_serving.json\n");

    if (!all_clean) {
        std::printf("TLB consistency audit: VIOLATIONS\n");
        return 1;
    }
    return 0;
}
