/**
 * @file
 * Serving-tier SLO observability tests: the request-attribution
 * contract (components sum to the measured end-to-end latency), the
 * timing-neutrality of stats-only recording, the byte-determinism of
 * the --stats-json document, and farm-shape invariance of the serving
 * workload's run digest.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/serving.hh"
#include "farm/farm.hh"
#include "obs/recorder.hh"
#include "obs/request.hh"
#include "obs/stats_json.hh"
#include "vm/kernel.hh"
#include "xpr/machine_stats.hh"

namespace mach
{
namespace
{

/** Small but honest run: churn, siblings, shootdowns, a few seconds
 *  of virtual time, well under a second of host time. */
apps::Serving::Params
smallParams()
{
    apps::Serving::Params params;
    params.tenants = 6;
    params.concurrency = 3;
    params.requests_per_tenant = 3;
    return params;
}

hw::MachineConfig
smallConfig(std::uint64_t seed = 0x5e12e)
{
    hw::MachineConfig config;
    config.ncpus = 8;
    config.seed = seed;
    return config;
}

// ---------------------------------------------------------------------
// Request attribution
// ---------------------------------------------------------------------

TEST(ServingAttribution, ComponentsSumToRequestLatency)
{
    vm::Kernel kernel(smallConfig());
    apps::Serving app(smallParams());
    app.execute(kernel);

    ASSERT_GT(app.requests_completed, 0u);
    ASSERT_GT(app.request_ticks, 0u);

    Tick sum = 0;
    for (Tick t : app.component_ticks)
        sum += t;
    // The exclusive-interval decomposition is an integral identity:
    // every tick between begin() and finish() is banked to exactly one
    // component, so the sum matches the end-to-end latency exactly --
    // far inside the 1% the SLO pipeline requires.
    EXPECT_EQ(sum, app.request_ticks);
    const double rel =
        std::abs(static_cast<double>(sum) -
                 static_cast<double>(app.request_ticks)) /
        static_cast<double>(app.request_ticks);
    EXPECT_LE(rel, 0.01);

    // The workload actually exercises the attributed paths: requests
    // compute, fault (mmap-burst zero-fills), and walk (TLB misses).
    using obs::ReqComponent;
    const auto at = [&](ReqComponent c) {
        return app.component_ticks[static_cast<unsigned>(c)];
    };
    EXPECT_GT(at(ReqComponent::Compute), 0u);
    EXPECT_GT(at(ReqComponent::Fault), 0u);
    EXPECT_GT(at(ReqComponent::Walk), 0u);
    // Shootdown components exist when the munmap bursts find sibling
    // processors; with 2 threads/tenant on 8 CPUs they always do.
    EXPECT_GT(at(ReqComponent::IpiPost) +
                  at(ReqComponent::ResponderWait) +
                  at(ReqComponent::Drain),
              0u);
}

TEST(ServingAttribution, RecordedHistogramsMatchAggregates)
{
    vm::Kernel kernel(smallConfig());
    kernel.machine().recorder().enableStats();
    apps::Serving app(smallParams());
    app.execute(kernel);

    obs::Metrics &metrics = kernel.machine().recorder().metrics();
    const obs::Histogram &req = metrics.histogram("serve.request_us");
    EXPECT_EQ(req.count(), app.requests_completed);
    // The histogram records in usec (truncating); the aggregate sums
    // ticks. Bound the truncation error by one usec per request.
    const std::uint64_t ticks_usec = app.request_ticks / kUsec;
    EXPECT_LE(req.sum(), ticks_usec);
    EXPECT_GE(req.sum() + app.requests_completed, ticks_usec);
    // One fixed histogram per component, present even when a
    // component never fired (stable --stats-json schema).
    for (unsigned c = 0; c < obs::kReqComponents; ++c) {
        const std::string name =
            std::string("serve.") +
            obs::reqComponentName(
                static_cast<obs::ReqComponent>(c)) +
            "_us";
        EXPECT_EQ(metrics.histogram(name).count(),
                  app.requests_completed)
            << name;
    }
}

// ---------------------------------------------------------------------
// Timing neutrality and determinism
// ---------------------------------------------------------------------

TEST(ServingDeterminism, StatsRecordingIsTimingNeutral)
{
    // Same machine, same workload; one run measures, one does not.
    // Attribution and stats-only recording read the clock but never
    // charge simulated time or draw randomness, so the runs are
    // indistinguishable to the digest.
    vm::Kernel plain(smallConfig());
    apps::Serving app_plain(smallParams());
    app_plain.execute(plain);

    vm::Kernel recorded(smallConfig());
    recorded.machine().recorder().enableStats();
    apps::Serving app_rec(smallParams());
    app_rec.execute(recorded);

    EXPECT_EQ(xpr::runDigest(plain), xpr::runDigest(recorded));
    EXPECT_EQ(app_plain.request_ticks, app_rec.request_ticks);
    EXPECT_EQ(app_plain.requests_completed,
              app_rec.requests_completed);
}

TEST(ServingDeterminism, StatsJsonIsByteIdenticalAcrossRuns)
{
    std::string docs[2];
    for (std::string &doc : docs) {
        vm::Kernel kernel(smallConfig());
        kernel.machine().recorder().enableStats();
        apps::Serving app(smallParams());
        app.execute(kernel);
        doc = obs::statsJson(kernel, "serving");
    }
    EXPECT_EQ(docs[0], docs[1]);
    EXPECT_NE(docs[0].find("\"schema\": \"machsim-stats-v1\""),
              std::string::npos);
    // The seed and policy come from the machine's own config.
    EXPECT_NE(docs[0].find("\"seed\": 385326,"), std::string::npos);
    EXPECT_NE(docs[0].find("\"policy\": \"baseline\","),
              std::string::npos);
    EXPECT_NE(docs[0].find("serve.request_us"), std::string::npos);
    EXPECT_NE(docs[0].find("\"p999\""), std::string::npos);
}

TEST(ServingDeterminism, RunDigestIsFarmShapeInvariant)
{
    // Three seeds, run serially and then on a 3-wide farm: the digest
    // of each machine must not depend on how the host scheduled the
    // simulations around it.
    const std::uint64_t seeds[] = {0x5e12e, 0x5e12f, 0x5e130};
    std::vector<std::uint64_t> serial(3), farmed(3);
    for (unsigned width : {1u, 3u}) {
        std::vector<std::uint64_t> &out =
            width == 1 ? serial : farmed;
        std::vector<std::function<void()>> jobs;
        for (unsigned i = 0; i < 3; ++i) {
            jobs.push_back([&out, &seeds, i] {
                vm::Kernel kernel(smallConfig(seeds[i]));
                apps::Serving app(smallParams());
                app.execute(kernel);
                out[i] = xpr::runDigest(kernel);
            });
        }
        farm::runMany(std::move(jobs), width);
    }
    EXPECT_EQ(serial, farmed);
}

// ---------------------------------------------------------------------
// Workload shape sanity
// ---------------------------------------------------------------------

TEST(ServingWorkload, ChurnsSpacesAndStaysConsistent)
{
    vm::Kernel kernel(smallConfig());
    apps::Serving app(smallParams());
    app.execute(kernel);

    const xpr::MachineStats stats = xpr::MachineStats::capture(kernel);
    // fork/exec/exit churn: COW copies from the inherited image,
    // zero-fills from working sets and mmap bursts, shootdowns from
    // the munmaps and kmem churn.
    EXPECT_GT(stats.cow_copies, 0u);
    EXPECT_GT(stats.zero_fills, 0u);
    EXPECT_GT(stats.shootdowns_initiated, 0u);
    EXPECT_GT(stats.ipis_sent, 0u);
    EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
}

TEST(ServingWorkload, RunsOnNumaMachines)
{
    hw::MachineConfig config;
    config.numa_nodes = 2;
    config.ncpus = 8;
    config.seed = 0x5e12e;
    vm::Kernel kernel(config);
    apps::Serving app(smallParams());
    app.execute(kernel);
    EXPECT_GT(app.requests_completed, 0u);
    EXPECT_TRUE(kernel.pmaps().auditTlbConsistency().empty());
}

} // namespace
} // namespace mach
