/**
 * @file
 * Host-performance harness: wall-clock throughput of the simulator's
 * hot core, tracked from PR to PR via BENCH_host_perf.json.
 *
 * Unlike the table/figure benches (which report *simulated* time),
 * everything here is measured in host nanoseconds:
 *
 *   - event_queue:     schedule/cancel/fire churn through sim::EventQueue,
 *                      in events per host second;
 *   - tlb_churn:       insert/lookup/invalidate/flush churn through one
 *                      hw::Tlb, in ns per lookup;
 *   - shootdown_storm: the Section 5.1 consistency tester on 16 CPUs,
 *                      in simulated us per host ms;
 *   - app suite:       the four Section 5.2 applications (scaled by
 *                      MACH_BENCH_SCALE), same unit;
 *   - explorer_sweep:  a late-window explorer probe batch run serial
 *                      vs farmed (threads x fork snapshots), with a
 *                      bit-identical-results check, in x speedup;
 *   - bench_sweep:     an eight-config application sweep serial vs
 *                      eight farm workers, same unit.
 *
 * The JSON is written to BENCH_host_perf.json in the working directory
 * so CI can archive the perf trajectory.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"

#include "apps/consistency_tester.hh"
#include "chk/explorer.hh"
#include "chk/scenario.hh"
#include "hw/page_table.hh"
#include "hw/phys_mem.hh"
#include "hw/tlb.hh"
#include "kern/cpu.hh"
#include "kern/thread.hh"
#include "sim/context.hh"
#include "sim/event_queue.hh"
#include "vm/task.hh"

namespace
{

using namespace mach;
using Clock = std::chrono::steady_clock;

double
elapsedMs(Clock::time_point begin)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     begin)
        .count();
}

struct Result
{
    std::string name;
    double host_ms = 0;
    std::string metric; ///< Name of the headline rate below.
    double rate = 0;    ///< Higher is better.
    /** Extra named values appended to the bench's JSON row. */
    std::vector<std::pair<std::string, double>> extras;
};

/** Raw-event thunk mirroring Context::wakeTrampoline. */
void
bumpCounter(void *ctx, std::uint64_t)
{
    ++*static_cast<std::uint64_t *>(ctx);
}

/**
 * Schedule one fiber-wake-shaped event exactly the way
 * Context::scheduleWake does on this tree: through the raw thunk path
 * when the queue provides one, through a closure otherwise (the seed
 * queue), so the bench compares like against like across revisions.
 */
template <typename Queue>
sim::EventId
scheduleWakeLike(Queue &queue, Tick when, std::uint64_t *fired)
{
    if constexpr (requires {
                      queue.scheduleRaw(when, &bumpCounter, fired,
                                        std::uint64_t{0});
                  }) {
        return queue.scheduleRaw(when, &bumpCounter, fired, 0);
    } else {
        return queue.schedule(when, [fired] { ++*fired; });
    }
}

/** Dispatch the front event the way Context::run does on this tree. */
template <typename Queue>
Tick
fireFrontLike(Queue &queue)
{
    if constexpr (requires { queue.fireFront(); }) {
        return queue.fireFront();
    } else {
        Tick when = 0;
        queue.popFront(&when)();
        return when;
    }
}

/**
 * Event-queue churn: a rotating window of pending events, a deep
 * backlog, and a cancel-heavy phase -- the mix the kernel's sleep /
 * wake / timer traffic produces (fiber wakes dominate, so events are
 * scheduled the way Context::scheduleWake schedules them). Counts
 * every schedule, cancel, and fire as one "event operation".
 */
Result
benchEventQueue(unsigned scale)
{
    const std::uint64_t rounds = 400'000ull * scale;
    constexpr unsigned kWindow = 512; // Pending events at steady state.
    sim::EventQueue queue;
    std::uint64_t fired = 0;
    std::uint64_t ops = 0;
    const auto begin = Clock::now();

    // Phase 1: steady-state window of pending events.
    Tick now = 0;
    for (unsigned i = 0; i < kWindow; ++i)
        scheduleWakeLike(queue, now + 1 + i % 7, &fired);
    ops += kWindow;
    for (std::uint64_t i = 0; i < rounds; ++i) {
        now = fireFrontLike(queue);
        scheduleWakeLike(queue, now + 1 + i % 13, &fired);
        ops += 2;
    }
    const double fire_ms = elapsedMs(begin);

    // Phase 2: cancel-heavy traffic (sleeps that rarely expire).
    for (std::uint64_t i = 0; i < rounds; ++i) {
        sim::EventId id = scheduleWakeLike(queue, now + 1000, &fired);
        queue.cancel(id);
        ops += 2;
    }
    const double cancel_ms = elapsedMs(begin) - fire_ms;

    // Phase 3: drain the backlog.
    while (!queue.empty()) {
        fireFrontLike(queue);
        ++ops;
    }

    Result r;
    r.name = "event_queue";
    r.host_ms = elapsedMs(begin);
    r.metric = "events_per_sec";
    r.rate = static_cast<double>(ops) / (r.host_ms / 1e3);
    std::printf("  event_queue:      %9.1f ms  %12.0f events/sec "
                "(%llu ops, %llu fired; fire %.1f ms, "
                "cancel %.1f ms)\n",
                r.host_ms, r.rate,
                static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(fired), fire_ms,
                cancel_ms);
    return r;
}

/**
 * Same-tick batch dispatch: the kernel's common shape of many events
 * (wakes, IPIs, bus grants) landing on one tick. Each round schedules
 * a burst at a single tick and drains it through Context::run, so the
 * whole find/sweep/pop round trip of the front bucket is paid once
 * per tick -- the path fireTickBatch optimizes.
 */
Result
benchDispatchBatch(unsigned scale)
{
    const std::uint64_t rounds = 40'000ull * scale;
    constexpr unsigned kBurst = 64;
    sim::Context ctx;
    std::uint64_t fired = 0;
    const auto begin = Clock::now();

    for (std::uint64_t i = 0; i < rounds; ++i) {
        const Tick when = ctx.now() + 1;
        for (unsigned j = 0; j < kBurst; ++j)
            ctx.queue().scheduleRaw(when, &bumpCounter, &fired, 0);
        ctx.run();
    }

    Result r;
    r.name = "dispatch_batch";
    r.host_ms = elapsedMs(begin);
    r.metric = "batched_events_per_sec";
    r.rate = static_cast<double>(fired) / (r.host_ms / 1e3);
    std::printf("  dispatch_batch:   %9.1f ms  %12.0f events/sec "
                "(%llu events in bursts of %u)\n",
                r.host_ms, r.rate,
                static_cast<unsigned long long>(fired), kBurst);
    return r;
}

/**
 * TLB churn: the access pattern a shootdown-heavy workload produces --
 * bursts of hits, misses that insert, page invalidations, space
 * flushes, whole-buffer flushes, and cachesSpace polls.
 */
Result
benchTlbChurn(unsigned scale)
{
    const std::uint64_t rounds = 200'000ull * scale;
    hw::MachineConfig config;
    // Directory scale: the virtual-cache mode runs the same structure
    // at cache size rather than TLB size, which is where per-access
    // host cost matters most.
    config.tlb_entries = 1024;
    hw::PhysMem mem(64);
    hw::Tlb tlb(&config, &mem);
    const unsigned spaces = 8;
    std::uint64_t lookups = 0;
    const auto begin = Clock::now();

    for (std::uint64_t i = 0; i < rounds; ++i) {
        const hw::SpaceId space = 1 + i % spaces;
        const Vpn base = static_cast<Vpn>((i * 5) % 1024);
        // A miss, a fill, then a burst of hits (locality).
        if (!tlb.lookup(space, base, ProtRead, 0).hit)
            tlb.insert(space, base, static_cast<Pfn>(base + 1),
                       ProtReadWrite, false);
        for (unsigned j = 0; j < 6; ++j)
            tlb.lookup(space, base, ProtRead, 0);
        lookups += 7;
        // Consistency traffic.
        if (i % 16 == 0) {
            tlb.invalidatePage(space, base);
        } else if (i % 1024 == 5) {
            tlb.flushSpace(space);
        } else if (i % 8192 == 7) {
            tlb.flushAll();
        }
        if (i % 4 == 0)
            (void)tlb.cachesSpace(space);
    }

    Result r;
    r.name = "tlb_churn";
    r.host_ms = elapsedMs(begin);
    r.metric = "tlb_lookup_ns";
    // Headline: ns per lookup (charge the whole loop to lookups; the
    // mix is fixed, so the number is comparable run to run).
    r.rate = r.host_ms * 1e6 / static_cast<double>(lookups);
    const double l0_probes =
        static_cast<double>(tlb.l0_hits + tlb.l0_misses);
    const double l0_ratio =
        l0_probes > 0 ? static_cast<double>(tlb.l0_hits) / l0_probes
                      : 0.0;
    r.extras.emplace_back("l0_hit_ratio", l0_ratio);
    std::printf("  tlb_churn:        %9.1f ms  %12.1f ns/lookup "
                "(%llu lookups, %llu hits, %llu misses, "
                "L0 hit ratio %.3f)\n",
                r.host_ms, r.rate,
                static_cast<unsigned long long>(lookups),
                static_cast<unsigned long long>(tlb.hits),
                static_cast<unsigned long long>(tlb.misses), l0_ratio);
    return r;
}

/**
 * Page-walk churn: the pteAddr + walk pattern Cpu::access produces on
 * every translation -- concentrated on a handful of hot leaf tables,
 * with periodic PTE rewrites (revocations stay visible because the
 * walk cache holds leaf locations, never PTE contents).
 */
Result
benchPageWalk(unsigned scale)
{
    const std::uint64_t rounds = 400'000ull * scale;
    hw::PhysMem mem(256);
    hw::PageTable table(&mem);
    constexpr unsigned kLeaves = 4;
    constexpr unsigned kSpan = kLeaves * hw::PageTable::kPagesPerLeaf;
    for (Vpn vpn = 0; vpn < kSpan; vpn += 7)
        table.writePte(vpn, hw::pte::make(vpn % 199 + 1,
                                          ProtReadWrite));
    std::uint64_t walks = 0;
    std::uint64_t live_ptes = 0;
    const auto begin = Clock::now();

    for (std::uint64_t i = 0; i < rounds; ++i) {
        const Vpn vpn = static_cast<Vpn>((i * 7) % kSpan);
        if (table.pteAddr(vpn) != 0)
            live_ptes += hw::pte::valid(table.walk(vpn).pte);
        ++walks;
        if (i % 1024 == 9)
            table.writePte(vpn, hw::pte::make(vpn % 97 + 1,
                                              ProtRead));
    }

    Result r;
    r.name = "page_walk";
    r.host_ms = elapsedMs(begin);
    r.metric = "walk_ns";
    r.rate = r.host_ms * 1e6 / static_cast<double>(walks);
    const double probes = static_cast<double>(
        table.walkCacheHits() + table.walkCacheMisses());
    const double ratio =
        probes > 0
            ? static_cast<double>(table.walkCacheHits()) / probes
            : 0.0;
    r.extras.emplace_back("walk_cache_hit_ratio", ratio);
    std::printf("  page_walk:        %9.1f ms  %12.1f ns/walk "
                "(%llu walks, %llu valid, walk-cache hit ratio "
                "%.3f)\n",
                r.host_ms, r.rate,
                static_cast<unsigned long long>(walks),
                static_cast<unsigned long long>(live_ptes), ratio);
    return r;
}

/** The Section 5.1 tester as a 16-CPU shootdown storm. */
Result
benchShootdownStorm(unsigned scale)
{
    setLogQuiet(true);
    const auto begin = Clock::now();
    Tick sim_time = 0;
    for (unsigned round = 0; round < scale; ++round) {
        hw::MachineConfig config;
        config.seed = 0x5702 + round;
        vm::Kernel kernel(config);
        apps::ConsistencyTester tester(
            {.children = 12, .warmup = 20 * kMsec});
        tester.execute(kernel);
        if (!tester.consistent())
            fatal("host_perf: shootdown storm detected inconsistency");
        sim_time += kernel.machine().now();
    }

    Result r;
    r.name = "shootdown_storm";
    r.host_ms = elapsedMs(begin);
    r.metric = "sim_us_per_host_ms";
    r.rate = static_cast<double>(sim_time / kUsec) / r.host_ms;
    std::printf("  shootdown_storm:  %9.1f ms  %12.1f sim-us/host-ms\n",
                r.host_ms, r.rate);
    return r;
}

/** The four Section 5.2 applications, sequentially, on fresh kernels. */
Result
benchAppSuite()
{
    setLogQuiet(true);
    const auto begin = Clock::now();
    Tick sim_time = 0;
    std::uint64_t events = 0;
    std::uint64_t elided = 0;
    for (unsigned index = 0; index < 4; ++index) {
        const bench::AppRun run = bench::runApp(index, {});
        sim_time += run.runtime;
        events += run.events;
        elided += run.elided_wakes;
    }

    Result r;
    r.name = "app_suite";
    r.host_ms = elapsedMs(begin);
    r.metric = "sim_us_per_host_ms";
    r.rate = static_cast<double>(sim_time / kUsec) / r.host_ms;
    // Informational: the share of events whose fiber wake the run loop
    // took inline (Context::blockUntil) instead of queueing.
    const double elided_share =
        events > 0 ? static_cast<double>(elided) / events : 0.0;
    r.extras.emplace_back("elided_wake_share", elided_share);
    std::printf("  app_suite:        %9.1f ms  %12.1f sim-us/host-ms "
                "(elided wake share %.3f)\n",
                r.host_ms, r.rate, elided_share);
    return r;
}

/** FNV-1a fold for the cross-mode equivalence check below. */
std::uint64_t
foldU64(std::uint64_t hash, std::uint64_t value)
{
    for (unsigned i = 0; i < 8; ++i) {
        hash ^= (value >> (8 * i)) & 0xff;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/**
 * The explorer sweep's workload: a writer storm whose warmup prefix
 * dominates the run (three tight-loop writers churning for a long
 * stretch) followed by a short reprotect tail. The library scenarios
 * keep their warmups small so campaigns stay quick; this one is
 * deliberately prefix-heavy because the bench measures how much of
 * that prefix the farm's fork snapshots recover when every probe
 * targets the tail.
 */
chk::Scenario
sweepScenario()
{
    chk::Scenario s;
    s.name = "host-perf-sweep";
    s.summary = "deep warmup prefix, late reprotect tail";
    s.config.ncpus = 6;
    s.config.seed = 0x5eed5eedull;
    s.bound = 600 * kMsec;
    s.launch = [](vm::Kernel &kernel, chk::ScenarioState *state) {
        vm::Kernel *kp = &kernel;
        kernel.start();
        kernel.spawnThread(
            nullptr, "sweep-driver",
            [kp, state](kern::Thread &drv) {
                vm::Kernel &kernel = *kp;
                vm::Task *task = kernel.createTask("sweep");
                constexpr unsigned kWriters = 3;
                VAddr base = 0;
                if (!kernel.vmAllocate(drv, *task, &base,
                                       kWriters * kPageSize, true)) {
                    state->predicate_ok = false;
                    state->note = "vmAllocate failed";
                    state->finished = true;
                    kernel.machine().ctx().requestStop();
                    return;
                }
                bool stop = false;
                std::vector<kern::Thread *> kids;
                for (unsigned i = 0; i < kWriters; ++i) {
                    kids.push_back(kernel.spawnThread(
                        task, "sweep-writer",
                        [kp, va = base + i * kPageSize,
                         &stop](kern::Thread &self) {
                            vm::Kernel &kernel = *kp;
                            std::uint32_t n = 0;
                            while (!stop) {
                                kern::AccessResult r =
                                    self.access(va, ProtWrite);
                                if (r.ok)
                                    kernel.machine().mem().write32(
                                        r.paddr, ++n);
                                self.cpu().advance(40 * kUsec);
                            }
                        },
                        1 + static_cast<std::int64_t>(i)));
                }
                drv.sleep(150 * kMsec); // The deep shared prefix.
                for (unsigned round = 0; round < 2; ++round) {
                    if (!kernel.vmProtect(drv, *task, base,
                                          kWriters * kPageSize,
                                          ProtRead) ||
                        !kernel.vmProtect(drv, *task, base,
                                          kWriters * kPageSize,
                                          ProtReadWrite)) {
                        state->predicate_ok = false;
                        state->note = "vmProtect failed";
                    }
                    drv.sleep(2 * kMsec);
                }
                stop = true;
                for (kern::Thread *t : kids)
                    drv.join(*t);
                state->finished = true;
                kernel.machine().ctx().requestStop();
            },
            0);
    };
    return s;
}

/**
 * The explorer probe batch through the run farm: one late-window
 * single-delay probe set over the prefix-heavy sweep scenario,
 * executed four ways -- serial, 8 worker threads, fork snapshots, and
 * both -- with a digest-equality check that all four modes saw
 * bit-identical trials. The headline is the farmed speedup over the
 * serial sweep; on a single-core host it is carried almost entirely
 * by snapshot prefix reuse (each probe fork-clones the parked warmup
 * instead of re-simulating it), with thread scaling on top where
 * cores exist.
 */
Result
benchExplorerSweep(unsigned scale)
{
    setLogQuiet(true);
    const chk::Scenario scenario_obj = sweepScenario();
    const chk::Scenario *scenario = &scenario_obj;

    // Baseline run sizes the perturbation index space.
    const chk::Explorer sizer;
    const chk::TrialResult baseline = sizer.runTrial(*scenario, {});
    if (baseline.failed())
        fatal("host_perf: sweep scenario baseline failed");

    // Late-window probes: every delay lands past 90% of the run, so
    // the shared prefix is deep enough to be worth snapshotting.
    const unsigned count = 24 * scale;
    const std::uint64_t lo = baseline.events_fired * 9 / 10;
    const std::uint64_t span = baseline.events_fired - lo;
    constexpr Tick kLadder[] = {30 * kUsec, 120 * kUsec, 500 * kUsec,
                                1500 * kUsec};
    std::vector<SchedulePerturber> probes(count);
    for (unsigned i = 0; i < count; ++i)
        probes[i].delayEvent(lo + span * i / count,
                             kLadder[i % std::size(kLadder)]);

    struct Mode
    {
        const char *name;
        farm::FarmOptions farm;
        double host_ms = 0;
    };
    Mode modes[] = {
        {"serial", {1, false}},
        {"jobs8", {8, false}},
        {"snapshots", {1, true}},
        {"jobs8+snapshots", {8, true}},
    };

    const auto begin = Clock::now();
    std::uint64_t folds[std::size(modes)];
    for (std::size_t m = 0; m < std::size(modes); ++m) {
        const chk::Explorer explorer(nullptr, modes[m].farm);
        const auto mode_begin = Clock::now();
        const std::vector<chk::TrialResult> trials =
            explorer.runTrials(*scenario, probes);
        modes[m].host_ms = elapsedMs(mode_begin);
        std::uint64_t fold = 0xcbf29ce484222325ull;
        for (const chk::TrialResult &t : trials) {
            fold = foldU64(fold, t.completed);
            fold = foldU64(fold, t.predicate_ok);
            fold = foldU64(fold, t.violation_count);
            fold = foldU64(fold, t.events_fired);
            fold = foldU64(fold, t.digest);
        }
        folds[m] = fold;
    }
    for (std::size_t m = 1; m < std::size(modes); ++m) {
        if (folds[m] != folds[0])
            fatal("host_perf: explorer_sweep mode %s diverged from "
                  "serial (0x%llx != 0x%llx)",
                  modes[m].name,
                  static_cast<unsigned long long>(folds[m]),
                  static_cast<unsigned long long>(folds[0]));
    }

    Result r;
    r.name = "explorer_sweep";
    r.host_ms = elapsedMs(begin);
    r.metric = "sweep_speedup_x";
    r.rate = modes[0].host_ms /
             std::max(1e-3, modes[std::size(modes) - 1].host_ms);
    std::printf("  explorer_sweep:   %9.1f ms  %12.2f x speedup "
                "(%u probes over %llu events; serial %.0f ms, "
                "jobs8 %.0f ms, snapshots %.0f ms, "
                "jobs8+snapshots %.0f ms; all modes "
                "bit-identical)\n",
                r.host_ms, r.rate, count,
                static_cast<unsigned long long>(baseline.events_fired),
                modes[0].host_ms, modes[1].host_ms, modes[2].host_ms,
                modes[3].host_ms);
    return r;
}

/**
 * The bench-sweep path through the run farm: the four Section 5.2
 * applications under two configurations each (eight fresh machines),
 * serial vs farmed, with a virtual-runtime equality check. The farmed
 * width comes from bench::farmWidth(8): the sweep is pure simulation
 * with no shared prefix to reuse, so farming wins only with real host
 * cores to spread over -- on a 1-core host, 8 oversubscribed workers
 * measured 0.90x, a pure context-switch tax. When the clamp leaves a
 * width of 1 the sweep opts out of farming and reports 1.00x serial
 * by definition (MACH_BENCH_JOBS overrides the clamp either way).
 */
Result
benchBenchSweep()
{
    setLogQuiet(true);
    std::vector<bench::SweepSpec> specs;
    for (unsigned app = 0; app < 4; ++app) {
        bench::SweepSpec plain;
        plain.app = app;
        specs.push_back(plain);
        bench::SweepSpec multicast;
        multicast.app = app;
        multicast.config.multicast_ipi = true;
        specs.push_back(multicast);
    }
    const unsigned width = bench::farmWidth(8);

    const auto begin = Clock::now();
    const std::vector<bench::AppRun> serial =
        bench::runAppSweep(specs, 1);
    const double serial_ms = elapsedMs(begin);

    Result r;
    r.name = "bench_sweep";
    r.metric = "sweep_speedup_x";
    r.extras.emplace_back("farm_jobs", width);
    // Report the actual host parallelism next to the clamped width:
    // a 1.9x speedup means something different on 2 cores than on 32.
    r.extras.emplace_back("host_cores", bench::hostCores());
    if (width <= 1) {
        r.host_ms = elapsedMs(begin);
        r.rate = 1.0;
        std::printf("  bench_sweep:      %9.1f ms  %12.2f x speedup "
                    "(8 configs, serial opt-out: %u host core(s), "
                    "nothing to farm over; set MACH_BENCH_JOBS to "
                    "force a width)\n",
                    r.host_ms, r.rate, bench::hostCores());
        return r;
    }

    const std::vector<bench::AppRun> farmed =
        bench::runAppSweep(specs, width);
    const double farmed_ms = elapsedMs(begin) - serial_ms;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (serial[i].runtime != farmed[i].runtime)
            fatal("host_perf: bench_sweep run %zu diverged across "
                  "farm widths",
                  i);
    }

    r.host_ms = elapsedMs(begin);
    r.rate = serial_ms / std::max(1e-3, farmed_ms);
    std::printf("  bench_sweep:      %9.1f ms  %12.2f x speedup "
                "(8 configs; serial %.0f ms, jobs%u %.0f ms, "
                "runtimes identical)\n",
                r.host_ms, r.rate, serial_ms, width, farmed_ms);
    return r;
}

void
writeJson(const std::vector<Result> &results, unsigned scale)
{
    std::FILE *out = std::fopen("BENCH_host_perf.json", "w");
    if (out == nullptr)
        fatal("host_perf: cannot write BENCH_host_perf.json");
    std::fprintf(out, "{\n  \"bench\": \"host_perf\",\n"
                      "  \"scale\": %u,\n  \"results\": {\n",
                 scale);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Result &r = results[i];
        std::fprintf(out, "    \"%s\": {\"host_ms\": %.3f, \"%s\": %.3f",
                     r.name.c_str(), r.host_ms, r.metric.c_str(),
                     r.rate);
        for (const auto &[key, value] : r.extras)
            std::fprintf(out, ", \"%s\": %.3f", key.c_str(), value);
        std::fprintf(out, "}%s\n", i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "  }\n}\n");
    std::fclose(out);
}

} // namespace

int
main()
{
    const unsigned scale = mach::bench::benchScale();
    std::printf("host_perf: wall-clock simulator-core benchmarks "
                "(scale %u)\n", scale);

    std::vector<Result> results;
    results.push_back(benchEventQueue(scale));
    results.push_back(benchDispatchBatch(scale));
    results.push_back(benchTlbChurn(scale));
    results.push_back(benchPageWalk(scale));
    results.push_back(benchShootdownStorm(scale));
    results.push_back(benchAppSuite());
    results.push_back(benchExplorerSweep(scale));
    results.push_back(benchBenchSweep());
    writeJson(results, scale);
    std::printf("wrote BENCH_host_perf.json\n");
    return 0;
}
