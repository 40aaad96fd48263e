/**
 * @file
 * Consistency-strategy comparison: the paper's Section 3 choice
 * (shootdown vs timer-driven delayed flush) plus the post-1989
 * shootdown-avoidance policies measured against the Figure 1 baseline.
 *
 * Part 1 reproduces the Section 3 argument: the kernel "relies on the
 * first technique [shootdown] because the additional buffer flushes
 * required by the second technique can be expensive on some
 * architectures". Both strategies run the Section 5.1 tester (latency)
 * and Agora (machine-wide TLB effectiveness).
 *
 * Part 2 is the policy x application matrix for the avoidance
 * policies (--shootdown-policy, src/pmap/shootdown.hh): every
 * policy runs the four Section 5.2 applications, a multiprogramming
 * mix, and the same mix on a 2-node NUMA shape, reporting total IPIs
 * (and the saving vs the Figure 1 baseline), per-operation initiator
 * latency, and the policy's own avoidance counters. The mix is built
 * so each avoidance mechanism has honest work to do:
 *
 *  - more runnable threads than processors, with sleeps, so address
 *    spaces context-switch constantly (LazyAsid's deferred flushes,
 *    Batched's mid-service merges);
 *  - wired DMA-style buffers that are faulted in by vmWire but never
 *    touched by any processor, then freed -- valid PTEs whose
 *    reference bits are still clear, the provably-uncached case
 *    ReuseElide can skip (arXiv 2409.10946's reused-mmap shape);
 *  - write-revocations on hot pages that every policy must still
 *    shoot down, keeping the elision honest.
 *
 * Part 2 closes with the serving tier's per-request attribution
 * (obs/request.hh) replayed under every policy: of the mean request's
 * microseconds, how many went to compute, faults, TLB-refill walks,
 * posting shootdown IPIs, spinning on responders, and servicing other
 * initiators' shootdowns? The avoidance policies should shrink the
 * shootdown components while leaving compute untouched -- the
 * per-request view of the same saving the IPI counters report in
 * aggregate.
 *
 * Simulated numbers are deterministic for a given scale, so the JSON
 * written to BENCH_strategy.json is a committable baseline: CI
 * requires a fresh run to match the committed file byte for byte and
 * archives it per run.
 */

#include "bench_common.hh"

#include <algorithm>

#include "apps/consistency_tester.hh"
#include "apps/serving.hh"
#include "base/rng.hh"
#include "hw/machine_config.hh"
#include "obs/metrics.hh"
#include "obs/recorder.hh"
#include "pmap/shootdown.hh"
#include "xpr/machine_stats.hh"

using namespace mach;
using namespace mach::bench;

namespace
{

// ---- Part 1: Section 3, shootdown vs delayed flush -------------------

struct StrategyResult
{
    bool consistent = false;
    double op_latency_usec = 0.0;
    double agora_runtime_ms = 0.0;
    std::uint64_t tlb_misses = 0;
    std::uint64_t full_flushes = 0;
};

StrategyResult
measure(hw::ShootdownPolicy technique)
{
    StrategyResult out;

    // Per-operation latency: the Section 5.1 tester's single
    // reprotect, 8 processors involved.
    {
        hw::MachineConfig config;
        config.setShootdownPolicy(technique);
        config.seed = 0x57a7e6;
        vm::Kernel kernel(config);
        apps::ConsistencyTester tester(
            {.children = 8, .warmup = 30 * kMsec});
        const apps::WorkloadResult result = tester.execute(kernel);
        out.consistent = tester.consistent();
        out.op_latency_usec =
            result.analysis.user_initiator.time_usec.mean();
    }

    // Whole-application effect: Agora re-reads its shared regions, so
    // the periodic whole-buffer flushes of technique 2 show up as
    // extra TLB misses (refill traffic) on top of the flush cost.
    {
        hw::MachineConfig config;
        config.setShootdownPolicy(technique);
        config.seed = 0x57a7e6;
        vm::Kernel kernel(config);
        apps::Agora app(apps::Agora::Params{});
        const apps::WorkloadResult result = app.execute(kernel);
        out.agora_runtime_ms =
            static_cast<double>(result.virtual_runtime) / kMsec;
        for (CpuId id = 0; id < kernel.machine().ncpus(); ++id) {
            out.tlb_misses += kernel.machine().cpu(id).tlb().misses;
            out.full_flushes +=
                kernel.machine().cpu(id).tlb().full_flushes;
        }
    }
    return out;
}

int
runStrategyPart()
{
    // The two strategies are independent machines: measure both on
    // the bench farm, then print in fixed order.
    StrategyResult shoot;
    StrategyResult delayed;
    runFarmed(
        {[&] { shoot = measure(hw::ShootdownPolicy::Baseline); },
         [&] {
             delayed = measure(hw::ShootdownPolicy::DelayedFlush);
         }});

    std::printf("Section 3: shootdown vs timer-driven delayed "
                "flush\n\n");
    std::printf("%-16s %10s %14s %12s %12s %12s\n", "strategy",
                "consistent", "reprotect(us)", "agora(ms)",
                "TLB misses", "full flushes");
    std::printf("%-16s %10s %14.0f %12.0f %12llu %12llu\n",
                "shootdown", shoot.consistent ? "yes" : "NO",
                shoot.op_latency_usec, shoot.agora_runtime_ms,
                static_cast<unsigned long long>(shoot.tlb_misses),
                static_cast<unsigned long long>(shoot.full_flushes));
    std::printf("%-16s %10s %14.0f %12.0f %12llu %12llu\n",
                "delayed-flush", delayed.consistent ? "yes" : "NO",
                delayed.op_latency_usec, delayed.agora_runtime_ms,
                static_cast<unsigned long long>(delayed.tlb_misses),
                static_cast<unsigned long long>(delayed.full_flushes));

    if (!shoot.consistent || !delayed.consistent)
        return 1;
    std::printf("\nmapping-change latency penalty of delayed flush: "
                "%.1fx\n",
                delayed.op_latency_usec /
                    std::max(1.0, shoot.op_latency_usec));
    std::printf("(the paper, Section 3: Mach relies on shootdown "
                "because the additional buffer\nflushes required by "
                "the delay technique can be expensive)\n");
    return 0;
}

// ---- Part 2: shootdown-avoidance policy matrix -----------------------

/**
 * Multiprogramming mix: params_.tasks address spaces, each with
 * params_.threads unpinned threads, oversubscribing the processors so
 * spaces context-switch constantly. Every thread keeps a private
 * working set hot; thread 0 of each task additionally cycles a wired
 * never-touched DMA buffer (wire, "device fills it", unwire, free)
 * and revokes/restores write access on a hot page each round.
 */
class MultiMix : public apps::Workload
{
  public:
    struct Params
    {
        unsigned tasks = 6;
        unsigned threads = 3;
        unsigned rounds = 6;
        std::uint64_t seed = 0x4d495821ull;
    };

    explicit MultiMix(Params params) : params_(params) {}

    std::string name() const override { return "mix"; }

    void
    run(vm::Kernel &kernel, kern::Thread &driver) override
    {
        std::vector<vm::Task *> tasks;
        std::vector<kern::Thread *> mappers;
        std::vector<kern::Thread *> siblings;
        for (unsigned t = 0; t < params_.tasks; ++t) {
            vm::Task *task =
                kernel.createTask("mix" + std::to_string(t));
            tasks.push_back(task);
            mappers.push_back(kernel.spawnThread(
                task, "mix" + std::to_string(t) + ".map",
                [this, &kernel, t](kern::Thread &self) {
                    mapper(kernel, self, t);
                }));
            for (unsigned w = 1; w < params_.threads; ++w) {
                siblings.push_back(kernel.spawnThread(
                    task,
                    "mix" + std::to_string(t) + "." +
                        std::to_string(w),
                    [this, &kernel, t, w](kern::Thread &self) {
                        sibling(kernel, self, t, w);
                    }));
            }
        }
        // Siblings spin until every mapper has issued its last
        // mapping change, so the changes always have live remote
        // users of the space to shoot down (or avoid).
        for (kern::Thread *thread : mappers)
            driver.join(*thread);
        stop_ = true;
        for (kern::Thread *thread : siblings)
            driver.join(*thread);
        for (vm::Task *task : tasks)
            kernel.destroyTask(driver, task);
    }

  private:
    /**
     * Worker threads 1..threads-1 of each task: keep the space's
     * translations hot and the space in use on other processors,
     * with occasional sleeps so spaces still context-switch.
     */
    void
    sibling(vm::Kernel &kernel, kern::Thread &self,
            unsigned task_index, unsigned thread_index)
    {
        Rng rng(params_.seed + task_index * 7919 +
                thread_index * 131);
        VAddr ws = allocWorkingSet(kernel, self);
        unsigned round = 0;
        while (!stop_) {
            touchWorkingSet(self, ws, round++);
            self.compute(Tick(rng.exponential(1.5) * kMsec));
            if (rng.chance(0.25))
                self.sleep(Tick(rng.exponential(2.0) * kMsec));
        }
    }

    /** Thread 0 of each task: the mapping-change traffic. */
    void
    mapper(vm::Kernel &kernel, kern::Thread &self,
           unsigned task_index)
    {
        Rng rng(params_.seed + task_index * 7919);
        vm::Task &task = *self.task();
        VAddr ws = allocWorkingSet(kernel, self);

        for (unsigned round = 0; round < params_.rounds; ++round) {
            touchWorkingSet(self, ws, round);
            self.compute(Tick(rng.exponential(1.0) * kMsec));

            // DMA-style buffers: vmWire faults the pages in without
            // any processor touching them (reference bits stay
            // clear), the device "fills" them, and the free is the
            // provably-uncached consistency action ReuseElide can
            // skip. Under the baseline each free is a full shootdown
            // of every processor running this space.
            for (unsigned io = 0; io < 2; ++io) {
                VAddr buf = 0;
                bool ok = kernel.vmAllocate(self, task, &buf,
                                            kDmaPages * kPageSize,
                                            true);
                MACH_ASSERT(ok);
                ok = kernel.vmWire(self, task, buf,
                                   kDmaPages * kPageSize, true);
                MACH_ASSERT(ok);
                self.compute(Tick(rng.exponential(0.5) * kMsec));
                ok = kernel.vmWire(self, task, buf,
                                   kDmaPages * kPageSize, false);
                MACH_ASSERT(ok);
                ok = kernel.vmDeallocate(self, task, buf,
                                         kDmaPages * kPageSize);
                MACH_ASSERT(ok);
            }

            // Write revocation on a hot page: referenced in every
            // sibling's TLB, so no policy may elide it.
            const bool ok =
                kernel.vmProtect(self, task, ws, kPageSize,
                                 ProtRead) &&
                kernel.vmProtect(self, task, ws, kPageSize,
                                 ProtReadWrite);
            MACH_ASSERT(ok);

            // Sleep off the processor so other tasks' spaces get
            // context-loaded over this one (LazyAsid's deferral and
            // context-load-flush material).
            self.sleep(Tick(rng.exponential(2.0) * kMsec));
        }
    }

    VAddr
    allocWorkingSet(vm::Kernel &kernel, kern::Thread &self)
    {
        VAddr ws = 0;
        const bool ok = kernel.vmAllocate(self, *self.task(), &ws,
                                          kWsPages * kPageSize, true);
        MACH_ASSERT(ok);
        return ws;
    }

    void
    touchWorkingSet(kern::Thread &self, VAddr ws, unsigned round)
    {
        for (unsigned p = 0; p < kWsPages; ++p) {
            MACH_ASSERT(
                self.store32(ws + p * kPageSize, 0x6d690000 + round));
        }
    }

    static constexpr unsigned kWsPages = 8;
    static constexpr unsigned kDmaPages = 16;

    Params params_;
    bool stop_ = false;
};

constexpr hw::ShootdownPolicy kPolicies[] = {
    hw::ShootdownPolicy::Baseline,
    hw::ShootdownPolicy::LazyAsid,
    hw::ShootdownPolicy::Batched,
    hw::ShootdownPolicy::RangeFlush,
    hw::ShootdownPolicy::ReuseElide,
};
constexpr unsigned kNumPolicies = std::size(kPolicies);

/** Matrix columns: the four Section 5.2 applications plus the mixes. */
constexpr unsigned kNumShapes = 6;
constexpr unsigned kShapeMix = 4;
constexpr unsigned kShapeNumaMix = 5;

const char *
shapeLabel(unsigned shape)
{
    static const char *labels[] = {"Mach",    "Parthenon", "Agora",
                                   "Camelot", "Mix",       "NUMA-Mix"};
    return labels[shape];
}

/** Machine shape for a matrix column (policy not yet applied). */
hw::MachineConfig
shapeConfig(unsigned shape)
{
    hw::MachineConfig config;
    config.seed = 0x57a7e6;
    if (shape >= kShapeMix) {
        // Oversubscribed small machine: 6 tasks x 3 threads on 8
        // processors forces the context switching the mix is about.
        config.ncpus = 8;
    }
    if (shape == kShapeNumaMix)
        config.numa_nodes = 2;
    return config;
}

/** Apply @p policy and its implied hardware knobs to @p config. */
hw::MachineConfig
policyConfig(hw::ShootdownPolicy policy, hw::MachineConfig config)
{
    config.setShootdownPolicy(policy);
    return config;
}

/** One policy x shape measurement. */
struct Cell
{
    xpr::MachineStats stats;
    double latency_usec = 0.0;
    /** Initiator-latency tail from the shoot.initiator_us histogram
     *  (stats-only recording; timing-neutral, so the mean above is
     *  unchanged by measuring it). */
    std::uint64_t latency_p99_usec = 0;
    std::uint64_t latency_p999_usec = 0;
    double runtime_ms = 0.0;
};

Cell
runCell(unsigned shape, const hw::MachineConfig &config)
{
    vm::Kernel kernel(config);
    kernel.machine().recorder().enableStats();
    std::unique_ptr<apps::Workload> app;
    if (shape < 4) {
        app = makeApp(shape);
    } else {
        MultiMix::Params params;
        params.rounds *= benchScale();
        app = std::make_unique<MultiMix>(params);
    }
    const apps::WorkloadResult result = app->execute(kernel);

    Cell cell;
    cell.stats = xpr::MachineStats::capture(kernel);
    obs::Histogram &initiator =
        kernel.machine().recorder().metrics().histogram(
            "shoot.initiator_us");
    cell.latency_p99_usec = initiator.percentileMille(990);
    cell.latency_p999_usec = initiator.percentileMille(999);
    cell.runtime_ms =
        static_cast<double>(result.virtual_runtime) / kMsec;
    // Initiator latency: user operations where the workload has
    // them, kernel-pmap operations otherwise (Mach build's kmem
    // frees).
    const Sample &user = result.analysis.user_initiator.time_usec;
    cell.latency_usec =
        !user.empty()
            ? user.mean()
            : result.analysis.kernel_initiator.time_usec.mean();
    return cell;
}

/** Per-policy Section 5.1 tester run: safety smoke + reprotect cost. */
struct TesterCell
{
    bool consistent = false;
    double reprotect_usec = 0.0;
};

TesterCell
runTester(hw::ShootdownPolicy policy)
{
    hw::MachineConfig config =
        policyConfig(policy, hw::MachineConfig{});
    config.seed = 0x57a7e6;
    vm::Kernel kernel(config);
    apps::ConsistencyTester tester(
        {.children = 8, .warmup = 30 * kMsec});
    const apps::WorkloadResult result = tester.execute(kernel);
    TesterCell cell;
    cell.consistent = tester.consistent();
    cell.reprotect_usec =
        result.analysis.user_initiator.time_usec.mean();
    return cell;
}

// ---- Part 2b: per-request attribution by policy ----------------------

/** One policy's serving-tier run, decomposed per request. */
struct ServingCell
{
    std::uint64_t requests = 0;
    double mean_usec = 0.0;
    std::uint64_t p99_usec = 0;
    /** Mean us/request banked to each obs::ReqComponent. */
    double component_usec[obs::kReqComponents] = {};
};

ServingCell
runServing(hw::ShootdownPolicy policy)
{
    hw::MachineConfig config =
        policyConfig(policy, hw::MachineConfig{});
    config.seed = 0x5e12e;
    config.ncpus = 8;
    vm::Kernel kernel(config);
    kernel.machine().recorder().enableStats();
    apps::Serving::Params params;
    params.requests_per_tenant *= benchScale();
    apps::Serving app(params);
    app.execute(kernel);

    ServingCell cell;
    cell.requests = app.requests_completed;
    if (cell.requests == 0)
        return cell;
    const double n = static_cast<double>(cell.requests);
    cell.mean_usec =
        static_cast<double>(app.request_ticks) / n / kUsec;
    cell.p99_usec = kernel.machine()
                        .recorder()
                        .metrics()
                        .histogram("serve.request_us")
                        .percentileMille(990);
    for (unsigned c = 0; c < obs::kReqComponents; ++c) {
        cell.component_usec[c] =
            static_cast<double>(app.component_ticks[c]) / n / kUsec;
    }
    return cell;
}

double
savedPct(std::uint64_t baseline, std::uint64_t got)
{
    if (baseline == 0)
        return 0.0;
    return 100.0 *
           (static_cast<double>(baseline) -
            static_cast<double>(got)) /
           static_cast<double>(baseline);
}

void
writeJson(const Cell cells[][kNumShapes], const TesterCell *testers,
          const ServingCell *servings, unsigned scale)
{
    JsonTable table("strategy_comparison", scale);
    for (unsigned p = 0; p < kNumPolicies; ++p) {
        const std::string policy = hw::shootdownPolicyName(kPolicies[p]);
        table.cell(policy + "__tester");
        table.field("consistent", std::uint64_t{testers[p].consistent});
        table.field("reprotect_usec", testers[p].reprotect_usec);
        for (unsigned s = 0; s < kNumShapes; ++s) {
            const Cell &cell = cells[p][s];
            const xpr::MachineStats &st = cell.stats;
            table.cell(policy + "__" + shapeLabel(s));
            table.field("ipis", st.ipis_sent);
            table.field("ipis_saved_pct",
                        savedPct(cells[0][s].stats.ipis_sent, st.ipis_sent));
            table.field("shootdowns", st.shootdowns_initiated);
            table.field("latency_usec", cell.latency_usec);
            table.field("latency_p99_us", cell.latency_p99_usec);
            table.field("latency_p999_us", cell.latency_p999_usec);
            table.field("runtime_ms", cell.runtime_ms);
            table.field("ipis_elided", st.ipis_elided);
            table.field("flushes_deferred", st.flushes_deferred);
            table.field("actions_merged", st.actions_merged);
            table.field("range_invalidates", st.range_invalidates);
            table.field("full_space_flushes", st.full_space_flushes);
            table.field("reuse_elisions", st.reuse_elisions);
        }
    }
    for (unsigned p = 0; p < kNumPolicies; ++p) {
        const ServingCell &serving = servings[p];
        table.cell(std::string(hw::shootdownPolicyName(kPolicies[p])) +
                   "__serving");
        table.field("requests", serving.requests);
        table.field("mean_usec", serving.mean_usec);
        table.field("p99_us", serving.p99_usec);
        for (unsigned c = 0; c < obs::kReqComponents; ++c) {
            table.field(std::string(obs::reqComponentName(
                            static_cast<obs::ReqComponent>(c))) +
                            "_usec",
                        serving.component_usec[c]);
        }
    }
    table.write("BENCH_strategy.json");
}

int
runPolicyPart()
{
    const unsigned scale = benchScale();

    // One fresh machine per cell (plus one tester per policy), all
    // farmed; results land in indexed slots so tables stay ordered.
    static Cell cells[kNumPolicies][kNumShapes];
    static TesterCell testers[kNumPolicies];
    static ServingCell servings[kNumPolicies];
    std::vector<std::function<void()>> jobs;
    for (unsigned p = 0; p < kNumPolicies; ++p) {
        jobs.push_back([p] { testers[p] = runTester(kPolicies[p]); });
        jobs.push_back(
            [p] { servings[p] = runServing(kPolicies[p]); });
        for (unsigned s = 0; s < kNumShapes; ++s)
            jobs.push_back([p, s] {
                cells[p][s] = runCell(
                    s, policyConfig(kPolicies[p], shapeConfig(s)));
            });
    }
    runFarmed(std::move(jobs));

    std::printf("\n\nBeyond 1989: shootdown-avoidance policies "
                "(--shootdown-policy)\n");
    std::printf("\nIPIs sent (saving vs the Figure 1 baseline)\n");
    std::printf("%-10s", "app");
    for (unsigned p = 0; p < kNumPolicies; ++p)
        std::printf(" %17s", hw::shootdownPolicyName(kPolicies[p]));
    std::printf("\n");
    for (unsigned s = 0; s < kNumShapes; ++s) {
        std::printf("%-10s", shapeLabel(s));
        for (unsigned p = 0; p < kNumPolicies; ++p) {
            const std::uint64_t ipis = cells[p][s].stats.ipis_sent;
            if (p == 0) {
                std::printf(" %10llu       ",
                            static_cast<unsigned long long>(ipis));
            } else {
                std::printf(" %10llu %5.1f%%",
                            static_cast<unsigned long long>(ipis),
                            savedPct(cells[0][s].stats.ipis_sent,
                                     ipis));
            }
        }
        std::printf("\n");
    }

    std::printf("\nper-operation initiator latency (us)\n");
    std::printf("%-10s", "app");
    for (unsigned p = 0; p < kNumPolicies; ++p)
        std::printf(" %17s", hw::shootdownPolicyName(kPolicies[p]));
    std::printf("\n");
    for (unsigned s = 0; s < kNumShapes; ++s) {
        std::printf("%-10s", shapeLabel(s));
        for (unsigned p = 0; p < kNumPolicies; ++p)
            std::printf(" %17.0f", cells[p][s].latency_usec);
        std::printf("\n");
    }

    std::printf("\ninitiator latency tail, p99 / p999 (us, from the "
                "shoot.initiator_us histogram)\n");
    std::printf("%-10s", "app");
    for (unsigned p = 0; p < kNumPolicies; ++p)
        std::printf(" %17s", hw::shootdownPolicyName(kPolicies[p]));
    std::printf("\n");
    for (unsigned s = 0; s < kNumShapes; ++s) {
        std::printf("%-10s", shapeLabel(s));
        for (unsigned p = 0; p < kNumPolicies; ++p) {
            char tail[32];
            std::snprintf(
                tail, sizeof(tail), "%llu/%llu",
                static_cast<unsigned long long>(
                    cells[p][s].latency_p99_usec),
                static_cast<unsigned long long>(
                    cells[p][s].latency_p999_usec));
            std::printf(" %17s", tail);
        }
        std::printf("\n");
    }

    std::printf("\nSection 5.1 tester (8 processors): consistency + "
                "reprotect cost\n");
    for (unsigned p = 0; p < kNumPolicies; ++p) {
        std::printf("  %-12s %-4s %8.0f us\n",
                    hw::shootdownPolicyName(kPolicies[p]),
                    testers[p].consistent ? "yes" : "NO",
                    testers[p].reprotect_usec);
    }

    std::printf("\navoidance counters, summed over the matrix row\n");
    for (unsigned p = 1; p < kNumPolicies; ++p) {
        xpr::MachineStats sum;
        for (unsigned s = 0; s < kNumShapes; ++s) {
            const xpr::MachineStats &st = cells[p][s].stats;
            sum.ipis_elided += st.ipis_elided;
            sum.flushes_deferred += st.flushes_deferred;
            sum.deferred_flushes_applied +=
                st.deferred_flushes_applied;
            sum.actions_merged += st.actions_merged;
            sum.range_invalidates += st.range_invalidates;
            sum.full_space_flushes += st.full_space_flushes;
            sum.reuse_elisions += st.reuse_elisions;
        }
        std::printf(
            "  %-12s %llu IPIs elided, %llu flushes deferred "
            "(%llu applied), %llu actions merged, %llu range vs "
            "%llu full-space invalidates, %llu reuse elisions\n",
            hw::shootdownPolicyName(kPolicies[p]),
            static_cast<unsigned long long>(sum.ipis_elided),
            static_cast<unsigned long long>(sum.flushes_deferred),
            static_cast<unsigned long long>(
                sum.deferred_flushes_applied),
            static_cast<unsigned long long>(sum.actions_merged),
            static_cast<unsigned long long>(sum.range_invalidates),
            static_cast<unsigned long long>(sum.full_space_flushes),
            static_cast<unsigned long long>(sum.reuse_elisions));
    }

    std::printf("\nserving tier: per-request attribution (mean "
                "us/request, obs/request.hh)\n");
    std::printf("%-12s %8s %9s %8s", "policy", "requests", "mean",
                "p99");
    for (unsigned c = 0; c < obs::kReqComponents; ++c) {
        std::printf(" %14s",
                    obs::reqComponentName(
                        static_cast<obs::ReqComponent>(c)));
    }
    std::printf("\n");
    for (unsigned p = 0; p < kNumPolicies; ++p) {
        const ServingCell &serving = servings[p];
        std::printf("%-12s %8llu %9.0f %8llu",
                    hw::shootdownPolicyName(kPolicies[p]),
                    static_cast<unsigned long long>(serving.requests),
                    serving.mean_usec,
                    static_cast<unsigned long long>(serving.p99_usec));
        for (unsigned c = 0; c < obs::kReqComponents; ++c)
            std::printf(" %14.1f", serving.component_usec[c]);
        std::printf("\n");
    }

    writeJson(cells, testers, servings, scale);
    std::printf("\nwrote BENCH_strategy.json\n");

    for (unsigned p = 0; p < kNumPolicies; ++p) {
        if (!testers[p].consistent)
            return 1;
    }
    return 0;
}

} // namespace

int
main()
{
    setLogQuiet(true);
    const int strategy_rc = runStrategyPart();
    const int policy_rc = runPolicyPart();
    return strategy_rc != 0 ? strategy_rc : policy_rc;
}
