/**
 * @file
 * The repository benchmark's driver. One process runs one rep of one
 * workload (or the layer drills) and prints what it measured as one
 * JSON line; benchmark/run.py launches the processes and aggregates.
 *
 *   machbench rep    <workload> <seed>   untraced rep
 *   machbench traced <workload> <seed>   rep with Recorder::enableStats()
 *   machbench drills                     host ns/op of public calls
 *   machbench ref                        fixed host-speed reference loop
 *
 * Workloads (see benchmark/README.md for why each exists):
 *   paper_apps         the four Section 5.2 apps on 16-CPU kernels
 *   serving_numa       apps::Serving on 4 nodes x 8 CPUs, baseline policy
 *   serving_elide_dev  apps::Serving on 2 nodes x 8 CPUs, reuse-elide,
 *                      2 DMA devices
 *   checker_campaign   coverage-guided Explorer::explore over four
 *                      healthy scenarios
 *
 * Host time is steady_clock seconds; simulated time is the machine's
 * clock. Simulated TLBs start empty on every fresh kernel, as in the
 * paper. Everything here reaches the library through public API only.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/agora.hh"
#include "apps/camelot.hh"
#include "apps/mach_build.hh"
#include "apps/parthenon.hh"
#include "apps/serving.hh"
#include "base/logging.hh"
#include "base/stats.hh"
#include "chk/corpus.hh"
#include "chk/explorer.hh"
#include "chk/scenario.hh"
#include "hw/page_table.hh"
#include "hw/phys_mem.hh"
#include "hw/tlb.hh"
#include "kern/thread.hh"
#include "obs/recorder.hh"
#include "pmap/pmap.hh"
#include "pmap/shootdown.hh"
#include "sim/context.hh"
#include "sim/event_queue.hh"
#include "vm/kernel.hh"
#include "vm/task.hh"
#include "xpr/machine_stats.hh"

namespace
{

using namespace mach;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point begin)
{
    return std::chrono::duration<double>(Clock::now() - begin).count();
}

/** splitmix64: independent per-component seeds from the one --seed. */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
fold(std::uint64_t hash, std::uint64_t value)
{
    for (unsigned i = 0; i < 8; ++i) {
        hash ^= (value >> (8 * i)) & 0xff;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/** One JSON object, keys in insertion order, printed on one line. */
class JsonObject
{
  public:
    void
    num(const std::string &key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        raw(key, buf);
    }

    /** Exact 64-bit integers (seeds), which a double would round. */
    void
    integer(const std::string &key, std::uint64_t value)
    {
        raw(key, std::to_string(value));
    }

    void
    str(const std::string &key, const std::string &value)
    {
        raw(key, "\"" + value + "\"");
    }

    void
    raw(const std::string &key, const std::string &json)
    {
        body_ += body_.empty() ? "" : ", ";
        body_ += "\"" + key + "\": " + json;
    }

    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

/** Counters summed over every machine a rep ran. */
struct Counters
{
    std::uint64_t events = 0;
    std::uint64_t tlb_hits = 0;
    std::uint64_t tlb_misses = 0;
    std::uint64_t tlb_flushes = 0;
    std::uint64_t tlb_invalidates = 0;
    std::uint64_t l0_hits = 0;
    std::uint64_t l0_misses = 0;
    std::uint64_t interrupts = 0;
    std::uint64_t faults = 0;
    std::uint64_t zero_fills = 0;
    std::uint64_t cow_copies = 0;
    std::uint64_t shootdowns = 0;
    std::uint64_t ipis = 0;
    std::uint64_t responder_passes = 0;
    std::uint64_t idle_drains = 0;
    std::uint64_t queue_overflows = 0;
    std::uint64_t ipis_elided = 0;
    std::uint64_t reuse_elisions = 0;
    std::uint64_t cross_node_ipis = 0;
    std::uint64_t forwarded_ipis = 0;
    std::uint64_t remote_faults = 0;
    std::uint64_t local_faults = 0;
    std::uint64_t dev_commands = 0;
    std::uint64_t dev_sync_waits = 0;
    std::uint64_t iotlb_hits = 0;
    std::uint64_t iotlb_misses = 0;
    std::uint64_t dma_aborts = 0;

    void
    add(vm::Kernel &kernel, std::uint64_t phase_events)
    {
        const xpr::MachineStats s = xpr::MachineStats::capture(kernel);
        const xpr::CpuStats cpu = s.totals();
        events += phase_events;
        tlb_hits += cpu.tlb_hits;
        tlb_misses += cpu.tlb_misses;
        tlb_flushes += cpu.tlb_flushes;
        tlb_invalidates += cpu.tlb_single_invalidates;
        interrupts += cpu.interrupts_taken;
        for (CpuId id = 0; id < kernel.machine().ncpus(); ++id) {
            l0_hits += kernel.machine().cpu(id).tlb().l0_hits;
            l0_misses += kernel.machine().cpu(id).tlb().l0_misses;
        }
        faults += s.faults_resolved + s.faults_failed;
        zero_fills += s.zero_fills;
        cow_copies += s.cow_copies;
        shootdowns += s.shootdowns_initiated;
        ipis += s.ipis_sent;
        responder_passes += s.responder_passes;
        idle_drains += s.idle_drains;
        queue_overflows += s.queue_overflows;
        ipis_elided += s.ipis_elided;
        reuse_elisions += s.reuse_elisions;
        cross_node_ipis += s.cross_node_ipis;
        forwarded_ipis += s.forwarded_ipis;
        remote_faults += s.remote_faults;
        local_faults += s.local_faults;
        dev_commands += s.device_commands;
        dev_sync_waits += s.device_sync_waits;
        for (const xpr::DeviceStats &d : s.devices) {
            iotlb_hits += d.iotlb_hits;
            iotlb_misses += d.iotlb_misses;
            dma_aborts += d.dma_aborts;
        }
    }
};

/** The recorder histograms the traced rep reads, with metric stems. */
constexpr std::array<std::pair<const char *, const char *>, 6> kSpans = {{
    {"vm.fault_us", "vm.fault"},
    {"shoot.initiator_us", "shoot.initiator"},
    {"shoot.sync_us", "shoot.sync"},
    {"shoot.responder_us", "shoot.responder"},
    {"shoot.device_sync_us", "shoot.device_sync"},
    {"irq.post_to_deliver_us", "irq.post_to_deliver"},
}};

/** Everything one rep measured. */
struct Rep
{
    bool traced = false;
    /** Host seconds of each set-up the rep timed (median reported). */
    std::vector<double> setup_s;
    /** Host seconds of the measured phase. */
    double wall_s = 0;
    double peak_rss_mb = 0;
    /** Ops (app runs, requests, trials) attempted and failed. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Names of the correctness checks this rep failed. */
    std::vector<std::string> failed_checks;
    std::uint64_t digest = kFnvOffset;

    Tick sim_runtime = 0;
    /** Sum over machines of virtual runtime x ncpus, in usec. */
    double cpu_usec = 0;
    /** Kernel + user initiator times (usec), every raw sample. */
    Sample initiator_us;
    /** Initiator + responder time (usec), the Section 7.2 numerator. */
    double shootdown_usec = 0;
    Counters counters;
    std::array<std::pair<std::uint64_t, std::uint64_t>, kSpans.size()>
        spans{};

    std::uint64_t requests = 0;
    Tick request_ticks = 0;
    std::array<Tick, obs::kReqComponents> components{};

    std::uint64_t trials = 0;
    std::uint64_t coverage_buckets = 0;
    std::uint64_t coverage_novel = 0;
    std::uint64_t duplicate_probes = 0;
    /** Summed over the campaigns' unperturbed baseline trials. */
    std::uint64_t baseline_events = 0;

    /** Workload parameters and MachineConfig fields the driver set. */
    JsonObject params;

    void
    fail(const std::string &check)
    {
        failed_checks.push_back(check);
    }
};

// ---- Machine workloads ------------------------------------------------

/**
 * Sizes were timed on a 4-core host with a Release build so that one
 * rep of each workload takes about two host seconds: a run then holds
 * about ten reps, and run.py reports the fastest, because host noise
 * on a shared machine comes in slow phases lasting seconds. Every size
 * below is part of the benchmark's definition.
 */
constexpr unsigned kMachBuildJobs = 1200;
constexpr unsigned kParthenonRuns = 125;
constexpr unsigned kAgoraRuns = 125;
constexpr unsigned kCamelotTransactions = 5000;
constexpr unsigned kServingTenants = 600;
constexpr unsigned kServingRequests = 6;
constexpr unsigned kServingLiveTenants = 8;
constexpr unsigned kServingThreads = 2;
constexpr unsigned kCheckerProbes = 250;
/** Extra set-ups timed per rep, so setup_s is a median, not one read. */
constexpr unsigned kSetupRepeats = 16;
/**
 * The default 65536-record xpr ring overflows on Camelot at this size;
 * an overflowed ring truncates the paper's tables and the digest.
 */
constexpr std::size_t kXprCapacity = std::size_t{1} << 21;

/** Mach build, Parthenon, Agora, Camelot: makePaperApp(0..3). */
constexpr unsigned kPaperApps = 4;

std::unique_ptr<apps::Workload>
makePaperApp(unsigned index, std::uint64_t seed)
{
    const std::uint64_t app_seed = mixSeed(seed, 2 + index);
    switch (index) {
      case 0: {
        apps::MachBuild::Params p;
        p.jobs = kMachBuildJobs;
        p.seed = app_seed;
        return std::make_unique<apps::MachBuild>(p);
      }
      case 1: {
        apps::Parthenon::Params p;
        p.runs = kParthenonRuns;
        p.seed = app_seed;
        return std::make_unique<apps::Parthenon>(p);
      }
      case 2: {
        apps::Agora::Params p;
        p.runs = kAgoraRuns;
        p.seed = app_seed;
        return std::make_unique<apps::Agora>(p);
      }
      default: {
        apps::Camelot::Params p;
        p.transactions = kCamelotTransactions;
        p.seed = app_seed;
        return std::make_unique<apps::Camelot>(p);
      }
    }
}

hw::MachineConfig
paperConfig(std::uint64_t seed)
{
    hw::MachineConfig config;
    config.seed = mixSeed(seed, 1);
    config.xpr_capacity = kXprCapacity;
    return config;
}

hw::MachineConfig
servingConfig(const std::string &workload, std::uint64_t seed)
{
    hw::MachineConfig config;
    config.seed = mixSeed(seed, 1);
    config.xpr_capacity = kXprCapacity;
    if (workload == "serving_numa") {
        config.numa_nodes = 4;
        config.ncpus = 4 * 8;
    } else {
        config.numa_nodes = 2;
        config.ncpus = 2 * 8;
        config.shootdown_policy = hw::ShootdownPolicy::ReuseElide;
        // Reuse-elide needs lock-aware (software) reload.
        config.tlb_software_reload = true;
        config.devices = 2;
    }
    return config;
}

apps::Serving::Params
servingParams(std::uint64_t seed)
{
    apps::Serving::Params p;
    p.tenants = kServingTenants;
    p.requests_per_tenant = kServingRequests;
    p.concurrency = kServingLiveTenants;
    p.threads_per_tenant = kServingThreads;
    p.seed = mixSeed(seed, 10);
    return p;
}

void
echoConfig(JsonObject &out, const hw::MachineConfig &c)
{
    out.num("ncpus", c.ncpus);
    out.num("numa_nodes", c.numa_nodes);
    out.str("shootdown_policy", hw::shootdownPolicyName(c.shootdown_policy));
    out.num("tlb_software_reload", c.tlb_software_reload);
    out.num("devices", c.devices);
    out.num("xpr_capacity", static_cast<double>(c.xpr_capacity));
    out.integer("machine_seed", c.seed);
}

/**
 * Run @p app on @p kernel as part of @p rep: the execute() call is the
 * measured phase; reading counters and auditing afterwards is not.
 */
void
runMachine(Rep &rep, vm::Kernel &kernel, apps::Workload &app)
{
    kern::Machine &machine = kernel.machine();
    if (rep.traced)
        machine.recorder().enableStats();
    const std::uint64_t events0 = machine.ctx().queue().scheduledCount();

    const auto begin = Clock::now();
    const apps::WorkloadResult result = app.execute(kernel);
    rep.wall_s += secondsSince(begin);

    rep.counters.add(kernel,
                     machine.ctx().queue().scheduledCount() - events0);
    rep.sim_runtime += result.virtual_runtime;
    rep.cpu_usec += static_cast<double>(result.virtual_runtime) / kUsec *
                    machine.ncpus();
    const xpr::RunAnalysis &a = result.analysis;
    for (const xpr::ShootdownSummary *s :
         {&a.kernel_initiator, &a.user_initiator}) {
        for (double v : s->time_usec.values())
            rep.initiator_us.add(v);
        rep.shootdown_usec += s->time_usec.sum();
    }
    rep.shootdown_usec += a.responder.time_usec.sum();

    if (a.overflowed)
        rep.fail(app.name() + ":xpr_overflow");
    if (!kernel.pmaps().auditTlbConsistency().empty())
        rep.fail(app.name() + ":tlb_audit");
    rep.digest = fold(rep.digest, xpr::runDigest(kernel));

    if (rep.traced) {
        const obs::Metrics &metrics = machine.recorder().metrics();
        for (std::size_t i = 0; i < kSpans.size(); ++i) {
            for (const auto &[name, hist] : metrics.entries()) {
                if (name == kSpans[i].first) {
                    rep.spans[i].first += hist->count();
                    rep.spans[i].second += hist->sum();
                }
            }
        }
    }
}

/** Destroy a finished kernel; teardown counts toward the phase. */
void
teardown(Rep &rep, std::unique_ptr<vm::Kernel> &kernel)
{
    const auto begin = Clock::now();
    kernel.reset();
    rep.wall_s += secondsSince(begin);
}

void
runPaperApps(Rep &rep, std::uint64_t seed)
{
    const hw::MachineConfig config = paperConfig(seed);
    for (unsigned k = 0; k < kSetupRepeats; ++k) {
        const auto begin = Clock::now();
        std::vector<std::unique_ptr<vm::Kernel>> kernels;
        std::vector<std::unique_ptr<apps::Workload>> apps;
        for (unsigned i = 0; i < kPaperApps; ++i) {
            kernels.push_back(std::make_unique<vm::Kernel>(config));
            apps.push_back(makePaperApp(i, seed));
        }
        rep.setup_s.push_back(secondsSince(begin));
    }

    double setup = 0;
    for (unsigned i = 0; i < kPaperApps; ++i) {
        const auto begin = Clock::now();
        auto kernel = std::make_unique<vm::Kernel>(config);
        std::unique_ptr<apps::Workload> app = makePaperApp(i, seed);
        setup += secondsSince(begin);
        runMachine(rep, *kernel, *app);
        teardown(rep, kernel);
    }
    rep.setup_s.push_back(setup);
    rep.attempted = kPaperApps;

    echoConfig(rep.params, config);
    rep.params.num("mach_build_jobs", kMachBuildJobs);
    rep.params.num("parthenon_runs", kParthenonRuns);
    rep.params.num("agora_runs", kAgoraRuns);
    rep.params.num("camelot_transactions", kCamelotTransactions);
}

void
runServing(Rep &rep, const std::string &workload, std::uint64_t seed)
{
    const hw::MachineConfig config = servingConfig(workload, seed);
    const apps::Serving::Params params = servingParams(seed);
    for (unsigned k = 0; k < kSetupRepeats; ++k) {
        const auto begin = Clock::now();
        vm::Kernel kernel(config);
        apps::Serving serving(params);
        rep.setup_s.push_back(secondsSince(begin));
    }

    const auto begin = Clock::now();
    auto kernel = std::make_unique<vm::Kernel>(config);
    apps::Serving serving(params);
    rep.setup_s.push_back(secondsSince(begin));
    runMachine(rep, *kernel, serving);
    teardown(rep, kernel);

    rep.requests = serving.requests_completed;
    rep.request_ticks = serving.request_ticks;
    rep.components = serving.component_ticks;
    rep.attempted = std::uint64_t{params.tenants} *
                    params.requests_per_tenant;
    if (rep.requests != rep.attempted)
        rep.fail("serving:requests_completed");
    Tick sum = 0;
    for (Tick t : rep.components)
        sum += t;
    if (sum != rep.request_ticks)
        rep.fail("serving:component_sum");

    echoConfig(rep.params, config);
    rep.params.num("tenants", params.tenants);
    rep.params.num("requests_per_tenant", params.requests_per_tenant);
    rep.params.num("live_tenants", params.concurrency);
    rep.params.num("threads_per_tenant", params.threads_per_tenant);
    rep.params.integer("serving_seed", params.seed);
}

// ---- Checker campaign ---------------------------------------------------

/**
 * Healthy scenarios only: under this probe budget the explorer finds
 * liveness failures (large mutated delays) in numa-storm,
 * numa-replicas and numa-concurrent-initiators, so the NUMA side is
 * covered by the generated vmgen-2x2 instead.
 */
const char *const kCheckerScenarios[] = {"storm-baseline", "vmgen-2x2",
                                         "dev-dma-race", "vmgen-3x2d"};

std::vector<chk::Scenario>
resolveCheckerScenarios()
{
    std::vector<chk::Scenario> out;
    for (const char *name : kCheckerScenarios) {
        chk::Scenario s;
        if (!chk::resolveScenario(name, &s))
            fatal("machbench: unknown scenario %s", name);
        out.push_back(std::move(s));
    }
    return out;
}

void
runChecker(Rep &rep, std::uint64_t seed)
{
    for (unsigned k = 0; k < kSetupRepeats; ++k) {
        const auto begin = Clock::now();
        const std::vector<chk::Scenario> scenarios =
            resolveCheckerScenarios();
        chk::Corpus corpus;
        rep.setup_s.push_back(secondsSince(begin));
    }

    const auto setup_begin = Clock::now();
    const std::vector<chk::Scenario> scenarios = resolveCheckerScenarios();
    chk::Corpus corpus;
    chk::Explorer explorer(nullptr, farm::FarmOptions{1, true});
    rep.setup_s.push_back(secondsSince(setup_begin));

    unsigned failures = 0;
    const auto begin = Clock::now();
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        chk::ExploreOptions opt;
        opt.systematic_budget = kCheckerProbes * 3 / 10;
        opt.random_budget = kCheckerProbes - opt.systematic_budget;
        opt.coverage_guided = true;
        opt.corpus = &corpus;
        opt.seed = mixSeed(seed, 20 + i);
        const chk::ExploreResult res = explorer.explore(scenarios[i], opt);
        rep.trials += res.trials;
        rep.coverage_novel += res.coverage_novel;
        rep.duplicate_probes += res.duplicate_probes_skipped;
        rep.baseline_events += res.baseline.events_fired;
        const unsigned failed = res.failures + (res.baseline_failed ? 1 : 0);
        if (failed != 0)
            rep.fail("checker:" + scenarios[i].name);
        failures += failed;
        rep.digest = fold(rep.digest, res.baseline.digest);
        rep.digest = fold(rep.digest, res.trials);
        rep.digest = fold(rep.digest, res.coverage_novel);
        rep.digest = fold(rep.digest, res.duplicate_probes_skipped);
        rep.digest = fold(rep.digest, corpus.buckets(scenarios[i].name));
        rep.coverage_buckets += corpus.buckets(scenarios[i].name);
    }
    rep.wall_s = secondsSince(begin);

    rep.attempted = rep.trials;
    rep.failed = failures;

    std::string names;
    for (const char *name : kCheckerScenarios)
        names += std::string(names.empty() ? "" : ",") + name;
    rep.params.str("scenarios", names);
    rep.params.num("probes_per_scenario", kCheckerProbes);
    rep.params.num("systematic_probes", kCheckerProbes * 3 / 10);
    rep.params.num("farm_jobs", 1);
    rep.params.num("farm_snapshots", 1);
    rep.params.integer("probe_seed_base", mixSeed(seed, 20));
}

// ---- Reporting --------------------------------------------------------

/**
 * Peak resident set of this process or of its largest fork child (the
 * checker's snapshots; the farm waits for them), in MiB. The process's
 * own peak is VmHWM, not ru_maxrss: Linux carries ru_maxrss across
 * exec, so it would report the launching Python process's RSS.
 */
double
peakRssMb()
{
    long self_kb = 0;
    if (std::FILE *status = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof(line), status) != nullptr) {
            if (std::sscanf(line, "VmHWM: %ld kB", &self_kb) == 1)
                break;
        }
        std::fclose(status);
    }
    rusage children{};
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(std::max(self_kb, children.ru_maxrss)) /
           1024.0;
}

/**
 * A fixed host-speed reference that does not touch the library:
 * ordered-map churn (allocation, pointer chasing, branches), the same
 * mix of work the simulator does. It runs in its own process, so no
 * library code or heap state can change its speed. On a shared host
 * the speed floor drifts by ~15% over minutes; the fastest rep divided
 * by the fastest loop of the same run tracked that drift about twice
 * as well as the fastest rep alone (benchmark/README.md).
 */
double
referenceLoopSeconds()
{
    const auto begin = Clock::now();
    std::map<std::uint64_t, std::uint64_t> table;
    std::uint64_t x = 7;
    for (std::uint64_t i = 0; i < 200'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        table[x % 50'000] += i;
        if (table.size() > 20'000)
            table.erase(table.begin());
    }
    const double seconds = secondsSince(begin);
    if (table.empty())
        fatal("machbench: reference loop lost its table");
    return seconds;
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

void
printRep(const Rep &rep, const std::string &workload, std::uint64_t seed,
         const std::string &mode)
{
    Sample setup;
    for (double s : rep.setup_s)
        setup.add(s);
    const Counters &c = rep.counters;

    JsonObject out;
    out.str("mode", mode);
    out.str("workload", workload);
    out.integer("seed", seed);
    char digest[32];
    std::snprintf(digest, sizeof(digest), "0x%016" PRIx64, rep.digest);
    out.str("digest", digest);
    std::string checks;
    for (const std::string &f : rep.failed_checks)
        checks += (checks.empty() ? "" : ",") + f;
    out.str("failed_checks", checks);
    out.num("attempted", static_cast<double>(rep.attempted));
    out.num("failed", static_cast<double>(rep.failed));

    out.num("wall_s", rep.wall_s);
    out.num("setup_s", setup.median());
    out.num("peak_rss_mb", rep.peak_rss_mb);
    out.num("sim_runtime_s", static_cast<double>(rep.sim_runtime) / kSec);
    out.num("shootdown_samples", static_cast<double>(rep.initiator_us.count()));
    out.num("shootdown_p50_us", rep.initiator_us.percentile(0.5));
    out.num("shootdown_p99_us", rep.initiator_us.percentile(0.99));
    out.num("shootdown_p999_us", rep.initiator_us.percentile(0.999));
    out.num("shootdown_overhead_pct",
            100.0 * ratio(rep.shootdown_usec, rep.cpu_usec));
    out.num("request_mean_us",
            ratio(static_cast<double>(rep.request_ticks) / kUsec,
                  static_cast<double>(rep.requests)));

    const double sim_ms = static_cast<double>(rep.sim_runtime) / kMsec;
    out.num("sim.events", static_cast<double>(c.events));
    out.num("sim.events_per_sim_ms", ratio(c.events, sim_ms));
    out.num("hw.tlb_lookups", static_cast<double>(c.tlb_hits + c.tlb_misses));
    out.num("hw.tlb_hit_ratio", ratio(c.tlb_hits, c.tlb_hits + c.tlb_misses));
    out.num("hw.tlb_flushes", static_cast<double>(c.tlb_flushes));
    out.num("hw.tlb_invalidates", static_cast<double>(c.tlb_invalidates));
    out.num("hw.l0_hit_ratio", ratio(c.l0_hits, c.l0_hits + c.l0_misses));
    out.num("kern.interrupts", static_cast<double>(c.interrupts));
    out.num("vm.faults", static_cast<double>(c.faults));
    out.num("vm.zero_fills", static_cast<double>(c.zero_fills));
    out.num("vm.cow_copies", static_cast<double>(c.cow_copies));
    out.num("pmap.shootdowns", static_cast<double>(c.shootdowns));
    out.num("pmap.ipis", static_cast<double>(c.ipis));
    out.num("pmap.ipis_per_shootdown", ratio(c.ipis, c.shootdowns));
    out.num("pmap.responder_passes", static_cast<double>(c.responder_passes));
    out.num("pmap.idle_drains", static_cast<double>(c.idle_drains));
    out.num("pmap.queue_overflows", static_cast<double>(c.queue_overflows));
    out.num("pmap.ipis_elided", static_cast<double>(c.ipis_elided));
    out.num("pmap.reuse_elisions", static_cast<double>(c.reuse_elisions));
    out.num("numa.cross_node_ipis", static_cast<double>(c.cross_node_ipis));
    out.num("numa.forwarded_ipis", static_cast<double>(c.forwarded_ipis));
    out.num("numa.remote_fault_ratio",
            ratio(c.remote_faults, c.remote_faults + c.local_faults));
    out.num("dev.commands", static_cast<double>(c.dev_commands));
    out.num("dev.sync_waits", static_cast<double>(c.dev_sync_waits));
    out.num("dev.iotlb_hit_ratio",
            ratio(c.iotlb_hits, c.iotlb_hits + c.iotlb_misses));
    out.num("dev.dma_aborts", static_cast<double>(c.dma_aborts));

    static const char *const kComponentMetrics[obs::kReqComponents] = {
        "serve.compute_us",  "serve.fault_us",
        "serve.walk_us",     "serve.ipi_post_us",
        "serve.responder_wait_us", "serve.drain_us"};
    for (unsigned i = 0; i < obs::kReqComponents; ++i)
        out.num(kComponentMetrics[i],
                ratio(static_cast<double>(rep.components[i]) / kUsec,
                      static_cast<double>(rep.requests)));

    out.num("chk.trials", static_cast<double>(rep.trials));
    out.num("chk.coverage_buckets", static_cast<double>(rep.coverage_buckets));
    out.num("chk.coverage_novel_ratio", ratio(rep.coverage_novel, rep.trials));
    out.num("chk.duplicate_probes", static_cast<double>(rep.duplicate_probes));
    out.num("chk.events_per_trial",
            ratio(rep.baseline_events, std::size(kCheckerScenarios)));

    if (rep.traced) {
        for (std::size_t i = 0; i < kSpans.size(); ++i) {
            const std::string stem = kSpans[i].second;
            out.num("span." + stem + ".count",
                    static_cast<double>(rep.spans[i].first));
            out.num("span." + stem + ".sum_us",
                    static_cast<double>(rep.spans[i].second));
        }
    }
    out.raw("params", rep.params.text());
    std::printf("%s\n", out.text().c_str());
}

// ---- Layer drills -------------------------------------------------------

/** Median of @p reps timings of @p drill (each returns its own unit). */
template <typename Drill>
double
medianOf(unsigned reps, Drill drill)
{
    Sample s;
    for (unsigned i = 0; i < reps; ++i)
        s.add(drill());
    return s.median();
}

void
bumpCounter(void *ctx, std::uint64_t)
{
    ++*static_cast<std::uint64_t *>(ctx);
}

/** scheduleRaw / fireFront / cancel churn, ns per queue operation. */
double
drillEventNs()
{
    constexpr std::uint64_t kRounds = 200'000;
    constexpr unsigned kWindow = 512;
    sim::EventQueue queue;
    std::uint64_t fired = 0;
    std::uint64_t ops = 0;
    const auto begin = Clock::now();
    Tick now = 0;
    for (unsigned i = 0; i < kWindow; ++i)
        queue.scheduleRaw(now + 1 + i % 7, &bumpCounter, &fired, 0);
    ops += kWindow;
    for (std::uint64_t i = 0; i < kRounds; ++i) {
        now = queue.fireFront();
        queue.scheduleRaw(now + 1 + i % 13, &bumpCounter, &fired, 0);
        const sim::EventId id =
            queue.scheduleRaw(now + 1000, &bumpCounter, &fired, 0);
        queue.cancel(id);
        ops += 4;
    }
    while (!queue.empty()) {
        queue.fireFront();
        ++ops;
    }
    return secondsSince(begin) * 1e9 / static_cast<double>(ops);
}

/** Two fibers ping-pong through scheduleWake/block, ns per switch. */
double
drillFiberSwitchNs()
{
    constexpr unsigned kRounds = 100'000;
    sim::Context ctx;
    sim::FiberId ping = 0;
    sim::FiberId pong = 0;
    ping = ctx.spawn("ping", [&] {
        for (unsigned i = 0; i < kRounds; ++i) {
            ctx.scheduleWake(pong, ctx.now() + 1);
            ctx.block();
        }
    });
    pong = ctx.spawn("pong", [&] {
        for (unsigned i = 0; i < kRounds; ++i) {
            ctx.block();
            ctx.scheduleWake(ping, ctx.now() + 1);
        }
    });
    const auto begin = Clock::now();
    ctx.run();
    return secondsSince(begin) * 1e9 / (2.0 * kRounds);
}

/** Hit-heavy lookups with fills and consistency traffic, ns/lookup. */
double
drillTlbLookupNs()
{
    constexpr std::uint64_t kRounds = 200'000;
    hw::MachineConfig config;
    hw::PhysMem mem(64);
    hw::Tlb tlb(&config, &mem);
    std::uint64_t lookups = 0;
    const auto begin = Clock::now();
    for (std::uint64_t i = 0; i < kRounds; ++i) {
        const hw::SpaceId space = 1 + i % 8;
        const Vpn vpn = static_cast<Vpn>((i * 5) % 96);
        if (!tlb.lookup(space, vpn, ProtRead, 0).hit)
            tlb.insert(space, vpn, static_cast<Pfn>(vpn + 1),
                       ProtReadWrite, false);
        for (unsigned j = 0; j < 6; ++j)
            tlb.lookup(space, vpn, ProtRead, 0);
        lookups += 7;
        if (i % 16 == 0)
            tlb.invalidatePage(space, vpn);
        else if (i % 1024 == 5)
            tlb.flushSpace(space);
    }
    return secondsSince(begin) * 1e9 / static_cast<double>(lookups);
}

/** pteAddr + walk over a few hot leaf tables, ns per walk. */
double
drillWalkNs()
{
    constexpr std::uint64_t kRounds = 400'000;
    hw::PhysMem mem(256);
    hw::PageTable table(&mem);
    constexpr unsigned kSpan = 4 * hw::PageTable::kPagesPerLeaf;
    for (Vpn vpn = 0; vpn < kSpan; vpn += 7)
        table.writePte(vpn, hw::pte::make(vpn % 199 + 1, ProtReadWrite));
    std::uint64_t valid = 0;
    const auto begin = Clock::now();
    for (std::uint64_t i = 0; i < kRounds; ++i) {
        const Vpn vpn = static_cast<Vpn>((i * 7) % kSpan);
        if (table.pteAddr(vpn) != 0)
            valid += hw::pte::valid(table.walk(vpn).pte);
    }
    const double ns = secondsSince(begin) * 1e9 / kRounds;
    if (valid == 0)
        fatal("machbench: walk drill found no valid PTE");
    return ns;
}

/** Zero-fill faults via Thread::store32 on fresh pages, host us each. */
double
drillFaultHostUs()
{
    constexpr unsigned kPages = 2000;
    hw::MachineConfig config;
    config.ncpus = 2;
    vm::Kernel kernel(config);
    vm::Kernel *kp = &kernel;
    double host_s = 0;
    kernel.start();
    kernel.spawnThread(nullptr, "fault-drill", [kp, &host_s](
                                                   kern::Thread &drv) {
        vm::Task *task = kp->createTask("fault-drill");
        VAddr base = 0;
        if (!kp->vmAllocate(drv, *task, &base, kPages * kPageSize, true))
            fatal("machbench: fault drill vmAllocate failed");
        kern::Thread *toucher = kp->spawnThread(
            task, "toucher", [base, &host_s](kern::Thread &self) {
                const auto begin = Clock::now();
                for (unsigned i = 0; i < kPages; ++i)
                    self.store32(base + i * kPageSize, i);
                host_s = secondsSince(begin);
            });
        drv.join(*toucher);
        kp->machine().ctx().requestStop();
    });
    kernel.machine().run();
    if (kernel.zero_fills < kPages)
        fatal("machbench: fault drill took %llu zero fills",
              static_cast<unsigned long long>(kernel.zero_fills));
    return host_s * 1e6 / kPages;
}

/**
 * vmProtect write revocations of one page that 3 spinning writers hold
 * in their TLBs: host us per revoke call. Three targets match the
 * 3-4 IPIs per shootdown of paper_apps and serving_numa, so the drill
 * prices the workloads' average shootdown; the responders keep
 * simulating (spin-polling) while the initiator waits for them.
 */
double
drillShootdownHostUs()
{
    constexpr unsigned kRevokes = 200;
    constexpr unsigned kSpinners = 3;
    hw::MachineConfig config;
    vm::Kernel kernel(config);
    vm::Kernel *kp = &kernel;
    double host_s = 0;
    std::uint64_t shootdowns = 0;
    kernel.start();
    kernel.spawnThread(
        nullptr, "shoot-drill",
        [kp, &host_s, &shootdowns](kern::Thread &drv) {
            vm::Task *task = kp->createTask("shoot-drill");
            VAddr va = 0;
            if (!kp->vmAllocate(drv, *task, &va, kPageSize, true))
                fatal("machbench: shootdown drill vmAllocate failed");
            bool stop = false;
            std::vector<kern::Thread *> spinners;
            for (unsigned i = 0; i < kSpinners; ++i) {
                spinners.push_back(kp->spawnThread(
                    task, "spinner",
                    [va, &stop](kern::Thread &self) {
                        while (!stop) {
                            self.access(va, ProtWrite);
                            self.compute(50 * kUsec);
                        }
                    },
                    1 + static_cast<std::int64_t>(i)));
            }
            drv.sleep(2 * kMsec);
            const std::uint64_t before = kp->pmaps().shoot().initiated;
            for (unsigned i = 0; i < kRevokes; ++i) {
                const auto begin = Clock::now();
                kp->vmProtect(drv, *task, va, kPageSize, ProtRead);
                host_s += secondsSince(begin);
                kp->vmProtect(drv, *task, va, kPageSize, ProtReadWrite);
                drv.sleep(300 * kUsec); // Spinners re-fault the page.
            }
            shootdowns = kp->pmaps().shoot().initiated - before;
            stop = true;
            for (kern::Thread *t : spinners)
                drv.join(*t);
            kp->machine().ctx().requestStop();
        },
        0);
    kernel.machine().run();
    if (shootdowns != kRevokes)
        fatal("machbench: shootdown drill initiated %llu shootdowns",
              static_cast<unsigned long long>(shootdowns));
    return host_s * 1e6 / kRevokes;
}

const chk::Scenario &
stormScenario()
{
    static const chk::Scenario scenario = [] {
        chk::Scenario s;
        if (!chk::resolveScenario("storm-baseline", &s))
            fatal("machbench: storm-baseline scenario missing");
        return s;
    }();
    return scenario;
}

/** Explorer::runTrial on storm-baseline, host ms per trial. */
double
drillTrialMs()
{
    constexpr unsigned kTrials = 20;
    const chk::Explorer explorer;
    const auto begin = Clock::now();
    for (unsigned i = 0; i < kTrials; ++i) {
        if (explorer.runTrial(stormScenario(), {}).failed())
            fatal("machbench: storm-baseline trial failed");
    }
    return secondsSince(begin) * 1e3 / kTrials;
}

/**
 * One late-window probe batch through runTrials at jobs 1, snapshots
 * off vs on: the host-time ratio (higher = the fork snapshots save
 * more re-simulated prefix). vmgen-3x2d's prefix is long enough to
 * clear the farm's default snapshot floor, as in the campaign.
 */
double
drillSnapshotSpeedup()
{
    chk::Scenario scenario;
    if (!chk::resolveScenario("vmgen-3x2d", &scenario))
        fatal("machbench: vmgen-3x2d scenario missing");
    const chk::TrialResult baseline =
        chk::Explorer().runTrial(scenario, {});
    constexpr unsigned kProbes = 24;
    const std::uint64_t lo = baseline.events_fired * 9 / 10;
    const std::uint64_t span = baseline.events_fired - lo;
    std::vector<SchedulePerturber> probes(kProbes);
    for (unsigned i = 0; i < kProbes; ++i)
        probes[i].delayEvent(lo + span * i / kProbes,
                             (30 + 90 * (i % 4)) * kUsec);

    double seconds[2] = {0, 0};
    std::uint64_t folds[2] = {kFnvOffset, kFnvOffset};
    for (unsigned mode = 0; mode < 2; ++mode) {
        const chk::Explorer explorer(nullptr,
                                     farm::FarmOptions{1, mode == 1});
        const auto begin = Clock::now();
        for (const chk::TrialResult &t :
             explorer.runTrials(scenario, probes))
            folds[mode] = fold(folds[mode], t.digest);
        seconds[mode] = secondsSince(begin);
    }
    if (folds[0] != folds[1])
        fatal("machbench: snapshot and serial probe batches diverged");
    return seconds[0] / std::max(1e-9, seconds[1]);
}

void
printDrills()
{
    JsonObject out;
    out.str("mode", "drills");
    out.num("sim.drill_event_ns", medianOf(5, drillEventNs));
    out.num("sim.drill_fiber_switch_ns", medianOf(5, drillFiberSwitchNs));
    out.num("hw.drill_tlb_lookup_ns", medianOf(5, drillTlbLookupNs));
    out.num("hw.drill_walk_ns", medianOf(5, drillWalkNs));
    out.num("vm.drill_fault_host_us", medianOf(5, drillFaultHostUs));
    out.num("pmap.drill_shootdown_host_us",
            medianOf(5, drillShootdownHostUs));
    out.num("chk.drill_trial_ms", medianOf(3, drillTrialMs));
    out.num("farm.drill_snapshot_speedup", medianOf(3, drillSnapshotSpeedup));
    out.num("peak_rss_mb", peakRssMb());
    std::printf("%s\n", out.text().c_str());
}

bool
isWorkload(const std::string &name)
{
    return name == "paper_apps" || name == "serving_numa" ||
           name == "serving_elide_dev" || name == "checker_campaign";
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string mode = argc > 1 ? argv[1] : "";
    setLogQuiet(true);
    if (argc == 2 && mode == "drills") {
        printDrills();
        return 0;
    }
    if (argc == 2 && mode == "ref") {
        // Fastest of five loops: one loop is ~25 ms, short enough for
        // a slow phase to swallow it whole.
        double best = referenceLoopSeconds();
        for (unsigned i = 1; i < 5; ++i)
            best = std::min(best, referenceLoopSeconds());
        JsonObject out;
        out.str("mode", "ref");
        out.num("ref_s", best);
        std::printf("%s\n", out.text().c_str());
        return 0;
    }

    char *end = nullptr;
    const std::uint64_t seed =
        argc == 4 ? std::strtoull(argv[3], &end, 0) : 0;
    const std::string workload = argc == 4 ? argv[2] : "";
    if (argc != 4 || end == argv[3] || *end != '\0' ||
        !isWorkload(workload) || (mode != "rep" && mode != "traced")) {
        std::fprintf(stderr,
                     "usage: machbench rep|traced <workload> <seed>\n"
                     "       machbench drills|ref\n");
        return 2;
    }
    Rep rep;
    rep.traced = mode == "traced";
    if (workload == "paper_apps")
        runPaperApps(rep, seed);
    else if (workload == "checker_campaign")
        runChecker(rep, seed);
    else
        runServing(rep, workload, seed);
    rep.peak_rss_mb = peakRssMb();
    printRep(rep, workload, seed, mode);
    return 0;
}
