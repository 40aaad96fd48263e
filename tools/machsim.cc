/**
 * @file
 * machsim -- the command-line driver for the simulated machine.
 *
 * Runs any of the paper's workloads on a machine you configure from
 * the command line, prints the xpr shootdown analysis and the machine
 * statistics, and optionally streams the trace.
 *
 *   machsim --app tester --children 8
 *   machsim --app camelot --ncpus 32 --transactions 300
 *   machsim --app mach-build --lazy off
 *   machsim --app agora --trace shoot,vm
 *   machsim --app parthenon --strategy delayed-flush
 *   machsim --app tester --pools 4 --ncpus 64
 *
 * Run `machsim --help` for the full flag list.
 */

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>

#include "apps/agora.hh"
#include "apps/camelot.hh"
#include "apps/consistency_tester.hh"
#include "apps/mach_build.hh"
#include "apps/parthenon.hh"
#include "apps/serving.hh"
#include "base/perturb.hh"
#include "base/stats.hh"
#include "farm/farm.hh"
#include "chk/corpus.hh"
#include "chk/explorer.hh"
#include "chk/oracle.hh"
#include "chk/scenario.hh"
#include "obs/recorder.hh"
#include "obs/sampler.hh"
#include "obs/stats_json.hh"
#include "pmap/shootdown.hh"
#include "vm/kernel.hh"
#include "xpr/machine_stats.hh"

using namespace mach;

namespace
{

struct Options
{
    std::string app = "tester";
    unsigned ncpus = 16;
    unsigned pools = 1;
    unsigned children = 8;     // tester
    unsigned build_jobs = 48;  // mach-build
    unsigned transactions = 200; // camelot
    unsigned runs = 5;         // parthenon / agora
    // serving (see apps/serving.hh for the knob semantics).
    unsigned tenants = 24;
    unsigned tenant_concurrency = 8;
    unsigned tenant_threads = 2;
    unsigned requests = 6;
    unsigned ws_pages = 16;
    unsigned binary_pages = 64;
    unsigned mmap_pages = 4;
    double sharing = 0.3;
    double fault_mix = 0.35;
    double zipf_s = 1.2;
    std::uint64_t seed = 0x4d616368u;
    /** Run farm width (--jobs). 0 = MACH_FARM_JOBS or serial. */
    unsigned farm_jobs = 0;
    /** Batch mode: run the workload under this many seeds. */
    unsigned repeat = 0;
    /** First seed of a --repeat batch (defaults to --seed). */
    std::uint64_t seed_base = 0;
    bool seed_base_set = false;
    bool lazy = true;
    bool shootdown = true;
    bool high_priority_ipi = false;
    bool multicast = false;
    bool broadcast = false;
    bool software_reload = false;
    bool no_writeback = false;
    bool remote_invalidate = false;
    bool asid_tags = false;
    bool delayed_flush = false;
    /** Shootdown-avoidance policy (baseline | lazy-asid | batched |
     *  range-flush | reuse-elide). */
    std::string shootdown_policy = "baseline";
    /** Disable the host-side L0 translation cache (timing-neutral). */
    bool no_l0 = false;
    /** Text-trace categories (--trace), a mask of obs::Category bits. */
    std::uint32_t trace_categories = 0;
    /** Perturbation directives, e.g. "e89+187500,b40+9000". */
    std::string schedule;
    /** Checker scenario for --app chk. */
    std::string scenario = "storm-baseline";
    /** Persistent corpus directory for --explore campaigns. */
    std::string corpus_dir;
    /** Probe budget: run a coverage-guided campaign, not a replay. */
    unsigned explore_budget = 0;
    /** --explore without the coverage guidance (blind sampling). */
    bool explore_blind = false;
    /**
     * Systematic-sweep share of the --explore budget; the sentinel
     * keeps the default 30% split. Zero isolates the guided (or
     * blind) phase for coverage-vs-blind comparisons.
     */
    unsigned systematic_budget = ~0u;
    /** "center:halfwidth" for the exhaustive small-window mode. */
    std::string exhaustive_window;
    /** Attach the stale-translation oracle to the run. */
    bool oracle = false;
    /** Timeline trace output (Chrome Trace Event JSON). */
    std::string trace_json;
    /**
     * Counter-sampling period in ticks; the sentinel means "auto":
     * 16 ms when --trace-json is given, otherwise off.
     */
    Tick stats_interval = ~Tick{0};
    /** Flight-recorder dump file, written on failure. */
    std::string flight_recorder;
    /** Machine-readable stats document, written after the run. */
    std::string stats_json;
    /** Print the paper-style xpr distribution rows per --repeat seed. */
    bool xpr_rows = false;
    // NUMA topology (see docs/NUMA.md).
    unsigned numa_nodes = 1;
    /** When nonzero, ncpus = numa_nodes * cpus_per_node. */
    unsigned cpus_per_node = 0;
    /** Uniform remote distance ("25") or full matrix ("10,25;25,10"). */
    std::string distance;
    std::string placement = "first-touch";
    unsigned migrate_threshold = 4;
    bool pt_replicas = false;
    // DMA devices (docs/DEVICES.md).
    unsigned devices = 0;
    /** 0 keeps the MachineConfig default IOTLB capacity. */
    unsigned iotlb_entries = 0;
};

/** Counter-sampling period after resolving the "auto" sentinel. */
Tick
statsInterval(const Options &opt)
{
    if (opt.stats_interval != ~Tick{0})
        return opt.stats_interval;
    return opt.trace_json.empty() ? 0 : 16 * kMsec;
}

/** Ring depth for --flight-recorder (matches the explorer's). */
constexpr std::size_t kFlightRingCapacity = 16384;

bool
writeTextFile(const std::string &path, const std::string &body)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::size_t wrote =
        std::fwrite(body.data(), 1, body.size(), f);
    return std::fclose(f) == 0 && wrote == body.size();
}

void
usage()
{
    std::printf(
        "machsim -- simulated-Multimax workload driver\n"
        "\nsimulator:\n"
        "  --ncpus N           processors (default 16)\n"
        "  --pools N           Section 8 kernel pools (default 1)\n"
        "  --seed N            deterministic seed\n"
        "  --lazy on|off       lazy evaluation (Table 1 toggle)\n"
        "  --no-shootdown      disable the algorithm (negative test)\n"
        "  --strategy S        shootdown | delayed-flush (Section 3)\n"
        "  --hipri-ipi         Section 9 high-priority sw interrupt\n"
        "  --multicast / --broadcast     Section 9 IPI options\n"
        "  --software-reload / --no-writeback / --remote-invalidate\n"
        "                      Section 9 TLB options\n"
        "  --asid-tags         Section 10 tagged-TLB extension\n"
        "  --shootdown-policy P  avoidance policy layered over the\n"
        "                      Figure 1 algorithm: baseline |\n"
        "                      lazy-asid (implies --asid-tags) |\n"
        "                      batched | range-flush | reuse-elide\n"
        "                      (implies --software-reload); see\n"
        "                      docs/ALGORITHM.md\n"
        "  --no-l0             disable the host-side L0 translation\n"
        "                      cache (identical simulated results)\n"
        "\nworkload:\n"
        "  --app NAME          tester | mach-build | parthenon | "
        "agora | camelot | serving\n"
        "  --children N        tester child threads (default 8)\n"
        "  --build-jobs N      mach-build compile jobs (default 48)\n"
        "  --transactions N    camelot transactions (default 200)\n"
        "  --runs N            parthenon/agora successive runs\n"
        "  --tenants N         serving tenant spaces forked over the\n"
        "                      run (default 24)\n"
        "  --tenant-concurrency N  live serving tenants at once\n"
        "                      (default 8)\n"
        "  --tenant-threads N  threads per tenant: 1 server + N-1\n"
        "                      siblings (default 2)\n"
        "  --requests N        requests per tenant (default 6)\n"
        "  --ws-pages N        serving hot working set (default 16)\n"
        "  --binary-pages N    shared read-mostly binary (default 64)\n"
        "  --mmap-pages N      pages mapped/unmapped per request\n"
        "                      (default 4)\n"
        "  --sharing F         fraction of accesses reading the\n"
        "                      shared binary (default 0.3)\n"
        "  --fault-mix F       fraction touching never-touched pages\n"
        "                      (default 0.35)\n"
        "  --zipf S            request-class Zipf skew (default 1.2)\n"
        "  --jobs N            run-farm width: concurrent simulations\n"
        "                      for --repeat batches (default\n"
        "                      MACH_FARM_JOBS or 1)\n"
        "  --repeat K          run the workload K times with seeds\n"
        "                      seed-base, seed-base+1, ... and print\n"
        "                      one summary table (per-seed digest +\n"
        "                      aggregate stats)\n"
        "  --seed-base N       first seed of a --repeat batch\n"
        "                      (default --seed)\n"
        "\nchecker:\n"
        "  --schedule STR      replay a perturbation schedule (the\n"
        "                      checker's e<seq>+<ticks>,b<n>+<ticks>\n"
        "                      format; see docs/CHECKER.md)\n"
        "  --oracle            audit TLB consistency after every pmap\n"
        "                      operation (exit 1 on any violation)\n"
        "  --app chk           run a checker scenario instead of a\n"
        "                      workload (oracle always attached)\n"
        "  --scenario NAME     which scenario --app chk runs; 'list'\n"
        "                      prints the library (vmgen-<seed>\n"
        "                      [x<nodes>][d] names generate property-\n"
        "                      based scenarios on demand; the 'd'\n"
        "                      suffix mixes in DMA-device ops)\n"
        "  --explore N         run a coverage-guided exploration\n"
        "                      campaign (N probes) over the scenario\n"
        "                      instead of one replay\n"
        "  --blind             make --explore sample blindly (the\n"
        "                      pre-coverage explorer; for comparisons)\n"
        "  --systematic N      give the systematic sweep N of the\n"
        "                      --explore probes (default 30%%; 0\n"
        "                      isolates guided-vs-blind probing)\n"
        "  --corpus DIR        persistent corpus for --explore:\n"
        "                      coverage-novel schedules are stored in\n"
        "                      DIR and campaigns resume from it\n"
        "                      (docs/CHECKER.md)\n"
        "  --exhaustive-window C:K   enumerate every delay placement\n"
        "                      (singles + pairs) in the event window\n"
        "                      [C-K, C+K] instead of sampling\n"
        "\nobservability:\n"
        "  --trace SPEC        text trace to stderr, one line per\n"
        "                      event of the listed categories: shoot,\n"
        "                      vm, sched, irq, tlb, or all (e.g.\n"
        "                      shoot,vm)\n"
        "  --trace-json FILE   write the run's timeline (spans,\n"
        "                      instants, counters) as Chrome Trace\n"
        "                      Event JSON -- open in Perfetto or\n"
        "                      chrome://tracing; --repeat batches\n"
        "                      write FILE.seed0x<seed>.json per seed\n"
        "  --stats-interval T  counter-sample period in ticks (ns);\n"
        "                      default 16 ms with --trace-json, else\n"
        "                      off; 0 disables (see\n"
        "                      docs/OBSERVABILITY.md on e<seq>\n"
        "                      schedule indices)\n"
        "  --flight-recorder F keep a bounded ring of recent events\n"
        "                      and dump it to F when the run fails\n"
        "                      (oracle violation, failed verdict,\n"
        "                      failed chk trial)\n"
        "  --stats-json FILE   write every histogram (with\n"
        "                      percentiles), machine counter, and the\n"
        "                      run digest as deterministic JSON\n"
        "                      (schema machsim-stats-v1, see\n"
        "                      docs/OBSERVABILITY.md); enables\n"
        "                      stats-only recording when no trace is\n"
        "                      requested; --repeat batches write\n"
        "                      FILE.seed0x<seed>.json per seed\n"
        "  --xpr               print the paper-style initiator/\n"
        "                      responder distribution rows for every\n"
        "                      seed of a --repeat batch\n"
        "\nnuma (docs/NUMA.md):\n"
        "  --numa N            NUMA nodes (default 1 = flat bus);\n"
        "                      each node gets its own bus and memory\n"
        "                      partition, cross-node shootdowns go\n"
        "                      through per-node delegates\n"
        "  --cpus-per-node N   with --numa, sets --ncpus to N per\n"
        "                      node (max 16 per node)\n"
        "  --distance D        uniform remote SLIT distance (e.g. 25;\n"
        "                      local is 10) or a full ;-separated\n"
        "                      matrix like \"10,25;25,10\"\n"
        "  --placement P       first-touch | interleave | migrate\n"
        "  --migrate-threshold N   remote faults on a page before the\n"
        "                      migrate policy copies it (default 4)\n"
        "  --pt-replicas       numaPTE-style per-node page-table\n"
        "                      replicas, kept coherent by the\n"
        "                      shootdown machinery\n"
        "\ndevices (docs/DEVICES.md):\n"
        "  --devices N         DMA devices with IOMMU-fed IOTLBs\n"
        "                      (default 0); each streams DMA against\n"
        "                      a private buffer task whose driver\n"
        "                      thread recycles the buffer, so every\n"
        "                      workload exercises device-responder\n"
        "                      shootdowns\n"
        "  --iotlb-entries N   per-device IOTLB capacity (default 8)\n");
}

/**
 * Checked flag values: each parser accepts the whole value or calls
 * fatal() naming the flag and the value -- a sign, trailing garbage,
 * and overflow are all rejected. Counts are decimal; seeds and tick
 * counts (@p base 0) also take 0x hex.
 */
std::uint64_t
parseU64(const std::string &flag, const char *value, int base = 10)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(value, &end, base);
    if (!std::isdigit(static_cast<unsigned char>(value[0])) ||
        *end != '\0' || errno == ERANGE)
        fatal("bad %s value '%s' (want an unsigned integer)",
              flag.c_str(), value);
    return v;
}

unsigned
parseUnsigned(const std::string &flag, const char *value)
{
    const std::uint64_t v = parseU64(flag, value);
    if (v > std::numeric_limits<unsigned>::max())
        fatal("bad %s value '%s' (out of range)", flag.c_str(), value);
    return static_cast<unsigned>(v);
}

double
parseDouble(const std::string &flag, const char *value)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(value, &end);
    if (!(std::isdigit(static_cast<unsigned char>(value[0])) ||
          value[0] == '.') ||
        *end != '\0' || errno == ERANGE)
        fatal("bad %s value '%s' (want a non-negative number)",
              flag.c_str(), value);
    return v;
}

bool
parse(int argc, char **argv, Options *opt)
{
    auto need_value = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            fatal("flag %s needs a value", argv[i]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--help" || flag == "-h") {
            usage();
            return false;
        } else if (flag == "--app") {
            opt->app = need_value(i);
        } else if (flag == "--ncpus") {
            opt->ncpus = parseUnsigned(flag, need_value(i));
        } else if (flag == "--pools") {
            opt->pools = parseUnsigned(flag, need_value(i));
        } else if (flag == "--seed") {
            opt->seed = parseU64(flag, need_value(i), 0);
        } else if (flag == "--children") {
            opt->children = parseUnsigned(flag, need_value(i));
        } else if (flag == "--build-jobs") {
            opt->build_jobs = parseUnsigned(flag, need_value(i));
        } else if (flag == "--jobs") {
            opt->farm_jobs = parseUnsigned(flag, need_value(i));
        } else if (flag == "--repeat") {
            opt->repeat = parseUnsigned(flag, need_value(i));
        } else if (flag == "--seed-base") {
            opt->seed_base = parseU64(flag, need_value(i), 0);
            opt->seed_base_set = true;
        } else if (flag == "--transactions") {
            opt->transactions = parseUnsigned(flag, need_value(i));
        } else if (flag == "--tenants") {
            opt->tenants = parseUnsigned(flag, need_value(i));
        } else if (flag == "--tenant-concurrency") {
            opt->tenant_concurrency = parseUnsigned(flag, need_value(i));
        } else if (flag == "--tenant-threads") {
            opt->tenant_threads = parseUnsigned(flag, need_value(i));
        } else if (flag == "--requests") {
            opt->requests = parseUnsigned(flag, need_value(i));
        } else if (flag == "--ws-pages") {
            opt->ws_pages = parseUnsigned(flag, need_value(i));
        } else if (flag == "--binary-pages") {
            opt->binary_pages = parseUnsigned(flag, need_value(i));
        } else if (flag == "--mmap-pages") {
            opt->mmap_pages = parseUnsigned(flag, need_value(i));
        } else if (flag == "--sharing") {
            opt->sharing = parseDouble(flag, need_value(i));
        } else if (flag == "--fault-mix") {
            opt->fault_mix = parseDouble(flag, need_value(i));
        } else if (flag == "--zipf") {
            opt->zipf_s = parseDouble(flag, need_value(i));
        } else if (flag == "--runs") {
            opt->runs = parseUnsigned(flag, need_value(i));
        } else if (flag == "--lazy") {
            const std::string v = need_value(i);
            if (v != "on" && v != "off")
                fatal("bad --lazy value '%s' (on | off)", v.c_str());
            opt->lazy = v == "on";
        } else if (flag == "--no-shootdown") {
            opt->shootdown = false;
        } else if (flag == "--strategy") {
            const std::string v = need_value(i);
            if (v != "shootdown" && v != "delayed-flush")
                fatal("unknown --strategy '%s' (shootdown | "
                      "delayed-flush)",
                      v.c_str());
            opt->delayed_flush = v == "delayed-flush";
        } else if (flag == "--hipri-ipi") {
            opt->high_priority_ipi = true;
        } else if (flag == "--multicast") {
            opt->multicast = true;
        } else if (flag == "--broadcast") {
            opt->broadcast = true;
        } else if (flag == "--software-reload") {
            opt->software_reload = true;
        } else if (flag == "--no-writeback") {
            opt->no_writeback = true;
        } else if (flag == "--remote-invalidate") {
            opt->remote_invalidate = true;
            opt->no_writeback = true;
        } else if (flag == "--asid-tags") {
            opt->asid_tags = true;
        } else if (flag == "--shootdown-policy") {
            opt->shootdown_policy = need_value(i);
        } else if (flag == "--no-l0") {
            opt->no_l0 = true;
        } else if (flag == "--trace") {
            std::string bad;
            if (!obs::parseCategories(need_value(i),
                                      &opt->trace_categories, &bad)) {
                fatal("unknown --trace category '%s' (shoot, vm, sched, "
                      "irq, tlb, all)",
                      bad.c_str());
            }
        } else if (flag == "--schedule") {
            opt->schedule = need_value(i);
        } else if (flag == "--scenario") {
            opt->scenario = need_value(i);
        } else if (flag == "--corpus") {
            opt->corpus_dir = need_value(i);
        } else if (flag == "--explore") {
            opt->explore_budget = parseUnsigned(flag, need_value(i));
        } else if (flag == "--blind") {
            opt->explore_blind = true;
        } else if (flag == "--systematic") {
            opt->systematic_budget = parseUnsigned(flag, need_value(i));
        } else if (flag == "--exhaustive-window") {
            opt->exhaustive_window = need_value(i);
        } else if (flag == "--oracle") {
            opt->oracle = true;
        } else if (flag == "--trace-json") {
            opt->trace_json = need_value(i);
        } else if (flag == "--stats-interval") {
            opt->stats_interval = parseU64(flag, need_value(i), 0);
        } else if (flag == "--flight-recorder") {
            opt->flight_recorder = need_value(i);
        } else if (flag == "--stats-json") {
            opt->stats_json = need_value(i);
        } else if (flag == "--xpr") {
            opt->xpr_rows = true;
        } else if (flag == "--numa") {
            opt->numa_nodes = parseUnsigned(flag, need_value(i));
        } else if (flag == "--cpus-per-node") {
            opt->cpus_per_node = parseUnsigned(flag, need_value(i));
        } else if (flag == "--distance") {
            opt->distance = need_value(i);
        } else if (flag == "--placement") {
            opt->placement = need_value(i);
        } else if (flag == "--migrate-threshold") {
            opt->migrate_threshold = parseUnsigned(flag, need_value(i));
        } else if (flag == "--pt-replicas") {
            opt->pt_replicas = true;
        } else if (flag == "--devices") {
            opt->devices = parseUnsigned(flag, need_value(i));
        } else if (flag == "--iotlb-entries") {
            opt->iotlb_entries = parseUnsigned(flag, need_value(i));
        } else {
            fatal("unknown flag '%s' (try --help)", flag.c_str());
        }
    }
    return true;
}

hw::MachineConfig
toConfig(const Options &opt)
{
    hw::MachineConfig config;
    config.ncpus = opt.ncpus;
    config.kernel_pools = opt.pools;
    config.seed = opt.seed;
    config.lazy_evaluation = opt.lazy;
    config.shootdown_enabled = opt.shootdown;
    config.high_priority_ipi = opt.high_priority_ipi;
    config.multicast_ipi = opt.multicast;
    config.broadcast_ipi = opt.broadcast;
    config.tlb_software_reload = opt.software_reload;
    config.tlb_no_refmod_writeback = opt.no_writeback;
    config.tlb_remote_invalidate = opt.remote_invalidate;
    config.tlb_asid_tags = opt.asid_tags;
    if (opt.no_l0)
        config.tlb_l0_entries = 0;
    if (opt.delayed_flush) {
        config.consistency_strategy =
            hw::ConsistencyStrategy::DelayedFlush;
        config.tlb_no_refmod_writeback = true;
    }
    config.numa_nodes = opt.numa_nodes;
    if (opt.cpus_per_node != 0)
        config.ncpus = opt.numa_nodes * opt.cpus_per_node;
    if (!opt.distance.empty()) {
        // A bare number is a uniform remote distance; anything else is
        // a full ;-separated matrix handed to the topology parser.
        if (opt.distance.find_first_not_of("0123456789") ==
            std::string::npos) {
            config.numa_remote_distance =
                parseUnsigned("--distance", opt.distance.c_str());
        } else {
            config.numa_distance_spec = opt.distance;
        }
    }
    if (opt.placement == "first-touch") {
        config.numa_placement = hw::PlacementPolicy::FirstTouch;
    } else if (opt.placement == "interleave") {
        config.numa_placement = hw::PlacementPolicy::Interleave;
    } else if (opt.placement == "migrate") {
        config.numa_placement = hw::PlacementPolicy::Migrate;
    } else {
        fatal("unknown --placement '%s' (first-touch | interleave | "
              "migrate)",
              opt.placement.c_str());
    }
    config.numa_migrate_threshold = opt.migrate_threshold;
    config.numa_pt_replicas = opt.pt_replicas;
    config.devices = opt.devices;
    if (opt.iotlb_entries != 0)
        config.iotlb_entries = opt.iotlb_entries;
    hw::ShootdownPolicy policy = hw::ShootdownPolicy::Baseline;
    if (!hw::parseShootdownPolicy(opt.shootdown_policy, &policy)) {
        fatal("unknown --shootdown-policy '%s' (baseline | lazy-asid "
              "| batched | range-flush | reuse-elide)",
              opt.shootdown_policy.c_str());
    }
    // Each policy's hardware prerequisite is implied rather than
    // demanded: lazy-asid needs a tagged TLB, reuse-elide needs
    // lock-aware (software) reload.
    config.setShootdownPolicy(policy);
    return config;
}

farm::FarmOptions
farmOptions(const Options &opt)
{
    return farm::FarmOptions{opt.farm_jobs != 0 ? opt.farm_jobs
                                                : farm::defaultJobs(1)};
}

/** Build the workload selected by --app. Fills @p tester when the
 *  app is the consistency tester (it has its own verdict). */
std::unique_ptr<apps::Workload>
makeApp(const Options &opt, apps::ConsistencyTester **tester)
{
    if (tester != nullptr)
        *tester = nullptr;
    if (opt.app == "tester") {
        auto owned = std::make_unique<apps::ConsistencyTester>(
            apps::ConsistencyTester::Params{.children = opt.children,
                                            .warmup = 30 * kMsec});
        if (tester != nullptr)
            *tester = owned.get();
        return owned;
    }
    if (opt.app == "mach-build")
        return std::make_unique<apps::MachBuild>(
            apps::MachBuild::Params{.jobs = opt.build_jobs});
    if (opt.app == "parthenon") {
        apps::Parthenon::Params params;
        params.runs = opt.runs;
        return std::make_unique<apps::Parthenon>(params);
    }
    if (opt.app == "agora") {
        apps::Agora::Params params;
        params.runs = opt.runs;
        return std::make_unique<apps::Agora>(params);
    }
    if (opt.app == "camelot")
        return std::make_unique<apps::Camelot>(
            apps::Camelot::Params{.transactions = opt.transactions});
    if (opt.app == "serving") {
        apps::Serving::Params params;
        params.tenants = opt.tenants;
        params.concurrency = opt.tenant_concurrency;
        params.threads_per_tenant = opt.tenant_threads;
        params.requests_per_tenant = opt.requests;
        params.ws_pages = opt.ws_pages;
        params.binary_pages = opt.binary_pages;
        params.mmap_pages = opt.mmap_pages;
        params.sharing = opt.sharing;
        params.fault_mix = opt.fault_mix;
        params.zipf_s = opt.zipf_s;
        params.seed = opt.seed;
        return std::make_unique<apps::Serving>(params);
    }
    fatal("unknown --app '%s' (try --help)", opt.app.c_str());
    return nullptr;
}

/**
 * --repeat K: fan the workload across K seeds on the run farm and
 * print one summary table -- the quick way to judge whether a result
 * (or a suspected nondeterminism) is seed-local, without K serial
 * process launches. Each seed is a fully isolated machine; the
 * per-seed digests are the same values `machsim --seed N` would
 * produce one at a time, independent of --jobs.
 */
int
runBatch(const Options &opt, const SchedulePerturber &perturber)
{
    struct Row
    {
        std::uint64_t seed = 0;
        Tick runtime = 0;
        std::uint64_t shootdowns = 0;
        std::uint64_t ipis = 0;
        std::uint64_t digest = 0;
        bool ok = false;
        xpr::RunAnalysis analysis;
    };

    const std::uint64_t base =
        opt.seed_base_set ? opt.seed_base : opt.seed;
    const farm::FarmOptions farm = farmOptions(opt);
    std::vector<Row> rows(opt.repeat);
    std::vector<std::function<void()>> jobs;
    jobs.reserve(opt.repeat);
    for (unsigned k = 0; k < opt.repeat; ++k) {
        jobs.push_back([&opt, &perturber, &rows, base, k] {
            Options one = opt;
            one.seed = base + k;
            vm::Kernel kernel(toConfig(one));
            kernel.machine().setPerturber(&perturber);
            apps::ConsistencyTester *tester = nullptr;
            std::unique_ptr<apps::Workload> app =
                makeApp(one, &tester);

            // Each seed records its own timeline into its own file,
            // suffixed by seed so concurrent farm workers (or fork
            // children, via the process file tag) never collide.
            obs::Recorder &rec = kernel.machine().recorder();
            std::unique_ptr<obs::Sampler> sampler;
            if (!one.trace_json.empty()) {
                rec.enable();
                if (statsInterval(one) != 0)
                    sampler = std::make_unique<obs::Sampler>(
                        kernel, statsInterval(one));
            } else if (!one.stats_json.empty()) {
                // Histograms only: --stats-json without a trace keeps
                // memory flat across the batch.
                rec.enableStats();
            }

            const apps::WorkloadResult result = app->execute(kernel);
            kernel.machine().setPerturber(nullptr);
            if (sampler != nullptr)
                sampler->stop();
            if (!one.trace_json.empty()) {
                char tag[32];
                std::snprintf(tag, sizeof(tag), "seed0x%llx",
                              static_cast<unsigned long long>(
                                  one.seed));
                const std::string path =
                    obs::suffixedPath(one.trace_json, tag);
                if (!rec.writeJsonFile(path))
                    warn("could not write trace JSON to %s",
                         path.c_str());
            }
            if (!one.stats_json.empty()) {
                char tag[32];
                std::snprintf(tag, sizeof(tag), "seed0x%llx",
                              static_cast<unsigned long long>(
                                  one.seed));
                const std::string path =
                    obs::suffixedPath(one.stats_json, tag);
                const obs::StatsMeta meta{one.app, one.seed,
                                          one.shootdown_policy};
                if (!obs::writeStatsJson(path, kernel, meta))
                    warn("could not write stats JSON to %s",
                         path.c_str());
            }

            Row &row = rows[k];
            row.seed = one.seed;
            row.runtime = result.virtual_runtime;
            const pmap::ShootdownController &shoot =
                kernel.pmaps().shoot();
            row.shootdowns = shoot.initiated;
            row.ipis = shoot.interrupts_sent;
            row.digest = xpr::runDigest(kernel);
            row.ok = tester != nullptr
                         ? tester->consistent() == one.shootdown
                         : kernel.pmaps().auditTlbConsistency().empty();
            row.analysis = result.analysis;
        });
    }

    std::printf("machsim: %s x %u seeds [0x%llx..0x%llx], farm "
                "--jobs %u\n\n",
                opt.app.c_str(), opt.repeat,
                static_cast<unsigned long long>(base),
                static_cast<unsigned long long>(base + opt.repeat - 1),
                farm.jobs);
    farm::runMany(std::move(jobs), farm.jobs);

    std::printf("%-12s %12s %12s %8s  %-18s %s\n", "seed",
                "runtime(s)", "shootdowns", "ipis", "digest",
                "verdict");
    Sample runtime;
    Sample shootdowns;
    bool all_ok = true;
    for (const Row &row : rows) {
        runtime.add(static_cast<double>(row.runtime) / kSec);
        shootdowns.add(static_cast<double>(row.shootdowns));
        all_ok = all_ok && row.ok;
        std::printf("0x%-10llx %12.3f %12llu %8llu  0x%016llx %s\n",
                    static_cast<unsigned long long>(row.seed),
                    static_cast<double>(row.runtime) / kSec,
                    static_cast<unsigned long long>(row.shootdowns),
                    static_cast<unsigned long long>(row.ipis),
                    static_cast<unsigned long long>(row.digest),
                    row.ok ? "ok" : "FAIL");
    }
    std::printf("\n%u seed(s): runtime %s s (min %.3f, max %.3f), "
                "shootdowns %s\n",
                opt.repeat, runtime.meanStd(3).c_str(),
                runtime.min(), runtime.max(),
                shootdowns.meanStd(1).c_str());

    if (opt.xpr_rows) {
        // The paper-style Tables 1-4 rows, one block per seed: events,
        // mean+-std, and the 10th/50th/90th percentiles in usec.
        for (const Row &row : rows) {
            const xpr::RunAnalysis &a = row.analysis;
            std::printf("\nxpr distributions, seed 0x%llx%s\n",
                        static_cast<unsigned long long>(row.seed),
                        a.overflowed
                            ? " (xpr buffer OVERFLOWED; truncated)"
                            : "");
            std::printf("%s\n",
                        xpr::formatRow("kernel", a.kernel_initiator,
                                       a.kernel_initiator.events < 16)
                            .c_str());
            std::printf("%s\n",
                        xpr::formatRow("user", a.user_initiator,
                                       a.user_initiator.events < 16)
                            .c_str());
            std::printf("%s\n",
                        xpr::formatRow("responder", a.responder,
                                       a.responder.events < 16)
                            .c_str());
        }
        std::printf("\n");
    }

    std::printf("verdict: %s\n",
                all_ok ? "all consistent" : "FAILURES (see table)");
    return all_ok ? 0 : 1;
}

/**
 * --app chk: replay a perturbation schedule against a checker
 * scenario (or its unperturbed baseline) with the oracle attached.
 * This is how a minimized schedule printed by the explorer (or by
 * CI's failure artifacts) is reproduced from the command line.
 */
/** Shared report for explore / exhaustive campaign results. */
int
reportCampaign(const chk::ExploreResult &res, const chk::Corpus *corpus,
               const std::string &scenario_name)
{
    std::printf("trials: %u (%u duplicate probe(s) skipped, %u "
                "coverage-novel)\n",
                res.trials, res.duplicate_probes_skipped,
                res.coverage_novel);
    if (corpus != nullptr)
        std::printf("corpus: %zu bucket(s), %zu entr(ies)%s%s\n",
                    corpus->buckets(scenario_name),
                    corpus->entries().size(),
                    corpus->dir().empty() ? "" : " in ",
                    corpus->dir().c_str());
    if (res.baseline_failed) {
        std::printf("baseline FAILED: %s\n",
                    res.baseline.note.c_str());
        return 1;
    }
    if (res.failures == 0) {
        std::printf("no failing schedule found\n");
        return 0;
    }
    std::printf("failures: %u\nfirst failing schedule: %s\n"
                "minimized: %s\n",
                res.failures, res.first_failing.format().c_str(),
                res.minimized_schedule.c_str());
    for (const std::string &v : res.minimized_result.violations)
        std::printf("  %s\n", v.c_str());
    if (!res.minimized_result.note.empty())
        std::printf("note: %s\n", res.minimized_result.note.c_str());
    return 1;
}

int
runCheckerScenario(const Options &opt,
                   const SchedulePerturber &perturber)
{
    if (opt.scenario == "list") {
        for (const chk::Scenario &s : chk::builtinScenarios())
            std::printf("%-22s %s\n", s.name.c_str(),
                        s.summary.c_str());
        std::printf("%-22s %s\n", "broken-stall",
                    chk::brokenStallScenario().summary.c_str());
        std::printf("%-22s %s\n", "broken-replica",
                    chk::brokenReplicaScenario().summary.c_str());
        std::printf("%-22s %s\n", "broken-l0",
                    chk::brokenL0Scenario().summary.c_str());
        std::printf("%-22s %s\n", "broken-asid",
                    chk::brokenAsidScenario().summary.c_str());
        std::printf("%-22s %s\n", "broken-iotlb",
                    chk::brokenIotlbScenario().summary.c_str());
        return 0;
    }
    chk::Scenario resolved;
    if (!chk::resolveScenario(opt.scenario, &resolved))
        fatal("unknown --scenario '%s' (try --scenario list)",
              opt.scenario.c_str());
    const chk::Scenario *scenario = &resolved;

    const auto log = [](const std::string &msg) {
        std::printf("  %s\n", msg.c_str());
    };

    if (!opt.exhaustive_window.empty()) {
        // --exhaustive-window C:K -- the bounded, complete enumeration.
        chk::ExhaustiveWindow window;
        const std::size_t colon = opt.exhaustive_window.find(':');
        if (colon == std::string::npos)
            fatal("bad --exhaustive-window '%s' (want "
                  "center:halfwidth)",
                  opt.exhaustive_window.c_str());
        window.center = parseU64(
            "--exhaustive-window",
            opt.exhaustive_window.substr(0, colon).c_str(), 0);
        window.halfwidth = parseU64(
            "--exhaustive-window",
            opt.exhaustive_window.c_str() + colon + 1, 0);
        std::printf("machsim: chk scenario %s, exhaustive window "
                    "%llu +- %llu\n",
                    scenario->name.c_str(),
                    static_cast<unsigned long long>(window.center),
                    static_cast<unsigned long long>(window.halfwidth));
        chk::Explorer explorer(log, farmOptions(opt));
        const chk::ExploreResult res =
            explorer.exploreExhaustive(*scenario, window);
        return reportCampaign(res, nullptr, scenario->name);
    }

    if (opt.explore_budget != 0) {
        // --explore N -- a coverage-guided (or --blind) campaign.
        chk::Corpus corpus(opt.corpus_dir);
        chk::ExploreOptions eopt;
        eopt.systematic_budget =
            opt.systematic_budget != ~0u
                ? std::min(opt.systematic_budget, opt.explore_budget)
                : opt.explore_budget * 3 / 10;
        eopt.random_budget =
            opt.explore_budget - eopt.systematic_budget;
        eopt.coverage_guided = !opt.explore_blind;
        eopt.corpus = &corpus;
        std::printf("machsim: chk scenario %s, %s exploration, %u "
                    "probe budget%s%s\n",
                    scenario->name.c_str(),
                    eopt.coverage_guided ? "coverage-guided" : "blind",
                    opt.explore_budget,
                    opt.corpus_dir.empty() ? "" : ", corpus ",
                    opt.corpus_dir.c_str());
        chk::Explorer explorer(log, farmOptions(opt));
        const chk::ExploreResult res =
            explorer.explore(*scenario, eopt);
        return reportCampaign(res, &corpus, scenario->name);
    }

    std::printf("machsim: chk scenario %s, schedule \"%s\"\n",
                scenario->name.c_str(), perturber.format().c_str());
    chk::Explorer explorer(nullptr, farmOptions(opt));

    // Recording never perturbs the trial, so recorded and plain
    // replays produce the same digest. The counter sampler is never
    // attached here: it would shift the e<seq> index space the
    // --schedule directives address.
    const bool record =
        !opt.trace_json.empty() || !opt.flight_recorder.empty();
    std::string trace_json;
    const chk::TrialResult r =
        record ? explorer.runTrialRecorded(
                     *scenario, perturber, &trace_json,
                     opt.trace_json.empty() ? kFlightRingCapacity : 0)
               : explorer.runTrial(*scenario, perturber);
    if (!opt.trace_json.empty()) {
        if (writeTextFile(opt.trace_json, trace_json))
            std::printf("trace: %s\n", opt.trace_json.c_str());
        else
            warn("could not write trace JSON to %s",
                 opt.trace_json.c_str());
    }
    if (!opt.flight_recorder.empty() && r.failed()) {
        if (writeTextFile(opt.flight_recorder, trace_json))
            std::printf("flight recorder: %s\n",
                        opt.flight_recorder.c_str());
        else
            warn("could not write flight-recorder trace to %s",
                 opt.flight_recorder.c_str());
    }
    std::printf("completed: %s\npredicate: %s\nviolations: %llu\n",
                r.completed ? "yes" : "NO (liveness)",
                r.predicate_ok ? "held" : "VIOLATED",
                static_cast<unsigned long long>(r.violation_count));
    for (const std::string &v : r.violations)
        std::printf("  %s\n", v.c_str());
    if (!r.note.empty())
        std::printf("note: %s\n", r.note.c_str());
    std::printf("end time: %llu ticks, digest: 0x%016llx\n",
                static_cast<unsigned long long>(r.end_time),
                static_cast<unsigned long long>(r.digest));
    return r.failed() ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parse(argc, argv, &opt))
        return 0;
    obs::setProcessTextTrace(opt.trace_categories);

    SchedulePerturber perturber;
    std::string perturb_error;
    if (!SchedulePerturber::parse(opt.schedule, &perturber,
                                  &perturb_error))
        fatal("bad --schedule: %s", perturb_error.c_str());

    if (opt.app == "chk")
        return runCheckerScenario(opt, perturber);
    if (opt.repeat != 0)
        return runBatch(opt, perturber);

    vm::Kernel kernel(toConfig(opt));
    kernel.machine().setPerturber(&perturber);
    std::unique_ptr<chk::Oracle> oracle;
    if (opt.oracle)
        oracle = std::make_unique<chk::Oracle>(kernel);

    apps::ConsistencyTester *tester = nullptr;
    std::unique_ptr<apps::Workload> app = makeApp(opt, &tester);

    // Timeline recording: --trace-json records everything for a full
    // export; --flight-recorder alone keeps only a bounded ring, armed
    // to dump on failure (the oracle triggers it the moment a stale
    // translation is seen; a failed verdict triggers it at exit).
    obs::Recorder &rec = kernel.machine().recorder();
    std::unique_ptr<obs::Sampler> sampler;
    if (!opt.trace_json.empty() || !opt.flight_recorder.empty()) {
        if (opt.trace_json.empty())
            rec.enableRing(kFlightRingCapacity);
        else
            rec.enable();
        if (!opt.flight_recorder.empty())
            rec.setDumpPath(opt.flight_recorder);
        if (statsInterval(opt) != 0)
            sampler =
                std::make_unique<obs::Sampler>(kernel, statsInterval(opt));
    } else if (!opt.stats_json.empty()) {
        // Histograms without a timeline: every span site still feeds
        // the metrics registry, but no events are stored.
        rec.enableStats();
    }

    if (opt.numa_nodes > 1)
        std::printf("machsim: %s on %u CPUs / %u nodes (seed 0x%llx)\n",
                    opt.app.c_str(), kernel.machine().ncpus(),
                    opt.numa_nodes,
                    static_cast<unsigned long long>(opt.seed));
    else
        std::printf("machsim: %s on %u CPUs (seed 0x%llx)\n",
                    opt.app.c_str(), kernel.machine().ncpus(),
                    static_cast<unsigned long long>(opt.seed));
    if (!perturber.empty())
        std::printf("schedule: %s (%zu directive(s))\n",
                    perturber.format().c_str(), perturber.size());
    const apps::WorkloadResult result = app->execute(kernel);
    if (sampler != nullptr)
        sampler->stop();

    std::printf("\nvirtual runtime: %.2f s\n",
                static_cast<double>(result.virtual_runtime) / kSec);
    std::printf("%s\n",
                xpr::formatRow("kernel",
                               result.analysis.kernel_initiator,
                               result.analysis.kernel_initiator.events <
                                   16)
                    .c_str());
    std::printf("%s\n",
                xpr::formatRow("user", result.analysis.user_initiator,
                               result.analysis.user_initiator.events <
                                   16)
                    .c_str());
    std::printf("%s\n",
                xpr::formatRow("responder", result.analysis.responder,
                               result.analysis.responder.events < 16)
                    .c_str());
    std::printf("lazily avoided shootdowns: %llu\n\n",
                static_cast<unsigned long long>(result.lazy_avoided));
    std::printf("%s", xpr::MachineStats::capture(kernel).report().c_str());

    if (result.analysis.overflowed)
        std::printf("\nWARNING: xpr buffer overflowed; distribution "
                    "rows above are truncated\n");

    if (!opt.trace_json.empty()) {
        if (rec.writeJsonFile(opt.trace_json)) {
            std::printf("\ntrace: %zu events on %zu tracks -> %s\n",
                        rec.events().size(), rec.tracks().size(),
                        opt.trace_json.c_str());
        } else {
            warn("could not write trace JSON to %s",
                 opt.trace_json.c_str());
        }
    }
    if (rec.enabled() && !rec.metrics().empty())
        std::printf("\nlatency histograms (usec):\n%s",
                    rec.metrics().report().c_str());
    if (!opt.stats_json.empty()) {
        const obs::StatsMeta meta{opt.app, opt.seed,
                                  opt.shootdown_policy};
        if (obs::writeStatsJson(opt.stats_json, kernel, meta))
            std::printf("\nstats: %s\n", opt.stats_json.c_str());
        else
            warn("could not write stats JSON to %s",
                 opt.stats_json.c_str());
    }

    int rc = 0;
    if (tester != nullptr) {
        std::printf("\ntester verdict: %s\n",
                    tester->consistent() ? "consistent"
                                         : "INCONSISTENT");
        rc = tester->consistent() == opt.shootdown ? 0 : 1;
    } else {
        const auto violations = kernel.pmaps().auditTlbConsistency();
        std::printf("\nTLB consistency audit: %s\n",
                    violations.empty() ? "clean" : "VIOLATIONS");
        rc = violations.empty() ? 0 : 1;
    }
    if (oracle) {
        oracle->finalCheck();
        std::printf("oracle: %llu audits, %llu violation(s)\n",
                    static_cast<unsigned long long>(
                        oracle->opsAudited()),
                    static_cast<unsigned long long>(
                        oracle->violationCount()));
        for (const std::string &v : oracle->violations())
            std::printf("  %s\n", v.c_str());
        if (!oracle->clean())
            rc = 1;
    }
    if (rc != 0 && rec.dumpOnFailure("run failed")) {
        // The oracle may have dumped earlier (at first violation);
        // this catches verdict failures that produce no violation.
        std::printf("flight recorder: %s\n", rec.dumpPath().c_str());
    } else if (rc != 0 && rec.dumped()) {
        std::printf("flight recorder: %s\n", rec.dumpPath().c_str());
    }
    return rc;
}
