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
 *   machsim --app parthenon --shootdown-policy delayed-flush
 *   machsim --app tester --pools 4 --ncpus 64
 *
 * Each flag is one row of kFlags: its name, its help, and a setter
 * that writes straight into hw::MachineConfig or the app's own Params,
 * so an unset flag keeps the library's default. Run `machsim --help`
 * for the full flag list.
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

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

/** Everything the command line sets. */
struct Cli
{
    // The machine and the workloads: flags write straight into the
    // library's own structs.
    hw::MachineConfig machine;
    apps::ConsistencyTester::Params tester{.children = 8};
    apps::MachBuild::Params mach_build;
    apps::Parthenon::Params parthenon;
    apps::Agora::Params agora;
    apps::Camelot::Params camelot;
    /** Its seed follows the machine's, seed by seed under --repeat. */
    apps::Serving::Params serving;

    std::string app = "tester";
    /** Run farm width (--jobs). 0 = MACH_FARM_JOBS or serial. */
    unsigned jobs = 0;
    /** Batch mode: run the workload under this many seeds. */
    unsigned repeat = 0;
    /** First seed of a --repeat batch (unset: machine.seed). */
    std::optional<std::uint64_t> seed_base;
    /** When nonzero, ncpus = numa_nodes * cpus_per_node. */
    unsigned cpus_per_node = 0;

    /** Perturbation directives, e.g. "e89+187500,b40+9000". */
    SchedulePerturber schedule;
    /** Checker scenario for --app chk. */
    std::string scenario = "storm-baseline";
    /** Persistent corpus directory for --explore campaigns. */
    std::string corpus_dir;
    /** Probe budget: run a coverage-guided campaign, not a replay. */
    unsigned explore_budget = 0;
    /** --explore without the coverage guidance (blind sampling). */
    bool explore_blind = false;
    /**
     * Systematic-sweep share of the --explore budget; unset keeps the
     * default 30% split. Zero isolates the guided (or blind) phase for
     * coverage-vs-blind comparisons.
     */
    std::optional<unsigned> systematic_budget;
    /** The exhaustive small-window mode's window. */
    std::optional<chk::ExhaustiveWindow> exhaustive_window;
    /** Attach the stale-translation oracle to the run. */
    bool oracle = false;

    /** Text-trace categories (--trace), a mask of obs::Category bits. */
    std::uint32_t trace_categories = 0;
    /** Timeline trace output (Chrome Trace Event JSON). */
    std::string trace_json;
    /** Counter-sampling period in ticks; unset: 16 ms with
     *  --trace-json, otherwise off. */
    std::optional<Tick> stats_interval;
    /** Flight-recorder dump file, written on failure. */
    std::string flight_recorder;
    /** Machine-readable stats document, written after the run. */
    std::string stats_json;
    /** Print the paper-style xpr distribution rows per --repeat seed. */
    bool xpr_rows = false;
};

/**
 * One flag's value. Each accessor accepts the whole string or calls
 * fatal() naming the flag and the value -- a sign, trailing garbage,
 * and overflow are all rejected. Counts are decimal; seeds and tick
 * counts (@p base 0) also take 0x hex.
 */
struct Value
{
    const char *flag;
    std::string str;

    std::uint64_t
    u64(int base = 10) const
    {
        char *end = nullptr;
        errno = 0;
        const unsigned long long v = std::strtoull(str.c_str(), &end, base);
        if (!std::isdigit(static_cast<unsigned char>(str[0])) ||
            *end != '\0' || errno == ERANGE)
            fatal("bad %s value '%s' (want an unsigned integer)", flag,
                  str.c_str());
        return v;
    }

    unsigned
    u32() const
    {
        const std::uint64_t v = u64();
        if (v > std::numeric_limits<unsigned>::max())
            fatal("bad %s value '%s' (out of range)", flag, str.c_str());
        return static_cast<unsigned>(v);
    }

    double
    real() const
    {
        char *end = nullptr;
        errno = 0;
        const double v = std::strtod(str.c_str(), &end);
        if (!(std::isdigit(static_cast<unsigned char>(str[0])) ||
              str[0] == '.') ||
            *end != '\0' || errno == ERANGE)
            fatal("bad %s value '%s' (want a non-negative number)", flag,
                  str.c_str());
        return v;
    }
};

/** One row of the flag table: a flag, or a help-section heading. */
struct Flag
{
    /** "--ncpus"; a heading's section title. */
    const char *name;
    /** Value placeholder ("N"); null for a switch and a heading. */
    const char *arg;
    const char *help;
    /** Writes the value into the Cli; null marks a heading. */
    void (*set)(Cli &, const Value &);
    /** Heading only: its section's flags shape the machine, which a
     *  checker scenario fixes, so --app chk rejects them. */
    bool machine = false;
};

constexpr Flag
heading(const char *title, bool machine)
{
    return Flag{title, nullptr, nullptr, nullptr, machine};
}

constexpr Flag kFlags[] = {
    heading("simulator", true),
    {"--ncpus", "N", "processors (default 16)",
     [](Cli &c, const Value &v) { c.machine.ncpus = v.u32(); }},
    {"--pools", "N", "Section 8 kernel pools (default 1)",
     [](Cli &c, const Value &v) { c.machine.kernel_pools = v.u32(); }},
    {"--seed", "N", "deterministic seed",
     [](Cli &c, const Value &v) { c.machine.seed = v.u64(0); }},
    {"--lazy", "on|off", "lazy evaluation (Table 1 toggle)",
     [](Cli &c, const Value &v) {
         if (v.str != "on" && v.str != "off")
             fatal("bad --lazy value '%s' (on | off)", v.str.c_str());
         c.machine.lazy_evaluation = v.str == "on";
     }},
    {"--hipri-ipi", nullptr, "Section 9 high-priority sw interrupt",
     [](Cli &c, const Value &) { c.machine.high_priority_ipi = true; }},
    {"--ipi", "S", "Section 9 shootdown IPI: directed (default) | "
     "multicast | broadcast",
     [](Cli &c, const Value &v) {
         // In hw::IpiSend order.
         static constexpr const char *kSends[] = {"directed", "multicast",
                                                  "broadcast"};
         const auto it = std::find(std::begin(kSends), std::end(kSends),
                                   v.str);
         if (it == std::end(kSends))
             fatal("unknown --ipi '%s' (directed | multicast | "
                   "broadcast)",
                   v.str.c_str());
         c.machine.ipi_send =
             static_cast<hw::IpiSend>(it - std::begin(kSends));
     }},
    {"--software-reload", nullptr, "Section 9 software-reloaded TLB",
     [](Cli &c, const Value &) { c.machine.tlb_software_reload = true; }},
    {"--no-writeback", nullptr, "Section 9 TLB that never writes "
     "reference/modify bits back",
     [](Cli &c, const Value &) {
         c.machine.tlb_refmod = hw::TlbRefmod::None;
     }},
    {"--asid-tags", nullptr, "Section 10 tagged-TLB extension",
     [](Cli &c, const Value &) { c.machine.tlb_asid_tags = true; }},
    {"--shootdown-policy", "P", "consistency technique: baseline | "
     "lazy-asid (implies --asid-tags) | batched | range-flush | "
     "reuse-elide (implies --software-reload) | off (negative test) | "
     "delayed-flush (Section 3) | remote-invalidate (Section 9); the "
     "last two imply --no-writeback; see docs/ALGORITHM.md",
     [](Cli &c, const Value &v) {
         hw::ShootdownPolicy policy = hw::ShootdownPolicy::Baseline;
         if (!hw::parseShootdownPolicy(v.str, &policy))
             fatal("unknown --shootdown-policy '%s' (baseline | "
                   "lazy-asid | batched | range-flush | reuse-elide | "
                   "off | delayed-flush | remote-invalidate)",
                   v.str.c_str());
         c.machine.setShootdownPolicy(policy);
     }},
    {"--no-l0", nullptr, "disable the host-side L0 translation cache "
     "(identical simulated results)",
     [](Cli &c, const Value &) { c.machine.tlb_l0_entries = 0; }},

    heading("workload", false),
    {"--app", "NAME", "tester | mach-build | parthenon | agora | "
     "camelot | serving, or chk to run a checker scenario (see "
     "--scenario)",
     [](Cli &c, const Value &v) {
         static constexpr const char *kApps[] = {
             "tester", "mach-build", "parthenon", "agora",
             "camelot", "serving", "chk"};
         if (std::find(std::begin(kApps), std::end(kApps), v.str) ==
             std::end(kApps))
             fatal("unknown --app '%s' (try --help)", v.str.c_str());
         c.app = v.str;
     }},
    {"--children", "N", "tester child threads (default 8)",
     [](Cli &c, const Value &v) { c.tester.children = v.u32(); }},
    {"--build-jobs", "N", "mach-build compile jobs (default 48)",
     [](Cli &c, const Value &v) { c.mach_build.jobs = v.u32(); }},
    {"--transactions", "N", "camelot transactions (default 200)",
     [](Cli &c, const Value &v) { c.camelot.transactions = v.u32(); }},
    {"--runs", "N", "parthenon/agora successive runs",
     [](Cli &c, const Value &v) {
         c.parthenon.runs = c.agora.runs = v.u32();
     }},
    {"--tenants", "N", "serving tenant spaces forked over the run "
     "(default 24)",
     [](Cli &c, const Value &v) { c.serving.tenants = v.u32(); }},
    {"--tenant-concurrency", "N", "live serving tenants at once "
     "(default 8)",
     [](Cli &c, const Value &v) { c.serving.concurrency = v.u32(); }},
    {"--tenant-threads", "N", "threads per tenant: 1 server + N-1 "
     "siblings (default 2)",
     [](Cli &c, const Value &v) {
         c.serving.threads_per_tenant = v.u32();
     }},
    {"--requests", "N", "requests per tenant (default 6)",
     [](Cli &c, const Value &v) {
         c.serving.requests_per_tenant = v.u32();
     }},
    {"--ws-pages", "N", "serving hot working set (default 16)",
     [](Cli &c, const Value &v) { c.serving.ws_pages = v.u32(); }},
    {"--binary-pages", "N", "shared read-mostly binary (default 64)",
     [](Cli &c, const Value &v) { c.serving.binary_pages = v.u32(); }},
    {"--mmap-pages", "N", "pages mapped/unmapped per request (default 4)",
     [](Cli &c, const Value &v) { c.serving.mmap_pages = v.u32(); }},
    {"--sharing", "F", "fraction of accesses reading the shared binary "
     "(default 0.3)",
     [](Cli &c, const Value &v) { c.serving.sharing = v.real(); }},
    {"--fault-mix", "F", "fraction touching never-touched pages "
     "(default 0.35)",
     [](Cli &c, const Value &v) { c.serving.fault_mix = v.real(); }},
    {"--zipf", "S", "request-class Zipf skew (default 1.2)",
     [](Cli &c, const Value &v) { c.serving.zipf_s = v.real(); }},
    {"--jobs", "N", "run-farm width: concurrent simulations for "
     "--repeat batches and checker campaigns (default MACH_FARM_JOBS "
     "or 1)",
     [](Cli &c, const Value &v) { c.jobs = v.u32(); }},
    {"--repeat", "K", "run the workload K times with seeds seed-base, "
     "seed-base+1, ... and print one summary table (per-seed digest + "
     "aggregate stats)",
     [](Cli &c, const Value &v) { c.repeat = v.u32(); }},
    {"--seed-base", "N", "first seed of a --repeat batch (default "
     "--seed)",
     [](Cli &c, const Value &v) { c.seed_base = v.u64(0); }},

    heading("checker", false),
    {"--schedule", "STR", "replay a perturbation schedule (the "
     "checker's e<seq>+<ticks>,b<n>+<ticks> format; see "
     "docs/CHECKER.md)",
     [](Cli &c, const Value &v) {
         std::string error;
         if (!SchedulePerturber::parse(v.str, &c.schedule, &error))
             fatal("bad --schedule: %s", error.c_str());
     }},
    {"--oracle", nullptr, "audit TLB consistency after every pmap "
     "operation (exit 1 on any violation; a --repeat seed with one "
     "fails)",
     [](Cli &c, const Value &) { c.oracle = true; }},
    {"--scenario", "NAME", "which scenario --app chk runs, oracle always "
     "attached; 'list' prints the library (vmgen-<seed>[x<nodes>][d] "
     "names generate property-based scenarios on demand; the 'd' "
     "suffix mixes in DMA-device ops). The scenario fixes the machine: "
     "--app chk rejects the simulator, numa and devices flags",
     [](Cli &c, const Value &v) { c.scenario = v.str; }},
    {"--explore", "N", "run a coverage-guided exploration campaign (N "
     "probes) over the scenario instead of one replay",
     [](Cli &c, const Value &v) { c.explore_budget = v.u32(); }},
    {"--blind", nullptr, "make --explore sample blindly (the "
     "pre-coverage explorer; for comparisons)",
     [](Cli &c, const Value &) { c.explore_blind = true; }},
    {"--systematic", "N", "give the systematic sweep N of the --explore "
     "probes (default 30%; 0 isolates guided-vs-blind probing)",
     [](Cli &c, const Value &v) { c.systematic_budget = v.u32(); }},
    {"--corpus", "DIR", "persistent corpus for --explore: "
     "coverage-novel schedules are stored in DIR and campaigns resume "
     "from it (docs/CHECKER.md)",
     [](Cli &c, const Value &v) { c.corpus_dir = v.str; }},
    {"--exhaustive-window", "C:K", "enumerate every delay placement "
     "(singles + pairs) in the event window [C-K, C+K] instead of "
     "sampling",
     [](Cli &c, const Value &v) {
         const std::size_t colon = v.str.find(':');
         if (colon == std::string::npos)
             fatal("bad --exhaustive-window '%s' (want "
                   "center:halfwidth)",
                   v.str.c_str());
         chk::ExhaustiveWindow window;
         window.center = Value{v.flag, v.str.substr(0, colon)}.u64(0);
         window.halfwidth = Value{v.flag, v.str.substr(colon + 1)}.u64(0);
         c.exhaustive_window = window;
     }},

    heading("observability", false),
    {"--trace", "SPEC", "text trace to stderr, one line per event of the "
     "listed categories: shoot, vm, sched, irq, tlb, or all (e.g. "
     "shoot,vm)",
     [](Cli &c, const Value &v) {
         std::string bad;
         if (!obs::parseCategories(v.str, &c.trace_categories, &bad))
             fatal("unknown --trace category '%s' (shoot, vm, sched, "
                   "irq, tlb, all)",
                   bad.c_str());
     }},
    {"--trace-json", "FILE", "write the run's timeline (spans, "
     "instants, counters) as Chrome Trace Event JSON -- open in Perfetto "
     "or chrome://tracing; --repeat batches write FILE.seed0x<seed>.json "
     "per seed",
     [](Cli &c, const Value &v) { c.trace_json = v.str; }},
    {"--stats-interval", "T", "counter-sample period in ticks (ns); "
     "default 16 ms with --trace-json, else off; 0 disables",
     [](Cli &c, const Value &v) { c.stats_interval = v.u64(0); }},
    {"--flight-recorder", "F", "keep a bounded ring of recent events and "
     "dump it to F when the run fails (oracle violation, failed "
     "verdict, failed chk trial); --repeat batches dump "
     "F.seed0x<seed>.json per failing seed",
     [](Cli &c, const Value &v) { c.flight_recorder = v.str; }},
    {"--stats-json", "FILE", "write every histogram (with percentiles), "
     "machine counter, and the run digest as deterministic JSON (schema "
     "machsim-stats-v1, see docs/OBSERVABILITY.md); enables stats-only "
     "recording when no trace is requested; --repeat batches write "
     "FILE.seed0x<seed>.json per seed",
     [](Cli &c, const Value &v) { c.stats_json = v.str; }},
    {"--xpr", nullptr, "print the paper-style initiator/responder "
     "distribution rows for every seed of a --repeat batch",
     [](Cli &c, const Value &) { c.xpr_rows = true; }},

    heading("numa (docs/NUMA.md)", true),
    {"--numa", "N", "NUMA nodes (default 1 = flat bus); each node gets "
     "its own bus and memory partition, cross-node shootdowns go "
     "through per-node delegates",
     [](Cli &c, const Value &v) { c.machine.numa_nodes = v.u32(); }},
    {"--cpus-per-node", "N", "with --numa, sets --ncpus to N per node "
     "(max 16 per node)",
     [](Cli &c, const Value &v) { c.cpus_per_node = v.u32(); }},
    {"--distance", "D", "uniform remote SLIT distance (e.g. 25; local "
     "is 10) or a full ;-separated matrix like \"10,25;25,10\"",
     [](Cli &c, const Value &v) { c.machine.numa_distance_spec = v.str; }},
    {"--placement", "P", "first-touch | interleave | migrate",
     [](Cli &c, const Value &v) {
         if (v.str == "first-touch")
             c.machine.numa_placement = hw::PlacementPolicy::FirstTouch;
         else if (v.str == "interleave")
             c.machine.numa_placement = hw::PlacementPolicy::Interleave;
         else if (v.str == "migrate")
             c.machine.numa_placement = hw::PlacementPolicy::Migrate;
         else
             fatal("unknown --placement '%s' (first-touch | interleave "
                   "| migrate)",
                   v.str.c_str());
     }},
    {"--migrate-threshold", "N", "remote faults on a page before the "
     "migrate policy copies it (default 4)",
     [](Cli &c, const Value &v) {
         c.machine.numa_migrate_threshold = v.u32();
     }},
    {"--pt-replicas", nullptr, "numaPTE-style per-node page-table "
     "replicas, kept coherent by the shootdown machinery",
     [](Cli &c, const Value &) { c.machine.numa_pt_replicas = true; }},

    heading("devices (docs/DEVICES.md)", true),
    {"--devices", "N", "DMA devices with IOMMU-fed IOTLBs (default 0); "
     "each streams DMA against a private buffer task whose driver thread "
     "recycles the buffer, so every workload exercises device-responder "
     "shootdowns",
     [](Cli &c, const Value &v) { c.machine.devices = v.u32(); }},
    {"--iotlb-entries", "N", "per-device IOTLB capacity (default 8)",
     [](Cli &c, const Value &v) { c.machine.iotlb_entries = v.u32(); }},
};

void
usage()
{
    // The flag column is 22 wide; help words wrap at column 76.
    constexpr std::size_t kIndent = 22;
    constexpr std::size_t kWidth = 76;
    std::printf("machsim -- simulated-Multimax workload driver\n");
    for (const Flag &f : kFlags) {
        if (f.set == nullptr) {
            std::printf("\n%s:\n", f.name);
            continue;
        }
        std::string line = std::string("  ") + f.name;
        if (f.arg != nullptr)
            line += std::string(" ") + f.arg;
        line.resize(std::max(line.size() + 2, kIndent), ' ');
        std::size_t start = line.size();
        std::istringstream words(f.help);
        std::string word;
        while (words >> word) {
            if (line.size() > start &&
                line.size() + 1 + word.size() > kWidth) {
                std::printf("%s\n", line.c_str());
                line.assign(kIndent, ' ');
                start = kIndent;
            }
            line += (line.size() > start ? " " : "") + word;
        }
        std::printf("%s\n", line.c_str());
    }
}

/** Parse argv into @p cli; false when --help printed the usage. */
bool
parse(int argc, char **argv, Cli *cli)
{
    const char *machine_flag = nullptr;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage();
            return false;
        }
        const Flag *flag = nullptr;
        bool machine = false;
        for (const Flag &f : kFlags) {
            if (f.set == nullptr) {
                machine = f.machine;
            } else if (arg == f.name) {
                flag = &f;
                break;
            }
        }
        if (flag == nullptr)
            fatal("unknown flag '%s' (try --help)", arg.c_str());
        if (flag->arg != nullptr && i + 1 >= argc)
            fatal("flag %s needs a value", arg.c_str());
        flag->set(*cli, Value{flag->name,
                              flag->arg != nullptr ? argv[++i] : ""});
        if (machine && machine_flag == nullptr)
            machine_flag = flag->name;
    }
    // Resolved after the loop, so flag order does not matter.
    if (cli->cpus_per_node != 0)
        cli->machine.ncpus = cli->machine.numa_nodes * cli->cpus_per_node;
    if (cli->app == "chk" && machine_flag != nullptr)
        fatal("%s has no effect with --app chk: the scenario fixes the "
              "machine",
              machine_flag);
    return true;
}

/** --jobs, else MACH_FARM_JOBS, else serial. */
unsigned
farmJobs(const Cli &cli)
{
    return cli.jobs != 0 ? cli.jobs : farm::defaultJobs(1);
}

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

/** The paper-style kernel/user/responder rows of Tables 1-4. */
void
printXprRows(const xpr::RunAnalysis &a)
{
    std::printf("%s\n",
                xpr::formatRow("kernel", a.kernel_initiator,
                               a.kernel_initiator.events < 16)
                    .c_str());
    std::printf("%s\n",
                xpr::formatRow("user", a.user_initiator,
                               a.user_initiator.events < 16)
                    .c_str());
    std::printf("%s\n", xpr::formatRow("responder", a.responder,
                                       a.responder.events < 16)
                            .c_str());
}

hw::MachineConfig
seeded(hw::MachineConfig config, std::uint64_t seed)
{
    config.seed = seed;
    return config;
}

/**
 * The --app workload on one machine under one seed, set up as the
 * flags ask: schedule, oracle, recorder mode and counter sampler.
 * main() reports one Run in full; a --repeat batch runs one per seed,
 * and every file such a Run writes carries the seed
 * (FILE.seed0x<seed>.json), so farm workers never collide.
 */
struct Run
{
    Run(const Cli &cli, std::uint64_t seed, bool batch);

    /** Run the workload to completion. */
    void execute();

    /**
     * Write the trace and stats files and give the verdict: 0 when the
     * run is consistent (and oracle-clean), else 1 after dumping the
     * flight recorder. With @p report, print each step's result.
     */
    int finish(bool report);

    const Cli &cli;
    const std::uint64_t seed;
    std::string trace_json;
    std::string stats_json;
    std::string flight_recorder;
    vm::Kernel kernel;
    std::unique_ptr<chk::Oracle> oracle;
    std::unique_ptr<apps::Workload> app;
    /** Set when the app is the consistency tester (its own verdict). */
    apps::ConsistencyTester *tester = nullptr;
    std::unique_ptr<obs::Sampler> sampler;
    apps::WorkloadResult result;
};

Run::Run(const Cli &cli, std::uint64_t seed, bool batch)
    : cli(cli), seed(seed), kernel(seeded(cli.machine, seed))
{
    const auto output = [&](const std::string &path) {
        if (!batch || path.empty())
            return path;
        char tag[32];
        std::snprintf(tag, sizeof(tag), "seed0x%llx",
                      static_cast<unsigned long long>(seed));
        return obs::suffixedPath(path, tag);
    };
    trace_json = output(cli.trace_json);
    stats_json = output(cli.stats_json);
    flight_recorder = output(cli.flight_recorder);

    kernel.machine().setPerturber(&cli.schedule);
    if (cli.oracle)
        oracle = std::make_unique<chk::Oracle>(kernel);

    if (cli.app == "tester") {
        auto owned = std::make_unique<apps::ConsistencyTester>(cli.tester);
        tester = owned.get();
        app = std::move(owned);
    } else if (cli.app == "mach-build") {
        app = std::make_unique<apps::MachBuild>(cli.mach_build);
    } else if (cli.app == "parthenon") {
        app = std::make_unique<apps::Parthenon>(cli.parthenon);
    } else if (cli.app == "agora") {
        app = std::make_unique<apps::Agora>(cli.agora);
    } else if (cli.app == "camelot") {
        app = std::make_unique<apps::Camelot>(cli.camelot);
    } else {
        apps::Serving::Params serving = cli.serving;
        serving.seed = seed;
        app = std::make_unique<apps::Serving>(serving);
    }

    // Timeline recording: --trace-json records everything for a full
    // export; --flight-recorder alone keeps only a bounded ring, armed
    // to dump on failure (the oracle triggers it the moment a stale
    // translation is seen; a failed verdict triggers it in finish()).
    obs::Recorder &rec = kernel.machine().recorder();
    if (!trace_json.empty() || !flight_recorder.empty()) {
        if (trace_json.empty())
            rec.enableRing(obs::kFlightRingCapacity);
        else
            rec.enable();
        if (!flight_recorder.empty())
            rec.setDumpPath(flight_recorder);
        const Tick interval = cli.stats_interval.value_or(
            trace_json.empty() ? 0 : 16 * kMsec);
        if (interval != 0)
            sampler = std::make_unique<obs::Sampler>(kernel, interval);
    } else if (!stats_json.empty()) {
        // Histograms without a timeline: every span site still feeds
        // the metrics registry, but no events are stored, so memory
        // stays flat across a batch.
        rec.enableStats();
    }
}

void
Run::execute()
{
    result = app->execute(kernel);
}

int
Run::finish(bool report)
{
    obs::Recorder &rec = kernel.machine().recorder();
    if (!trace_json.empty()) {
        if (!rec.writeJsonFile(trace_json))
            warn("could not write trace JSON to %s", trace_json.c_str());
        else if (report)
            std::printf("\ntrace: %zu events on %zu tracks -> %s\n",
                        rec.events().size(), rec.tracks().size(),
                        trace_json.c_str());
    }
    if (report && rec.enabled() && !rec.metrics().empty())
        std::printf("\nlatency histograms (usec):\n%s",
                    rec.metrics().report().c_str());
    if (!stats_json.empty()) {
        if (!obs::writeStatsJson(stats_json, kernel, cli.app))
            warn("could not write stats JSON to %s", stats_json.c_str());
        else if (report)
            std::printf("\nstats: %s\n", stats_json.c_str());
    }

    bool ok = false;
    if (tester != nullptr) {
        ok = tester->consistent() == (cli.machine.shootdown_policy !=
                                      hw::ShootdownPolicy::Off);
        if (report)
            std::printf("\ntester verdict: %s\n",
                        tester->consistent() ? "consistent"
                                             : "INCONSISTENT");
    } else {
        ok = kernel.pmaps().auditTlbConsistency().empty();
        if (report)
            std::printf("\nTLB consistency audit: %s\n",
                        ok ? "clean" : "VIOLATIONS");
    }
    if (oracle) {
        oracle->finalCheck();
        ok = ok && oracle->clean();
        if (report) {
            std::printf("oracle: %llu audits, %llu violation(s)\n",
                        static_cast<unsigned long long>(
                            oracle->opsAudited()),
                        static_cast<unsigned long long>(
                            oracle->violationCount()));
            for (const std::string &v : oracle->violations())
                std::printf("  %s\n", v.c_str());
        }
    }
    if (ok)
        return 0;
    // The oracle may have dumped already, at its first violation; this
    // catches verdict failures that produce no violation.
    rec.dumpOnFailure("run failed");
    if (report && rec.dumped())
        std::printf("flight recorder: %s\n", flight_recorder.c_str());
    return 1;
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
runBatch(const Cli &cli)
{
    struct Row
    {
        Tick runtime = 0;
        std::uint64_t shootdowns = 0;
        std::uint64_t ipis = 0;
        std::uint64_t digest = 0;
        bool ok = false;
        xpr::RunAnalysis analysis;
    };

    const std::uint64_t base = cli.seed_base.value_or(cli.machine.seed);
    const unsigned workers = farmJobs(cli);
    std::vector<Row> rows(cli.repeat);
    std::vector<std::function<void()>> jobs;
    jobs.reserve(cli.repeat);
    for (unsigned k = 0; k < cli.repeat; ++k) {
        jobs.push_back([&cli, &rows, base, k] {
            Run run(cli, base + k, true);
            run.execute();
            Row &row = rows[k];
            row.ok = run.finish(false) == 0;
            row.runtime = run.result.virtual_runtime;
            const pmap::ShootdownController &shoot =
                run.kernel.pmaps().shoot();
            row.shootdowns = shoot.initiated;
            row.ipis = shoot.interrupts_sent;
            row.digest = xpr::runDigest(run.kernel);
            row.analysis = run.result.analysis;
        });
    }

    std::printf("machsim: %s x %u seeds [0x%llx..0x%llx], farm "
                "--jobs %u\n\n",
                cli.app.c_str(), cli.repeat,
                static_cast<unsigned long long>(base),
                static_cast<unsigned long long>(base + cli.repeat - 1),
                workers);
    farm::runMany(std::move(jobs), workers);

    std::printf("%-12s %12s %12s %8s  %-18s %s\n", "seed",
                "runtime(s)", "shootdowns", "ipis", "digest",
                "verdict");
    Sample runtime;
    Sample shootdowns;
    bool all_ok = true;
    for (unsigned k = 0; k < cli.repeat; ++k) {
        const Row &row = rows[k];
        runtime.add(static_cast<double>(row.runtime) / kSec);
        shootdowns.add(static_cast<double>(row.shootdowns));
        all_ok = all_ok && row.ok;
        std::printf("0x%-10llx %12.3f %12llu %8llu  0x%016llx %s\n",
                    static_cast<unsigned long long>(base + k),
                    static_cast<double>(row.runtime) / kSec,
                    static_cast<unsigned long long>(row.shootdowns),
                    static_cast<unsigned long long>(row.ipis),
                    static_cast<unsigned long long>(row.digest),
                    row.ok ? "ok" : "FAIL");
    }
    std::printf("\n%u seed(s): runtime %s s (min %.3f, max %.3f), "
                "shootdowns %s\n",
                cli.repeat, runtime.meanStd(3).c_str(),
                runtime.min(), runtime.max(),
                shootdowns.meanStd(1).c_str());

    if (cli.xpr_rows) {
        // The paper-style Tables 1-4 rows, one block per seed: events,
        // mean+-std, and the 10th/50th/90th percentiles in usec.
        for (unsigned k = 0; k < cli.repeat; ++k) {
            const xpr::RunAnalysis &a = rows[k].analysis;
            std::printf("\nxpr distributions, seed 0x%llx%s\n",
                        static_cast<unsigned long long>(base + k),
                        a.overflowed
                            ? " (xpr buffer OVERFLOWED; truncated)"
                            : "");
            printXprRows(a);
        }
        std::printf("\n");
    }

    std::printf("verdict: %s\n",
                all_ok ? "all consistent" : "FAILURES (see table)");
    return all_ok ? 0 : 1;
}

/** Shared report for explore / exhaustive campaign results. */
int
reportCampaign(const chk::ExploreResult &res, const chk::Corpus *corpus,
               const std::string &scenario_name)
{
    std::printf("trials: %u (%u duplicate probe(s) skipped, %u "
                "coverage-novel)\n",
                res.trials, res.duplicate_probes_skipped,
                res.coverage_novel);
    // A campaign whose corpus could not be written fails: the entries
    // it reports are not on disk for a later resume or replay.
    bool unpersisted = false;
    if (corpus != nullptr) {
        std::printf("corpus: %zu bucket(s), %zu entr(ies)%s%s\n",
                    corpus->buckets(scenario_name),
                    corpus->entries().size(),
                    corpus->dir().empty() ? "" : " in ",
                    corpus->dir().c_str());
        unpersisted = corpus->unpersistedEntries() != 0 ||
                      corpus->unpersistedTried() != 0;
        if (unpersisted)
            std::fprintf(stderr,
                         "machsim: corpus NOT persisted: %zu entr(ies) "
                         "and %zu tried schedule(s) could not be written "
                         "to %s\n",
                         corpus->unpersistedEntries(),
                         corpus->unpersistedTried(), corpus->dir().c_str());
    }
    if (res.baseline_failed) {
        std::printf("baseline FAILED: %s\n",
                    res.baseline.note.c_str());
        return 1;
    }
    if (res.failures == 0) {
        std::printf("no failing schedule found\n");
        return unpersisted ? 1 : 0;
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

/**
 * --app chk: replay a perturbation schedule against a checker
 * scenario (or its unperturbed baseline) with the oracle attached.
 * This is how a minimized schedule printed by the explorer (or by
 * CI's failure artifacts) is reproduced from the command line.
 * --explore and --exhaustive-window run a campaign instead.
 */
int
runCheckerScenario(const Cli &cli)
{
    if (cli.scenario == "list") {
        for (const auto &library :
             {chk::builtinScenarios(), chk::plantedBugScenarios()})
            for (const chk::Scenario &s : library)
                std::printf("%-22s %s\n", s.name.c_str(),
                            s.summary.c_str());
        return 0;
    }
    chk::Scenario scenario;
    if (!chk::resolveScenario(cli.scenario, &scenario))
        fatal("unknown --scenario '%s' (try --scenario list)",
              cli.scenario.c_str());
    // A generated name can ask for a machine validate() rejects
    // (vmgen-5x9); say so before the header.
    scenario.config.validate();

    const farm::FarmOptions farm{farmJobs(cli)};
    const auto log = [](const std::string &msg) {
        std::printf("  %s\n", msg.c_str());
    };

    if (cli.exhaustive_window) {
        // --exhaustive-window C:K -- the bounded, complete enumeration.
        const chk::ExhaustiveWindow &window = *cli.exhaustive_window;
        std::printf("machsim: chk scenario %s, exhaustive window "
                    "%llu +- %llu\n",
                    scenario.name.c_str(),
                    static_cast<unsigned long long>(window.center),
                    static_cast<unsigned long long>(window.halfwidth));
        chk::Explorer explorer(log, farm);
        return reportCampaign(explorer.exploreExhaustive(scenario, window),
                              nullptr, scenario.name);
    }

    if (cli.explore_budget != 0) {
        // --explore N -- a coverage-guided (or --blind) campaign.
        chk::Corpus corpus(cli.corpus_dir);
        chk::ExploreOptions eopt;
        eopt.systematic_budget =
            cli.systematic_budget
                ? std::min(*cli.systematic_budget, cli.explore_budget)
                : cli.explore_budget * 3 / 10;
        eopt.random_budget = cli.explore_budget - eopt.systematic_budget;
        eopt.coverage_guided = !cli.explore_blind;
        eopt.corpus = &corpus;
        std::printf("machsim: chk scenario %s, %s exploration, %u "
                    "probe budget%s%s\n",
                    scenario.name.c_str(),
                    eopt.coverage_guided ? "coverage-guided" : "blind",
                    cli.explore_budget,
                    cli.corpus_dir.empty() ? "" : ", corpus ",
                    cli.corpus_dir.c_str());
        chk::Explorer explorer(log, farm);
        return reportCampaign(explorer.explore(scenario, eopt), &corpus,
                              scenario.name);
    }

    std::printf("machsim: chk scenario %s, schedule \"%s\"\n",
                scenario.name.c_str(), cli.schedule.format().c_str());
    chk::Explorer explorer(nullptr, farm);

    // Recording never perturbs the trial, so recorded and plain
    // replays produce the same digest.
    const bool record =
        !cli.trace_json.empty() || !cli.flight_recorder.empty();
    std::string trace_json;
    const chk::TrialResult r =
        record ? explorer.runTrialRecorded(
                     scenario, cli.schedule, &trace_json,
                     cli.trace_json.empty() ? obs::kFlightRingCapacity : 0)
               : explorer.runTrial(scenario, cli.schedule);
    if (!cli.trace_json.empty()) {
        if (writeTextFile(cli.trace_json, trace_json))
            std::printf("trace: %s\n", cli.trace_json.c_str());
        else
            warn("could not write trace JSON to %s",
                 cli.trace_json.c_str());
    }
    if (!cli.flight_recorder.empty() && r.failed()) {
        if (writeTextFile(cli.flight_recorder, trace_json))
            std::printf("flight recorder: %s\n",
                        cli.flight_recorder.c_str());
        else
            warn("could not write flight-recorder trace to %s",
                 cli.flight_recorder.c_str());
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
    Cli cli;
    if (!parse(argc, argv, &cli))
        return 0;
    obs::setProcessTextTrace(cli.trace_categories);
    if (cli.app == "chk")
        return runCheckerScenario(cli);
    // Reject a bad machine before any output: a batch builds its
    // machines on farm workers, after printing its header.
    cli.machine.validate();
    if (cli.app == "tester" &&
        (cli.tester.children == 0 ||
         cli.tester.children >= cli.machine.ncpus))
        fatal("--children (%u) must be at least 1 and below the CPU "
              "count (%u): the tester pins each child and its main "
              "thread to a CPU of its own",
              cli.tester.children, cli.machine.ncpus);
    if (cli.app == "serving") {
        // Each needs at least one: a live tenant for the driver to
        // reap, and pages to touch in each region.
        const std::pair<const char *, unsigned> sizes[] = {
            {"--tenant-concurrency", cli.serving.concurrency},
            {"--ws-pages", cli.serving.ws_pages},
            {"--binary-pages", cli.serving.binary_pages},
            {"--mmap-pages", cli.serving.mmap_pages},
        };
        for (const auto &[flag, value] : sizes) {
            if (value == 0)
                fatal("%s must be at least 1 for --app serving", flag);
        }
        // Frame 0 is reserved.
        const std::uint64_t frames =
            apps::Serving::framesNeeded(cli.serving, cli.machine);
        if (frames >= cli.machine.phys_frames)
            fatal("--app serving needs up to %llu page frames at once for "
                  "--tenant-concurrency live tenants of --ws-pages, "
                  "--mmap-pages and --tenant-threads each plus "
                  "--binary-pages; the machine has %u to allocate",
                  static_cast<unsigned long long>(frames),
                  cli.machine.phys_frames - 1);
    }
    if (cli.repeat != 0)
        return runBatch(cli);

    Run run(cli, cli.machine.seed, false);
    std::printf("machsim: %s on %u CPUs", cli.app.c_str(),
                run.kernel.machine().ncpus());
    if (cli.machine.numa_nodes > 1)
        std::printf(" / %u nodes", cli.machine.numa_nodes);
    std::printf(" (seed 0x%llx)\n",
                static_cast<unsigned long long>(run.seed));
    if (!cli.schedule.empty())
        std::printf("schedule: %s (%zu directive(s))\n",
                    cli.schedule.format().c_str(), cli.schedule.size());
    run.execute();

    std::printf("\nvirtual runtime: %.2f s\n",
                static_cast<double>(run.result.virtual_runtime) / kSec);
    printXprRows(run.result.analysis);
    std::printf("lazily avoided shootdowns: %llu\n\n",
                static_cast<unsigned long long>(run.result.lazy_avoided));
    std::printf("%s",
                xpr::MachineStats::capture(run.kernel).report().c_str());
    if (run.result.analysis.overflowed)
        std::printf("\nWARNING: xpr buffer overflowed; distribution "
                    "rows above are truncated\n");
    return run.finish(true);
}
