/**
 * @file
 * Timeline observability tests: histogram math, recorder and probe
 * mechanics (ring eviction, disabled no-op, attribution, path
 * suffixing, the failure-triggered dump), and the determinism
 * contract of the Chrome Trace Event JSON export -- a span-balance
 * validator over a real tester run plus golden FNV-1a digests
 * pinning the exported bytes for fixed seeds and flag sets.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/consistency_tester.hh"
#include "base/logging.hh"
#include "base/perturb.hh"
#include "base/rng.hh"
#include "chk/explorer.hh"
#include "chk/oracle.hh"
#include "chk/scenario.hh"
#include "obs/metrics.hh"
#include "obs/probe.hh"
#include "obs/recorder.hh"
#include "obs/sampler.hh"
#include "vm/kernel.hh"
#include "xpr/machine_stats.hh"
#include "xpr/xpr.hh"

namespace mach
{
namespace
{

// ---------------------------------------------------------------------
// Histogram math
// ---------------------------------------------------------------------

TEST(ObsHistogram, EmptyReportsZeros)
{
    obs::Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.mean(), 0u);
    EXPECT_EQ(h.percentile(50), 0u);
}

TEST(ObsHistogram, TracksCountSumMinMaxMean)
{
    obs::Histogram h;
    h.record(10);
    h.record(20);
    h.record(90);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 120u);
    EXPECT_EQ(h.min(), 10u);
    EXPECT_EQ(h.max(), 90u);
    EXPECT_EQ(h.mean(), 40u);
}

TEST(ObsHistogram, PercentilesAreMonotonicAndBounded)
{
    obs::Histogram h;
    for (std::uint64_t v = 1; v <= 1000; ++v)
        h.record(v);
    std::uint64_t prev = 0;
    for (unsigned p : {1u, 10u, 50u, 90u, 99u, 100u}) {
        const std::uint64_t val = h.percentile(p);
        EXPECT_GE(val, h.min()) << "p" << p;
        EXPECT_LE(val, h.max()) << "p" << p;
        EXPECT_GE(val, prev) << "p" << p;
        prev = val;
    }
    EXPECT_EQ(h.percentile(100), h.max());
    // Log buckets: p50 of 1..1000 lands in the bucket holding 500,
    // whose upper bound is below 1024.
    EXPECT_GE(h.percentile(50), 500u);
    EXPECT_LT(h.percentile(50), 1024u);
}

TEST(ObsHistogram, SingleSampleCollapsesToThatValue)
{
    obs::Histogram h;
    h.record(777);
    // Bucket bounds are clamped to the observed min/max, so a single
    // sample reports exactly.
    EXPECT_EQ(h.percentile(50), 777u);
    EXPECT_EQ(h.percentile(99), 777u);
}

TEST(ObsHistogram, PercentileMilleClampsAndHitsTheTail)
{
    obs::Histogram h;
    for (std::uint64_t v = 1; v <= 2000; ++v)
        h.record(v);
    // Per-mille resolution separates p99 from p99.9 where the
    // percent-resolution API cannot.
    EXPECT_GE(h.percentileMille(999), 1980u);
    EXPECT_GE(h.percentileMille(999), h.percentileMille(990));
    // mille >= 1000 clamps to the max.
    EXPECT_EQ(h.percentileMille(1000), h.max());
    EXPECT_EQ(h.percentileMille(5000), h.max());
    // percentile() is a wrapper over the same math.
    EXPECT_EQ(h.percentile(50), h.percentileMille(500));
    EXPECT_EQ(h.percentile(99), h.percentileMille(990));
}

/**
 * Property test for the 64-bucket log layout: against the exact
 * sorted-sample percentile (rank ceil(n*mille/1000)), the histogram's
 * report is never below the exact value and never more than 2x it --
 * the worst case being a sample at the bottom of a power-of-two
 * bucket, reported as the bucket's upper bound (2^i - 1 vs 2^(i-1)).
 */
TEST(ObsHistogram, PercentileMilleWithinBucketWidthOfExact)
{
    Rng rng(0x9e5c11e5ull);
    for (unsigned trial = 0; trial < 40; ++trial) {
        obs::Histogram h;
        std::vector<std::uint64_t> samples;
        const unsigned n = 50 + static_cast<unsigned>(rng.below(2000));
        for (unsigned i = 0; i < n; ++i) {
            // A skewed mix: mostly small values, a heavy tail, and
            // occasional zeros -- the shape of latency data.
            std::uint64_t v;
            if (rng.chance(0.05))
                v = 0;
            else if (rng.chance(0.1))
                v = rng.range(100000, 10000000);
            else
                v = rng.range(1, 5000);
            h.record(v);
            samples.push_back(v);
        }
        std::sort(samples.begin(), samples.end());
        for (unsigned mille : {100u, 500u, 900u, 990u, 999u}) {
            const std::uint64_t rank =
                (static_cast<std::uint64_t>(n) * mille + 999) / 1000;
            const std::uint64_t exact = samples[rank - 1];
            const std::uint64_t got = h.percentileMille(mille);
            EXPECT_GE(got, exact)
                << "trial " << trial << " p" << mille;
            EXPECT_LE(got, exact * 2)
                << "trial " << trial << " p" << mille;
        }
    }
}

TEST(ObsMetrics, HistogramsAreCreatedOnceInOrder)
{
    obs::Metrics m;
    EXPECT_TRUE(m.empty());
    obs::Histogram &a = m.histogram("alpha");
    obs::Histogram &b = m.histogram("beta");
    EXPECT_EQ(&a, &m.histogram("alpha"));
    a.record(5);
    ASSERT_EQ(m.entries().size(), 2u);
    EXPECT_EQ(m.entries()[0].first, "alpha");
    EXPECT_EQ(m.entries()[1].first, "beta");
    EXPECT_EQ(&b, m.entries()[1].second.get());
    EXPECT_NE(m.report().find("alpha"), std::string::npos);
}

// ---------------------------------------------------------------------
// Recorder and probe mechanics (driven by a fake clock, no machine)
// ---------------------------------------------------------------------

constexpr obs::Category kTestCategory{"test", 0};
constexpr obs::Site kTick{"tick", kTestCategory};
constexpr obs::Site kOuter{"outer", kTestCategory};
constexpr obs::Site kInner{"inner", kTestCategory};
constexpr obs::Site kProbed{"probed", kTestCategory, "probed_us",
                            obs::ReqComponent::Fault};

TEST(ObsRecorder, DisabledRecordsNothing)
{
    Tick fake_now = 0;
    obs::Recorder rec([&fake_now] { return fake_now; });
    EXPECT_FALSE(rec.enabled());
    {
        obs::Probe probe(rec, kProbed, rec.machineTrack(), nullptr);
        rec.now();
    }
    EXPECT_TRUE(rec.events().empty());
    EXPECT_TRUE(rec.metrics().empty());
    EXPECT_FALSE(rec.dumpOnFailure("nothing armed"));
}

TEST(ObsRecorder, RingModeKeepsOnlyTheTail)
{
    Tick fake_now = 0;
    obs::Recorder rec([&fake_now] { return fake_now; });
    rec.enableRing(4);
    ASSERT_TRUE(rec.ringMode());
    for (int i = 0; i < 10; ++i) {
        fake_now = static_cast<Tick>(i) * kUsec;
        rec.instant(rec.machineTrack(), kTick,
                    obs::Arg{"i", static_cast<std::uint64_t>(i)});
    }
    EXPECT_EQ(rec.events().size(), 4u);
    EXPECT_EQ(rec.droppedEvents(), 6u);
    EXPECT_EQ(rec.events().front().arg0.value, 6u);
    EXPECT_EQ(rec.events().back().arg0.value, 9u);
    // The drop count is visible in the export metadata.
    EXPECT_NE(rec.toJson().find("dropped_events"), std::string::npos);
}

TEST(ObsRecorder, SuffixedPathInsertsBeforeExtension)
{
    EXPECT_EQ(obs::suffixedPath("t.json", "seed0x1"), "t.seed0x1.json");
    EXPECT_EQ(obs::suffixedPath("out/t.json", "c2"), "out/t.c2.json");
    EXPECT_EQ(obs::suffixedPath("dir.d/trace", "c2"), "dir.d/trace.c2");
    EXPECT_EQ(obs::suffixedPath("trace", "tag"), "trace.tag");
    EXPECT_EQ(obs::suffixedPath("t.json", ""), "t.json");
}

TEST(ObsRecorder, OpenSpansGetSyntheticCloses)
{
    Tick fake_now = 0;
    obs::Recorder rec([&fake_now] { return fake_now; });
    rec.setCpuTracks(1);
    rec.enable();
    rec.begin(rec.cpuTrack(0), kOuter);
    fake_now = 5 * kUsec;
    rec.begin(rec.cpuTrack(0), kInner);
    fake_now = 9 * kUsec;
    rec.instant(rec.machineTrack(), kTick);
    // Neither span was closed; the export must balance them anyway,
    // inner before outer, at the final timestamp.
    const std::string json = rec.toJson();
    const auto inner_e = json.find("{\"ph\":\"E\",\"pid\":1,\"tid\":1,"
                                   "\"ts\":9.000,\"name\":\"inner\"}");
    const auto outer_e = json.find("{\"ph\":\"E\",\"pid\":1,\"tid\":1,"
                                   "\"ts\":9.000,\"name\":\"outer\"}");
    EXPECT_NE(inner_e, std::string::npos);
    EXPECT_NE(outer_e, std::string::npos);
    EXPECT_LT(inner_e, outer_e);
}

TEST(ObsProbe, AttributionAndRecordingAreIndependentSinks)
{
    Tick fake_now = 0;
    const obs::Recorder::Clock clock = [&fake_now] { return fake_now; };

    // A request slot with the recorder off: the probe banks its
    // component and records nothing.
    obs::Recorder off(clock);
    obs::RequestSlot slot;
    slot.begin(0);
    fake_now = 2 * kUsec;
    {
        obs::Probe probe(off, kProbed, off.machineTrack(), &slot);
        fake_now = 7 * kUsec;
    }
    EXPECT_EQ(slot.finish(10 * kUsec), 10 * kUsec);
    const auto &banked = slot.components();
    EXPECT_EQ(banked[static_cast<unsigned>(obs::ReqComponent::Fault)],
              5 * kUsec);
    EXPECT_EQ(banked[static_cast<unsigned>(obs::ReqComponent::Compute)],
              5 * kUsec);
    EXPECT_TRUE(off.events().empty());
    EXPECT_TRUE(off.metrics().empty());

    // The recorder on and no slot: the span and its histogram.
    obs::Recorder on(clock);
    on.enable();
    fake_now = 3 * kUsec;
    {
        obs::Probe probe(on, kProbed, on.machineTrack(), nullptr,
                         obs::Arg{"k", 1});
        fake_now = 8 * kUsec;
    }
    ASSERT_EQ(on.events().size(), 2u);
    const obs::Event &b = on.events().front();
    const obs::Event &e = on.events().back();
    EXPECT_EQ(b.phase, 'B');
    EXPECT_STREQ(b.category, "test");
    EXPECT_STREQ(b.arg0.key, "k");
    EXPECT_EQ(b.ts, 3 * kUsec);
    EXPECT_EQ(e.phase, 'E');
    EXPECT_STREQ(e.name, "probed");
    EXPECT_EQ(e.category, nullptr);
    EXPECT_EQ(e.ts, 8 * kUsec);
    const obs::Histogram &h = on.metrics().histogram("probed_us");
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.sum(), 5u);
}

// ---------------------------------------------------------------------
// Trace JSON over a real run: span balance, phases, determinism
// ---------------------------------------------------------------------

struct ParsedEvent
{
    char ph = '?';
    std::uint64_t tid = 0;
    Tick ts = 0;
    std::string name;
    bool has_ts = false;
};

/**
 * Minimal line-oriented scan of the recorder's own JSON (one event per
 * line, fixed key order). Not a general JSON parser; the CI smoke step
 * runs `python3 -m json.tool` for that.
 */
std::vector<ParsedEvent>
parseTraceEvents(const std::string &json)
{
    std::vector<ParsedEvent> events;
    std::istringstream in(json);
    std::string line;
    while (std::getline(in, line)) {
        const auto ph = line.find("{\"ph\":\"");
        if (ph == std::string::npos)
            continue;
        ParsedEvent e;
        e.ph = line[ph + 7];
        const auto tid = line.find("\"tid\":");
        if (tid != std::string::npos)
            e.tid = std::strtoull(line.c_str() + tid + 6, nullptr, 10);
        const auto ts = line.find("\"ts\":");
        if (ts != std::string::npos) {
            const char *p = line.c_str() + ts + 5;
            char *end = nullptr;
            const std::uint64_t micros = std::strtoull(p, &end, 10);
            std::uint64_t frac = 0;
            if (end != nullptr && *end == '.')
                frac = std::strtoull(end + 1, nullptr, 10);
            e.ts = micros * kUsec + frac;
            e.has_ts = true;
        }
        const auto name = line.find("\"name\":\"");
        if (name != std::string::npos) {
            const auto close = line.find('"', name + 8);
            e.name = line.substr(name + 8, close - (name + 8));
        }
        events.push_back(std::move(e));
    }
    return events;
}

/** Every 'B' has a matching 'E' and per-track time never rewinds.
 *  @p expect_counters is false for runs without a Sampler attached. */
void
validateSpanBalance(const std::vector<ParsedEvent> &events,
                    bool expect_counters = true)
{
    std::vector<std::vector<std::string>> stacks;
    std::vector<Tick> last_ts;
    unsigned counts[4] = {}; // B, E, i, C
    for (const ParsedEvent &e : events) {
        if (e.ph == 'M')
            continue;
        if (e.tid >= stacks.size()) {
            stacks.resize(e.tid + 1);
            last_ts.resize(e.tid + 1, 0);
        }
        ASSERT_TRUE(e.has_ts) << "non-metadata event without ts";
        EXPECT_GE(e.ts, last_ts[e.tid])
            << "time rewound on track " << e.tid;
        last_ts[e.tid] = e.ts;
        switch (e.ph) {
          case 'B':
            ++counts[0];
            stacks[e.tid].push_back(e.name);
            break;
          case 'E':
            ++counts[1];
            ASSERT_FALSE(stacks[e.tid].empty())
                << "unmatched E \"" << e.name << "\" on track "
                << e.tid;
            EXPECT_EQ(stacks[e.tid].back(), e.name)
                << "interleaved spans on track " << e.tid;
            stacks[e.tid].pop_back();
            break;
          case 'i':
            ++counts[2];
            break;
          case 'C':
            ++counts[3];
            break;
          default:
            FAIL() << "unknown phase " << e.ph;
        }
    }
    for (std::size_t t = 0; t < stacks.size(); ++t) {
        EXPECT_TRUE(stacks[t].empty())
            << "track " << t << " left "
            << (stacks[t].empty() ? "" : stacks[t].back())
            << " open after synthetic closes";
    }
    // The instrumented run exercises all four phases.
    EXPECT_GT(counts[0], 0u) << "no spans";
    EXPECT_GT(counts[1], 0u) << "no span ends";
    EXPECT_GT(counts[2], 0u) << "no instants";
    if (expect_counters) {
        EXPECT_GT(counts[3], 0u) << "no counter samples";
    }
}

/**
 * One recorded tester run: trace JSON (and, optionally, the same
 * machine's xpr fingerprint for the perturbation check).
 */
std::string
recordedTesterTrace(std::uint64_t seed, bool with_sampler,
                    std::string *xpr_print = nullptr)
{
    setLogQuiet(true);
    hw::MachineConfig config;
    config.seed = seed;
    vm::Kernel kernel(config);
    obs::Recorder &rec = kernel.machine().recorder();
    rec.enable();
    // The sampler lives past toJson(): counter events reference names
    // it interns.
    std::unique_ptr<obs::Sampler> sampler;
    if (with_sampler)
        sampler = std::make_unique<obs::Sampler>(kernel, 4 * kMsec);
    apps::ConsistencyTester tester({.children = 6, .warmup = 20 * kMsec});
    tester.execute(kernel);
    EXPECT_TRUE(tester.consistent());
    if (xpr_print != nullptr) {
        std::ostringstream out;
        kernel.machine().xpr().forEach([&out](const xpr::Event &event) {
            out << static_cast<int>(event.kind) << ':' << event.cpu
                << ':' << event.timestamp << ':' << event.elapsed
                << '\n';
        });
        *xpr_print = out.str();
    }
    return rec.toJson();
}

TEST(ObsTrace, TesterRunBalancesSpansAcrossCpuTracks)
{
    const std::string json = recordedTesterTrace(0x0b5e1, true);
    // Per-CPU tracks are declared in the metadata.
    EXPECT_NE(json.find("\"name\":\"cpu0\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"cpu1\""), std::string::npos);
    // The protocol phases and the sampler's counters all show up.
    EXPECT_NE(json.find("\"shoot.initiate\""), std::string::npos);
    EXPECT_NE(json.find("\"shoot.respond\""), std::string::npos);
    EXPECT_NE(json.find("\"irq.shootdown\""), std::string::npos);
    EXPECT_NE(json.find("\"vm.fault\""), std::string::npos);
    EXPECT_NE(json.find("tlb_hit_pct"), std::string::npos);
    const std::vector<ParsedEvent> events = parseTraceEvents(json);
    ASSERT_GT(events.size(), 50u);
    validateSpanBalance(events);
}

TEST(ObsTrace, GeneratedScenarioTraceBalancesSpans)
{
    // The property-based scenario generator (chk/vmgen.hh) emits
    // random-but-legal VM-op sequences; whatever sequence a seed
    // produces, the recorded trace must still be a well-formed span
    // tree on every track -- the fuzzer's coverage signal
    // (obs/signature.hh) assumes exactly this nesting discipline.
    setLogQuiet(true);
    chk::Scenario scenario;
    ASSERT_TRUE(chk::resolveScenario("vmgen-1", &scenario));
    std::string json;
    const chk::Explorer explorer;
    const chk::TrialResult trial =
        explorer.runTrialRecorded(scenario, SchedulePerturber(), &json);
    EXPECT_FALSE(trial.failed()) << trial.note;
    EXPECT_NE(json.find("\"shoot.initiate\""), std::string::npos);
    EXPECT_NE(json.find("\"shoot.respond\""), std::string::npos);
    const std::vector<ParsedEvent> events = parseTraceEvents(json);
    ASSERT_GT(events.size(), 50u);
    validateSpanBalance(events, /*expect_counters=*/false);
}

TEST(ObsTrace, FirstOracleViolationDumpsTheRingOnce)
{
    // The flight recorder's failure trigger: with shootdowns off the
    // tester's reprotect leaves stale translations behind, the
    // oracle's first audit that sees one dumps the ring to the armed
    // path, and any later failure finds the dump already written.
    setLogQuiet(true);
    const std::string dir = ::testing::TempDir() + "mach-dump-" +
                            std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/flight.json";

    hw::MachineConfig config;
    config.setShootdownPolicy(hw::ShootdownPolicy::Off);
    vm::Kernel kernel(config);
    obs::Recorder &rec = kernel.machine().recorder();
    rec.enableRing(obs::kFlightRingCapacity);
    rec.setDumpPath(path);
    chk::Oracle oracle(kernel);
    apps::ConsistencyTester tester({.children = 3, .warmup = 15 * kMsec});
    tester.execute(kernel);

    EXPECT_FALSE(tester.consistent());
    EXPECT_GT(oracle.violationCount(), 0u);
    EXPECT_TRUE(rec.dumped());
    EXPECT_FALSE(rec.dumpOnFailure("second failure"));

    std::vector<std::string> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        files.push_back(entry.path().string());
    ASSERT_EQ(files, std::vector<std::string>{path});
    std::ifstream in(path);
    std::stringstream body;
    body << in.rdbuf();
    const std::string json = body.str();
    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_GT(parseTraceEvents(json).size(), 50u);
    EXPECT_NE(json.find("{\"ph\":\"M\",\"pid\":1,\"name\":\"dump_reason\","
                        "\"args\":{\"name\":\"stale translation\"}}"),
              std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(ObsTrace, RecordingDoesNotPerturbTheRun)
{
    // The recorder must be timing-neutral: the xpr event stream of a
    // recorded run equals the stream of an unrecorded one, so traces
    // can be taken from any experiment without invalidating it.
    std::string recorded;
    recordedTesterTrace(0x0b5e2, false, &recorded);

    setLogQuiet(true);
    hw::MachineConfig config;
    config.seed = 0x0b5e2;
    vm::Kernel kernel(config);
    apps::ConsistencyTester tester({.children = 6, .warmup = 20 * kMsec});
    tester.execute(kernel);
    std::ostringstream out;
    kernel.machine().xpr().forEach([&out](const xpr::Event &event) {
        out << static_cast<int>(event.kind) << ':' << event.cpu << ':'
            << event.timestamp << ':' << event.elapsed << '\n';
    });
    ASSERT_FALSE(recorded.empty());
    EXPECT_EQ(recorded, out.str());
}

TEST(ObsTrace, SamplerLeavesPerturbedRunsUnchanged)
{
    // The sampler rides the recorder's event stream and puts nothing
    // on the event queue, so a schedule's e<seq> directives name the
    // same events with or without it and a perturbed run replays
    // exactly under --trace-json.
    SchedulePerturber schedule;
    ASSERT_TRUE(SchedulePerturber::parse(
        "e400+300000,e900+500000,e1500+200000", &schedule, nullptr));
    const auto digest = [&schedule](bool sampled) {
        setLogQuiet(true);
        hw::MachineConfig config;
        config.seed = 0x0b5e3;
        vm::Kernel kernel(config);
        kernel.machine().setPerturber(&schedule);
        std::unique_ptr<obs::Sampler> sampler;
        if (sampled) {
            kernel.machine().recorder().enable();
            sampler = std::make_unique<obs::Sampler>(kernel, 4 * kMsec);
        }
        apps::ConsistencyTester tester(
            {.children = 6, .warmup = 20 * kMsec});
        tester.execute(kernel);
        EXPECT_TRUE(tester.consistent());
        if (sampled) {
            EXPECT_NE(kernel.machine().recorder().toJson().find(
                          "tlb_hit_pct"),
                      std::string::npos);
        }
        return xpr::runDigest(kernel);
    };
    EXPECT_EQ(digest(true), digest(false));
}

// ---------------------------------------------------------------------
// Golden digests: the exported bytes are part of the replay contract
// ---------------------------------------------------------------------

std::uint64_t
fnv1a(const std::string &data)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const unsigned char byte : data) {
        hash ^= byte;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

struct TraceDigestCase
{
    std::uint64_t seed;
    bool with_sampler;
    std::uint64_t golden;
};

TEST(ObsTrace, GoldenDigestsPinTheExportedBytes)
{
    // Two seeds x two flag sets (plain spans; spans + periodic
    // sampler). The goldens pin byte-identical JSON across runs,
    // builds, and hosts -- integer-only timestamp formatting, stable
    // track order, deterministic event order. Regenerate by printing
    // fnv1a(json) here after an intentional format change.
    const TraceDigestCase cases[] = {
        {0x7ace1, false, 0x037443713d847524ull},
        {0x7ace1, true, 0xcd62785116314142ull},
        {0x7ace2, false, 0x2f602f369905bc28ull},
        {0x7ace2, true, 0xb1db3a174bfa97b6ull},
    };
    for (const TraceDigestCase &c : cases) {
        const std::string first =
            recordedTesterTrace(c.seed, c.with_sampler);
        const std::string second =
            recordedTesterTrace(c.seed, c.with_sampler);
        // Byte-identical across same-seed runs...
        EXPECT_EQ(first, second)
            << "seed " << c.seed << " sampler " << c.with_sampler;
        // ...and pinned against the golden.
        EXPECT_EQ(fnv1a(first), c.golden)
            << "seed " << std::hex << c.seed << " sampler "
            << c.with_sampler << " digest 0x" << fnv1a(first);
    }
}

} // namespace
} // namespace mach
