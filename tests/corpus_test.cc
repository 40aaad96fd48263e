/**
 * @file
 * The persistent-corpus contract, end to end:
 *
 *  - entry text round-trips through formatEntry/parseEntry;
 *  - every committed chk_corpus/ entry (the directory this repo
 *    ships, via the MACH_SOURCE_CORPUS_DIR compile definition)
 *    replays to its recorded digest and verdict, at farm widths 1,
 *    2, and 4 -- the corpus is a set of deterministic reproducers,
 *    not just fuzzer state;
 *  - coverage-guided campaigns account as-if-serial: trials, novelty
 *    and the first failing schedule are identical at any farm shape;
 *  - the coverage signal earns its keep: on the planted responder-
 *    stall bug a guided campaign reaches the failure in strictly
 *    fewer trials than blind sampling with the same budget
 *    (docs/CHECKER.md holds the full three-bug comparison table);
 *  - the bounded-exhaustive window mode proves a small neighborhood
 *    around a sync point: it finds the planted stall bug there and
 *    certifies the healthy protocol clean over the same window;
 *  - a campaign resumed on an existing corpus never re-runs a
 *    schedule it already tried (duplicate_probes_skipped), also
 *    when the corpus was written to a directory and loaded back;
 *  - a corpus whose directory cannot be written counts every write
 *    it lost.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "base/perturb.hh"
#include "chk/corpus.hh"
#include "chk/explorer.hh"
#include "chk/scenario.hh"

#ifndef MACH_SOURCE_CORPUS_DIR
#define MACH_SOURCE_CORPUS_DIR "chk_corpus"
#endif

namespace
{

using namespace mach;

TEST(CorpusEntry, FormatRoundTrips)
{
    chk::CorpusEntry entry;
    entry.scenario = "storm-baseline";
    entry.schedule = "e120+50000,b40+9000";
    entry.signatures = {0x1111111111111111ull, 0x2222222222222222ull,
                        0xdeadbeefcafef00dull};
    entry.digest = 0xabcdef0123456789ull;
    entry.trial = 17;
    entry.new_buckets = 2;
    entry.failed = true;

    const std::string text = chk::Corpus::formatEntry(entry);
    chk::CorpusEntry back;
    std::string error;
    ASSERT_TRUE(chk::Corpus::parseEntry(text, &back, &error)) << error;
    EXPECT_EQ(back.scenario, entry.scenario);
    EXPECT_EQ(back.schedule, entry.schedule);
    EXPECT_EQ(back.signatures, entry.signatures);
    EXPECT_EQ(back.digest, entry.digest);
    EXPECT_EQ(back.trial, entry.trial);
    EXPECT_EQ(back.new_buckets, entry.new_buckets);
    EXPECT_EQ(back.failed, entry.failed);

    // The baseline spelling ("" schedule) survives the trip too.
    entry.schedule.clear();
    entry.failed = false;
    ASSERT_TRUE(chk::Corpus::parseEntry(chk::Corpus::formatEntry(entry),
                                        &back, &error))
        << error;
    EXPECT_EQ(back.schedule, "");
    EXPECT_FALSE(back.failed);
}

/** The committed corpus, loaded once (it is read-only test input). */
const chk::Corpus &
committedCorpus()
{
    static chk::Corpus *corpus = [] {
        auto *c = new chk::Corpus();
        std::string error;
        EXPECT_TRUE(c->loadDir(MACH_SOURCE_CORPUS_DIR, &error))
            << error;
        return c;
    }();
    return *corpus;
}

TEST(CommittedCorpus, ShipsTheExpectedCampaigns)
{
    const chk::Corpus &corpus = committedCorpus();
    ASSERT_FALSE(corpus.entries().empty())
        << "no committed corpus at " << MACH_SOURCE_CORPUS_DIR;

    // Healthy scenarios contribute only passing entries; each planted
    // bug ships with at least one failing reproducer entry -- but its
    // baseline ("" schedule) passes, since the bugs only manifest
    // under perturbation.
    std::map<std::string, unsigned> failing;
    for (const chk::CorpusEntry &e : corpus.entries()) {
        if (e.failed)
            ++failing[e.scenario];
        EXPECT_TRUE(!e.schedule.empty() || !e.failed)
            << e.scenario << ": baseline entry must pass";
    }
    EXPECT_EQ(failing.count("storm-baseline"), 0u);
    EXPECT_GE(failing["broken-stall"], 1u);
    EXPECT_GE(failing["broken-replica"], 1u);
    EXPECT_GE(failing["broken-l0"], 1u);
    EXPECT_GE(failing["broken-asid"], 1u);
}

/**
 * The golden replay: every committed entry, at every farm shape. The
 * corpus records (scenario, schedule, digest, verdict); replaying the
 * schedule must reproduce digest and verdict bit-exactly whether the
 * batch runs serially, on 2 workers, or on 4 with fork snapshots.
 */
TEST(CommittedCorpus, EveryEntryReplaysBitExactlyAtFarmShapes124)
{
    const chk::Corpus &corpus = committedCorpus();
    ASSERT_FALSE(corpus.entries().empty());

    // Group by scenario so each batch shares a baseline (and a
    // fork-snapshot prefix).
    std::map<std::string, std::vector<const chk::CorpusEntry *>>
        by_scenario;
    for (const chk::CorpusEntry &e : corpus.entries())
        by_scenario[e.scenario].push_back(&e);

    for (const unsigned jobs : {1u, 2u, 4u}) {
        farm::FarmOptions farm;
        farm.jobs = jobs;
        chk::Explorer explorer(nullptr, farm);
        for (const auto &[name, entries] : by_scenario) {
            chk::Scenario scenario;
            ASSERT_TRUE(chk::resolveScenario(name, &scenario)) << name;
            std::vector<SchedulePerturber> probes;
            probes.reserve(entries.size());
            for (const chk::CorpusEntry *e : entries) {
                SchedulePerturber p;
                std::string error;
                ASSERT_TRUE(SchedulePerturber::parse(e->schedule, &p,
                                                     &error))
                    << name << ": " << error;
                probes.push_back(std::move(p));
            }
            const std::vector<chk::TrialResult> results =
                explorer.runTrials(scenario, probes);
            ASSERT_EQ(results.size(), entries.size());
            for (std::size_t i = 0; i < results.size(); ++i) {
                EXPECT_EQ(results[i].digest, entries[i]->digest)
                    << name << " jobs=" << jobs << " schedule \""
                    << entries[i]->schedule << "\"";
                EXPECT_EQ(results[i].failed(), entries[i]->failed)
                    << name << " jobs=" << jobs << " schedule \""
                    << entries[i]->schedule << "\"";
            }
        }
    }
}

/**
 * The coverage signal itself is replayable: a signed re-run of a
 * committed entry reproduces the recorded signature list (and the
 * signed digest equals the unsigned one). One entry per scenario
 * keeps this cheap; the full digest sweep above covers the rest.
 */
TEST(CommittedCorpus, SignaturesReplayBitExactly)
{
    const chk::Corpus &corpus = committedCorpus();
    chk::Explorer explorer;
    std::map<std::string, const chk::CorpusEntry *> first;
    for (const chk::CorpusEntry &e : corpus.entries())
        first.emplace(e.scenario, &e);
    for (const auto &[name, entry] : first) {
        chk::Scenario scenario;
        ASSERT_TRUE(chk::resolveScenario(name, &scenario)) << name;
        SchedulePerturber p;
        ASSERT_TRUE(
            SchedulePerturber::parse(entry->schedule, &p, nullptr));
        const chk::TrialResult signed_run =
            explorer.runTrialRecorded(scenario, p, nullptr);
        EXPECT_EQ(signed_run.signatures, entry->signatures) << name;
        EXPECT_EQ(signed_run.digest, entry->digest) << name;
    }
}

TEST(CoverageCampaign, AccountsAsIfSerialAtAnyFarmShape)
{
    const chk::Scenario broken = chk::brokenReplicaScenario();
    chk::ExploreOptions opt;
    opt.systematic_budget = 0;
    opt.random_budget = 80;
    opt.coverage_guided = true;

    chk::ExploreResult results[2];
    const unsigned shapes[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        farm::FarmOptions farm;
        farm.jobs = shapes[i];
        chk::Explorer explorer(nullptr, farm);
        chk::Corpus corpus; // fresh, in-memory
        chk::ExploreOptions o = opt;
        o.corpus = &corpus;
        results[i] = explorer.explore(broken, o);
    }
    EXPECT_EQ(results[0].trials, results[1].trials);
    EXPECT_EQ(results[0].failures, results[1].failures);
    EXPECT_EQ(results[0].coverage_novel, results[1].coverage_novel);
    EXPECT_EQ(results[0].duplicate_probes_skipped,
              results[1].duplicate_probes_skipped);
    EXPECT_EQ(results[0].first_failing.format(),
              results[1].first_failing.format());
    EXPECT_EQ(results[0].first_failure.digest,
              results[1].first_failure.digest);
}

/**
 * The headline property: guidance beats blind sampling. Both modes
 * get the same budget and no systematic sweep (which is shared and
 * would mask the difference); the guided campaign must reach the
 * planted responder-stall failure in strictly fewer trials. The
 * equivalent broken-replica and broken-l0 measurements are recorded
 * in docs/CHECKER.md's comparison table -- they run minutes, not
 * test-suite seconds.
 */
TEST(CoverageCampaign, BeatsBlindSamplingOnPlantedStallBug)
{
    const chk::Scenario broken = chk::brokenStallScenario();
    chk::ExploreOptions opt;
    opt.systematic_budget = 0;
    opt.random_budget = 400;

    chk::Explorer explorer;

    chk::Corpus guided_corpus;
    chk::ExploreOptions guided = opt;
    guided.coverage_guided = true;
    guided.corpus = &guided_corpus;
    const chk::ExploreResult with_coverage =
        explorer.explore(broken, guided);
    ASSERT_GT(with_coverage.failures, 0u)
        << "guided campaign missed the planted bug";

    chk::ExploreOptions blind = opt;
    blind.coverage_guided = false;
    const chk::ExploreResult without =
        explorer.explore(broken, blind);
    ASSERT_GT(without.failures, 0u)
        << "blind campaign missed the planted bug";

    EXPECT_LT(with_coverage.trials, without.trials)
        << "coverage guidance should reach the failure first";
}

TEST(ExhaustiveWindow, ProvesTheSyncNeighborhood)
{
    // Around event 92 -- the sync point the systematic sweep's
    // minimized broken-stall reproducer pins (e92+...) -- the
    // bounded-complete enumeration must rediscover the failure...
    chk::ExhaustiveWindow window;
    window.center = 92;
    window.halfwidth = 8;
    window.max_delays = 1;

    chk::Explorer explorer;
    const chk::ExploreResult broken =
        explorer.exploreExhaustive(chk::brokenStallScenario(), window);
    EXPECT_GT(broken.failures, 0u)
        << "exhaustive window around the sync point missed the "
           "planted stall bug";

    // ...and certify the healthy protocol clean over the very same
    // placements: an exhaustive pass is a proof for the window, not a
    // sample.
    const std::vector<chk::Scenario> library = chk::builtinScenarios();
    const chk::Scenario *healthy =
        chk::findScenario(library, "storm-baseline");
    ASSERT_NE(healthy, nullptr);
    const chk::ExploreResult clean =
        explorer.exploreExhaustive(*healthy, window);
    EXPECT_EQ(clean.failures, 0u)
        << "healthy protocol failed in the exhaustive window: "
        << clean.first_failing.format();
}

TEST(CorpusResume, NeverRepeatsATriedSchedule)
{
    const std::vector<chk::Scenario> library = chk::builtinScenarios();
    const chk::Scenario *storm =
        chk::findScenario(library, "storm-baseline");
    ASSERT_NE(storm, nullptr);

    chk::ExploreOptions opt;
    opt.systematic_budget = 6;
    opt.random_budget = 6;
    opt.coverage_guided = true;

    chk::Explorer explorer;
    chk::Corpus corpus; // shared across both campaigns
    opt.corpus = &corpus;

    const chk::ExploreResult first = explorer.explore(*storm, opt);
    EXPECT_EQ(first.duplicate_probes_skipped, 0u);
    EXPECT_GE(corpus.entries().size(), 1u); // baseline at minimum

    // The resumed campaign regenerates the same systematic sweep and
    // must skip every probe of it (and any mutation duplicates) as
    // already tried -- budget is spent on generation, not re-runs.
    const chk::ExploreResult resumed = explorer.explore(*storm, opt);
    EXPECT_GE(resumed.duplicate_probes_skipped, 6u);
    EXPECT_LT(resumed.trials, first.trials);
}

/**
 * The same resume, through the disk: a guided campaign run into a
 * directory-backed corpus leaves one file per admitted entry plus
 * tried.log, a fresh Corpus on that directory loads the same entries
 * and buckets, and a campaign on the reloaded corpus skips its whole
 * systematic sweep as already tried.
 */
TEST(CorpusResume, RoundTripsThroughTheDirectory)
{
    const std::vector<chk::Scenario> library = chk::builtinScenarios();
    const chk::Scenario *storm =
        chk::findScenario(library, "storm-baseline");
    ASSERT_NE(storm, nullptr);
    const std::string dir = ::testing::TempDir() + "mach-corpus-" +
                            std::to_string(::getpid());
    std::filesystem::remove_all(dir);

    chk::ExploreOptions opt;
    opt.systematic_budget = 6;
    opt.random_budget = 6;
    opt.coverage_guided = true;
    chk::Explorer explorer;

    const auto byFile = [](const chk::Corpus &corpus) {
        std::map<std::string, std::string> out;
        for (const chk::CorpusEntry &e : corpus.entries())
            out[chk::Corpus::entryFileName(e)] =
                chk::Corpus::formatEntry(e);
        return out;
    };

    std::map<std::string, std::string> written;
    std::size_t buckets = 0;
    {
        chk::Corpus corpus(dir);
        opt.corpus = &corpus;
        explorer.explore(*storm, opt);
        ASSERT_GE(corpus.entries().size(), 1u);
        written = byFile(corpus);
        buckets = corpus.buckets(storm->name);
    }

    chk::Corpus reloaded(dir);
    EXPECT_EQ(byFile(reloaded), written);
    EXPECT_EQ(reloaded.buckets(storm->name), buckets);

    opt.corpus = &reloaded;
    const chk::ExploreResult resumed = explorer.explore(*storm, opt);
    EXPECT_GE(resumed.duplicate_probes_skipped, opt.systematic_budget);
    std::filesystem::remove_all(dir);
}

/**
 * A corpus directory under a regular file cannot be created: the same
 * campaign then runs in memory, and the corpus counts every entry file
 * and tried.log line a writable directory received as not persisted.
 */
TEST(CorpusResume, CountsWritesThatFail)
{
    const std::vector<chk::Scenario> library = chk::builtinScenarios();
    const chk::Scenario *storm =
        chk::findScenario(library, "storm-baseline");
    ASSERT_NE(storm, nullptr);
    const std::string base = ::testing::TempDir() + "mach-corpus-" +
                             std::to_string(::getpid());
    const std::string good = base + "-good";
    const std::string file = base + "-file";
    std::filesystem::remove_all(good);
    std::filesystem::remove_all(file);
    std::ofstream(file) << "a regular file\n";

    chk::ExploreOptions opt;
    opt.systematic_budget = 6;
    opt.random_budget = 6;
    opt.coverage_guided = true;
    chk::Explorer explorer;

    chk::Corpus written(good);
    opt.corpus = &written;
    explorer.explore(*storm, opt);
    EXPECT_EQ(written.unpersistedEntries(), 0u);
    EXPECT_EQ(written.unpersistedTried(), 0u);
    std::size_t files = 0;
    for (const auto &it : std::filesystem::directory_iterator(good))
        files += it.path().extension() == ".corpus" ? 1 : 0;
    std::size_t tried = 0;
    std::ifstream log(good + "/tried.log");
    for (std::string line; std::getline(log, line);)
        ++tried;
    ASSERT_GE(files, 1u);
    ASSERT_GE(tried, 1u);

    chk::Corpus lost(file + "/sub");
    opt.corpus = &lost;
    explorer.explore(*storm, opt);
    EXPECT_EQ(lost.entries().size(), written.entries().size());
    EXPECT_EQ(lost.unpersistedEntries(), files);
    EXPECT_EQ(lost.unpersistedTried(), tried);
    EXPECT_FALSE(std::filesystem::exists(file + "/sub"));
    std::filesystem::remove_all(good);
    std::filesystem::remove_all(file);
}

} // namespace
