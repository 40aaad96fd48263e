/**
 * @file
 * Schedule exploration for the shootdown model checker.
 *
 * The simulator is deterministic: a machine seed plus a perturbation
 * list (base/perturb.hh) completely names one interleaving. The
 * explorer exploits that to model-check the shootdown algorithm the
 * way a stateless concurrency checker would:
 *
 *  1. run a scenario's unperturbed baseline and measure its event and
 *     bus-access counts (the perturbation index space);
 *  2. sweep that space with bounded-systematic single-delay probes
 *     (every stride-th event stretched by one of a ladder of deltas,
 *     realizing the same reorderings a swap-window DPOR pass would)
 *     and with randomized multi-delay probes;
 *  3. after every trial, judge three properties: bounded liveness
 *     (the workload finished inside bound + injected delay), the
 *     scenario's safety predicate (no write through a revoked
 *     mapping), and the stale-translation oracle (chk/oracle.hh);
 *  4. on failure, minimize the perturbation list to a 1-minimal,
 *     delta-shrunk reproducer whose format() string replays byte-for-
 *     byte under `machsim --schedule`.
 *
 * Every trial is a fresh vm::Kernel with the scenario's fixed config
 * seed, so exploration itself is fully deterministic: the same
 * ExploreOptions always visit the same schedules and report the same
 * first failure.
 */

#ifndef MACH_CHK_EXPLORER_HH
#define MACH_CHK_EXPLORER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/perturb.hh"
#include "base/types.hh"
#include "chk/scenario.hh"
#include "farm/farm.hh"

namespace mach::chk
{

class Corpus;

/** Everything observed about one perturbed run of a scenario. */
struct TrialResult
{
    /** Workload finished within bound + injected delay (liveness). */
    bool completed = false;
    /** Scenario safety predicate held. */
    bool predicate_ok = true;
    /** Scenario coverage fired (baseline runs only). */
    bool coverage_ok = true;
    /** Oracle violation reports (capped; count below is exact). */
    std::vector<std::string> violations;
    std::uint64_t violation_count = 0;
    std::uint64_t events_fired = 0;
    std::uint64_t bus_accesses = 0;
    Tick end_time = 0;
    /** Replay fingerprint over end state and protocol counters. */
    std::uint64_t digest = 0;
    /** First predicate/coverage failure note from the workload. */
    std::string note;
    /**
     * Per-quiescent-window interleaving signatures (the coverage
     * signal; obs/signature.hh). Only filled by signed trials, which
     * record every event: runTrialRecorded() without a ring, or
     * runTrials(..., with_signatures=true); a plain runTrial() leaves
     * it empty. Signed and unsigned trials of the same (scenario,
     * schedule) pair agree on every other field, digest included:
     * recording is timing-neutral.
     */
    std::vector<std::uint64_t> signatures;

    /** A safety or liveness failure (coverage is judged separately). */
    bool
    failed() const
    {
        return !completed || !predicate_ok || violation_count != 0;
    }
};

/** Knobs for one exploration campaign. */
struct ExploreOptions
{
    /** Systematic single-delay probes (stride sweep x delta ladder). */
    unsigned systematic_budget = 60;
    /** Randomized multi-delay probes after the sweep. */
    unsigned random_budget = 140;
    /** Seed for the probe generator (not the machine). */
    std::uint64_t seed = 0xC0FFEEull;
    /** Trial budget for minimizing a found failure. */
    unsigned minimize_budget = 120;
    /**
     * Coverage-guided mode: every probe trial runs signed, its
     * interleaving signatures feed the campaign's Corpus, and the
     * random phase mutates coverage-novel corpus entries (directive
     * splice, delta scale, seq shift) instead of sampling blind.
     * random_budget then counts *generated* mutation probes;
     * duplicates skipped by the dedup set consume budget without
     * running a trial.
     */
    bool coverage_guided = false;
    /**
     * The campaign's corpus: signature bucket map, tried-schedule
     * dedup, and (when the corpus has a directory) persistence.
     * Optional in coverage mode -- a private in-memory corpus is used
     * when null. In blind mode a non-null corpus still provides the
     * dedup set for satellite accounting (duplicate_probes_skipped).
     */
    Corpus *corpus = nullptr;
};

/** Bounds for exploreExhaustive(): every delay placement in a
 *  K-event window around one event sequence number (e.g. a sync
 *  point seen in a corpus entry or a minimized schedule). */
struct ExhaustiveWindow
{
    /** Window center, an e<seq> index of the baseline run. */
    std::uint64_t center = 0;
    /** Half-width K: the window is [center-K, center+K]. */
    std::uint64_t halfwidth = 8;
    /** 1 = singles only; 2 adds every ordered pair of placements. */
    unsigned max_delays = 2;
};

/** Outcome of an exploration campaign. */
struct ExploreResult
{
    unsigned trials = 0;
    unsigned failures = 0;
    /** Baseline itself failed (or missed coverage): no exploration. */
    bool baseline_failed = false;
    TrialResult baseline;
    /** First failing schedule, when failures != 0. */
    SchedulePerturber first_failing;
    TrialResult first_failure;
    /** Minimized reproducer and its `--schedule` string. */
    SchedulePerturber minimized;
    std::string minimized_schedule;
    TrialResult minimized_result;
    /** Probes skipped because their exact directive set was already
     *  tried (this campaign or, via a persistent corpus, an earlier
     *  one). Zero unless a dedup set is in play. */
    unsigned duplicate_probes_skipped = 0;
    /** Trials whose signatures added >= 1 new coverage bucket. */
    unsigned coverage_novel = 0;
    /**
     * Flight-recorder timeline of the minimized reproducer's replay
     * (Chrome Trace Event JSON), captured so every found failure ships
     * with an openable timeline; empty when nothing failed.
     */
    std::string flight_trace_json;

    bool
    foundFailure() const
    {
        return baseline_failed || failures != 0;
    }
};

/** Drives trials, campaigns, and failure minimization. */
class Explorer
{
  public:
    using Log = std::function<void(const std::string &)>;

    explicit Explorer(Log log = nullptr, farm::FarmOptions farm = {})
        : log_(std::move(log)), farm_(farm)
    {
    }

    /** How this explorer farms out probe batches. */
    const farm::FarmOptions &farm() const { return farm_; }

    /**
     * One run of @p scenario under @p perturber on a fresh kernel.
     * Deterministic: equal (scenario, perturbation) pairs produce
     * equal TrialResults, digest included.
     */
    TrialResult runTrial(const Scenario &scenario,
                         const SchedulePerturber &perturber) const;

    /**
     * runTrial() with the machine's timeline recorder enabled; the
     * run's Chrome Trace Event JSON lands in @p trace_json (when
     * non-null). @p ring_capacity 0 records everything, which also
     * captures the interleaving signatures into
     * TrialResult::signatures (a signed trial); otherwise only the
     * most recent events survive (flight-recorder mode). Every other
     * field -- digest included -- is identical to an unrecorded
     * runTrial() of the same pair, because recording charges no
     * simulated time.
     */
    TrialResult runTrialRecorded(const Scenario &scenario,
                                 const SchedulePerturber &perturber,
                                 std::string *trace_json,
                                 std::size_t ring_capacity = 0) const;

    /**
     * Run one trial per perturbation in @p probes and return their
     * results in probe order. Semantically identical to calling
     * runTrial() in a loop -- same TrialResults, digests included --
     * but farmed: with farm().jobs > 1 the probes run on that many
     * worker threads, and with farm().snapshots (where fork() is
     * available) the batch's shared unperturbed prefix -- everything
     * before the earliest perturbed index -- is simulated once,
     * parked, and fork-cloned per probe instead of re-run. Probes
     * whose snapshot is unusable silently fall back to full runs.
     * @p with_signatures runs every trial signed (the snapshot path
     * records the shared prefix once, so children inherit it).
     */
    std::vector<TrialResult>
    runTrials(const Scenario &scenario,
              const std::vector<SchedulePerturber> &probes,
              bool with_signatures = false) const;

    /**
     * Full campaign: baseline, sweep, random probes, minimization. A
     * baseline that fails or misses the scenario's coverage ends the
     * campaign (baseline_failed); otherwise probes run until the first
     * failing schedule, which is then minimized.
     */
    ExploreResult explore(const Scenario &scenario,
                          const ExploreOptions &opt = {});

    /**
     * Exhaustive small-window mode: enumerate *every* delay placement
     * (the systematic delta ladder) for every event sequence in the
     * window, singles first, then ordered pairs when
     * window.max_delays >= 2 -- a bounded, complete enumeration
     * around one sync point, where the randomized modes only sample.
     * Accounting is as-if-serial like explore()'s, and a found
     * failure is minimized the same way.
     */
    ExploreResult exploreExhaustive(const Scenario &scenario,
                                    const ExhaustiveWindow &window);

    /**
     * Shrink a failing perturbation to a 1-minimal list (no single
     * directive can be dropped) with halving-minimized deltas. The
     * input must fail; the result is always a known-failing schedule.
     */
    SchedulePerturber minimize(const Scenario &scenario,
                               const SchedulePerturber &failing,
                               unsigned budget) const;

  private:
    void say(const std::string &msg) const
    {
        if (log_)
            log_(msg);
    }

    /**
     * Run the unperturbed baseline into @p res, signed when @p sign.
     * False (logged, baseline_failed set) when it fails or misses the
     * scenario's coverage, which ends the campaign.
     */
    bool baselineHolds(const Scenario &scenario, bool sign,
                       ExploreResult *res) const;

    /**
     * As-if-serial accounting for one executed wave: count trials,
     * admit each result to @p corpus (when non-null; the trials ran
     * signed), and latch and log the first failure. Probe ordinals
     * (@p first_ord + i) below @p n_systematic are logged as
     * "systematic" probes, the rest as @p label probes.
     */
    void account(const Scenario &scenario,
                 const std::vector<SchedulePerturber> &wave,
                 const std::vector<TrialResult> &rs, Corpus *corpus,
                 std::size_t first_ord, std::size_t n_systematic,
                 const char *label, ExploreResult *res) const;

    /** Run @p probes in geometrically growing farmed waves, each
     *  accounted by account(), until the first failure. */
    void runWaves(const Scenario &scenario,
                  const std::vector<SchedulePerturber> &probes,
                  Corpus *corpus, std::size_t n_systematic,
                  const char *label, ExploreResult *res) const;

    /** The failure tail: minimize the first failing schedule within
     *  @p budget trials, replay it flight-recorded, log it. */
    void finishFailure(const Scenario &scenario, unsigned budget,
                       ExploreResult *res) const;

    Log log_;
    farm::FarmOptions farm_;
};

} // namespace mach::chk

#endif // MACH_CHK_EXPLORER_HH
