#include "chk/explorer.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "base/fnv.hh"
#include "base/rng.hh"
#include "chk/corpus.hh"
#include "chk/oracle.hh"
#include "obs/recorder.hh"
#include "obs/signature.hh"
#include "pmap/shootdown.hh"
#include "vm/kernel.hh"

namespace mach::chk
{

namespace
{

/** Delta ladder for the systematic sweep: one TLB-invalidate-scale
 *  nudge up to a schedule-quantum-scale shove. */
constexpr Tick kDeltaLadder[] = {30 * kUsec, 120 * kUsec, 500 * kUsec,
                                 1500 * kUsec};
constexpr unsigned kDeltaLadderSize = 4;

/** Max delay directives per random probe. */
constexpr unsigned kMaxDelays = 3;
/** Range of one random probe directive's delay. */
constexpr Tick kMinExtra = 20 * kUsec;
constexpr Tick kMaxExtra = 2 * kMsec;

/** Trial budget for minimizing a failure an exhaustive window found. */
constexpr unsigned kExhaustiveMinimizeBudget = 120;

/** Liveness bound for one perturbed run: the unperturbed bound plus
 *  every injected delay. A delay-only perturbation can stretch a run
 *  by at most the sum of its extras, so exceeding this bound means
 *  some shootdown (or join on one) genuinely failed to terminate. */
Tick
perturbedBound(const Scenario &scenario, const SchedulePerturber &p)
{
    Tick bound = scenario.bound;
    for (const PerturbItem &item : p.items())
        bound += item.extra;
    return bound;
}

/**
 * One trial's machinery: kernel, oracle, driver -- everything that
 * exists from start to verdict. Kept in one place so the serial
 * path (construct, run, finish) and the snapshot path (construct,
 * run the shared prefix, fork, resume, finish in the child) assemble
 * TrialResults with byte-identical rules. Construction starts the
 * kernel and spawns the scenario's driver as "chk-driver" on CPU 0;
 * when the driver returns the run is finished and the machine stops.
 */
struct TrialHarness
{
    vm::Kernel kernel;
    Oracle oracle;
    ScenarioState state;

    explicit TrialHarness(const Scenario &scenario,
                          const SchedulePerturber *perturber = nullptr)
        : kernel(scenario.config), oracle(kernel)
    {
        if (perturber != nullptr)
            kernel.machine().setPerturber(perturber);
        kernel.start();
        kernel.spawnThread(
            nullptr, "chk-driver",
            [this, driver = scenario.driver](kern::Thread &drv) {
                driver(kernel, drv, &state);
                state.finished = true;
                kernel.machine().ctx().requestStop();
            },
            0);
    }

    // The driver thread holds `this`.
    TrialHarness(const TrialHarness &) = delete;
    TrialHarness &operator=(const TrialHarness &) = delete;

    /** Judge the finished run; @p events_fired is the run() total. */
    TrialResult
    finish(std::uint64_t events_fired)
    {
        TrialResult out;
        oracle.finalCheck();
        kernel.machine().setPerturber(nullptr);

        out.events_fired = events_fired;
        out.completed = state.finished;
        out.predicate_ok = state.predicate_ok;
        out.coverage_ok = state.coverage_ok;
        out.note = state.note;
        out.violations = oracle.violations();
        out.violation_count = oracle.violationCount();
        out.bus_accesses = kernel.machine().busAccessTotal();
        out.end_time = kernel.machine().now();

        const pmap::ShootdownController &shoot =
            kernel.pmaps().shoot();
        std::uint64_t h = fnv::kOffset;
        h = fnv::foldU64(h, out.end_time);
        h = fnv::foldU64(h, out.events_fired);
        h = fnv::foldU64(h, out.bus_accesses);
        h = fnv::foldU64(h, shoot.initiated);
        h = fnv::foldU64(h, shoot.interrupts_sent);
        h = fnv::foldU64(h, shoot.responder_passes);
        h = fnv::foldU64(h, shoot.idle_drains);
        h = fnv::foldU64(h, shoot.queue_overflows);
        h = fnv::foldU64(h, shoot.remote_invalidates);
        h = fnv::foldU64(h, out.violation_count);
        out.digest = h;

        // The coverage signal rides along whenever the full event
        // stream was recorded (ring mode would have dropped windows).
        const obs::Recorder &rec = kernel.machine().recorder();
        if (rec.enabled() && !rec.ringMode())
            out.signatures = obs::interleavingSignatures(rec);
        return out;
    }
};

// ---- TrialResult wire form (fork-snapshot children -> parent) -------

void
appendU64(std::string &s, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

bool
readU64(const std::string &s, std::size_t *pos, std::uint64_t *v)
{
    if (*pos + 8 > s.size())
        return false;
    std::uint64_t out = 0;
    for (unsigned i = 0; i < 8; ++i)
        out |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(s[*pos + i]))
               << (8 * i);
    *pos += 8;
    *v = out;
    return true;
}

bool
readString(const std::string &s, std::size_t *pos, std::string *out)
{
    std::uint64_t len = 0;
    if (!readU64(s, pos, &len) || *pos + len > s.size())
        return false;
    out->assign(s, *pos, static_cast<std::size_t>(len));
    *pos += static_cast<std::size_t>(len);
    return true;
}

constexpr std::uint64_t kTrialWireMagic = 0x4d464152'5452494cull;

std::string
encodeTrial(const TrialResult &r)
{
    std::string s;
    appendU64(s, kTrialWireMagic);
    appendU64(s, r.completed ? 1 : 0);
    appendU64(s, r.predicate_ok ? 1 : 0);
    appendU64(s, r.coverage_ok ? 1 : 0);
    appendU64(s, r.violation_count);
    appendU64(s, r.events_fired);
    appendU64(s, r.bus_accesses);
    appendU64(s, r.end_time);
    appendU64(s, r.digest);
    appendU64(s, r.note.size());
    s += r.note;
    appendU64(s, r.violations.size());
    for (const std::string &v : r.violations) {
        appendU64(s, v.size());
        s += v;
    }
    appendU64(s, r.signatures.size());
    for (const std::uint64_t sig : r.signatures)
        appendU64(s, sig);
    return s;
}

bool
decodeTrial(const std::string &s, TrialResult *out)
{
    std::size_t pos = 0;
    std::uint64_t magic = 0, flag = 0, count = 0;
    if (!readU64(s, &pos, &magic) || magic != kTrialWireMagic)
        return false;
    if (!readU64(s, &pos, &flag))
        return false;
    out->completed = flag != 0;
    if (!readU64(s, &pos, &flag))
        return false;
    out->predicate_ok = flag != 0;
    if (!readU64(s, &pos, &flag))
        return false;
    out->coverage_ok = flag != 0;
    if (!readU64(s, &pos, &out->violation_count) ||
        !readU64(s, &pos, &out->events_fired) ||
        !readU64(s, &pos, &out->bus_accesses) ||
        !readU64(s, &pos, &out->end_time) ||
        !readU64(s, &pos, &out->digest))
        return false;
    if (!readString(s, &pos, &out->note))
        return false;
    if (!readU64(s, &pos, &count) || count > 4096)
        return false;
    out->violations.clear();
    out->violations.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
        std::string v;
        if (!readString(s, &pos, &v))
            return false;
        out->violations.push_back(std::move(v));
    }
    if (!readU64(s, &pos, &count) || count > (1u << 20))
        return false;
    out->signatures.clear();
    out->signatures.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t sig = 0;
        if (!readU64(s, &pos, &sig))
            return false;
        out->signatures.push_back(sig);
    }
    return pos == s.size();
}

// ---- Fork-snapshot batch runner -------------------------------------

/** Slack between the park watermark and the earliest perturbed index:
 *  one event body may insert many events or issue many bus accesses
 *  before runGuarded re-checks, so park comfortably early. */
constexpr std::uint64_t kSnapshotMargin = 512;

/** Minimum shared-prefix length (in events) before a probe batch is
 *  worth fork-snapshotting: below it the re-simulation skipped per
 *  probe does not cover the fork/pipe overhead. Purely a host-speed
 *  policy -- results are byte-identical at any floor. */
constexpr std::uint64_t kSnapshotFloor = 4096;

/**
 * Try to run @p probes off one fork-style prefix snapshot: simulate
 * the batch's shared unperturbed prefix once, park it, then fork one
 * child per probe to install its perturber and resume. Fills
 * results[i]/done[i] for every probe it completes; probes it cannot
 * serve (park failed, a directive landed inside the prefix, a child
 * died) are left for the caller's full-run fallback. Never changes a
 * result: a child's TrialResult is byte-identical to runTrial()'s.
 */
void
runSnapshotBatch(const Scenario &scenario,
                 const std::vector<SchedulePerturber> &probes,
                 unsigned jobs, bool with_signatures,
                 std::vector<TrialResult> &results,
                 std::vector<char> &done)
{
    constexpr std::uint64_t kNone = ~std::uint64_t{0};
    std::uint64_t min_eseq = kNone;
    std::uint64_t min_bidx = kNone;
    for (const SchedulePerturber &p : probes)
        for (const PerturbItem &item : p.items()) {
            if (item.bus)
                min_bidx = std::min(min_bidx, item.index);
            else
                min_eseq = std::min(min_eseq, item.index);
        }
    if (min_eseq == kNone && min_bidx == kNone)
        return; // all-baseline batch: nothing a snapshot could skip
    const auto watermark = [](std::uint64_t lo) {
        if (lo == kNone)
            return kNone;
        return lo > kSnapshotMargin ? lo - kSnapshotMargin
                                    : std::uint64_t{0};
    };
    const std::uint64_t ew = watermark(min_eseq);
    const std::uint64_t bw = watermark(min_bidx);
    if (ew == 0 || bw == 0)
        return; // a directive fires too early to park before it

    TrialHarness harness(scenario);
    // Signed batches record the shared prefix once; every fork child
    // inherits the recorded events and appends its own, so a child's
    // signature list matches a full signed run of the same probe.
    if (with_signatures)
        harness.kernel.machine().recorder().enable();
    const kern::Machine::PrefixRun prefix =
        harness.kernel.machine().runPrefix(ew, bw, scenario.bound);
    if (!prefix.parked || prefix.events < kSnapshotFloor)
        return; // run completed (must not resume) or prefix too thin

    const std::uint64_t park_events =
        harness.kernel.machine().ctx().queue().scheduledCount();
    const std::uint64_t park_bus =
        harness.kernel.machine().busAccessTotal();

    // The park point lands at the first event boundary past a
    // watermark, which may overshoot: re-check each probe's
    // directives against where the prefix actually stopped.
    std::vector<std::size_t> valid;
    for (std::size_t i = 0; i < probes.size(); ++i) {
        bool ok = true;
        for (const PerturbItem &item : probes[i].items()) {
            const std::uint64_t floor =
                item.bus ? park_bus : park_events;
            if (item.index <= floor) {
                ok = false;
                break;
            }
        }
        if (ok)
            valid.push_back(i);
    }
    if (valid.empty())
        return;

    const std::vector<std::optional<std::string>> payloads =
        farm::forkMany(valid.size(), jobs, [&](std::size_t k) {
            const SchedulePerturber &p = probes[valid[k]];
            harness.kernel.machine().setPerturber(&p);
            const std::uint64_t fired = harness.kernel.machine().run(
                perturbedBound(scenario, p));
            return encodeTrial(harness.finish(prefix.events + fired));
        });
    for (std::size_t k = 0; k < valid.size(); ++k) {
        if (!payloads[k])
            continue;
        TrialResult r;
        if (decodeTrial(*payloads[k], &r)) {
            results[valid[k]] = std::move(r);
            done[valid[k]] = 1;
        }
    }
}

// ---- Probe generation -----------------------------------------------

/**
 * Fixed wave width for coverage-guided mutation waves. Mutation
 * generation reads the corpus as it stood at the wave boundary, so
 * the width must not depend on the farm shape -- that is what keeps
 * coverage campaigns as-if-serial at any --jobs setting.
 */
constexpr std::size_t kCoverageWave = 8;

/** One blind multi-delay probe (the classic random phase). */
SchedulePerturber
randomProbe(Rng &rng, std::uint64_t n_events, std::uint64_t n_bus)
{
    SchedulePerturber p;
    const unsigned k = 1 + static_cast<unsigned>(rng.below(kMaxDelays));
    for (unsigned j = 0; j < k; ++j) {
        const Tick extra = kMinExtra + rng.below(kMaxExtra - kMinExtra + 1);
        if (rng.chance(0.15))
            p.delayBusAccess(1 + rng.below(n_bus), extra);
        else
            p.delayEvent(1 + rng.below(n_events), extra);
    }
    return p;
}

/**
 * One coverage-guided probe: mutate a corpus entry (biased toward
 * entries that opened more signature buckets) with one of the three
 * operators -- directive splice, delta scale, seq shift -- falling
 * back to a blind probe now and then (and always while the corpus is
 * still empty) so the campaign keeps a global exploration floor.
 */
SchedulePerturber
mutateProbe(Rng &rng, const std::vector<const CorpusEntry *> &pool,
            std::uint64_t n_events, std::uint64_t n_bus)
{
    if (pool.empty() || rng.chance(0.1))
        return randomProbe(rng, n_events, n_bus);

    // Tournament pick: novelty-weighted without a weight table.
    const CorpusEntry *a = pool[rng.below(pool.size())];
    const CorpusEntry *b = pool[rng.below(pool.size())];
    const CorpusEntry *entry = a->new_buckets >= b->new_buckets ? a : b;
    SchedulePerturber base;
    if (!SchedulePerturber::parse(entry->schedule, &base, nullptr) ||
        base.empty())
        return randomProbe(rng, n_events, n_bus);
    std::vector<PerturbItem> items = base.items();

    switch (rng.below(3)) {
      case 0: { // directive splice: union with another entry's items
        const CorpusEntry *other = pool[rng.below(pool.size())];
        SchedulePerturber donor;
        if (SchedulePerturber::parse(other->schedule, &donor,
                                     nullptr)) {
            for (const PerturbItem &item : donor.items()) {
                if (rng.chance(0.5))
                    items.push_back(item);
            }
        }
        const std::size_t cap = std::size_t{kMaxDelays} * 2;
        while (items.size() > cap)
            items.erase(items.begin() + static_cast<std::ptrdiff_t>(
                                            rng.below(items.size())));
        break;
      }
      case 1: { // delta scale: grow or shrink one delay
        PerturbItem &item = items[rng.below(items.size())];
        switch (rng.below(4)) {
          case 0:
            item.extra = std::max<Tick>(1, item.extra / 2);
            break;
          case 1:
            item.extra *= 2;
            break;
          case 2:
            item.extra *= 4;
            break;
          default:
            // Overdrive: resample from the band past the blind
            // probes' kMaxExtra cap. Hazard windows wider than any
            // single protocol phase (a whole revoke round, a full
            // writer beat) are only reachable from here.
            item.extra = kMaxExtra + rng.below(3 * kMaxExtra + 1);
            break;
        }
        item.extra = std::min<Tick>(item.extra, 4 * kMaxExtra);
        break;
      }
      default: { // seq shift: local search around one directive
        PerturbItem &item = items[rng.below(items.size())];
        const std::uint64_t hi = item.bus ? n_bus : n_events;
        switch (rng.below(4)) {
          case 0: // geometric funnel toward the run's early events:
                  // warmup-adjacent hazards sit at small sequence
                  // numbers a +-48 jitter never reaches from the
                  // middle of the index space
            item.index = std::max<std::uint64_t>(1, item.index / 2);
            break;
          case 1: // and the mirror, toward teardown
            item.index = std::min(hi, item.index * 2);
            break;
          default: {
            const std::uint64_t delta = 1 + rng.below(48);
            if (rng.chance(0.5))
                item.index = std::min(hi, item.index + delta);
            else
                item.index = item.index > 1 + delta ? item.index - delta : 1;
            break;
          }
        }
        break;
      }
    }
    return SchedulePerturber::fromItems(items);
}

} // namespace

TrialResult
Explorer::runTrial(const Scenario &scenario,
                   const SchedulePerturber &perturber) const
{
    TrialHarness harness(scenario, &perturber);
    const std::uint64_t fired = harness.kernel.machine().run(
        perturbedBound(scenario, perturber));
    return harness.finish(fired);
}

TrialResult
Explorer::runTrialRecorded(const Scenario &scenario,
                           const SchedulePerturber &perturber,
                           std::string *trace_json,
                           std::size_t ring_capacity) const
{
    TrialHarness harness(scenario, &perturber);
    obs::Recorder &rec = harness.kernel.machine().recorder();
    if (ring_capacity != 0)
        rec.enableRing(ring_capacity);
    else
        rec.enable();
    const std::uint64_t fired = harness.kernel.machine().run(
        perturbedBound(scenario, perturber));
    TrialResult out = harness.finish(fired);
    if (trace_json != nullptr)
        *trace_json = rec.toJson();
    return out;
}

std::vector<TrialResult>
Explorer::runTrials(const Scenario &scenario,
                    const std::vector<SchedulePerturber> &probes,
                    bool with_signatures) const
{
    std::vector<TrialResult> results(probes.size());
    std::vector<char> done(probes.size(), 0);

    if (farm_.snapshots && farm::forkAvailable() && probes.size() >= 2)
        runSnapshotBatch(scenario, probes, farm_.jobs, with_signatures,
                         results, done);

    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < probes.size(); ++i) {
        if (done[i])
            continue;
        jobs.push_back([this, &scenario, &probes, &results,
                        with_signatures, i] {
            results[i] =
                with_signatures
                    ? runTrialRecorded(scenario, probes[i], nullptr)
                    : runTrial(scenario, probes[i]);
        });
    }
    farm::runMany(std::move(jobs), farm_.jobs);
    return results;
}

bool
Explorer::baselineHolds(const Scenario &scenario, bool sign,
                        ExploreResult *res) const
{
    const SchedulePerturber none;
    res->baseline = sign ? runTrialRecorded(scenario, none, nullptr)
                         : runTrial(scenario, none);
    ++res->trials;
    if (!res->baseline.failed() && res->baseline.coverage_ok)
        return true;
    res->baseline_failed = true;
    say("baseline failed: " + scenario.name + " " + res->baseline.note);
    return false;
}

void
Explorer::account(const Scenario &scenario,
                  const std::vector<SchedulePerturber> &wave,
                  const std::vector<TrialResult> &rs, Corpus *corpus,
                  std::size_t first_ord, std::size_t n_systematic,
                  const char *label, ExploreResult *res) const
{
    for (std::size_t i = 0; i < rs.size(); ++i) {
        ++res->trials;
        if (corpus != nullptr) {
            CorpusEntry entry;
            entry.scenario = scenario.name;
            entry.schedule = wave[i].format();
            entry.signatures = rs[i].signatures;
            entry.digest = rs[i].digest;
            entry.trial = res->trials;
            entry.failed = rs[i].failed();
            if (corpus->admit(std::move(entry)) != 0)
                ++res->coverage_novel;
        }
        if (!rs[i].failed())
            continue;
        ++res->failures;
        res->first_failing = wave[i];
        res->first_failure = rs[i];
        const char *phase =
            first_ord + i < n_systematic ? "systematic" : label;
        say("failing schedule for " + scenario.name + " (" + phase +
            " probe): " + wave[i].format());
        return;
    }
}

void
Explorer::runWaves(const Scenario &scenario,
                   const std::vector<SchedulePerturber> &probes,
                   Corpus *corpus, std::size_t n_systematic,
                   const char *label, ExploreResult *res) const
{
    // Accounting is as-if-serial regardless of the farm shape: a
    // wave's extra speculative trials past the first failure are never
    // counted, so trials/failures/first_failing are independent of
    // jobs, snapshots, and wave size. Waves grow geometrically:
    // campaigns stop at their first failure, so ones that fail early
    // waste little speculation, and ones that run long amortize the
    // farm.
    const bool farmed =
        farm_.jobs > 1 || (farm_.snapshots && farm::forkAvailable());
    std::size_t wave_size = farmed ? 4 : 1;
    const std::size_t wave_cap =
        farmed ? std::max<std::size_t>(std::size_t{farm_.jobs} * 4, 32)
               : 1;
    for (std::size_t base = 0;
         base < probes.size() && res->failures == 0;) {
        const std::size_t end =
            std::min(probes.size(), base + wave_size);
        const std::vector<SchedulePerturber> wave(
            probes.begin() + static_cast<std::ptrdiff_t>(base),
            probes.begin() + static_cast<std::ptrdiff_t>(end));
        account(scenario, wave,
                runTrials(scenario, wave, corpus != nullptr), corpus,
                base, n_systematic, label, res);
        base = end;
        wave_size = std::min(wave_cap, wave_size * 2);
    }
}

void
Explorer::finishFailure(const Scenario &scenario, unsigned budget,
                        ExploreResult *res) const
{
    if (res->failures == 0)
        return;
    res->minimized = minimize(scenario, res->first_failing, budget);
    res->minimized_schedule = res->minimized.format();
    // Replay the reproducer once more with the flight recorder on:
    // recording is cost-free in simulated time, so this is the same
    // trial (same digest) plus an openable timeline of the failure's
    // final stretch.
    res->minimized_result =
        runTrialRecorded(scenario, res->minimized,
                         &res->flight_trace_json, obs::kFlightRingCapacity);
    char line[128];
    std::snprintf(line, sizeof(line), "minimized to %u directive(s): ",
                  static_cast<unsigned>(res->minimized.size()));
    say(line + res->minimized_schedule);
}

ExploreResult
Explorer::explore(const Scenario &scenario, const ExploreOptions &opt)
{
    ExploreResult res;

    // The campaign memory: opt.corpus when the caller keeps one
    // (persistent campaigns, cross-campaign dedup), else a private
    // in-memory corpus for coverage mode, else none (classic blind
    // exploration, bit-identical to what it always did).
    Corpus local;
    Corpus *corpus =
        opt.corpus != nullptr ? opt.corpus
                              : (opt.coverage_guided ? &local : nullptr);
    const bool dedup = corpus != nullptr;
    // Coverage mode runs every trial signed and admits it to the
    // corpus; blind mode uses the corpus for dedup only.
    Corpus *admit = opt.coverage_guided ? corpus : nullptr;

    if (!baselineHolds(scenario, admit != nullptr, &res))
        return res;
    if (admit != nullptr) {
        admit->markTried(scenario.name, "");
        CorpusEntry entry;
        entry.scenario = scenario.name;
        entry.signatures = res.baseline.signatures;
        entry.digest = res.baseline.digest;
        entry.trial = res.trials;
        if (admit->admit(std::move(entry)) != 0)
            ++res.coverage_novel;
    }

    const std::uint64_t n_events =
        std::max<std::uint64_t>(1, res.baseline.events_fired);
    const std::uint64_t n_bus =
        std::max<std::uint64_t>(1, res.baseline.bus_accesses);

    // Probe generation is split from execution so batches can be
    // farmed; the lists are exactly the schedules the serial loops
    // used to produce, in the same order.

    // Phase 1: bounded-systematic sweep. One delayed event per
    // probe, seq striding across the run, cycling the delta ladder --
    // the swap-window enumeration.
    std::vector<SchedulePerturber> probes;
    if (opt.systematic_budget != 0) {
        const std::uint64_t stride =
            std::max<std::uint64_t>(1, n_events / opt.systematic_budget);
        unsigned used = 0;
        for (std::uint64_t seq = 1;
             seq <= n_events && used < opt.systematic_budget;
             seq += stride, ++used) {
            SchedulePerturber p;
            p.delayEvent(seq, kDeltaLadder[used % kDeltaLadderSize]);
            if (dedup &&
                !corpus->markTried(scenario.name, p.format())) {
                ++res.duplicate_probes_skipped;
                continue;
            }
            probes.push_back(std::move(p));
        }
    }
    const std::size_t n_systematic = probes.size();

    // Phase 2 (blind mode): randomized multi-delay probes over events
    // and bus accesses. Drawn from the explorer's own named stream --
    // probe generation shares a seed with nothing else, so scenario
    // workloads keep their schedules no matter how many probes run.
    // Dedup (when a corpus is attached) filters *after* generation, so
    // the draw sequence -- and therefore every surviving schedule --
    // is unchanged from a corpus-less campaign.
    if (!opt.coverage_guided) {
        Rng rng(opt.seed, "chk.explorer.probes");
        for (unsigned t = 0; t < opt.random_budget; ++t) {
            SchedulePerturber p = randomProbe(rng, n_events, n_bus);
            if (dedup &&
                !corpus->markTried(scenario.name, p.format())) {
                ++res.duplicate_probes_skipped;
                continue;
            }
            probes.push_back(std::move(p));
        }
    }
    runWaves(scenario, probes, admit, n_systematic, "random", &res);

    // Phase 2 (coverage-guided mode): mutate corpus entries instead of
    // sampling blind. Waves are a fixed width -- generation reads the
    // corpus as it stood at the wave boundary, so the probes (and the
    // as-if-serial accounting) are identical at any farm shape.
    // Duplicates consume budget without running, so a converged corpus
    // winds a campaign down instead of re-running old schedules.
    if (admit != nullptr && res.failures == 0) {
        Rng mrng(opt.seed, "chk.explorer.mutate");
        unsigned generated = 0;
        while (generated < opt.random_budget && res.failures == 0) {
            const std::vector<const CorpusEntry *> pool =
                admit->mutationPool(scenario.name);
            std::vector<SchedulePerturber> wave;
            while (wave.size() < kCoverageWave &&
                   generated < opt.random_budget) {
                ++generated;
                SchedulePerturber p =
                    mutateProbe(mrng, pool, n_events, n_bus);
                if (p.empty() ||
                    !admit->markTried(scenario.name, p.format())) {
                    ++res.duplicate_probes_skipped;
                    continue;
                }
                wave.push_back(std::move(p));
            }
            if (wave.empty())
                continue;
            account(scenario, wave, runTrials(scenario, wave, true),
                    admit, 0, 0, "mutated", &res);
        }
    }

    finishFailure(scenario, opt.minimize_budget, &res);
    return res;
}

ExploreResult
Explorer::exploreExhaustive(const Scenario &scenario,
                            const ExhaustiveWindow &window)
{
    ExploreResult res;
    if (!baselineHolds(scenario, false, &res))
        return res;

    const std::uint64_t n_events =
        std::max<std::uint64_t>(1, res.baseline.events_fired);
    const std::uint64_t lo = window.center > window.halfwidth
                                 ? window.center - window.halfwidth
                                 : 1;
    const std::uint64_t hi =
        std::min(n_events, window.center + window.halfwidth);
    if (lo > hi) {
        say("exhaustive window [" + std::to_string(lo) + ", ...] is "
            "past the end of the run (" + std::to_string(n_events) +
            " events)");
        return res;
    }

    // The complete enumeration: every single delay placement in the
    // window (each sequence x the whole delta ladder), then -- when
    // max_delays allows -- every unordered pair of distinct
    // placements. Same-sequence pairs are skipped: delays merge
    // additively, so they are singles already covered by the ladder.
    std::vector<SchedulePerturber> probes;
    for (std::uint64_t seq = lo; seq <= hi; ++seq) {
        for (std::size_t d = 0; d < kDeltaLadderSize; ++d) {
            SchedulePerturber p;
            p.delayEvent(seq, kDeltaLadder[d]);
            probes.push_back(std::move(p));
        }
    }
    if (window.max_delays >= 2) {
        for (std::uint64_t s1 = lo; s1 <= hi; ++s1) {
            for (std::uint64_t s2 = s1 + 1; s2 <= hi; ++s2) {
                for (std::size_t d1 = 0; d1 < kDeltaLadderSize; ++d1) {
                    for (std::size_t d2 = 0; d2 < kDeltaLadderSize; ++d2) {
                        SchedulePerturber p;
                        p.delayEvent(s1, kDeltaLadder[d1]);
                        p.delayEvent(s2, kDeltaLadder[d2]);
                        probes.push_back(std::move(p));
                    }
                }
            }
        }
    }
    say("exhaustive window [" + std::to_string(lo) + ", " +
        std::to_string(hi) + "]: " + std::to_string(probes.size()) +
        " placements");

    runWaves(scenario, probes, nullptr, 0, "exhaustive", &res);
    finishFailure(scenario, kExhaustiveMinimizeBudget, &res);
    return res;
}

SchedulePerturber
Explorer::minimize(const Scenario &scenario,
                   const SchedulePerturber &failing,
                   unsigned budget) const
{
    std::vector<PerturbItem> items = failing.items();
    unsigned used = 0;

    auto fails = [&](const std::vector<PerturbItem> &cand) {
        if (used >= budget)
            return false; // out of budget: keep the known-failing set
        ++used;
        return runTrial(scenario,
                        SchedulePerturber::fromItems(cand))
            .failed();
    };

    // 1-minimal reduction: drop directives one at a time until no
    // single drop still reproduces the failure. Each round farms the
    // whole drop-one wave, then charges the budget exactly as the
    // serial loop would have -- up to and including the first failing
    // candidate -- so `used`, the surviving items, and the final
    // schedule never depend on the farm shape.
    bool exhausted = false;
    bool changed = true;
    while (changed && items.size() > 1 && !exhausted) {
        changed = false;
        std::vector<std::vector<PerturbItem>> cands;
        cands.reserve(items.size());
        for (std::size_t i = 0; i < items.size(); ++i) {
            std::vector<PerturbItem> cand = items;
            cand.erase(cand.begin() + static_cast<std::ptrdiff_t>(i));
            cands.push_back(std::move(cand));
        }
        const std::size_t can_run = std::min<std::size_t>(
            cands.size(), budget - used);
        std::vector<SchedulePerturber> wave;
        wave.reserve(can_run);
        for (std::size_t i = 0; i < can_run; ++i)
            wave.push_back(SchedulePerturber::fromItems(cands[i]));
        const std::vector<TrialResult> rs = runTrials(scenario, wave);

        std::size_t first_fail = can_run;
        for (std::size_t i = 0; i < can_run; ++i)
            if (rs[i].failed()) {
                first_fail = i;
                break;
            }
        if (first_fail < can_run) {
            used += static_cast<unsigned>(first_fail) + 1;
            items = std::move(cands[first_fail]);
            changed = true;
        } else {
            used += static_cast<unsigned>(can_run);
            if (can_run < cands.size())
                exhausted = true; // serial would idle out the rest
        }
    }

    // Delta shrinking: halve each surviving delay while the failure
    // still reproduces, to report the smallest sufficient stretch.
    // Inherently serial -- every halving depends on the last verdict.
    for (std::size_t i = 0; i < items.size(); ++i) {
        while (items[i].extra > 1) {
            std::vector<PerturbItem> cand = items;
            cand[i].extra /= 2;
            if (!fails(cand))
                break;
            items = cand;
        }
    }

    return SchedulePerturber::fromItems(items);
}

} // namespace mach::chk
