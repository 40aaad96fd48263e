/**
 * @file
 * The persistent schedule corpus behind coverage-guided exploration.
 *
 * A Corpus is the campaign-global memory of which protocol
 * interleavings have been seen (the signature bucket map, per
 * scenario) and which schedules have already been tried (the dedup
 * set). A trial is admitted when its interleaving signatures
 * (obs/signature.hh) add at least one new bucket; admitted entries
 * are kept in memory and -- when the corpus has a directory -- each
 * written to its own file:
 *
 *   chk_corpus/<scenario>-<hash16>.corpus
 *
 * The file is a small line-oriented text record (see formatEntry):
 * scenario id, canonical schedule string, run digest, verdict,
 * discovery metadata, and the signature list. Entries are
 * deterministic replays by construction -- `machsim --app chk
 * --scenario <id> --schedule <schedule>` reproduces the digest
 * bit-exactly -- which is what the corpus determinism golden test
 * enforces at several farm widths.
 *
 * Tried-schedule hashes are appended to <dir>/tried.log so a resumed
 * campaign (the weekly workflow, a re-run explorer lane) never spends
 * budget re-running a directive set any earlier campaign already
 * tried; the explorer reports those skips as duplicate_probes_skipped.
 * A write that fails is counted, not fatal: the campaign goes on in
 * memory, and machsim reports the loss and exits 1.
 */

#ifndef MACH_CHK_CORPUS_HH
#define MACH_CHK_CORPUS_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace mach::chk
{

/** One coverage-novel schedule and what its replay produced. */
struct CorpusEntry
{
    std::string scenario;
    /** Canonical SchedulePerturber::format() string ("" = baseline). */
    std::string schedule;
    /** Per-quiescent-window interleaving signatures of the replay. */
    std::vector<std::uint64_t> signatures;
    /** TrialResult::digest of the replay (bit-exact contract). */
    std::uint64_t digest = 0;
    /** Campaign trial ordinal at discovery (1 = baseline). */
    std::uint64_t trial = 0;
    /** Buckets this entry added when admitted (novelty weight). */
    std::uint64_t new_buckets = 0;
    /** The trial failed (safety or liveness) -- corpus keeps it too. */
    bool failed = false;
};

/** Signature buckets + tried-schedule dedup + on-disk persistence. */
class Corpus
{
  public:
    /** In-memory corpus (no persistence). */
    Corpus() = default;

    /**
     * Corpus rooted at @p dir: existing *.corpus entries and
     * tried.log are loaded immediately; the directory is created on
     * first write if missing.
     */
    explicit Corpus(std::string dir);

    /**
     * Merge every *.corpus entry (and tried.log) under @p dir into
     * the in-memory state without adopting @p dir for writes -- how a
     * campaign resumes from a committed, read-only seed corpus.
     * Returns false (with @p error) when the directory exists but an
     * entry fails to parse; a missing directory is not an error.
     */
    bool loadDir(const std::string &dir, std::string *error = nullptr);

    const std::string &dir() const { return dir_; }
    const std::vector<CorpusEntry> &entries() const { return entries_; }

    /**
     * Admitted entries whose file could not be written, and tried
     * schedules whose tried.log line could not be appended: what a
     * campaign found but the directory does not hold.
     */
    std::size_t unpersistedEntries() const { return unpersisted_entries_; }
    std::size_t unpersistedTried() const { return unpersisted_tried_; }

    /** Entries for one scenario, excluding the baseline ("") one. */
    std::vector<const CorpusEntry *>
    mutationPool(const std::string &scenario) const;

    /** Distinct signature buckets seen for @p scenario so far. */
    std::size_t buckets(const std::string &scenario) const;

    /**
     * Admit a trial: returns how many new buckets its signatures
     * added. When > 0 the entry (with new_buckets filled in) is
     * stored -- and written to disk if the corpus has a directory.
     */
    std::uint64_t admit(CorpusEntry entry);

    /**
     * Mark (scenario, schedule) tried. Returns false when it already
     * was -- the caller counts that as a duplicate probe skipped.
     */
    bool markTried(const std::string &scenario,
                   const std::string &schedule);

    /** Stable dedup hash over scenario + canonical schedule. */
    static std::uint64_t scheduleHash(const std::string &scenario,
                                      const std::string &schedule);

    /** The on-disk text form of one entry. */
    static std::string formatEntry(const CorpusEntry &entry);

    /** Parse formatEntry() text; returns false with @p error set. */
    static bool parseEntry(const std::string &text, CorpusEntry *out,
                           std::string *error = nullptr);

    /** The file name an entry persists under (scenario-hash16). */
    static std::string entryFileName(const CorpusEntry &entry);

  private:
    void absorb(CorpusEntry entry, bool rewrite);
    bool persistEntry(const CorpusEntry &entry) const;
    bool persistTried(std::uint64_t hash) const;

    std::string dir_;
    std::size_t unpersisted_entries_ = 0;
    std::size_t unpersisted_tried_ = 0;
    std::vector<CorpusEntry> entries_;
    /** scenario -> distinct window signatures seen. */
    std::map<std::string, std::set<std::uint64_t>> buckets_;
    /** scheduleHash() values already tried. */
    std::set<std::uint64_t> tried_;
};

} // namespace mach::chk

#endif // MACH_CHK_CORPUS_HH
