/**
 * @file
 * Timeline observability: a span/instant/counter event recorder.
 *
 * One Recorder belongs to one Machine and records structured timeline
 * events -- spans (begin/end pairs), instants, and counter samples --
 * stamped with deterministic simulated time and grouped onto tracks
 * (one per CPU, one machine-wide, per-thread tracks on demand). The
 * recording is exported in Chrome Trace Event Format JSON, loadable in
 * Perfetto or chrome://tracing, so a run -- especially a failing run
 * the model checker found -- can be inspected as a timeline instead of
 * re-read from text traces.
 *
 * Design constraints, in the spirit of the xpr package (Section 6):
 *
 *  - off by default, one predictable branch per site when disabled;
 *  - recording never touches simulated time: the Section 6.1-style
 *    perturbation experiment is the xpr package's (hw::kXprRecordCost);
 *  - deterministic: timestamps come from the simulated clock and the
 *    JSON is formatted with integer arithmetic only, so the same seed
 *    and flags produce byte-identical files (a golden digest test
 *    enforces this);
 *  - a bounded-ring "flight recorder" mode keeps only the most recent
 *    events and dumps them to a file when a failure is detected (a
 *    stale translation, a failed verdict, a minimized schedule);
 *  - the text trace is one more consumer of the same event stream:
 *    each event of the chosen categories is rendered as one line as
 *    it is recorded, and nothing extra is stored.
 *
 * Events are recorded through the boundary declarations of
 * obs/probe.hh, so each boundary's name, category, histogram and
 * request component are spelled once.
 */

#ifndef MACH_OBS_RECORDER_HH
#define MACH_OBS_RECORDER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "base/types.hh"
#include "obs/metrics.hh"
#include "obs/request.hh"

namespace mach::obs
{

/** Index of one timeline track (a "thread" row in the trace viewer). */
using TrackId = std::uint32_t;
constexpr TrackId kNoTrack = ~TrackId{0};

/** One small integer argument attached to an event. */
struct Arg
{
    const char *key = nullptr; ///< Static string; null = absent.
    std::uint64_t value = 0;
};

/** An event category: the name events carry, one text-trace bit. */
struct Category
{
    const char *name;
    std::uint32_t bit;
};

inline constexpr Category kShootCategory{"shoot", 1u << 0};
inline constexpr Category kVmCategory{"vm", 1u << 1};
inline constexpr Category kSchedCategory{"sched", 1u << 2};
inline constexpr Category kIrqCategory{"irq", 1u << 3};
inline constexpr Category kTlbCategory{"tlb", 1u << 4};
inline constexpr std::uint32_t kAllCategories = (1u << 5) - 1;

/** Ring depth of a flight recording (enableRing): `machsim
 *  --flight-recorder` and the explorer's reproducer replay. */
inline constexpr std::size_t kFlightRingCapacity = 16384;

/**
 * Parse a comma-separated category list ("shoot,vm", "all") into a
 * text-trace mask. An unknown (or empty) name fails with the name in
 * @p bad.
 */
bool parseCategories(const std::string &spec, std::uint32_t *mask,
                     std::string *bad);

/**
 * One instrumented boundary, declared once in obs/probe.hh: what every
 * sink needs to know about it.
 */
struct Site
{
    /** Timeline event name (static); null = attribution only. */
    const char *name;
    Category category;
    /**
     * Latency histogram (whole microseconds), or null. An obs::Probe
     * feeds it the span's duration; unscoped sites record their own
     * value (the irq post-to-deliver latency, the delayed-flush wait).
     */
    const char *histogram = nullptr;
    /** Request component the boundary banks to; Compute = none. */
    ReqComponent component = ReqComponent::Compute;
};

/** One recorded timeline event. */
struct Event
{
    Tick ts = 0;
    char phase = 'i'; ///< 'B' begin, 'E' end, 'i' instant, 'C' counter.
    TrackId track = 0;
    const char *name = nullptr;     ///< Static string.
    const char *category = nullptr; ///< Static string; may be null.
    Arg arg0;
    Arg arg1;
    /**
     * Optional free-form detail emitted as args.detail. The pointer
     * must outlive the recorder's export (static strings or names of
     * objects owned by the machine, e.g. thread names).
     */
    const char *detail = nullptr;
};

/**
 * Suffix a file path before its extension: ("t.json", "seed0x1")
 * -> "t.seed0x1.json". Used to give every --repeat seed and every
 * fork-snapshot child its own trace file.
 */
std::string suffixedPath(const std::string &path, const std::string &tag);

/**
 * Process-wide trace-file suffix, set in fork-snapshot children so a
 * child's dump never clobbers its siblings' (farm::forkMany installs
 * "childN"). Empty in the parent.
 */
void setProcessFileTag(const std::string &tag);

/**
 * Process-wide text-trace categories: every Recorder constructed
 * afterwards starts with enableText(@p categories), so `machsim
 * --trace` reaches every machine the process builds (farm workers,
 * checker trials, fork children).
 */
void setProcessTextTrace(std::uint32_t categories);

/** The per-machine timeline recorder. */
class Recorder
{
  public:
    /**
     * Reads the owning machine's simulated time. A callback because
     * the obs tests run a recorder on a fake clock, with no machine.
     */
    using Clock = std::function<Tick()>;
    /**
     * Receives one rendered text-trace line (no trailing newline); the
     * trace tests capture lines with their own.
     */
    using TextSink = std::function<void(const std::string &)>;

    explicit Recorder(Clock clock);

    Recorder(const Recorder &) = delete;
    Recorder &operator=(const Recorder &) = delete;

    /** The one-branch gate every instrumentation site tests first. */
    bool enabled() const { return enabled_; }

    /** Record everything (unbounded), e.g. for --trace-json. */
    void enable();

    /**
     * Flight-recorder mode: keep only the most recent @p capacity
     * events; older ones are dropped (and counted).
     */
    void enableRing(std::size_t capacity);

    /**
     * Stats-only mode: every instrumentation site runs (probes feed
     * their histograms) but no timeline events are stored, counter
     * samples included -- the memory-flat mode the serving-tier runs
     * and `machsim --stats-json` use, where only the latency
     * distributions matter, not the timeline.
     */
    void enableStats();

    /**
     * Text trace: render every event of the @p categories (a mask of
     * Category bits) as one line, `<us> us [<category>] <track>
     * <phase> <name> k=v...`, to @p sink (stderr when null). Lines of
     * a fork child carry its process file tag as a "[tag] " prefix.
     * Combines with the other modes; alone it records like
     * enableStats() and stores no events.
     */
    void enableText(std::uint32_t categories, TextSink sink = nullptr);

    bool ringMode() const { return ring_capacity_ != 0; }
    std::uint64_t droppedEvents() const { return dropped_; }

    /**
     * Call @p fn once per @p interval of simulated time, the first
     * boundary one interval from now: push() runs it just before it
     * stores the first event at or after each boundary (one call
     * covers every boundary that event passed). Sampling schedules no
     * event, so a sampled run dispatches exactly the events of an
     * unsampled one. A null @p fn detaches. A callback because most
     * recorders run with no sampler attached.
     */
    void sampleEvery(Tick interval, std::function<void()> fn);

    // ---- Tracks ------------------------------------------------------

    /**
     * Create a named track; ids are dense and deterministic (creation
     * order). Track 0 ("machine") always exists.
     */
    TrackId defineTrack(const std::string &name);

    /** Define the per-CPU tracks "cpu0".."cpuN-1" (Machine, once). */
    void setCpuTracks(unsigned ncpus);

    TrackId machineTrack() const { return 0; }
    TrackId cpuTrack(CpuId id) const { return cpu_track_base_ + id; }

    const std::vector<std::string> &tracks() const { return tracks_; }

    // ---- Recording (call only when enabled()) ------------------------

    void begin(TrackId track, const Site &site, Arg arg0 = {},
               Arg arg1 = {});
    /** Span end; the stored 'E' event carries the name only. */
    void end(TrackId track, const Site &site);
    void instant(TrackId track, const Site &site, Arg arg0 = {},
                 Arg arg1 = {}, const char *detail = nullptr);
    void counter(TrackId track, const char *name, std::uint64_t value);

    Tick now() const { return clock_(); }

    Metrics &metrics() { return metrics_; }
    const Metrics &metrics() const { return metrics_; }

    const std::deque<Event> &events() const { return events_; }

    // ---- Export ------------------------------------------------------

    /**
     * The whole recording as Chrome Trace Event Format JSON
     * ({"traceEvents":[...]}). Timestamps are microseconds with a
     * fixed 3-digit fraction, rendered with integer arithmetic so the
     * output is byte-stable across runs and hosts.
     */
    std::string toJson() const;

    /**
     * Write toJson() to @p path (decorated with the process file tag
     * when running in a fork child). Returns false on I/O failure.
     */
    bool writeJsonFile(const std::string &path) const;

    // ---- Flight-recorder dump ----------------------------------------

    /** Where a failure-triggered dump goes (empty = dumps disabled). */
    void setDumpPath(std::string path) { dump_path_ = std::move(path); }

    /**
     * Failure hook: if enabled and a dump path is set, write the
     * recording (in ring mode: the surviving tail) to the dump path,
     * once per recorder; later calls are no-ops. @p reason is noted in
     * the trace metadata. Returns true when a file was written.
     */
    bool dumpOnFailure(const char *reason);

    bool dumped() const { return dumped_; }

  private:
    /** Render @p event to the text sink if its category is traced,
     *  then store it unless stats-only. */
    void push(const Event &event, const Category &category);
    void writeLine(const Event &event, const char *category) const;

    Clock clock_;
    bool enabled_ = false;
    bool stats_only_ = false;
    std::uint32_t text_mask_ = 0;
    TextSink text_sink_;
    std::size_t ring_capacity_ = 0; ///< 0 = unbounded.
    std::uint64_t dropped_ = 0;
    std::deque<Event> events_;
    std::vector<std::string> tracks_;
    TrackId cpu_track_base_ = 0;
    std::function<void()> sample_fn_;
    Tick sample_interval_ = 0;
    /** Next sampling boundary; never reached while detached. */
    Tick next_sample_ = ~Tick{0};
    Metrics metrics_;
    std::string dump_path_;
    bool dumped_ = false;
    const char *dump_reason_ = nullptr;
};

} // namespace mach::obs

#endif // MACH_OBS_RECORDER_HH
