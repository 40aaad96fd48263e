#include "obs/recorder.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "base/logging.hh"

namespace mach::obs
{

namespace
{

std::string g_process_file_tag;
std::uint32_t g_process_text_trace = 0;

/** Counters belong to no category and never reach the text trace. */
constexpr Category kNoCategory{nullptr, 0};

/** "12345678" ticks (ns) -> "12.345" (µs with fixed 3-digit fraction). */
void
appendMicros(std::string &out, Tick ts)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                  static_cast<unsigned long long>(ts / kUsec),
                  static_cast<unsigned long long>(ts % kUsec));
    out += buf;
}

void
appendU64(std::string &out, std::uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(value));
    out += buf;
}

/** Escape for a JSON string (names here are tame, but be correct). */
void
appendEscaped(std::string &out, const char *s)
{
    for (; *s != '\0'; ++s) {
        switch (*s) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: out += *s;
        }
    }
}

} // namespace

std::string
suffixedPath(const std::string &path, const std::string &tag)
{
    if (tag.empty())
        return path;
    const auto dot = path.rfind('.');
    const auto slash = path.rfind('/');
    const bool has_ext =
        dot != std::string::npos &&
        (slash == std::string::npos || dot > slash);
    if (!has_ext)
        return path + "." + tag;
    return path.substr(0, dot) + "." + tag + path.substr(dot);
}

bool
parseCategories(const std::string &spec, std::uint32_t *mask,
                std::string *bad)
{
    static constexpr Category kNamed[] = {
        kShootCategory, kVmCategory, kSchedCategory, kIrqCategory,
        kTlbCategory,
    };
    *mask = 0;
    std::size_t pos = 0;
    for (;;) {
        const std::size_t comma = std::min(spec.find(',', pos),
                                           spec.size());
        const std::string word = spec.substr(pos, comma - pos);
        std::uint32_t bit = word == "all" ? kAllCategories : 0;
        for (const Category &c : kNamed) {
            if (word == c.name)
                bit = c.bit;
        }
        if (bit == 0) {
            *bad = word;
            return false;
        }
        *mask |= bit;
        if (comma == spec.size())
            return true;
        pos = comma + 1;
    }
}

void
setProcessFileTag(const std::string &tag)
{
    g_process_file_tag = tag;
}

void
setProcessTextTrace(std::uint32_t categories)
{
    g_process_text_trace = categories;
}

Recorder::Recorder(Clock clock) : clock_(std::move(clock))
{
    tracks_.push_back("machine");
    if (g_process_text_trace != 0)
        enableText(g_process_text_trace);
}

void
Recorder::enable()
{
    enabled_ = true;
    stats_only_ = false;
    ring_capacity_ = 0;
}

void
Recorder::enableRing(std::size_t capacity)
{
    enabled_ = true;
    stats_only_ = false;
    ring_capacity_ = capacity == 0 ? 1 : capacity;
}

void
Recorder::enableStats()
{
    enabled_ = true;
    stats_only_ = true;
    ring_capacity_ = 0;
}

void
Recorder::enableText(std::uint32_t categories, TextSink sink)
{
    text_mask_ = categories;
    text_sink_ = std::move(sink);
    if (!enabled_ && categories != 0) {
        enabled_ = true;
        stats_only_ = true;
        ring_capacity_ = 0;
    }
}

TrackId
Recorder::defineTrack(const std::string &name)
{
    tracks_.push_back(name);
    return static_cast<TrackId>(tracks_.size() - 1);
}

void
Recorder::setCpuTracks(unsigned ncpus)
{
    cpu_track_base_ = static_cast<TrackId>(tracks_.size());
    for (unsigned i = 0; i < ncpus; ++i) {
        char name[16];
        std::snprintf(name, sizeof(name), "cpu%u", i);
        tracks_.push_back(name);
    }
}

void
Recorder::sampleEvery(Tick interval, std::function<void()> fn)
{
    MACH_ASSERT(interval > 0 || !fn);
    sample_fn_ = std::move(fn);
    sample_interval_ = interval;
    next_sample_ = sample_fn_ ? clock_() + interval : ~Tick{0};
}

void
Recorder::push(const Event &event, const Category &category)
{
    if (event.ts >= next_sample_) {
        // Move the boundary past this instant first: the samples the
        // callback records come back through push() at event.ts.
        next_sample_ +=
            ((event.ts - next_sample_) / sample_interval_ + 1) *
            sample_interval_;
        sample_fn_();
    }
    if ((text_mask_ & category.bit) != 0)
        writeLine(event, category.name);
    if (stats_only_)
        return;
    if (ring_capacity_ != 0 && events_.size() >= ring_capacity_) {
        events_.pop_front();
        ++dropped_;
    }
    events_.push_back(event);
}

void
Recorder::writeLine(const Event &event, const char *category) const
{
    std::string line;
    if (!g_process_file_tag.empty())
        line += "[" + g_process_file_tag + "] ";
    char stamp[48];
    std::snprintf(stamp, sizeof(stamp), "%10llu us [%s] ",
                  static_cast<unsigned long long>(event.ts / kUsec),
                  category);
    line += stamp;
    line += event.track < tracks_.size() ? tracks_[event.track] : "?";
    line += ' ';
    line += event.phase;
    line += ' ';
    line += event.name;
    for (const Arg &arg : {event.arg0, event.arg1}) {
        if (arg.key == nullptr)
            continue;
        line += ' ';
        line += arg.key;
        line += '=';
        appendU64(line, arg.value);
    }
    if (event.detail != nullptr) {
        line += " detail=";
        line += event.detail;
    }
    if (text_sink_)
        text_sink_(line);
    else
        std::fprintf(stderr, "%s\n", line.c_str());
}

void
Recorder::begin(TrackId track, const Site &site, Arg arg0, Arg arg1)
{
    push(Event{clock_(), 'B', track, site.name, site.category.name, arg0,
               arg1, nullptr},
         site.category);
}

void
Recorder::end(TrackId track, const Site &site)
{
    push(Event{clock_(), 'E', track, site.name, nullptr, {}, {}, nullptr},
         site.category);
}

void
Recorder::instant(TrackId track, const Site &site, Arg arg0, Arg arg1,
                  const char *detail)
{
    push(Event{clock_(), 'i', track, site.name, site.category.name, arg0,
               arg1, detail},
         site.category);
}

void
Recorder::counter(TrackId track, const char *name, std::uint64_t value)
{
    push(Event{clock_(), 'C', track, name, nullptr,
               Arg{"value", value}, {}, nullptr},
         kNoCategory);
}

std::string
Recorder::toJson() const
{
    std::string out;
    out.reserve(256 + events_.size() * 96);
    out += "{\"traceEvents\":[\n";

    // Metadata: one process, one named thread per track, sorted in
    // track order so Perfetto shows machine, cpu0..N, then threads.
    out += "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
           "\"args\":{\"name\":\"machsim\"}}";
    for (std::size_t i = 0; i < tracks_.size(); ++i) {
        out += ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":";
        appendU64(out, i);
        out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
        appendEscaped(out, tracks_[i].c_str());
        out += "\"}}";
        out += ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":";
        appendU64(out, i);
        out += ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":";
        appendU64(out, i);
        out += "}}";
    }
    if (dump_reason_ != nullptr) {
        out += ",\n{\"ph\":\"M\",\"pid\":1,\"name\":\"dump_reason\","
               "\"args\":{\"name\":\"";
        appendEscaped(out, dump_reason_);
        out += "\"}}";
    }
    if (dropped_ != 0) {
        out += ",\n{\"ph\":\"M\",\"pid\":1,\"name\":\"dropped_events\","
               "\"args\":{\"name\":\"";
        appendU64(out, dropped_);
        out += "\"}}";
    }

    // Spans still open at capture (idle loops parked at end of run) get
    // synthetic closes at the final timestamp so every 'B' has its 'E'.
    // In ring mode the ring may also hold orphaned 'E's whose 'B' was
    // evicted; those simply find an empty stack here and are skipped.
    std::vector<std::vector<const Event *>> open(tracks_.size());
    Tick last_ts = 0;
    for (const Event &e : events_) {
        if (e.ts > last_ts)
            last_ts = e.ts;
        if (e.track >= open.size())
            continue;
        if (e.phase == 'B') {
            open[e.track].push_back(&e);
        } else if (e.phase == 'E' && !open[e.track].empty()) {
            open[e.track].pop_back();
        }
    }

    auto emitEvent = [&out](const Event &e) {
        out += ",\n{\"ph\":\"";
        out += e.phase;
        out += "\",\"pid\":1,\"tid\":";
        appendU64(out, e.track);
        out += ",\"ts\":";
        appendMicros(out, e.ts);
        out += ",\"name\":\"";
        appendEscaped(out, e.name);
        out += "\"";
        if (e.category != nullptr) {
            out += ",\"cat\":\"";
            appendEscaped(out, e.category);
            out += "\"";
        }
        if (e.phase == 'i')
            out += ",\"s\":\"t\""; // thread-scoped instant
        if (e.arg0.key != nullptr || e.detail != nullptr) {
            out += ",\"args\":{";
            bool first = true;
            if (e.arg0.key != nullptr) {
                out += "\"";
                appendEscaped(out, e.arg0.key);
                out += "\":";
                appendU64(out, e.arg0.value);
                first = false;
            }
            if (e.arg1.key != nullptr) {
                if (!first)
                    out += ",";
                out += "\"";
                appendEscaped(out, e.arg1.key);
                out += "\":";
                appendU64(out, e.arg1.value);
                first = false;
            }
            if (e.detail != nullptr) {
                if (!first)
                    out += ",";
                out += "\"detail\":\"";
                appendEscaped(out, e.detail);
                out += "\"";
            }
            out += "}";
        }
        out += "}";
    };

    for (const Event &e : events_)
        emitEvent(e);
    for (std::size_t track = 0; track < open.size(); ++track) {
        // Close inner spans first (reverse stack order).
        for (auto it = open[track].rbegin(); it != open[track].rend();
             ++it) {
            emitEvent(Event{last_ts, 'E', static_cast<TrackId>(track),
                            (*it)->name, nullptr, {}, {}, nullptr});
        }
    }

    out += "\n]}\n";
    return out;
}

bool
Recorder::writeJsonFile(const std::string &path) const
{
    const std::string decorated = suffixedPath(path, g_process_file_tag);
    std::FILE *f = std::fopen(decorated.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::string json = toJson();
    const std::size_t wrote = std::fwrite(json.data(), 1, json.size(), f);
    const bool ok = std::fclose(f) == 0 && wrote == json.size();
    return ok;
}

bool
Recorder::dumpOnFailure(const char *reason)
{
    if (!enabled_ || dumped_ || dump_path_.empty())
        return false;
    dump_reason_ = reason;
    dumped_ = true;
    return writeJsonFile(dump_path_);
}

} // namespace mach::obs
