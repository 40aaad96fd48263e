#include "obs/signature.hh"

#include <cstring>
#include <map>

#include "base/fnv.hh"

namespace mach::obs
{

namespace
{

/** Fold one event's schedule-relevant fields (never its timestamp). */
std::uint64_t
foldEvent(std::uint64_t h, const Event &e)
{
    h = fnv::foldByte(h, static_cast<unsigned char>(e.phase));
    h = fnv::foldU64(h, e.track);
    if (e.name != nullptr)
        h = fnv::fold(h, e.name);
    // Span arguments carry the interleaving class the event names
    // alone miss: a drain's queued-action depth, a sync's waiting_on
    // count, an IPI's target fan-out, a fault's address. They are
    // schedule-dependent values, never timestamps, so folding them
    // keeps the signature stable across recording/host-cache modes
    // while separating e.g. a one-action drain from the two-action
    // drain only a parked responder produces.
    for (const Arg *arg : {&e.arg0, &e.arg1}) {
        if (arg->key == nullptr)
            continue;
        h = fnv::fold(h, arg->key);
        h = fnv::foldU64(h, arg->value);
    }
    return h;
}

} // namespace

std::vector<std::uint64_t>
interleavingSignatures(const Recorder &rec)
{
    std::vector<std::uint64_t> out;
    std::uint64_t h = fnv::kOffset;
    bool open_window = false;
    unsigned depth = 0; // open "shoot" spans across all tracks

    // Per-track rolling context: everything each track did since the
    // last quiescent window closed (faults taken, dispatches, TLB
    // maintenance). Folded into the window hash at window close, this
    // is the "where was every CPU when the protocol ran" half of the
    // interleaving -- the half that distinguishes a responder parked
    // mid-reload from one idling between beats even when the protocol
    // events themselves are identical. std::map for deterministic
    // track order.
    std::map<std::uint64_t, std::uint64_t> context;

    for (const Event &e : rec.events()) {
        // Span-end events carry only the span's name (Recorder::end
        // drops the category), so protocol membership is decided by
        // category for 'B'/'i' events and by name prefix for 'E'.
        const bool is_shoot =
            (e.category != nullptr &&
             std::strcmp(e.category, "shoot") == 0) ||
            (e.phase == 'E' && e.name != nullptr &&
             std::strncmp(e.name, "shoot.", 6) == 0);
        if (!is_shoot) {
            std::uint64_t &c = context[e.track];
            if (c == 0)
                c = fnv::kOffset;
            c = foldEvent(c, e);
            continue;
        }
        if (e.phase == 'B')
            ++depth;
        else if (e.phase == 'E' && depth > 0)
            --depth;

        h = foldEvent(h, e);
        open_window = true;

        if (depth == 0) { // quiescent again: the window is complete
            for (const auto &[track, c] : context) {
                h = fnv::foldU64(h, track);
                h = fnv::foldU64(h, c);
            }
            context.clear();
            out.push_back(h);
            h = fnv::kOffset;
            open_window = false;
        }
    }
    if (open_window) { // a span the run never closed still counts
        for (const auto &[track, c] : context) {
            h = fnv::foldU64(h, track);
            h = fnv::foldU64(h, c);
        }
        out.push_back(h);
    }
    return out;
}

} // namespace mach::obs
