/**
 * @file
 * Interleaving signatures: the model checker's coverage signal.
 *
 * A signature summarizes the *order* of shootdown-protocol events in
 * one quiescent window of a recorded run -- which CPUs initiated,
 * took IPIs, responded, stalled, and drained, and in what sequence --
 * while deliberately ignoring timestamps. Two schedules that realize
 * the same protocol interleaving therefore hash to the same signature
 * list even though their clocks differ, and a trial is "coverage
 * novel" exactly when one of its window signatures has never been
 * seen before in the campaign.
 *
 * Windows are delimited by protocol quiescence: a window is the
 * maximal run of "shoot"-category events during which at least one
 * protocol span is open; when the last open span closes (the machine
 * is quiescent again) the window's hash is emitted and the next
 * window starts fresh. Isolated instants (e.g. a queue overflow
 * outside any span) form single-event windows.
 *
 * The hash folds (phase, track, name) per event with FNV-1a over the
 * name *characters* -- never pointers -- so signatures are stable
 * across processes, builds, and hosts. Because recording is
 * timing-neutral, the signatures of a run are a pure function of its
 * interleaving: the same (scenario, schedule) pair yields the same
 * signature list with or without full JSON export and with or without
 * the host-side L0 translation cache.
 */

#ifndef MACH_OBS_SIGNATURE_HH
#define MACH_OBS_SIGNATURE_HH

#include <cstdint>
#include <vector>

#include "obs/recorder.hh"

namespace mach::obs
{

/**
 * The per-quiescent-window interleaving signatures of @p rec's
 * recording, in window order. Requires an unbounded recording (not
 * ring mode): a ring that dropped events would silently truncate the
 * leading windows.
 */
std::vector<std::uint64_t>
interleavingSignatures(const Recorder &rec);

} // namespace mach::obs

#endif // MACH_OBS_SIGNATURE_HH
