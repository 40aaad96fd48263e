/**
 * @file
 * Adversarial shootdown scenarios for the model checker.
 *
 * A Scenario is a machine configuration, a liveness bound, and a
 * driver body chosen to stress one corner of the TLB consistency
 * algorithm. The trial harness (chk/explorer.cc) builds the kernel,
 * starts it, runs the driver as the "chk-driver" thread on CPU 0, and
 * marks the run finished and stops the machine when the driver
 * returns. Scenarios cover:
 *
 *  - concurrent initiators operating on the same pmap,
 *  - an initiator racing responders that drain from the idle loop,
 *  - action-queue overflow forcing the full-flush fallback,
 *  - responders inside interrupt-masked kernel sections, and
 *  - a generic writer/reprotect storm replayed under every Section 9
 *    hardware option (high-priority IPI, multicast, broadcast,
 *    software reload, no ref/mod writeback, interlocked ref/mod,
 *    remote invalidate, ASID tags, virtual cache), the Section 8
 *    pool restructuring, and the delayed-flush strategy.
 *
 * Drivers report through ScenarioState instead of asserting:
 * `finished` is the bounded-liveness signal (every shootdown
 * terminates and the driver returns within the bound);
 * `predicate_ok` carries the paper's end-to-end safety property (no
 * write lands through a revoked mapping); `coverage_ok` confirms the
 * scenario actually exercised its target path (e.g. the idle-drain
 * counter moved). Coverage is only meaningful on the unperturbed
 * baseline run -- a perturbation may legitimately steer execution
 * around the target path -- so the explorer checks it there only.
 */

#ifndef MACH_CHK_SCENARIO_HH
#define MACH_CHK_SCENARIO_HH

#include <functional>
#include <string>
#include <vector>

#include "base/types.hh"
#include "hw/machine_config.hh"

namespace mach::kern
{
class Thread;
} // namespace mach::kern

namespace mach::vm
{
class Kernel;
} // namespace mach::vm

namespace mach::chk
{

/** Outcome flags a scenario driver reports into. */
struct ScenarioState
{
    /** The driver returned (bounded liveness); set by the harness. */
    bool finished = false;
    /** Safety predicate held (no write through a revoked mapping). */
    bool predicate_ok = true;
    /** Scenario-specific coverage fired (baseline run only). */
    bool coverage_ok = true;
    /** First predicate / coverage failure, for the report. */
    std::string note;

    /** The predicate failed; the first such failure names the note. */
    void failPredicate(std::string why);
    /** The coverage target was missed; notes it if nothing else did. */
    void failCoverage(std::string why);
};

/** One adversarial workload plus the machine it runs on. */
struct Scenario
{
    /** The body of the "chk-driver" thread (CPU 0, kernel started). */
    using Driver =
        std::function<void(vm::Kernel &, kern::Thread &, ScenarioState *)>;

    std::string name;
    std::string summary;
    hw::MachineConfig config;
    /** Sim-time liveness bound for the unperturbed run. */
    Tick bound = 0;
    Driver driver;
};

/** The full built-in scenario library. */
std::vector<Scenario> builtinScenarios();

/** The planted-bug scenarios: stall, replica, l0, asid, iotlb. */
std::vector<Scenario> plantedBugScenarios();

/**
 * The deliberately broken protocol: the writer/reprotect storm on a
 * machine with PlantedBug::SkipResponderStall set, so
 * responders rejoin the active set without stalling for the pmap
 * lock. The explorer must find schedules where a responder's reload
 * re-caches the pre-change PTE (the golden detection test).
 */
Scenario brokenStallScenario();

/**
 * The NUMA analog of the planted bug: per-node page-table replicas
 * with PlantedBug::DeferReplicaSync set, so the initiator
 * publishes the primary PTE change but syncs the replicas only after
 * unlocking and rejoining. A remote CPU whose hardware reload lands
 * in that window re-caches the revoked translation from its stale
 * local replica. The explorer must find such schedules.
 */
Scenario brokenReplicaScenario();

/**
 * The third planted bug: the per-CPU L0 translation cache keeps
 * serving an entry after the shootdown protocol revoked it, because
 * PlantedBug::SkipL0Invalidate makes the responder's L0
 * clear a no-op. The writer signals each target touch through a
 * shared beat counter and immediately evicts the stale slot (a sweep
 * of 8 decoy pages through the 4-slot round-robin L0, ~40 us); the
 * driver keys its revoke off the beat and waits out a 250 us margin,
 * so the unperturbed revoke always lands long after the sweep and
 * the baseline survives. A schedule that parks the writer inside the
 * sweep for most of that margin leaves the stale slot resident when
 * the revocation completes, which the oracle's L0-vs-page-table
 * audit flags.
 */
Scenario brokenL0Scenario();

/**
 * The fourth planted bug, aimed at the LazyAsid shootdown-avoidance
 * policy: PlantedBug::SkipAsidGenCheck makes the policy's
 * context-load hook return before consulting the deferred-flush set,
 * so a space whose flush was deferred (the target CPU was running
 * another space when the revocation fired) comes back current with
 * its revoked translations still live in the tagged TLB. A writer in
 * task A alternates 2 ms on-CPU / 2.5 ms asleep on CPU 1 while a
 * filler in task B keeps B's space current there; the driver keys
 * each revoke off the writer's beat, so unperturbed it always lands
 * in the on-CPU window (ordinary IPI path, baseline survives). A
 * schedule that delays the revoke into the sleep makes CPU 1 a
 * deferred target, and the writer's next store after waking lands
 * through the stale entry. The healthy twin is the library's
 * "policy-lazy-asid" scenario.
 */
Scenario brokenAsidScenario();

/**
 * The fifth planted bug, aimed at the device/IOTLB responder role
 * (docs/DEVICES.md): PlantedBug::SkipIotlbInvalidate makes
 * the device's action-queue drain clear the action-needed flag (the
 * stale-entry audit excuse) and charge full cost while skipping the
 * IOTLB invalidations themselves. The dev-dma-race workload streams a
 * DMA write plus a 2x-capacity decoy sweep per beat, so unperturbed
 * the sweep has always evicted the target's entry before the drain
 * runs and the baseline survives; a schedule that parks the device
 * inside the sweep across the driver's revocation leaves the stale
 * writable entry resident after the flag is cleared, and the driver's
 * post-revoke audit probes (pmap ops on an unrelated task) make the
 * oracle's IOTLB-vs-page-table audit land inside that window. The
 * healthy twin is the library's "dev-dma-race" scenario.
 */
Scenario brokenIotlbScenario();

/** Scenario by name from @p library, or null. */
const Scenario *findScenario(const std::vector<Scenario> &library,
                             const std::string &name);

/**
 * Resolve @p name to a runnable scenario: any
 * vmgen-<seed>[x<nodes>][d] name (chk/vmgen.hh; the "d" suffix mixes
 * in DMA-device ops), the built-in library, or one of the planted
 * bugs. This is the one name->scenario map the CLI, the corpus replay
 * test, and the CI lanes share. Returns false when nothing matches.
 */
bool resolveScenario(const std::string &name, Scenario *out);

} // namespace mach::chk

#endif // MACH_CHK_SCENARIO_HH
