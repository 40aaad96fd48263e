/**
 * @file
 * Property-based scenario generation: random-but-legal VM-op
 * sequences as checker scenarios.
 *
 * vmgenScenario() is the repository's reference-model VM-op
 * generator (tests/vm_fuzz_test.cc runs it across seeds, machine
 * shapes and shootdown policies): a seeded, fully deterministic
 * sequence of allocate / write / read / protect / copy / remap /
 * deallocate operations runs on one body thread against a host-side
 * model of what the address space must contain, while read-only
 * toucher threads on the other CPUs keep the task's pmap live so
 * every reprotect is a real shootdown. The scenario's driver starts
 * the touchers and the body, joins them, and then checks coverage
 * (a shootdown ran; with devices, the DMA path was exercised).
 *
 * The resulting Scenario is legal by construction under *any* delay
 * perturbation: the model is driven only by the body thread's own
 * serial op sequence and the touchers never write, so no property
 * depends on the schedule -- exactly what the explorer needs to
 * perturb freely. Generated scenarios are auto-enrolled in
 * builtinScenarios() and resolvable by name ("vmgen-<seed>",
 * "vmgen-<seed>x<nodes>", with a trailing "d" for the device-enabled
 * variant) like any hand-written scenario.
 *
 * The device-enabled variant (VmGenOptions::devices) adds DMA ops to
 * the mix: the machine gets one DMA device attached to the fuzz
 * task's pmap, and the op sequence interleaves DMA reads and writes
 * (dev/dma_device.hh) with the CPU-side ops. The model predicts them
 * with one wrinkle -- protection increases are repaired lazily by CPU
 * faults and devices cannot fault, so each legal DMA op is preceded
 * by a CPU touch of the page (the driver-side repair every real DMA
 * stack performs; docs/DEVICES.md). Illegal DMA ops (model rights
 * forbid the access) must be dropped as translation faults: the
 * revocation path from vmProtect/vmDeallocate through the device's
 * action queue to the IOTLB is what this fuzzes.
 */

#ifndef MACH_CHK_VMGEN_HH
#define MACH_CHK_VMGEN_HH

#include <cstdint>

#include "chk/scenario.hh"

namespace mach::chk
{

/** Shape of one generated VM-op scenario. */
struct VmGenOptions
{
    /** Seed for both the op generator and the machine config. */
    std::uint64_t seed = 1;
    unsigned ncpus = 4;
    /** 1 = UMA; >1 adds the NUMA topology (ncpus spread evenly). */
    unsigned numa_nodes = 1;
    /** Attach one DMA device and mix DMA ops into the sequence. */
    bool devices = false;
};

/** The generated scenario ("vmgen-<seed>", "vmgen-<seed>x<nodes>"). */
Scenario vmgenScenario(const VmGenOptions &opt);

/**
 * Parse a vmgen scenario name back into its options; returns false
 * when @p name is not of the vmgen-<seed>[x<nodes>][d] form. The
 * named scenarios always use the default op count and CPU shape, so a
 * name fully determines the scenario -- which is what lets corpus
 * entries and CLI flags refer to generated scenarios by name alone.
 */
bool parseVmgenName(const std::string &name, VmGenOptions *out);

} // namespace mach::chk

#endif // MACH_CHK_VMGEN_HH
