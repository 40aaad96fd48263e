/**
 * @file
 * Periodic counter sampling into the timeline recorder.
 *
 * Every `interval` ticks the Sampler emits counter-track samples:
 * per-CPU TLB hit ratio, shootdown queue depth, idle/active state,
 * plus machine-wide bus accesses, live event-queue size, and free page
 * frames. The samples become 'C' events in the same trace file as the
 * spans, so Perfetto draws them as line charts above the timeline.
 *
 * The recorder calls the Sampler as it records the first event past
 * each interval boundary (Recorder::sampleEvery); nothing is put on
 * the event queue. A sampled run therefore dispatches exactly the
 * events of an unsampled one, and a `--schedule` string addresses the
 * same `e<seq>` events with or without sampling.
 */

#ifndef MACH_OBS_SAMPLER_HH
#define MACH_OBS_SAMPLER_HH

#include <deque>
#include <string>

#include "base/types.hh"

namespace mach::vm
{
class Kernel;
} // namespace mach::vm

namespace mach::obs
{

/** Periodic counter sampler, driven by the recorder's event stream. */
class Sampler
{
  public:
    /**
     * Start sampling @p kernel's machine into its recorder every
     * @p interval ticks (first sample after one interval; 0 means
     * 1 ms). The kernel must outlive the sampler; the recorder must
     * be enabled. Destruction detaches it from the recorder.
     */
    Sampler(vm::Kernel &kernel, Tick interval);
    ~Sampler();

    Sampler(const Sampler &) = delete;
    Sampler &operator=(const Sampler &) = delete;

  private:
    void sample();

    /**
     * Intern "cpuN.<suffix>" counter names: counter events keep a
     * `const char *`, so the strings live here (a deque never moves
     * them) and the Sampler must outlive the recorder's export.
     */
    const char *cpuCounterName(const char *suffix, CpuId id);

    std::deque<std::string> names_;
    vm::Kernel &kernel_;
};

} // namespace mach::obs

#endif // MACH_OBS_SAMPLER_HH
