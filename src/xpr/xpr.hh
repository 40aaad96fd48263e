/**
 * @file
 * The xpr instrumentation package (Section 6).
 *
 * A circular buffer of timestamped event records with data arguments,
 * event identifiers and processor numbers. Two event kinds matter for
 * the evaluation:
 *
 *  - Initiator records: whether the shootdown was on the kernel pmap or
 *    a user pmap, the number of Mach VM pages involved, the number of
 *    processors being shot at, and the elapsed time from invoking the
 *    shootdown algorithm until the initiator could begin its pmap
 *    changes.
 *  - Responder records: the elapsed time in the interrupt service
 *    routine (recorded only on a configurable subset of processors to
 *    avoid lock contention in the instrumentation itself).
 *
 * Recording costs simulated time (the measurement-validation experiment
 * of Section 6.1 quantifies that perturbation), controlled by the
 * enable flag.
 */

#ifndef MACH_XPR_XPR_HH
#define MACH_XPR_XPR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/types.hh"

namespace mach::xpr
{

/** Identifiers for recorded events. */
enum class EventKind : std::uint8_t
{
    ShootInitiator,
    ShootResponder,
};

/** One record in the circular buffer. */
struct Event
{
    EventKind kind;
    CpuId cpu;
    Tick timestamp;      ///< Machine time when recorded.
    bool kernel_pmap;    ///< Initiator: shootdown on the kernel pmap?
    std::uint32_t pages; ///< Initiator: VM pages involved.
    std::uint32_t procs; ///< Initiator: processors being shot at.
    Tick elapsed;        ///< Initiator: sync time; responder: ISR time.
};

/** Circular event buffer with on/off/reset control. */
class Buffer
{
  public:
    explicit Buffer(std::size_t capacity);

    /** Enable or disable recording (utility-program control surface). */
    void setEnabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    /** Drop all recorded events. */
    void reset();

    /** Append an event (no-op while disabled). */
    void record(const Event &event);

    /**
     * Call @p fn on each event, in recording order, where it lies in
     * the ring (no copy). If the buffer wrapped, only the most recent
     * `capacity` events survive -- size it so that it never overflows
     * during a run, as the paper did.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        const std::size_t n = ring_.size();
        std::size_t at = count_ == 0 ? 0 : (head_ + n - count_) % n;
        for (std::size_t i = 0; i < count_; ++i) {
            fn(ring_[at]);
            if (++at == n)
                at = 0;
        }
    }

    /** True when records were lost to wraparound. */
    bool overflowed() const { return overflowed_; }

    std::size_t size() const;
    std::size_t capacity() const { return capacity_; }

  private:
    /**
     * Backing store, grown lazily toward capacity_: the common run
     * records far fewer events than the configured capacity, so the
     * tail is never written (or zero-filled at construction).
     */
    std::vector<Event> ring_;
    std::size_t capacity_ = 0;
    std::size_t head_ = 0;  ///< Next write position.
    std::size_t count_ = 0; ///< Valid records (<= capacity).
    bool enabled_ = true;
    bool overflowed_ = false;
};

} // namespace mach::xpr

#endif // MACH_XPR_XPR_HH
