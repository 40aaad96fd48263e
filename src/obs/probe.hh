/**
 * @file
 * One probe per protocol boundary.
 *
 * Every instrumented boundary of the shootdown protocol, the VM fault
 * path, the scheduler, the interrupt path and the TLB is declared once
 * here: its timeline event name, category, latency histogram and
 * request-attribution component. A scoped boundary is then one
 * statement at its call site, an obs::Probe, which fans out to
 * whichever sinks are on -- the timeline (and with it the text trace,
 * obs::Recorder::enableText), the histogram registry, and the
 * request's attribution slot -- and closes all of them at scope exit.
 * Unscoped spans (irq service, the idle loop) and instants pass the
 * same declarations to Recorder::begin/end/instant.
 *
 * The xpr records are deliberately not a sink here: they charge
 * simulated time and feed runDigest, and respond() must record before
 * restoring the interrupt level while its span closes after.
 */

#ifndef MACH_OBS_PROBE_HH
#define MACH_OBS_PROBE_HH

#include "obs/recorder.hh"
#include "obs/request.hh"

namespace mach::obs
{

// ---- Scoped boundaries (obs::Probe) ---------------------------------

inline constexpr Site kShootInitiate{"shoot.initiate", kShootCategory,
                                     "shoot.initiator_us"};
inline constexpr Site kShootIpi{"shoot.ipi", kShootCategory, nullptr,
                                ReqComponent::IpiPost};
inline constexpr Site kShootSync{"shoot.sync", kShootCategory,
                                 "shoot.sync_us",
                                 ReqComponent::ResponderWait};
inline constexpr Site kShootDeviceSync{"shoot.device_sync",
                                       kShootCategory,
                                       "shoot.device_sync_us",
                                       ReqComponent::ResponderWait};
inline constexpr Site kShootRespond{"shoot.respond", kShootCategory,
                                    "shoot.responder_us",
                                    ReqComponent::Drain};
inline constexpr Site kShootStall{"shoot.stall", kShootCategory};
inline constexpr Site kShootDrain{"shoot.drain", kShootCategory};
inline constexpr Site kVmFault{"vm.fault", kVmCategory, "vm.fault_us",
                               ReqComponent::Fault};
/** The TLB-miss refill window: attribution only, no span. */
inline constexpr Site kTlbWalk{nullptr, kTlbCategory, nullptr,
                               ReqComponent::Walk};

// ---- Unscoped spans (Recorder::begin/end) ---------------------------

inline constexpr Site kIrqShootdown{"irq.shootdown", kIrqCategory,
                                    "irq.post_to_deliver_us"};
inline constexpr Site kIrqTimer{"irq.timer", kIrqCategory,
                                "irq.post_to_deliver_us"};
inline constexpr Site kIrqDevice{"irq.device", kIrqCategory,
                                 "irq.post_to_deliver_us"};
inline constexpr Site kIdle{"idle", kSchedCategory};

// ---- Instants (Recorder::instant) -----------------------------------

inline constexpr Site kShootQueueOverflow{"shoot.queue_overflow",
                                          kShootCategory};
inline constexpr Site kShootIdleDrain{"shoot.idle_drain",
                                      kShootCategory};
inline constexpr Site kShootDelayedFlushWait{"shoot.delayed_flush_wait",
                                             kShootCategory,
                                             "shoot.delayed_wait_us"};
inline constexpr Site kVmMigrate{"vm.migrate", kVmCategory};
inline constexpr Site kSchedDispatch{"sched.dispatch", kSchedCategory};
inline constexpr Site kTlbInvalidateRange{"tlb.invalidate_range",
                                          kTlbCategory};
inline constexpr Site kTlbFlushSpace{"tlb.flush_space", kTlbCategory};
inline constexpr Site kTlbFlushAll{"tlb.flush_all", kTlbCategory};

/**
 * RAII probe over one scoped boundary. On entry it opens the site's
 * span on @p track (when the recorder is enabled) and pushes the
 * site's component onto @p slot (when a request is in flight); at
 * scope exit it pops the component, closes the span on the same track
 * (so a migrating caller cannot split it) and feeds the span's
 * duration to the site's histogram. A disabled recorder costs one
 * branch, a null slot another; with a constexpr site lacking a name
 * or a component, the corresponding test folds away.
 */
class Probe
{
  public:
    Probe(Recorder &recorder, const Site &site, TrackId track,
          RequestSlot *slot, Arg arg0 = {}, Arg arg1 = {})
        : recorder_(recorder), site_(site)
    {
        if (site.name != nullptr && recorder.enabled()) {
            track_ = track;
            begin_ = recorder.now();
            recorder.begin(track, site, arg0, arg1);
        }
        if (site.component != ReqComponent::Compute && slot != nullptr) {
            slot_ = slot;
            slot->push(site.component, recorder.now());
        }
    }

    ~Probe()
    {
        if (slot_ != nullptr)
            slot_->pop(recorder_.now());
        if (track_ == kNoTrack)
            return;
        recorder_.end(track_, site_);
        if (site_.histogram != nullptr) {
            recorder_.metrics().histogram(site_.histogram).record(
                (recorder_.now() - begin_) / kUsec);
        }
    }

    Probe(const Probe &) = delete;
    Probe &operator=(const Probe &) = delete;

  private:
    Recorder &recorder_;
    const Site &site_;
    TrackId track_ = kNoTrack; ///< kNoTrack = no span open.
    Tick begin_ = 0;
    RequestSlot *slot_ = nullptr;
};

} // namespace mach::obs

#endif // MACH_OBS_PROBE_HH
