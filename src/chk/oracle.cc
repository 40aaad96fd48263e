#include "chk/oracle.hh"

#include <cstdio>

#include "hw/machine_config.hh"
#include "obs/recorder.hh"
#include "pmap/pmap.hh"
#include "vm/kernel.hh"

namespace mach::chk
{

Oracle::Oracle(vm::Kernel &kernel) : kernel_(kernel)
{
    kernel_.pmaps().setPostOpHook([this](pmap::Pmap &) {
        const hw::MachineConfig &cfg = kernel_.machine().cfg();
        if (cfg.shootdown_policy == hw::ShootdownPolicy::DelayedFlush) {
            // DelayedFlush holds stale entries until the next timer
            // flush by design; only finalCheck() is meaningful.
            return;
        }
        if (kernel_.pmaps().anyPmapLocked()) {
            // Another initiator is mid-change; remote TLBs may
            // legitimately be stale until its invalidation phase.
            return;
        }
        audit("post-op");
    });
}

Oracle::~Oracle()
{
    kernel_.pmaps().setPostOpHook(nullptr);
}

void
Oracle::finalCheck()
{
    if (kernel_.pmaps().anyPmapLocked()) {
        // Run was cut short with an operation in flight; any audit
        // result here would be meaningless.
        return;
    }
    audit("final");
}

void
Oracle::audit(const char *where)
{
    ++ops_audited_;
    const std::uint64_t before = violation_count_;
    for (const std::string &v : kernel_.pmaps().auditTlbConsistency()) {
        ++violation_count_;
        if (violations_.size() < kMaxStored) {
            char head[64];
            std::snprintf(head, sizeof(head), "[%s t=%llu] ", where,
                          static_cast<unsigned long long>(
                              kernel_.machine().now()));
            violations_.push_back(head + v);
        }
    }
    if (violation_count_ != before) {
        // Flight-recorder trigger: the first stale translation dumps
        // the recent-event ring (when machsim armed a dump path), so
        // the failure ships with its timeline.
        kernel_.machine().recorder().dumpOnFailure("stale translation");
    }
}

} // namespace mach::chk
