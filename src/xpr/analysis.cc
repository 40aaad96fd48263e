#include "xpr/analysis.hh"

#include <cstdio>

#include "base/logging.hh"

namespace mach::xpr
{

RunAnalysis
analyze(const Buffer &buffer)
{
    RunAnalysis out;
    out.overflowed = buffer.overflowed();
    if (out.overflowed) {
        warn("xpr buffer overflowed (capacity %zu); oldest records "
             "lost, analysis totals are truncated",
             buffer.capacity());
    }
    buffer.forEach([&out](const Event &event) {
        switch (event.kind) {
          case EventKind::ShootInitiator: {
            ShootdownSummary &summary = event.kernel_pmap
                                            ? out.kernel_initiator
                                            : out.user_initiator;
            ++summary.events;
            summary.time_usec.add(static_cast<double>(event.elapsed) /
                                  kUsec);
            summary.pages.add(event.pages);
            summary.procs.add(event.procs);
            break;
          }
          case EventKind::ShootResponder:
            ++out.responder.events;
            out.responder.time_usec.add(
                static_cast<double>(event.elapsed) / kUsec);
            break;
        }
    });
    return out;
}

std::string
formatRow(const std::string &label, const ShootdownSummary &summary,
          bool not_meaningful)
{
    char buf[256];
    if (summary.events == 0) {
        std::snprintf(buf, sizeof(buf), "%-12s %8llu %*s", label.c_str(),
                      0ull, 44, "-");
        return buf;
    }
    const Sample &t = summary.time_usec;
    if (not_meaningful) {
        std::snprintf(buf, sizeof(buf),
                      "%-12s %8llu  %8.0f+-%-8.0f %8s %8s %8s",
                      label.c_str(),
                      static_cast<unsigned long long>(summary.events),
                      t.mean(), t.stddev(), "NM", "NM", "NM");
    } else {
        std::snprintf(buf, sizeof(buf),
                      "%-12s %8llu  %8.0f+-%-8.0f %8.0f %8.0f %8.0f",
                      label.c_str(),
                      static_cast<unsigned long long>(summary.events),
                      t.mean(), t.stddev(), t.percentile(0.1), t.median(),
                      t.percentile(0.9));
    }
    return buf;
}

} // namespace mach::xpr
