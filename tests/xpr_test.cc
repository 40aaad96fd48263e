/**
 * @file
 * Tests for the xpr instrumentation package and its analysis.
 */

#include <gtest/gtest.h>

#include <vector>

#include "xpr/analysis.hh"
#include "xpr/xpr.hh"

namespace mach::xpr
{
namespace
{

Event
initiatorEvent(Tick elapsed, bool kernel, std::uint32_t procs = 3,
               std::uint32_t pages = 1)
{
    return {EventKind::ShootInitiator, 0, 1000, kernel, pages, procs,
            elapsed};
}

Event
responderEvent(Tick elapsed, CpuId cpu = 1)
{
    return {EventKind::ShootResponder, cpu, 1000, false, 0, 0, elapsed};
}

/** The buffer's records as forEach visits them. */
std::vector<Event>
contents(const Buffer &buffer)
{
    std::vector<Event> out;
    buffer.forEach([&out](const Event &event) { out.push_back(event); });
    return out;
}

TEST(XprBuffer, RecordsInOrder)
{
    Buffer buffer(8);
    buffer.record(initiatorEvent(10, true));
    buffer.record(responderEvent(20));
    const auto events = contents(buffer);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].elapsed, 10u);
    EXPECT_EQ(events[1].elapsed, 20u);
    EXPECT_FALSE(buffer.overflowed());
}

TEST(XprBuffer, WrapKeepsMostRecent)
{
    Buffer buffer(4);
    for (Tick t = 1; t <= 6; ++t)
        buffer.record(initiatorEvent(t, false));
    EXPECT_TRUE(buffer.overflowed());
    const auto events = contents(buffer);
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().elapsed, 3u);
    EXPECT_EQ(events.back().elapsed, 6u);
}

TEST(XprBuffer, DisabledBufferDropsRecords)
{
    Buffer buffer(4);
    buffer.setEnabled(false);
    buffer.record(initiatorEvent(1, false));
    EXPECT_EQ(buffer.size(), 0u);
    buffer.setEnabled(true);
    buffer.record(initiatorEvent(2, false));
    EXPECT_EQ(buffer.size(), 1u);
}

TEST(XprBuffer, ResetClears)
{
    Buffer buffer(4);
    buffer.record(initiatorEvent(1, false));
    buffer.reset();
    EXPECT_EQ(buffer.size(), 0u);
    EXPECT_FALSE(buffer.overflowed());
    buffer.record(initiatorEvent(2, false));
    EXPECT_EQ(contents(buffer)[0].elapsed, 2u);
}

TEST(XprBuffer, ResetWhileGrowingKeepsOrderAcrossWrap)
{
    // The ring grows lazily: a reset before it reaches capacity leaves
    // stale slots behind the write position, and the records after it
    // fill the tail before wrapping over the front.
    Buffer buffer(4);
    buffer.record(initiatorEvent(1, false));
    buffer.record(initiatorEvent(2, false));
    buffer.reset();
    for (Tick t = 3; t <= 7; ++t)
        buffer.record(initiatorEvent(t, false));
    std::vector<Tick> elapsed;
    for (const Event &event : contents(buffer))
        elapsed.push_back(event.elapsed);
    EXPECT_EQ(elapsed, (std::vector<Tick>{4, 5, 6, 7}));
    EXPECT_TRUE(buffer.overflowed());
}

TEST(XprAnalysis, ClassifiesByKindAndPmap)
{
    Buffer buffer(16);
    buffer.record(initiatorEvent(1000 * kUsec, true, 5, 2));
    buffer.record(initiatorEvent(2000 * kUsec, true, 7, 4));
    buffer.record(initiatorEvent(500 * kUsec, false, 3, 1));
    buffer.record(responderEvent(100 * kUsec));
    buffer.record(responderEvent(300 * kUsec));

    const RunAnalysis analysis = analyze(buffer);
    EXPECT_EQ(analysis.kernel_initiator.events, 2u);
    EXPECT_DOUBLE_EQ(analysis.kernel_initiator.time_usec.mean(),
                     1500.0);
    EXPECT_DOUBLE_EQ(analysis.kernel_initiator.pages.mean(), 3.0);
    EXPECT_DOUBLE_EQ(analysis.kernel_initiator.procs.mean(), 6.0);
    EXPECT_EQ(analysis.user_initiator.events, 1u);
    EXPECT_DOUBLE_EQ(analysis.user_initiator.time_usec.mean(), 500.0);
    EXPECT_EQ(analysis.responder.events, 2u);
    EXPECT_DOUBLE_EQ(analysis.responder.time_usec.mean(), 200.0);
    EXPECT_DOUBLE_EQ(analysis.kernel_initiator.totalOverheadUsec(),
                     3000.0);
}

TEST(XprAnalysis, EmptyBuffer)
{
    Buffer buffer(4);
    const RunAnalysis analysis = analyze(buffer);
    EXPECT_EQ(analysis.kernel_initiator.events, 0u);
    EXPECT_EQ(analysis.user_initiator.events, 0u);
    EXPECT_EQ(analysis.responder.events, 0u);
}

TEST(XprAnalysis, FormatRowShapes)
{
    ShootdownSummary summary;
    summary.events = 3;
    summary.time_usec.add(100);
    summary.time_usec.add(200);
    summary.time_usec.add(300);

    const std::string row = formatRow("App", summary);
    EXPECT_NE(row.find("App"), std::string::npos);
    EXPECT_NE(row.find("200"), std::string::npos);

    const std::string nm = formatRow("App", summary, true);
    EXPECT_NE(nm.find("NM"), std::string::npos);

    ShootdownSummary empty;
    const std::string none = formatRow("None", empty);
    EXPECT_NE(none.find("0"), std::string::npos);
}

} // namespace
} // namespace mach::xpr
