/**
 * @file
 * Unit tests for the schedule-perturbation directives: the text
 * format round-trip, directive merging, and the event-queue / bus
 * integration that realizes the delays.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/perturb.hh"
#include "hw/bus.hh"
#include "sim/event_queue.hh"

#include "closure_events.hh"

namespace
{

using namespace mach;

TEST(Perturb, EmptyFormatsToEmptyString)
{
    SchedulePerturber p;
    EXPECT_TRUE(p.empty());
    EXPECT_EQ(p.format(), "");
}

TEST(Perturb, FormatParseRoundTrip)
{
    SchedulePerturber p;
    p.delayEvent(1204, 48000);
    p.delayBusAccess(77, 9000);
    p.delayEvent(3, 120000);
    const std::string text = p.format();

    SchedulePerturber q;
    std::string error;
    ASSERT_TRUE(SchedulePerturber::parse(text, &q, &error)) << error;
    EXPECT_EQ(q.format(), text);
    EXPECT_EQ(q.items(), p.items());
}

TEST(Perturb, CanonicalOrderIsEventsThenBusByIndex)
{
    SchedulePerturber p;
    p.delayBusAccess(5, 100);
    p.delayEvent(9, 100);
    p.delayEvent(2, 100);
    EXPECT_EQ(p.format(), "e2+100,e9+100,b5+100");
}

TEST(Perturb, RepeatedDirectivesAccumulate)
{
    SchedulePerturber p;
    p.delayEvent(7, 100);
    p.delayEvent(7, 150);
    EXPECT_EQ(p.eventDelay(7), 250u);
    EXPECT_EQ(p.size(), 1u);
}

TEST(Perturb, ZeroDelayIsDropped)
{
    SchedulePerturber p;
    p.delayEvent(7, 0);
    p.delayBusAccess(7, 0);
    EXPECT_TRUE(p.empty());
}

TEST(Perturb, ParseRejectsMalformedInput)
{
    for (const char *bad :
         {"x7+100", "e7", "e7+", "e+100", "e7+0", "e7+100,,e8+1",
          "e7*100", "7+100", "e7+100junk"}) {
        SchedulePerturber p;
        std::string error;
        EXPECT_FALSE(SchedulePerturber::parse(bad, &p, &error))
            << "accepted: " << bad;
        EXPECT_TRUE(p.empty()) << "out modified by: " << bad;
    }
}

TEST(Perturb, ParseEmptyStringYieldsEmptyPerturbation)
{
    SchedulePerturber p;
    p.delayEvent(1, 1); // must be cleared by a successful parse
    ASSERT_TRUE(SchedulePerturber::parse("", &p, nullptr));
    EXPECT_TRUE(p.empty());
}

TEST(Perturb, FromItemsMatchesItems)
{
    SchedulePerturber p;
    p.delayEvent(11, 300);
    p.delayBusAccess(4, 200);
    SchedulePerturber q = SchedulePerturber::fromItems(p.items());
    EXPECT_EQ(q.format(), p.format());
}

/** A delayed event fires after an undelayed same-time neighbour. */
TEST(Perturb, EventQueueAppliesDelayAndReorders)
{
    SchedulePerturber p;
    p.delayEvent(1, 50); // first scheduled event slips by 50 ticks

    sim::test::ClosureEvents calls;
    sim::EventQueue q;
    q.setPerturber(&p);
    std::vector<int> order;
    calls.at(q, 100, [&] { order.push_back(1); });
    calls.at(q, 100, [&] { order.push_back(2); });

    EXPECT_EQ(q.fireFront(), 100u);
    EXPECT_EQ(q.fireFront(), 150u);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 2); // undelayed event now runs first
    EXPECT_EQ(order[1], 1);
}

/** Without a perturber the same program keeps insertion order. */
TEST(Perturb, EventQueueUnperturbedKeepsInsertionOrder)
{
    sim::test::ClosureEvents calls;
    sim::EventQueue q;
    std::vector<int> order;
    calls.at(q, 100, [&] { order.push_back(1); });
    calls.at(q, 100, [&] { order.push_back(2); });
    q.fireFront();
    q.fireFront();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

/** Bus access delays stretch the cost of exactly the named access. */
TEST(Perturb, BusAppliesDelayToNamedAccess)
{
    hw::MachineConfig config;
    config.mem_jitter = 0; // deterministic base cost
    hw::Bus bus(&config);

    const Tick base = bus.accessCost();
    EXPECT_EQ(bus.accessCount(), 1u);

    SchedulePerturber p;
    p.delayBusAccess(3, 777);
    bus.setPerturber(&p);
    const Tick second = bus.accessCost(); // access #2: unperturbed
    const Tick third = bus.accessCost();  // access #3: stretched
    EXPECT_EQ(second, base);
    EXPECT_EQ(third, base + 777);
}

} // namespace
