// Scheduler semantics: ordering, FIFO tie-break, same-time scheduling,
// run_until.
#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace dirq::sim {
namespace {

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.dispatched(), 0u);
}

TEST(Scheduler, DispatchesInTimestampOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(s.run_until(30), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(Scheduler, EqualTimestampsAreFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  s.run_until(5);
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, ScheduleInIsRelativeToNow) {
  Scheduler s;
  SimTime seen = -1;
  s.schedule_at(100, [&] {
    s.schedule_at(s.now() + 50, [&] { seen = s.now(); });
  });
  s.run_until(1000);
  EXPECT_EQ(seen, 150);
}

TEST(Scheduler, PendingCountsScheduledEvents) {
  Scheduler s;
  s.schedule_at(1, [] {});
  s.schedule_at(2, [] {});
  EXPECT_EQ(s.pending(), 2u);
  s.run_until(1);
  EXPECT_EQ(s.pending(), 1u);
  s.run_until(2);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, RunUntilStopsAtBoundaryInclusive) {
  Scheduler s;
  std::vector<SimTime> fired;
  for (SimTime t : {5, 10, 15, 20}) {
    s.schedule_at(t, [&fired, &s] { fired.push_back(s.now()); });
  }
  EXPECT_EQ(s.run_until(10), 2u);
  EXPECT_EQ(fired, (std::vector<SimTime>{5, 10}));
  EXPECT_EQ(s.now(), 10);
  EXPECT_EQ(s.run_until(100), 2u);
  EXPECT_EQ(s.now(), 100);  // clamps forward even after draining
}

TEST(Scheduler, RunUntilAdvancesTimeOnEmptyQueue) {
  Scheduler s;
  EXPECT_EQ(s.run_until(500), 0u);
  EXPECT_EQ(s.now(), 500);
}

TEST(Scheduler, EventsScheduledDuringDispatchAtSameTimeRun) {
  Scheduler s;
  int count = 0;
  s.schedule_at(10, [&] {
    ++count;
    s.schedule_at(10, [&] { ++count; });
  });
  EXPECT_EQ(s.run_until(10), 2u);
  EXPECT_EQ(count, 2);
}

TEST(Scheduler, SelfReschedulingChainTerminatesWithRunUntil) {
  Scheduler s;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    s.schedule_at(s.now() + 10, tick);
  };
  s.schedule_at(0, tick);
  s.run_until(95);
  EXPECT_EQ(ticks, 10);  // t = 0,10,...,90
  EXPECT_EQ(s.pending(), 1u);  // t = 100 stays queued
}

TEST(Scheduler, DispatchedCounterAccumulates) {
  Scheduler s;
  for (int i = 0; i < 5; ++i) s.schedule_at(i, [] {});
  s.run_until(4);
  EXPECT_EQ(s.dispatched(), 5u);
}

}  // namespace
}  // namespace dirq::sim
