// Unit tests for the simulation executive.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace {

using wlan::sim::Duration;
using wlan::sim::Simulator;
using wlan::sim::Time;

TEST(Simulator, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), Time::zero());
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, RunUntilAdvancesClockToLimit) {
  Simulator sim;
  sim.run_until(Time::from_seconds(5.0));
  EXPECT_EQ(sim.now(), Time::from_seconds(5.0));
}

TEST(Simulator, CallbackSeesItsScheduledTime) {
  Simulator sim;
  Time seen = Time::zero();
  sim.schedule_at(Time::from_ns(500), [&] { seen = sim.now(); });
  sim.run_until(Time::from_ns(1000));
  EXPECT_EQ(seen.ns(), 500);
}

TEST(Simulator, EventsAtLimitRun) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(Time::from_ns(1000), [&] { ran = true; });
  sim.run_until(Time::from_ns(1000));
  EXPECT_TRUE(ran);
}

TEST(Simulator, EventsPastLimitDoNotRun) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(Time::from_ns(1001), [&] { ran = true; });
  sim.run_until(Time::from_ns(1000));
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.now(), Time::from_ns(1000));
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  std::vector<std::int64_t> times;
  sim.schedule_after(Duration::nanoseconds(10), [&] {
    times.push_back(sim.now().ns());
    sim.schedule_after(Duration::nanoseconds(10),
                       [&] { times.push_back(sim.now().ns()); });
  });
  sim.run_until(Time::from_ns(100));
  EXPECT_EQ(times, (std::vector<std::int64_t>{10, 20}));
}

TEST(Simulator, CancelInsideCallback) {
  Simulator sim;
  bool second_ran = false;
  auto id = sim.schedule_at(Time::from_ns(20), [&] { second_ran = true; });
  sim.schedule_at(Time::from_ns(10), [&] { sim.cancel(id); });
  sim.run_until(Time::from_ns(100));
  EXPECT_FALSE(second_ran);
}

TEST(Simulator, RunAllDrainsQueue) {
  Simulator sim;
  int ran = 0;
  for (int i = 1; i <= 5; ++i)
    sim.schedule_at(Time::from_ns(i), [&] { ++ran; });
  EXPECT_EQ(sim.run_until(Time::max()), 5u);
  EXPECT_EQ(ran, 5);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(Time::from_ns(i + 1), [] {});
  sim.run_until(Time::max());
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(Simulator, QueueStatsExposed) {
  Simulator sim;
  auto id = sim.schedule_at(Time::from_ns(5), [] {});
  sim.schedule_at(Time::from_ns(10), [] {});
  sim.schedule_at(Time::from_ns(15), [] {});
  sim.cancel(id);
  sim.run_until(Time::from_ns(10));
  const auto stats = sim.queue_stats();
  EXPECT_EQ(stats.scheduled, 3u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.fired, 1u);
  EXPECT_EQ(stats.live, 1u);
  EXPECT_EQ(stats.heap_callbacks, 0u);  // captureless lambdas stay inline
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(Simulator, CancelledEventsDoNotCountAsExecuted) {
  Simulator sim;
  int ran = 0;
  auto a = sim.schedule_at(Time::from_ns(1), [&] { ++ran; });
  sim.schedule_at(Time::from_ns(2), [&] { ++ran; });
  sim.cancel(a);
  EXPECT_EQ(sim.run_until(Time::from_ns(10)), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(Simulator, ThrowingCallbackLeavesTheRestPending) {
  Simulator sim;
  int ran = 0;
  sim.schedule_at(Time::from_ns(5), [] { throw std::runtime_error("boom"); });
  sim.schedule_at(Time::from_ns(8), [&] { ++ran; });
  EXPECT_THROW(sim.run_until(Time::from_ns(100)), std::runtime_error);
  EXPECT_EQ(sim.now(), Time::from_ns(5));
  EXPECT_EQ(sim.events_executed(), 0u);
  EXPECT_EQ(ran, 0);
  // The loop can be re-entered: the pending event still runs.
  EXPECT_EQ(sim.run_until(Time::from_ns(100)), 1u);
  EXPECT_EQ(ran, 1);
}

TEST(Simulator, SameTimeEventsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  // Mirrors the MAC's two-phase commit: decisions at t, then radio starts
  // scheduled at the same t run strictly after.
  sim.schedule_at(Time::from_ns(10), [&] {
    order.push_back(1);
    sim.schedule_at(Time::from_ns(10), [&] { order.push_back(3); });
  });
  sim.schedule_at(Time::from_ns(10), [&] { order.push_back(2); });
  sim.run_until(Time::from_ns(10));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

}  // namespace
