// Unit tests for the simulation executive.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
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

TEST(Simulator, StopHaltsProcessing) {
  Simulator sim;
  int ran = 0;
  sim.schedule_at(Time::from_ns(1), [&] {
    ++ran;
    sim.stop();
  });
  sim.schedule_at(Time::from_ns(2), [&] { ++ran; });
  sim.run_until(Time::from_ns(100));
  EXPECT_EQ(ran, 1);
  // A subsequent run resumes with the remaining events.
  sim.run_until(Time::from_ns(100));
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, RunAllDrainsQueue) {
  Simulator sim;
  int ran = 0;
  for (int i = 1; i <= 5; ++i)
    sim.schedule_at(Time::from_ns(i), [&] { ++ran; });
  EXPECT_EQ(sim.run_all(), 5u);
  EXPECT_EQ(ran, 5);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, StepExecutesOneEvent) {
  Simulator sim;
  int ran = 0;
  sim.schedule_at(Time::from_ns(1), [&] { ++ran; });
  sim.schedule_at(Time::from_ns(2), [&] { ++ran; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(Time::from_ns(i + 1), [] {});
  sim.run_all();
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

// --- Watchdog ---------------------------------------------------------------

using wlan::sim::WatchdogExpired;

/// Schedules an endless self-rescheduling tick — the deterministic shape
/// of a "hung" simulation. The stored body holds only a weak_ptr to
/// itself, so the pending events are the tick's only owners and it is
/// freed with the simulator.
void arm_endless_tick(Simulator& sim) {
  auto tick = std::make_shared<std::function<void()>>();
  *tick = [&sim, weak = std::weak_ptr<std::function<void()>>(tick)] {
    sim.schedule_after(Duration::nanoseconds(10),
                       [tick = weak.lock()] { (*tick)(); });
  };
  sim.schedule_after(Duration::nanoseconds(10), [tick] { (*tick)(); });
}

TEST(Simulator, WatchdogEventBudgetIsExactAndDeterministic) {
  Simulator sim;
  arm_endless_tick(sim);
  sim.set_watchdog(/*max_events=*/100, /*max_wall_ms=*/0);
  try {
    sim.run_all();
    FAIL() << "watchdog did not fire";
  } catch (const WatchdogExpired& e) {
    EXPECT_EQ(e.kind, WatchdogExpired::Kind::kEvents);
    EXPECT_EQ(sim.events_executed(), 100u);
  }
}

TEST(Simulator, WatchdogDoesNotFireUnderBudget) {
  Simulator sim;
  int ran = 0;
  for (int i = 1; i <= 5; ++i)
    sim.schedule_at(Time::from_ns(i * 10), [&] { ++ran; });
  sim.set_watchdog(/*max_events=*/100, /*max_wall_ms=*/0);
  EXPECT_NO_THROW(sim.run_all());
  EXPECT_EQ(ran, 5);
}

TEST(Simulator, WatchdogDisarmsAfterFiring) {
  Simulator sim;
  arm_endless_tick(sim);
  sim.set_watchdog(/*max_events=*/10, /*max_wall_ms=*/0);
  EXPECT_THROW(sim.run_all(), WatchdogExpired);
  // The throw disarmed the watchdog: stepping further must not re-trip.
  EXPECT_NO_THROW(sim.step());
}

TEST(Simulator, WatchdogWallDeadlineFiresOnAHungLoop) {
  Simulator sim;
  arm_endless_tick(sim);
  // A 1 ms wall deadline on an endless loop: fires within the test's own
  // timeout regardless of machine speed (events are ~free, so the stride
  // between wall checks passes in microseconds).
  sim.set_watchdog(/*max_events=*/0, /*max_wall_ms=*/1);
  try {
    sim.run_all();
    FAIL() << "wall watchdog did not fire";
  } catch (const WatchdogExpired& e) {
    EXPECT_EQ(e.kind, WatchdogExpired::Kind::kWall);
  }
}

TEST(Simulator, ZeroZeroDisarmsTheWatchdog) {
  Simulator sim;
  arm_endless_tick(sim);
  sim.set_watchdog(10, 0);
  sim.set_watchdog(0, 0);  // disarm before running
  EXPECT_NO_THROW(sim.run_until(Time::from_ns(10'000)));
}

}  // namespace
